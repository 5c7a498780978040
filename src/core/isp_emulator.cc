#include "core/isp_emulator.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"
#include "ops/plan.h"

namespace presto {

namespace {

/** On-chip buffer capacity of one PE (values per double-buffer half). */
constexpr size_t kPeBufferValues = 4096;

/**
 * Distinct PEs engaged by @p prog's streams on @p num_units PEs: one
 * stream per dense output, a generated output on its source dense
 * feature's stream (both chains read the same decoded values), raw
 * sparse streams after the dense ones.
 */
uint32_t
featureUnitsUsed(const CompiledProgram& prog, size_t num_units)
{
    std::vector<char> used(num_units, 0);
    for (const CompiledOutput& out : prog.outputs()) {
        if (out.kind == PlanOutput::Kind::kLabel)
            continue;
        size_t stream = out.kind == PlanOutput::Kind::kDense
                            ? out.slot
                            : prog.numDense() + out.slot;
        if (out.kind == PlanOutput::Kind::kGenerated) {
            for (const CompiledOutput& d : prog.outputs()) {
                if (d.kind == PlanOutput::Kind::kDense &&
                    d.source == out.source) {
                    stream = d.slot;
                    break;
                }
            }
        }
        used[stream % num_units] = 1;
    }
    return static_cast<uint32_t>(std::count(used.begin(), used.end(), 1));
}

}  // namespace

IspEmulator::IspEmulator(const RmConfig& config, int num_feature_units,
                         ThreadPool* decode_pool)
    : config_(config),
      program_(CompiledProgram::compile(
          TransformPlan::standard(config),
          Schema::makeRecSys(config.num_dense, config.num_sparse))),
      bucketize_levels_(static_cast<uint64_t>(
          std::log2(static_cast<double>(config.bucket_size)) + 1.0))
{
    PRESTO_CHECK(num_feature_units >= 1, "need at least one feature unit");
    feature_units_used_ = featureUnitsUsed(
        program_, static_cast<size_t>(num_feature_units));
    reader_.setThreadPool(decode_pool);
}

StatusOr<MiniBatch>
IspEmulator::process(std::span<const uint8_t> encoded_partition)
{
    MiniBatch mb;
    PRESTO_RETURN_IF_ERROR(processInto(encoded_partition, mb));
    return StatusOr<MiniBatch>(std::move(mb));
}

Status
IspEmulator::processInto(std::span<const uint8_t> encoded_partition,
                         MiniBatch& mb)
{
    counters_ = IspUnitCounters();

    // --- P2P transfer: the encoded partition streams SSD -> FPGA DRAM.
    counters_.p2p_bytes = encoded_partition.size();

    // --- Decoder unit: parse the columnar pages into feature streams
    // (into the device-resident raw_ buffers). Page CRC32C checks run
    // here; any damage surfaces as kCorruption.
    if (Status st = reader_.open(encoded_partition); !st.ok())
        return Status(st.code(), "ISP decode failed: " + st.message());
    if (Status st = reader_.readAllInto(raw_); !st.ok())
        return Status(st.code(), "ISP decode failed: " + st.message());
    counters_.decoded_values = raw_.totalValues();
    if (raw_.schema().fingerprint() !=
        program_.inputSchema().fingerprint()) {
        return Status::corruption(
            "partition schema does not match the workload");
    }

    // --- Generation and Normalization PEs, then DMA-out: the CPU
    // path's compiled program.
    program_.run(raw_, mb, arena_);

    // Each PE streams its output through double-buffered halves of
    // kPeBufferValues values; every half is one buffer swap.
    uint64_t sparse_values = 0;
    for (const CompiledOutput& out : program_.outputs()) {
        if (out.kind == PlanOutput::Kind::kLabel)
            continue;
        const uint64_t n = out.kind == PlanOutput::Kind::kDense
                               ? mb.batch_size
                               : mb.sparse[out.slot].values.size();
        counters_.buffer_swaps += (n + kPeBufferValues - 1) / kPeBufferValues;
        if (out.kind == PlanOutput::Kind::kGenerated)
            counters_.bucketize_values += n;
        else if (out.kind == PlanOutput::Kind::kSparse)
            sparse_values += n;
    }
    counters_.bucketize_levels =
        counters_.bucketize_values * bucketize_levels_;
    counters_.log_values = mb.dense.size();
    counters_.hash_values = sparse_values + counters_.bucketize_values;
    counters_.convert_values =
        mb.labels.size() + mb.dense.size() + counters_.hash_values;
    counters_.feature_units_used = feature_units_used_;
    return Status::okStatus();
}

}  // namespace presto
