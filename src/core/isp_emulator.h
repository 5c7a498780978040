/**
 * @file
 * Functional emulation of the PreSto accelerator datapath (Figure 10):
 * a Decoder unit, per-feature Generation and Normalization processing
 * elements with double buffering, and a conversion/DMA-out stage —
 * executed in software over real encoded partitions.
 *
 * PreSto changes where the Transform runs, never what it computes, so
 * the device runs the CPU path's compiled program (ops/opvm.h) over
 * the batch its Decoder unit produced: the emulator's MiniBatches are
 * the CPU path's by construction. What the emulator adds is the
 * per-unit work counters, derived from the program's outputs and the
 * decoded batch: values per unit from the output sizes, one buffer
 * swap per kPeBufferValues-value half of each PE stream, and the PEs
 * engaged under a feature-to-unit assignment fixed at construction.
 * They cross-check the analytical TransformWork model priced by
 * models/isp_model.
 */
#ifndef PRESTO_CORE_ISP_EMULATOR_H_
#define PRESTO_CORE_ISP_EMULATOR_H_

#include <cstdint>
#include <span>

#include "columnar/columnar_file.h"
#include "common/batch_arena.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "datagen/rm_config.h"
#include "ops/opvm.h"
#include "tabular/minibatch.h"
#include "tabular/row_batch.h"

namespace presto {

/** Per-unit activity counters of one emulated batch. */
struct IspUnitCounters {
    uint64_t p2p_bytes = 0;          ///< SSD -> FPGA transfer
    uint64_t decoded_values = 0;     ///< Decoder unit output
    uint64_t bucketize_values = 0;   ///< Generation unit input values
    uint64_t bucketize_levels = 0;   ///< total search levels executed
    uint64_t hash_values = 0;        ///< SigridHash unit values
    uint64_t log_values = 0;         ///< Log unit values
    uint64_t convert_values = 0;     ///< conversion/DMA-out scalars
    uint64_t buffer_swaps = 0;       ///< double-buffer flips observed
    uint32_t feature_units_used = 0; ///< distinct PEs engaged
};

/**
 * Emulates one SmartSSD's FPGA processing a single encoded partition.
 *
 * An emulator instance models one device: it owns its decode and
 * transform buffers (the FPGA's DRAM), which are reused across
 * process() calls so steady-state batches allocate nothing. Not
 * thread-safe; use one instance per device/worker.
 */
class IspEmulator
{
  public:
    /**
     * @param config Workload (selects the transform plan).
     * @param num_feature_units PEs available for inter-feature
     *        parallelism. Each dense feature has its own stream (a
     *        generated output rides its source feature's stream), raw
     *        sparse features follow; stream i runs on PE i mod units.
     * @param decode_pool Optional thread pool for page-parallel decode
     *        (models the Decoder unit working on independent pages
     *        concurrently). nullptr keeps decode serial. The pool may
     *        be shared by several emulators and must outlive them.
     */
    explicit IspEmulator(const RmConfig& config, int num_feature_units = 8,
                         ThreadPool* decode_pool = nullptr);

    /**
     * Run the datapath over one encoded PSF partition (as stored on the
     * device's local SSD). Corruption-safe: page CRC32C mismatches,
     * framing damage, and schema/workload disagreements surface as
     * kCorruption so the caller can re-fetch the partition from a
     * replica instead of crashing the device.
     */
    StatusOr<MiniBatch> process(std::span<const uint8_t> encoded_partition);

    /**
     * Buffer-reusing form of process(): writes into @p out, whose
     * tensors are recycled across calls. Identical output and counters.
     */
    Status processInto(std::span<const uint8_t> encoded_partition,
                       MiniBatch& out);

    /** Counters of the most recent process() call. */
    const IspUnitCounters& counters() const { return counters_; }

    const RmConfig& config() const { return config_; }

  private:
    RmConfig config_;
    CompiledProgram program_;          ///< the CPU path's standard program
    uint32_t feature_units_used_ = 0;  ///< PEs the program's streams engage
    uint64_t bucketize_levels_;        ///< search depth per bucketized value
    IspUnitCounters counters_;
    // Device DRAM stand-ins, reused across partitions.
    ColumnarFileReader reader_;
    RowBatch raw_;
    BatchArena arena_;
};

}  // namespace presto

#endif  // PRESTO_CORE_ISP_EMULATOR_H_
