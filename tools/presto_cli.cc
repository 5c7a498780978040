/**
 * @file
 * presto_cli — command-line front end for the PreSto library.
 *
 * A dataset is a segment store directory (docs/STORE.md): a JOURNAL
 * plus one seg-XXXXXXXX.psf file per committed partition. Every dataset
 * command opens it through SegmentStore, so recovery runs first, and
 * reads a partition by id through the journal. Only gen creates a
 * store; the other dataset commands exit 1 on a directory that holds
 * none, and write nothing to it.
 *
 * Subcommands:
 *   gen <dir> --rm N [--partitions P] [--rows R] [--seed S]
 *       Synthesize P partitions (ids 0..P-1) with heat-annotated page
 *       layout and commit each as a segment of the store in <dir>,
 *       creating the directory (and its parents) if it is missing.
 *   inspect <dir>
 *       Print the recovery decisions, the segment table and the
 *       journal records.
 *   verify <dir>
 *       Decode every live segment in full (whole-file CRC, page CRCs);
 *       exit 1 on any failure or quarantined segment.
 *   transform <dir> [--partition I] [--backend cpu|isp]
 *       Run the standard Transform plan on partition I and summarize
 *       the train-ready tensors.
 *   decode <dir> [--partition I] [--reps N]
 *       Time page decode per (encoding, codec) bucket on one partition,
 *       reference vs. dispatched SIMD kernels, and report per-bucket
 *       stored/raw bytes, entropy-table overhead, and the achieved
 *       compression ratio.
 *   pages <dir> [--partition I] [--heat] [--channels C]
 *       List every page frame with its codec, stored size and stream
 *       heat; --heat additionally shows the frequency-aware channel
 *       placement (hot pages striped, cold streams contiguous) and the
 *       per-channel occupancy.
 *   provision --rm N [--gpus G]
 *       Print the T/P provisioning decision for a training job.
 *   io [--rm N] [--rows R] [--qd D] [--emulate-latency 0|1]
 *       Read one synthetic partition through the async IoRing
 *       (page-granular prefetch), differential-check it against the
 *       blocking reader, and print the ring's counters and latency
 *       percentiles.
 *   plan [--rm N] [--file F] [--emit-json]
 *       Compile a Transform plan and print the fused bytecode program's
 *       disassembly. Default: the standard plan for workload RM N.
 *       --file F parses a JSON plan document instead; --emit-json
 *       prints the plan back as canonical plan JSON (authoring
 *       round-trip) in place of the disassembly.
 *   serve [--rm N] [--epochs E] [--partitions P] [--rows R]
 *       Scripted demo of the multi-tenant ingestion service: publish E
 *       epochs of an in-memory catalog dataset, admit weighted tenants,
 *       reject an oversubscribed one with the admission reason, stream
 *       a few batches per tenant, and print per-session statistics.
 */
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cachesim/op_traces.h"
#include "columnar/columnar_file.h"
#include "columnar/entropy.h"
#include "common/table_printer.h"
#include "common/units.h"
#include "core/isp_emulator.h"
#include "core/partition_store.h"
#include "core/provisioner.h"
#include "datagen/generator.h"
#include "io/async_reader.h"
#include "io/io_ring.h"
#include "ops/plan_json.h"
#include "ops/preprocessor.h"
#include "ops/simd.h"
#include "service/dataset_catalog.h"
#include "service/ingest_service.h"
#include "store/journal.h"
#include "store/segment_store.h"

using namespace presto;

namespace {

/** Tiny flag parser: --name value pairs after positional args. */
class Args
{
  public:
    Args(int argc, char** argv)
    {
        for (int i = 2; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--", 0) == 0) {
                // A flag followed by another flag (or nothing) is a
                // bare boolean switch, e.g. `pages <dir> --heat`.
                if (i + 1 < argc &&
                    std::string(argv[i + 1]).rfind("--", 0) != 0) {
                    flags_.emplace_back(arg.substr(2), argv[i + 1]);
                    ++i;
                } else {
                    flags_.emplace_back(arg.substr(2), "1");
                }
            } else {
                positional_.push_back(std::move(arg));
            }
        }
    }

    long
    getInt(const std::string& name, long fallback) const
    {
        for (const auto& [k, v] : flags_) {
            if (k == name)
                return std::atol(v.c_str());
        }
        return fallback;
    }

    std::string
    getString(const std::string& name, std::string fallback) const
    {
        for (const auto& [k, v] : flags_) {
            if (k == name)
                return v;
        }
        return fallback;
    }

    const std::vector<std::string>& positional() const
    {
        return positional_;
    }

  private:
    std::vector<std::pair<std::string, std::string>> flags_;
    std::vector<std::string> positional_;
};

int
usage()
{
    std::fprintf(
        stderr,
        "usage: presto_cli <command> [args]\n"
        "  gen <dir> --rm N [--partitions P] [--rows R] [--seed S]\n"
        "  inspect <dir>\n"
        "  verify <dir>\n"
        "  transform <dir> [--partition I] [--backend cpu|isp]\n"
        "  decode <dir> [--partition I] [--reps N]\n"
        "  pages <dir> [--partition I] [--heat] [--channels C]\n"
        "  provision --rm N [--gpus G]\n"
        "  io [--rm N] [--rows R] [--qd D] [--emulate-latency 0|1]\n"
        "  plan [--rm N] [--file F] [--emit-json]\n"
        "  serve [--rm N] [--epochs E] [--partitions P] [--rows R]\n"
        "<dir> is a segment store: a JOURNAL plus seg-*.psf files;\n"
        "only gen creates one.\n");
    return 2;
}

/** Print @p st as the command's one-line error; @return exit code 1. */
int
fail(const Status& st)
{
    std::fprintf(stderr, "%s\n", st.toString().c_str());
    return 1;
}

/** Open (recovering) the segment store that holds the dataset. Only
    gen creates a store: a directory without one is an error, and
    nothing is written to it. */
StatusOr<std::unique_ptr<SegmentStore>>
openDataset(const std::string& dir, RecoveryReport* report = nullptr)
{
    if (!SegmentStore::exists(dir))
        return Status::notFound("no segment store in " + dir);
    SegmentStoreOptions opt;
    opt.directory = dir;
    return SegmentStore::open(std::move(opt), report);
}

/**
 * The PSF bytes of partition id --partition (default 0) of the dataset
 * in <dir>, whole-file CRC-checked against the journal.
 */
StatusOr<std::vector<uint8_t>>
readPartition(const Args& args)
{
    auto store = openDataset(args.positional()[0]);
    if (!store.ok())
        return store.status();
    const auto partition = static_cast<uint64_t>(args.getInt("partition", 0));
    auto info = (*store)->segmentForPartition(partition);
    if (info.status().code() == StatusCode::kNotFound) {
        // Say why when the partition's bytes exist but are damaged.
        for (const SegmentInfo& seg : (*store)->listSegments()) {
            if (seg.meta.partition_id == partition &&
                seg.state == SegmentState::kQuarantined)
                return Status::corruption(
                    "partition " + std::to_string(partition) +
                    ": segment " + std::to_string(seg.meta.segment_id) +
                    " is quarantined: " + seg.quarantine_reason);
        }
    }
    if (!info.ok())
        return info.status();
    return (*store)->readSegmentRaw(info->meta.segment_id);
}

/** Decode PSF @p bytes in full, checking every page CRC. */
Status
decodeAll(std::span<const uint8_t> bytes, RowBatch& out)
{
    ColumnarFileReader reader;
    PRESTO_RETURN_IF_ERROR(reader.open(bytes));
    return reader.readAllInto(out);
}

int
cmdGen(const Args& args)
{
    if (args.positional().empty())
        return usage();
    const std::string dir = args.positional()[0];
    const int rm = static_cast<int>(args.getInt("rm", 1));
    const long partitions = args.getInt("partitions", 4);
    const long rows = args.getInt("rows", 1024);
    const long seed = args.getInt("seed", 0x9e3779b9);

    RmConfig cfg = rmConfig(rm);
    cfg.batch_size = static_cast<size_t>(rows);
    GeneratorOptions opts;
    opts.seed = static_cast<uint64_t>(seed);
    RawDataGenerator gen(cfg, opts);

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return fail(Status::unavailable("cannot create " + dir + ": " +
                                        ec.message()));
    // Heat-annotated writes: the async reader stripes pages of hot
    // columns (per the cachesim access model) across flash channels.
    SegmentStoreOptions sopts;
    sopts.directory = dir;
    sopts.writer.column_heat = columnAccessHeat(cfg);
    auto store = SegmentStore::open(std::move(sopts));
    if (!store.ok())
        return fail(store.status());
    for (long p = 0; p < partitions; ++p) {
        auto id = (*store)->appendPartition(
            gen.generatePartition(static_cast<uint64_t>(p)),
            static_cast<uint64_t>(p));
        if (!id.ok())
            return fail(id.status());
    }
    std::printf("committed %ld partitions x %ld rows of %s to %s\n",
                partitions, rows, cfg.name.c_str(), dir.c_str());
    return 0;
}

int
cmdInspect(const Args& args)
{
    if (args.positional().empty())
        return usage();
    const std::string dir = args.positional()[0];
    RecoveryReport report;
    auto store = openDataset(dir, &report);
    if (!store.ok())
        return fail(store.status());

    std::printf("store %s — recovery decisions:\n", dir.c_str());
    for (const std::string& line : report.decisions())
        std::printf("  %s\n", line.c_str());

    TablePrinter table({"Segment", "Partition", "State", "Bytes", "Rows",
                        "Pages", "CRC32C"});
    for (const SegmentInfo& info : (*store)->listSegments()) {
        char crc[16];
        std::snprintf(crc, sizeof(crc), "%08x", info.meta.file_crc);
        table.addRow(
            {std::to_string(info.meta.segment_id),
             std::to_string(info.meta.partition_id),
             info.state == SegmentState::kQuarantined
                 ? std::string(segmentStateName(info.state)) + " (" +
                       info.quarantine_reason + ")"
                 : segmentStateName(info.state),
             formatBytes(static_cast<double>(info.meta.byte_size)),
             std::to_string(info.meta.num_rows),
             std::to_string(info.meta.plans.size()), crc});
    }
    table.print();

    // The journal, record by record — the store's source of truth.
    auto bytes = loadFromFile((*store)->journalPath());
    if (!bytes.ok())
        return fail(bytes.status());
    JournalReplay replay;
    if (Status st = replayJournal(*bytes, replay); !st.ok())
        return fail(st);
    std::printf("\njournal: %zu byte(s), %zu record(s)\n", bytes->size(),
                replay.records.size());
    for (size_t i = 0; i < replay.records.size(); ++i) {
        const JournalRecord& rec = replay.records[i];
        const uint64_t id = rec.kind == JournalRecordKind::kSegmentSealed
                                ? rec.meta.segment_id
                                : rec.segment_id;
        std::printf("  #%zu %-9s", i, journalRecordKindName(rec.kind));
        if (rec.kind == JournalRecordKind::kCheckpoint)
            std::printf(" next-id=%llu",
                        static_cast<unsigned long long>(
                            rec.next_segment_id));
        else
            std::printf(" segment=%llu",
                        static_cast<unsigned long long>(id));
        if (rec.kind == JournalRecordKind::kSegmentSealed)
            std::printf(" partition=%llu bytes=%llu pages=%zu",
                        static_cast<unsigned long long>(
                            rec.meta.partition_id),
                        static_cast<unsigned long long>(
                            rec.meta.byte_size),
                        rec.meta.plans.size());
        if (rec.kind == JournalRecordKind::kSegmentCompacted)
            std::printf(" into=%llu", static_cast<unsigned long long>(
                                          rec.new_segment_id));
        if (rec.kind == JournalRecordKind::kSegmentQuarantined)
            std::printf(" reason=\"%s\"", rec.reason.c_str());
        std::printf("\n");
    }
    return 0;
}

int
cmdVerify(const Args& args)
{
    if (args.positional().empty())
        return usage();
    auto store = openDataset(args.positional()[0]);
    if (!store.ok())
        return fail(store.status());
    // Recovery has already checked every live file's size and CRC and
    // quarantined the ones that failed; those count as failures here.
    size_t checked = 0;
    size_t verified = 0;
    RowBatch batch;
    for (const SegmentInfo& info : (*store)->listSegments()) {
        if (info.state == SegmentState::kRetired)
            continue;
        ++checked;
        Status st;
        if (info.state == SegmentState::kQuarantined) {
            st = Status::corruption("quarantined: " + info.quarantine_reason);
        } else {
            auto bytes = (*store)->readSegmentRaw(info.meta.segment_id);
            st = bytes.ok() ? decodeAll(*bytes, batch) : bytes.status();
        }
        if (!st.ok()) {
            std::fprintf(stderr, "segment %llu (partition %llu): %s\n",
                         static_cast<unsigned long long>(
                             info.meta.segment_id),
                         static_cast<unsigned long long>(
                             info.meta.partition_id),
                         st.toString().c_str());
            continue;
        }
        ++verified;
    }
    std::printf("%zu/%zu segments verified (whole-file CRC + page CRC + "
                "full decode)\n",
                verified, checked);
    return verified == checked ? 0 : 1;
}

int
cmdTransform(const Args& args)
{
    if (args.positional().empty())
        return usage();
    const long id = args.getInt("partition", 0);
    auto bytes = readPartition(args);
    if (!bytes.ok())
        return fail(bytes.status());
    RowBatch raw;
    if (Status st = decodeAll(*bytes, raw); !st.ok())
        return fail(st);

    // Derive a config consistent with the stored schema.
    RmConfig cfg = rmConfig(1);
    cfg.num_dense = raw.schema().numDense();
    cfg.num_sparse = raw.schema().numSparse();
    cfg.num_generated = std::min(cfg.num_generated, cfg.num_dense);
    cfg.batch_size = raw.numRows();

    const std::string backend = args.getString("backend", "cpu");
    MiniBatch mb;
    if (backend == "isp") {
        // Run the FPGA-datapath emulator over the stored PSF bytes, the
        // way a SmartSSD would consume its local partition. Corruption
        // comes back as a Status instead of crashing the tool.
        IspEmulator emulator(cfg);
        auto processed = emulator.process(*bytes);
        if (!processed.ok()) {
            std::fprintf(stderr, "isp transform failed: %s\n",
                         processed.status().toString().c_str());
            return 1;
        }
        mb = std::move(processed).value();
        std::printf("isp emulator: %u feature units engaged, %llu P2P "
                    "bytes, %llu buffer swaps\n",
                    emulator.counters().feature_units_used,
                    static_cast<unsigned long long>(
                        emulator.counters().p2p_bytes),
                    static_cast<unsigned long long>(
                        emulator.counters().buffer_swaps));
    } else if (backend == "cpu") {
        mb = Preprocessor(cfg).preprocess(raw);
    } else {
        std::fprintf(stderr, "unknown backend: %s\n", backend.c_str());
        return usage();
    }
    std::printf("partition %ld -> %zu rows, %zu dense features, %zu "
                "embedding tables, %zu sparse indices, %s of tensors\n",
                id, mb.batch_size, mb.num_dense, mb.sparse.size(),
                mb.totalSparseValues(),
                formatBytes(static_cast<double>(mb.byteSize())).c_str());
    return 0;
}

int
cmdDecode(const Args& args)
{
    if (args.positional().empty())
        return usage();
    const long id = args.getInt("partition", 0);
    const auto reps = static_cast<size_t>(args.getInt("reps", 5));
    auto bytes = readPartition(args);
    if (!bytes.ok())
        return fail(bytes.status());
    ColumnarFileReader file;
    if (Status st = file.open(*bytes); !st.ok())
        return fail(st);

    // Bucket every page of every stream by (encoding, codec); the
    // payload spans point into `bytes`, which outlives the timing loops.
    struct Bucket {
        std::vector<PageView> pages;
        uint64_t values = 0;
        uint64_t stored_bytes = 0;  ///< on-disk (possibly compressed)
        uint64_t raw_bytes = 0;     ///< decompressed payload bytes
        uint64_t table_bytes = 0;   ///< entropy code-length table bytes
    };
    std::map<std::pair<Encoding, PageCodec>, Bucket> buckets;
    for (const auto& col : file.footer().columns) {
        for (const auto& stream : col.streams) {
            size_t pos = stream.offset;
            for (uint32_t pg = 0; pg < stream.num_pages; ++pg) {
                PageView page;
                if (Status st = readPageFrame(*bytes, pos, page);
                    !st.ok()) {
                    std::fprintf(stderr, "column %s: %s\n",
                                 col.name.c_str(), st.toString().c_str());
                    return 1;
                }
                Bucket& b = buckets[{page.encoding, page.codec}];
                b.pages.push_back(page);
                b.values += page.value_count;
                b.stored_bytes += page.payload.size();
                b.raw_bytes += page.raw_size;
                if (page.codec == PageCodec::kEntropy ||
                    page.codec == PageCodec::kLzEntropy) {
                    HuffStreamInfo info;
                    if (enc::huffStreamInfo(page.payload, info).ok())
                        b.table_bytes += info.table_bytes;
                }
            }
        }
    }

    // Best-of-reps wall time for one full pass over a bucket's pages
    // (decompress + decode: the work the Extract stage actually does).
    std::vector<float> f32;
    std::vector<int64_t> i64;
    std::vector<int64_t> dict;
    std::vector<uint8_t> decomp;
    const auto timeBucket = [&](Encoding e, const Bucket& b) -> double {
        double best = 0;
        for (size_t r = 0; r < reps; ++r) {
            const auto t0 = std::chrono::steady_clock::now();
            for (const PageView& page : b.pages) {
                std::span<const uint8_t> raw;
                Status st = pagePayload(page, decomp, raw);
                if (st.ok()) {
                    st = e == Encoding::kPlainF32
                             ? enc::decodeF32(e, raw, page.value_count,
                                              f32)
                             : enc::decodeI64(e, raw, page.value_count,
                                              i64, dict);
                }
                if (!st.ok()) {
                    std::fprintf(stderr, "decode failed: %s\n",
                                 st.toString().c_str());
                    std::exit(1);
                }
            }
            const std::chrono::duration<double> dt =
                std::chrono::steady_clock::now() - t0;
            if (r == 0 || dt.count() < best)
                best = dt.count();
        }
        return best;
    };

    std::printf("partition %ld, simd level %s, best of %zu reps\n", id,
                simdLevelName(activeSimdLevel()), reps);
    TablePrinter table({"Encoding", "Codec", "Pages", "Values", "Stored",
                        "Raw", "Tbl", "Ratio", "Ref Mval/s",
                        "Fast Mval/s", "Speedup"});
    uint64_t stored_total = 0;
    uint64_t raw_total = 0;
    for (const auto& [key, bucket] : buckets) {
        const auto& [encoding, codec] = key;
        const bool prev = enc::setFastDecodeEnabled(false);
        const double ref = timeBucket(encoding, bucket);
        enc::setFastDecodeEnabled(true);
        const double fast = timeBucket(encoding, bucket);
        enc::setFastDecodeEnabled(prev);
        const double mvals = static_cast<double>(bucket.values) / 1e6;
        char ratio[32], ref_s[32], fast_s[32], speedup[32];
        std::snprintf(ratio, sizeof(ratio), "%.2fx",
                      static_cast<double>(bucket.raw_bytes) /
                          static_cast<double>(bucket.stored_bytes));
        std::snprintf(ref_s, sizeof(ref_s), "%.1f", mvals / ref);
        std::snprintf(fast_s, sizeof(fast_s), "%.1f", mvals / fast);
        std::snprintf(speedup, sizeof(speedup), "%.2fx", ref / fast);
        table.addRow(
            {encodingName(encoding), pageCodecName(codec),
             std::to_string(bucket.pages.size()),
             std::to_string(bucket.values),
             formatBytes(static_cast<double>(bucket.stored_bytes)),
             formatBytes(static_cast<double>(bucket.raw_bytes)),
             bucket.table_bytes == 0
                 ? std::string("-")
                 : formatBytes(static_cast<double>(bucket.table_bytes)),
             ratio, ref_s, fast_s, speedup});
        stored_total += bucket.stored_bytes;
        raw_total += bucket.raw_bytes;
    }
    table.print();
    std::printf("pages store %s for %s of encoded payload (%.2fx "
                "compression)\n",
                formatBytes(static_cast<double>(stored_total)).c_str(),
                formatBytes(static_cast<double>(raw_total)).c_str(),
                static_cast<double>(raw_total) /
                    static_cast<double>(stored_total));
    return 0;
}

int
cmdPages(const Args& args)
{
    if (args.positional().empty())
        return usage();
    const long id = args.getInt("partition", 0);
    const bool heat_view = args.getInt("heat", 0) != 0;
    const int channels = static_cast<int>(args.getInt("channels", 4));
    auto bytes = readPartition(args);
    if (!bytes.ok())
        return fail(bytes.status());
    ColumnarFileReader file;
    if (Status st = file.open(*bytes); !st.ok())
        return fail(st);
    std::vector<PageReadPlan> plans;
    if (Status st = file.planPageReads(plans); !st.ok())
        return fail(st);
    if (heat_view)
        assignChannelPlacement(file.footer(), channels, plans);

    std::printf("partition %ld: %zu page frame(s)%s\n", id, plans.size(),
                heat_view ? ", heat-aware channel placement" : "");
    TablePrinter table(
        heat_view
            ? std::vector<std::string>{"Page", "Column", "Stream",
                                       "Codec", "Stored", "Heat",
                                       "Class", "Channel"}
            : std::vector<std::string>{"Page", "Column", "Stream",
                                       "Codec", "Stored", "Heat"});
    std::vector<uint64_t> hot_per_channel, cold_per_channel;
    if (heat_view && channels > 0) {
        hot_per_channel.assign(static_cast<size_t>(channels), 0);
        cold_per_channel.assign(static_cast<size_t>(channels), 0);
    }
    for (size_t i = 0; i < plans.size(); ++i) {
        const PageReadPlan& plan = plans[i];
        const ColumnMeta& col = file.footer().columns[plan.column];
        size_t pos = plan.offset;
        PageView page;
        if (Status st = readPageFrame(*bytes, pos, page); !st.ok()) {
            std::fprintf(stderr, "page %zu: %s\n", i,
                         st.toString().c_str());
            return 1;
        }
        std::vector<std::string> row{
            std::to_string(i), col.name,
            col.kind == FeatureKind::kSparse
                ? (plan.stream == 0 ? "lengths" : "values")
                : "values",
            pageCodecName(page.codec),
            formatBytes(static_cast<double>(plan.frame_bytes)),
            std::to_string(col.streams[plan.stream].heat)};
        if (heat_view) {
            row.push_back(plan.hot ? "hot" : "cold");
            row.push_back(plan.channel < 0 ? "-"
                                           : std::to_string(plan.channel));
            if (plan.channel >= 0 && plan.channel < channels) {
                auto& per = plan.hot ? hot_per_channel : cold_per_channel;
                ++per[static_cast<size_t>(plan.channel)];
            }
        }
        table.addRow(std::move(row));
    }
    table.print();

    if (heat_view && !hot_per_channel.empty()) {
        std::printf("\nchannel occupancy (hot pages striped round-robin, "
                    "cold streams contiguous):\n");
        TablePrinter occ({"Channel", "Hot Pages", "Cold Pages"});
        for (int c = 0; c < channels; ++c)
            occ.addRow({std::to_string(c),
                        std::to_string(
                            hot_per_channel[static_cast<size_t>(c)]),
                        std::to_string(
                            cold_per_channel[static_cast<size_t>(c)])});
        occ.print();
    }
    return 0;
}

int
cmdProvision(const Args& args)
{
    const int rm = static_cast<int>(args.getInt("rm", 5));
    const int gpus = static_cast<int>(args.getInt("gpus", 8));
    Provisioner prov(rmConfig(rm));
    const Provision cpu = prov.provisionCpu(gpus);
    const Provision isp = prov.provisionIsp(gpus, IspParams::smartSsd());
    std::printf("%s on %d GPU(s): demand %.1f batches/s\n",
                rmConfig(rm).name.c_str(), gpus,
                cpu.demand_batches_per_sec);
    std::printf("  Disagg CPU : %4d cores  (%.0f W, $%.0f over 3y)\n",
                cpu.workers, cpu.deployment.power_watts,
                cpu.deployment.totalCostDollars());
    std::printf("  PreSto     : %4d SmartSSDs (%.0f W, $%.0f over 3y)\n",
                isp.workers, isp.deployment.power_watts,
                isp.deployment.totalCostDollars());
    return 0;
}

int
cmdIo(const Args& args)
{
    const int rm = static_cast<int>(args.getInt("rm", 1));
    const long rows = args.getInt("rows", 65536);
    const auto qd = static_cast<size_t>(args.getInt("qd", 8));
    const bool emulate = args.getInt("emulate-latency", 1) != 0;
    if (rows <= 0 || qd == 0) {
        std::fprintf(stderr, "rows and qd must be positive\n");
        return usage();
    }

    RmConfig cfg = rmConfig(rm);
    cfg.batch_size = static_cast<size_t>(rows);
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    const PartitionBuffer encoded = store.partition(0);

    ColumnarFileReader blocking;
    RowBatch expect;
    if (Status st = blocking.open(*encoded); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.toString().c_str());
        return 1;
    }
    if (Status st = blocking.readAllInto(expect); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.toString().c_str());
        return 1;
    }

    IoRingOptions opt;
    opt.emulate_latency = emulate;
    IoRing ring(opt);
    AsyncReadOptions ropt;
    ropt.queue_depth = qd;
    AsyncPartitionReader reader(ring, ropt);
    RowBatch got;
    const auto t0 = std::chrono::steady_clock::now();
    if (Status st = reader.read(*encoded, 0, got); !st.ok()) {
        std::fprintf(stderr, "async read failed: %s\n",
                     st.toString().c_str());
        return 1;
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    if (!(got == expect)) {
        std::fprintf(stderr,
                     "differential check FAILED: async batch differs "
                     "from blocking readAllInto\n");
        return 1;
    }

    const AsyncReadStats& rs = reader.lastReadStats();
    const IoRingStats stats = ring.statsSnapshot();
    std::printf("%s partition: %ld rows, %s encoded, %llu pages\n",
                cfg.name.c_str(), rows,
                formatBytes(static_cast<double>(encoded->size())).c_str(),
                static_cast<unsigned long long>(rs.pages));
    std::printf("async read: queue depth %zu, %d ring workers, "
                "latency emulation %s\n",
                qd, ring.options().workers, emulate ? "on" : "off");
    std::printf("differential check vs blocking readAllInto: OK "
                "(bit-identical)\n\n");

    TablePrinter table({"Counter", "Value"});
    table.addRow({"wall seconds", formatDouble(wall, 4)});
    table.addRow({"modeled storage seconds",
                  formatDouble(rs.modeled_storage_sec, 4)});
    table.addRow({"requests submitted",
                  std::to_string(stats.submitted)});
    table.addRow({"requests completed",
                  std::to_string(stats.completed)});
    table.addRow({"requests failed", std::to_string(stats.failed)});
    table.addRow({"device retries", std::to_string(stats.retries)});
    table.addRow({"corrupt page re-reads",
                  std::to_string(rs.corrupt_page_rereads)});
    table.addRow({"cq overflows", std::to_string(stats.cq_overflows)});
    table.addRow({"max in flight",
                  std::to_string(stats.max_in_flight)});
    table.addRow({"mean queue depth",
                  formatDouble(stats.queue_depth.mean(), 2)});
    table.addRow({"latency mean", formatTime(stats.latency.mean())});
    table.addRow({"latency p50",
                  formatTime(stats.latencyQuantile(0.50))});
    table.addRow({"latency p95",
                  formatTime(stats.latencyQuantile(0.95))});
    table.addRow({"latency p99",
                  formatTime(stats.latencyQuantile(0.99))});
    table.print();
    return 0;
}

int
cmdPlan(const Args& args)
{
    const int rm = static_cast<int>(args.getInt("rm", 1));
    const bool emit_json = args.getInt("emit-json", 0) != 0;
    const RmConfig cfg = rmConfig(rm);
    const std::string file = args.getString("file", "");

    TransformPlan plan;
    std::string origin;
    if (!file.empty()) {
        auto bytes = loadFromFile(file);
        if (!bytes.ok()) {
            std::fprintf(stderr, "%s\n",
                         bytes.status().toString().c_str());
            return 1;
        }
        auto parsed = parsePlanJson(std::string_view(
            reinterpret_cast<const char*>(bytes->data()), bytes->size()));
        if (!parsed.ok()) {
            std::fprintf(stderr, "%s\n",
                         parsed.status().toString().c_str());
            return 1;
        }
        plan = std::move(parsed).value();
        origin = file;
    } else {
        plan = TransformPlan::standard(cfg);
        origin = "standard plan for " + cfg.name;
    }

    if (emit_json) {
        std::fputs(planToJson(plan).c_str(), stdout);
        return 0;
    }

    // Validate against the RM schema, then compile and disassemble.
    const Schema schema =
        Schema::makeRecSys(cfg.num_dense, cfg.num_sparse);
    if (Status st = plan.validate(schema); !st.ok()) {
        std::fprintf(stderr, "plan invalid against %s schema: %s\n",
                     cfg.name.c_str(), st.toString().c_str());
        return 1;
    }
    const PlanExecutor executor(plan, schema);
    std::printf("%s (%s schema), compiled\n", origin.c_str(),
                cfg.name.c_str());
    std::fputs(executor.program().disassemble().c_str(), stdout);
    return 0;
}

int
cmdServe(const Args& args)
{
    const int rm = static_cast<int>(args.getInt("rm", 1));
    const long epochs = args.getInt("epochs", 2);
    const long partitions = args.getInt("partitions", 4);
    const long rows = args.getInt("rows", 512);
    const long batches = args.getInt("batches", 3);

    DatasetSpec spec;
    spec.name = "clicklog";
    spec.config = rmConfig(rm);
    spec.config.batch_size = static_cast<size_t>(rows);
    spec.partitions_per_epoch = static_cast<size_t>(partitions);
    spec.shards = 2;
    DatasetCatalog catalog;
    if (Status st = catalog.registerDataset(spec); !st.ok()) {
        std::fprintf(stderr, "%s\n", st.toString().c_str());
        return 1;
    }
    for (long e = 0; e < epochs; ++e) {
        auto epoch = catalog.publishEpoch("clicklog");
        if (!epoch.ok()) {
            std::fprintf(stderr, "publish failed: %s\n",
                         epoch.status().toString().c_str());
            return 1;
        }
        std::printf("published epoch %llu (%ld partitions x %ld rows of "
                    "%s across %zu shards)\n",
                    static_cast<unsigned long long>(*epoch), partitions,
                    rows, spec.config.name.c_str(), spec.shards);
    }

    ServiceOptions options;
    options.workers = 2;
    options.service_sec_override = 0.050;
    IngestService service(catalog, options);

    // Two well-behaved tenants at different weights, one oversubscribed
    // tenant the admission controller must turn away with a reason.
    TenantSpec heavy;
    heavy.name = "ranker";
    heavy.dataset = "clicklog";
    heavy.weight = 2.0;
    heavy.slo_p99_sec = 1.0;
    heavy.peak_batches_per_sec = 8.0;
    TenantSpec light = heavy;
    light.name = "retrieval";
    light.weight = 1.0;
    light.slo_p99_sec = 2.0;
    light.peak_batches_per_sec = 6.0;
    light.epoch = 1;  // pinned one epoch behind the head
    TenantSpec hog = heavy;
    hog.name = "firehose";
    hog.peak_batches_per_sec = 200.0;

    std::vector<uint64_t> sessions;
    for (const TenantSpec* tenant : {&heavy, &light}) {
        auto session = service.openSession(*tenant);
        if (!session.ok()) {
            std::fprintf(stderr, "open %s failed: %s\n",
                         tenant->name.c_str(),
                         session.status().toString().c_str());
            return 1;
        }
        std::printf("admitted %-9s weight %.0f, epoch %llu, session %llu\n",
                    tenant->name.c_str(), tenant->weight,
                    static_cast<unsigned long long>(
                        tenant->epoch == 0 ? *catalog.headEpoch("clicklog")
                                           : tenant->epoch),
                    static_cast<unsigned long long>(*session));
        sessions.push_back(*session);
    }
    auto rejected = service.openSession(hog);
    if (rejected.ok()) {
        std::fprintf(stderr, "expected the oversubscribed tenant to be "
                             "rejected\n");
        return 1;
    }
    std::printf("rejected %-9s %s\n", hog.name.c_str(),
                rejected.status().message().c_str());

    for (const uint64_t session : sessions) {
        for (long i = 0; i < batches; ++i) {
            auto batch = service.nextBatch(session);
            if (!batch.ok()) {
                std::fprintf(stderr, "nextBatch failed: %s\n",
                             batch.status().toString().c_str());
                return 1;
            }
            std::printf("session %llu batch %llu: epoch %llu partition "
                        "%llu, %zu rows, %s of tensors\n",
                        static_cast<unsigned long long>(session),
                        static_cast<unsigned long long>(batch->sequence),
                        static_cast<unsigned long long>(batch->epoch),
                        static_cast<unsigned long long>(
                            batch->partition_index),
                        batch->batch->batch_size,
                        formatBytes(static_cast<double>(
                                        batch->batch->byteSize()))
                            .c_str());
        }
    }

    std::printf("\nper-session statistics:\n");
    TablePrinter table({"Tenant", "Epoch", "Produced", "Delivered",
                        "Queue Cap", "Max Queue", "Svc Est"});
    for (const SessionStats& s : service.allSessionStats()) {
        table.addRow({s.tenant, std::to_string(s.epoch),
                      std::to_string(s.produced),
                      std::to_string(s.delivered),
                      std::to_string(s.queue_capacity),
                      std::to_string(s.max_queue_occupancy),
                      formatTime(s.service_sec_estimate)});
    }
    table.print();
    for (const uint64_t session : sessions) {
        if (Status st = service.closeSession(session); !st.ok()) {
            std::fprintf(stderr, "close failed: %s\n",
                         st.toString().c_str());
            return 1;
        }
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    if (argc < 2)
        return usage();
    const Args args(argc, argv);
    const std::string cmd = argv[1];
    if (cmd == "gen")
        return cmdGen(args);
    if (cmd == "inspect")
        return cmdInspect(args);
    if (cmd == "verify")
        return cmdVerify(args);
    if (cmd == "transform")
        return cmdTransform(args);
    if (cmd == "decode")
        return cmdDecode(args);
    if (cmd == "pages")
        return cmdPages(args);
    if (cmd == "provision")
        return cmdProvision(args);
    if (cmd == "io")
        return cmdIo(args);
    if (cmd == "plan")
        return cmdPlan(args);
    if (cmd == "serve")
        return cmdServe(args);
    return usage();
}
