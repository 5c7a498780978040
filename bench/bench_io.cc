/**
 * @file
 * Tracked perf baseline of the async storage I/O engine, emitted as
 * JSON (committed as BENCH_io.json; schema in docs/PERF.md).
 *
 * Measures, with real emulated storage latency (IoRing workers sleep
 * each request's modeled SSD service time), how much of the storage
 * latency the page-granular prefetch window hides: a queue-depth sweep
 * of AsyncPartitionReader against the serial queue_depth=1 schedule,
 * plus a multi-partition section where several readers share one ring
 * and one decode ThreadPool. The async batch is differentially checked
 * against ColumnarFileReader::readAllInto() first; any mismatch exits
 * nonzero, so a perf number can never be reported for a wrong reader.
 *
 * Usage: bench_io [--quick]   (--quick shrinks the partition and skips
 * the latency-hiding assertion for the ctest "perf" smoke label.)
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "cachesim/op_traces.h"
#include "columnar/columnar_file.h"
#include "common/thread_pool.h"
#include "core/partition_store.h"
#include "datagen/generator.h"
#include "io/async_reader.h"
#include "io/io_ring.h"

using namespace presto;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct SweepPoint {
    size_t queue_depth = 0;
    double wall_sec = 0;
    double storage_sec = 0;   ///< modeled storage time of the read
    double hidden_fraction = 0;  ///< of blocking storage time hidden
};

/** One emulated-latency read; returns wall seconds. */
double
timedRead(IoRing& ring, size_t queue_depth,
          std::span<const uint8_t> encoded, RowBatch& out,
          AsyncReadStats& rs)
{
    AsyncReadOptions opt;
    opt.queue_depth = queue_depth;
    AsyncPartitionReader reader(ring, opt);
    const double start = now();
    const Status st = reader.read(encoded, 0, out);
    const double wall = now() - start;
    if (!st.ok()) {
        std::fprintf(stderr, "async read failed: %s\n",
                     st.toString().c_str());
        std::exit(1);
    }
    rs = reader.lastReadStats();
    return wall;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--quick")
            quick = true;
    }

    RmConfig cfg = rmConfig(1);
    cfg.batch_size = quick ? 16384 : 262144;
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    const PartitionBuffer encoded = store.partition(0);

    // Differential gate: the async path must be bit-identical to the
    // blocking reader before any timing is reported.
    ColumnarFileReader blocking;
    RowBatch expect;
    if (!blocking.open(*encoded).ok() ||
        !blocking.readAllInto(expect).ok()) {
        std::fprintf(stderr, "blocking read failed\n");
        return 1;
    }
    size_t pages = 0;
    {
        IoRing ring;  // simulation mode: no sleeps for the check
        AsyncPartitionReader reader(ring);
        RowBatch got;
        if (!reader.read(*encoded, 0, got).ok() || !(got == expect)) {
            std::fprintf(stderr,
                         "differential check failed: async != blocking\n");
            return 1;
        }
        pages = reader.lastReadStats().pages;
    }

    // Queue-depth sweep under emulated latency. queue_depth=1 is the
    // blocking schedule: one page's storage wait, then its decode, in
    // strict alternation — the baseline every deeper window must beat.
    const size_t depths[] = {1, 2, 4, 8, 16};
    const size_t reps = quick ? 1 : 3;
    std::vector<SweepPoint> sweep;
    IoRingStats deepest_stats{};
    for (const size_t depth : depths) {
        SweepPoint p;
        p.queue_depth = depth;
        p.wall_sec = 1e100;
        for (size_t r = 0; r < reps; ++r) {
            IoRingOptions opt;
            opt.emulate_latency = true;
            IoRing ring(opt);
            RowBatch got;
            AsyncReadStats rs;
            const double wall = timedRead(ring, depth, *encoded, got, rs);
            if (wall < p.wall_sec) {
                p.wall_sec = wall;
                p.storage_sec = rs.modeled_storage_sec;
            }
            if (depth == 16)
                deepest_stats = ring.statsSnapshot();
        }
        sweep.push_back(p);
    }
    const double blocking_wall = sweep[0].wall_sec;
    const double blocking_storage = sweep[0].storage_sec;
    for (auto& p : sweep) {
        p.hidden_fraction =
            (blocking_wall - p.wall_sec) / blocking_storage;
    }

    // Multi-partition: 4 readers on their own threads share one ring
    // and one decode pool, so pages of different partitions keep the
    // device channels and the decoder busy at once.
    const size_t kPartitions = 4;
    std::vector<RowBatch> parts(kPartitions);
    for (uint64_t pid = 0; pid < kPartitions; ++pid)
        (void)store.partition(pid);  // materialize outside the timing
    double serial_wall = 0;
    {
        IoRingOptions opt;
        opt.emulate_latency = true;
        IoRing ring(opt);
        const double start = now();
        for (uint64_t pid = 0; pid < kPartitions; ++pid) {
            AsyncReadOptions ropt;
            ropt.queue_depth = 1;
            AsyncPartitionReader reader(ring, ropt);
            if (!reader.read(*store.partition(pid), pid, parts[pid])
                     .ok()) {
                std::fprintf(stderr, "serial read failed\n");
                return 1;
            }
        }
        serial_wall = now() - start;
    }
    double shared_wall = 0;
    {
        IoRingOptions opt;
        opt.emulate_latency = true;
        IoRing ring(opt);
        ThreadPool pool(2);
        std::vector<std::thread> threads;
        bool failed = false;
        const double start = now();
        for (uint64_t pid = 0; pid < kPartitions; ++pid) {
            threads.emplace_back([&, pid] {
                AsyncReadOptions ropt;
                ropt.queue_depth = 8;
                AsyncPartitionReader reader(ring, ropt);
                reader.setDecodePool(&pool);
                RowBatch got;
                if (!reader.read(*store.partition(pid), pid, got).ok() ||
                    !(got == parts[pid]))
                    failed = true;
            });
        }
        for (auto& t : threads)
            t.join();
        shared_wall = now() - start;
        if (failed) {
            std::fprintf(stderr, "multi-partition read failed\n");
            return 1;
        }
    }

    // Frequency-aware placement: a cold read at queue depth 4 of the
    // heat-annotated full-codec-menu (entropy) file under kHeat
    // placement, against the LZ-only file under kAddress striping (a
    // conventional address-interleaved SSD mapping). The entropy menu
    // shrinks the bytes each channel must move and heat placement
    // guarantees consecutive hot-stream pages land on distinct
    // channels, so the two effects compound on the cold path.
    //
    // latency_scale makes the cold read device-bound: at scale 1 on a
    // one-core host the walls are dominated by page decode (which the
    // queue-depth sweep above already measures), not by the channel
    // schedule this section compares. Scaling the modeled flash service
    // time up by 8x puts the storage term back in charge — the regime a
    // cold first-epoch read from dense QLC flash actually lives in —
    // while decode still overlaps underneath it.
    constexpr double kColdReadLatencyScale = 8.0;
    double heat_wall = 1e100, addr_wall = 1e100;
    uint64_t heat_bytes = 0, addr_bytes = 0;
    {
        const RowBatch batch = gen.generatePartition(0);
        WriterOptions lz_opts;
        lz_opts.codec = PageCodec::kLz;
        WriterOptions heat_opts;  // default codec: full menu
        heat_opts.column_heat = columnAccessHeat(cfg);
        const auto lz_file = ColumnarFileWriter(lz_opts).write(batch, 0);
        const auto heat_file =
            ColumnarFileWriter(heat_opts).write(batch, 0);

        auto timedPlacement = [&](std::span<const uint8_t> file,
                                  ChannelPlacement placement,
                                  uint64_t* bytes) {
            double best = 1e100;
            for (size_t r = 0; r < reps; ++r) {
                IoRingOptions opt;
                opt.emulate_latency = true;
                opt.latency_scale = kColdReadLatencyScale;
                IoRing ring(opt);
                AsyncReadOptions ropt;
                ropt.queue_depth = 4;
                ropt.placement = placement;
                AsyncPartitionReader reader(ring, ropt);
                RowBatch got;
                const double start = now();
                const Status st = reader.read(file, 0, got);
                const double wall = now() - start;
                if (!st.ok() || !(got == expect)) {
                    std::fprintf(
                        stderr,
                        "placement read failed or differs (%d)\n",
                        static_cast<int>(placement));
                    std::exit(1);
                }
                best = std::min(best, wall);
                *bytes = reader.lastReadStats().bytes_read;
            }
            return best;
        };
        addr_wall =
            timedPlacement(lz_file, ChannelPlacement::kAddress,
                           &addr_bytes);
        heat_wall = timedPlacement(heat_file, ChannelPlacement::kHeat,
                                   &heat_bytes);
    }

    std::printf("{\n"
                "  \"bench\": \"io\",\n"
                "  \"quick\": %s,\n"
                "  \"partition\": {\"rows\": %zu, \"bytes\": %zu, "
                "\"pages\": %zu},\n",
                quick ? "true" : "false",
                static_cast<size_t>(cfg.batch_size), encoded->size(),
                pages);
    std::printf("  \"queue_depth_sweep\": [\n");
    for (size_t i = 0; i < sweep.size(); ++i) {
        const SweepPoint& p = sweep[i];
        std::printf("    {\"queue_depth\": %zu, \"wall_sec\": %.6e, "
                    "\"storage_sec\": %.6e, \"hidden_fraction\": %.3f}%s\n",
                    p.queue_depth, p.wall_sec, p.storage_sec,
                    p.hidden_fraction, i + 1 < sweep.size() ? "," : "");
    }
    std::printf("  ],\n");
    std::printf("  \"ring_stats_qd16\": {\"submitted\": %llu, "
                "\"completed\": %llu, \"max_in_flight\": %llu, "
                "\"mean_queue_depth\": %.2f, "
                "\"latency_mean_sec\": %.6e, \"latency_p50_sec\": %.6e, "
                "\"latency_p95_sec\": %.6e, \"latency_p99_sec\": %.6e},\n",
                static_cast<unsigned long long>(deepest_stats.submitted),
                static_cast<unsigned long long>(deepest_stats.completed),
                static_cast<unsigned long long>(
                    deepest_stats.max_in_flight),
                deepest_stats.queue_depth.mean(),
                deepest_stats.latency.mean(),
                deepest_stats.latencyQuantile(0.50),
                deepest_stats.latencyQuantile(0.95),
                deepest_stats.latencyQuantile(0.99));
    std::printf("  \"multi_partition\": {\"partitions\": %zu, "
                "\"serial_qd1_wall_sec\": %.6e, "
                "\"shared_ring_pool_wall_sec\": %.6e, "
                "\"speedup\": %.2f},\n",
                kPartitions, serial_wall, shared_wall,
                serial_wall / shared_wall);
    std::printf("  \"placement_qd4\": {\n"
                "    \"latency_scale\": %.1f,\n"
                "    \"address_striped_lz\": {\"wall_sec\": %.6e, "
                "\"bytes_read\": %llu},\n"
                "    \"heat_striped_entropy\": {\"wall_sec\": %.6e, "
                "\"bytes_read\": %llu, \"speedup_vs_address\": %.3f}\n"
                "  },\n",
                kColdReadLatencyScale, addr_wall,
                static_cast<unsigned long long>(addr_bytes),
                heat_wall, static_cast<unsigned long long>(heat_bytes),
                addr_wall / heat_wall);
    std::printf("  \"differential\": \"ok\"\n}\n");

    // Acceptance gates (full mode): a window of >= 4 pages must hide at
    // least half of the blocking schedule's modeled storage time, and
    // the heat-striped entropy file must read no slower cold than the
    // address-striped LZ-only baseline at the same queue depth.
    if (!quick) {
        for (const SweepPoint& p : sweep) {
            if (p.queue_depth >= 4 && p.hidden_fraction < 0.5) {
                std::fprintf(stderr,
                             "queue depth %zu hid only %.0f%% of storage "
                             "latency (need >= 50%%)\n",
                             p.queue_depth, p.hidden_fraction * 100.0);
                return 1;
            }
        }
        if (heat_wall > addr_wall) {
            std::fprintf(stderr,
                         "heat-striped entropy cold read (%.3e s) slower "
                         "than address-striped LZ baseline (%.3e s)\n",
                         heat_wall, addr_wall);
            return 1;
        }
    }
    return 0;
}
