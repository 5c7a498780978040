/**
 * @file
 * Tracked perf baseline of the persistent segment store's cold-read
 * path, emitted as JSON (schema in docs/PERF.md).
 *
 * Compares three ways of delivering the same committed partition:
 *
 *   memory   - AsyncPartitionReader::read() over the in-memory encoded
 *              span (the pre-PR path; no storage involved);
 *   cold     - SegmentStore::readSegment(): journal-recovered plans,
 *              tail pread, then every page frame pread through the
 *              IoRing's device workers;
 *   blocking - SegmentStore::readSegmentRaw() + ColumnarFileReader:
 *              whole-file load + CRC, then decode (the non-pipelined
 *              reference).
 *
 * Every path is differentially checked against the generator's batch
 * before timing, so a throughput number can never be reported for a
 * wrong reader. The store itself is built (and recovered) in a scratch
 * directory under the system temp root.
 *
 * Usage: bench_store [--quick]   (--quick shrinks the partitions for
 * the ctest "perf" smoke label.)
 */
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "io/async_reader.h"
#include "io/io_ring.h"
#include "store/segment_store.h"

using namespace presto;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** The blocking path: whole-file CRC-checked load, then full decode. */
bool
readBlocking(SegmentStore& store, uint64_t segment_id, RowBatch& out)
{
    auto bytes = store.readSegmentRaw(segment_id);
    ColumnarFileReader reader;
    return bytes.ok() && reader.open(*bytes).ok() &&
           reader.readAllInto(out).ok();
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
    cfg.batch_size = quick ? 16384 : 131072;
    const size_t kPartitions = quick ? 2 : 4;
    const size_t reps = quick ? 2 : 5;
    RawDataGenerator gen(cfg);

    char dir_template[] = "/tmp/bench_store.XXXXXX";
    const char* dir_c = ::mkdtemp(dir_template);
    if (dir_c == nullptr) {
        std::fprintf(stderr, "cannot create scratch directory\n");
        return 1;
    }
    const std::string dir = dir_c;

    // Build the store, then re-open it so the timed reads run against a
    // journal-recovered manifest — the state a real restart would see.
    uint64_t total_bytes = 0;
    {
        SegmentStoreOptions opt;
        opt.directory = dir;
        auto store = SegmentStore::open(opt);
        if (!store.ok()) {
            std::fprintf(stderr, "store open failed: %s\n",
                         store.status().toString().c_str());
            return 1;
        }
        for (uint64_t pid = 0; pid < kPartitions; ++pid) {
            auto id = (*store)->appendPartition(gen.generatePartition(pid),
                                                pid);
            if (!id.ok()) {
                std::fprintf(stderr, "append failed: %s\n",
                             id.status().toString().c_str());
                return 1;
            }
        }
        for (const SegmentInfo& info : (*store)->listSegments())
            total_bytes += info.meta.byte_size;
    }
    SegmentStoreOptions opt;
    opt.directory = dir;
    auto store = SegmentStore::open(opt);
    if (!store.ok()) {
        std::fprintf(stderr, "store re-open failed: %s\n",
                     store.status().toString().c_str());
        return 1;
    }

    // Differential gate for every path and partition.
    std::vector<std::vector<uint8_t>> encoded(kPartitions);
    for (uint64_t pid = 0; pid < kPartitions; ++pid) {
        const RowBatch expect = gen.generatePartition(pid);
        auto info = (*store)->segmentForPartition(pid);
        if (!info.ok()) {
            std::fprintf(stderr, "partition %llu lost: %s\n",
                         static_cast<unsigned long long>(pid),
                         info.status().toString().c_str());
            return 1;
        }
        auto bytes = loadFromFile((*store)->segmentPath(info->meta));
        if (!bytes.ok())
            return 1;
        encoded[pid] = std::move(*bytes);
        IoRing ring;
        AsyncPartitionReader reader(ring);
        RowBatch memory, cold, blocking;
        if (!reader.read(encoded[pid], pid, memory).ok() ||
            !(*store)->readSegment(info->meta.segment_id, reader, cold)
                 .ok() ||
            !readBlocking(**store, info->meta.segment_id, blocking) ||
            !(memory == expect) || !(cold == expect) ||
            !(blocking == expect)) {
            std::fprintf(stderr,
                         "differential check failed on partition %llu\n",
                         static_cast<unsigned long long>(pid));
            return 1;
        }
    }

    // Best-of-reps wall time for one pass over every partition.
    double memory_wall = 1e100;
    double cold_wall = 1e100;
    double blocking_wall = 1e100;
    for (size_t r = 0; r < reps; ++r) {
        RowBatch out;
        double start = now();
        for (uint64_t pid = 0; pid < kPartitions; ++pid) {
            IoRing ring;
            AsyncPartitionReader reader(ring);
            if (!reader.read(encoded[pid], pid, out).ok())
                return 1;
        }
        memory_wall = std::min(memory_wall, now() - start);

        start = now();
        for (uint64_t pid = 0; pid < kPartitions; ++pid) {
            auto info = (*store)->segmentForPartition(pid);
            IoRing ring;
            AsyncPartitionReader reader(ring);
            if (!info.ok() ||
                !(*store)
                     ->readSegment(info->meta.segment_id, reader, out)
                     .ok())
                return 1;
        }
        cold_wall = std::min(cold_wall, now() - start);

        start = now();
        for (uint64_t pid = 0; pid < kPartitions; ++pid) {
            auto info = (*store)->segmentForPartition(pid);
            if (!info.ok() ||
                !readBlocking(**store, info->meta.segment_id, out))
                return 1;
        }
        blocking_wall = std::min(blocking_wall, now() - start);
    }

    const double mib = static_cast<double>(total_bytes) / (1024.0 * 1024.0);
    std::printf("{\n"
                "  \"bench\": \"store\",\n"
                "  \"quick\": %s,\n"
                "  \"partitions\": %zu,\n"
                "  \"rows_per_partition\": %zu,\n"
                "  \"segment_bytes_total\": %llu,\n",
                quick ? "true" : "false", kPartitions,
                static_cast<size_t>(cfg.batch_size),
                static_cast<unsigned long long>(total_bytes));
    std::printf("  \"memory_resident\": {\"wall_sec\": %.6e, "
                "\"mib_per_sec\": %.1f},\n",
                memory_wall, mib / memory_wall);
    std::printf("  \"cold_pread_ring\": {\"wall_sec\": %.6e, "
                "\"mib_per_sec\": %.1f},\n",
                cold_wall, mib / cold_wall);
    std::printf("  \"cold_blocking\": {\"wall_sec\": %.6e, "
                "\"mib_per_sec\": %.1f},\n",
                blocking_wall, mib / blocking_wall);
    std::printf("  \"cold_vs_memory_ratio\": %.3f,\n"
                "  \"differential\": \"ok\"\n}\n",
                cold_wall / memory_wall);

    // Scratch cleanup (best-effort).
    ::system(("rm -rf " + dir).c_str());
    return 0;
}
