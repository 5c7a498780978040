/**
 * @file
 * Tracked perf baseline of the Transform hot path, emitted as JSON
 * (committed as BENCH_hotpath.json; schema in docs/PERF.md).
 *
 * Measures, on this host, single-thread rows/s and scalar-ops/s of each
 * dispatched kernel (SigridHash, Bucketize, Log, FillMissing) at every
 * SIMD level the CPU supports, against the seed's scalar reference
 * implementations — plus the end-to-end Transform pipeline with and
 * without the BatchArena-backed zero-allocation path. Every kernel run
 * is differentially checked against the reference before it is timed;
 * any mismatch exits nonzero, so a perf number can never be reported
 * for a wrong kernel.
 *
 * Usage: bench_hotpath [--quick]   (--quick shrinks sizes/reps for the
 * ctest "perf" smoke label; numbers are then noisy but the differential
 * checks still run.)
 */
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/batch_arena.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "datagen/generator.h"
#include "ops/fast_ops.h"
#include "ops/ops.h"
#include "ops/preprocessor.h"
#include "ops/simd.h"

#include "bench_host.h"

using namespace presto;

namespace {

struct BenchConfig {
    size_t kernel_values;  ///< elements per kernel timing buffer
    size_t reps;           ///< timed repetitions (best-of)
    size_t e2e_batches;    ///< end-to-end preprocess iterations
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-of-reps seconds for one timed closure. */
template <typename F>
double
bestSeconds(size_t reps, F&& body)
{
    double best = 1e300;
    for (size_t r = 0; r < reps; ++r) {
        const double t0 = now();
        body();
        const double dt = now() - t0;
        if (dt < best)
            best = dt;
    }
    return best;
}

std::vector<float>
denseValues(size_t n)
{
    Rng rng(42);
    std::vector<float> v(n);
    for (size_t i = 0; i < n; ++i) {
        v[i] = static_cast<float>(rng.logNormal(2.0, 1.5));
        if (i % 97 == 0)
            v[i] = std::nanf("");  // missing values exercise FillMissing
    }
    return v;
}

std::vector<int64_t>
sparseIds(size_t n)
{
    Rng rng(43);
    std::vector<int64_t> v(n);
    for (auto& x : v)
        x = static_cast<int64_t>(rng.next() >> 1);
    return v;
}

[[noreturn]] void
mismatch(const char* kernel, SimdLevel level)
{
    std::fprintf(stderr,
                 "FATAL: %s output at level %s differs from reference\n",
                 kernel, simdLevelName(level));
    std::exit(1);
}

std::vector<SimdLevel>
availableLevels()
{
    std::vector<SimdLevel> levels = {SimdLevel::kScalar};
    if (detectedSimdLevel() >= SimdLevel::kAvx2)
        levels.push_back(SimdLevel::kAvx2);
    if (detectedSimdLevel() >= SimdLevel::kAvx512)
        levels.push_back(SimdLevel::kAvx512);
    return levels;
}

/** One kernel measurement: seed-reference baseline + per-level results. */
void
emitKernel(const char* name, double ref_seconds, size_t values_per_rep,
           double ops_per_value,
           const std::vector<std::pair<SimdLevel, double>>& level_seconds,
           bool trailing_comma)
{
    const double n = static_cast<double>(values_per_rep);
    std::printf("    {\n"
                "      \"kernel\": \"%s\",\n"
                "      \"values_per_rep\": %zu,\n"
                "      \"reference\": {\"seconds\": %.6e, "
                "\"values_per_sec\": %.4e, \"scalar_ops_per_sec\": %.4e},\n"
                "      \"dispatched\": [\n",
                name, values_per_rep, ref_seconds, n / ref_seconds,
                n * ops_per_value / ref_seconds);
    for (size_t i = 0; i < level_seconds.size(); ++i) {
        const auto& [level, secs] = level_seconds[i];
        std::printf("        {\"level\": \"%s\", \"seconds\": %.6e, "
                    "\"values_per_sec\": %.4e, "
                    "\"scalar_ops_per_sec\": %.4e, "
                    "\"speedup_vs_reference\": %.3f}%s\n",
                    simdLevelName(level), secs, n / secs,
                    n * ops_per_value / secs, ref_seconds / secs,
                    i + 1 < level_seconds.size() ? "," : "");
    }
    std::printf("      ]\n    }%s\n", trailing_comma ? "," : "");
}

uint64_t
miniBatchChecksum(const MiniBatch& mb)
{
    uint64_t crc = crc32c(mb.dense.data(), mb.dense.size() * sizeof(float));
    crc = crc32c(mb.labels.data(), mb.labels.size() * sizeof(float), crc);
    for (const auto& jag : mb.sparse) {
        crc = crc32c(jag.values.data(),
                     jag.values.size() * sizeof(int64_t), crc);
        crc = crc32c(jag.lengths.data(),
                     jag.lengths.size() * sizeof(uint32_t), crc);
    }
    return mix64(crc + mb.batch_size);
}

void
runKernels(const BenchConfig& bc)
{
    const auto levels = availableLevels();
    const size_t n = bc.kernel_values;
    const auto dense = denseValues(n);
    const auto ids = sparseIds(n);
    const auto bounds = BucketBoundaries::makeLogSpaced(4096, 0.02f,
                                                        3000.0f);
    constexpr uint64_t kSeed = 0x5eed;
    constexpr int64_t kTable = 500000;
    // Scalar-op weights: multiplies+shifts+xors of one sigridHash (~12),
    // the table reads of one radix-indexed lookup (first[slot],
    // first[slot + 1], then one probe per bisection step), and 1 for
    // the single-op kernels.
    const double hash_ops = 12.0;
    const double bucket_ops = 2.0 + FastBucketizer(bounds).steps();

    std::printf("  \"kernels\": [\n");

    // --- SigridHash ------------------------------------------------------
    {
        std::vector<int64_t> ref = ids;
        sigridHashInPlace(ref, kSeed, kTable);
        std::vector<int64_t> buf(n);
        std::vector<std::pair<SimdLevel, double>> per_level;
        for (SimdLevel level : levels) {
            setSimdLevel(level);
            sigridHashInto(ids, buf, kSeed, kTable);
            if (std::memcmp(buf.data(), ref.data(),
                            n * sizeof(int64_t)) != 0)
                mismatch("sigrid_hash", level);
            per_level.emplace_back(level, bestSeconds(bc.reps, [&] {
                sigridHashInto(ids, buf, kSeed, kTable);
            }));
        }
        const double ref_secs = bestSeconds(bc.reps, [&] {
            std::memcpy(buf.data(), ids.data(), n * sizeof(int64_t));
            sigridHashInPlace(buf, kSeed, kTable);
        });
        emitKernel("sigrid_hash", ref_secs, n, hash_ops, per_level, true);
    }

    // --- Bucketize -------------------------------------------------------
    {
        std::vector<int64_t> ref(n);
        bucketizeInto(dense, bounds, ref);
        const FastBucketizer fast(bounds);
        std::vector<int64_t> buf(n);
        std::vector<std::pair<SimdLevel, double>> per_level;
        for (SimdLevel level : levels) {
            setSimdLevel(level);
            fast.bucketizeInto(dense, buf);
            if (std::memcmp(buf.data(), ref.data(),
                            n * sizeof(int64_t)) != 0)
                mismatch("bucketize", level);
            per_level.emplace_back(level, bestSeconds(bc.reps, [&] {
                fast.bucketizeInto(dense, buf);
            }));
        }
        const double ref_secs = bestSeconds(
            bc.reps, [&] { bucketizeInto(dense, bounds, buf); });
        emitKernel("bucketize", ref_secs, n, bucket_ops, per_level, true);
    }

    // --- Log normalization ----------------------------------------------
    {
        std::vector<float> ref = dense;
        fillMissingInPlace(ref, 0.0f);  // log runs after FillMissing
        const std::vector<float> input = ref;
        logTransformInPlace(ref);
        std::vector<float> buf(n);
        std::vector<std::pair<SimdLevel, double>> per_level;
        for (SimdLevel level : levels) {
            setSimdLevel(level);
            buf = input;
            logTransformInPlaceFast(buf);
            if (std::memcmp(buf.data(), ref.data(), n * sizeof(float)) !=
                0)
                mismatch("log", level);
            per_level.emplace_back(level, bestSeconds(bc.reps, [&] {
                std::memcpy(buf.data(), input.data(), n * sizeof(float));
                logTransformInPlaceFast(buf);
            }));
        }
        const double ref_secs = bestSeconds(bc.reps, [&] {
            std::memcpy(buf.data(), input.data(), n * sizeof(float));
            logTransformInPlace(buf);
        });
        emitKernel("log", ref_secs, n, 1.0, per_level, true);
    }

    // --- FillMissing -----------------------------------------------------
    {
        std::vector<float> ref = dense;
        fillMissingInPlace(ref, 0.0f);
        std::vector<float> buf(n);
        std::vector<std::pair<SimdLevel, double>> per_level;
        for (SimdLevel level : levels) {
            setSimdLevel(level);
            buf = dense;
            fillMissingInPlaceFast(buf, 0.0f);
            if (std::memcmp(buf.data(), ref.data(), n * sizeof(float)) !=
                0)
                mismatch("fill_missing", level);
            per_level.emplace_back(level, bestSeconds(bc.reps, [&] {
                std::memcpy(buf.data(), dense.data(), n * sizeof(float));
                fillMissingInPlaceFast(buf, 0.0f);
            }));
        }
        const double ref_secs = bestSeconds(bc.reps, [&] {
            std::memcpy(buf.data(), dense.data(), n * sizeof(float));
            fillMissingInPlace(buf, 0.0f);
        });
        emitKernel("fill_missing", ref_secs, n, 1.0, per_level, false);
    }

    std::printf("  ],\n");
}

void
runEndToEnd(const BenchConfig& bc)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 4096;
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(0);
    const Preprocessor pre(cfg);
    const size_t rows = raw.numRows();

    // Reference: the allocating preprocess() at scalar level (the seed
    // path ran scalar kernels and allocated each MiniBatch fresh).
    setSimdLevel(SimdLevel::kScalar);
    const uint64_t want = miniBatchChecksum(pre.preprocess(raw));
    const double ref_secs = bestSeconds(bc.reps, [&] {
        for (size_t i = 0; i < bc.e2e_batches; ++i) {
            MiniBatch mb = pre.preprocess(raw);
            if (miniBatchChecksum(mb) != want)
                mismatch("preprocess", activeSimdLevel());
        }
    });

    std::printf("  \"end_to_end\": {\n"
                "    \"workload\": \"%s\",\n"
                "    \"batch_size\": %zu,\n"
                "    \"batches_per_rep\": %zu,\n"
                "    \"reference_scalar_alloc\": {\"seconds\": %.6e, "
                "\"rows_per_sec\": %.4e},\n"
                "    \"arena\": [\n",
                cfg.name.c_str(), rows, bc.e2e_batches, ref_secs,
                static_cast<double>(rows * bc.e2e_batches) / ref_secs);

    const auto levels = availableLevels();
    for (size_t i = 0; i < levels.size(); ++i) {
        setSimdLevel(levels[i]);
        BatchArena arena;
        MiniBatch mb;
        pre.preprocessInto(raw, mb, arena);  // warm the arena + shell
        if (miniBatchChecksum(mb) != want)
            mismatch("preprocessInto", levels[i]);
        const size_t slots_after_warmup = arena.slotAllocations();
        const double secs = bestSeconds(bc.reps, [&] {
            for (size_t b = 0; b < bc.e2e_batches; ++b)
                pre.preprocessInto(raw, mb, arena);
        });
        if (miniBatchChecksum(mb) != want)
            mismatch("preprocessInto", levels[i]);
        // Steady state must not have grown the arena.
        if (arena.slotAllocations() != slots_after_warmup) {
            std::fprintf(stderr,
                         "FATAL: arena grew after warmup (%zu -> %zu)\n",
                         slots_after_warmup, arena.slotAllocations());
            std::exit(1);
        }
        std::printf("      {\"level\": \"%s\", \"seconds\": %.6e, "
                    "\"rows_per_sec\": %.4e, "
                    "\"speedup_vs_reference\": %.3f, "
                    "\"arena_slots\": %zu, \"arena_batches\": %zu, "
                    "\"arena_bytes_reserved\": %zu}%s\n",
                    simdLevelName(levels[i]), secs,
                    static_cast<double>(rows * bc.e2e_batches) / secs,
                    ref_secs / secs, arena.slotAllocations(),
                    arena.batches(), arena.bytesReserved(),
                    i + 1 < levels.size() ? "," : "");
    }
    std::printf("    ]\n  }\n");
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
    const BenchConfig bc = quick ? BenchConfig{1 << 14, 3, 2}
                                 : BenchConfig{1 << 20, 9, 8};

    std::printf("{\n"
                "  \"bench\": \"hotpath\",\n"
                "  \"quick\": %s,\n"
                "  \"detected_simd\": \"%s\",\n",
                quick ? "true" : "false",
                simdLevelName(detectedSimdLevel()));
    bench::printHost();
    runKernels(bc);
    runEndToEnd(bc);
    std::printf("}\n");
    return 0;
}
