/**
 * @file
 * Tracked perf comparison of the fused op-chain bytecode VM against the
 * unfused one-pass-per-operator reference executor, emitted as JSON
 * (committed as BENCH_fused.json; schema in docs/PERF.md).
 *
 * Measures, on this host, representative operator chains (dense float
 * chains, sparse hash chains, the generated Bucketize bridge) fused vs
 * unfused at the best dispatched SIMD level, plus the end-to-end RM1
 * standard plan at every level. Every configuration is differentially
 * checked — fused output must be bit-identical to the unfused
 * reference — before it is timed; a mismatch exits nonzero. Fused and
 * unfused runs alternate within each trial; the report gives the
 * median, min and max over the trials, and a speedup is the median of
 * the per-trial ratios. A "host" block records where the numbers were
 * taken.
 *
 * The end-to-end section also reports fused output values/second, the
 * provenance of cal::kMeasuredFusedValuesPerSec (models/calibration.h).
 *
 * Two gates, both ratios measured in one process: the fused end-to-end
 * path must beat the unfused reference by >= 1.3x at the best SIMD
 * level, and the fused generated chain (FillMissing, Bucketize over
 * 1024 bounds, SigridHash) by >= kGeneratedRequiredSpeedup over its
 * unfused std::upper_bound reference, so a return to the gather
 * bisection fails it. A full run exits nonzero when a gate fails.
 *
 * Usage: bench_fused [--quick]   (--quick shrinks sizes for the ctest
 * "perf" smoke label; differential checks still run, and the verdicts
 * are reported but not enforced: CI compares them with the committed
 * BENCH_fused.json.)
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/batch_arena.h"
#include "datagen/generator.h"
#include "ops/opvm.h"
#include "ops/plan.h"
#include "ops/preprocessor.h"
#include "ops/simd.h"

#include "bench_host.h"

using namespace presto;
using presto::bench::Spread;
using presto::bench::spreadOf;

namespace {

struct BenchConfig {
    size_t chain_rows;   ///< rows per chain-timing batch
    size_t trials;       ///< timed trials per configuration (>= 5)
    size_t e2e_batches;  ///< end-to-end iterations per trial
};

/**
 * Floor on generated_fill_bucketize_hash's fused/unfused speedup. The
 * gather bisection measured at most 4.2x on every tier; the radix
 * search measures >= 9.2x at AVX2 and 16-25x at AVX-512 (6.4x on a
 * scalar-only host).
 */
constexpr double kGeneratedRequiredSpeedup = 6.0;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Per-trial seconds of a fused and an unfused body, run alternately. */
struct Trials {
    std::vector<double> fused;
    std::vector<double> unfused;

    double
    speedup() const
    {
        std::vector<double> ratios;
        for (size_t t = 0; t < fused.size(); ++t)
            ratios.push_back(unfused[t] / fused[t]);
        return spreadOf(ratios).median;
    }
};

template <typename F, typename U>
Trials
timeTrials(size_t trials, F&& fused, U&& unfused)
{
    Trials out;
    for (size_t t = 0; t < trials; ++t) {
        double t0 = now();
        fused();
        out.fused.push_back(now() - t0);
        t0 = now();
        unfused();
        out.unfused.push_back(now() - t0);
    }
    return out;
}

/** `"seconds": {median, min, max}, "<rate>": median rate` of @p secs
    for @p work units per trial. */
std::string
timingJson(const std::vector<double>& secs, const char* rate, double work)
{
    const Spread s = spreadOf(secs);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"seconds\": {\"median\": %.6e, \"min\": %.6e, "
                  "\"max\": %.6e}, \"%s\": %.4e",
                  s.median, s.min, s.max, rate, work / s.median);
    return buf;
}

/** Bitwise mini-batch equality (floats by pattern, NaN-safe). */
bool
sameBits(const MiniBatch& a, const MiniBatch& b)
{
    if (a.batch_size != b.batch_size || a.num_dense != b.num_dense ||
        a.dense.size() != b.dense.size() ||
        a.labels.size() != b.labels.size() ||
        a.sparse.size() != b.sparse.size())
        return false;
    if (std::memcmp(a.dense.data(), b.dense.data(),
                    a.dense.size() * sizeof(float)) != 0)
        return false;
    if (std::memcmp(a.labels.data(), b.labels.data(),
                    a.labels.size() * sizeof(float)) != 0)
        return false;
    for (size_t s = 0; s < a.sparse.size(); ++s) {
        if (a.sparse[s].values != b.sparse[s].values ||
            a.sparse[s].lengths != b.sparse[s].lengths)
            return false;
    }
    return true;
}

[[noreturn]] void
mismatch(const std::string& what)
{
    std::fprintf(stderr,
                 "FATAL: fused output differs from the unfused reference "
                 "(%s, level %s)\n",
                 what.c_str(), simdLevelName(activeSimdLevel()));
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

/** Sink so timed loops cannot be dead-code-eliminated. */
volatile uint64_t g_sink = 0;

RowBatch
chainBatch(size_t rows)
{
    // One dense feature + one 4-id-per-row sparse feature, realistic
    // value material (log-normal dense with missing slots, 63-bit ids).
    Rng rng(7);
    RowBatch batch(Schema::makeRecSys(1, 1));
    std::vector<float> labels(rows);
    for (auto& v : labels)
        v = static_cast<float>(rng.next() % 2);
    batch.addColumn(DenseColumn(std::move(labels)));
    std::vector<float> dense(rows);
    for (size_t i = 0; i < rows; ++i) {
        dense[i] = static_cast<float>(rng.logNormal(2.0, 1.5));
        if (i % 97 == 0)
            dense[i] = std::nanf("");
    }
    batch.addColumn(DenseColumn(std::move(dense)));
    std::vector<uint32_t> offsets(rows + 1);
    for (size_t r = 0; r <= rows; ++r)
        offsets[r] = static_cast<uint32_t>(4 * r);
    std::vector<int64_t> ids(offsets.back());
    for (auto& id : ids)
        id = static_cast<int64_t>(rng.next() >> 1);
    batch.addColumn(SparseColumn(std::move(ids), std::move(offsets)));
    return batch;
}

/** One single-output chain, fused vs unfused at the current level.
    @return the median fused/unfused speedup. */
double
benchChain(const char* name, const PlanOutput& output,
           const RowBatch& raw, const BenchConfig& bc, double values,
           bool trailing_comma)
{
    TransformPlan plan;
    plan.add(output);
    const PlanExecutor exec(plan, raw.schema());

    const MiniBatch ref = exec.runUnfused(raw);
    MiniBatch mb;
    BatchArena arena;
    exec.runInto(raw, mb, arena);
    if (!sameBits(ref, mb))
        mismatch(name);

    const Trials trials = timeTrials(
        bc.trials,
        [&] {
            exec.runInto(raw, mb, arena);
            g_sink = g_sink + mb.batch_size;
        },
        [&] {
            const MiniBatch u = exec.runUnfused(raw);
            g_sink = g_sink + u.batch_size;
        });
    const double speedup = trials.speedup();
    std::printf("    {\"chain\": \"%s\", \"values_per_rep\": %.0f, "
                "\"trials\": %zu, \"unfused\": {%s}, \"fused\": {%s}, "
                "\"speedup\": %.3f}%s\n",
                name, values, bc.trials,
                timingJson(trials.unfused, "values_per_sec", values).c_str(),
                timingJson(trials.fused, "values_per_sec", values).c_str(),
                speedup, trailing_comma ? "," : "");
    return speedup;
}

/** @return the generated chain's median fused/unfused speedup. */
double
runChains(const BenchConfig& bc)
{
    setSimdLevel(detectedSimdLevel());
    const RowBatch raw = chainBatch(bc.chain_rows);
    const auto rows = static_cast<double>(bc.chain_rows);
    double generated = 0.0;

    std::printf("  \"chains\": [\n");
    {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kDense;
        out.output_name = "d";
        out.source_feature = "dense_0";
        out.dense_ops = {DenseOp::fillMissing(0.0f), DenseOp::log()};
        benchChain("dense_fill_log", out, raw, bc, rows, true);
    }
    {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kDense;
        out.output_name = "d";
        out.source_feature = "dense_0";
        out.dense_ops = {DenseOp::clamp(0.0f, 3000.0f),
                         DenseOp::fillMissing(1.0f), DenseOp::log(),
                         DenseOp::clamp(0.0f, 8.0f)};
        benchChain("dense_clamp_fill_log_clamp", out, raw, bc, rows,
                   true);
    }
    {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kSparse;
        out.output_name = "s";
        out.source_feature = "sparse_0";
        out.sparse_ops = {SparseOp::sigridHash(0x5eed, 500000)};
        benchChain("sparse_hash", out, raw, bc, 4.0 * rows, true);
    }
    {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kSparse;
        out.output_name = "s";
        out.source_feature = "sparse_0";
        out.sparse_ops = {SparseOp::sigridHash(1, 500000),
                          SparseOp::sigridHash(2, 100000),
                          SparseOp::sigridHash(3, 65536)};
        benchChain("sparse_hash_x3", out, raw, bc, 4.0 * rows, true);
    }
    {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kGenerated;
        out.output_name = "g";
        out.source_feature = "dense_0";
        out.dense_ops = {DenseOp::fillMissing(0.0f)};
        out.bucket_boundaries = 1024;
        out.sparse_ops = {SparseOp::sigridHash(0x5eed, 500000)};
        generated = benchChain("generated_fill_bucketize_hash", out, raw,
                               bc, rows, false);
    }
    std::printf("  ],\n");
    return generated;
}

/** @return the best-level end-to-end fused/unfused speedup. */
double
runEndToEnd(const BenchConfig& bc, double* fused_values_per_sec)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 4096;
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(0);
    const PlanExecutor exec(TransformPlan::standard(cfg), raw.schema());
    const size_t rows = raw.numRows();
    const double output_values =
        TransformWork::measure(cfg, raw).output_values;

    std::printf("  \"end_to_end\": {\n"
                "    \"workload\": \"%s\",\n"
                "    \"batch_size\": %zu,\n"
                "    \"batches_per_rep\": %zu,\n"
                "    \"output_values_per_batch\": %.0f,\n"
                "    \"levels\": [\n",
                cfg.name.c_str(), rows, bc.e2e_batches, output_values);

    double best_speedup = 0.0;
    const auto levels = availableLevels();
    for (size_t i = 0; i < levels.size(); ++i) {
        setSimdLevel(levels[i]);
        const MiniBatch ref = exec.runUnfused(raw);
        MiniBatch mb;
        BatchArena arena;
        exec.runInto(raw, mb, arena);
        if (!sameBits(ref, mb))
            mismatch("end_to_end " + cfg.name);

        const Trials trials = timeTrials(
            bc.trials,
            [&] {
                for (size_t b = 0; b < bc.e2e_batches; ++b) {
                    exec.runInto(raw, mb, arena);
                    g_sink = g_sink + mb.batch_size;
                }
            },
            [&] {
                for (size_t b = 0; b < bc.e2e_batches; ++b) {
                    const MiniBatch u = exec.runUnfused(raw);
                    g_sink = g_sink + u.batch_size;
                }
            });
        const double batches = static_cast<double>(bc.e2e_batches);
        const double speedup = trials.speedup();
        const double values_per_sec =
            output_values * batches / spreadOf(trials.fused).median;
        if (speedup > best_speedup) {
            best_speedup = speedup;
            *fused_values_per_sec = values_per_sec;
        }
        const double total_rows = static_cast<double>(rows) * batches;
        std::printf(
            "      {\"level\": \"%s\", \"unfused\": {%s}, "
            "\"fused\": {%s, \"output_values_per_sec\": %.4e}, "
            "\"speedup\": %.3f}%s\n",
            simdLevelName(levels[i]),
            timingJson(trials.unfused, "rows_per_sec", total_rows).c_str(),
            timingJson(trials.fused, "rows_per_sec", total_rows).c_str(),
            values_per_sec, speedup, i + 1 < levels.size() ? "," : "");
    }
    std::printf("    ]\n  },\n");
    return best_speedup;
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
    const BenchConfig bc = quick ? BenchConfig{1 << 16, 5, 2}
                                 : BenchConfig{1 << 20, 9, 8};
    constexpr double kRequiredSpeedup = 1.3;

    std::printf("{\n"
                "  \"bench\": \"fused\",\n"
                "  \"quick\": %s,\n"
                "  \"detected_simd\": \"%s\",\n",
                quick ? "true" : "false",
                simdLevelName(detectedSimdLevel()));
    bench::printHost();
    const double generated = runChains(bc);
    double fused_values_per_sec = 0.0;
    const double speedup = runEndToEnd(bc, &fused_values_per_sec);
    // The run mode and the measured speedups sit next to the gate, not
    // in it: a gate subtree holds only thresholds and verdicts, which
    // must not drift between --quick and full runs.
    const bool speedup_ok = speedup >= kRequiredSpeedup;
    const bool generated_ok = generated >= kGeneratedRequiredSpeedup;
    std::printf("  \"measured_speedup\": %.3f,\n"
                "  \"measured_generated_speedup\": %.3f,\n"
                "  \"gate_enforced\": %s,\n"
                "  \"gate\": {\"required_speedup\": %.2f, "
                "\"speedup_ok\": %s, "
                "\"generated_required_speedup\": %.2f, "
                "\"generated_speedup_ok\": %s}\n"
                "}\n",
                speedup, generated, quick ? "false" : "true",
                kRequiredSpeedup, speedup_ok ? "true" : "false",
                kGeneratedRequiredSpeedup, generated_ok ? "true" : "false");
    if (quick)
        return 0;
    if (!speedup_ok) {
        std::fprintf(stderr,
                     "FATAL: fused end-to-end speedup %.3fx is below the "
                     "%.2fx gate\n",
                     speedup, kRequiredSpeedup);
        return 1;
    }
    if (!generated_ok) {
        std::fprintf(stderr,
                     "FATAL: fused generated-chain speedup %.3fx is below "
                     "the %.2fx gate\n",
                     generated, kGeneratedRequiredSpeedup);
        return 1;
    }
    return 0;
}
