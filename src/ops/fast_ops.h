/**
 * @file
 * Optimized CPU kernels for the bottleneck operators.
 *
 * The paper's diagnosis is that latency-optimized CPUs fail to exploit
 * the inter-/intra-feature parallelism of feature generation and
 * normalization. These kernels squeeze what a CPU *can* do — a
 * branchless bucketize schedule and runtime-dispatched SIMD (scalar /
 * AVX2 / AVX-512, chosen once at startup by activeSimdLevel()) — and
 * are differentially tested against the reference implementations in
 * ops.h: every dispatch level returns bit-identical MiniBatch output.
 * `bench_hotpath` quantifies the (bounded) gains, motivating the move
 * to domain-specific hardware. See docs/PERF.md.
 */
#ifndef PRESTO_OPS_FAST_OPS_H_
#define PRESTO_OPS_FAST_OPS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "ops/ops.h"

namespace presto {

// --- Runtime-dispatched SIMD kernels (scalar / AVX2 / AVX-512) -------------
//
// Each entry point picks the widest implementation the CPU supports (see
// ops/simd.h; cap with PRESTO_SIMD=scalar|avx2|avx512). All levels are
// bit-identical to the reference ops in ops.h.

/** SigridHash + mod of @p src into @p dst (may alias; sizes must match). */
void sigridHashInto(std::span<const int64_t> src, std::span<int64_t> dst,
                    uint64_t seed, int64_t max_value);

/** In-place form of sigridHashInto; replaces sigridHashInPlace. */
void sigridHashInPlaceFast(std::span<int64_t> values, uint64_t seed,
                           int64_t max_value);

/** Vectorized v -> log1p(max(v, 0)); bit-identical to logTransformInPlace. */
void logTransformInPlaceFast(std::span<float> values);

/** Vectorized NaN -> fill; bit-identical to fillMissing's replacement. */
void fillMissingInPlaceFast(std::span<float> values, float fill_value);

/**
 * Batch bucketizer with a branchless, value-independent bisection
 * schedule ("halves" sequence): every value walks the same sequence of
 * step sizes, so the fused op-chain VM's vector form (bucketize8)
 * replaces the scalar upper_bound's data-dependent branches with
 * gathers + compares. Bucket ids are identical to
 * BucketBoundaries::searchBucketId (upper_bound index, NaN -> 0).
 */
class FastBucketizer
{
  public:
    FastBucketizer() = default;
    explicit FastBucketizer(const BucketBoundaries& boundaries);

    /** Bucket id of one value (== upper_bound index; NaN -> 0). */
    int64_t searchBucketId(float value) const;

    /** Batch form (out.size() must equal values.size()); scalar on
        every SIMD level, where a whole-column AVX2 loop measured flat. */
    void bucketizeInto(std::span<const float> values,
                       std::span<int64_t> out) const;

    size_t size() const { return bounds_.size(); }

    /** Raw boundary/bisection arrays (the fused op-chain VM's operands). */
    const std::vector<float>& bounds() const { return bounds_; }
    const std::vector<int32_t>& halves() const { return halves_; }

  private:
    std::vector<float> bounds_;    ///< sorted boundary copy (owned)
    std::vector<int32_t> halves_;  ///< bisection step sizes, largest first
};

}  // namespace presto

#endif  // PRESTO_OPS_FAST_OPS_H_
