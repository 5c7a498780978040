/**
 * @file
 * Optimized CPU kernels for the bottleneck operators.
 *
 * The paper's diagnosis is that latency-optimized CPUs fail to exploit
 * the inter-/intra-feature parallelism of feature generation and
 * normalization. These kernels squeeze what a CPU *can* do — a
 * radix-indexed bucketize table and runtime-dispatched SIMD (scalar /
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
 * Operands of the radix-indexed Bucketize search (see FastBucketizer),
 * the one search every tier runs. The pointers borrow the bucketizer's
 * arrays.
 */
struct BucketTable {
    const float* bounds = nullptr;   ///< the n sorted boundaries
    const int32_t* first = nullptr;  ///< last_slot + 2 entries
    float lowest = 0.0f;             ///< b0: NaN and values below -> 0
    int32_t key0 = 0;                ///< bucketKey(b0)
    uint32_t shift = 0;              ///< slot = (key - key0) >> shift
    uint32_t last_slot = 0;          ///< slots past it clamp to it
    int32_t top_step = 0;            ///< first bisection step; 0: none
};

/**
 * Batch bucketizer over a radix-indexed boundary table, built once.
 *
 * A float maps to an order-preserving 32-bit key (-0 canonicalized to
 * +0, then the magnitude bits of negatives flipped: signed key order is
 * float order). The shift is chosen so the boundaries' key span covers
 * at most 2n slots, and first[s] counts the boundaries whose key lies
 * below the start of slot s. A lookup takes its slot from
 * (key - key0) >> shift in unsigned arithmetic, reads first[slot] and
 * first[slot + 1], and finishes with a fixed number of masked bisection
 * steps between them: ceil(log2(widest slot + 1)), 1-2 on log-spaced
 * tables. Bucket ids equal BucketBoundaries::searchBucketId
 * (upper_bound index, NaN -> 0) on every SIMD tier.
 */
class FastBucketizer
{
  public:
    FastBucketizer() = default;
    explicit FastBucketizer(const BucketBoundaries& boundaries);

    /** Bucket id of one value (== upper_bound index; NaN -> 0). */
    int64_t searchBucketId(float value) const;

    /** Batch form (out.size() must equal values.size()); scalar on
        every level, the fused chains run the vector forms. */
    void bucketizeInto(std::span<const float> values,
                       std::span<int64_t> out) const;

    size_t size() const { return bounds_.size(); }

    /** Masked bisection steps after the slot lookup:
        ceil(log2(widest slot + 1)). */
    int steps() const { return steps_; }

    /** The search operands (the fused op-chain VM's kBucketize). */
    BucketTable table() const;

  private:
    std::vector<float> bounds_;   ///< sorted boundary copy (owned)
    std::vector<int32_t> first_;  ///< boundaries below each slot start
    int32_t key0_ = 0;
    uint32_t shift_ = 0;
    int steps_ = 0;
};

}  // namespace presto

#endif  // PRESTO_OPS_FAST_OPS_H_
