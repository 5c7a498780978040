/**
 * @file
 * Per-level kernel entry points behind the dispatched fast ops. Internal:
 * include fast_ops.h instead. The AVX2/AVX-512 definitions live in
 * fast_ops_avx2.cc / fast_ops_avx512.cc, compiled with per-file ISA
 * flags; on non-x86 builds they are absent and dispatch never reaches
 * them (detectedSimdLevel() == kScalar).
 */
#ifndef PRESTO_OPS_FAST_OPS_INTERNAL_H_
#define PRESTO_OPS_FAST_OPS_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace presto::simd_detail {

// SigridHash + mod into dst (src may alias dst).
void hashIntoScalar(const int64_t* src, int64_t* dst, size_t n,
                    uint64_t seed, int64_t max_value);
void hashIntoAvx2(const int64_t* src, int64_t* dst, size_t n,
                  uint64_t seed, int64_t max_value);
void hashIntoAvx512(const int64_t* src, int64_t* dst, size_t n,
                    uint64_t seed, int64_t max_value);

// Log normalization: v -> fastLog1p(max(v, 0)).
void logAvx2(float* values, size_t n);
void logAvx512(float* values, size_t n);

// FillMissing: NaN -> fill.
void fillScalar(float* values, size_t n, float fill);
void fillAvx2(float* values, size_t n, float fill);
void fillAvx512(float* values, size_t n, float fill);

// Branchless halves-sequence bucketize (upper_bound semantics, NaN -> 0).
// bounds/num_bounds: sorted boundary array; halves/num_halves: the
// value-independent bisection step sizes precomputed by FastBucketizer.
void bucketizeScalar(const float* values, int64_t* out, size_t n,
                     const float* bounds, const int32_t* halves,
                     size_t num_halves);

}  // namespace presto::simd_detail

#endif  // PRESTO_OPS_FAST_OPS_INTERNAL_H_
