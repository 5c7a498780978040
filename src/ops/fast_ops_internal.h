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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "ops/fast_ops.h"

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

/**
 * Order-preserving 32-bit key of a non-NaN float: -0 becomes +0 (x + 0
 * rounds it so), then the magnitude bits of negatives flip. Signed key
 * order is then float order, ties included.
 */
inline int32_t
bucketKey(float v)
{
    const float canonical = v + 0.0f;
    int32_t bits = 0;
    std::memcpy(&bits, &canonical, sizeof(bits));
    return bits ^ ((bits >> 31) & 0x7fffffff);
}

/** Bucket id of one value (upper_bound index, NaN -> 0); the vector
    tiers run this arithmetic lane-wise. */
inline int64_t
bucketIdScalar(float v, const BucketTable& t)
{
    // Unsigned difference: no key span wraps. Values below b0 wrap
    // high and clamp to the last slot; the final mask zeroes them.
    const uint32_t d =
        static_cast<uint32_t>(bucketKey(v)) - static_cast<uint32_t>(t.key0);
    const uint32_t slot = std::min(d >> t.shift, t.last_slot);
    int32_t base = t.first[slot];
    const int32_t end = t.first[slot + 1];
    for (int32_t step = t.top_step; step > 0; step >>= 1) {
        const int32_t probe = base + step - 1;
        if (probe < end && t.bounds[probe] <= v)
            base += step;
    }
    // NaN compares false: it lands in bucket 0 with values below b0.
    return t.lowest <= v ? base : 0;
}

}  // namespace presto::simd_detail

#endif  // PRESTO_OPS_FAST_OPS_INTERNAL_H_
