// AVX2 kernels of the dispatched fast ops. This file is compiled with
// -mavx2 (and -ffp-contract=off: the Log kernel mirrors the scalar
// fastLog1p operation sequence and must not gain FMAs). Only reached
// when __builtin_cpu_supports("avx2") at runtime.
//
// The per-register bodies live in fast_ops_avx2_inl.h so the fused
// op-chain VM (opvm_avx2.cc) executes the exact same instruction
// sequences; these whole-column wrappers just add the loop and the
// scalar tails (bucketIds8 has no wrapper: only the fused chains use
// it). Every kernel is bit-identical to its scalar counterpart:
//  - hashMod4 computes the exact 64-bit hash with decomposed 32-bit
//    multiplies and an exact Barrett reduction for the modulo;
//  - log8 replays fastLog1p's IEEE op sequence lane-wise;
//  - bucketIds8 runs bucketIdScalar's radix-indexed search lane-wise,
//    with gathers instead of scalar loads.
#include <immintrin.h>

#include <cmath>
#include <cstdint>

#include "ops/fast_math.h"
#include "ops/fast_ops_avx2_inl.h"
#include "ops/fast_ops_internal.h"
#include "ops/hash.h"

namespace presto::simd_detail {

void
hashIntoAvx2(const int64_t* src, int64_t* dst, size_t n, uint64_t seed,
             int64_t max_value)
{
    // Callers guarantee max_value >= 2 (d == 1 short-circuits upstream),
    // so magic = floor(2^64 / d) fits in 64 bits.
    const auto c =
        Avx2HashConsts::make(seed, static_cast<uint64_t>(max_value));
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i h = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            hashMod4(h, c));
    }
    for (; i < n; ++i)
        dst[i] = sigridHashMod(src[i], seed, max_value);
}

void
logAvx2(float* v, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(v + i, log8(_mm256_loadu_ps(v + i)));
    for (; i < n; ++i) {
        const float x = v[i] < 0.0f ? 0.0f : v[i];
        v[i] = fastLog1p(x);
    }
}

void
fillAvx2(float* v, size_t n, float fill)
{
    const __m256 vf = _mm256_set1_ps(fill);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(v + i, fill8(_mm256_loadu_ps(v + i), vf));
    for (; i < n; ++i) {
        if (std::isnan(v[i]))
            v[i] = fill;
    }
}

}  // namespace presto::simd_detail
