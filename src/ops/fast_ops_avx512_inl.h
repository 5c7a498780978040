#pragma once

// Per-register AVX-512 bodies shared by fast_ops_avx512.cc
// (whole-column kernels) and opvm_avx512.cc (fused op-chain VM).
// Include only from TUs compiled with -mavx512f -mavx512dq and
// -ffp-contract=off, for the same bit-identity reasons as
// fast_ops_avx2_inl.h.
#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "ops/fast_ops.h"
#include "ops/hash.h"

namespace presto::simd_detail {

constexpr int64_t kSmallDivisorMax = int64_t{1} << 25;

/** High 64 bits of the unsigned 128-bit product a*b. */
inline __m512i
mulhi64u512(__m512i a, __m512i b)
{
    const __m512i lo32 = _mm512_set1_epi64(0xffffffffLL);
    __m512i a_hi = _mm512_srli_epi64(a, 32);
    __m512i b_hi = _mm512_srli_epi64(b, 32);
    __m512i p0 = _mm512_mul_epu32(a, b);
    __m512i p1 = _mm512_mul_epu32(a, b_hi);
    __m512i p2 = _mm512_mul_epu32(a_hi, b);
    __m512i p3 = _mm512_mul_epu32(a_hi, b_hi);
    __m512i mid = _mm512_add_epi64(
        _mm512_add_epi64(_mm512_srli_epi64(p0, 32),
                         _mm512_and_si512(p1, lo32)),
        _mm512_and_si512(p2, lo32));
    return _mm512_add_epi64(
        _mm512_add_epi64(p3, _mm512_srli_epi64(p1, 32)),
        _mm512_add_epi64(_mm512_srli_epi64(p2, 32),
                         _mm512_srli_epi64(mid, 32)));
}

/** Hoisted broadcast constants for one (seed, max_value) hash op. */
struct Avx512HashConsts {
    bool small;  // d <= kSmallDivisorMax: reciprocal path, else Barrett
    __m512i vk1, vk2, vk3;
    __m512i vseed, vseedk;
    __m512i vd, vdm1;
    __m512i vc32;  // small only: 2^32 mod d
    __m512d rd;    // small only: 1.0 / d
    __m512i vm;    // Barrett only: floor(2^64 / d)

    /** Requires max_value >= 2 (d == 1 short-circuits upstream). */
    static Avx512HashConsts
    make(uint64_t seed, uint64_t ud)
    {
        Avx512HashConsts c;
        c.small = static_cast<int64_t>(ud) <= kSmallDivisorMax;
        c.vk1 = _mm512_set1_epi64(static_cast<long long>(kHashK1));
        c.vk2 = _mm512_set1_epi64(static_cast<long long>(kHashK2));
        c.vk3 = _mm512_set1_epi64(static_cast<long long>(kHashK3));
        c.vseed = _mm512_set1_epi64(static_cast<long long>(seed));
        c.vseedk =
            _mm512_set1_epi64(static_cast<long long>(seed * kHashK1));
        c.vd = _mm512_set1_epi64(static_cast<long long>(ud));
        c.vdm1 = _mm512_set1_epi64(static_cast<long long>(ud - 1));
        if (c.small) {
            const uint64_t c32 = (uint64_t{1} << 32) % ud;
            c.vc32 = _mm512_set1_epi64(static_cast<long long>(c32));
            c.rd = _mm512_set1_pd(1.0 / static_cast<double>(ud));
            c.vm = _mm512_setzero_si512();
        } else {
            const auto magic = static_cast<uint64_t>(
                (static_cast<__uint128_t>(1) << 64) / ud);
            c.vc32 = _mm512_setzero_si512();
            c.rd = _mm512_setzero_pd();
            c.vm = _mm512_set1_epi64(static_cast<long long>(magic));
        }
        return c;
    }
};

/** The seeded mix of sigridHash64, eight lanes at a time. */
inline __m512i
hash8(__m512i h, __m512i vseed, __m512i vseedk, __m512i vk1, __m512i vk2,
      __m512i vk3)
{
    h = _mm512_xor_si512(h, vseedk);
    h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 33));
    h = _mm512_mullo_epi64(h, vk1);
    h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 33));
    h = _mm512_mullo_epi64(h, vk2);
    h = _mm512_xor_si512(h, _mm512_srli_epi64(h, 33));
    h = _mm512_xor_si512(h, vseed);
    h = _mm512_mullo_epi64(h, vk3);
    return _mm512_xor_si512(h, _mm512_srli_epi64(h, 29));
}

/**
 * sigridHashMod for eight lanes. Two exact reduction strategies:
 *  - d <= 2^25: double-precision reciprocal modulo. The 64-bit hash is
 *    first folded twice with c32 = 2^32 mod d (u = hi*c32 + lo), which
 *    bounds u < d^2 + 2^32 < 2^53, exactly representable in a double.
 *    q = trunc(u * (1.0/d)) is then off by at most one in either
 *    direction, fixed with two masked corrections. All products fit:
 *    q < d + 2^32/d < 2^32, so mul_epu32(q, d) is exact.
 *  - d > 2^25: Barrett reduction via full 128-bit high multiply
 *    (magic = floor(2^64/d) <= 2^39 here, far from overflow).
 */
inline __m512i
hashMod8(__m512i h, const Avx512HashConsts& c)
{
    h = hash8(h, c.vseed, c.vseedk, c.vk1, c.vk2, c.vk3);
    if (c.small) {
        // Fold the high words down: u = hi(h)*c32 + lo(h), twice.
        // After two folds u < d*c32 + 2^32 <= d^2 + 2^32 < 2^53.
        __m512i u = _mm512_add_epi64(
            _mm512_mul_epu32(_mm512_srli_epi64(h, 32), c.vc32),
            _mm512_and_si512(h, _mm512_set1_epi64(0xffffffffLL)));
        u = _mm512_add_epi64(
            _mm512_mul_epu32(_mm512_srli_epi64(u, 32), c.vc32),
            _mm512_and_si512(u, _mm512_set1_epi64(0xffffffffLL)));
        __m512i q = _mm512_cvttpd_epu64(
            _mm512_mul_pd(_mm512_cvtepu64_pd(u), c.rd));
        __m512i r = _mm512_sub_epi64(u, _mm512_mul_epu32(q, c.vd));
        // q may be off by one either way: r in (-d, 2d).
        __mmask8 neg =
            _mm512_cmpgt_epi64_mask(_mm512_setzero_si512(), r);
        r = _mm512_mask_add_epi64(r, neg, r, c.vd);
        __mmask8 big = _mm512_cmpgt_epi64_mask(r, c.vdm1);
        return _mm512_mask_sub_epi64(r, big, r, c.vd);
    }
    __m512i q = mulhi64u512(h, c.vm);
    __m512i r = _mm512_sub_epi64(h, _mm512_mullo_epi64(q, c.vd));
    __mmask8 ge = _mm512_cmpgt_epu64_mask(r, c.vdm1);
    return _mm512_mask_sub_epi64(r, ge, r, c.vd);
}

/** fastLog1p(max(x, 0)) for sixteen lanes, bit-exact vs the scalar. */
inline __m512
log16(__m512 x0)
{
    const __m512 one = _mm512_set1_ps(1.0f);
    const __m512 zero = _mm512_setzero_ps();
    const __m512 half = _mm512_set1_ps(0.5f);
    const __m512 sqrthf = _mm512_set1_ps(0.707106781186547524f);
    const __m512i mmask = _mm512_set1_epi32(0x807fffff);
    const __m512i mbits = _mm512_set1_epi32(0x3f000000);
    const __m512i e126 = _mm512_set1_epi32(126);
    const __m512 inf = _mm512_set1_ps(INFINITY);
    __mmask16 ltz = _mm512_cmp_ps_mask(x0, zero, _CMP_LT_OQ);
    __m512 x = _mm512_mask_blend_ps(ltz, x0, zero);
    __m512 u = _mm512_add_ps(one, x);
    __m512i ui = _mm512_castps_si512(u);
    __m512i e = _mm512_sub_epi32(
        _mm512_and_si512(_mm512_srli_epi32(ui, 23),
                         _mm512_set1_epi32(0xff)),
        e126);
    __m512 m = _mm512_castsi512_ps(
        _mm512_or_si512(_mm512_and_si512(ui, mmask), mbits));
    __mmask16 lo = _mm512_cmp_ps_mask(m, sqrthf, _CMP_LT_OQ);
    e = _mm512_mask_sub_epi32(e, lo, e, _mm512_set1_epi32(1));
    m = _mm512_sub_ps(_mm512_mask_add_ps(m, lo, m, m), one);
    __m512 z = _mm512_mul_ps(m, m);
    __m512 y = _mm512_set1_ps(7.0376836292e-2f);
    auto step = [&](float c) {
        y = _mm512_add_ps(_mm512_mul_ps(y, m), _mm512_set1_ps(c));
    };
    step(-1.1514610310e-1f);
    step(1.1676998740e-1f);
    step(-1.2420140846e-1f);
    step(1.4249322787e-1f);
    step(-1.6668057665e-1f);
    step(2.0000714765e-1f);
    step(-2.4999993993e-1f);
    step(3.3333331174e-1f);
    y = _mm512_mul_ps(_mm512_mul_ps(y, m), z);
    __m512 fe = _mm512_cvtepi32_ps(e);
    y = _mm512_add_ps(
        y, _mm512_mul_ps(fe, _mm512_set1_ps(-2.12194440e-4f)));
    y = _mm512_sub_ps(y, _mm512_mul_ps(half, z));
    __m512 r = _mm512_add_ps(m, y);
    r = _mm512_add_ps(
        r, _mm512_mul_ps(fe, _mm512_set1_ps(0.693359375f)));
    __m512 res =
        _mm512_mul_ps(r, _mm512_div_ps(x, _mm512_sub_ps(u, one)));
    __mmask16 ueq1 = _mm512_cmp_ps_mask(u, one, _CMP_EQ_OQ);
    res = _mm512_mask_blend_ps(ueq1, res, x);
    __mmask16 nan = _mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q);
    __mmask16 isinf = _mm512_cmp_ps_mask(x, inf, _CMP_EQ_OQ);
    return _mm512_mask_blend_ps(
        static_cast<__mmask16>(nan | isinf), res, x);
}

/** FillMissing for sixteen lanes: NaN -> vf. */
inline __m512
fill16(__m512 x, __m512 vf)
{
    __mmask16 nan = _mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q);
    return _mm512_mask_blend_ps(nan, x, vf);
}

/** min(max(v, lo), hi), NaN passes through (see clamp8). */
inline __m512
clamp16(__m512 v, __m512 lo, __m512 hi)
{
    __m512 t = _mm512_mask_blend_ps(
        _mm512_cmp_ps_mask(v, lo, _CMP_LT_OQ), v, lo);
    return _mm512_mask_blend_ps(
        _mm512_cmp_ps_mask(hi, t, _CMP_LT_OQ), t, hi);
}

/** Bucket ids (epi32) for sixteen values: bucketIds8's search at
    sixteen lanes, masked gathers for the bisection probes. */
inline __m512i
bucketIds16(__m512 x, const BucketTable& t)
{
    const __m512i bits =
        _mm512_castps_si512(_mm512_add_ps(x, _mm512_setzero_ps()));
    const __m512i key = _mm512_xor_si512(
        bits, _mm512_and_si512(_mm512_srai_epi32(bits, 31),
                               _mm512_set1_epi32(0x7fffffff)));
    const __m512i d = _mm512_sub_epi32(key, _mm512_set1_epi32(t.key0));
    const __m512i slot = _mm512_min_epu32(
        _mm512_srl_epi32(d, _mm_cvtsi32_si128(static_cast<int>(t.shift))),
        _mm512_set1_epi32(static_cast<int>(t.last_slot)));
    __m512i base = _mm512_i32gather_epi32(slot, t.first, 4);
    const __m512i end = _mm512_i32gather_epi32(slot, t.first + 1, 4);
    const __m512 nan = _mm512_set1_ps(NAN);
    for (int32_t step = t.top_step; step > 0; step >>= 1) {
        const __m512i probe =
            _mm512_add_epi32(base, _mm512_set1_epi32(step - 1));
        const __mmask16 live = _mm512_cmpgt_epi32_mask(end, probe);
        const __m512 bv =
            _mm512_mask_i32gather_ps(nan, live, probe, t.bounds, 4);
        const __mmask16 le = _mm512_cmp_ps_mask(bv, x, _CMP_LE_OQ);
        base = _mm512_mask_add_epi32(base, le, base,
                                     _mm512_set1_epi32(step));
    }
    const __mmask16 in =
        _mm512_cmp_ps_mask(_mm512_set1_ps(t.lowest), x, _CMP_LE_OQ);
    return _mm512_maskz_mov_epi32(in, base);
}

}  // namespace presto::simd_detail
