// AVX-512 tier of the op-chain VM. Compiled with -mavx512f -mavx512dq
// -ffp-contract=off; only reached when the CPU reports avx512f +
// avx512dq. Float tiles and the bucketize bridge are 16 lanes wide, hash
// lane groups 8xi64; every lane runs the scalar tier's operation
// sequence, so the tier stays bit-identical to scalar and AVX2.
#include <immintrin.h>

#include <cstdint>

#include "ops/fast_ops_avx512_inl.h"
#include "ops/fast_ops_internal.h"
#include "ops/opvm_internal.h"

namespace presto::opvm_detail {

namespace {

using simd_detail::Avx512HashConsts;

struct F32Consts {
    __m512 va[kMaxFusedChainOps];
    __m512 vb[kMaxFusedChainOps];
};

inline void
loadF32Consts(const OpInstr* ops, size_t nops, F32Consts& c)
{
    for (size_t k = 0; k < nops; ++k) {
        c.va[k] = _mm512_set1_ps(ops[k].a);
        c.vb[k] = _mm512_set1_ps(ops[k].b);
    }
}

inline __m512
chain16(__m512 x, const OpInstr* ops, size_t nops, const F32Consts& c)
{
    for (size_t k = 0; k < nops; ++k) {
        switch (ops[k].op) {
          case OpCode::kFill:
            x = simd_detail::fill16(x, c.va[k]);
            break;
          case OpCode::kLog:
            x = simd_detail::log16(x);
            break;
          case OpCode::kClamp:
            x = simd_detail::clamp16(x, c.va[k], c.vb[k]);
            break;
          default:
            break;
        }
    }
    return x;
}

struct HashConsts {
    Avx512HashConsts hc[kMaxFusedChainOps];
    bool one[kMaxFusedChainOps];  // max_value == 1: result is always 0
};

inline void
loadHashConsts(const OpInstr* ops, size_t nops, HashConsts& c)
{
    for (size_t k = 0; k < nops; ++k) {
        c.one[k] = ops[k].max_value == 1;
        if (!c.one[k]) {
            c.hc[k] = Avx512HashConsts::make(
                ops[k].seed, static_cast<uint64_t>(ops[k].max_value));
        }
    }
}

inline __m512i
hashChain8(__m512i h, size_t nops, const HashConsts& c)
{
    for (size_t k = 0; k < nops; ++k) {
        h = c.one[k] ? _mm512_setzero_si512()
                     : simd_detail::hashMod8(h, c.hc[k]);
    }
    return h;
}

}  // namespace

void
runDenseAvx512(const OpInstr* ops, size_t nops, const float* src, size_t n,
               float* dst, size_t stride)
{
    F32Consts c;
    loadF32Consts(ops, nops, c);
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m512 x = chain16(_mm512_loadu_ps(src + i), ops, nops, c);
        alignas(64) float tmp[16];
        _mm512_store_ps(tmp, x);
        for (size_t r = 0; r < 16; ++r)
            dst[(i + r) * stride] = tmp[r];
    }
    for (; i < n; ++i)
        dst[i * stride] = applyF32Scalar(ops, nops, src[i]);
}

void
runSparseAvx512(const OpInstr* ops, size_t nops, const int64_t* src,
                size_t n, int64_t* dst)
{
    HashConsts c;
    loadHashConsts(ops, nops, c);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i h = _mm512_loadu_si512(src + i);
        _mm512_storeu_si512(dst + i, hashChain8(h, nops, c));
    }
    for (; i < n; ++i)
        dst[i] = applyHashScalar(ops, nops, src[i]);
}

void
runGeneratedAvx512(const OpInstr* f32_ops, size_t nf32,
                   const BucketTable& bt, const OpInstr* hash_ops,
                   size_t nhash, const float* src, size_t n, int64_t* out)
{
    F32Consts fc;
    loadF32Consts(f32_ops, nf32, fc);
    HashConsts hc;
    loadHashConsts(hash_ops, nhash, hc);
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m512 x = chain16(_mm512_loadu_ps(src + i), f32_ops, nf32, fc);
        const __m512i b32 = simd_detail::bucketIds16(x, bt);
        __m512i lo64 = _mm512_cvtepi32_epi64(_mm512_castsi512_si256(b32));
        __m512i hi64 =
            _mm512_cvtepi32_epi64(_mm512_extracti64x4_epi64(b32, 1));
        _mm512_storeu_si512(out + i, hashChain8(lo64, nhash, hc));
        _mm512_storeu_si512(out + i + 8, hashChain8(hi64, nhash, hc));
    }
    for (; i < n; ++i) {
        const float v = applyF32Scalar(f32_ops, nf32, src[i]);
        out[i] = applyHashScalar(hash_ops, nhash,
                                 simd_detail::bucketIdScalar(v, bt));
    }
}

}  // namespace presto::opvm_detail
