// AVX2 tier of the op-chain VM. Compiled with -mavx2 -ffp-contract=off;
// only reached behind the runtime CPU check in ops/simd.cc. Reuses the
// per-register bodies from fast_ops_avx2_inl.h, so a fused chain emits
// the exact same instruction sequence per value as the whole-column
// kernels — bit-identical to the unfused reference at every tile size.
//
// Per-op broadcast constants are hoisted into small stack arrays before
// the tile loop (bounded by kMaxFusedChainOps; longer chains never
// reach this tier). Values stream through one register across the whole
// chain: 8xf32 tiles for the float stage, 4xi64 lane groups for the
// hash stage.
#include <immintrin.h>

#include <cstdint>

#include "ops/fast_ops_avx2_inl.h"
#include "ops/fast_ops_internal.h"
#include "ops/opvm_internal.h"

namespace presto::opvm_detail {

namespace {

using simd_detail::Avx2HashConsts;

struct F32Consts {
    __m256 va[kMaxFusedChainOps];
    __m256 vb[kMaxFusedChainOps];
};

inline void
loadF32Consts(const OpInstr* ops, size_t nops, F32Consts& c)
{
    for (size_t k = 0; k < nops; ++k) {
        c.va[k] = _mm256_set1_ps(ops[k].a);
        c.vb[k] = _mm256_set1_ps(ops[k].b);
    }
}

inline __m256
chain8(__m256 x, const OpInstr* ops, size_t nops, const F32Consts& c)
{
    for (size_t k = 0; k < nops; ++k) {
        switch (ops[k].op) {
          case OpCode::kFill:
            x = simd_detail::fill8(x, c.va[k]);
            break;
          case OpCode::kLog:
            x = simd_detail::log8(x);
            break;
          case OpCode::kClamp:
            x = simd_detail::clamp8(x, c.va[k], c.vb[k]);
            break;
          default:
            break;
        }
    }
    return x;
}

struct HashConsts {
    Avx2HashConsts hc[kMaxFusedChainOps];
    bool one[kMaxFusedChainOps];  // max_value == 1: result is always 0
};

inline void
loadHashConsts(const OpInstr* ops, size_t nops, HashConsts& c)
{
    for (size_t k = 0; k < nops; ++k) {
        c.one[k] = ops[k].max_value == 1;
        if (!c.one[k]) {
            c.hc[k] = Avx2HashConsts::make(
                ops[k].seed, static_cast<uint64_t>(ops[k].max_value));
        }
    }
}

inline __m256i
hashChain4(__m256i h, size_t nops, const HashConsts& c)
{
    for (size_t k = 0; k < nops; ++k) {
        h = c.one[k] ? _mm256_setzero_si256()
                     : simd_detail::hashMod4(h, c.hc[k]);
    }
    return h;
}

}  // namespace

void
runDenseAvx2(const OpInstr* ops, size_t nops, const float* src, size_t n,
             float* dst, size_t stride)
{
    F32Consts c;
    loadF32Consts(ops, nops, c);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 x = chain8(_mm256_loadu_ps(src + i), ops, nops, c);
        alignas(32) float tmp[8];
        _mm256_store_ps(tmp, x);
        for (size_t r = 0; r < 8; ++r)
            dst[(i + r) * stride] = tmp[r];
    }
    for (; i < n; ++i)
        dst[i * stride] = applyF32Scalar(ops, nops, src[i]);
}

void
runSparseAvx2(const OpInstr* ops, size_t nops, const int64_t* src,
              size_t n, int64_t* dst)
{
    HashConsts c;
    loadHashConsts(ops, nops, c);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256i h = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(src + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                            hashChain4(h, nops, c));
    }
    for (; i < n; ++i)
        dst[i] = applyHashScalar(ops, nops, src[i]);
}

void
runGeneratedAvx2(const OpInstr* f32_ops, size_t nf32, const BucketTable& bt,
                 const OpInstr* hash_ops, size_t nhash, const float* src,
                 size_t n, int64_t* out)
{
    F32Consts fc;
    loadF32Consts(f32_ops, nf32, fc);
    HashConsts hc;
    loadHashConsts(hash_ops, nhash, hc);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 x = chain8(_mm256_loadu_ps(src + i), f32_ops, nf32, fc);
        __m256i b32 = simd_detail::bucketIds8(x, bt);
        __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(b32));
        __m256i hi =
            _mm256_cvtepi32_epi64(_mm256_extracti128_si256(b32, 1));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                            hashChain4(lo, nhash, hc));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4),
                            hashChain4(hi, nhash, hc));
    }
    for (; i < n; ++i) {
        const float v = applyF32Scalar(f32_ops, nf32, src[i]);
        out[i] = applyHashScalar(hash_ops, nhash,
                                 simd_detail::bucketIdScalar(v, bt));
    }
}

}  // namespace presto::opvm_detail
