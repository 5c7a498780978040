/**
 * @file
 * Per-tier execution entry points of the op-chain VM. The scalar tier
 * lives in opvm.cc; the AVX2/AVX-512 tiers live in opvm_avx2.cc /
 * opvm_avx512.cc, compiled with the matching per-file ISA flags (and
 * -ffp-contract=off) and reusing the per-register bodies from
 * fast_ops_avx2_inl.h / fast_ops_avx512_inl.h. Every tier applies the
 * same elementwise operation sequence, so all are bit-identical; the
 * vector tiers hand their sub-tile tails to the scalar appliers below.
 */
#ifndef PRESTO_OPS_OPVM_INTERNAL_H_
#define PRESTO_OPS_OPVM_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "ops/fast_math.h"
#include "ops/hash.h"
#include "ops/opvm.h"

namespace presto::opvm_detail {

/** One value through the f32 stage (reference semantics, see ops.h). */
inline float
applyF32Scalar(const OpInstr* ops, size_t nops, float v)
{
    for (size_t k = 0; k < nops; ++k) {
        switch (ops[k].op) {
          case OpCode::kFill:
            if (std::isnan(v))
                v = ops[k].a;
            break;
          case OpCode::kLog:
            v = fastLog1p(v < 0.0f ? 0.0f : v);
            break;
          case OpCode::kClamp:
            v = std::min(std::max(v, ops[k].a), ops[k].b);
            break;
          default:
            break;
        }
    }
    return v;
}

/** One id through the hash stage. */
inline int64_t
applyHashScalar(const OpInstr* ops, size_t nops, int64_t v)
{
    for (size_t k = 0; k < nops; ++k)
        v = sigridHashMod(v, ops[k].seed, ops[k].max_value);
    return v;
}

// --- Fused column executors, one per tier ---------------------------------
//
// runDenseT:     src[n] -> f32 chain -> dst[r * stride] (strided scatter
//                into the row-major dense matrix).
// runSparseT:    src[n] -> hash chain -> dst[n] (src may alias dst).
// runGeneratedT: src[n] -> f32 chain -> bucketize -> hash chain -> out[n].

void runDenseScalar(const OpInstr* ops, size_t nops, const float* src,
                    size_t n, float* dst, size_t stride);
void runSparseScalar(const OpInstr* ops, size_t nops, const int64_t* src,
                     size_t n, int64_t* dst);
void runGeneratedScalar(const OpInstr* f32_ops, size_t nf32,
                        const BucketTable& bt, const OpInstr* hash_ops,
                        size_t nhash, const float* src, size_t n,
                        int64_t* out);

/** runGeneratedT of the active SIMD tier. */
void runGenerated(const OpInstr* f32_ops, size_t nf32,
                  const BucketTable& bt, const OpInstr* hash_ops,
                  size_t nhash, const float* src, size_t n, int64_t* out);

#if defined(PRESTO_HAVE_X86_SIMD)
void runDenseAvx2(const OpInstr* ops, size_t nops, const float* src,
                  size_t n, float* dst, size_t stride);
void runSparseAvx2(const OpInstr* ops, size_t nops, const int64_t* src,
                   size_t n, int64_t* dst);
void runGeneratedAvx2(const OpInstr* f32_ops, size_t nf32,
                      const BucketTable& bt, const OpInstr* hash_ops,
                      size_t nhash, const float* src, size_t n,
                      int64_t* out);

void runDenseAvx512(const OpInstr* ops, size_t nops, const float* src,
                    size_t n, float* dst, size_t stride);
void runSparseAvx512(const OpInstr* ops, size_t nops, const int64_t* src,
                     size_t n, int64_t* dst);
void runGeneratedAvx512(const OpInstr* f32_ops, size_t nf32,
                        const BucketTable& bt, const OpInstr* hash_ops,
                        size_t nhash, const float* src, size_t n,
                        int64_t* out);
#endif  // PRESTO_HAVE_X86_SIMD

}  // namespace presto::opvm_detail

#endif  // PRESTO_OPS_OPVM_INTERNAL_H_
