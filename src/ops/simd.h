/**
 * @file
 * Runtime SIMD dispatch for the Transform hot-path kernels.
 *
 * The best instruction-set level is detected once at startup; every
 * dispatched kernel (fast_ops.h) then routes through the active level.
 * All levels are bit-identical by construction and differentially tested,
 * so the level only changes speed, never results. Tests and benchmarks
 * pin levels explicitly via setSimdLevel(); the PRESTO_SIMD environment
 * variable (scalar|avx2|avx512) caps the level for ad-hoc comparisons.
 */
#ifndef PRESTO_OPS_SIMD_H_
#define PRESTO_OPS_SIMD_H_

namespace presto {

/** Instruction-set tiers of the dispatched kernels, best last. */
enum class SimdLevel : int {
    kScalar = 0,  ///< portable reference-speed fallback
    kAvx2 = 1,    ///< 256-bit integer/float kernels
    kAvx512 = 2,  ///< 512-bit kernels (needs AVX-512 F + DQ)
};

/** Best level this CPU supports (cached; honors PRESTO_SIMD cap). */
SimdLevel detectedSimdLevel();

/** Level the dispatched kernels currently use. */
SimdLevel activeSimdLevel();

/**
 * Pin the active level (clamped to detectedSimdLevel()).
 * @return the level actually installed.
 */
SimdLevel setSimdLevel(SimdLevel level);

/** Short lowercase name ("scalar", "avx2", "avx512"). */
const char* simdLevelName(SimdLevel level);

/**
 * True when the CPU also has the AVX-512 byte-compaction extensions
 * (BW + VBMI + VBMI2: vpermb/vpcompressb) used by the 64-byte varint
 * decode tier. Checked separately because kAvx512 itself requires only
 * F + DQ; on cores without these bits the varint decoder stays on the
 * AVX2 kernels.
 */
bool avx512ByteCompactionSupported();

/**
 * True when the CPU also has AVX-512 BW (byte-granular masks), used by
 * the bit-unpack tier's w-byte masked load. Checked separately for the
 * same reason; without it the unpack stays on the AVX2 kernel.
 */
bool avx512BwSupported();

}  // namespace presto

#endif  // PRESTO_OPS_SIMD_H_
