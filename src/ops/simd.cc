#include "ops/simd.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace presto {

namespace {

#if defined(PRESTO_HAVE_X86_SIMD)
SimdLevel
probeCpu()
{
    // The vector tiers also require BMI2 (pext in the varint decoder).
    // Every AVX2-capable core ships it, but the bits are independent in
    // CPUID, so check rather than assume.
    if (!__builtin_cpu_supports("bmi2"))
        return SimdLevel::kScalar;
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq")) {
        return SimdLevel::kAvx512;
    }
    if (__builtin_cpu_supports("avx2"))
        return SimdLevel::kAvx2;
    return SimdLevel::kScalar;
}
#else
SimdLevel
probeCpu()
{
    return SimdLevel::kScalar;
}
#endif

SimdLevel
applyEnvCap(SimdLevel level)
{
    const char* env = std::getenv("PRESTO_SIMD");
    if (env == nullptr)
        return level;
    SimdLevel cap = level;
    if (std::strcmp(env, "scalar") == 0)
        cap = SimdLevel::kScalar;
    else if (std::strcmp(env, "avx2") == 0)
        cap = SimdLevel::kAvx2;
    else if (std::strcmp(env, "avx512") == 0)
        cap = SimdLevel::kAvx512;
    return static_cast<int>(cap) < static_cast<int>(level) ? cap : level;
}

std::atomic<int>&
activeLevelStorage()
{
    static std::atomic<int> active{
        static_cast<int>(applyEnvCap(probeCpu()))};
    return active;
}

}  // namespace

SimdLevel
detectedSimdLevel()
{
    static const SimdLevel detected = applyEnvCap(probeCpu());
    return detected;
}

SimdLevel
activeSimdLevel()
{
    return static_cast<SimdLevel>(
        activeLevelStorage().load(std::memory_order_relaxed));
}

SimdLevel
setSimdLevel(SimdLevel level)
{
    const SimdLevel max = detectedSimdLevel();
    if (static_cast<int>(level) > static_cast<int>(max))
        level = max;
    if (static_cast<int>(level) < 0)
        level = SimdLevel::kScalar;
    activeLevelStorage().store(static_cast<int>(level),
                               std::memory_order_relaxed);
    return level;
}

bool
avx512ByteCompactionSupported()
{
#if defined(PRESTO_HAVE_X86_SIMD)
    static const bool supported = __builtin_cpu_supports("avx512bw") &&
                                  __builtin_cpu_supports("avx512vbmi") &&
                                  __builtin_cpu_supports("avx512vbmi2");
    return supported;
#else
    return false;
#endif
}

bool
avx512BwSupported()
{
#if defined(PRESTO_HAVE_X86_SIMD)
    static const bool supported = __builtin_cpu_supports("avx512bw");
    return supported;
#else
    return false;
#endif
}

const char*
simdLevelName(SimdLevel level)
{
    switch (level) {
      case SimdLevel::kScalar: return "scalar";
      case SimdLevel::kAvx2:   return "avx2";
      case SimdLevel::kAvx512: return "avx512";
    }
    return "?";
}

}  // namespace presto
