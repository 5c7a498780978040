/**
 * @file
 * What the JSON benches record beside their timings: where the numbers
 * were taken (a "host" block) and the spread of a quantity over
 * repeated trials. Header-only; a bench that prints the host block is
 * built with PRESTO_BUILD_TYPE and PRESTO_CONFIGURED_COMMIT defined
 * (bench/CMakeLists.txt).
 */
#ifndef PRESTO_BENCH_BENCH_HOST_H_
#define PRESTO_BENCH_BENCH_HOST_H_

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "ops/simd.h"

namespace presto::bench {

/** Median, min and max of one timed quantity over the trials. */
struct Spread {
    double median = 0;
    double min = 0;
    double max = 0;
};

inline Spread
spreadOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    const double median =
        n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    return {median, v.front(), v.back()};
}

/** CPU brand string from CPUID, or "unknown". */
inline std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[sizeof(regs) + 1] = {};
        std::memcpy(brand, regs, sizeof(regs));
        std::string s = brand;
        s.erase(0, s.find_first_not_of(' '));
        s.erase(s.find_last_not_of(' ') + 1);
        return s;
    }
#endif
    return "unknown";
}

/** `"host": {...},` line: host, compiler, build, source. */
inline void
printHost()
{
    std::printf("  \"host\": {\"cpu\": \"%s\", \"cores\": %u, "
                "\"simd\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"configured_commit\": "
                "\"%s\"},\n",
                cpuModel().c_str(), std::thread::hardware_concurrency(),
                simdLevelName(detectedSimdLevel()),
#if defined(__clang__)
                "clang " __clang_version__,
#elif defined(__GNUC__)
                "g++ " __VERSION__,
#else
                "unknown",
#endif
                PRESTO_BUILD_TYPE, PRESTO_CONFIGURED_COMMIT);
}

}  // namespace presto::bench

#endif  // PRESTO_BENCH_BENCH_HOST_H_
