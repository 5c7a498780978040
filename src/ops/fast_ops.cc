#include "ops/fast_ops.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "ops/fast_math.h"
#include "ops/fast_ops_internal.h"
#include "ops/hash.h"
#include "ops/simd.h"

namespace presto {

namespace simd_detail {

void
hashIntoScalar(const int64_t* src, int64_t* dst, size_t n, uint64_t seed,
               int64_t max_value)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = sigridHashMod(src[i], seed, max_value);
}

void
fillScalar(float* v, size_t n, float fill)
{
    for (size_t i = 0; i < n; ++i) {
        if (std::isnan(v[i]))
            v[i] = fill;
    }
}

void
bucketizeScalar(const float* values, int64_t* out, size_t n,
                const float* bounds, const int32_t* halves,
                size_t num_halves)
{
    for (size_t i = 0; i < n; ++i) {
        const float v = values[i];
        // NaN compares false with every boundary, so it lands in bucket
        // 0 without an explicit isnan branch.
        int32_t base = 0;
        for (size_t s = 0; s < num_halves; ++s) {
            const int32_t half = halves[s];
            if (bounds[base + half - 1] <= v)
                base += half;
        }
        if (bounds[base] <= v)
            base += 1;
        out[i] = base;
    }
}

}  // namespace simd_detail

void
sigridHashInto(std::span<const int64_t> src, std::span<int64_t> dst,
               uint64_t seed, int64_t max_value)
{
    PRESTO_CHECK(max_value > 0, "SigridHash max_value must be positive");
    PRESTO_CHECK(dst.size() == src.size(), "output size mismatch");
    if (max_value == 1) {
        // h % 1 == 0 for every input; the vector kernels assume d >= 2
        // (a d == 1 Barrett magic would overflow 64 bits).
        std::fill(dst.begin(), dst.end(), int64_t{0});
        return;
    }
    switch (activeSimdLevel()) {
#if defined(PRESTO_HAVE_X86_SIMD)
      case SimdLevel::kAvx512:
        simd_detail::hashIntoAvx512(src.data(), dst.data(), src.size(),
                                    seed, max_value);
        return;
      case SimdLevel::kAvx2:
        simd_detail::hashIntoAvx2(src.data(), dst.data(), src.size(),
                                  seed, max_value);
        return;
#endif
      default:
        simd_detail::hashIntoScalar(src.data(), dst.data(), src.size(),
                                    seed, max_value);
    }
}

void
sigridHashInPlaceFast(std::span<int64_t> values, uint64_t seed,
                      int64_t max_value)
{
    sigridHashInto(values, values, seed, max_value);
}

void
logTransformInPlaceFast(std::span<float> values)
{
    switch (activeSimdLevel()) {
#if defined(PRESTO_HAVE_X86_SIMD)
      case SimdLevel::kAvx512:
        simd_detail::logAvx512(values.data(), values.size());
        return;
      case SimdLevel::kAvx2:
        simd_detail::logAvx2(values.data(), values.size());
        return;
#endif
      default:
        fastLog1pArray(values.data(), values.size());
    }
}

void
fillMissingInPlaceFast(std::span<float> values, float fill_value)
{
    switch (activeSimdLevel()) {
#if defined(PRESTO_HAVE_X86_SIMD)
      case SimdLevel::kAvx512:
        simd_detail::fillAvx512(values.data(), values.size(), fill_value);
        return;
      case SimdLevel::kAvx2:
        simd_detail::fillAvx2(values.data(), values.size(), fill_value);
        return;
#endif
      default:
        simd_detail::fillScalar(values.data(), values.size(), fill_value);
    }
}

FastBucketizer::FastBucketizer(const BucketBoundaries& boundaries)
    : bounds_(boundaries.values().begin(), boundaries.values().end())
{
    PRESTO_CHECK(bounds_.size() < (size_t{1} << 30),
                 "boundary array too large for 32-bit bisection");
    // Value-independent bisection: every search takes the same step
    // sizes, only the base offset differs. sum(halves) == size - 1, so
    // the final base is a valid index for the +1 probe.
    size_t len = bounds_.size();
    while (len > 1) {
        const size_t half = len / 2;
        halves_.push_back(static_cast<int32_t>(half));
        len -= half;
    }
}

int64_t
FastBucketizer::searchBucketId(float value) const
{
    if (bounds_.empty())
        return 0;
    int64_t out = 0;
    simd_detail::bucketizeScalar(&value, &out, 1, bounds_.data(),
                                 halves_.data(), halves_.size());
    return out;
}

void
FastBucketizer::bucketizeInto(std::span<const float> values,
                              std::span<int64_t> out) const
{
    PRESTO_CHECK(out.size() == values.size(), "output size mismatch");
    if (bounds_.empty()) {
        std::fill(out.begin(), out.end(), int64_t{0});
        return;
    }
    // Scalar on every level: a whole-column AVX2 gather loop measured
    // no faster. The fused chains keep their per-register bucketize8.
    simd_detail::bucketizeScalar(values.data(), out.data(), values.size(),
                                 bounds_.data(), halves_.data(),
                                 halves_.size());
}

}  // namespace presto
