#include "ops/fast_ops.h"

#include <algorithm>
#include <bit>
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
    const size_t n = bounds_.size();
    PRESTO_CHECK(n >= 1 && n < (size_t{1} << 30),
                 "boundary count out of range for a 32-bit table");
    PRESTO_CHECK(std::none_of(bounds_.begin(), bounds_.end(),
                              [](float b) { return std::isnan(b); }),
                 "bucket boundaries must not be NaN");
    // Keys are sorted with the bounds; offsets from key0 fit 32 bits
    // unsigned, since every non-NaN key lies in one 2^32 span.
    key0_ = simd_detail::bucketKey(bounds_.front());
    const auto offset = [&](size_t i) {
        return static_cast<uint32_t>(simd_detail::bucketKey(bounds_[i])) -
               static_cast<uint32_t>(key0_);
    };
    const uint32_t span = offset(n - 1);
    while ((span >> shift_) >= 2 * n)
        ++shift_;
    const uint32_t last_slot = span >> shift_;
    first_.resize(size_t{last_slot} + 2);
    size_t i = 0;
    int32_t widest = 0;
    for (uint32_t s = 0; s <= last_slot; ++s) {
        while (i < n && offset(i) < (s << shift_))
            ++i;
        first_[s] = static_cast<int32_t>(i);
        if (s > 0)
            widest = std::max(widest, first_[s] - first_[s - 1]);
    }
    first_[size_t{last_slot} + 1] = static_cast<int32_t>(n);
    widest = std::max(widest, static_cast<int32_t>(n) - first_[last_slot]);
    steps_ = std::bit_width(static_cast<uint32_t>(widest));
}

BucketTable
FastBucketizer::table() const
{
    PRESTO_CHECK(!bounds_.empty(), "an empty bucketizer has no table");
    return BucketTable{
        .bounds = bounds_.data(),
        .first = first_.data(),
        .lowest = bounds_.front(),
        .key0 = key0_,
        .shift = shift_,
        .last_slot = static_cast<uint32_t>(first_.size() - 2),
        .top_step = steps_ > 0 ? int32_t{1} << (steps_ - 1) : 0};
}

int64_t
FastBucketizer::searchBucketId(float value) const
{
    if (bounds_.empty())
        return 0;
    return simd_detail::bucketIdScalar(value, table());
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
    // Scalar on every level: only the unfused fallback runs this
    // whole-column form; the fused chains run bucketIds8/bucketIds16.
    const BucketTable t = table();
    for (size_t i = 0; i < values.size(); ++i)
        out[i] = simd_detail::bucketIdScalar(values[i], t);
}

}  // namespace presto
