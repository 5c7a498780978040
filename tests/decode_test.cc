/**
 * @file
 * Differential, adversarial, and parallel-decode tests for the
 * vectorized Extract path: the dispatched SWAR/AVX2/AVX-512 decoders and the
 * hardware CRC32C must be bit-identical to their byte-wise references
 * on every input — including malformed ones, where both sides must make
 * the same accept/reject decision — and page-parallel stream decode
 * must reproduce serial decode exactly.
 */
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "columnar/columnar_file.h"
#include "columnar/encoding.h"
#include "columnar/page.h"
#include "common/crc32.h"
#include "common/thread_pool.h"
#include "core/isp_emulator.h"
#include "datagen/generator.h"
#include "ops/simd.h"

namespace presto {

/** gtest prints a SIMD tier parameter by name. */
void
PrintTo(SimdLevel level, std::ostream* os)
{
    *os << simdLevelName(level);
}

namespace {

/** Every dispatch level available on this machine, scalar first. */
std::vector<SimdLevel>
availableLevels()
{
    std::vector<SimdLevel> levels{SimdLevel::kScalar};
    if (detectedSimdLevel() >= SimdLevel::kAvx2)
        levels.push_back(SimdLevel::kAvx2);
    if (detectedSimdLevel() >= SimdLevel::kAvx512)
        levels.push_back(SimdLevel::kAvx512);
    return levels;
}

/** RAII restore of the active SIMD level. */
class ScopedSimdLevel
{
  public:
    explicit ScopedSimdLevel(SimdLevel level) : saved_(activeSimdLevel())
    {
        setSimdLevel(level);
    }
    ~ScopedSimdLevel() { setSimdLevel(saved_); }

  private:
    SimdLevel saved_;
};

const std::vector<Encoding> kIntEncodings{
    Encoding::kPlainI64,   Encoding::kVarint, Encoding::kDeltaVarint,
    Encoding::kRle,        Encoding::kDictionary,
    Encoding::kBitPacked};

enum class Shape {
    kUniform,
    kSmallRange,
    kZipfIds,
    kMonotone,
    kRuns,
    kFewDistinct,
    kExtremes,
};

const std::vector<Shape> kShapes{
    Shape::kUniform, Shape::kSmallRange, Shape::kZipfIds, Shape::kMonotone,
    Shape::kRuns,    Shape::kFewDistinct, Shape::kExtremes};

std::vector<int64_t>
makeValues(Shape shape, size_t n, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<int64_t> v(n);
    int64_t acc = -5000;
    for (size_t i = 0; i < n; ++i) {
        switch (shape) {
          case Shape::kUniform:
            v[i] = static_cast<int64_t>(rng());
            break;
          case Shape::kSmallRange:
            v[i] = static_cast<int64_t>(rng() % 200) - 100;
            break;
          case Shape::kZipfIds:
            // Crude Zipf-ish categorical ids: heavy head, long tail.
            v[i] = static_cast<int64_t>(
                (rng() % 4 != 0) ? rng() % 16
                                 : rng() % 1'000'000);
            break;
          case Shape::kMonotone:
            acc += static_cast<int64_t>(rng() % 37);
            v[i] = acc;
            break;
          case Shape::kRuns:
            v[i] = static_cast<int64_t>((i / 113) % 5) - 2;
            break;
          case Shape::kFewDistinct:
            v[i] = static_cast<int64_t>(rng() % 11) * 999'983;
            break;
          case Shape::kExtremes:
            switch (rng() % 4) {
              case 0:
                v[i] = std::numeric_limits<int64_t>::min();
                break;
              case 1:
                v[i] = std::numeric_limits<int64_t>::max();
                break;
              case 2: v[i] = 0; break;
              default: v[i] = static_cast<int64_t>(rng()); break;
            }
            break;
        }
    }
    return v;
}

std::vector<uint8_t>
encodeAs(Encoding encoding, std::span<const int64_t> values)
{
    switch (encoding) {
      case Encoding::kPlainI64: return enc::encodePlainI64(values);
      case Encoding::kVarint: return enc::encodeVarint(values);
      case Encoding::kDeltaVarint: return enc::encodeDeltaVarint(values);
      case Encoding::kRle: return enc::encodeRle(values);
      case Encoding::kDictionary: return enc::encodeDictionary(values);
      case Encoding::kBitPacked: return enc::encodeBitPacked(values);
      case Encoding::kPlainF32: break;
    }
    ADD_FAILURE() << "not an int encoding";
    return {};
}

/**
 * Decode @p payload with the reference decoder and with the dispatched
 * decoder at every available SIMD level; assert they agree on the
 * status code and (when accepting) on every output bit.
 */
void
expectReferenceAndFastAgree(Encoding encoding,
                            std::span<const uint8_t> payload, size_t count,
                            const std::string& what)
{
    std::vector<int64_t> want, ref_dict;
    const Status ref =
        enc::decodeI64Reference(encoding, payload, count, want, ref_dict);
    for (SimdLevel level : availableLevels()) {
        ScopedSimdLevel scoped(level);
        // Poison the output so "fast path left bytes untouched" cannot
        // pass by accident.
        std::vector<int64_t> got(count, int64_t{0x5a5a5a5a5a5a5a5a});
        std::vector<int64_t> dict;
        const Status fast = enc::decodeI64Into(encoding, payload, count,
                                               got.data(), dict);
        ASSERT_EQ(fast.code(), ref.code())
            << what << " level=" << simdLevelName(level)
            << " ref=" << ref.toString() << " fast=" << fast.toString();
        if (ref.ok()) {
            ASSERT_EQ(got, want)
                << what << " level=" << simdLevelName(level);
        }
    }
}

// --- encoder/decoder differential sweep -----------------------------------

TEST(DecodeDifferentialTest, AllEncodingsShapesAndSizesMatchReference)
{
    const std::vector<size_t> sizes{0,  1,   2,    7,    8,    9,
                                    31, 255, 256, 1000, 10000};
    for (Encoding encoding : kIntEncodings) {
        for (Shape shape : kShapes) {
            for (size_t n : sizes) {
                const auto values =
                    makeValues(shape, n, 77 * n + static_cast<int>(shape));
                const auto payload = encodeAs(encoding, values);
                // Every encoder's output must decode back to the input
                // through the reference path...
                std::vector<int64_t> out, dict;
                ASSERT_TRUE(enc::decodeI64Reference(encoding, payload, n,
                                                    out, dict)
                                .ok());
                ASSERT_EQ(out, values)
                    << encodingName(encoding) << " n=" << n;
                // ...and the dispatched kernels must agree bit for bit.
                expectReferenceAndFastAgree(
                    encoding, payload, n,
                    std::string(encodingName(encoding)) +
                        " n=" + std::to_string(n));
            }
        }
    }
}

TEST(DecodeDifferentialTest, FastDecodeToggleRoutesBothPaths)
{
    const auto values = makeValues(Shape::kZipfIds, 4096, 3);
    const auto payload = encodeAs(Encoding::kDictionary, values);
    std::vector<int64_t> fast_out, ref_out;
    ASSERT_TRUE(enc::fastDecodeEnabled());
    ASSERT_TRUE(enc::decodeI64(Encoding::kDictionary, payload,
                               values.size(), fast_out)
                    .ok());
    const bool was = enc::setFastDecodeEnabled(false);
    EXPECT_TRUE(was);
    EXPECT_FALSE(enc::fastDecodeEnabled());
    ASSERT_TRUE(enc::decodeI64(Encoding::kDictionary, payload,
                               values.size(), ref_out)
                    .ok());
    EXPECT_TRUE(enc::setFastDecodeEnabled(true) == false);
    EXPECT_EQ(fast_out, ref_out);
    EXPECT_EQ(fast_out, values);
}

TEST(DecodeDifferentialTest, VarintLengthPatternsStressWindowedKernels)
{
    // Deliberate encoded-length patterns aimed at the windowed varint
    // kernels (32-byte SWAR/AVX2 blocks, 64-byte AVX-512 groups): long
    // single-byte runs (the cont==0 fast path), uniform lengths that
    // tile or straddle the window, cyclic mixes, and sparse 9..10-byte
    // varints that force the validating fallback mid-window. Counts sit
    // just off multiples of the window sizes so the buffer-tail and
    // window-straddle resume paths both run.
    std::mt19937_64 rng(20240809);
    auto valueOfLen = [&rng](int len) {
        // Encoded length len <=> raw value in [2^(7(len-1)), 2^(7len)-1].
        const uint64_t lo = len == 1 ? 0ull : 1ull << (7 * (len - 1));
        const uint64_t hi = len == 10 ? ~0ull : (1ull << (7 * len)) - 1;
        return static_cast<int64_t>(lo + rng() % (hi - lo + 1));
    };
    struct Stream
    {
        std::string what;
        std::vector<int64_t> values;
    };
    std::vector<Stream> streams;
    for (int len = 1; len <= 10; ++len) {
        std::vector<int64_t> v(257);
        for (auto& x : v)
            x = valueOfLen(len);
        streams.push_back(
            {"uniform len=" + std::to_string(len), std::move(v)});
    }
    {
        std::vector<int64_t> v(1001);
        for (size_t i = 0; i < v.size(); ++i)
            v[i] = valueOfLen(static_cast<int>(i % 8) + 1);
        streams.push_back({"cycling len 1..8", std::move(v)});
    }
    {
        // Mostly single-byte with a rare wide varint: alternates the
        // wide kernels between the all-single-byte path and the grouped
        // (or overlong-fallback) path within one decode.
        std::vector<int64_t> v(1001);
        for (size_t i = 0; i < v.size(); ++i)
            v[i] = i % 97 == 0 ? valueOfLen(9) : valueOfLen(1);
        streams.push_back({"sparse overlong", std::move(v)});
    }
    {
        std::vector<int64_t> v(1001);
        for (auto& x : v)
            x = valueOfLen(static_cast<int>(rng() % 10) + 1);
        streams.push_back({"random len 1..10", std::move(v)});
    }
    for (const Stream& s : streams) {
        const auto payload = encodeAs(Encoding::kVarint, s.values);
        expectReferenceAndFastAgree(Encoding::kVarint, payload,
                                    s.values.size(), "varint " + s.what);
    }
}

// --- varint validation -----------------------------------------------------

TEST(VarintTest, RejectsOverlongAndOverflowingInput)
{
    auto decodeOne = [](std::vector<uint8_t> bytes, uint64_t* value) {
        size_t pos = 0;
        uint64_t v = 0;
        const Status st = enc::getVarint(bytes, pos, v);
        if (value != nullptr)
            *value = v;
        return st;
    };

    // 2^64 - 1: ten bytes, final byte 0x01 — the largest valid varint.
    uint64_t v = 0;
    std::vector<uint8_t> max_u64(9, 0xff);
    max_u64.push_back(0x01);
    ASSERT_TRUE(decodeOne(max_u64, &v).ok());
    EXPECT_EQ(v, std::numeric_limits<uint64_t>::max());

    // 2^63 exactly: bit 63 set via the tenth byte's low bit.
    std::vector<uint8_t> two63(9, 0x80);
    two63.push_back(0x01);
    ASSERT_TRUE(decodeOne(two63, &v).ok());
    EXPECT_EQ(v, uint64_t{1} << 63);

    // Tenth byte with any significant bit past 2^64 must be rejected,
    // not silently wrapped (these used to decode as truncated values).
    std::vector<uint8_t> overflow(9, 0x80);
    overflow.push_back(0x02);
    EXPECT_EQ(decodeOne(overflow, nullptr).code(),
              StatusCode::kCorruption);
    std::vector<uint8_t> overflow7f(9, 0x80);
    overflow7f.push_back(0x7f);
    EXPECT_EQ(decodeOne(overflow7f, nullptr).code(),
              StatusCode::kCorruption);

    // Eleventh byte (continuation bit never drops) must be rejected.
    EXPECT_EQ(decodeOne(std::vector<uint8_t>(11, 0x80), nullptr).code(),
              StatusCode::kCorruption);
    // A set-high-bit-forever stream must terminate with kCorruption.
    EXPECT_EQ(decodeOne(std::vector<uint8_t>(64, 0xff), nullptr).code(),
              StatusCode::kCorruption);
    // Truncation (continuation bit on the last available byte).
    EXPECT_EQ(decodeOne({0x80}, nullptr).code(), StatusCode::kCorruption);
    EXPECT_EQ(decodeOne({}, nullptr).code(), StatusCode::kCorruption);

    // The batch decoders must make the same rejections.
    for (const auto& bad :
         {overflow, overflow7f, std::vector<uint8_t>(11, 0x80),
          std::vector<uint8_t>{0x80}}) {
        expectReferenceAndFastAgree(Encoding::kVarint, bad, 1,
                                    "overlong varint");
    }
    expectReferenceAndFastAgree(Encoding::kVarint, max_u64, 1,
                                "max u64 varint");
}

TEST(VarintTest, NonCanonicalZeroPaddingStaysAccepted)
{
    // LEB128 allows redundant leading groups ({0x80, 0x00} == 0); the
    // on-disk format has always accepted them, so the fast path must
    // too — this pins the compatible behavior.
    std::vector<uint8_t> padded{0x80, 0x00, 0x81, 0x00};
    std::vector<int64_t> out, dict;
    ASSERT_TRUE(enc::decodeI64Reference(Encoding::kVarint, padded, 2, out,
                                        dict)
                    .ok());
    EXPECT_EQ(out, (std::vector<int64_t>{0, -1}));  // zigzag 0, 1
    expectReferenceAndFastAgree(Encoding::kVarint, padded, 2,
                                "non-canonical varint");
}

// --- bit-packed framing ----------------------------------------------------

/** Test-local LSB-first bit packer, independent of the production one. */
std::vector<uint8_t>
packBits(const std::vector<uint64_t>& vals, unsigned width)
{
    std::vector<uint8_t> out((vals.size() * width + 7) / 8, 0);
    for (size_t i = 0; i < vals.size(); ++i) {
        for (unsigned b = 0; b < width; ++b) {
            if ((vals[i] >> b) & 1) {
                const uint64_t bit = i * width + b;
                out[bit >> 3] |= static_cast<uint8_t>(1u << (bit & 7));
            }
        }
    }
    return out;
}

/** Build a mode-0 (frame-of-reference) kBitPacked payload by hand. */
std::vector<uint8_t>
makeDirectPayload(int64_t base, const std::vector<uint64_t>& deltas,
                  unsigned width)
{
    std::vector<uint8_t> payload{0};  // mode 0
    enc::putVarint(payload, enc::zigZag(base));
    payload.push_back(static_cast<uint8_t>(width));
    const auto packed = packBits(deltas, width);
    payload.insert(payload.end(), packed.begin(), packed.end());
    return payload;
}

/** Build a mode-1 (dictionary) kBitPacked payload by hand. */
std::vector<uint8_t>
makeDictPayload(const std::vector<int64_t>& dict,
                const std::vector<uint64_t>& indices, unsigned width)
{
    std::vector<uint8_t> payload{1};  // mode 1
    enc::putVarint(payload, dict.size());
    for (int64_t d : dict)
        enc::putVarint(payload, enc::zigZag(d));
    payload.push_back(static_cast<uint8_t>(width));
    const auto packed = packBits(indices, width);
    payload.insert(payload.end(), packed.begin(), packed.end());
    return payload;
}

/** Build a mode-2 (frame-of-reference over deltas) payload by hand. */
std::vector<uint8_t>
makeDeltaPayload(int64_t first, int64_t base,
                 const std::vector<uint64_t>& excesses, unsigned width)
{
    std::vector<uint8_t> payload{2};  // mode 2
    enc::putVarint(payload, enc::zigZag(first));
    enc::putVarint(payload, enc::zigZag(base));
    payload.push_back(static_cast<uint8_t>(width));
    const auto packed = packBits(excesses, width);
    payload.insert(payload.end(), packed.begin(), packed.end());
    return payload;
}

TEST(BitPackedTest, DirectModeDecodesEveryWidth)
{
    std::mt19937_64 rng(5);
    for (unsigned width = 0; width <= 64; ++width) {
        for (size_t n : {size_t{1}, size_t{3}, size_t{64}, size_t{777}}) {
            const uint64_t mask =
                width == 64 ? ~uint64_t{0}
                            : (uint64_t{1} << width) - 1;
            const int64_t base =
                static_cast<int64_t>(rng()) % 1'000'000;
            std::vector<uint64_t> deltas(n);
            std::vector<int64_t> expect(n);
            for (size_t i = 0; i < n; ++i) {
                deltas[i] = rng() & mask;
                // Wraparound add is the documented semantics.
                expect[i] = static_cast<int64_t>(
                    static_cast<uint64_t>(base) + deltas[i]);
            }
            const auto payload = makeDirectPayload(base, deltas, width);
            std::vector<int64_t> out, dict;
            ASSERT_TRUE(enc::decodeI64Reference(Encoding::kBitPacked,
                                                payload, n, out, dict)
                            .ok())
                << "width=" << width << " n=" << n;
            ASSERT_EQ(out, expect) << "width=" << width << " n=" << n;
            expectReferenceAndFastAgree(
                Encoding::kBitPacked, payload, n,
                "bitpacked direct width=" + std::to_string(width) +
                    " n=" + std::to_string(n));
        }
    }
}

TEST(BitPackedTest, DictModeDecodesHandCraftedPayloads)
{
    std::mt19937_64 rng(6);
    const std::vector<int64_t> dict{
        -1, 0, 999'983, std::numeric_limits<int64_t>::min(),
        std::numeric_limits<int64_t>::max()};
    for (unsigned width = 3; width <= 16; ++width) {
        const size_t n = 500;
        std::vector<uint64_t> indices(n);
        std::vector<int64_t> expect(n);
        for (size_t i = 0; i < n; ++i) {
            indices[i] = rng() % dict.size();
            expect[i] = dict[indices[i]];
        }
        const auto payload = makeDictPayload(dict, indices, width);
        std::vector<int64_t> out, scratch;
        ASSERT_TRUE(enc::decodeI64Reference(Encoding::kBitPacked, payload,
                                            n, out, scratch)
                        .ok());
        ASSERT_EQ(out, expect) << "width=" << width;
        expectReferenceAndFastAgree(Encoding::kBitPacked, payload, n,
                                    "bitpacked dict width=" +
                                        std::to_string(width));
    }
}

TEST(BitPackedTest, DeltaModeDecodesEveryWidth)
{
    std::mt19937_64 rng(8);
    for (unsigned width = 0; width <= 64; ++width) {
        for (size_t n : {size_t{1}, size_t{2}, size_t{64}, size_t{777}}) {
            const uint64_t mask =
                width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
            const auto first = static_cast<int64_t>(rng());
            const auto base = static_cast<int64_t>(rng()) % 1'000;
            std::vector<uint64_t> excesses(n - 1);
            std::vector<int64_t> expect(n);
            expect[0] = first;
            uint64_t prev = static_cast<uint64_t>(first);
            for (size_t i = 1; i < n; ++i) {
                excesses[i - 1] = rng() & mask;
                // Wraparound add is the documented semantics.
                prev += static_cast<uint64_t>(base) + excesses[i - 1];
                expect[i] = static_cast<int64_t>(prev);
            }
            const auto payload =
                makeDeltaPayload(first, base, excesses, width);
            std::vector<int64_t> out, dict;
            ASSERT_TRUE(enc::decodeI64Reference(Encoding::kBitPacked,
                                                payload, n, out, dict)
                            .ok())
                << "width=" << width << " n=" << n;
            ASSERT_EQ(out, expect) << "width=" << width << " n=" << n;
            expectReferenceAndFastAgree(
                Encoding::kBitPacked, payload, n,
                "bitpacked delta width=" + std::to_string(width) +
                    " n=" + std::to_string(n));
        }
    }
}

TEST(BitPackedTest, EncoderPicksDeltaModeForMonotoneOffsets)
{
    // A CSR offset array: monotone, deltas in [0, 37). kDeltaVarint
    // spends one byte per delta; mode-2 kBitPacked packs them into 6
    // bits plus a constant-size header.
    const auto offsets = makeValues(Shape::kMonotone, 4096, 9);
    EXPECT_EQ(enc::chooseIntEncoding(offsets), Encoding::kBitPacked);
    const auto payload = enc::encodeBitPacked(offsets);
    ASSERT_FALSE(payload.empty());
    EXPECT_EQ(payload[0], 2) << "expected frame-of-reference-over-deltas";
    EXPECT_LT(payload.size(), enc::encodeDeltaVarint(offsets).size());
    std::vector<int64_t> out, dict;
    ASSERT_TRUE(enc::decodeI64Reference(Encoding::kBitPacked, payload,
                                        offsets.size(), out, dict)
                    .ok());
    EXPECT_EQ(out, offsets);
    expectReferenceAndFastAgree(Encoding::kBitPacked, payload,
                                offsets.size(), "monotone offsets");

    // A constant-stride sequence packs into width 0: header only.
    std::vector<int64_t> strided(1000);
    for (size_t i = 0; i < strided.size(); ++i)
        strided[i] = 17 + static_cast<int64_t>(i) * 1024;
    const auto strided_payload = enc::encodeBitPacked(strided);
    ASSERT_FALSE(strided_payload.empty());
    EXPECT_EQ(strided_payload[0], 2);
    EXPECT_LT(strided_payload.size(), size_t{16});
    ASSERT_TRUE(enc::decodeI64Reference(Encoding::kBitPacked,
                                        strided_payload, strided.size(),
                                        out, dict)
                    .ok());
    EXPECT_EQ(out, strided);
    expectReferenceAndFastAgree(Encoding::kBitPacked, strided_payload,
                                strided.size(), "constant stride");
}

TEST(BitPackedTest, DeltaModeAdversarialPayloadsRejected)
{
    const auto good = makeDeltaPayload(10, -3, {1, 2, 3, 4, 5, 6}, 5);
    {
        std::vector<int64_t> out, dict;
        ASSERT_TRUE(enc::decodeI64Reference(Encoding::kBitPacked, good, 7,
                                            out, dict)
                        .ok());
    }

    std::vector<std::pair<std::string, std::vector<uint8_t>>> bad;
    // zigZag(10) and zigZag(-3) are single varint bytes, so the width
    // byte sits at index 3.
    auto mutated = [&](const std::string& name, auto&& fn) {
        std::vector<uint8_t> p = good;
        fn(p);
        bad.emplace_back(name, std::move(p));
    };
    mutated("width 65", [](auto& p) { p[3] = 65; });
    mutated("packed block too long", [](auto& p) { p.push_back(0); });
    mutated("packed block too short", [](auto& p) { p.pop_back(); });
    mutated("nonzero trailing bits", [](auto& p) { p.back() |= 0xc0; });
    bad.emplace_back("mode byte only", std::vector<uint8_t>{2});
    bad.emplace_back("truncated first varint",
                     std::vector<uint8_t>{2, 0x80});
    bad.emplace_back("truncated base varint",
                     std::vector<uint8_t>{2, 0x00, 0x80});
    bad.emplace_back("missing width byte",
                     std::vector<uint8_t>{2, 0x00, 0x00});

    for (const auto& [name, payload] : bad) {
        std::vector<int64_t> out, dict;
        EXPECT_EQ(enc::decodeI64Reference(Encoding::kBitPacked, payload, 7,
                                          out, dict)
                      .code(),
                  StatusCode::kCorruption)
            << name;
        expectReferenceAndFastAgree(Encoding::kBitPacked, payload, 7,
                                    name);
    }

    // count == 0 has no value[0] to anchor the prefix sum: reject even
    // a structurally plausible payload.
    const auto empty_ok_shape = makeDeltaPayload(0, 0, {}, 0);
    std::vector<int64_t> out, dict;
    EXPECT_EQ(enc::decodeI64Reference(Encoding::kBitPacked,
                                      empty_ok_shape, 0, out, dict)
                  .code(),
              StatusCode::kCorruption);
    expectReferenceAndFastAgree(Encoding::kBitPacked, empty_ok_shape, 0,
                                "mode 2 with count 0");
}

TEST(BitPackedTest, AdversarialPayloadsAreRejectedEverywhere)
{
    // Base 10 zigzags to a single varint byte, so the payload layout is
    // [mode][base][width][packed...] with width at index 2.
    const std::vector<uint64_t> deltas{1, 2, 3, 4, 5, 6, 7};
    const auto good = makeDirectPayload(10, deltas, 5);
    {
        std::vector<int64_t> out, dict;
        ASSERT_TRUE(enc::decodeI64Reference(Encoding::kBitPacked, good, 7,
                                            out, dict)
                        .ok());
    }

    std::vector<std::pair<std::string, std::vector<uint8_t>>> bad;
    auto mutated = [&](const std::string& name, auto&& fn) {
        std::vector<uint8_t> p = good;
        fn(p);
        bad.emplace_back(name, std::move(p));
    };
    mutated("mode 3", [](auto& p) { p[0] = 3; });
    mutated("mode 255", [](auto& p) { p[0] = 255; });
    mutated("width 65", [](auto& p) { p[2] = 65; });
    mutated("packed block too long",
            [](auto& p) { p.push_back(0); });
    mutated("packed block too short", [](auto& p) { p.pop_back(); });
    mutated("nonzero trailing bits", [](auto& p) { p.back() |= 0x80; });
    bad.emplace_back("empty payload", std::vector<uint8_t>{});
    bad.emplace_back("mode byte only", std::vector<uint8_t>{0});
    bad.emplace_back("truncated base varint",
                     std::vector<uint8_t>{0, 0x80});

    // Dictionary-mode violations: width 4 can express index 15 against
    // a 3-entry dictionary.
    bad.emplace_back(
        "dict index out of range",
        makeDictPayload({10, 20, 30}, {0, 1, 2, 15, 1, 0, 2}, 4));
    bad.emplace_back("dict truncated mid-entries",
                     std::vector<uint8_t>{1, 0x05, 0x02, 0x04});
    {
        // dict_size claims more entries than the payload could hold.
        std::vector<uint8_t> p{1};
        enc::putVarint(p, 1'000'000);
        bad.emplace_back("dict size exceeds payload", std::move(p));
    }

    for (const auto& [name, payload] : bad) {
        std::vector<int64_t> out, dict;
        EXPECT_EQ(enc::decodeI64Reference(Encoding::kBitPacked, payload, 7,
                                          out, dict)
                      .code(),
                  StatusCode::kCorruption)
            << name;
        expectReferenceAndFastAgree(Encoding::kBitPacked, payload, 7,
                                    name);
    }

    // A count the packed block cannot cover is also damage. (Count 8
    // would still fit: 8 x 5 bits fills the same 5 bytes exactly, which
    // the exact-length framing cannot distinguish — so probe with 9.)
    expectReferenceAndFastAgree(Encoding::kBitPacked, good, 9,
                                "count exceeds packed block");
    std::vector<int64_t> out, dict;
    EXPECT_EQ(enc::decodeI64Reference(Encoding::kBitPacked, good, 9, out,
                                      dict)
                  .code(),
              StatusCode::kCorruption);
}

// --- bit unpack flush against a guard page --------------------------------

/**
 * A writable region whose last byte sits flush against a PROT_NONE
 * page: a decoder that reads one byte past a payload placed there
 * faults.
 */
class GuardedRegion
{
  public:
    explicit GuardedRegion(size_t capacity)
        : page_(static_cast<size_t>(sysconf(_SC_PAGESIZE))),
          bytes_((capacity + page_ - 1) / page_ * page_)
    {
        void* base = mmap(nullptr, bytes_ + page_, PROT_READ | PROT_WRITE,
                          MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (base == MAP_FAILED)
            return;
        base_ = static_cast<uint8_t*>(base);
        if (mprotect(base_ + bytes_, page_, PROT_NONE) != 0) {
            munmap(base_, bytes_ + page_);
            base_ = nullptr;
        }
    }
    ~GuardedRegion()
    {
        if (base_ != nullptr)
            munmap(base_, bytes_ + page_);
    }
    GuardedRegion(const GuardedRegion&) = delete;
    GuardedRegion& operator=(const GuardedRegion&) = delete;

    bool ok() const { return base_ != nullptr; }

    /** Copy @p bytes so that they end at the guard page. */
    std::span<const uint8_t>
    place(const std::vector<uint8_t>& bytes)
    {
        uint8_t* at = base_ + bytes_ - bytes.size();
        if (!bytes.empty())
            std::memcpy(at, bytes.data(), bytes.size());
        return {at, bytes.size()};
    }

  private:
    size_t page_;
    size_t bytes_;
    uint8_t* base_ = nullptr;
};

class BitUnpackGuardPageTest : public ::testing::TestWithParam<SimdLevel>
{};

TEST_P(BitUnpackGuardPageTest, EveryWidthCountAndModeMatchesReference)
{
    const SimdLevel level = GetParam();
    if (level > detectedSimdLevel())
        GTEST_SKIP() << simdLevelName(level) << " tier absent on this CPU";
    if (level == SimdLevel::kAvx512 && !avx512BwSupported())
        GTEST_SKIP() << "avx512 unpack tier absent (no AVX-512 BW)";
    ScopedSimdLevel scoped(level);
    // Largest payload: 4097 values at 64 bits plus a short header.
    GuardedRegion region(4097 * 8 + 64);
    ASSERT_TRUE(region.ok()) << "mmap of the guarded region failed";

    const std::vector<int64_t> dict{-7, 0, 999'983,
                                    std::numeric_limits<int64_t>::min(),
                                    std::numeric_limits<int64_t>::max()};
    std::mt19937_64 rng(30);
    size_t checked = 0;
    const auto agree = [&](const std::vector<uint8_t>& payload, size_t n,
                           const std::string& what) {
        const std::span<const uint8_t> placed = region.place(payload);
        std::vector<int64_t> want, ref_dict;
        const Status ref = enc::decodeI64Reference(
            Encoding::kBitPacked, placed, n, want, ref_dict);
        std::vector<int64_t> got(n, int64_t{0x5a5a5a5a5a5a5a5a});
        std::vector<int64_t> scratch;
        const Status fast = enc::decodeI64Into(Encoding::kBitPacked, placed,
                                               n, got.data(), scratch);
        ++checked;
        ASSERT_EQ(fast.code(), ref.code())
            << what << " ref=" << ref.toString()
            << " fast=" << fast.toString();
        if (ref.ok()) {
            ASSERT_EQ(got, want) << what;
        }
    };
    for (unsigned width = 0; width <= 64; ++width) {
        const uint64_t mask =
            width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
        for (size_t n : {1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 4097}) {
            for (int mode = 0; mode <= 2; ++mode) {
                const size_t packed_count = mode == 2 ? n - 1 : n;
                std::vector<uint64_t> packed(packed_count);
                // Mode 1 indexes a 5-entry dictionary at every width.
                const uint64_t limit =
                    width >= 3 ? dict.size() : uint64_t{1} << width;
                for (uint64_t& v : packed)
                    v = mode == 1 ? rng() % limit : rng() & mask;
                const auto base = static_cast<int64_t>(rng());
                std::vector<uint8_t> payload =
                    mode == 0 ? makeDirectPayload(base, packed, width)
                    : mode == 1
                        ? makeDictPayload(dict, packed, width)
                        : makeDeltaPayload(static_cast<int64_t>(rng()),
                                           base, packed, width);
                const std::string what =
                    "mode=" + std::to_string(mode) +
                    " width=" + std::to_string(width) +
                    " n=" + std::to_string(n);
                agree(payload, n, what);
                const size_t packed_bits = packed_count * width;
                if (packed_bits == 0)
                    continue;
                // Malformed: the block one byte short, and (when the
                // last byte is partial) a set bit past the last value.
                std::vector<uint8_t> shorter = payload;
                shorter.pop_back();
                agree(shorter, n, what + " one byte short");
                if (packed_bits % 8 != 0) {
                    std::vector<uint8_t> trailing = payload;
                    trailing.back() |= 0x80;
                    agree(trailing, n, what + " nonzero trailing bits");
                }
                if (mode == 1 && limit == dict.size()) {
                    // An index past the dictionary, in the last value.
                    packed.back() = dict.size();
                    agree(makeDictPayload(dict, packed, width), n,
                          what + " index out of range");
                }
            }
        }
    }
    EXPECT_GT(checked, size_t{65 * 11 * 3});
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, BitUnpackGuardPageTest,
    ::testing::Values(SimdLevel::kScalar, SimdLevel::kAvx2,
                      SimdLevel::kAvx512),
    [](const ::testing::TestParamInfo<SimdLevel>& info) {
        return std::string(simdLevelName(info.param));
    });

// --- random differential fuzz ---------------------------------------------

TEST(DecodeFuzzTest, MutatedPayloadsKeepReferenceAndFastInAgreement)
{
    std::mt19937_64 rng(2024);
    int accepted = 0;
    for (int trial = 0; trial < 1500; ++trial) {
        const Encoding encoding =
            kIntEncodings[rng() % kIntEncodings.size()];
        const Shape shape = kShapes[rng() % kShapes.size()];
        const size_t n = rng() % 300;
        const auto values = makeValues(shape, n, rng());
        auto payload = encodeAs(encoding, values);

        // Half the trials mutate the payload: byte flips, truncation,
        // or appended garbage.
        if (trial % 2 == 1) {
            switch (rng() % 3) {
              case 0:
                if (!payload.empty())
                    payload[rng() % payload.size()] ^=
                        static_cast<uint8_t>(1u << (rng() % 8));
                break;
              case 1:
                payload.resize(payload.size() -
                               std::min(payload.size(), rng() % 4 + 1));
                break;
              default:
                payload.push_back(static_cast<uint8_t>(rng()));
                break;
            }
        }
        std::vector<int64_t> out, dict;
        if (enc::decodeI64Reference(encoding, payload, n, out, dict).ok())
            ++accepted;
        expectReferenceAndFastAgree(encoding, payload, n,
                                    "fuzz trial " + std::to_string(trial));
        if (HasFatalFailure())
            return;
    }
    // The unmutated half must all decode; sanity-check the fuzz isn't
    // vacuously rejecting everything.
    EXPECT_GT(accepted, 700);
}

TEST(DecodeFuzzTest, RandomGarbagePayloadsAgree)
{
    std::mt19937_64 rng(99);
    for (int trial = 0; trial < 1500; ++trial) {
        const Encoding encoding =
            kIntEncodings[rng() % kIntEncodings.size()];
        const size_t n = rng() % 200;
        std::vector<uint8_t> payload(rng() % 256);
        for (auto& b : payload)
            b = static_cast<uint8_t>(rng());
        expectReferenceAndFastAgree(encoding, payload, n,
                                    "garbage trial " +
                                        std::to_string(trial));
        if (HasFatalFailure())
            return;
    }
}

// --- LZ page codec ---------------------------------------------------------

enum class ByteShape {
    kZeros,
    kRuns,
    kCycle,
    kTextish,
    kRamp,
    kRandom,
};

const std::vector<ByteShape> kByteShapes{
    ByteShape::kZeros, ByteShape::kRuns,   ByteShape::kCycle,
    ByteShape::kTextish, ByteShape::kRamp, ByteShape::kRandom};

std::vector<uint8_t>
makeBytes(ByteShape shape, size_t n, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<uint8_t> v(n);
    for (size_t i = 0; i < n; ++i) {
        switch (shape) {
          case ByteShape::kZeros: v[i] = 0; break;
          case ByteShape::kRuns:
            v[i] = static_cast<uint8_t>((i / 97) % 7);
            break;
          case ByteShape::kCycle:
            v[i] = static_cast<uint8_t>(i % 23);
            break;
          case ByteShape::kTextish:
            v[i] = static_cast<uint8_t>(
                "the quick brown fox "[rng() % 20]);
            break;
          case ByteShape::kRamp:
            v[i] = static_cast<uint8_t>(i >> 3);
            break;
          case ByteShape::kRandom:
            v[i] = static_cast<uint8_t>(rng());
            break;
        }
    }
    return v;
}

TEST(LzCodecTest, RoundTripAcrossShapesAndSizes)
{
    const std::vector<size_t> sizes{0,   1,    2,    3,     4,    5,
                                    15,  16,   17,   255,   256,  257,
                                    999, 4096, 65535, 70000, 262144};
    for (ByteShape shape : kByteShapes) {
        for (size_t n : sizes) {
            const auto raw = makeBytes(shape, n, n * 31 + 7);
            const auto packed = enc::lzCompress(raw);
            std::vector<uint8_t> back(raw.size());
            ASSERT_TRUE(enc::lzDecompress(packed, back).ok())
                << "shape=" << static_cast<int>(shape) << " n=" << n;
            ASSERT_EQ(back, raw)
                << "shape=" << static_cast<int>(shape) << " n=" << n;
        }
    }
}

TEST(LzCodecTest, CompressibleInputShrinksRandomInputBounded)
{
    const auto runs = makeBytes(ByteShape::kRuns, 65536, 1);
    EXPECT_LT(enc::lzCompress(runs).size(), runs.size() / 4);

    // High-entropy input may expand, but only by the literal-run
    // bookkeeping: ~1 byte per 255 literals plus a small constant.
    const auto random = makeBytes(ByteShape::kRandom, 65536, 2);
    EXPECT_LE(enc::lzCompress(random).size(),
              random.size() + random.size() / 255 + 16);
}

TEST(LzCodecTest, TruncatedStreamsRejectedOrStillExact)
{
    // Every proper prefix must either be rejected as corruption or —
    // when the cut lands on a sequence boundary after the output is
    // already complete (e.g. dropping a trailing empty-literals token)
    // — still reproduce the raw bytes exactly. It must never succeed
    // with different output.
    for (ByteShape shape :
         {ByteShape::kRuns, ByteShape::kTextish, ByteShape::kRandom}) {
        const auto raw = makeBytes(shape, 5000, 11);
        const auto packed = enc::lzCompress(raw);
        for (size_t keep = 0; keep < packed.size(); ++keep) {
            std::vector<uint8_t> out(raw.size(), 0xee);
            const Status st = enc::lzDecompress(
                std::span<const uint8_t>(packed.data(), keep), out);
            if (st.ok()) {
                ASSERT_EQ(out, raw)
                    << "prefix of " << keep
                    << " bytes accepted with wrong content";
            } else {
                ASSERT_EQ(st.code(), StatusCode::kCorruption);
            }
        }
    }
}

TEST(LzCodecTest, MutatedStreamsNeverCrashOrProduceWrongSize)
{
    std::mt19937_64 rng(4242);
    for (int trial = 0; trial < 2000; ++trial) {
        const ByteShape shape = kByteShapes[rng() % kByteShapes.size()];
        const auto raw = makeBytes(shape, rng() % 3000, rng());
        auto packed = enc::lzCompress(raw);
        switch (rng() % 3) {
          case 0:
            if (!packed.empty())
                packed[rng() % packed.size()] ^=
                    static_cast<uint8_t>(1u << (rng() % 8));
            break;
          case 1:
            packed.resize(packed.size() -
                          std::min(packed.size(), rng() % 8 + 1));
            break;
          default:
            packed.push_back(static_cast<uint8_t>(rng()));
            break;
        }
        // Exact-size output buffer: ASan/UBSan turn any out-of-bounds
        // write into a failure. A mutated stream may still decompress
        // (the page CRC is what rejects it in a real frame); it must
        // just never crash or mis-size.
        std::vector<uint8_t> out(raw.size());
        (void)enc::lzDecompress(packed, out);
    }
}

TEST(LzCodecTest, RandomGarbageNeverCrashes)
{
    std::mt19937_64 rng(271828);
    for (int trial = 0; trial < 2000; ++trial) {
        std::vector<uint8_t> garbage(rng() % 512);
        for (auto& b : garbage)
            b = static_cast<uint8_t>(rng());
        std::vector<uint8_t> out(rng() % 1024);
        (void)enc::lzDecompress(garbage, out);
    }
}

// --- compressed page frames ------------------------------------------------

void
appendU32Le(std::vector<uint8_t>& out, uint32_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v >> 16));
    out.push_back(static_cast<uint8_t>(v >> 24));
}

/**
 * Hand-build a compressed page frame with an arbitrary (possibly
 * invalid) header but a *correct* CRC, so a rejection can only come
 * from the parser's structural checks — not from the checksum.
 */
std::vector<uint8_t>
buildFrameWithValidCrc(uint8_t enc_byte, uint32_t value_count,
                       uint32_t payload_size, uint8_t codec_byte,
                       uint32_t raw_size, std::span<const uint8_t> stored)
{
    std::vector<uint8_t> out;
    out.push_back(enc_byte);
    appendU32Le(out, value_count);
    appendU32Le(out, payload_size);
    out.push_back(codec_byte);
    appendU32Le(out, raw_size);
    out.insert(out.end(), stored.begin(), stored.end());
    appendU32Le(out, crc32c(out.data(), out.size()));
    return out;
}

TEST(PageCodecTest, CompressedFramesRoundTripAllEncodings)
{
    for (Encoding encoding : kIntEncodings) {
        for (Shape shape : kShapes) {
            const auto values = makeValues(shape, 2048, 77);
            const auto payload = encodeAs(encoding, values);
            std::vector<uint8_t> frame;
            const PageCodec stored_as =
                writePageFrame(frame, encoding, 2048, payload,
                               PageCodec::kLz);

            size_t pos = 0;
            PageView page;
            ASSERT_TRUE(readPageFrame(frame, pos, page).ok());
            EXPECT_EQ(pos, frame.size());
            EXPECT_EQ(page.codec, stored_as);
            EXPECT_EQ(page.encoding, encoding);
            EXPECT_EQ(page.raw_size, payload.size());

            std::vector<uint8_t> scratch;
            std::span<const uint8_t> raw;
            ASSERT_TRUE(pagePayload(page, scratch, raw).ok());
            ASSERT_EQ(raw.size(), payload.size());
            EXPECT_TRUE(std::equal(raw.begin(), raw.end(),
                                   payload.begin()))
                << encodingName(encoding) << " shape "
                << static_cast<int>(shape);
        }
    }
}

TEST(PageCodecTest, IncompressiblePageStoredBitIdenticalToUncompressed)
{
    // Hashed-id style payloads do not shrink; the writer must fall back
    // to the exact uncompressed frame bytes, keeping old readers'
    // expectations (and old files) valid.
    const auto values = makeValues(Shape::kUniform, 4096, 5);
    const auto payload = enc::encodeVarint(values);

    std::vector<uint8_t> with_codec;
    const PageCodec stored_as = writePageFrame(
        with_codec, Encoding::kVarint, 4096, payload, PageCodec::kLz);
    std::vector<uint8_t> plain;
    writePageFrame(plain, Encoding::kVarint, 4096, payload);

    EXPECT_EQ(stored_as, PageCodec::kNone);
    EXPECT_EQ(with_codec, plain);
}

TEST(PageCodecTest, BitPackedInteractsWithCodecBySize)
{
    // A cyclic pattern bit-packs *and* still has byte-level repetition
    // left for the codec; random small-range data bit-packs to
    // near-incompressible bits and must stay uncompressed.
    std::vector<int64_t> cyclic(8192), random_small(8192);
    std::mt19937_64 rng(17);
    for (size_t i = 0; i < cyclic.size(); ++i) {
        cyclic[i] = static_cast<int64_t>(i % 16);
        random_small[i] = static_cast<int64_t>(rng() % 256);
    }

    std::vector<uint8_t> frame;
    EXPECT_EQ(writePageFrame(frame, Encoding::kBitPacked,
                             static_cast<uint32_t>(cyclic.size()),
                             enc::encodeBitPacked(cyclic), PageCodec::kLz),
              PageCodec::kLz);
    frame.clear();
    EXPECT_EQ(writePageFrame(frame, Encoding::kBitPacked,
                             static_cast<uint32_t>(random_small.size()),
                             enc::encodeBitPacked(random_small),
                             PageCodec::kLz),
              PageCodec::kNone);
}

TEST(PageCodecTest, TruncatedCompressedFramesRejected)
{
    const auto values = makeValues(Shape::kRuns, 4096, 3);
    const auto payload = enc::encodePlainI64(values);
    std::vector<uint8_t> frame;
    ASSERT_EQ(writePageFrame(frame, Encoding::kPlainI64, 4096, payload,
                             PageCodec::kLz),
              PageCodec::kLz);
    for (size_t keep = 0; keep < frame.size(); ++keep) {
        std::span<const uint8_t> prefix(frame.data(), keep);
        size_t pos = 0;
        PageView page;
        EXPECT_EQ(readPageFrame(prefix, pos, page).code(),
                  StatusCode::kCorruption)
            << "prefix of " << keep << " bytes accepted";
    }
}

TEST(PageCodecTest, MalformedCodecHeadersRejectedDespiteValidCrc)
{
    const auto raw = makeBytes(ByteShape::kRuns, 1024, 9);
    const auto packed = enc::lzCompress(raw);
    ASSERT_LT(packed.size() + kCompressedPageExtraBytes, raw.size());
    const uint8_t enc_lz =
        static_cast<uint8_t>(Encoding::kPlainI64) | kPageCompressedFlag;
    const auto n = static_cast<uint32_t>(raw.size() / 8);
    const auto psize = static_cast<uint32_t>(packed.size());
    const auto rsize = static_cast<uint32_t>(raw.size());

    struct Case {
        const char* what;
        std::vector<uint8_t> frame;
    };
    const Case cases[] = {
        {"compression flag with codec byte kNone",
         buildFrameWithValidCrc(enc_lz, n, psize, 0, rsize, packed)},
        {"unknown codec byte",
         buildFrameWithValidCrc(enc_lz, n, psize, 9, rsize, packed)},
        {"raw size above kMaxPageRawBytes",
         buildFrameWithValidCrc(enc_lz, n, psize, 1,
                                static_cast<uint32_t>(kMaxPageRawBytes + 1),
                                packed)},
        {"stored payload not smaller than raw (overlong frame)",
         buildFrameWithValidCrc(enc_lz, n, psize, 1, psize, packed)},
        {"raw size of zero with stored bytes",
         buildFrameWithValidCrc(enc_lz, n, psize, 1, 0, packed)},
    };
    for (const auto& c : cases) {
        size_t pos = 0;
        PageView page;
        EXPECT_EQ(readPageFrame(c.frame, pos, page).code(),
                  StatusCode::kCorruption)
            << c.what;
    }

    // Control: the same builder with a consistent header parses fine,
    // proving the rejections above come from the header checks.
    auto good = buildFrameWithValidCrc(enc_lz, n, psize, 1, rsize, packed);
    size_t pos = 0;
    PageView page;
    ASSERT_TRUE(readPageFrame(good, pos, page).ok());
    std::vector<uint8_t> scratch;
    std::span<const uint8_t> got;
    ASSERT_TRUE(pagePayload(page, scratch, got).ok());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), raw.begin()));
}

// --- CRC32C ----------------------------------------------------------------

TEST(Crc32cTest, KnownVectorAndEmptyInput)
{
    const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    EXPECT_EQ(crc32c(digits, sizeof(digits)), 0xE3069283u);
    EXPECT_EQ(crc32cTable(digits, sizeof(digits)), 0xE3069283u);
    EXPECT_EQ(crc32c(nullptr, 0), 0u);
    EXPECT_EQ(crc32cTable(nullptr, 0), 0u);
}

TEST(Crc32cTest, HardwareMatchesTableOnAllSizesOffsetsAndSeeds)
{
    if (!crc32cHardwareAvailable())
        GTEST_SKIP() << "no SSE4.2 CRC32 on this machine";
    // Sizes straddle the 3-way interleave block boundaries (3x4096 and
    // 3x256) plus alignment heads/tails.
    const std::vector<size_t> sizes{0,    1,     7,     8,    9,    63,
                                    255,  256,   767,   768,  4095, 4096,
                                    8191, 12288, 12289, 50000};
    std::mt19937_64 rng(31);
    std::vector<uint8_t> buf(50000 + 8);
    for (auto& b : buf)
        b = static_cast<uint8_t>(rng());
    for (size_t size : sizes) {
        for (size_t offset : {size_t{0}, size_t{1}, size_t{3}, size_t{7}}) {
            for (uint32_t seed : {0u, 0xdeadbeefu}) {
                EXPECT_EQ(crc32c(buf.data() + offset, size, seed),
                          crc32cTable(buf.data() + offset, size, seed))
                    << "size=" << size << " offset=" << offset
                    << " seed=" << seed;
            }
        }
    }
}

TEST(Crc32cTest, ChainingMatchesOneShot)
{
    std::mt19937_64 rng(32);
    std::vector<uint8_t> buf(30000);
    for (auto& b : buf)
        b = static_cast<uint8_t>(rng());
    const uint32_t whole = crc32c(buf.data(), buf.size());
    for (size_t split : {size_t{0}, size_t{1}, size_t{4096},
                         size_t{12289}, buf.size()}) {
        const uint32_t head = crc32c(buf.data(), split);
        EXPECT_EQ(crc32c(buf.data() + split, buf.size() - split, head),
                  whole)
            << "split=" << split;
        const uint32_t thead = crc32cTable(buf.data(), split);
        EXPECT_EQ(
            crc32cTable(buf.data() + split, buf.size() - split, thead),
            whole)
            << "split=" << split;
    }
}

TEST(Crc32cTest, HardwareToggleIsObservableAndBitIdentical)
{
    if (!crc32cHardwareAvailable())
        GTEST_SKIP() << "no SSE4.2 CRC32 on this machine";
    std::vector<uint8_t> buf(9999, 0xab);
    const bool was = setCrc32cHardwareEnabled(false);
    EXPECT_FALSE(crc32cHardwareActive());
    const uint32_t via_table = crc32c(buf.data(), buf.size());
    setCrc32cHardwareEnabled(true);
    EXPECT_TRUE(crc32cHardwareActive());
    const uint32_t via_hw = crc32c(buf.data(), buf.size());
    setCrc32cHardwareEnabled(was);
    EXPECT_EQ(via_table, via_hw);
}

// --- page-parallel stream decode -------------------------------------------

/** A batch big enough that dense and sparse streams span many pages. */
RowBatch
multiPageBatch(size_t rows)
{
    Schema schema;
    schema.add({"label", FeatureKind::kDense});
    schema.add({"dense0", FeatureKind::kDense});
    schema.add({"ids0", FeatureKind::kSparse});
    RowBatch batch(schema);
    std::mt19937_64 rng(8);
    std::vector<float> labels(rows), dense(rows);
    for (size_t i = 0; i < rows; ++i) {
        labels[i] = static_cast<float>(rng() % 2);
        dense[i] = static_cast<float>(rng() % 1000) * 0.25f;
    }
    std::vector<int64_t> ids;
    std::vector<uint32_t> offsets{0};
    for (size_t i = 0; i < rows; ++i) {
        const size_t k = rng() % 5;
        for (size_t j = 0; j < k; ++j)
            ids.push_back(static_cast<int64_t>(rng() % 100'000));
        offsets.push_back(static_cast<uint32_t>(ids.size()));
    }
    batch.addColumn(DenseColumn(std::move(labels)));
    batch.addColumn(DenseColumn(std::move(dense)));
    batch.addColumn(SparseColumn(std::move(ids), std::move(offsets)));
    return batch;
}

TEST(PageParallelTest, MatchesSerialDecodeBitForBit)
{
    const size_t rows = 3 * kMaxValuesPerPage / 2 + 123;  // 2-3 pages
    const RowBatch batch = multiPageBatch(rows);
    const auto encoded = ColumnarFileWriter().write(batch, 0);

    ColumnarFileReader serial;
    ASSERT_TRUE(serial.open(encoded).ok());
    auto want = serial.readAll();
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(*want, batch);

    ThreadPool pool(4);
    for (int threads_shared = 0; threads_shared < 2; ++threads_shared) {
        ColumnarFileReader parallel;
        parallel.setThreadPool(&pool);
        ASSERT_TRUE(parallel.open(encoded).ok());
        RowBatch got;
        ASSERT_TRUE(parallel.readAllInto(got).ok());
        EXPECT_EQ(got, *want);
        EXPECT_EQ(parallel.bytesTouched(), serial.bytesTouched());
        // Second pass reuses the same reader's buffers.
        RowBatch again;
        ASSERT_TRUE(parallel.readAllInto(again).ok());
        EXPECT_EQ(again, *want);
    }

    // The reference-decode hook applies to the parallel path too.
    enc::setFastDecodeEnabled(false);
    ColumnarFileReader ref_parallel;
    ref_parallel.setThreadPool(&pool);
    ASSERT_TRUE(ref_parallel.open(encoded).ok());
    auto ref_got = ref_parallel.readAll();
    enc::setFastDecodeEnabled(true);
    ASSERT_TRUE(ref_got.ok());
    EXPECT_EQ(*ref_got, *want);
}

TEST(PageParallelTest, CorruptPagesSurfaceAsCorruption)
{
    const size_t rows = 2 * kMaxValuesPerPage + 7;
    const RowBatch batch = multiPageBatch(rows);
    const auto encoded = ColumnarFileWriter().write(batch, 0);

    ThreadPool pool(4);
    std::mt19937_64 rng(12);
    ColumnarFileReader reader;
    reader.setThreadPool(&pool);
    ASSERT_TRUE(reader.open(encoded).ok());
    // Flip bits inside page data of every column (footer damage is
    // caught by open(), so target the page region only).
    for (const auto& col : reader.footer().columns) {
        for (const auto& stream : col.streams) {
            auto corrupt = encoded;
            const size_t pos =
                stream.offset + rng() % stream.byte_size;
            corrupt[pos] ^= static_cast<uint8_t>(1u << (rng() % 8));
            ColumnarFileReader damaged;
            damaged.setThreadPool(&pool);
            ASSERT_TRUE(damaged.open(corrupt).ok());
            auto out = damaged.readAll();
            ASSERT_FALSE(out.ok()) << col.name << " pos=" << pos;
            EXPECT_EQ(out.status().code(), StatusCode::kCorruption)
                << col.name;
        }
    }
}

TEST(PageParallelTest, SinglePageStreamsDecodeAcrossThePool)
{
    // RM1 at 2048 rows: every stream is one page, so all parallelism
    // comes from decoding different streams' pages concurrently.
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 2048;
    RawDataGenerator gen(cfg);
    const RowBatch batch = gen.generatePartition(3);
    const auto encoded = ColumnarFileWriter().write(batch, 3);

    ColumnarFileReader serial;
    ASSERT_TRUE(serial.open(encoded).ok());
    size_t streams = 0, single_page = 0;
    for (const auto& col : serial.footer().columns) {
        for (const auto& stream : col.streams) {
            ++streams;
            single_page += stream.num_pages == 1 ? 1 : 0;
        }
    }
    EXPECT_GT(2 * single_page, streams);
    RowBatch want;
    ASSERT_TRUE(serial.readAllInto(want).ok());
    ASSERT_EQ(want, batch);

    ThreadPool pool(4);
    ColumnarFileReader parallel;
    parallel.setThreadPool(&pool);
    RowBatch got;
    for (int pass = 0; pass < 2; ++pass) {  // fresh, then reused buffers
        ASSERT_TRUE(parallel.open(encoded).ok());
        ASSERT_TRUE(parallel.readAllInto(got).ok());
        EXPECT_EQ(got, want);
        EXPECT_EQ(parallel.bytesTouched(), serial.bytesTouched());
    }

    const std::vector<std::string> names{"sparse_7", "label", "dense_2"};
    ASSERT_TRUE(serial.open(encoded).ok());
    ASSERT_TRUE(parallel.open(encoded).ok());
    auto serial_cols = serial.readColumns(names);
    auto parallel_cols = parallel.readColumns(names);
    ASSERT_TRUE(serial_cols.ok());
    ASSERT_TRUE(parallel_cols.ok());
    EXPECT_EQ(*parallel_cols, *serial_cols);
    EXPECT_EQ(parallel.bytesTouched(), serial.bytesTouched());
}

TEST(PageParallelTest, FirstDamagedPageInFileOrderIsReported)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 2048;
    RawDataGenerator gen(cfg);
    const auto encoded =
        ColumnarFileWriter().write(gen.generatePartition(4), 4);
    ColumnarFileReader planner;
    ASSERT_TRUE(planner.open(encoded).ok());
    std::vector<PageReadPlan> plans;
    ASSERT_TRUE(planner.planPageReads(plans).ok());
    // An early dense page and the last page of the file (a sparse
    // values stream).
    const PageReadPlan early = plans[1];
    const PageReadPlan late = plans.back();
    ASSERT_NE(early.column, late.column);

    // Relabel a float page as plain_i64 and recompute its CRC: the
    // frame verifies, then its decode fails with its own message.
    const auto relabel = [](std::vector<uint8_t>& file,
                            const PageReadPlan& plan) {
        uint8_t& enc_byte = file[plan.offset];
        enc_byte = static_cast<uint8_t>(
            (enc_byte & kPageCompressedFlag) |
            static_cast<uint8_t>(Encoding::kPlainI64));
        const size_t covered = plan.frame_bytes - 4;
        const uint32_t crc = crc32c(file.data() + plan.offset, covered);
        std::memcpy(file.data() + plan.offset + covered, &crc, 4);
    };
    // Flip one payload bit: the page CRC fails.
    const auto flip = [](std::vector<uint8_t>& file,
                         const PageReadPlan& plan) {
        file[plan.offset + plan.frame_bytes - 5] ^= 0x10;
    };

    struct Case {
        const char* name;
        bool relabel_early;
    };
    ThreadPool pool(4);
    for (const Case& c : {Case{"decode error, then CRC", true},
                          Case{"CRC, then CRC", false}}) {
        auto damaged = encoded;
        if (c.relabel_early)
            relabel(damaged, early);
        else
            flip(damaged, early);
        flip(damaged, late);

        ColumnarFileReader serial;
        ASSERT_TRUE(serial.open(damaged).ok());
        const Status want = serial.readAll().status();
        ASSERT_EQ(want.code(), StatusCode::kCorruption) << c.name;
        EXPECT_EQ(want.message() == "page checksum mismatch",
                  !c.relabel_early)
            << c.name << ": " << want.message();

        ColumnarFileReader parallel;
        parallel.setThreadPool(&pool);
        for (int rep = 0; rep < 10; ++rep) {
            ASSERT_TRUE(parallel.open(damaged).ok());
            const Status got = parallel.readAll().status();
            EXPECT_EQ(got.code(), want.code()) << c.name;
            EXPECT_EQ(got.message(), want.message()) << c.name;
        }
    }
}

TEST(PageParallelTest, IspEmulatorWithDecodePoolMatchesSerial)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 512;
    RawDataGenerator gen(cfg);
    const auto encoded =
        ColumnarFileWriter().write(gen.generatePartition(0), 0);

    IspEmulator serial(cfg);
    auto want = serial.process(encoded);
    ASSERT_TRUE(want.ok());

    ThreadPool pool(2);
    IspEmulator parallel(cfg, 8, &pool);
    auto got = parallel.process(encoded);
    ASSERT_TRUE(got.ok());

    EXPECT_EQ(got->batch_size, want->batch_size);
    EXPECT_TRUE(std::equal(
        got->dense.begin(), got->dense.end(), want->dense.begin(),
        want->dense.end(), [](float a, float b) {
            return std::bit_cast<uint32_t>(a) == std::bit_cast<uint32_t>(b);
        }));
    ASSERT_EQ(got->sparse.size(), want->sparse.size());
    for (size_t f = 0; f < got->sparse.size(); ++f) {
        EXPECT_EQ(got->sparse[f].values, want->sparse[f].values);
        EXPECT_EQ(got->sparse[f].lengths, want->sparse[f].lengths);
    }
    EXPECT_EQ(parallel.counters().decoded_values,
              serial.counters().decoded_values);
}

}  // namespace
}  // namespace presto
