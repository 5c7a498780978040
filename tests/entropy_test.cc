/**
 * @file
 * Adversarial suite for the canonical-Huffman entropy codec
 * (columnar/entropy.h), its integration into the page-frame codec menu
 * (kEntropy / kLzEntropy), and the footer heat metadata that drives
 * frequency-aware channel placement.
 *
 * Contracts under test:
 *  - huffCompress/huffDecompress round-trip exactly on every byte
 *    distribution, including adversarially skewed histograms;
 *  - every malformed stream — truncations, table mutations, trailing
 *    bytes, non-zero padding — is rejected with kCorruption, even when
 *    the enclosing page frame's CRC is recomputed to be valid;
 *  - the codec-menu writer stores the strictly smallest frame and falls
 *    back to the byte-identical plain frame (on-disk parity with
 *    pre-codec files) when nothing shrinks;
 *  - whole files written plain, LZ-only, and full-menu decode to
 *    bit-identical batches through every read path;
 *  - assignChannelPlacement stripes hot streams round-robin and keeps
 *    cold streams channel-contiguous.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "columnar/columnar_file.h"
#include "columnar/compress.h"
#include "columnar/encoding.h"
#include "columnar/entropy.h"
#include "columnar/page.h"
#include "common/crc32.h"

namespace presto {
namespace {

// --- byte material ---------------------------------------------------------

enum class Dist {
    kEmpty,
    kSingleSymbol,
    kTwoEqual,
    kTwoSkewed,     ///< 99:1 two-symbol split
    kGeometric,     ///< P(s) halves per symbol: deep unbalanced tree
    kFibonacci,     ///< Fibonacci weights: worst case for code length
    kAllBytes,      ///< all 256 symbols near-uniform
    kTextish,
    kRandom,
};

const std::vector<Dist> kDists{
    Dist::kEmpty,    Dist::kSingleSymbol, Dist::kTwoEqual,
    Dist::kTwoSkewed, Dist::kGeometric,   Dist::kFibonacci,
    Dist::kAllBytes, Dist::kTextish,      Dist::kRandom};

const char*
distName(Dist d)
{
    switch (d) {
      case Dist::kEmpty: return "empty";
      case Dist::kSingleSymbol: return "single-symbol";
      case Dist::kTwoEqual: return "two-equal";
      case Dist::kTwoSkewed: return "two-skewed";
      case Dist::kGeometric: return "geometric";
      case Dist::kFibonacci: return "fibonacci";
      case Dist::kAllBytes: return "all-bytes";
      case Dist::kTextish: return "textish";
      case Dist::kRandom: return "random";
    }
    return "?";
}

std::vector<uint8_t>
makeDist(Dist d, size_t n, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<uint8_t> v(n);
    switch (d) {
      case Dist::kEmpty:
        v.clear();
        break;
      case Dist::kSingleSymbol:
        std::fill(v.begin(), v.end(), uint8_t{0xa5});
        break;
      case Dist::kTwoEqual:
        for (auto& b : v)
            b = (rng() & 1) ? 0x00 : 0xff;
        break;
      case Dist::kTwoSkewed:
        for (auto& b : v)
            b = (rng() % 100 == 0) ? 0x7f : 0x01;
        break;
      case Dist::kGeometric:
        // Symbol s with probability ~2^-(s+1), spread over the whole
        // byte range so LZ finds few matches but entropy coding wins.
        for (auto& b : v) {
            uint64_t r = rng();
            uint8_t s = 0;
            while (s < 40 && (r & 1)) {
                r >>= 1;
                ++s;
            }
            b = static_cast<uint8_t>(s * 37 + (rng() % 7));
        }
        break;
      case Dist::kFibonacci: {
        // Draw symbols with Fibonacci-like weights: the unlimited
        // Huffman tree wants codes far deeper than kMaxHuffCodeLen,
        // forcing package-merge to length-limit while staying
        // Kraft-complete.
        std::vector<uint64_t> w{1, 1};
        while (w.size() < 24)
            w.push_back(w[w.size() - 1] + w[w.size() - 2]);
        const uint64_t total =
            std::accumulate(w.begin(), w.end(), uint64_t{0});
        for (auto& b : v) {
            uint64_t r = rng() % total;
            uint8_t s = 0;
            while (r >= w[s]) {
                r -= w[s];
                ++s;
            }
            b = static_cast<uint8_t>(s * 11);
        }
        break;
      }
      case Dist::kAllBytes:
        for (size_t i = 0; i < n; ++i)
            v[i] = static_cast<uint8_t>(i + rng() % 3);
        break;
      case Dist::kTextish: {
        static const char words[] =
            "the quick brown fox jumps over lazy dogs again and again ";
        for (size_t i = 0; i < n; ++i)
            v[i] = static_cast<uint8_t>(
                words[(i + (i / 577) * 13) % (sizeof(words) - 1)]);
        break;
      }
      case Dist::kRandom:
        for (auto& b : v)
            b = static_cast<uint8_t>(rng());
        break;
    }
    return v;
}

// --- round trips -----------------------------------------------------------

TEST(HuffRoundTripTest, AllDistributionsAndSizes)
{
    const std::vector<size_t> sizes{0,   1,    2,    3,    7,    8,
                                    63,  255,  256,  1021, 4096, 65536};
    for (Dist d : kDists) {
        for (size_t n : sizes) {
            const auto raw = makeDist(d, n, n * 131 + 7);
            const auto packed = enc::huffCompress(raw);
            ASSERT_FALSE(packed.empty());

            HuffStreamInfo info;
            ASSERT_TRUE(enc::huffStreamInfo(packed, info).ok())
                << distName(d) << " n=" << n;
            EXPECT_EQ(info.raw_bytes, raw.size());
            EXPECT_LE(info.header_bytes, packed.size());

            std::vector<uint8_t> out(raw.size());
            ASSERT_TRUE(enc::huffDecompress(packed, out).ok())
                << distName(d) << " n=" << n;
            EXPECT_EQ(out, raw) << distName(d) << " n=" << n;
        }
    }
}

TEST(HuffRoundTripTest, OutputBufferReusedAcrossCalls)
{
    std::vector<uint8_t> packed;
    for (int i = 0; i < 4; ++i) {
        const auto raw =
            makeDist(kDists[i % kDists.size()], 4096, 17 + i);
        enc::huffCompress(raw, packed);
        std::vector<uint8_t> out(raw.size());
        ASSERT_TRUE(enc::huffDecompress(packed, out).ok());
        EXPECT_EQ(out, raw);
    }
}

TEST(HuffRoundTripTest, SingleSymbolRunsUseCompactMode)
{
    const auto raw = makeDist(Dist::kSingleSymbol, 65536, 1);
    const auto packed = enc::huffCompress(raw);
    HuffStreamInfo info;
    ASSERT_TRUE(enc::huffStreamInfo(packed, info).ok());
    EXPECT_EQ(info.mode, 1);
    EXPECT_EQ(info.table_bytes, 0u);
    // varint + mode + symbol: nothing else.
    EXPECT_LE(packed.size(), size_t{12});
    std::vector<uint8_t> out(raw.size());
    ASSERT_TRUE(enc::huffDecompress(packed, out).ok());
    EXPECT_EQ(out, raw);
}

TEST(HuffRoundTripTest, SkewedHistogramsBeatRawSize)
{
    // The codec exists for exactly these shapes: compressed size
    // (including the 130-byte header) must come in under raw.
    for (Dist d : {Dist::kTwoSkewed, Dist::kGeometric, Dist::kFibonacci,
                   Dist::kTextish}) {
        const auto raw = makeDist(d, 65536, 3);
        const auto packed = enc::huffCompress(raw);
        EXPECT_LT(packed.size(), raw.size()) << distName(d);
    }
}

TEST(HuffRoundTripTest, RandomFuzzRoundTrips)
{
    std::mt19937_64 rng(99);
    for (int iter = 0; iter < 300; ++iter) {
        const Dist d = kDists[rng() % kDists.size()];
        const auto raw = makeDist(d, rng() % 5000, rng());
        const auto packed = enc::huffCompress(raw);
        std::vector<uint8_t> out(raw.size());
        ASSERT_TRUE(enc::huffDecompress(packed, out).ok())
            << distName(d) << " iter " << iter;
        EXPECT_EQ(out, raw) << distName(d) << " iter " << iter;
    }
}

// --- rejection of malformed streams ----------------------------------------

TEST(HuffRejectTest, EveryTruncationRejected)
{
    for (Dist d :
         {Dist::kSingleSymbol, Dist::kGeometric, Dist::kTextish}) {
        const auto raw = makeDist(d, 2048, 5);
        const auto packed = enc::huffCompress(raw);
        std::vector<uint8_t> out(raw.size());
        for (size_t keep = 0; keep < packed.size(); ++keep) {
            const std::span<const uint8_t> prefix(packed.data(), keep);
            EXPECT_EQ(enc::huffDecompress(prefix, out).code(),
                      StatusCode::kCorruption)
                << distName(d) << " prefix of " << keep << " bytes";
        }
    }
}

TEST(HuffRejectTest, WrongAdvertisedSizeRejected)
{
    const auto raw = makeDist(Dist::kGeometric, 1024, 6);
    const auto packed = enc::huffCompress(raw);
    for (size_t wrong : {size_t{0}, raw.size() - 1, raw.size() + 1}) {
        std::vector<uint8_t> out(wrong);
        EXPECT_EQ(enc::huffDecompress(packed, out).code(),
                  StatusCode::kCorruption)
            << "out size " << wrong;
    }
}

TEST(HuffRejectTest, AnyTableNibbleMutationRejected)
{
    // Changing any single code-length nibble breaks Kraft completeness
    // (the scaled per-length weights are distinct powers of two) or
    // exceeds kMaxHuffCodeLen — either way the decoder must refuse
    // before emitting a byte.
    const auto raw = makeDist(Dist::kGeometric, 4096, 8);
    auto packed = enc::huffCompress(raw);
    HuffStreamInfo info;
    ASSERT_TRUE(enc::huffStreamInfo(packed, info).ok());
    ASSERT_EQ(info.mode, 0);
    ASSERT_GT(info.table_bytes, 0u);
    const size_t table_at = info.header_bytes - info.table_bytes;

    std::vector<uint8_t> out(raw.size());
    ASSERT_TRUE(enc::huffDecompress(packed, out).ok());  // control

    for (size_t i = 0; i < info.table_bytes; ++i) {
        for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x10}}) {
            packed[table_at + i] ^= mask;
            EXPECT_EQ(enc::huffDecompress(packed, out).code(),
                      StatusCode::kCorruption)
                << "table byte " << i << " mask " << int{mask};
            packed[table_at + i] ^= mask;
        }
    }
    ASSERT_TRUE(enc::huffDecompress(packed, out).ok());  // still intact
}

TEST(HuffRejectTest, TrailingBytesRejected)
{
    for (Dist d : {Dist::kSingleSymbol, Dist::kGeometric}) {
        const auto raw = makeDist(d, 512, 9);
        auto packed = enc::huffCompress(raw);
        packed.push_back(0x00);
        std::vector<uint8_t> out(raw.size());
        EXPECT_EQ(enc::huffDecompress(packed, out).code(),
                  StatusCode::kCorruption)
            << distName(d);
    }
}

TEST(HuffRejectTest, NonZeroPaddingRejected)
{
    // Two equally likely symbols give 1-bit codes; 9 bytes -> 9 bits ->
    // 2 bitstream bytes with 7 pad bits that must be zero.
    std::vector<uint8_t> raw(9);
    for (size_t i = 0; i < raw.size(); ++i)
        raw[i] = (i & 1) ? 0xff : 0x00;
    auto packed = enc::huffCompress(raw);
    std::vector<uint8_t> out(raw.size());
    ASSERT_TRUE(enc::huffDecompress(packed, out).ok());
    packed.back() |= 0x80;
    EXPECT_EQ(enc::huffDecompress(packed, out).code(),
              StatusCode::kCorruption);
}

TEST(HuffRejectTest, GarbageNeverCrashes)
{
    std::mt19937_64 rng(21);
    for (int iter = 0; iter < 500; ++iter) {
        std::vector<uint8_t> garbage(rng() % 600);
        for (auto& b : garbage)
            b = static_cast<uint8_t>(rng());
        std::vector<uint8_t> out(rng() % 2048);
        (void)enc::huffDecompress(garbage, out);  // must not crash/UB
    }
}

// --- the two decode loops ---------------------------------------------------
//
// huffDecompress() picks a single-symbol or a fused loop from the code
// lengths (entropy.h). Every stream below is checked to take the loop
// it is meant to cover, decoded, and compared with a bit-serial
// reference decoder that shares no code with the codec.

/** Parsed kEntropy huffman-mode stream (the format in entropy.h). */
struct HuffStream {
    uint64_t raw_count = 0;
    std::vector<uint8_t> table;               ///< 128 nibble-packed bytes
    std::vector<std::vector<uint8_t>> lanes;  ///< kNumHuffLanes bitstreams
};

HuffStream
parseHuffStream(std::span<const uint8_t> in)
{
    HuffStream s;
    size_t pos = 0;
    EXPECT_TRUE(enc::getVarint(in, pos, s.raw_count).ok());
    EXPECT_EQ(in[pos++], 0) << "not a huffman-mode stream";
    uint64_t sizes[kNumHuffLanes] = {};
    uint64_t declared = 0;
    for (uint32_t k = 0; k + 1 < kNumHuffLanes; ++k) {
        EXPECT_TRUE(enc::getVarint(in, pos, sizes[k]).ok());
        declared += sizes[k];
    }
    s.table.assign(in.begin() + pos, in.begin() + pos + 128);
    pos += 128;
    sizes[kNumHuffLanes - 1] = in.size() - pos - declared;
    for (uint64_t size : sizes) {
        s.lanes.emplace_back(in.begin() + pos, in.begin() + pos + size);
        pos += size;
    }
    return s;
}

std::vector<uint8_t>
serializeHuffStream(const HuffStream& s)
{
    std::vector<uint8_t> out;
    enc::putVarint(out, s.raw_count);
    out.push_back(0);
    for (uint32_t k = 0; k + 1 < kNumHuffLanes; ++k)
        enc::putVarint(out, s.lanes[k].size());
    out.insert(out.end(), s.table.begin(), s.table.end());
    for (const auto& lane : s.lanes)
        out.insert(out.end(), lane.begin(), lane.end());
    return out;
}

/**
 * Bit-serial reference decoder: reads one bit at a time MSB-first into
 * a code and matches it against the canonical (length, code) pairs.
 * Applies the format's rules directly: length limit, Kraft
 * completeness, lane sizes, no lane ending mid-code, every lane byte
 * used, zero padding. @return false for a malformed stream.
 */
bool
referenceDecode(std::span<const uint8_t> in, size_t n,
                std::vector<uint8_t>& out)
{
    out.assign(n, 0);
    size_t pos = 0;
    uint64_t raw = 0;
    if (!enc::getVarint(in, pos, raw).ok() || raw != n)
        return false;
    if (n == 0)
        return pos == in.size();
    if (pos >= in.size())
        return false;
    const uint8_t mode = in[pos++];
    if (mode == 1) {
        if (pos + 1 != in.size())
            return false;
        std::fill(out.begin(), out.end(), in[pos]);
        return true;
    }
    if (mode != 0)
        return false;
    uint64_t sizes[kNumHuffLanes] = {};
    uint64_t declared = 0;
    for (uint32_t k = 0; k + 1 < kNumHuffLanes; ++k) {
        if (!enc::getVarint(in, pos, sizes[k]).ok() || sizes[k] > in.size())
            return false;
        declared += sizes[k];
    }
    if (pos + 128 > in.size())
        return false;
    std::vector<int> len(256);
    uint64_t kraft = 0;
    for (int s = 0; s < 256; ++s) {
        const uint8_t b = in[pos + s / 2];
        len[s] = s % 2 == 0 ? b & 0xF : b >> 4;
        if (len[s] > kMaxHuffCodeLen)
            return false;
        if (len[s] > 0)
            kraft += uint64_t{1} << (kMaxHuffCodeLen - len[s]);
    }
    if (kraft != uint64_t{1} << kMaxHuffCodeLen)
        return false;
    pos += 128;
    std::map<std::pair<int, uint32_t>, uint8_t> code_to_sym;
    uint32_t code = 0;
    for (int l = 1; l <= kMaxHuffCodeLen; ++l, code <<= 1)
        for (int s = 0; s < 256; ++s)
            if (len[s] == l)
                code_to_sym[{l, code++}] = static_cast<uint8_t>(s);
    if (declared > in.size() - pos)
        return false;
    sizes[kNumHuffLanes - 1] = in.size() - pos - declared;
    const uint8_t* lane = in.data() + pos;
    for (uint32_t k = 0; k < kNumHuffLanes; ++k) {
        const uint64_t nbits = 8 * sizes[k];
        uint64_t bit = 0;
        for (size_t i = n * k / kNumHuffLanes; i < n * (k + 1) / kNumHuffLanes;
             ++i) {
            uint32_t c = 0;
            for (int l = 1;; ++l) {
                if (bit >= nbits || l > kMaxHuffCodeLen)
                    return false;
                c = c << 1 | ((lane[bit >> 3] >> (bit & 7)) & 1u);
                ++bit;
                const auto it = code_to_sym.find({l, c});
                if (it != code_to_sym.end()) {
                    out[i] = it->second;
                    break;
                }
            }
        }
        if ((bit + 7) / 8 != sizes[k])
            return false;
        for (; bit < nbits; ++bit)
            if ((lane[bit >> 3] >> (bit & 7)) & 1u)
                return false;
        lane += sizes[k];
    }
    return true;
}

/**
 * Bytes whose code lengths land at 5..9 bits, like RM1's sparse-id
 * pages: a dyadic distribution of 4 symbols at 2^-5, 8 at 2^-6, 16 at
 * 2^-7, 48 at 2^-8 and 160 at 2^-9 (sum 1, all 256 byte values).
 */
std::vector<uint8_t>
rm1LikeBytes(size_t n, uint64_t seed)
{
    std::vector<uint8_t> slots;  // 512 equally likely slots
    uint32_t sym = 0;
    for (auto [count, len] : {std::pair{4, 5}, {8, 6}, {16, 7}, {48, 8},
                              {160, 9}})
        for (int i = 0; i < count; ++i, ++sym)
            slots.insert(slots.end(), size_t{512} >> len,
                         static_cast<uint8_t>(sym * 97 + 13));
    std::mt19937_64 rng(seed);
    std::vector<uint8_t> v(n);
    for (auto& b : v)
        b = slots[rng() % slots.size()];
    return v;
}

enum class Shape { kNearUniform, kRm1Like, kSkewed, kTwoSymbols };

const char*
shapeName(Shape s)
{
    switch (s) {
      case Shape::kNearUniform: return "near-uniform";
      case Shape::kRm1Like: return "rm1-like";
      case Shape::kSkewed: return "skewed";
      case Shape::kTwoSymbols: return "two-symbols";
    }
    return "?";
}

std::vector<uint8_t>
shapeBytes(Shape s, size_t n, uint64_t seed)
{
    switch (s) {
      case Shape::kNearUniform: return makeDist(Dist::kRandom, n, seed);
      case Shape::kRm1Like: return rm1LikeBytes(n, seed);
      case Shape::kSkewed: return makeDist(Dist::kGeometric, n, seed);
      case Shape::kTwoSymbols: return makeDist(Dist::kTwoEqual, n, seed);
    }
    return {};
}

/** The loop a stream of @p shape and @p n bytes is meant to take. */
enc::detail::HuffLoop
expectedLoop(Shape shape, size_t n)
{
    const bool fuses = shape == Shape::kSkewed || shape == Shape::kTwoSymbols;
    return fuses && n >= enc::detail::kHuffFuseMinBytes
               ? enc::detail::HuffLoop::kFused
               : enc::detail::HuffLoop::kSingle;
}

enc::detail::HuffLoop
loopOf(std::span<const uint8_t> packed, size_t n)
{
    enc::detail::HuffLoop loop = enc::detail::HuffLoop::kNone;
    EXPECT_TRUE(enc::detail::huffPrepareDecode(packed, n, loop).ok());
    return loop;
}

TEST(HuffLoopTest, EveryShapeAndSizeTakesItsLoopAndMatchesTheReference)
{
    constexpr size_t kFuse = enc::detail::kHuffFuseMinBytes;
    // n < 4 and n % 4 != 0, lanes too short to enter the fast loop
    // (under 8 stored bytes each), and sizes around the fuse threshold.
    const std::vector<size_t> sizes{4,        5,        6,        7,
                                    16,       33,       61,       1021,
                                    kFuse - 1, kFuse,    kFuse + 1, kFuse + 3,
                                    65537};
    int single = 0, fused = 0;
    for (Shape shape : {Shape::kNearUniform, Shape::kRm1Like, Shape::kSkewed,
                        Shape::kTwoSymbols}) {
        for (size_t n : sizes) {
            const auto raw = shapeBytes(shape, n, n * 7 + 1);
            const auto packed = enc::huffCompress(raw);
            HuffStreamInfo info;
            ASSERT_TRUE(enc::huffStreamInfo(packed, info).ok());
            if (info.mode != 0)
                continue;  // a single-symbol run: no table to probe
            const auto loop = loopOf(packed, n);
            EXPECT_EQ(loop, expectedLoop(shape, n))
                << shapeName(shape) << " n=" << n;
            single += loop == enc::detail::HuffLoop::kSingle;
            fused += loop == enc::detail::HuffLoop::kFused;

            std::vector<uint8_t> out(n), ref;
            ASSERT_TRUE(enc::huffDecompress(packed, out).ok())
                << shapeName(shape) << " n=" << n;
            ASSERT_TRUE(referenceDecode(packed, n, ref))
                << shapeName(shape) << " n=" << n;
            EXPECT_EQ(out, raw) << shapeName(shape) << " n=" << n;
            EXPECT_EQ(ref, raw) << shapeName(shape) << " n=" << n;
        }
    }
    EXPECT_GE(single, 20);
    EXPECT_GE(fused, 8);  // both loops covered
}

TEST(HuffLoopTest, Rm1LikeBytesCodeAtFiveToNineBits)
{
    const auto packed = enc::huffCompress(rm1LikeBytes(65536, 2));
    const HuffStream s = parseHuffStream(packed);
    int lo = 16, hi = 0;
    for (uint8_t b : s.table)
        for (int l : {b & 0xF, b >> 4})
            if (l > 0) {
                lo = std::min(lo, l);
                hi = std::max(hi, l);
            }
    EXPECT_EQ(lo, 5);
    EXPECT_EQ(hi, 9);
}

/** Streams that cover each loop, for the corruption cases below. */
struct LoopCorpus {
    std::string name;
    std::vector<uint8_t> raw;
    std::vector<uint8_t> packed;
};

std::vector<LoopCorpus>
loopCorpora()
{
    constexpr size_t kBig = enc::detail::kHuffFuseMinBytes + 808;
    std::vector<LoopCorpus> out;
    for (auto [shape, n] : {std::pair{Shape::kSkewed, kBig},
                            {Shape::kTwoSymbols, kBig},
                            {Shape::kNearUniform, kBig},
                            {Shape::kRm1Like, kBig},
                            {Shape::kSkewed, size_t{2048}}}) {
        LoopCorpus c;
        c.name = std::string(shapeName(shape)) + "/" + std::to_string(n);
        c.raw = shapeBytes(shape, n, 41);
        c.packed = enc::huffCompress(c.raw);
        EXPECT_EQ(loopOf(c.packed, n), expectedLoop(shape, n)) << c.name;
        out.push_back(std::move(c));
    }
    return out;
}

TEST(HuffLoopRejectTest, EveryTruncationRejectedOnBothLoops)
{
    for (const auto& c : loopCorpora()) {
        std::vector<uint8_t> out(c.raw.size());
        // Every prefix up to the table, then a stride through the lanes
        // and every one of the last 64 bytes.
        for (size_t keep = 0; keep < c.packed.size();
             keep += keep < 160 || keep + 64 >= c.packed.size() ? 1 : 37) {
            const std::span<const uint8_t> prefix(c.packed.data(), keep);
            EXPECT_EQ(enc::huffDecompress(prefix, out).code(),
                      StatusCode::kCorruption)
                << c.name << " prefix of " << keep << " bytes";
        }
    }
}

TEST(HuffLoopRejectTest, WrongSizeTableMutationAndTrailingBytesRejected)
{
    for (const auto& c : loopCorpora()) {
        for (size_t wrong : {c.raw.size() - 1, c.raw.size() + 1}) {
            std::vector<uint8_t> out(wrong);
            EXPECT_EQ(enc::huffDecompress(c.packed, out).code(),
                      StatusCode::kCorruption)
                << c.name << " out size " << wrong;
        }
        std::vector<uint8_t> out(c.raw.size());
        HuffStreamInfo info;
        ASSERT_TRUE(enc::huffStreamInfo(c.packed, info).ok());
        const size_t table_at = info.header_bytes - info.table_bytes;
        auto mutated = c.packed;
        for (size_t i = 0; i < info.table_bytes; ++i) {
            for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x10}}) {
                mutated[table_at + i] ^= mask;
                EXPECT_EQ(enc::huffDecompress(mutated, out).code(),
                          StatusCode::kCorruption)
                    << c.name << " table byte " << i;
                mutated[table_at + i] ^= mask;
            }
        }
        mutated.push_back(0x00);
        EXPECT_EQ(enc::huffDecompress(mutated, out).code(),
                  StatusCode::kCorruption)
            << c.name << " trailing byte";
    }
}

TEST(HuffLoopRejectTest, LaneEndingMidCodeOrWithSpareBytesRejected)
{
    for (const auto& c : loopCorpora()) {
        std::vector<uint8_t> out(c.raw.size());
        for (uint32_t k = 0; k < kNumHuffLanes; ++k) {
            HuffStream s = parseHuffStream(c.packed);
            s.lanes[k].pop_back();  // the lane now ends mid-code
            EXPECT_EQ(enc::huffDecompress(serializeHuffStream(s), out).code(),
                      StatusCode::kCorruption)
                << c.name << " lane " << k << " short";
            s = parseHuffStream(c.packed);
            s.lanes[k].push_back(0x00);  // a byte no code needs
            EXPECT_EQ(enc::huffDecompress(serializeHuffStream(s), out).code(),
                      StatusCode::kCorruption)
                << c.name << " lane " << k << " long";
        }
    }
}

TEST(HuffLoopRejectTest, LaneSizesThatWrapTheirSumRejected)
{
    // Three declared lane sizes whose 64-bit sum wraps to a small
    // number must not pass the lane-size check.
    const auto raw = shapeBytes(Shape::kNearUniform, 4096, 5);
    const HuffStream s = parseHuffStream(enc::huffCompress(raw));
    std::vector<uint8_t> bad;
    enc::putVarint(bad, s.raw_count);
    bad.push_back(0);
    enc::putVarint(bad, uint64_t{1} << 63);
    enc::putVarint(bad, uint64_t{1} << 63);
    enc::putVarint(bad, 16);
    bad.insert(bad.end(), s.table.begin(), s.table.end());
    for (const auto& lane : s.lanes)
        bad.insert(bad.end(), lane.begin(), lane.end());
    std::vector<uint8_t> out(raw.size()), ref;
    EXPECT_EQ(enc::huffDecompress(bad, out).code(), StatusCode::kCorruption);
    EXPECT_FALSE(referenceDecode(bad, raw.size(), ref));
}

TEST(HuffLoopRejectTest, BitFlipsAgreeWithTheReferenceDecoder)
{
    // Flipped payload bits either decode to other bytes or break a
    // rule (mid-code end, spare bytes, non-zero padding); the fast
    // decoder must make the reference decoder's call and, when it
    // accepts, produce the same bytes.
    std::mt19937_64 rng(77);
    for (const auto& c : loopCorpora()) {
        HuffStreamInfo info;
        ASSERT_TRUE(enc::huffStreamInfo(c.packed, info).ok());
        std::vector<size_t> bits;
        for (size_t b = 8 * (c.packed.size() - 2); b < 8 * c.packed.size(); ++b)
            bits.push_back(b);  // the last lane's padding is in here
        for (int i = 0; i < 100; ++i)
            bits.push_back(8 * info.header_bytes +
                           rng() % (8 * (c.packed.size() - info.header_bytes)));
        int rejected = 0;
        for (size_t b : bits) {
            auto flipped = c.packed;
            flipped[b / 8] ^= static_cast<uint8_t>(1u << (b % 8));
            std::vector<uint8_t> out(c.raw.size()), ref;
            const Status st = enc::huffDecompress(flipped, out);
            const bool ref_ok = referenceDecode(flipped, c.raw.size(), ref);
            ASSERT_EQ(st.ok(), ref_ok) << c.name << " bit " << b;
            if (ref_ok)
                EXPECT_EQ(out, ref) << c.name << " bit " << b;
            else
                EXPECT_EQ(st.code(), StatusCode::kCorruption);
            rejected += !ref_ok;
        }
        EXPECT_GT(rejected, 0) << c.name;
    }
}

// --- page-frame integration ------------------------------------------------

TEST(EntropyPageTest, FullMenuStoresTheStrictlySmallestFrame)
{
    for (Dist d : kDists) {
        const auto payload = makeDist(d, 32768, 13);
        if (payload.empty())
            continue;
        const auto n = static_cast<uint32_t>(payload.size() / 8);

        std::vector<uint8_t> plain, lz_only, entropy_only, full;
        writePageFrame(plain, Encoding::kPlainI64, n, payload);
        writePageFrame(lz_only, Encoding::kPlainI64, n, payload,
                       PageCodec::kLz);
        writePageFrame(entropy_only, Encoding::kPlainI64, n, payload,
                       PageCodec::kEntropy);
        const PageCodec stored = writePageFrame(
            full, Encoding::kPlainI64, n, payload, PageCodec::kLzEntropy);

        // The full menu can never lose to any restricted menu.
        EXPECT_LE(full.size(), plain.size()) << distName(d);
        EXPECT_LE(full.size(), lz_only.size()) << distName(d);
        EXPECT_LE(full.size(), entropy_only.size()) << distName(d);

        size_t pos = 0;
        PageView page;
        ASSERT_TRUE(readPageFrame(full, pos, page).ok()) << distName(d);
        EXPECT_EQ(page.codec, stored);
        std::vector<uint8_t> scratch;
        std::span<const uint8_t> got;
        ASSERT_TRUE(pagePayload(page, scratch, got).ok()) << distName(d);
        ASSERT_EQ(got.size(), payload.size()) << distName(d);
        EXPECT_TRUE(std::equal(got.begin(), got.end(), payload.begin()))
            << distName(d);
    }
}

TEST(EntropyPageTest, SkewedPagesPickAnEntropyCodec)
{
    // An i.i.d. geometric byte stream has almost no LZ matches but a
    // heavily skewed histogram: the winning frame must involve entropy
    // coding, and must be materially smaller than LZ alone managed.
    const auto payload = makeDist(Dist::kGeometric, 65536, 29);
    const auto n = static_cast<uint32_t>(payload.size() / 8);
    std::vector<uint8_t> lz_only, full;
    writePageFrame(lz_only, Encoding::kPlainI64, n, payload,
                   PageCodec::kLz);
    const PageCodec stored = writePageFrame(
        full, Encoding::kPlainI64, n, payload, PageCodec::kLzEntropy);
    EXPECT_TRUE(stored == PageCodec::kEntropy ||
                stored == PageCodec::kLzEntropy)
        << pageCodecName(stored);
    EXPECT_LT(full.size(), lz_only.size());
}

TEST(EntropyPageTest, LzEntropyCompoundsOnRedundantSkewedData)
{
    // Textish bytes shrink under LZ and the residual literal stream is
    // still letter-skewed, so lz+entropy beats either codec alone.
    const auto payload = makeDist(Dist::kTextish, 65536, 31);
    const auto n = static_cast<uint32_t>(payload.size() / 8);
    std::vector<uint8_t> lz_only, entropy_only, full;
    writePageFrame(lz_only, Encoding::kPlainI64, n, payload,
                   PageCodec::kLz);
    writePageFrame(entropy_only, Encoding::kPlainI64, n, payload,
                   PageCodec::kEntropy);
    const PageCodec stored = writePageFrame(
        full, Encoding::kPlainI64, n, payload, PageCodec::kLzEntropy);
    EXPECT_EQ(stored, PageCodec::kLzEntropy);
    EXPECT_LT(full.size(), lz_only.size());
    EXPECT_LT(full.size(), entropy_only.size());

    size_t pos = 0;
    PageView page;
    ASSERT_TRUE(readPageFrame(full, pos, page).ok());
    std::vector<uint8_t> scratch;
    std::span<const uint8_t> got;
    ASSERT_TRUE(pagePayload(page, scratch, got).ok());
    ASSERT_EQ(got.size(), payload.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), payload.begin()));
}

TEST(EntropyPageTest, IncompressiblePageParityWithPlainWriter)
{
    // When nothing in the menu shrinks the page, the stored frame must
    // be byte-identical to the codec-free writer's — zero overhead, so
    // full-menu files of incompressible data match pre-codec files
    // on disk exactly.
    const auto payload = makeDist(Dist::kRandom, 32768, 37);
    const auto n = static_cast<uint32_t>(payload.size() / 8);
    std::vector<uint8_t> with_menu, plain;
    const PageCodec stored = writePageFrame(
        with_menu, Encoding::kPlainI64, n, payload, PageCodec::kLzEntropy);
    writePageFrame(plain, Encoding::kPlainI64, n, payload);
    EXPECT_EQ(stored, PageCodec::kNone);
    EXPECT_EQ(with_menu, plain);
}

TEST(EntropyPageTest, MutatedTableBehindRecomputedCrcRejected)
{
    // A storage-level attacker (or firmware bug) that rewrites the
    // entropy table *and* fixes up the frame CRC gets past the checksum
    // but must still be stopped by the decoder's structural checks.
    const auto payload = makeDist(Dist::kGeometric, 65536, 41);
    const auto n = static_cast<uint32_t>(payload.size() / 8);
    std::vector<uint8_t> frame;
    const PageCodec stored = writePageFrame(
        frame, Encoding::kPlainI64, n, payload, PageCodec::kEntropy);
    ASSERT_EQ(stored, PageCodec::kEntropy);

    // Frame layout: [enc u8][count u32][psize u32][codec u8][raw u32]
    // [payload][crc u32]; the huffman table sits inside the payload.
    const size_t header = 1 + 4 + 4 + kCompressedPageExtraBytes;
    HuffStreamInfo info;
    ASSERT_TRUE(enc::huffStreamInfo(
                    std::span<const uint8_t>(frame).subspan(
                        header, frame.size() - header - 4),
                    info)
                    .ok());
    ASSERT_EQ(info.mode, 0);
    const size_t table_at = header + info.header_bytes - info.table_bytes;

    frame[table_at] ^= 0x01;
    const uint32_t crc = crc32c(frame.data(), frame.size() - 4);
    std::memcpy(frame.data() + frame.size() - 4, &crc, 4);

    size_t pos = 0;
    PageView page;
    ASSERT_TRUE(readPageFrame(frame, pos, page).ok());  // CRC passes
    std::vector<uint8_t> scratch;
    std::span<const uint8_t> got;
    EXPECT_EQ(pagePayload(page, scratch, got).code(),
              StatusCode::kCorruption);
}

// --- whole-file differential -----------------------------------------------

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
            ids.push_back(static_cast<int64_t>(rng() % 4000));
        offsets.push_back(static_cast<uint32_t>(ids.size()));
    }
    batch.addColumn(DenseColumn(std::move(labels)));
    batch.addColumn(DenseColumn(std::move(dense)));
    batch.addColumn(SparseColumn(std::move(ids), std::move(offsets)));
    return batch;
}

TEST(EntropyFileTest, AllCodecMenusDecodeBitIdentical)
{
    const size_t rows = 2 * kMaxValuesPerPage + 321;
    const RowBatch batch = multiPageBatch(rows);

    WriterOptions plain_opts;
    plain_opts.codec = PageCodec::kNone;
    WriterOptions lz_opts;
    lz_opts.codec = PageCodec::kLz;
    WriterOptions full_opts;  // default: kLzEntropy
    full_opts.column_heat = {120, 700, 1000};

    const auto plain = ColumnarFileWriter(plain_opts).write(batch, 7);
    const auto lz = ColumnarFileWriter(lz_opts).write(batch, 7);
    const auto full = ColumnarFileWriter(full_opts).write(batch, 7);

    // Per-page strictly-smallest selection composes to the file level.
    EXPECT_LT(full.size(), plain.size());
    EXPECT_LE(full.size(), lz.size() + 3 * 5);  // footer heat varints

    for (const auto* bytes : {&plain, &lz, &full}) {
        ColumnarFileReader reader;
        ASSERT_TRUE(reader.open(*bytes).ok());
        auto got = reader.readAll();
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, batch);
        // Warm buffer-reusing path.
        RowBatch into;
        ASSERT_TRUE(reader.readAllInto(into).ok());
        EXPECT_EQ(into, batch);
    }
}

TEST(EntropyFileTest, AsyncPageSplitDecodesEntropyPages)
{
    const size_t rows = kMaxValuesPerPage + 17;
    const RowBatch batch = multiPageBatch(rows);
    WriterOptions opts;
    opts.column_heat = {50, 1000, 900};
    const auto bytes = ColumnarFileWriter(opts).write(batch, 3);

    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    std::vector<PageReadPlan> plans;
    ASSERT_TRUE(reader.planPageReads(plans).ok());
    assignChannelPlacement(reader.footer(), 4, plans);

    RowBatch out;
    ASSERT_TRUE(reader.beginReadInto(out).ok());
    // Complete in reverse order to prove order independence.
    for (size_t i = plans.size(); i > 0; --i) {
        const PageReadPlan& plan = plans[i - 1];
        const std::span<const uint8_t> frame(bytes.data() + plan.offset,
                                             plan.frame_bytes);
        ASSERT_TRUE(reader.completePage(plan, frame, out).ok());
    }
    ASSERT_TRUE(reader.finishReadInto(out).ok());
    EXPECT_EQ(out, batch);
}

TEST(EntropyFileTest, HeatMetadataRoundTripsAndIsClamped)
{
    const RowBatch batch = multiPageBatch(256);
    WriterOptions opts;
    opts.column_heat = {40, 5000, 1000};  // 5000 clamps to 1000
    const auto bytes = ColumnarFileWriter(opts).write(batch, 1);

    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    const FileFooter& footer = reader.footer();
    ASSERT_EQ(footer.columns.size(), 3u);
    EXPECT_EQ(footer.columns[0].streams[0].heat, 40u);
    EXPECT_EQ(footer.columns[1].streams[0].heat, kMaxStreamHeat);
    for (const StreamMeta& s : footer.columns[2].streams)
        EXPECT_EQ(s.heat, kMaxStreamHeat);  // both sparse streams inherit
}

// --- frequency-aware channel placement -------------------------------------

TEST(HeatPlacementTest, HotStreamsStripedColdStreamsContiguous)
{
    const RowBatch batch = multiPageBatch(3 * kMaxValuesPerPage);
    WriterOptions opts;
    // Column 1 is hot (>= half of max); columns 0 and 2 are cold.
    opts.column_heat = {10, 1000, 100};
    const auto bytes = ColumnarFileWriter(opts).write(batch, 2);

    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    std::vector<PageReadPlan> plans;
    ASSERT_TRUE(reader.planPageReads(plans).ok());
    const int channels = 4;
    assignChannelPlacement(reader.footer(), channels, plans);

    std::vector<int32_t> hot_channels;
    std::vector<std::vector<int32_t>> cold_per_stream;
    for (const PageReadPlan& plan : plans) {
        ASSERT_GE(plan.channel, 0);
        ASSERT_LT(plan.channel, channels);
        if (plan.hot) {
            EXPECT_EQ(plan.column, 1u);
            hot_channels.push_back(plan.channel);
        } else {
            const size_t key = plan.column * 2 + plan.stream;
            if (cold_per_stream.size() <= key)
                cold_per_stream.resize(key + 1);
            cold_per_stream[key].push_back(plan.channel);
        }
    }
    // Hot pages stripe round-robin: consecutive pages land on distinct
    // channels, covering more than one channel overall.
    ASSERT_GT(hot_channels.size(), 1u);
    for (size_t i = 1; i < hot_channels.size(); ++i)
        EXPECT_EQ(hot_channels[i],
                  (hot_channels[i - 1] + 1) % channels);
    // Every cold stream stays on one channel.
    for (const auto& stream_channels : cold_per_stream) {
        for (int32_t c : stream_channels)
            EXPECT_EQ(c, stream_channels.front());
    }
}

TEST(HeatPlacementTest, NoHeatMetadataLeavesPlacementUnpinned)
{
    const RowBatch batch = multiPageBatch(512);
    const auto bytes = ColumnarFileWriter().write(batch, 0);
    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    std::vector<PageReadPlan> plans;
    ASSERT_TRUE(reader.planPageReads(plans).ok());
    assignChannelPlacement(reader.footer(), 8, plans);
    for (const PageReadPlan& plan : plans) {
        EXPECT_EQ(plan.channel, -1);
        EXPECT_FALSE(plan.hot);
    }
}

TEST(HeatPlacementTest, ExcessiveFooterHeatRejectedAsCorruption)
{
    const RowBatch batch = multiPageBatch(64);
    WriterOptions opts;
    opts.column_heat = {1000, 1000, 1000};
    auto bytes = ColumnarFileWriter(opts).write(batch, 0);

    // Bump one stream's heat varint above kMaxStreamHeat in the footer
    // and fix the footer CRC: the parser must reject the value itself.
    // (Find the footer: its size is the u32 at file end - 12.)
    const size_t tail = bytes.size();
    uint32_t footer_size = 0;
    std::memcpy(&footer_size, bytes.data() + tail - 12, 4);
    const size_t footer_at = tail - 12 - footer_size;
    // heat 1000 encodes as the varint e8 07; patch the first occurrence
    // inside the footer to 4000 (a0 1f).
    bool patched = false;
    for (size_t i = footer_at; i + 1 < tail - 12 && !patched; ++i) {
        if (bytes[i] == 0xe8 && bytes[i + 1] == 0x07) {
            bytes[i] = 0xa0;
            bytes[i + 1] = 0x1f;
            patched = true;
        }
    }
    ASSERT_TRUE(patched);
    const uint32_t crc = crc32c(bytes.data() + footer_at, footer_size);
    std::memcpy(bytes.data() + tail - 8, &crc, 4);

    ColumnarFileReader reader;
    EXPECT_EQ(reader.open(bytes).code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace presto
