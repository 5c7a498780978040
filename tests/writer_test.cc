/**
 * @file
 * Byte-identity tests for the PSF writer.
 *
 * The writer's output is part of the on-disk contract: segment CRCs,
 * the bench oracle and every stored-bytes figure assume a partition
 * encodes to the same bytes on every build. The golden digests below
 * were recorded from the bit-by-bit packer, node-vector package-merge
 * and hash-map distinct-value passes that the word packer, counting
 * package-merge and flat ordinal table replaced; the reference tests
 * keep those two kernels here and check the replacements against them
 * directly.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "columnar/columnar_file.h"
#include "columnar/encoding.h"
#include "columnar/entropy.h"
#include "columnar/fast_decode_internal.h"
#include "datagen/generator.h"

namespace presto {
namespace {

uint64_t
fnv1a(const std::vector<uint8_t>& bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

struct GoldenCase {
    int rm;
    size_t rows;
    PageCodec codec;
    uint64_t digest;
};

TEST(WriterGoldenTest, PartitionBytesMatchRecordedDigests)
{
    const GoldenCase cases[] = {
        {1, 4096, PageCodec::kNone, 0xdd8be71fc1eaaba3ull},
        {1, 4096, PageCodec::kLz, 0xf0c205e3f91f8152ull},
        {1, 4096, PageCodec::kEntropy, 0x386a5abfd5e230c6ull},
        {1, 4096, PageCodec::kLzEntropy, 0x78d8362845342266ull},
        {5, 1024, PageCodec::kNone, 0x6084929a7bf383d4ull},
        {5, 1024, PageCodec::kLz, 0x6d3b1c352be7f123ull},
        {5, 1024, PageCodec::kEntropy, 0xd557b5beb62a357dull},
        {5, 1024, PageCodec::kLzEntropy, 0x31890f44109ff04cull},
    };
    GeneratorOptions generator_options;
    generator_options.seed = 7;
    for (const GoldenCase& c : cases) {
        RawDataGenerator generator(rmConfig(c.rm), generator_options);
        const RowBatch batch = generator.generatePartition(0, c.rows);
        WriterOptions options;
        options.codec = c.codec;
        EXPECT_EQ(fnv1a(ColumnarFileWriter(options).write(batch, 0)),
                  c.digest)
            << "RM" << c.rm << " codec " << pageCodecName(c.codec);
    }
}

TEST(WriterGoldenTest, DictionaryKeepsEveryDistinctValue)
{
    // kDictionary has no distinct-value cap: the ordinal table must
    // grow past every size it starts with rather than drop values.
    std::vector<int64_t> values;
    for (int repeat = 0; repeat < 2; ++repeat)
        for (int64_t v = 0; v < 100000; ++v)
            values.push_back((v * 7919) % 100000 - 50000);
    const std::vector<uint8_t> payload = enc::encodeDictionary(values);
    size_t pos = 0;
    uint64_t distinct = 0;
    ASSERT_TRUE(enc::getVarint(payload, pos, distinct).ok());
    EXPECT_EQ(distinct, 100000u);
    std::vector<int64_t> decoded;
    ASSERT_TRUE(enc::decodeI64(Encoding::kDictionary, payload, values.size(),
                               decoded)
                    .ok());
    EXPECT_EQ(decoded, values);
}

// --- bit packer ----------------------------------------------------------

/** The bit-by-bit packer the word packer replaced. */
std::vector<uint8_t>
packBitsReference(const std::vector<uint64_t>& values, size_t width)
{
    std::vector<uint8_t> bytes((values.size() * width + 7) / 8, 0);
    size_t bit = 0;
    for (uint64_t v : values) {
        for (size_t k = 0; k < width; ++k, ++bit) {
            if ((v >> k) & 1)
                bytes[bit >> 3] |= static_cast<uint8_t>(1u << (bit & 7));
        }
    }
    return bytes;
}

TEST(PackBitsTest, MatchesBitByBitReference)
{
    std::mt19937_64 rng(11);
    for (size_t width = 0; width <= 64; ++width) {
        for (size_t count : {0, 1, 3, 7, 8, 9, 15, 63, 64, 65, 1001}) {
            // Full 64-bit values: every width sees bits above it.
            std::vector<uint64_t> values(count);
            for (auto& v : values)
                v = rng();
            const std::vector<uint8_t> want =
                packBitsReference(values, width);
            // Sentinel past the end: the packer writes exactly
            // ceil(count * width / 8) bytes.
            std::vector<uint8_t> got(want.size() + 8, 0xa5);
            enc::detail::packBits(values.data(), count, width, got.data());
            for (size_t i = want.size(); i < got.size(); ++i)
                ASSERT_EQ(got[i], 0xa5) << "width " << width << " count "
                                        << count << " overran";
            got.resize(want.size());
            ASSERT_EQ(got, want) << "width " << width << " count " << count;

            // The word unpacker inverts it on the in-width bits.
            std::vector<uint64_t> unpacked(count);
            enc::detail::unpackBitsWord(got.data(), got.size(), width,
                                        count, unpacked.data());
            const uint64_t mask =
                width == 64 ? ~0ull : (uint64_t{1} << width) - 1;
            for (size_t i = 0; i < count; ++i)
                ASSERT_EQ(unpacked[i], values[i] & mask);
        }
    }
}

// --- package-merge -------------------------------------------------------

/** The node-vector package-merge the counting form replaced. */
std::array<uint8_t, 256>
packageMergeReference(const std::array<uint64_t, 256>& freq)
{
    struct Node {
        uint64_t weight;
        std::vector<uint16_t> syms;
    };
    std::vector<Node> items;
    for (uint32_t s = 0; s < 256; ++s)
        if (freq[s] > 0)
            items.push_back({freq[s], {static_cast<uint16_t>(s)}});
    std::sort(items.begin(), items.end(), [](const Node& a, const Node& b) {
        return a.weight != b.weight ? a.weight < b.weight
                                    : a.syms[0] < b.syms[0];
    });
    std::vector<Node> prev = items;
    for (int level = 1; level < kMaxHuffCodeLen; ++level) {
        std::vector<Node> packages;
        for (size_t i = 0; i + 1 < prev.size(); i += 2) {
            Node merged;
            merged.weight = prev[i].weight + prev[i + 1].weight;
            merged.syms = prev[i].syms;
            merged.syms.insert(merged.syms.end(), prev[i + 1].syms.begin(),
                               prev[i + 1].syms.end());
            packages.push_back(std::move(merged));
        }
        std::vector<Node> next;
        std::merge(items.begin(), items.end(),
                   std::make_move_iterator(packages.begin()),
                   std::make_move_iterator(packages.end()),
                   std::back_inserter(next),
                   [](const Node& a, const Node& b) {
                       return a.weight < b.weight;
                   });
        prev = std::move(next);
    }
    std::array<uint8_t, 256> lengths{};
    const size_t chosen = 2 * items.size() - 2;
    for (size_t i = 0; i < chosen && i < prev.size(); ++i)
        for (uint16_t s : prev[i].syms)
            ++lengths[s];
    return lengths;
}

/** @p active distinct symbols spread over 0..255, weights from @p weight. */
template <typename Weight>
std::array<uint64_t, 256>
histogram(size_t active, std::mt19937_64& rng, Weight weight)
{
    std::array<uint16_t, 256> symbols;
    for (uint16_t s = 0; s < 256; ++s)
        symbols[s] = s;
    std::shuffle(symbols.begin(), symbols.end(), rng);
    std::array<uint64_t, 256> freq{};
    for (size_t rank = 0; rank < active; ++rank)
        freq[symbols[rank]] = std::max<uint64_t>(1, weight(rank));
    return freq;
}

TEST(PackageMergeTest, MatchesNodeVectorReference)
{
    std::mt19937_64 rng(5);
    for (size_t active = 2; active <= 256; ++active) {
        const std::array<uint64_t, 256> shapes[] = {
            histogram(active, rng, [&](size_t) { return rng() % 100000; }),
            histogram(active, rng, [](size_t) { return uint64_t{42}; }),
            histogram(active, rng,
                      [&](size_t) { return 1 + rng() % 4; }),  // ties
            histogram(active, rng,
                      [](size_t rank) {
                          return static_cast<uint64_t>(
                              1e6 / std::pow(rank + 1.0, 1.2));
                      }),  // Zipf
            histogram(active, rng,
                      [](size_t rank) {
                          return rank == 0 ? uint64_t{1} << 40
                                           : uint64_t{1};
                      }),  // one heavy symbol
        };
        for (const auto& freq : shapes) {
            std::array<uint8_t, 256> got{};
            enc::detail::packageMerge(freq, got);
            ASSERT_EQ(got, packageMergeReference(freq))
                << active << " active symbols";
            uint64_t kraft = 0;
            for (uint8_t len : got) {
                ASSERT_LE(len, kMaxHuffCodeLen);
                if (len > 0)
                    kraft += uint64_t{1} << (kMaxHuffCodeLen - len);
            }
            ASSERT_EQ(kraft, uint64_t{1} << kMaxHuffCodeLen);
        }
    }
}

}  // namespace
}  // namespace presto
