/**
 * @file
 * In-repo canonical-Huffman entropy codec for PSF pages.
 *
 * The LZ codec (compress.h) stops at match coding: varint, dictionary
 * and dense-float pages whose bytes repeat rarely but are *skewed*
 * (small varints, clustered exponents, low-cardinality dictionary
 * indices) stay near-incompressible under it. kEntropy closes that gap
 * with a byte-granular, length-limited canonical Huffman coder, and
 * kLzEntropy applies it to a whole LZ stream (tokens, literals and
 * length extension bytes alike) so match coding and entropy coding
 * compound.
 *
 * Stream format:
 *
 *   [raw_count varint]            decoded byte count
 *   [mode u8]                     0 = huffman, 1 = single-symbol run
 *   mode 1: [symbol u8]           raw_count copies of symbol
 *   mode 0: [lane sizes]          kNumHuffLanes-1 varints: byte length
 *                                 of each lane bitstream but the last
 *                                 (the last is implied by the stream
 *                                 end)
 *           [code-length table]   128 bytes: 256 nibble-packed lengths
 *                                 (symbol 2i -> low nibble of byte i,
 *                                 symbol 2i+1 -> high nibble), each in
 *                                 0..kMaxHuffCodeLen
 *           [lane bitstreams]     kNumHuffLanes independently packed
 *                                 bitstreams, concatenated. Lane k
 *                                 codes input bytes [k*n/N, (k+1)*n/N)
 *                                 (exact bound: floor(n*k/N)).
 *                                 Canonical codes, bit-reversed, packed
 *                                 LSB-first; each lane's final byte is
 *                                 zero-padded independently
 *
 * Codes are length-limited to kMaxHuffCodeLen bits via package-merge,
 * so the table is always Kraft-complete and the decoder probes flat
 * 2^kMaxHuffCodeLen-entry lookup tables with no escape path. The lanes
 * exist purely for decode ILP: one Huffman chain is serial (probe ->
 * shift -> probe), so the decoder interleaves kNumHuffLanes
 * independent chains to hide that latency. An empty input is just the
 * varint 0.
 *
 * Two decode loops share that lane structure; each refill feeds five
 * probes per lane:
 *
 *   single-symbol  a uint16_t {length, symbol} table; one code and one
 *                  output byte per probe
 *   fused          a uint64_t table whose entries pack every whole code
 *                  (up to four) that fits in the probe window; one
 *                  4-byte store per probe
 *
 * The decoder picks the loop from the code-length table alone. With
 * mass[l] = count of length-l codes * 2^-l (the share of probe windows
 * whose first code has length l), P2 = sum of mass[l1] * mass[l2] over
 * l1 + l2 <= kMaxHuffCodeLen is the chance that a probe packs a second
 * code. The fused loop runs when P2 >= 1/2 and the output is at least
 * detail::kHuffFuseMinBytes; otherwise the single-symbol loop does.
 * Near-uniform histograms (codes of ~8 bits, such as RM1's sparse-id
 * pages) almost never pack a second code, and there the single-symbol
 * loop is the faster one; skewed ones (1-4 bit codes) decode faster
 * fused. Both loops produce the same bytes and share the careful tail
 * and every validation below.
 *
 * Decoding is fully validated: a code-length nibble above the limit, a
 * table whose Kraft sum is not exactly 2^kMaxHuffCodeLen, lane sizes
 * that disagree with the stream length, a lane that ends mid-code,
 * trailing bytes past a lane's final code, or non-zero padding bits
 * all return kCorruption and never read or write out of bounds.
 */
#ifndef PRESTO_COLUMNAR_ENTROPY_H_
#define PRESTO_COLUMNAR_ENTROPY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace presto {

/** Longest canonical Huffman code the format allows (table nibble max
 *  and the decoder's flat-lookup width). */
inline constexpr int kMaxHuffCodeLen = 11;

/** Independent bitstream lanes per kEntropy stream (decode ILP). */
inline constexpr uint32_t kNumHuffLanes = 4;

/** Parsed header of a kEntropy stream (no payload decode). */
struct HuffStreamInfo {
    uint64_t raw_bytes = 0;  ///< decoded size the stream advertises
    uint32_t table_bytes = 0;  ///< serialized code-length table size
    uint8_t mode = 0;          ///< 0 = huffman, 1 = single-symbol
    uint32_t header_bytes = 0;  ///< varint + mode + table/symbol bytes
};

namespace enc {

/**
 * Entropy-code @p in, appending to @p out (cleared first; capacity is
 * reused across calls). The result always decodes back to @p in
 * exactly; it is not guaranteed to be smaller (uniform bytes cost the
 * 130-byte header plus up to kMaxHuffCodeLen/8 per byte).
 */
void huffCompress(std::span<const uint8_t> in, std::vector<uint8_t>& out);

/** Convenience form of huffCompress(). */
std::vector<uint8_t> huffCompress(std::span<const uint8_t> in);

/**
 * Parse the stream header only: advertised raw size, mode, and the
 * serialized table size (what presto_cli surfaces as entropy-table
 * overhead). @return kCorruption for a truncated or malformed header.
 */
Status huffStreamInfo(std::span<const uint8_t> in, HuffStreamInfo& info);

/**
 * Decode a huffCompress() stream into exactly @p out.size() bytes.
 * @return kCorruption for any malformed input, including an advertised
 * raw size different from @p out.size().
 */
Status huffDecompress(std::span<const uint8_t> in, std::span<uint8_t> out);

namespace detail {

/**
 * Output size below which huffDecompress() always runs the
 * single-symbol loop: the fused table's 2^kMaxHuffCodeLen-entry build
 * does not pay for itself on a shorter decode.
 */
inline constexpr size_t kHuffFuseMinBytes = 8192;

/** The fast loop huffDecompress() runs on a stream (see the file comment). */
enum class HuffLoop : uint8_t {
    kNone,    ///< empty or single-symbol-run stream: no table probes
    kSingle,  ///< one code per probe of the 2^11-entry uint16_t table
    kFused,   ///< up to four codes per probe of the fused table
};

/**
 * The set-up half of huffDecompress(): parse and validate @p in's
 * header for an @p out_size-byte output and build the decode tables,
 * decoding nothing. Reports in @p loop which fast loop the full decode
 * would run. For the tests' path coverage and bench_decode's split of
 * entropy time into table build and probe loop.
 */
Status huffPrepareDecode(std::span<const uint8_t> in, size_t out_size,
                         HuffLoop& loop);

}  // namespace detail
}  // namespace enc
}  // namespace presto

#endif  // PRESTO_COLUMNAR_ENTROPY_H_
