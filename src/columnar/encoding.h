/**
 * @file
 * Value encodings for columnar pages.
 *
 * The columnar file format (our stand-in for Apache Parquet) stores each
 * page's payload with one of these encodings:
 *  - kPlainF32 / kPlainI64: raw little-endian values.
 *  - kVarint:   LEB128 unsigned varints (ZigZag applied for signed data).
 *  - kDeltaVarint: first value ZigZag-varint, then ZigZag-varint deltas;
 *    compact for monotonically increasing offset arrays.
 *  - kRle: (run_length varint, value ZigZag-varint) pairs; compact for
 *    label columns and repeated lengths.
 *  - kDictionary: distinct-value dictionary (ZigZag-varint) followed by
 *    varint indices; compact for Zipf-popular categorical ids.
 *  - kBitPacked: fixed-width bit-packed values; compact for dictionary
 *    indices and small-range columns, and the cheapest non-plain
 *    encoding to decode (SIMD shift/mask, no byte-by-byte parse).
 *
 * kBitPacked payload framing (all multi-bit fields LSB-first):
 *
 *   [mode u8]
 *   mode 0 (frame-of-reference):
 *     [base  ZigZag-varint]            minimum value of the page
 *     [width u8, 0..64]                bits per packed delta
 *     [packed (value - base) deltas]   ceil(count * width / 8) bytes
 *   mode 1 (bit-packed dictionary):
 *     [dict_size varint]
 *     [dict entries, ZigZag-varint]    dict_size values, first-seen order
 *     [width u8, 0..64]                bits per packed index
 *     [packed indices]                 ceil(count * width / 8) bytes
 *   mode 2 (frame-of-reference over deltas; needs count >= 1):
 *     [first ZigZag-varint]            value[0]
 *     [base  ZigZag-varint]            minimum consecutive delta
 *     [width u8, 0..64]                bits per packed delta excess
 *     [packed (delta - base) excesses] ceil((count-1) * width / 8) bytes;
 *     value[i] = value[i-1] + base + excess[i-1] — near-constant-stride
 *     sequences (monotone offset arrays) pack in a few bits per value
 *     yet keep the shift/mask decode path instead of byte-wise varints.
 *
 * The packed block's byte length must match exactly, and unused bits of
 * the final byte must be zero; violations (as well as mode > 2,
 * width > 64, an index >= dict_size, or a mode-2 page with count == 0)
 * decode to kCorruption. Deltas use two's-complement wraparound
 * (base + delta mod 2^64), so any int64 range round-trips.
 *
 * Decoding is runtime-dispatched over SWAR/AVX2 kernels bit-identical
 * to the byte-wise reference decoders (see fast_decode_internal.h);
 * setFastDecodeEnabled(false) pins the reference path for tests and
 * benchmarks.
 */
#ifndef PRESTO_COLUMNAR_ENCODING_H_
#define PRESTO_COLUMNAR_ENCODING_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace presto {

/** Page payload encoding identifiers (stable on-disk values). */
enum class Encoding : uint8_t {
    kPlainF32 = 0,
    kPlainI64 = 1,
    kVarint = 2,
    kDeltaVarint = 3,
    kRle = 4,
    kDictionary = 5,
    kBitPacked = 6,
};

/** Human-readable encoding name. */
const char* encodingName(Encoding encoding);

namespace enc {

// --- primitive varint helpers (also used by the file footer) -------------

/** Append an unsigned LEB128 varint. */
void putVarint(std::vector<uint8_t>& out, uint64_t value);

/**
 * Read an unsigned LEB128 varint at @p pos (advanced past the varint).
 * @return kCorruption on truncated, over-long (> 10 bytes), or
 * overflowing (significant bits past 2^64) input.
 */
Status getVarint(std::span<const uint8_t> in, size_t& pos, uint64_t& value);

/** Encoded size of putVarint(value) in bytes (1..10). */
constexpr size_t
varintLen(uint64_t value)
{
    // One byte per started 7-bit group; zero still takes one byte.
    return (static_cast<size_t>(std::bit_width(value | 1)) + 6) / 7;
}

/** ZigZag-map a signed value to unsigned. */
constexpr uint64_t
zigZag(int64_t v)
{
    return (static_cast<uint64_t>(v) << 1) ^
           static_cast<uint64_t>(v >> 63);
}

/** Inverse of zigZag(). */
constexpr int64_t
unZigZag(uint64_t v)
{
    return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

// --- whole-buffer encoders ------------------------------------------------

std::vector<uint8_t> encodePlainF32(std::span<const float> values);
std::vector<uint8_t> encodePlainI64(std::span<const int64_t> values);
std::vector<uint8_t> encodeVarint(std::span<const int64_t> values);
std::vector<uint8_t> encodeDeltaVarint(std::span<const int64_t> values);
std::vector<uint8_t> encodeRle(std::span<const int64_t> values);
std::vector<uint8_t> encodeDictionary(std::span<const int64_t> values);

/** Encode with the smallest of the three kBitPacked modes (see framing). */
std::vector<uint8_t> encodeBitPacked(std::span<const int64_t> values);

/**
 * Decode @p count floats; only kPlainF32 is valid for float payloads.
 */
Status decodeF32(Encoding encoding, std::span<const uint8_t> payload,
                 size_t count, std::vector<float>& out);

/** Same, into caller-owned storage with room for @p count floats. */
Status decodeF32Into(Encoding encoding, std::span<const uint8_t> payload,
                     size_t count, float* out);

/**
 * Decode @p count int64 values with any integer encoding.
 */
Status decodeI64(Encoding encoding, std::span<const uint8_t> payload,
                 size_t count, std::vector<int64_t>& out);

/**
 * Same, with a caller-owned scratch buffer for the page dictionary so
 * repeated decodes reuse its capacity (allocation-free steady state).
 */
Status decodeI64(Encoding encoding, std::span<const uint8_t> payload,
                 size_t count, std::vector<int64_t>& out,
                 std::vector<int64_t>& dict_scratch);

/**
 * Dispatched decode into caller-owned storage with room for @p count
 * values (what decodeI64 and the page-parallel reader run). On failure
 * the output contents are unspecified.
 */
Status decodeI64Into(Encoding encoding, std::span<const uint8_t> payload,
                     size_t count, int64_t* out,
                     std::vector<int64_t>& dict_scratch);

/**
 * Byte-wise reference decoder: the semantics oracle the dispatched
 * kernels are differentially tested against (identical outputs and
 * identical accept/reject decisions).
 */
Status decodeI64Reference(Encoding encoding,
                          std::span<const uint8_t> payload, size_t count,
                          std::vector<int64_t>& out,
                          std::vector<int64_t>& dict_scratch);

/**
 * Test/bench hook: when disabled, decodeI64 routes through
 * decodeI64Reference instead of the dispatched kernels.
 * @return the previous state.
 */
bool setFastDecodeEnabled(bool enabled);

/** True when decodeI64 uses the dispatched kernels (the default). */
bool fastDecodeEnabled();

/**
 * Pick the smallest integer encoding for @p values by computing exact
 * encoded sizes for every candidate in one pass (ties go to the
 * cheaper-to-decode encoding).
 */
Encoding chooseIntEncoding(std::span<const int64_t> values);

}  // namespace enc
}  // namespace presto

#endif  // PRESTO_COLUMNAR_ENCODING_H_
