#include "columnar/encoding.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#include "columnar/fast_decode_internal.h"

namespace presto {

const char*
encodingName(Encoding encoding)
{
    switch (encoding) {
      case Encoding::kPlainF32:    return "plain_f32";
      case Encoding::kPlainI64:    return "plain_i64";
      case Encoding::kVarint:      return "varint";
      case Encoding::kDeltaVarint: return "delta_varint";
      case Encoding::kRle:         return "rle";
      case Encoding::kDictionary:  return "dictionary";
      case Encoding::kBitPacked:   return "bit_packed";
    }
    return "?";
}

namespace enc {

namespace {

std::atomic<bool> g_fast_decode{true};

/** Distinct-value cap shared by the dictionary-flavored encoders. */
constexpr size_t kDictDistinctCap = 4096;

size_t
packedBytes(size_t count, size_t width)
{
    return (count * width + 7) / 8;
}

/** Append @p values packed @p width bits each (see detail::packBits). */
void
putPackedBits(std::vector<uint8_t>& out, std::span<const uint64_t> values,
              size_t width)
{
    const size_t start = out.size();
    out.resize(start + packedBytes(values.size(), width));
    detail::packBits(values.data(), values.size(), width, out.data() + start);
}

/**
 * Flat open-addressing map from value to first-seen ordinal: the
 * distinct-value pass of the dictionary-flavored encoders. One per
 * encoding thread, reused across pages (clear() rewrites only the
 * initial slots); it doubles past half full, so it holds any number of
 * distinct values.
 */
class OrdinalTable
{
  public:
    void
    clear()
    {
        slots_.assign(kInitialSlots, Slot{});
        shift_ = 64 - std::countr_zero(kInitialSlots);
        size_ = 0;
    }

    /** Distinct values inserted since clear(). */
    size_t size() const { return size_; }

    /**
     * Ordinal of @p v, assigning the next one (size() before the call)
     * when @p v is new; @p inserted tells which.
     */
    uint64_t
    insert(int64_t v, bool& inserted)
    {
        Slot* slot = probe(v);
        inserted = slot->ord_plus_one == 0;
        if (!inserted)
            return slot->ord_plus_one - 1;
        *slot = Slot{v, ++size_};
        if (2 * size_ > slots_.size())
            grow();
        return size_ - 1;
    }

  private:
    struct Slot {
        int64_t key = 0;
        uint64_t ord_plus_one = 0;  ///< 0 = empty
    };
    static constexpr size_t kInitialSlots = 256;

    Slot*
    probe(int64_t v)
    {
        const size_t mask = slots_.size() - 1;
        size_t i = (static_cast<uint64_t>(v) * 0x9e3779b97f4a7c15ull) >>
                   shift_;
        while (slots_[i].ord_plus_one != 0 && slots_[i].key != v)
            i = (i + 1) & mask;
        return &slots_[i];
    }

    void
    grow()
    {
        spare_.assign(2 * slots_.size(), Slot{});
        slots_.swap(spare_);
        --shift_;
        for (const Slot& s : spare_)
            if (s.ord_plus_one != 0)
                *probe(s.key) = s;
    }

    std::vector<Slot> slots_;
    std::vector<Slot> spare_;  ///< previous generation while growing
    int shift_ = 64;
    size_t size_ = 0;
};

/** This thread's reusable OrdinalTable, cleared. */
OrdinalTable&
clearedOrdinals()
{
    static thread_local OrdinalTable table;
    table.clear();
    return table;
}

/** Parsed and validated kBitPacked header (see encoding.h framing). */
struct BitPackedHeader {
    uint8_t mode = 0;
    int64_t base = 0;        ///< mode 0: min value; mode 2: min delta
    int64_t first = 0;       ///< mode 2: value[0]
    uint64_t dict_size = 0;  ///< mode 1
    size_t width = 0;
    size_t packed_pos = 0;   ///< payload offset of the packed block
};

/**
 * Parse everything before the packed block (decoding the mode-1
 * dictionary into @p dict) and validate the packed block's exact size
 * and zero trailing bits. Shared by the reference and dispatched
 * decoders so both reject exactly the same malformed pages.
 */
Status
parseBitPackedHeader(std::span<const uint8_t> payload, size_t count,
                     BitPackedHeader& h, std::vector<int64_t>& dict)
{
    if (payload.empty())
        return Status::corruption("truncated bit-packed page");
    h.mode = payload[0];
    size_t pos = 1;
    if (h.mode > 2)
        return Status::corruption("unknown bit-packed mode");
    if (h.mode == 0) {
        uint64_t zz = 0;
        PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, zz));
        h.base = unZigZag(zz);
    } else if (h.mode == 1) {
        PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, h.dict_size));
        if (h.dict_size > payload.size())
            return Status::corruption("dictionary size exceeds payload");
        dict.resize(h.dict_size);
        for (uint64_t i = 0; i < h.dict_size; ++i) {
            uint64_t u = 0;
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, u));
            dict[i] = unZigZag(u);
        }
    } else {
        if (count == 0)
            return Status::corruption("delta bit-packed page without values");
        uint64_t zz = 0;
        PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, zz));
        h.first = unZigZag(zz);
        PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, zz));
        h.base = unZigZag(zz);
    }
    if (pos >= payload.size())
        return Status::corruption("truncated bit-packed page");
    h.width = payload[pos++];
    if (h.width > 64)
        return Status::corruption("bit-packed width exceeds 64");
    const uint64_t packed_count = h.mode == 2 ? count - 1 : count;
    const uint64_t packed_bits = packed_count * h.width;
    const uint64_t packed = (packed_bits + 7) / 8;
    if (payload.size() - pos != packed)
        return Status::corruption("bit-packed payload size mismatch");
    if (packed_bits % 8 != 0) {
        const uint8_t last = payload[pos + packed - 1];
        if ((last >> (packed_bits % 8)) != 0)
            return Status::corruption("nonzero trailing bits in "
                                      "bit-packed page");
    }
    h.packed_pos = pos;
    return Status::okStatus();
}

}  // namespace

void
putVarint(std::vector<uint8_t>& out, uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<uint8_t>(value) | 0x80);
        value >>= 7;
    }
    out.push_back(static_cast<uint8_t>(value));
}

Status
getVarint(std::span<const uint8_t> in, size_t& pos, uint64_t& value)
{
    value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        if (pos >= in.size())
            return Status::corruption("truncated varint");
        const uint8_t byte = in[pos++];
        // The 10th byte holds bits 63..69; anything past bit 63 would
        // silently wrap, so reject instead.
        if (shift == 63 && (byte & 0x7f) > 1)
            return Status::corruption("varint overflows 64 bits");
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return Status::okStatus();
    }
    return Status::corruption("varint longer than 10 bytes");
}

std::vector<uint8_t>
encodePlainF32(std::span<const float> values)
{
    std::vector<uint8_t> out(values.size() * sizeof(float));
    if (!values.empty())
        std::memcpy(out.data(), values.data(), out.size());
    return out;
}

std::vector<uint8_t>
encodePlainI64(std::span<const int64_t> values)
{
    std::vector<uint8_t> out(values.size() * sizeof(int64_t));
    if (!values.empty())
        std::memcpy(out.data(), values.data(), out.size());
    return out;
}

std::vector<uint8_t>
encodeVarint(std::span<const int64_t> values)
{
    std::vector<uint8_t> out;
    out.reserve(values.size() * 3);
    for (int64_t v : values)
        putVarint(out, zigZag(v));
    return out;
}

std::vector<uint8_t>
encodeDeltaVarint(std::span<const int64_t> values)
{
    std::vector<uint8_t> out;
    out.reserve(values.size() * 2);
    uint64_t prev = 0;
    for (int64_t v : values) {
        // Unsigned subtraction: same bits as the signed delta wherever
        // that is defined, and well-defined for any int64 range.
        const uint64_t delta = static_cast<uint64_t>(v) - prev;
        putVarint(out, zigZag(static_cast<int64_t>(delta)));
        prev = static_cast<uint64_t>(v);
    }
    return out;
}

std::vector<uint8_t>
encodeRle(std::span<const int64_t> values)
{
    std::vector<uint8_t> out;
    size_t i = 0;
    while (i < values.size()) {
        size_t run = 1;
        while (i + run < values.size() && values[i + run] == values[i])
            ++run;
        putVarint(out, run);
        putVarint(out, zigZag(values[i]));
        i += run;
    }
    return out;
}

std::vector<uint8_t>
encodeDictionary(std::span<const int64_t> values)
{
    OrdinalTable& dict = clearedOrdinals();
    std::vector<int64_t> distinct;
    std::vector<uint64_t> indices;
    indices.reserve(values.size());
    for (int64_t v : values) {
        bool inserted = false;
        indices.push_back(dict.insert(v, inserted));
        if (inserted)
            distinct.push_back(v);
    }
    std::vector<uint8_t> out;
    putVarint(out, distinct.size());
    for (int64_t v : distinct)
        putVarint(out, zigZag(v));
    for (uint64_t idx : indices)
        putVarint(out, idx);
    return out;
}

std::vector<uint8_t>
encodeBitPacked(std::span<const int64_t> values)
{
    // Frame-of-reference candidate.
    int64_t lo = values.empty() ? 0 : values[0];
    int64_t hi = lo;
    for (int64_t v : values) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    const uint64_t range =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    const size_t direct_width = std::bit_width(range);
    const size_t direct_size =
        2 + varintLen(zigZag(lo)) + packedBytes(values.size(), direct_width);

    // Bit-packed-dictionary candidate (first-seen order, capped).
    OrdinalTable& seen = clearedOrdinals();
    std::vector<int64_t> distinct;
    std::vector<uint64_t> indices;
    indices.reserve(values.size());
    size_t entry_bytes = 0;
    bool dict_ok = true;
    for (int64_t v : values) {
        bool inserted = false;
        const uint64_t ordinal = seen.insert(v, inserted);
        if (inserted) {
            if (distinct.size() == kDictDistinctCap) {
                dict_ok = false;
                break;
            }
            distinct.push_back(v);
            entry_bytes += varintLen(zigZag(v));
        }
        indices.push_back(ordinal);
    }
    const size_t index_width =
        distinct.empty() ? 0 : std::bit_width(distinct.size() - 1);
    const size_t dict_size = 2 + varintLen(distinct.size()) + entry_bytes +
                             packedBytes(values.size(), index_width);

    // Frame-of-reference-over-deltas candidate (monotone offset arrays
    // and other near-constant-stride sequences).
    int64_t d_lo = 0;
    int64_t d_hi = 0;
    for (size_t i = 1; i < values.size(); ++i) {
        const auto d =
            static_cast<int64_t>(static_cast<uint64_t>(values[i]) -
                                 static_cast<uint64_t>(values[i - 1]));
        d_lo = i == 1 ? d : std::min(d_lo, d);
        d_hi = i == 1 ? d : std::max(d_hi, d);
    }
    const uint64_t d_range =
        static_cast<uint64_t>(d_hi) - static_cast<uint64_t>(d_lo);
    const size_t delta_width = std::bit_width(d_range);
    const size_t delta_size =
        values.size() < 2
            ? SIZE_MAX
            : 2 + varintLen(zigZag(values[0])) + varintLen(zigZag(d_lo)) +
                  packedBytes(values.size() - 1, delta_width);

    std::vector<uint8_t> out;
    const size_t best =
        std::min({direct_size, delta_size, dict_ok ? dict_size : SIZE_MAX});
    if (direct_size == best) {
        out.push_back(0);
        putVarint(out, zigZag(lo));
        out.push_back(static_cast<uint8_t>(direct_width));
        std::vector<uint64_t> deltas(values.size());
        for (size_t i = 0; i < values.size(); ++i) {
            deltas[i] = static_cast<uint64_t>(values[i]) -
                        static_cast<uint64_t>(lo);
        }
        putPackedBits(out, deltas, direct_width);
    } else if (delta_size == best) {
        out.push_back(2);
        putVarint(out, zigZag(values[0]));
        putVarint(out, zigZag(d_lo));
        out.push_back(static_cast<uint8_t>(delta_width));
        std::vector<uint64_t> excess(values.size() - 1);
        for (size_t i = 1; i < values.size(); ++i) {
            excess[i - 1] = static_cast<uint64_t>(values[i]) -
                            static_cast<uint64_t>(values[i - 1]) -
                            static_cast<uint64_t>(d_lo);
        }
        putPackedBits(out, excess, delta_width);
    } else {
        out.push_back(1);
        putVarint(out, distinct.size());
        for (int64_t v : distinct)
            putVarint(out, zigZag(v));
        out.push_back(static_cast<uint8_t>(index_width));
        putPackedBits(out, indices, index_width);
    }
    return out;
}

Status
decodeF32Into(Encoding encoding, std::span<const uint8_t> payload,
              size_t count, float* out)
{
    if (encoding != Encoding::kPlainF32)
        return Status::corruption("float page with non-float encoding");
    if (payload.size() != count * sizeof(float))
        return Status::corruption("plain_f32 payload size mismatch");
    if (count > 0)
        std::memcpy(out, payload.data(), payload.size());
    return Status::okStatus();
}

Status
decodeF32(Encoding encoding, std::span<const uint8_t> payload, size_t count,
          std::vector<float>& out)
{
    if (encoding != Encoding::kPlainF32)
        return Status::corruption("float page with non-float encoding");
    if (payload.size() != count * sizeof(float))
        return Status::corruption("plain_f32 payload size mismatch");
    out.resize(count);
    if (count > 0)
        std::memcpy(out.data(), payload.data(), payload.size());
    return Status::okStatus();
}

Status
decodeI64(Encoding encoding, std::span<const uint8_t> payload, size_t count,
          std::vector<int64_t>& out)
{
    std::vector<int64_t> dict_scratch;
    return decodeI64(encoding, payload, count, out, dict_scratch);
}

Status
decodeI64(Encoding encoding, std::span<const uint8_t> payload, size_t count,
          std::vector<int64_t>& out, std::vector<int64_t>& dict_scratch)
{
    if (!g_fast_decode.load(std::memory_order_relaxed))
        return decodeI64Reference(encoding, payload, count, out,
                                  dict_scratch);
    out.resize(count);
    return decodeI64Into(encoding, payload, count, out.data(), dict_scratch);
}

Status
decodeI64Into(Encoding encoding, std::span<const uint8_t> payload,
              size_t count, int64_t* out, std::vector<int64_t>& dict_scratch)
{
    size_t pos = 0;
    switch (encoding) {
      case Encoding::kPlainI64: {
        if (payload.size() != count * sizeof(int64_t))
            return Status::corruption("plain_i64 payload size mismatch");
        if (count > 0)
            std::memcpy(out, payload.data(), payload.size());
        return Status::okStatus();
      }
      case Encoding::kVarint: {
        auto* u = reinterpret_cast<uint64_t*>(out);
        if (!detail::decodeVarintsBatch(payload.data(), payload.size(), pos,
                                        u, count))
            return Status::corruption("truncated or malformed varint");
        for (size_t i = 0; i < count; ++i)
            out[i] = unZigZag(u[i]);
        break;
      }
      case Encoding::kDeltaVarint: {
        auto* u = reinterpret_cast<uint64_t*>(out);
        if (!detail::decodeVarintsBatch(payload.data(), payload.size(), pos,
                                        u, count))
            return Status::corruption("truncated or malformed varint");
        uint64_t prev = 0;
        for (size_t i = 0; i < count; ++i) {
            prev += static_cast<uint64_t>(unZigZag(u[i]));
            out[i] = static_cast<int64_t>(prev);
        }
        break;
      }
      case Encoding::kRle: {
        size_t filled = 0;
        while (filled < count) {
            uint64_t run = 0;
            uint64_t u = 0;
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, run));
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, u));
            if (run == 0 || run > count - filled)
                return Status::corruption("rle run overflows page");
            std::fill_n(out + filled, run, unZigZag(u));
            filled += run;
        }
        break;
      }
      case Encoding::kDictionary: {
        uint64_t dict_size = 0;
        PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, dict_size));
        if (dict_size > payload.size())
            return Status::corruption("dictionary size exceeds payload");
        dict_scratch.resize(dict_size);
        auto* du = reinterpret_cast<uint64_t*>(dict_scratch.data());
        if (!detail::decodeVarintsBatch(payload.data(), payload.size(), pos,
                                        du, dict_size))
            return Status::corruption("truncated or malformed varint");
        for (uint64_t i = 0; i < dict_size; ++i)
            dict_scratch[i] = unZigZag(du[i]);
        if (!detail::decodeDictIndices(payload.data(), payload.size(), pos,
                                       dict_scratch.data(), dict_size, out,
                                       count)) {
            return Status::corruption(
                "malformed dictionary index stream");
        }
        break;
      }
      case Encoding::kBitPacked: {
        BitPackedHeader h;
        PRESTO_RETURN_IF_ERROR(
            parseBitPackedHeader(payload, count, h, dict_scratch));
        auto* u = reinterpret_cast<uint64_t*>(out);
        if (h.mode == 2) {
            // Unpack the count-1 delta excesses into slots 1..count-1 so
            // the in-place prefix sum reads u[i] before writing out[i].
            detail::unpackBits(payload.data() + h.packed_pos,
                               payload.size() - h.packed_pos, h.width,
                               count - 1, u + 1, 0);
            const auto base = static_cast<uint64_t>(h.base);
            auto prev = static_cast<uint64_t>(h.first);
            out[0] = h.first;
            for (size_t i = 1; i < count; ++i) {
                prev += base + u[i];
                out[i] = static_cast<int64_t>(prev);
            }
            return Status::okStatus();
        }
        // Mode 0's frame-of-reference add happens in the unpack's store.
        detail::unpackBits(payload.data() + h.packed_pos,
                           payload.size() - h.packed_pos, h.width, count, u,
                           h.mode == 0 ? static_cast<uint64_t>(h.base) : 0);
        if (h.mode == 1 && !detail::gatherDict(dict_scratch.data(),
                                               h.dict_size, out, count)) {
            return Status::corruption("dictionary index out of range");
        }
        // The header parse validated the exact packed-block size.
        return Status::okStatus();
      }
      case Encoding::kPlainF32:
        return Status::corruption("int page with float encoding");
    }
    if (pos != payload.size())
        return Status::corruption("trailing bytes after decoded page");
    return Status::okStatus();
}

Status
decodeI64Reference(Encoding encoding, std::span<const uint8_t> payload,
                   size_t count, std::vector<int64_t>& out,
                   std::vector<int64_t>& dict_scratch)
{
    out.clear();
    out.reserve(count);
    size_t pos = 0;
    switch (encoding) {
      case Encoding::kPlainI64: {
        if (payload.size() != count * sizeof(int64_t))
            return Status::corruption("plain_i64 payload size mismatch");
        out.resize(count);
        if (count > 0)
            std::memcpy(out.data(), payload.data(), payload.size());
        return Status::okStatus();
      }
      case Encoding::kVarint: {
        for (size_t i = 0; i < count; ++i) {
            uint64_t u = 0;
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, u));
            out.push_back(unZigZag(u));
        }
        break;
      }
      case Encoding::kDeltaVarint: {
        uint64_t prev = 0;
        for (size_t i = 0; i < count; ++i) {
            uint64_t u = 0;
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, u));
            prev += static_cast<uint64_t>(unZigZag(u));
            out.push_back(static_cast<int64_t>(prev));
        }
        break;
      }
      case Encoding::kRle: {
        while (out.size() < count) {
            uint64_t run = 0;
            uint64_t u = 0;
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, run));
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, u));
            if (run == 0 || out.size() + run > count)
                return Status::corruption("rle run overflows page");
            out.insert(out.end(), run, unZigZag(u));
        }
        break;
      }
      case Encoding::kDictionary: {
        uint64_t dict_size = 0;
        PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, dict_size));
        if (dict_size > payload.size())
            return Status::corruption("dictionary size exceeds payload");
        std::vector<int64_t>& dict = dict_scratch;
        dict.clear();
        dict.reserve(dict_size);
        for (uint64_t i = 0; i < dict_size; ++i) {
            uint64_t u = 0;
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, u));
            dict.push_back(unZigZag(u));
        }
        for (size_t i = 0; i < count; ++i) {
            uint64_t idx = 0;
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, idx));
            if (idx >= dict.size())
                return Status::corruption("dictionary index out of range");
            out.push_back(dict[idx]);
        }
        break;
      }
      case Encoding::kBitPacked: {
        BitPackedHeader h;
        PRESTO_RETURN_IF_ERROR(
            parseBitPackedHeader(payload, count, h, dict_scratch));
        const uint8_t* packed = payload.data() + h.packed_pos;
        if (h.mode == 2) {
            auto prev = static_cast<uint64_t>(h.first);
            out.push_back(h.first);
            for (size_t i = 1; i < count; ++i) {
                const uint64_t u = detail::getBitsRef(
                    packed, static_cast<uint64_t>(i - 1) * h.width, h.width);
                prev += static_cast<uint64_t>(h.base) + u;
                out.push_back(static_cast<int64_t>(prev));
            }
            return Status::okStatus();
        }
        for (size_t i = 0; i < count; ++i) {
            const uint64_t u = detail::getBitsRef(
                packed, static_cast<uint64_t>(i) * h.width, h.width);
            if (h.mode == 0) {
                out.push_back(static_cast<int64_t>(
                    static_cast<uint64_t>(h.base) + u));
            } else {
                if (u >= h.dict_size)
                    return Status::corruption(
                        "dictionary index out of range");
                out.push_back(dict_scratch[u]);
            }
        }
        return Status::okStatus();
      }
      case Encoding::kPlainF32:
        return Status::corruption("int page with float encoding");
    }
    if (pos != payload.size())
        return Status::corruption("trailing bytes after decoded page");
    return Status::okStatus();
}

bool
setFastDecodeEnabled(bool enabled)
{
    return g_fast_decode.exchange(enabled, std::memory_order_relaxed);
}

bool
fastDecodeEnabled()
{
    return g_fast_decode.load(std::memory_order_relaxed);
}

Encoding
chooseIntEncoding(std::span<const int64_t> values)
{
    if (values.empty())
        return Encoding::kVarint;

    // One pass accumulating the exact encoded size of every candidate.
    OrdinalTable& seen = clearedOrdinals();
    size_t varint_bytes = 0;
    size_t delta_bytes = 0;
    size_t rle_bytes = 0;
    size_t dict_entry_bytes = 0;
    size_t dict_index_bytes = 0;
    bool monotone = true;
    bool dict_ok = true;
    int64_t lo = values[0];
    int64_t hi = values[0];
    int64_t d_lo = 0;
    int64_t d_hi = 0;
    int64_t run_value = values[0];
    size_t run_len = 0;
    uint64_t prev = 0;
    for (size_t i = 0; i < values.size(); ++i) {
        const int64_t v = values[i];
        varint_bytes += varintLen(zigZag(v));
        const uint64_t delta = static_cast<uint64_t>(v) - prev;
        delta_bytes += varintLen(zigZag(static_cast<int64_t>(delta)));
        prev = static_cast<uint64_t>(v);
        if (i > 0) {
            const auto d = static_cast<int64_t>(delta);
            d_lo = i == 1 ? d : std::min(d_lo, d);
            d_hi = i == 1 ? d : std::max(d_hi, d);
        }
        if (i > 0 && v < values[i - 1])
            monotone = false;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        if (v == run_value && i > 0) {
            ++run_len;
        } else {
            if (i > 0)
                rle_bytes += varintLen(run_len) + varintLen(zigZag(run_value));
            run_value = v;
            run_len = 1;
        }
        if (dict_ok) {
            bool inserted = false;
            const uint64_t ordinal = seen.insert(v, inserted);
            if (inserted && seen.size() > kDictDistinctCap)
                dict_ok = false;
            if (dict_ok) {
                if (inserted)
                    dict_entry_bytes += varintLen(zigZag(v));
                dict_index_bytes += varintLen(ordinal);
            }
        }
    }
    rle_bytes += varintLen(run_len) + varintLen(zigZag(run_value));

    const size_t n = values.size();
    const uint64_t range =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    size_t bp_bytes =
        2 + varintLen(zigZag(lo)) + packedBytes(n, std::bit_width(range));
    if (n >= 2) {
        // kBitPacked mode 2: frame-of-reference over consecutive deltas.
        const uint64_t d_range =
            static_cast<uint64_t>(d_hi) - static_cast<uint64_t>(d_lo);
        const size_t bp_delta = 2 + varintLen(zigZag(values[0])) +
                                varintLen(zigZag(d_lo)) +
                                packedBytes(n - 1, std::bit_width(d_range));
        bp_bytes = std::min(bp_bytes, bp_delta);
    }
    size_t dict_bytes = 0;
    if (dict_ok) {
        const size_t d = seen.size();  // >= 1 here
        const size_t index_width =
            std::bit_width(static_cast<uint64_t>(d - 1));
        const size_t bp_dict = 2 + varintLen(d) + dict_entry_bytes +
                               packedBytes(n, index_width);
        bp_bytes = std::min(bp_bytes, bp_dict);
        dict_bytes = varintLen(d) + dict_entry_bytes + dict_index_bytes;
    }

    // Candidates in decode-speed order; a later one must be strictly
    // smaller to win.
    Encoding best = Encoding::kPlainI64;
    size_t best_bytes = n * sizeof(int64_t);
    const auto consider = [&](Encoding e, size_t bytes) {
        if (bytes < best_bytes) {
            best = e;
            best_bytes = bytes;
        }
    };
    consider(Encoding::kBitPacked, bp_bytes);
    consider(Encoding::kRle, rle_bytes);
    if (monotone)
        consider(Encoding::kDeltaVarint, delta_bytes);
    if (dict_ok)
        consider(Encoding::kDictionary, dict_bytes);
    consider(Encoding::kVarint, varint_bytes);
    return best;
}

namespace detail {

void
packBits(const uint64_t* values, size_t count, size_t width, uint8_t* out)
{
    if (width == 0)
        return;
    const uint64_t mask = width == 64 ? ~0ull : (1ull << width) - 1;
    // Whole 64-bit words go out as they fill; a value straddling a
    // word boundary leaves its high bits in the next word.
    uint64_t word = 0;
    size_t fill = 0;  // bits pending in word, < 64
    for (size_t i = 0; i < count; ++i) {
        const uint64_t v = values[i] & mask;
        word |= v << fill;
        fill += width;
        if (fill >= 64) {
            std::memcpy(out, &word, sizeof(word));
            out += sizeof(word);
            fill -= 64;
            word = fill == 0 ? 0 : v >> (width - fill);
        }
    }
    for (; fill > 0; fill -= std::min<size_t>(fill, 8)) {
        *out++ = static_cast<uint8_t>(word);
        word >>= 8;
    }
}

}  // namespace detail
}  // namespace enc
}  // namespace presto
