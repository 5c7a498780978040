/**
 * @file
 * AVX2 decode kernels (used at SimdLevel::kAvx2 and kAvx512). Compiled
 * with -mavx2 only in this translation unit; reached solely behind the
 * runtime CPU check in ops/simd.cc via the dispatchers in
 * fast_decode.cc. Bit-identical to the SWAR/reference tiers.
 */
#if defined(PRESTO_HAVE_X86_SIMD)

#include <immintrin.h>

#include "columnar/fast_decode_internal.h"

namespace presto::enc::detail {

bool
decodeVarintsAvx2(const uint8_t* in, size_t size, size_t& pos, uint64_t* out,
                  size_t count)
{
    size_t i = 0;
    size_t p = pos;
    while (count - i >= 32 && p + 40 <= size) {
        const __m256i bytes =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + p));
        const auto msbs =
            static_cast<uint32_t>(_mm256_movemask_epi8(bytes));
        if (msbs == 0) {
            // 32 single-byte varints: widen u8 -> u64, four at a time.
            for (int k = 0; k < 8; ++k) {
                uint32_t quad;
                std::memcpy(&quad, in + p + 4 * k, sizeof(quad));
                const __m256i wide = _mm256_cvtepu8_epi64(
                    _mm_cvtsi32_si128(static_cast<int>(quad)));
                _mm256_storeu_si256(
                    reinterpret_cast<__m256i*>(out + i + 4 * k), wide);
            }
            i += 32;
            p += 32;
            continue;
        }
        // Mixed widths: the movemask is exactly the block's
        // continuation mask, so decode the whole block off it. pext
        // selects and compacts the payload bits in one instruction.
        if (!decodeVarintBlock32(in, size, msbs, p, out, i, count,
                                 [](uint64_t word, uint64_t keep) {
                                     return _pext_u64(word, keep);
                                 })) {
            return false;
        }
    }
    pos = p;
    return decodeVarintsSwar(in, size, pos, out + i, count - i);
}

namespace {

/**
 * Shuffle recipe for one 8-byte chunk whose varints are all 1..2 bytes
 * (continuation mask has no two adjacent bits): pshufb control that
 * drops each varint into its own u16 lane (low byte first, 0x80 zeroes
 * the absent high byte of 1-byte varints and unused lanes).
 */
struct DictChunk {
    uint8_t count;     ///< varints that terminate inside the chunk
    uint8_t advance;   ///< 8, or 7 when byte 7 starts a straddler
    uint8_t ctrl[16];  ///< _mm_shuffle_epi8 control
};

consteval std::array<DictChunk, 256>
makeDictChunks()
{
    std::array<DictChunk, 256> table{};
    for (int mask = 0; mask < 256; ++mask) {
        if ((mask & (mask << 1)) != 0)
            continue;  // has a 3+-byte varint; the generic path runs
        DictChunk e{};
        for (auto& c : e.ctrl)
            c = 0x80;
        int start = 0;
        while (start < 8) {
            const bool two = ((mask >> start) & 1) != 0;
            if (two && start == 7)
                break;  // straddles the chunk edge
            e.ctrl[2 * e.count] = static_cast<uint8_t>(start);
            if (two)
                e.ctrl[2 * e.count + 1] = static_cast<uint8_t>(start + 1);
            ++e.count;
            start += two ? 2 : 1;
        }
        e.advance = static_cast<uint8_t>(start);
        table[static_cast<size_t>(mask)] = e;
    }
    return table;
}

constexpr std::array<DictChunk, 256> kDictChunks = makeDictChunks();

}  // namespace

bool
decodeDictIndicesAvx2(const uint8_t* in, size_t size, size_t& pos,
                      const int64_t* dict, uint64_t dict_size, int64_t* out,
                      size_t count)
{
    size_t i = 0;
    size_t p = pos;
    // A 2-byte varint caps an index at 0x3fff, so lanes fit int16 and a
    // signed compare against min(dict_size, 0x4000) - 1 validates them
    // (dict_size == 0 yields -1, rejecting everything, as it must).
    const auto limit = static_cast<int16_t>(
        (dict_size < 0x4000 ? dict_size : uint64_t{0x4000}) - 1);
    const __m128i vlimit = _mm_set1_epi16(limit);
    const __m128i lo7 = _mm_set1_epi16(0x007f);
    const __m128i hi7 = _mm_set1_epi16(0x3f80);
    // Expand one conforming chunk at in + p + q into eight u16 lanes.
    const auto splice = [&](size_t p_, size_t q, uint32_t m8) {
        const __m128i bytes = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(in + p_ + q));
        const __m128i raw = _mm_shuffle_epi8(
            bytes, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                       kDictChunks[m8].ctrl)));
        // u16 lane = b0 | (b1 << 8), b1 already < 0x80: splice the two
        // 7-bit groups.
        return _mm_or_si128(_mm_and_si128(raw, lo7),
                            _mm_and_si128(_mm_srli_epi16(raw, 1), hi7));
    };
    // Gather all eight lanes unconditionally — fixed trip count; the
    // lanes past the chunk's count hold index 0, and later writes
    // overwrite their slots (output offsets only advance past the real
    // values).
    const auto gather8 = [&](int64_t* dst, __m128i v) {
        alignas(16) uint16_t idx[8];
        _mm_store_si128(reinterpret_cast<__m128i*>(idx), v);
        for (int k = 0; k < 8; ++k)
            dst[k] = dict[idx[k]];
    };
    // Four 8-byte chunks per iteration, all off one wide movemask: the
    // chunk boundaries (advance = 8, or 7 when byte 7 starts a
    // straddler) come from pure ALU on the mask, so the serial
    // inter-chunk dependency is a few cycles and the shuffles, range
    // checks and gathers of all four chunks overlap.
    while (count - i >= 32 && p + 40 <= size) {
        const __m256i wide =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + p));
        const auto m32 =
            static_cast<uint32_t>(_mm256_movemask_epi8(wide));
        const uint32_t ma = m32 & 0xffu;
        const size_t qb = 8 - (ma >> 7);
        const uint32_t mb = (m32 >> qb) & 0xffu;
        const size_t qc = qb + 8 - (mb >> 7);
        const uint32_t mc = (m32 >> qc) & 0xffu;
        const size_t qd = qc + 8 - (mc >> 7);
        const uint32_t md = (m32 >> qd) & 0xffu;
        if (((ma & (ma << 1)) | (mb & (mb << 1)) | (mc & (mc << 1)) |
             (md & (md << 1))) != 0) {
            // A 3+-byte varint (an overlong index encoding) somewhere in
            // the window: decode one 32-byte block generically, then
            // retry (nothing was emitted for this window yet).
            if (!dictVarintBlock32(in, size, m32, p, dict, dict_size, out,
                                   i, count, [](uint64_t word, uint64_t keep) {
                                       return _pext_u64(word, keep);
                                   })) {
                return false;
            }
            continue;
        }
        const __m128i va = splice(p, 0, ma);
        const __m128i vb = splice(p, qb, mb);
        const __m128i vc = splice(p, qc, mc);
        const __m128i vd = splice(p, qd, md);
        const __m128i over = _mm_or_si128(
            _mm_or_si128(_mm_cmpgt_epi16(va, vlimit),
                         _mm_cmpgt_epi16(vb, vlimit)),
            _mm_or_si128(_mm_cmpgt_epi16(vc, vlimit),
                         _mm_cmpgt_epi16(vd, vlimit)));
        if (_mm_movemask_epi8(over) != 0)
            return false;  // index out of range (unused lanes are 0)
        const size_t ob = kDictChunks[ma].count;
        const size_t oc = ob + kDictChunks[mb].count;
        const size_t od = oc + kDictChunks[mc].count;
        gather8(out + i, va);
        gather8(out + i + ob, vb);
        gather8(out + i + oc, vc);
        gather8(out + i + od, vd);
        i += od + kDictChunks[md].count;
        p += qd + 8 - (md >> 7);
    }
    // Remainder in single chunks (same recipe, one at a time).
    while (count - i >= 8 && p + 40 <= size) {
        const __m128i bytes =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + p));
        const auto m8 =
            static_cast<uint32_t>(_mm_movemask_epi8(bytes)) & 0xffu;
        if ((m8 & (m8 << 1)) != 0) {
            const __m256i wide = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(in + p));
            const auto msbs =
                static_cast<uint32_t>(_mm256_movemask_epi8(wide));
            if (!dictVarintBlock32(in, size, msbs, p, dict, dict_size, out,
                                   i, count, [](uint64_t word, uint64_t keep) {
                                       return _pext_u64(word, keep);
                                   })) {
                return false;
            }
            continue;
        }
        const __m128i v = splice(p, 0, m8);
        if (_mm_movemask_epi8(_mm_cmpgt_epi16(v, vlimit)) != 0)
            return false;
        gather8(out + i, v);
        i += kDictChunks[m8].count;
        p += 8 - (m8 >> 7);
    }
    while (i < count && p + 40 <= size) {
        const __m256i bytes =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + p));
        const auto msbs =
            static_cast<uint32_t>(_mm256_movemask_epi8(bytes));
        if (!dictVarintBlock32(in, size, msbs, p, dict, dict_size, out, i,
                               count, [](uint64_t word, uint64_t keep) {
                                   return _pext_u64(word, keep);
                               })) {
            return false;
        }
    }
    while (i < count) {
        uint64_t idx = 0;
        if (!decodeOneVarint(in, size, p, idx) || idx >= dict_size)
            return false;
        out[i++] = dict[idx];
    }
    pos = p;
    return true;
}

void
unpackBitsAvx2(const uint8_t* in, size_t in_bytes, size_t width, size_t count,
               uint64_t* out, uint64_t base)
{
    // The group-of-eight schedule (fast_decode_internal.h): lane j reads
    // the 64-bit word at byte (j * w) >> 3 of its group and shifts it by
    // (j * w) & 7. Above 56 bits a value can span 9 bytes, so the word
    // one byte on is stitched in too, shifted left by 8 - shift bits:
    // where the two words overlap they hold the same bits.
    alignas(32) int64_t off[8];
    alignas(32) int64_t shift[8];
    alignas(32) int64_t back[8];
    for (size_t j = 0; j < 8; ++j) {
        off[j] = static_cast<int64_t>((j * width) >> 3);
        shift[j] = static_cast<int64_t>((j * width) & 7);
        back[j] = 8 - shift[j];
    }
    const bool stitch = width > 56;
    // Bytes one group's gathers touch past the group's first byte.
    const size_t reach = static_cast<size_t>(off[7]) + (stitch ? 9 : 8);
    const auto load4 = [](const int64_t* v) {
        return _mm256_load_si256(reinterpret_cast<const __m256i*>(v));
    };
    const __m256i voff[2] = {load4(off), load4(off + 4)};
    const __m256i vshift[2] = {load4(shift), load4(shift + 4)};
    const __m256i vback[2] = {load4(back), load4(back + 4)};
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i vmask = _mm256_set1_epi64x(
        static_cast<long long>(width == 64 ? ~0ull : (1ull << width) - 1));
    const __m256i vbase = _mm256_set1_epi64x(static_cast<long long>(base));
    size_t i = 0;
    for (; i + 8 <= count && (i >> 3) * width + reach <= in_bytes; i += 8) {
        const auto* group =
            reinterpret_cast<const long long*>(in + (i >> 3) * width);
        for (int h = 0; h < 2; ++h) {
            __m256i v = _mm256_srlv_epi64(
                _mm256_i64gather_epi64(group, voff[h], 1), vshift[h]);
            if (stitch) {
                v = _mm256_or_si256(
                    v, _mm256_sllv_epi64(
                           _mm256_i64gather_epi64(
                               group, _mm256_add_epi64(voff[h], one), 1),
                           vback[h]));
            }
            v = _mm256_add_epi64(_mm256_and_si256(v, vmask), vbase);
            _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4 * h),
                                v);
        }
    }
    unpackBitsWord(in, in_bytes, width, count - i, out + i, base, i * width);
}

bool
gatherDictAvx2(const int64_t* dict, uint64_t dict_size, int64_t* inout,
               size_t count)
{
    // Validate before gathering (the gather itself must not read out of
    // bounds). OR-reduce gives a cheap conservative bound: if the OR of
    // all indices is < dict_size then every index is.
    const auto* idx = reinterpret_cast<const uint64_t*>(inout);
    __m256i vor = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        vor = _mm256_or_si256(
            vor,
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i)));
    }
    alignas(32) uint64_t ors[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(ors), vor);
    uint64_t any = ors[0] | ors[1] | ors[2] | ors[3];
    for (; i < count; ++i)
        any |= idx[i];
    if (any >= dict_size) {
        // Out-of-range index or an OR false positive (e.g. indices 1|2
        // with dict_size 3); the element-checked path settles it.
        return gatherDictScalar(dict, dict_size, inout, count);
    }
    for (i = 0; i + 4 <= count; i += 4) {
        const __m256i vi =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + i));
        const __m256i gathered = _mm256_i64gather_epi64(
            reinterpret_cast<const long long*>(dict), vi, 8);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(inout + i), gathered);
    }
    for (; i < count; ++i)
        inout[i] = dict[idx[i]];
    return true;
}

}  // namespace presto::enc::detail

#endif  // PRESTO_HAVE_X86_SIMD
