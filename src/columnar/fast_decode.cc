/**
 * @file
 * Portable (SWAR) batch decode kernels and the SIMD-level dispatch used
 * by encoding.cc. See fast_decode_internal.h for the tier contract.
 */
#include "columnar/fast_decode_internal.h"

#include <algorithm>

#include "ops/simd.h"

namespace presto::enc::detail {

bool
decodeVarintsSwar(const uint8_t* in, size_t size, size_t& pos, uint64_t* out,
                  size_t count)
{
    size_t i = 0;
    size_t p = pos;
    while (i < count && p + 40 <= size) {
        const uint32_t cont = msbMask8(load64le(in + p)) |
                              msbMask8(load64le(in + p + 8)) << 8 |
                              msbMask8(load64le(in + p + 16)) << 16 |
                              msbMask8(load64le(in + p + 24)) << 24;
        if (cont == 0) {
            // 32 single-byte varints (the small-delta common case).
            const size_t take = count - i < 32 ? count - i : 32;
            for (size_t k = 0; k < take; ++k)
                out[i + k] = in[p + k];
            i += take;
            p += take;
            continue;
        }
        if (!decodeVarintBlock32(in, size, cont, p, out, i, count,
                                 [](uint64_t word, uint64_t keep) {
                                     return compact7(word & keep);
                                 })) {
            return false;
        }
    }
    // Buffer tail: byte-exact, so we never load past the payload.
    while (i < count) {
        if (!decodeOneVarint(in, size, p, out[i]))
            return false;
        ++i;
    }
    pos = p;
    return true;
}

bool
decodeDictIndicesSwar(const uint8_t* in, size_t size, size_t& pos,
                      const int64_t* dict, uint64_t dict_size, int64_t* out,
                      size_t count)
{
    size_t i = 0;
    size_t p = pos;
    while (i < count && p + 40 <= size) {
        const uint32_t cont = msbMask8(load64le(in + p)) |
                              msbMask8(load64le(in + p + 8)) << 8 |
                              msbMask8(load64le(in + p + 16)) << 16 |
                              msbMask8(load64le(in + p + 24)) << 24;
        if (!dictVarintBlock32(in, size, cont, p, dict, dict_size, out, i,
                               count, [](uint64_t word, uint64_t keep) {
                                   return compact7(word & keep);
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
unpackBitsWord(const uint8_t* in, size_t in_bytes, size_t width, size_t count,
               uint64_t* out, uint64_t base, uint64_t start_bit)
{
    if (width == 0) {
        std::fill_n(out, count, base);
        return;
    }
    const uint64_t mask = width == 64 ? ~0ull : (1ull << width) - 1;
    size_t i = 0;
    uint64_t bit = start_bit;
    if (width <= 57) {
        // (bit & 7) + width <= 64, so one unaligned word covers any value.
        while (i < count && (bit >> 3) + 8 <= in_bytes) {
            out[i++] =
                base + ((load64le(in + (bit >> 3)) >> (bit & 7)) & mask);
            bit += width;
        }
    } else {
        // Values can span 9 bytes; stitch two words.
        while (i < count && (bit >> 3) + 16 <= in_bytes) {
            const size_t byte = bit >> 3;
            const size_t shift = bit & 7;
            uint64_t v = load64le(in + byte) >> shift;
            if (shift != 0)
                v |= load64le(in + byte + 8) << (64 - shift);
            out[i++] = base + (v & mask);
            bit += width;
        }
    }
    for (; i < count; ++i, bit += width)
        out[i] = base + getBitsRef(in, bit, width);
}

bool
gatherDictScalar(const int64_t* dict, uint64_t dict_size, int64_t* inout,
                 size_t count)
{
    const auto* idx = reinterpret_cast<const uint64_t*>(inout);
    for (size_t i = 0; i < count; ++i) {
        const uint64_t k = idx[i];
        if (k >= dict_size)
            return false;
        inout[i] = dict[k];
    }
    return true;
}

// --- dispatch ------------------------------------------------------------
// Two kernels have a true AVX-512 tier, each behind the ISA bits it
// uses on top of kAvx512: plain varint decode (vpcompressb boundary
// extraction; the byte-compaction bits) and bit unpack (a w-byte masked
// load; BW). The dictionary kernels map kAvx512 to the AVX2 variants:
// their hot loop is a table gather that a 512-bit register does not
// widen.

bool
decodeVarintsBatch(const uint8_t* in, size_t size, size_t& pos, uint64_t* out,
                   size_t count)
{
#if defined(PRESTO_HAVE_X86_SIMD)
    const SimdLevel level = activeSimdLevel();
    if (level == SimdLevel::kAvx512 && avx512ByteCompactionSupported())
        return decodeVarintsAvx512(in, size, pos, out, count);
    if (level != SimdLevel::kScalar)
        return decodeVarintsAvx2(in, size, pos, out, count);
#endif
    return decodeVarintsSwar(in, size, pos, out, count);
}

bool
decodeDictIndices(const uint8_t* in, size_t size, size_t& pos,
                  const int64_t* dict, uint64_t dict_size, int64_t* out,
                  size_t count)
{
#if defined(PRESTO_HAVE_X86_SIMD)
    if (activeSimdLevel() != SimdLevel::kScalar)
        return decodeDictIndicesAvx2(in, size, pos, dict, dict_size, out,
                                     count);
#endif
    return decodeDictIndicesSwar(in, size, pos, dict, dict_size, out, count);
}

void
unpackBits(const uint8_t* in, size_t in_bytes, size_t width, size_t count,
           uint64_t* out, uint64_t base)
{
#if defined(PRESTO_HAVE_X86_SIMD)
    const SimdLevel level = activeSimdLevel();
    if (level == SimdLevel::kAvx512 && avx512BwSupported())
        return unpackBitsAvx512(in, in_bytes, width, count, out, base);
    if (level != SimdLevel::kScalar)
        return unpackBitsAvx2(in, in_bytes, width, count, out, base);
#endif
    unpackBitsWord(in, in_bytes, width, count, out, base);
}

bool
gatherDict(const int64_t* dict, uint64_t dict_size, int64_t* inout,
           size_t count)
{
#if defined(PRESTO_HAVE_X86_SIMD)
    if (activeSimdLevel() != SimdLevel::kScalar)
        return gatherDictAvx2(dict, dict_size, inout, count);
#endif
    return gatherDictScalar(dict, dict_size, inout, count);
}

}  // namespace presto::enc::detail
