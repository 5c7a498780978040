/**
 * @file
 * AVX-512 decode kernels, each used at SimdLevel::kAvx512 behind the
 * ISA bits it uses: the bit unpack needs BW (avx512BwSupported()), the
 * varint decoder also VBMI + VBMI2 (avx512ByteCompactionSupported()).
 * This translation unit is compiled with -mavx512f -mavx512bw; the
 * varint decoder alone adds VBMI/VBMI2 through a target attribute, so
 * no other code here can pick up those instructions. Reached solely
 * behind the runtime CPU checks via the dispatcher in fast_decode.cc.
 * Bit-identical to the AVX2/SWAR/reference tiers.
 *
 * Bit unpack: one group of eight w-bit values is exactly w bytes, so a
 * w-byte masked load (never past the packed block, since masked-off
 * bytes are not read) brings in a whole group, and two qword permutes
 * hand lane j its word (j * w) >> 6 and the next one. A variable
 * right/left shift pair joins them (a left count of 64 yields 0, so no
 * lane branches), then the mask and the frame-of-reference add.
 *
 * Varint decode: the AVX2 tier processes 32-byte windows with a serial
 * tzcnt chain over the continuation mask. This tier doubles the window
 * and replaces the chain with byte compaction: one vpcompressb turns
 * the 64-bit terminator mask into a dense list of terminator positions,
 * and one masked vpermb per eight varints aligns each varint's payload
 * bytes into its own 64-bit lane — the boundary scan becomes
 * data-parallel instead of a loop-carried bit-scan. Payloads then
 * compact from 8x7 LEB128 groups to values entirely in registers (the
 * 3-round compact7 sequence, 8 lanes at a time). The dictionary-index
 * decoder stays on the AVX2 kernels: its hot path is the 1..2-byte
 * splice plus a table gather that does not widen.
 */
#if defined(PRESTO_HAVE_X86_SIMD)

#include <immintrin.h>

#include <algorithm>

#include "columnar/fast_decode_internal.h"

namespace presto::enc::detail {

void
unpackBitsAvx512(const uint8_t* in, size_t in_bytes, size_t width,
                 size_t count, uint64_t* out, uint64_t base)
{
    alignas(64) uint64_t word[8];
    alignas(64) uint64_t next[8];
    alignas(64) uint64_t shift[8];
    alignas(64) uint64_t back[8];
    for (size_t j = 0; j < 8; ++j) {
        word[j] = (j * width) >> 6;
        next[j] = std::min<uint64_t>(word[j] + 1, 7);
        shift[j] = (j * width) & 63;
        back[j] = 64 - shift[j];
    }
    const auto load8 = [](const uint64_t* v) {
        return _mm512_load_si512(reinterpret_cast<const void*>(v));
    };
    const __m512i vword = load8(word);
    const __m512i vnext = load8(next);
    const __m512i vshift = load8(shift);
    const __m512i vback = load8(back);
    const __m512i vmask = _mm512_set1_epi64(
        static_cast<long long>(width == 64 ? ~0ull : (1ull << width) - 1));
    const __m512i vbase = _mm512_set1_epi64(static_cast<long long>(base));
    const __mmask64 bytes = width == 64 ? ~__mmask64{0}
                                        : (__mmask64{1} << width) - 1;
    const size_t groups = count / 8;
    for (size_t g = 0; g < groups; ++g) {
        const __m512i v = _mm512_maskz_loadu_epi8(bytes, in + g * width);
        const __m512i lo = _mm512_permutexvar_epi64(vword, v);
        const __m512i hi = _mm512_permutexvar_epi64(vnext, v);
        const __m512i x = _mm512_or_si512(_mm512_srlv_epi64(lo, vshift),
                                          _mm512_sllv_epi64(hi, vback));
        _mm512_storeu_si512(
            reinterpret_cast<void*>(out + 8 * g),
            _mm512_add_epi64(_mm512_and_si512(x, vmask), vbase));
    }
    unpackBitsWord(in, in_bytes, width, count - 8 * groups, out + 8 * groups,
                   base, 8 * groups * width);
}

__attribute__((target("avx512vbmi,avx512vbmi2"))) bool
decodeVarintsAvx512(const uint8_t* in, size_t size, size_t& pos,
                    uint64_t* out, size_t count)
{
    const __m512i viota = _mm512_set_epi8(
        63, 62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49, 48,
        47, 46, 45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 33, 32,
        31, 30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16,
        15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0);
    const __m512i vlo7 = _mm512_set1_epi8(0x7f);
    const __m512i m1a = _mm512_set1_epi64(0x007f007f007f007fll);
    const __m512i m1b = _mm512_set1_epi64(0x7f007f007f007f00ll);
    const __m512i m2a = _mm512_set1_epi64(0x00003fff00003fffll);
    const __m512i m2b = _mm512_set1_epi64(0x3fff00003fff0000ll);
    const __m512i m3a = _mm512_set1_epi64(0x000000000fffffffll);
    const __m512i m3b = _mm512_set1_epi64(0x0fffffff00000000ll);

    size_t i = 0;
    size_t p = pos;
    // The group loads via vpermb stay inside the 64-byte window; only
    // the rare 9..10-byte straddler check reads a word at the window's
    // last byte, hence the +72 guard.
    while (count - i >= 64 && p + 72 <= size) {
        const __m512i bytes =
            _mm512_loadu_si512(reinterpret_cast<const void*>(in + p));
        const uint64_t cont = _mm512_movepi8_mask(bytes);
        if (cont == 0) {
            // 64 single-byte varints: widen u8 -> u64, eight at a time.
            for (int k = 0; k < 8; ++k) {
                const __m128i low = _mm_loadl_epi64(
                    reinterpret_cast<const __m128i*>(in + p + 8 * k));
                _mm512_storeu_si512(
                    reinterpret_cast<void*>(out + i + 8 * k),
                    _mm512_cvtepu8_epi64(low));
            }
            i += 64;
            p += 64;
            continue;
        }
        const uint64_t term = ~cont;
        if (term == 0) {
            // 64 continuation bytes: a varint past the 10-byte limit.
            return decodeOneVarint(in, size, p, out[i]);
        }
        // vpcompressb: byte j of the result is the window position of
        // the j-th terminator — the whole boundary list in one step.
        alignas(64) uint8_t term_pos[64];
        _mm512_store_si512(reinterpret_cast<void*>(term_pos),
                           _mm512_maskz_compress_epi8(term, viota));
        const auto nvals = static_cast<size_t>(std::popcount(term));

        // Any varint longer than 8 bytes (terminator 8+ past its start)
        // needs the 64-bit overflow check; hand one 32-byte block to the
        // validating generic path and rescan. Rare: an 8-byte varint
        // already covers values up to 2^56.
        {
            size_t start = 0;
            bool overlong = false;
            for (size_t j = 0; j < nvals; ++j) {
                overlong |= (term_pos[j] - start) >= 8;
                start = term_pos[j] + 1;
            }
            if (overlong) {
                if (!decodeVarintBlock32(
                        in, size, static_cast<uint32_t>(cont), p, out, i,
                        count, [](uint64_t word, uint64_t keep) {
                            return _pext_u64(word, keep);
                        })) {
                    return false;
                }
                continue;
            }
        }

        // Eight varints per step: one masked vpermb aligns each
        // varint's payload bytes to the base of its own u64 lane (the
        // mask zeroes the bytes past each varint's length, so lane k
        // holds exactly varint k's bytes), then the payloads compact
        // 7-bit groups -> value across all eight lanes at once.
        size_t j = 0;
        size_t start = 0;
        for (; j + 8 <= nvals; j += 8) {
            alignas(64) uint64_t perm[8];
            uint64_t lane_mask = 0;
            for (int k = 0; k < 8; ++k) {
                const size_t end = term_pos[j + k];
                const size_t len = end - start + 1;
                perm[k] = start * 0x0101010101010101ull +
                          0x0706050403020100ull;
                lane_mask |= (len == 8 ? 0xffull : (1ull << len) - 1)
                             << (8 * k);
                start = end + 1;
            }
            __m512i x = _mm512_maskz_permutexvar_epi8(
                lane_mask,
                _mm512_load_si512(reinterpret_cast<const void*>(perm)),
                bytes);
            x = _mm512_and_si512(x, vlo7);
            x = _mm512_or_si512(
                _mm512_and_si512(x, m1a),
                _mm512_srli_epi64(_mm512_and_si512(x, m1b), 1));
            x = _mm512_or_si512(
                _mm512_and_si512(x, m2a),
                _mm512_srli_epi64(_mm512_and_si512(x, m2b), 2));
            x = _mm512_or_si512(
                _mm512_and_si512(x, m3a),
                _mm512_srli_epi64(_mm512_and_si512(x, m3b), 4));
            _mm512_storeu_si512(reinterpret_cast<void*>(out + i + j), x);
        }
        // Leftover varints of the window (< 8): plain word loads, pext.
        for (; j < nvals; ++j) {
            const size_t end = term_pos[j];
            const size_t len = end - start + 1;
            out[i + j] =
                _pext_u64(load64le(in + p + start), kVarintKeep[len]);
            start = end + 1;
        }
        i += nvals;
        // Bytes past the last terminator start a varint that straddles
        // the window edge; resume there.
        p += start;
    }
    pos = p;
    return decodeVarintsAvx2(in, size, pos, out + i, count - i);
}

}  // namespace presto::enc::detail

#endif  // PRESTO_HAVE_X86_SIMD
