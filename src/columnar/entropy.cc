#include "columnar/entropy.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "columnar/encoding.h"
#include "columnar/fast_decode_internal.h"

namespace presto {
namespace {

constexpr uint32_t kNumSymbols = 256;
constexpr uint32_t kTableBytes = kNumSymbols / 2;  // nibble-packed
constexpr uint32_t kDecodeSize = 1u << kMaxHuffCodeLen;
constexpr uint8_t kModeHuffman = 0;
constexpr uint8_t kModeSingle = 1;

uint32_t
reverseBits(uint32_t code, int len)
{
    uint32_t rev = 0;
    for (int i = 0; i < len; ++i)
        rev |= ((code >> i) & 1u) << (len - 1 - i);
    return rev;
}

/**
 * Assign canonical codes (MSB-first numbering: shorter codes are
 * numerically smaller prefixes) from a length table. Returns the Kraft
 * sum scaled to kDecodeSize; a complete code sums to exactly
 * kDecodeSize.
 */
uint64_t
canonicalCodes(const std::array<uint8_t, kNumSymbols>& lengths,
               std::array<uint16_t, kNumSymbols>& codes)
{
    std::array<uint32_t, kMaxHuffCodeLen + 1> count{};
    uint64_t kraft = 0;
    for (uint32_t s = 0; s < kNumSymbols; ++s)
        if (lengths[s] > 0) {
            ++count[lengths[s]];
            kraft += kDecodeSize >> lengths[s];
        }
    std::array<uint32_t, kMaxHuffCodeLen + 2> first{};
    uint32_t code = 0;
    for (int len = 1; len <= kMaxHuffCodeLen; ++len) {
        first[len] = code;
        code = (code + count[len]) << 1;
    }
    std::array<uint32_t, kMaxHuffCodeLen + 1> next{};
    for (int len = 1; len <= kMaxHuffCodeLen; ++len)
        next[len] = first[len];
    for (uint32_t s = 0; s < kNumSymbols; ++s)
        if (lengths[s] > 0)
            codes[s] = static_cast<uint16_t>(next[lengths[s]]++);
    return kraft;
}

/**
 * Flat decode table entry: up to four symbols resolved per probe of the
 * low kMaxHuffCodeLen bits, so the hot loop's serial dependency (probe
 * -> shift -> probe) is paid once per several output bytes.
 *
 *   bits 0..31   symbols, in decode order (symbol k at bits 8k..8k+7)
 *   bits 32..35  symbol count (1..4)
 *   bits 36..39  total consumed bits across all packed symbols
 *   bits 40..43  first code's length alone (tail-loop single-symbol
 *                stepping and the mid-code truncation check)
 */
using DecodeTable = std::array<uint64_t, kDecodeSize>;
constexpr uint32_t kMaxSymsPerProbe = 4;

/**
 * Pass-2 fusion only pays for itself once the decode loop runs long
 * enough to amortize walking all 2^kMaxHuffCodeLen entries; below this
 * output size the pass-1 single-symbol table decodes the page faster
 * in total. (Fused and unfused tables decode identically — the fast
 * loop reads the same entry fields either way.)
 */
constexpr size_t kFusePassMinBytes = 8192;

bool
buildDecodeTable(const std::array<uint8_t, kNumSymbols>& lengths,
                 DecodeTable& table, bool fuse)
{
    std::array<uint16_t, kNumSymbols> codes{};
    if (canonicalCodes(lengths, codes) != kDecodeSize)
        return false;
    // Pass 1: single-symbol entries keyed by the bit-reversed code
    // (the bitstream is packed LSB-first).
    for (uint32_t s = 0; s < kNumSymbols; ++s) {
        const int len = lengths[s];
        if (len == 0)
            continue;
        const uint32_t rev = reverseBits(codes[s], len);
        const uint64_t entry = s | uint64_t{1} << 32 |
                               static_cast<uint64_t>(len) << 36 |
                               static_cast<uint64_t>(len) << 40;
        for (uint32_t hi = 0; hi < (kDecodeSize >> len); ++hi)
            table[rev | hi << len] = entry;
    }
    if (!fuse)
        return true;
    // Pass 2: greedily fuse as many whole codes as fit in one probe
    // window. A symbol is packed only when its code lies entirely
    // inside the kMaxHuffCodeLen probed bits, so fused entries never
    // depend on bits the probe did not see. Descending order makes the
    // rewrite safe in place: entry v only reads indices v and v >>
    // total (< v for v > 0), which still hold pass-1 entries.
    for (uint32_t v = kDecodeSize; v-- > 0;) {
        const uint32_t len1 =
            static_cast<uint32_t>(table[v] >> 40) & 0xF;
        uint64_t syms = table[v] & 0xFF;
        uint32_t count = 1;
        uint32_t total = len1;
        while (count < kMaxSymsPerProbe) {
            const uint64_t e = table[v >> total];
            const uint32_t len = static_cast<uint32_t>(e >> 40) & 0xF;
            if (total + len > kMaxHuffCodeLen)
                break;
            syms |= (e & 0xFF) << (8 * count);
            total += len;
            ++count;
        }
        table[v] = syms | static_cast<uint64_t>(count) << 32 |
                   static_cast<uint64_t>(total) << 36 |
                   static_cast<uint64_t>(len1) << 40;
    }
    return true;
}

uint64_t
loadLe64(const uint8_t* p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;  // x86/aarch64 little-endian; matches the rest of enc::.
}

}  // namespace

namespace enc::detail {

/*
 * Length-limited code lengths via package-merge (Larmore-Hirschberg).
 * Guarantees a Kraft-complete set of lengths <= kMaxHuffCodeLen for any
 * 2..256 active symbols, which a plain Huffman tree plus ad-hoc depth
 * repair does not.
 *
 * Counting form: level 0 lists the items; level L merges the items
 * with the pairwise packages of level L-1. Each level keeps only node
 * weights and kinds. The top level's first 2n-2 nodes are chosen; the
 * first c nodes of level L hold some leaves (a prefix of the items,
 * each one bit longer) and p packages, which choose the first 2p nodes
 * of level L-1.
 */
void
packageMerge(const std::array<uint64_t, kNumSymbols>& freq,
             std::array<uint8_t, kNumSymbols>& lengths)
{
    constexpr size_t kMaxNodes = 2 * kNumSymbols;  // a level holds < 2n
    std::array<uint16_t, kNumSymbols> item_sym{};
    size_t n = 0;
    for (uint32_t s = 0; s < kNumSymbols; ++s)
        if (freq[s] > 0)
            item_sym[n++] = static_cast<uint16_t>(s);
    std::sort(item_sym.begin(), item_sym.begin() + n,
              [&freq](uint16_t a, uint16_t b) {
                  return freq[a] != freq[b] ? freq[a] < freq[b] : a < b;
              });
    std::array<uint64_t, kNumSymbols> item_weight{};
    for (size_t i = 0; i < n; ++i)
        item_weight[i] = freq[item_sym[i]];

    std::array<std::array<uint64_t, kMaxNodes>, 2> weight{};
    std::array<std::array<bool, kMaxNodes>, kMaxHuffCodeLen> is_package{};
    std::array<size_t, kMaxHuffCodeLen> level_size{};
    std::copy_n(item_weight.begin(), n, weight[0].begin());
    level_size[0] = n;
    for (int level = 1; level < kMaxHuffCodeLen; ++level) {
        const auto& prev = weight[(level - 1) & 1];
        auto& next = weight[level & 1];
        const size_t packages = level_size[level - 1] / 2;
        size_t i = 0;
        size_t p = 0;
        size_t k = 0;
        // An item goes first on equal weight.
        while (i < n || p < packages) {
            const bool take_package =
                p < packages &&
                (i == n || prev[2 * p] + prev[2 * p + 1] < item_weight[i]);
            if (take_package) {
                next[k] = prev[2 * p] + prev[2 * p + 1];
                ++p;
            } else {
                next[k] = item_weight[i];
                ++i;
            }
            is_package[level][k++] = take_package;
        }
        level_size[level] = k;
    }

    lengths.fill(0);
    size_t chosen = std::min(2 * n - 2, level_size[kMaxHuffCodeLen - 1]);
    for (int level = kMaxHuffCodeLen - 1; level >= 0 && chosen > 0;
         --level) {
        const size_t packages =
            std::count(is_package[level].begin(),
                       is_package[level].begin() + chosen, true);
        for (size_t i = 0; i < chosen - packages; ++i)
            ++lengths[item_sym[i]];
        chosen = 2 * packages;
    }
}

}  // namespace enc::detail

namespace enc {

void
huffCompress(std::span<const uint8_t> in, std::vector<uint8_t>& out)
{
    out.clear();
    putVarint(out, in.size());
    if (in.empty())
        return;

    // Four sub-histograms, so a run of one byte value does not
    // serialize on a single counter.
    const size_t n = in.size();
    std::array<uint64_t, kNumSymbols> freq{};
    {
        std::array<std::array<uint64_t, kNumSymbols>, 4> sub{};
        size_t i = 0;
        for (; i + 4 <= n; i += 4) {
            ++sub[0][in[i]];
            ++sub[1][in[i + 1]];
            ++sub[2][in[i + 2]];
            ++sub[3][in[i + 3]];
        }
        for (; i < n; ++i)
            ++sub[0][in[i]];
        for (uint32_t s = 0; s < kNumSymbols; ++s)
            freq[s] = sub[0][s] + sub[1][s] + sub[2][s] + sub[3][s];
    }
    uint32_t distinct = 0;
    uint32_t only = 0;
    for (uint32_t s = 0; s < kNumSymbols; ++s)
        if (freq[s] > 0) {
            ++distinct;
            only = s;
        }
    if (distinct == 1) {
        out.push_back(kModeSingle);
        out.push_back(static_cast<uint8_t>(only));
        return;
    }

    std::array<uint8_t, kNumSymbols> lengths{};
    detail::packageMerge(freq, lengths);
    std::array<uint16_t, kNumSymbols> codes{};
    canonicalCodes(lengths, codes);

    out.push_back(kModeHuffman);

    // Pre-reverse the codes so the hot loop is a single shift-or into
    // the LSB-first accumulator.
    std::array<uint16_t, kNumSymbols> emit{};
    for (uint32_t s = 0; s < kNumSymbols; ++s)
        if (lengths[s] > 0)
            emit[s] = static_cast<uint16_t>(
                reverseBits(codes[s], lengths[s]));

    // Pack the lanes into reused scratch first: their byte sizes go in
    // the header ahead of them (all but the last, which the stream end
    // implies). Each lane adds codes to a 64-bit word and stores the
    // whole word, advancing by its completed bytes; the stale bytes a
    // store leaves past them are overwritten by the next one. Room:
    // kMaxHuffCodeLen bits per byte, a padded byte per lane, and the
    // last store's 8-byte overrun.
    static thread_local std::vector<uint8_t> lane_buf;
    lane_buf.resize((n * kMaxHuffCodeLen + 7) / 8 + kNumHuffLanes + 8);
    uint8_t* dst = lane_buf.data();
    size_t lane_bytes[kNumHuffLanes];
    for (uint32_t k = 0; k < kNumHuffLanes; ++k) {
        const size_t end = n * (k + 1) / kNumHuffLanes;
        const uint8_t* const lane_start = dst;
        uint64_t bitbuf = 0;
        uint32_t bitcount = 0;
        const auto put = [&](uint8_t b) {
            bitbuf |= static_cast<uint64_t>(emit[b]) << bitcount;
            bitcount += lengths[b];
        };
        const auto flush = [&] {
            std::memcpy(dst, &bitbuf, sizeof(bitbuf));
            dst += bitcount >> 3;
            bitbuf >>= bitcount & ~7u;  // <= 7 + 4 * 11 bits pending
            bitcount &= 7;
        };
        size_t i = n * k / kNumHuffLanes;
        for (; i + 4 <= end; i += 4) {
            put(in[i]);
            put(in[i + 1]);
            put(in[i + 2]);
            put(in[i + 3]);
            flush();
        }
        for (; i < end; ++i) {
            put(in[i]);
            flush();
        }
        if (bitcount > 0)
            *dst++ = static_cast<uint8_t>(bitbuf);
        lane_bytes[k] = static_cast<size_t>(dst - lane_start);
    }

    for (uint32_t k = 0; k + 1 < kNumHuffLanes; ++k)
        putVarint(out, lane_bytes[k]);
    for (uint32_t i = 0; i < kTableBytes; ++i)
        out.push_back(
            static_cast<uint8_t>(lengths[2 * i] | lengths[2 * i + 1] << 4));
    out.insert(out.end(), lane_buf.data(), dst);
}

std::vector<uint8_t>
huffCompress(std::span<const uint8_t> in)
{
    std::vector<uint8_t> out;
    huffCompress(in, out);
    return out;
}

Status
huffStreamInfo(std::span<const uint8_t> in, HuffStreamInfo& info)
{
    size_t pos = 0;
    PRESTO_RETURN_IF_ERROR(getVarint(in, pos, info.raw_bytes));
    info.table_bytes = 0;
    info.mode = kModeHuffman;
    if (info.raw_bytes == 0) {
        info.header_bytes = static_cast<uint32_t>(pos);
        return Status::okStatus();
    }
    if (pos >= in.size())
        return Status::corruption("truncated entropy stream header");
    info.mode = in[pos++];
    if (info.mode == kModeSingle) {
        if (pos >= in.size())
            return Status::corruption("truncated single-symbol stream");
        ++pos;
    } else if (info.mode == kModeHuffman) {
        for (uint32_t k = 0; k + 1 < kNumHuffLanes; ++k) {
            uint64_t lane_bytes = 0;
            PRESTO_RETURN_IF_ERROR(getVarint(in, pos, lane_bytes));
        }
        if (pos + kTableBytes > in.size())
            return Status::corruption("truncated entropy code table");
        info.table_bytes = kTableBytes;
        pos += kTableBytes;
    } else {
        return Status::corruption("unknown entropy stream mode");
    }
    info.header_bytes = static_cast<uint32_t>(pos);
    return Status::okStatus();
}

Status
huffDecompress(std::span<const uint8_t> in, std::span<uint8_t> out)
{
    size_t pos = 0;
    uint64_t raw_count = 0;
    PRESTO_RETURN_IF_ERROR(getVarint(in, pos, raw_count));
    if (raw_count != out.size())
        return Status::corruption("entropy stream raw size mismatch");
    if (raw_count == 0) {
        if (pos != in.size())
            return Status::corruption("trailing bytes in entropy stream");
        return Status::okStatus();
    }
    if (pos >= in.size())
        return Status::corruption("truncated entropy stream header");
    const uint8_t mode = in[pos++];

    if (mode == kModeSingle) {
        if (pos >= in.size())
            return Status::corruption("truncated single-symbol stream");
        const uint8_t sym = in[pos++];
        if (pos != in.size())
            return Status::corruption("trailing bytes in entropy stream");
        std::memset(out.data(), sym, out.size());
        return Status::okStatus();
    }
    if (mode != kModeHuffman)
        return Status::corruption("unknown entropy stream mode");

    uint64_t lane_bytes[kNumHuffLanes];
    uint64_t declared = 0;
    for (uint32_t k = 0; k + 1 < kNumHuffLanes; ++k) {
        PRESTO_RETURN_IF_ERROR(getVarint(in, pos, lane_bytes[k]));
        declared += lane_bytes[k];
    }
    if (pos + kTableBytes > in.size())
        return Status::corruption("truncated entropy code table");

    std::array<uint8_t, kNumSymbols> lengths{};
    for (uint32_t i = 0; i < kTableBytes; ++i) {
        const uint8_t packed = in[pos + i];
        const uint8_t lo = packed & 0xF;
        const uint8_t hi = packed >> 4;
        if (lo > kMaxHuffCodeLen || hi > kMaxHuffCodeLen)
            return Status::corruption("entropy code length exceeds limit");
        lengths[2 * i] = lo;
        lengths[2 * i + 1] = hi;
    }
    pos += kTableBytes;

    // One table per decode keeps the codec reentrant; the 8 KiB build
    // is amortized over the page and reuses thread-local storage so a
    // warmed-up decode loop stays allocation-free.
    static thread_local DecodeTable table;
    if (!buildDecodeTable(lengths, table,
                          out.size() >= kFusePassMinBytes))
        return Status::corruption("entropy code table not Kraft-complete");

    const size_t region = in.size() - pos;
    if (declared > region)
        return Status::corruption("entropy lane sizes exceed stream");
    lane_bytes[kNumHuffLanes - 1] = region - declared;

    // Per-lane cursors. Lane k decodes output bytes [k*n/N, (k+1)*n/N)
    // from its own bitstream; the four chains are independent, which is
    // the whole point — one chain's probe -> shift -> probe dependency
    // is ~8 cycles, so interleaving four keeps the decoder throughput-
    // bound instead of latency-bound.
    struct Lane {
        const uint8_t* bits;
        size_t nbytes;
        size_t in_pos;
        uint64_t bitbuf;
        uint32_t bitcount;
        uint8_t* dst;
        size_t o;
        size_t n;
    };
    Lane lane[kNumHuffLanes];
    {
        const uint8_t* p = in.data() + pos;
        const size_t total = out.size();
        for (uint32_t k = 0; k < kNumHuffLanes; ++k) {
            const size_t begin = total * k / kNumHuffLanes;
            const size_t end = total * (k + 1) / kNumHuffLanes;
            lane[k] = Lane{p, static_cast<size_t>(lane_bytes[k]), 0, 0,
                           0, out.data() + begin, 0, end - begin};
            p += lane_bytes[k];
        }
    }

    // Fast loop: per lane, one 64-bit refill feeds five probes
    // (5 * 11 <= 56 bits guaranteed after refill); each probe writes
    // its up-to-4 symbols branchlessly and advances by the entry's
    // total bit count. The margins on the loop condition guarantee
    // every write lands in bounds and every probe has its full code
    // window, so no per-symbol checks are needed; the per-lane
    // exact-consumption validation below still covers the whole stream
    // because in_pos/bitcount accounting is identical to the careful
    // tail loop.
    constexpr uint32_t kProbesPerRefill = 5;
    static_assert(kProbesPerRefill * kMaxHuffCodeLen <= 56);
    constexpr size_t kFastMargin = kProbesPerRefill * kMaxSymsPerProbe;
    static_assert(kNumHuffLanes == 4);
    {
        // The lane state must live in registers here: a straight
        // array-of-structs loop makes every probe a load-op-store
        // round trip and the whole point of the lanes is lost.
        const uint64_t* T = table.data();
        Lane &A = lane[0], &B = lane[1], &C = lane[2], &D = lane[3];
        uint64_t bbA = A.bitbuf, bbB = B.bitbuf, bbC = C.bitbuf,
                 bbD = D.bitbuf;
        uint32_t bcA = A.bitcount, bcB = B.bitcount, bcC = C.bitcount,
                 bcD = D.bitcount;
        size_t ipA = A.in_pos, ipB = B.in_pos, ipC = C.in_pos,
               ipD = D.in_pos;
        size_t oA = A.o, oB = B.o, oC = C.o, oD = D.o;
        auto refill = [](const Lane& L, size_t& ip, uint64_t& bb,
                         uint32_t& bc) {
            bb |= loadLe64(L.bits + ip) << bc;
            ip += (63 - bc) >> 3;
            bc |= 56;
        };
        auto probe = [T](const Lane& L, size_t& o, uint64_t& bb,
                         uint32_t& bc) {
            const uint64_t e = T[bb & (kDecodeSize - 1)];
            std::memcpy(L.dst + o, &e, 4);
            o += static_cast<uint32_t>(e >> 32) & 0xF;
            const uint32_t adv = static_cast<uint32_t>(e >> 36) & 0xF;
            bb >>= adv;
            bc -= adv;
        };
        while (ipA + 8 <= A.nbytes && oA + kFastMargin <= A.n &&
               ipB + 8 <= B.nbytes && oB + kFastMargin <= B.n &&
               ipC + 8 <= C.nbytes && oC + kFastMargin <= C.n &&
               ipD + 8 <= D.nbytes && oD + kFastMargin <= D.n) {
            refill(A, ipA, bbA, bcA);
            refill(B, ipB, bbB, bcB);
            refill(C, ipC, bbC, bcC);
            refill(D, ipD, bbD, bcD);
            for (uint32_t p = 0; p < kProbesPerRefill; ++p) {
                probe(A, oA, bbA, bcA);
                probe(B, oB, bbB, bcB);
                probe(C, oC, bbC, bcC);
                probe(D, oD, bbD, bcD);
            }
        }
        A.bitbuf = bbA; A.bitcount = bcA; A.in_pos = ipA; A.o = oA;
        B.bitbuf = bbB; B.bitcount = bcB; B.in_pos = ipB; B.o = oB;
        C.bitbuf = bbC; C.bitcount = bcC; C.in_pos = ipC; C.o = oC;
        D.bitbuf = bbD; D.bitcount = bcD; D.in_pos = ipD; D.o = oD;
    }

    // Careful per-lane tail: byte-wise refill, one symbol per probe,
    // and the mid-code check that a truncated or corrupt lane trips.
    for (auto& L : lane) {
        while (L.o < L.n) {
            if (L.bitcount < 2 * kMaxHuffCodeLen) {
                if (L.in_pos + 8 <= L.nbytes) {
                    L.bitbuf |= loadLe64(L.bits + L.in_pos)
                                << L.bitcount;
                    L.in_pos += (63 - L.bitcount) >> 3;
                    L.bitcount |= 56;
                } else {
                    while (L.in_pos < L.nbytes && L.bitcount <= 56) {
                        L.bitbuf |=
                            static_cast<uint64_t>(L.bits[L.in_pos++])
                            << L.bitcount;
                        L.bitcount += 8;
                    }
                }
            }
            const uint64_t e = table[L.bitbuf & (kDecodeSize - 1)];
            const uint32_t len1 = static_cast<uint32_t>(e >> 40) & 0xF;
            if (len1 > L.bitcount)
                return Status::corruption(
                    "entropy bitstream ends mid-code");
            L.dst[L.o++] = static_cast<uint8_t>(e);
            L.bitbuf >>= len1;
            L.bitcount -= len1;
        }

        // Exact-consumption check: every stored byte of the lane must
        // be needed, and the padding bits of its final byte must be
        // zero.
        const uint64_t consumed =
            8 * static_cast<uint64_t>(L.in_pos) - L.bitcount;
        const uint64_t used_bytes = (consumed + 7) / 8;
        if (used_bytes != L.nbytes)
            return Status::corruption("trailing bytes in entropy lane");
        const uint32_t pad =
            static_cast<uint32_t>(8 * used_bytes - consumed);
        if (pad > 0 && (L.bitbuf & ((1u << pad) - 1)) != 0)
            return Status::corruption("non-zero entropy padding bits");
    }
    return Status::okStatus();
}

}  // namespace enc
}  // namespace presto
