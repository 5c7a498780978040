#include "columnar/entropy.h"

#include <algorithm>
#include <array>
#include <bit>
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

/** kReverseByte[b] is b with its eight bits in reverse order. */
constexpr std::array<uint8_t, 256> kReverseByte = [] {
    std::array<uint8_t, 256> t{};
    for (uint32_t b = 0; b < 256; ++b)
        for (uint32_t i = 0; i < 8; ++i)
            t[b] |= static_cast<uint8_t>(((b >> i) & 1u) << (7 - i));
    return t;
}();

/** The low @p len bits of @p code (len <= 16) in reverse order. */
uint32_t
reverseBits(uint32_t code, int len)
{
    const uint32_t rev16 = uint32_t{kReverseByte[code & 0xFF]} << 8 |
                           kReverseByte[(code >> 8) & 0xFF];
    return rev16 >> (16 - len);
}

/**
 * Assign canonical codes (MSB-first numbering: shorter codes are
 * numerically smaller prefixes, and codes of one length increase with
 * the symbol) from a length table.
 */
void
canonicalCodes(const std::array<uint8_t, kNumSymbols>& lengths,
               std::array<uint16_t, kNumSymbols>& codes)
{
    std::array<uint32_t, kMaxHuffCodeLen + 1> count{};
    for (uint32_t s = 0; s < kNumSymbols; ++s)
        if (lengths[s] > 0)
            ++count[lengths[s]];
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
}

/**
 * Single-symbol decode table, probed with the low kMaxHuffCodeLen bits
 * of a lane: entry = code length | symbol << 8. The length sits in the
 * low byte so the shift that consumes it needs no extract on the
 * probe -> shift -> probe chain. Every probe resolves exactly one code,
 * so this table also drives the careful tail loop and its mid-code
 * truncation check, whichever loop decoded the bulk.
 */
using SingleTable = std::array<uint16_t, kDecodeSize>;

/**
 * Fused decode table: up to four whole codes resolved per probe, so the
 * serial probe -> shift -> probe chain is paid once per several output
 * bytes when codes are short. The consumed bits sit in the low byte,
 * as in the single-symbol table, so the shift needs no extract.
 *
 *   bits 0..7    total consumed bits across all packed symbols
 *   bits 8..15   symbol count (1..4)
 *   bits 32..63  symbols, in decode order (symbol k at bits 32+8k..)
 */
using FusedTable = std::array<uint64_t, kDecodeSize>;
constexpr uint32_t kMaxSymsPerProbe = 4;

/**
 * Kraft mass of each code length in units of 2^-kMaxHuffCodeLen: the
 * share of probe windows whose first code has that length.
 */
using LengthMass = std::array<uint32_t, kMaxHuffCodeLen + 1>;

/**
 * The fused loop wins only when most probes pack a second code: with
 * ~8-bit codes (near-uniform byte histograms) a probe almost always
 * yields one symbol, and the fused loop's wider entries and 4-byte
 * stores cost more than the fusion saves. The decoder estimates, from
 * the code lengths alone, the chance that the second code of a probe
 * window fits in it — P2 = sum of mass[l1] * mass[l2] over
 * l1 + l2 <= kMaxHuffCodeLen — and fuses when P2 >= kFuseMinP2 (in
 * units of 2^-2*kMaxHuffCodeLen).
 */
constexpr uint64_t kFuseMinP2 = uint64_t{kDecodeSize} * kDecodeSize / 2;

bool
preferFusedLoop(const LengthMass& mass, size_t out_size)
{
    if (out_size < enc::detail::kHuffFuseMinBytes)
        return false;
    // upto[l]: mass of the lengths <= l.
    std::array<uint32_t, kMaxHuffCodeLen + 1> upto{};
    for (int l = 1; l <= kMaxHuffCodeLen; ++l)
        upto[l] = upto[l - 1] + mass[l];
    uint64_t p2 = 0;
    for (int l1 = 1; l1 < kMaxHuffCodeLen; ++l1)
        p2 += uint64_t{mass[l1]} * upto[kMaxHuffCodeLen - l1];
    return p2 >= kFuseMinP2;
}

/** Why a serialized code-length table cannot be decoded with. */
enum class TableError { kNone, kLengthOverLimit, kNotKraftComplete };

/**
 * Build the single-symbol table straight from the nibble-packed
 * code-length table at @p packed (kTableBytes bytes) and report each
 * length's Kraft mass.
 *
 * Word-parallel, so the build costs far less than a page's probes: each
 * 8-byte word holds 16 lengths, and one compare per word and length
 * yields a mask of that length's symbols. Walking a length's masks in
 * order visits its symbols in symbol order — canonical order within the
 * length — so codes are assigned with no sort and no per-symbol
 * counters, and every fill of one length has the same trip count. Each
 * code of length len owns the 2^(kMaxHuffCodeLen - len) indices whose
 * low len bits are its bit reversal (the stream is packed LSB-first).
 */
TableError
buildSingleTable(const uint8_t* packed, SingleTable& table, LengthMass& mass)
{
    constexpr uint64_t kOnes = 0x0101010101010101ull;
    constexpr uint64_t kHigh = 0x8080808080808080ull;
    constexpr uint32_t kWords = kTableBytes / 8;
    // lo[w] / hi[w]: byte j holds the length of symbol 16w + 2j / + 1.
    uint64_t lo[kWords], hi[kWords];
    uint64_t over = 0;
    for (uint32_t w = 0; w < kWords; ++w) {
        const uint64_t x = enc::detail::load64le(packed + 8 * w);
        lo[w] = x & 0x0F * kOnes;
        hi[w] = (x >> 4) & 0x0F * kOnes;
        // A byte <= 15 plus 0x74 sets its high bit iff it is >= 12.
        constexpr uint64_t kOverBias = (0x80 - kMaxHuffCodeLen - 1) * kOnes;
        over |= (lo[w] + kOverBias) | (hi[w] + kOverBias);
    }
    if ((over & kHigh) != 0)
        return TableError::kLengthOverLimit;

    // sym_mask[len][w]: bit 8j is symbol 16w + 2j, bit 8j + 1 is
    // 16w + 2j + 1, so increasing bits are increasing symbols.
    uint64_t sym_mask[kMaxHuffCodeLen + 1][kWords];
    uint32_t kraft = 0;
    mass.fill(0);
    for (uint32_t len = 1; len <= kMaxHuffCodeLen; ++len) {
        uint32_t count = 0;
        for (uint32_t w = 0; w < kWords; ++w) {
            // A byte <= 15 plus 0x7F sets its high bit iff it is non-zero.
            const uint64_t lo_ne = (lo[w] ^ len * kOnes) + 0x7F * kOnes;
            const uint64_t hi_ne = (hi[w] ^ len * kOnes) + 0x7F * kOnes;
            const uint64_t lo_eq = (~lo_ne & kHigh) >> 7;
            const uint64_t hi_eq = (~hi_ne & kHigh) >> 7;
            sym_mask[len][w] = lo_eq | hi_eq << 1;
            // Byte sums by multiply (no popcount in baseline x86-64).
            count += static_cast<uint32_t>(((lo_eq + hi_eq) * kOnes) >> 56);
        }
        mass[len] = count << (kMaxHuffCodeLen - len);
        kraft += mass[len];
    }
    if (kraft != kDecodeSize)
        return TableError::kNotKraftComplete;

    uint32_t code = 0;  // canonical: MSB-first, shorter codes first
    for (uint32_t len = 1; len <= kMaxHuffCodeLen; ++len) {
        code <<= 1;
        if (mass[len] == 0)
            continue;
        const uint32_t step = 1u << len;
        for (uint32_t w = 0; w < kWords; ++w) {
            for (uint64_t m = sym_mask[len][w]; m != 0; m &= m - 1) {
                const auto bit = static_cast<uint32_t>(std::countr_zero(m));
                const uint32_t sym = 16 * w + 2 * (bit >> 3) + (bit & 1);
                const auto entry = static_cast<uint16_t>(len | sym << 8);
                uint32_t i = reverseBits(code++, static_cast<int>(len));
                if (len > kMaxHuffCodeLen - 2) {  // one or two entries
                    table[i] = entry;
                    if (len < kMaxHuffCodeLen)
                        table[i + step] = entry;
                    continue;
                }
                for (; i < kDecodeSize; i += 4 * step) {
                    table[i] = entry;
                    table[i + step] = entry;
                    table[i + 2 * step] = entry;
                    table[i + 3 * step] = entry;
                }
            }
        }
    }
    return TableError::kNone;
}

/**
 * Greedily fuse as many whole codes as fit in each probe window. A
 * symbol is packed only when its code lies entirely inside the
 * kMaxHuffCodeLen probed bits, so fused entries never depend on bits
 * the probe did not see.
 */
void
buildFusedTable(const SingleTable& single, FusedTable& fused)
{
    for (uint32_t v = 0; v < kDecodeSize; ++v) {
        uint64_t syms = 0;
        uint32_t count = 0;
        uint32_t total = 0;
        while (count < kMaxSymsPerProbe) {
            const uint32_t e = single[v >> total];
            const uint32_t len = e & 0xFF;
            if (total + len > kMaxHuffCodeLen)
                break;
            syms |= static_cast<uint64_t>(e >> 8) << (8 * count);
            total += len;
            ++count;
        }
        fused[v] = total | count << 8 | syms << 32;
    }
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

}  // namespace enc

namespace {

/** One lane's cursor: its bitstream and its slice of the output. */
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

/** What huffDecompress() runs after the header is parsed and checked. */
struct DecodePlan {
    enc::detail::HuffLoop loop = enc::detail::HuffLoop::kNone;
    uint8_t run_symbol = 0;             ///< kNone: the run's byte
    const uint8_t* lanes = nullptr;     ///< first lane's first byte
    uint64_t lane_bytes[kNumHuffLanes] = {};
};

struct DecodeTables {
    SingleTable single;
    FusedTable fused;
};

/**
 * Parse and validate @p in's header for an @p out_size-byte output and
 * build the decode tables @p plan's loop probes, in thread-local
 * storage: one set per thread keeps the codec reentrant, and a
 * warmed-up decode loop allocation-free.
 */
Status
prepareDecode(std::span<const uint8_t> in, size_t out_size,
              DecodePlan& plan, DecodeTables*& tables)
{
    size_t pos = 0;
    uint64_t raw_count = 0;
    PRESTO_RETURN_IF_ERROR(enc::getVarint(in, pos, raw_count));
    if (raw_count != out_size)
        return Status::corruption("entropy stream raw size mismatch");
    plan.loop = enc::detail::HuffLoop::kNone;
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
        plan.run_symbol = in[pos++];
        if (pos != in.size())
            return Status::corruption("trailing bytes in entropy stream");
        return Status::okStatus();
    }
    if (mode != kModeHuffman)
        return Status::corruption("unknown entropy stream mode");

    uint64_t declared = 0;
    for (uint32_t k = 0; k + 1 < kNumHuffLanes; ++k) {
        PRESTO_RETURN_IF_ERROR(enc::getVarint(in, pos, plan.lane_bytes[k]));
        // Bounded one by one, so the sum cannot wrap past the check
        // below.
        if (plan.lane_bytes[k] > in.size())
            return Status::corruption("entropy lane sizes exceed stream");
        declared += plan.lane_bytes[k];
    }
    if (pos + kTableBytes > in.size())
        return Status::corruption("truncated entropy code table");

    static thread_local DecodeTables tls;
    tables = &tls;
    LengthMass mass{};
    switch (buildSingleTable(in.data() + pos, tls.single, mass)) {
      case TableError::kNone:
        break;
      case TableError::kLengthOverLimit:
        return Status::corruption("entropy code length exceeds limit");
      case TableError::kNotKraftComplete:
        return Status::corruption("entropy code table not Kraft-complete");
    }
    pos += kTableBytes;

    const size_t region = in.size() - pos;
    if (declared > region)
        return Status::corruption("entropy lane sizes exceed stream");
    plan.lane_bytes[kNumHuffLanes - 1] = region - declared;
    plan.lanes = in.data() + pos;

    if (preferFusedLoop(mass, out_size)) {
        buildFusedTable(tls.single, tls.fused);
        plan.loop = enc::detail::HuffLoop::kFused;
        return Status::okStatus();
    }
    plan.loop = enc::detail::HuffLoop::kSingle;
    return Status::okStatus();
}

/** One refill: top the lane's bit buffer up to at least 56 bits. */
inline void
refill(const uint8_t*& in, uint64_t& bb, uint32_t& bc)
{
    bb |= enc::detail::load64le(in) << bc;
    in += (63 - bc) >> 3;
    bc |= 56;
}

/**
 * Refill rounds lane @p L can run with no bounds check from input
 * cursor @p in and output cursor @p d: each refill reads 8 bytes at the
 * cursor and advances it by at most 7, and each round writes at most
 * @p out_per_round bytes (the fused loop's last 4-byte store included).
 */
inline size_t
safeRounds(const Lane& L, const uint8_t* in, const uint8_t* d,
           size_t out_per_round)
{
    const auto in_left = static_cast<size_t>(L.bits + L.nbytes - in);
    if (in_left < 8)
        return 0;
    const auto out_left = static_cast<size_t>(L.dst + L.n - d);
    return std::min((in_left - 8) / 7 + 1, out_left / out_per_round);
}

/**
 * Probes per refill: a refill guarantees 56 bits, enough for five
 * probes of the longest code.
 */
constexpr uint32_t kProbesPerRefill = 5;
static_assert(kProbesPerRefill * kMaxHuffCodeLen <= 56);

/**
 * Fast loop shared by both tables. Per round every lane refills once
 * and runs kProbesPerRefill probes; @p probe decodes one probe window and
 * advances the lane. Rounds are batched by safeRounds(), so the inner
 * loop carries no per-round checks; the in_pos/bitcount accounting is
 * the careful tail's, so its exact-consumption validation still covers
 * the whole stream. The cursors live in locals so they stay in
 * registers: an array-of-structs loop makes every probe a
 * load-op-store round trip, and a byte store through a Lane's dst may
 * alias the Lane, forcing a reload after each one.
 */
template <size_t kOutPerRound, typename Probe>
void
fastLoop(Lane (&lane)[kNumHuffLanes], Probe probe)
{
    static_assert(kNumHuffLanes == 4);
    uint64_t bbA = lane[0].bitbuf, bbB = lane[1].bitbuf,
             bbC = lane[2].bitbuf, bbD = lane[3].bitbuf;
    uint32_t bcA = lane[0].bitcount, bcB = lane[1].bitcount,
             bcC = lane[2].bitcount, bcD = lane[3].bitcount;
    const uint8_t *inA = lane[0].bits + lane[0].in_pos,
                  *inB = lane[1].bits + lane[1].in_pos,
                  *inC = lane[2].bits + lane[2].in_pos,
                  *inD = lane[3].bits + lane[3].in_pos;
    uint8_t *dA = lane[0].dst + lane[0].o, *dB = lane[1].dst + lane[1].o,
            *dC = lane[2].dst + lane[2].o, *dD = lane[3].dst + lane[3].o;
    for (;;) {
        const size_t rounds = std::min(
            std::min(safeRounds(lane[0], inA, dA, kOutPerRound),
                     safeRounds(lane[1], inB, dB, kOutPerRound)),
            std::min(safeRounds(lane[2], inC, dC, kOutPerRound),
                     safeRounds(lane[3], inD, dD, kOutPerRound)));
        if (rounds == 0)
            break;
        for (size_t r = 0; r < rounds; ++r) {
            refill(inA, bbA, bcA);
            refill(inB, bbB, bcB);
            refill(inC, bbC, bcC);
            refill(inD, bbD, bcD);
#pragma GCC unroll 8
            for (uint32_t p = 0; p < kProbesPerRefill; ++p) {
                probe(dA, bbA, bcA);
                probe(dB, bbB, bcB);
                probe(dC, bbC, bcC);
                probe(dD, bbD, bcD);
            }
        }
    }
    const uint64_t bb[] = {bbA, bbB, bbC, bbD};
    const uint32_t bc[] = {bcA, bcB, bcC, bcD};
    const uint8_t* in[] = {inA, inB, inC, inD};
    const uint8_t* d[] = {dA, dB, dC, dD};
    for (uint32_t k = 0; k < kNumHuffLanes; ++k) {
        lane[k].bitbuf = bb[k];
        lane[k].bitcount = bc[k];
        lane[k].in_pos = static_cast<size_t>(in[k] - lane[k].bits);
        lane[k].o = static_cast<size_t>(d[k] - lane[k].dst);
    }
}

/** Single-symbol loop: one code, one output byte per probe. */
void
singleLoop(const SingleTable& table, Lane (&lane)[kNumHuffLanes])
{
    const uint16_t* T = table.data();
    fastLoop<kProbesPerRefill>(
        lane, [T](uint8_t*& d, uint64_t& bb, uint32_t& bc) {
            const uint32_t e = T[bb & (kDecodeSize - 1)];
            bb >>= e & 63;  // the length byte; x86 shifts mask to 6 bits
            bc -= e & 0xFF;
            *d++ = static_cast<uint8_t>(e >> 8);
        });
}

/**
 * Fused loop: each probe stores its up-to-four symbols with one 4-byte
 * write and advances by the entry's count and total bits.
 */
void
fusedLoop(const FusedTable& table, Lane (&lane)[kNumHuffLanes])
{
    const uint64_t* T = table.data();
    fastLoop<kProbesPerRefill * kMaxSymsPerProbe>(
        lane, [T](uint8_t*& d, uint64_t& bb, uint32_t& bc) {
            const uint64_t e = T[bb & (kDecodeSize - 1)];
            bb >>= e & 63;  // the bit-count byte, as in singleLoop
            bc -= e & 0xFF;
            const auto syms = static_cast<uint32_t>(e >> 32);
            std::memcpy(d, &syms, 4);
            d += (e >> 8) & 0xFF;
        });
}

/**
 * Careful per-lane tail: byte-wise refill near the lane's end, one
 * symbol per probe, and the mid-code check that a truncated or corrupt
 * lane trips. Then the exact-consumption check: every stored byte of
 * the lane must be needed, and the padding bits of its final byte must
 * be zero.
 */
Status
finishLane(const SingleTable& table, Lane& L)
{
    while (L.o < L.n) {
        if (L.bitcount < 2 * kMaxHuffCodeLen) {
            if (L.in_pos + 8 <= L.nbytes) {
                const uint8_t* in = L.bits + L.in_pos;
                refill(in, L.bitbuf, L.bitcount);
                L.in_pos = static_cast<size_t>(in - L.bits);
            } else {
                while (L.in_pos < L.nbytes && L.bitcount <= 56) {
                    L.bitbuf |= static_cast<uint64_t>(L.bits[L.in_pos++])
                                << L.bitcount;
                    L.bitcount += 8;
                }
            }
        }
        const uint32_t e = table[L.bitbuf & (kDecodeSize - 1)];
        const uint32_t len = e & 0xFF;
        if (len > L.bitcount)
            return Status::corruption("entropy bitstream ends mid-code");
        L.dst[L.o++] = static_cast<uint8_t>(e >> 8);
        L.bitbuf >>= len;
        L.bitcount -= len;
    }
    const uint64_t consumed = 8 * static_cast<uint64_t>(L.in_pos) - L.bitcount;
    const uint64_t used_bytes = (consumed + 7) / 8;
    if (used_bytes != L.nbytes)
        return Status::corruption("trailing bytes in entropy lane");
    const uint32_t pad = static_cast<uint32_t>(8 * used_bytes - consumed);
    if (pad > 0 && (L.bitbuf & ((1u << pad) - 1)) != 0)
        return Status::corruption("non-zero entropy padding bits");
    return Status::okStatus();
}

}  // namespace

namespace enc {

namespace detail {

Status
huffPrepareDecode(std::span<const uint8_t> in, size_t out_size,
                  HuffLoop& loop)
{
    DecodePlan plan;
    DecodeTables* tables = nullptr;
    PRESTO_RETURN_IF_ERROR(prepareDecode(in, out_size, plan, tables));
    loop = plan.loop;
    return Status::okStatus();
}

}  // namespace detail

Status
huffDecompress(std::span<const uint8_t> in, std::span<uint8_t> out)
{
    DecodePlan plan;
    DecodeTables* tables = nullptr;
    PRESTO_RETURN_IF_ERROR(prepareDecode(in, out.size(), plan, tables));
    if (plan.loop == detail::HuffLoop::kNone) {
        if (!out.empty())
            std::memset(out.data(), plan.run_symbol, out.size());
        return Status::okStatus();
    }

    // Lane k decodes output bytes [k*n/N, (k+1)*n/N) from its own
    // bitstream. The chains are independent, which is the whole point:
    // one chain's probe -> shift -> probe dependency is ~8 cycles, so
    // interleaving four keeps the decoder throughput-bound instead of
    // latency-bound.
    Lane lane[kNumHuffLanes];
    const uint8_t* p = plan.lanes;
    const size_t total = out.size();
    for (uint32_t k = 0; k < kNumHuffLanes; ++k) {
        const size_t begin = total * k / kNumHuffLanes;
        const size_t end = total * (k + 1) / kNumHuffLanes;
        lane[k] = Lane{p, static_cast<size_t>(plan.lane_bytes[k]), 0, 0, 0,
                       out.data() + begin, 0, end - begin};
        p += plan.lane_bytes[k];
    }

    if (plan.loop == detail::HuffLoop::kFused)
        fusedLoop(tables->fused, lane);
    else
        singleLoop(tables->single, lane);
    for (auto& L : lane)
        PRESTO_RETURN_IF_ERROR(finishLane(tables->single, L));
    return Status::okStatus();
}

}  // namespace enc
}  // namespace presto
