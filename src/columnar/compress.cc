#include "columnar/compress.h"

#include <algorithm>
#include <array>
#include <cstring>

namespace presto {

const char*
pageCodecName(PageCodec codec)
{
    switch (codec) {
      case PageCodec::kNone:      return "none";
      case PageCodec::kLz:        return "lz";
      case PageCodec::kEntropy:   return "entropy";
      case PageCodec::kLzEntropy: return "lz+entropy";
    }
    return "?";
}

namespace enc {

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr int kHashBits = 13;

uint32_t
read32(const uint8_t* p)
{
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

size_t
hash4(uint32_t v)
{
    // Fibonacci hash of the next four bytes; collisions only cost a
    // missed match, never a wrong one (candidates are verified).
    return (v * 2654435761u) >> (32 - kHashBits);
}

/** Append @p len as a 15/255-style extension run. */
void
putRunLength(std::vector<uint8_t>& out, size_t len)
{
    while (len >= 255) {
        out.push_back(255);
        len -= 255;
    }
    out.push_back(static_cast<uint8_t>(len));
}

/** Emit one literals[+match] sequence. @p match_len 0 = final literals. */
void
putSequence(std::vector<uint8_t>& out, std::span<const uint8_t> literals,
            size_t offset, size_t match_len)
{
    const size_t lit = literals.size();
    const size_t match_code = match_len == 0 ? 0 : match_len - kMinMatch;
    const uint8_t token =
        static_cast<uint8_t>((lit < 15 ? lit : 15) << 4 |
                             (match_code < 15 ? match_code : 15));
    out.push_back(token);
    if (lit >= 15)
        putRunLength(out, lit - 15);
    out.insert(out.end(), literals.begin(), literals.end());
    if (match_len == 0)
        return;
    out.push_back(static_cast<uint8_t>(offset));
    out.push_back(static_cast<uint8_t>(offset >> 8));
    if (match_code >= 15)
        putRunLength(out, match_code - 15);
}

}  // namespace

void
lzCompress(std::span<const uint8_t> in, std::vector<uint8_t>& out)
{
    out.clear();
    const size_t n = in.size();
    out.reserve(n / 2 + 16);

    // Greedy single-probe hash table over 4-byte windows (values are
    // position + 1 so zero-initialized slots read as "empty").
    std::array<uint32_t, size_t{1} << kHashBits> table{};

    size_t anchor = 0;
    size_t pos = 0;
    while (n >= kMinMatch && pos + kMinMatch <= n) {
        const uint32_t v = read32(in.data() + pos);
        const size_t h = hash4(v);
        const size_t cand = table[h];
        table[h] = static_cast<uint32_t>(pos + 1);
        if (cand == 0 || pos + 1 - cand > kMaxOffset ||
            read32(in.data() + (cand - 1)) != v) {
            ++pos;
            continue;
        }
        const size_t match_pos = cand - 1;
        size_t len = kMinMatch;
        while (pos + len < n && in[match_pos + len] == in[pos + len])
            ++len;
        putSequence(out, in.subspan(anchor, pos - anchor), pos - match_pos,
                    len);
        pos += len;
        anchor = pos;
    }
    putSequence(out, in.subspan(anchor), 0, 0);
}

std::vector<uint8_t>
lzCompress(std::span<const uint8_t> in)
{
    std::vector<uint8_t> out;
    lzCompress(in, out);
    return out;
}

Status
lzDecompress(std::span<const uint8_t> in, std::span<uint8_t> out)
{
    size_t ip = 0;
    size_t op = 0;
    while (ip < in.size()) {
        const uint8_t token = in[ip++];

        // Literal run.
        uint64_t lit = token >> 4;
        if (lit == 15) {
            uint8_t b;
            do {
                if (ip >= in.size())
                    return Status::corruption(
                        "lz: truncated literal length");
                b = in[ip++];
                lit += b;
                // Cap early so a hostile extension run cannot spin or
                // overflow; anything past the raw size is malformed.
                if (lit > out.size())
                    return Status::corruption(
                        "lz: literal run exceeds raw size");
            } while (b == 255);
        }
        if (lit > in.size() - ip)
            return Status::corruption("lz: truncated literals");
        if (lit > out.size() - op)
            return Status::corruption("lz: literals exceed raw size");
        if (lit > 0) {
            // Wild copy: one or two fixed-width 16-byte copies beat a
            // variable memcpy for the short runs that dominate; the
            // overshoot lands inside buffers we own and is overwritten
            // by the next sequence. Fall back near either buffer's end.
            const size_t room = std::min(in.size() - ip, out.size() - op);
            if (lit <= 16 && room >= 16) {
                std::memcpy(out.data() + op, in.data() + ip, 16);
            } else if (lit <= 32 && room >= 32) {
                std::memcpy(out.data() + op, in.data() + ip, 16);
                std::memcpy(out.data() + op + 16, in.data() + ip + 16, 16);
            } else {
                std::memcpy(out.data() + op, in.data() + ip, lit);
            }
        }
        ip += lit;
        op += lit;

        // Stream ends right after the final sequence's literals.
        if (ip == in.size()) {
            if ((token & 0x0f) != 0)
                return Status::corruption(
                    "lz: match after final literals");
            break;
        }

        // Match: 2-byte offset, then the (possibly extended) length.
        if (in.size() - ip < 2)
            return Status::corruption("lz: truncated match offset");
        const size_t offset =
            static_cast<size_t>(in[ip]) | static_cast<size_t>(in[ip + 1])
                                              << 8;
        ip += 2;
        if (offset == 0 || offset > op)
            return Status::corruption("lz: match offset out of window");
        uint64_t match_code = token & 0x0f;
        if (match_code == 15) {
            uint8_t b;
            do {
                if (ip >= in.size())
                    return Status::corruption(
                        "lz: truncated match length");
                b = in[ip++];
                match_code += b;
                if (match_code > out.size())
                    return Status::corruption(
                        "lz: match run exceeds raw size");
            } while (b == 255);
        }
        const uint64_t match_len = match_code + kMinMatch;
        if (match_len > out.size() - op)
            return Status::corruption("lz: match exceeds raw size");
        const uint8_t* src = out.data() + (op - offset);
        uint8_t* dst = out.data() + op;
        if (offset >= 8 && out.size() - op >= match_len + 8) {
            // 8-byte strided wild copy, overshooting by up to 7 bytes
            // into slack we own. Reads stay >= 8 bytes behind the
            // write cursor, so an overlapping match (offset < length)
            // still observes its own earlier output correctly.
            uint64_t i = 0;
            do {
                std::memcpy(dst + i, src + i, 8);
                i += 8;
            } while (i < match_len);
        } else if (offset >= match_len) {
            // Disjoint ranges: one bulk copy.
            std::memcpy(dst, src, match_len);
        } else {
            // Overlapping match: the copy must observe its own output
            // (RLE-style runs). Replicating the first `offset` bytes
            // doubles the safe chunk width each round, so even offset-1
            // runs copy in O(log len) memcpys instead of byte-wise.
            size_t filled = offset;
            std::memcpy(dst, src, filled);
            while (filled < match_len) {
                const size_t chunk =
                    std::min(filled, static_cast<size_t>(match_len) -
                                         filled);
                std::memcpy(dst + filled, dst, chunk);
                filled += chunk;
            }
        }
        op += match_len;
    }
    if (op != out.size())
        return Status::corruption("lz: decompressed size mismatch");
    return Status::okStatus();
}

}  // namespace enc
}  // namespace presto
