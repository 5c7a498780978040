#include "columnar/page.h"

#include <cstring>

#include "columnar/entropy.h"
#include "common/crc32.h"

namespace presto {

namespace {

/** Compression attempts below this payload size cannot pay for the
 *  extra frame bytes plus codec overhead often enough to matter. */
constexpr size_t kMinCompressPayload = 32;

void
putU32(std::vector<uint8_t>& out, uint32_t v)
{
    out.push_back(static_cast<uint8_t>(v));
    out.push_back(static_cast<uint8_t>(v >> 8));
    out.push_back(static_cast<uint8_t>(v >> 16));
    out.push_back(static_cast<uint8_t>(v >> 24));
}

uint32_t
getU32(std::span<const uint8_t> in, size_t pos)
{
    return static_cast<uint32_t>(in[pos]) |
           static_cast<uint32_t>(in[pos + 1]) << 8 |
           static_cast<uint32_t>(in[pos + 2]) << 16 |
           static_cast<uint32_t>(in[pos + 3]) << 24;
}

}  // namespace

void
writePageFrame(std::vector<uint8_t>& out, Encoding encoding,
               uint32_t value_count, std::span<const uint8_t> payload)
{
    const size_t header_pos = out.size();
    out.push_back(static_cast<uint8_t>(encoding));
    putU32(out, value_count);
    putU32(out, static_cast<uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    const uint32_t crc =
        crc32c(out.data() + header_pos, out.size() - header_pos);
    putU32(out, crc);
}

namespace {

void
writeCompressedFrame(std::vector<uint8_t>& out, Encoding encoding,
                     uint32_t value_count, PageCodec codec,
                     uint32_t raw_size, std::span<const uint8_t> stored)
{
    const size_t header_pos = out.size();
    out.push_back(static_cast<uint8_t>(encoding) | kPageCompressedFlag);
    putU32(out, value_count);
    putU32(out, static_cast<uint32_t>(stored.size()));
    out.push_back(static_cast<uint8_t>(codec));
    putU32(out, raw_size);
    out.insert(out.end(), stored.begin(), stored.end());
    const uint32_t crc =
        crc32c(out.data() + header_pos, out.size() - header_pos);
    putU32(out, crc);
}

}  // namespace

PageCodec
writePageFrame(std::vector<uint8_t>& out, Encoding encoding,
               uint32_t value_count, std::span<const uint8_t> payload,
               PageCodec codec)
{
    if (codec == PageCodec::kNone || payload.size() < kMinCompressPayload) {
        writePageFrame(out, encoding, value_count, payload);
        return PageCodec::kNone;
    }
    const bool try_lz =
        codec == PageCodec::kLz || codec == PageCodec::kLzEntropy;
    const bool try_entropy =
        codec == PageCodec::kEntropy || codec == PageCodec::kLzEntropy;

    // Writer-local scratch: compression only runs while building
    // partitions, never on the (allocation-free) read path.
    static thread_local std::vector<uint8_t> lz_bytes;
    static thread_local std::vector<uint8_t> entropy_bytes;
    static thread_local std::vector<uint8_t> lz_entropy_bytes;

    // A candidate wins only by strictly shrinking the whole frame; ties
    // go to the earlier (cheaper-to-decode) menu entry.
    PageCodec best = PageCodec::kNone;
    std::span<const uint8_t> best_bytes = payload;
    size_t best_stored = payload.size();
    const auto consider = [&](PageCodec candidate,
                              const std::vector<uint8_t>& bytes) {
        if (bytes.size() + kCompressedPageExtraBytes < best_stored &&
            bytes.size() + kCompressedPageExtraBytes < payload.size()) {
            best = candidate;
            best_bytes = bytes;
            best_stored = bytes.size() + kCompressedPageExtraBytes;
        }
    };

    if (try_lz) {
        enc::lzCompress(payload, lz_bytes);
        consider(PageCodec::kLz, lz_bytes);
    }
    if (try_entropy) {
        enc::huffCompress(payload, entropy_bytes);
        consider(PageCodec::kEntropy, entropy_bytes);
    }
    if (codec == PageCodec::kLzEntropy &&
        lz_bytes.size() >= kMinCompressPayload) {
        enc::huffCompress(lz_bytes, lz_entropy_bytes);
        consider(PageCodec::kLzEntropy, lz_entropy_bytes);
    }

    if (best == PageCodec::kNone) {
        writePageFrame(out, encoding, value_count, payload);
        return PageCodec::kNone;
    }
    writeCompressedFrame(out, encoding, value_count, best,
                         static_cast<uint32_t>(payload.size()), best_bytes);
    return best;
}

namespace {

Status
parseFrame(std::span<const uint8_t> in, size_t& pos, PageView& page,
           bool verify_crc)
{
    const size_t header_size = 1 + 4 + 4;
    if (pos + header_size > in.size())
        return Status::corruption("truncated page header");
    const uint8_t enc_byte = in[pos] & ~kPageCompressedFlag;
    const bool compressed = (in[pos] & kPageCompressedFlag) != 0;
    if (enc_byte > static_cast<uint8_t>(Encoding::kBitPacked))
        return Status::corruption("unknown page encoding");
    const uint32_t value_count = getU32(in, pos + 1);
    if (value_count > kMaxValuesPerPage)
        return Status::corruption("page value count exceeds maximum");
    const uint32_t payload_size = getU32(in, pos + 5);
    const size_t extra = compressed ? kCompressedPageExtraBytes : 0;
    if (pos + header_size + extra + payload_size + 4 > in.size())
        return Status::corruption("truncated page payload");

    PageCodec codec = PageCodec::kNone;
    uint32_t raw_size = payload_size;
    if (compressed) {
        const uint8_t codec_byte = in[pos + header_size];
        if (codec_byte == static_cast<uint8_t>(PageCodec::kNone) ||
            codec_byte > static_cast<uint8_t>(PageCodec::kLzEntropy))
            return Status::corruption("unknown page codec");
        codec = static_cast<PageCodec>(codec_byte);
        raw_size = getU32(in, pos + header_size + 1);
        if (raw_size > kMaxPageRawBytes)
            return Status::corruption("page raw size exceeds maximum");
        // The writer compresses only when it strictly shrinks the
        // frame; an overlong compressed payload is damage.
        if (payload_size + kCompressedPageExtraBytes >= raw_size)
            return Status::corruption(
                "compressed page not smaller than raw");
    }
    if (verify_crc) {
        const size_t covered = header_size + extra + payload_size;
        const uint32_t stored_crc = getU32(in, pos + covered);
        const uint32_t actual_crc = crc32c(in.data() + pos, covered);
        if (stored_crc != actual_crc)
            return Status::corruption("page checksum mismatch");
    }

    page.encoding = static_cast<Encoding>(enc_byte);
    page.codec = codec;
    page.value_count = value_count;
    page.raw_size = raw_size;
    page.payload = in.subspan(pos + header_size + extra, payload_size);
    pos += header_size + extra + payload_size + 4;
    return Status::okStatus();
}

}  // namespace

Status
readPageFrame(std::span<const uint8_t> in, size_t& pos, PageView& page)
{
    return parseFrame(in, pos, page, /*verify_crc=*/true);
}

Status
scanPageFrame(std::span<const uint8_t> in, size_t& pos, PageView& page)
{
    return parseFrame(in, pos, page, /*verify_crc=*/false);
}

Status
pagePayload(const PageView& page, std::vector<uint8_t>& scratch,
            std::vector<uint8_t>& lz_stream, std::span<const uint8_t>& raw)
{
    switch (page.codec) {
      case PageCodec::kNone:
        raw = page.payload;
        return Status::okStatus();
      case PageCodec::kLz:
        scratch.resize(page.raw_size);
        PRESTO_RETURN_IF_ERROR(enc::lzDecompress(
            page.payload, {scratch.data(), scratch.size()}));
        break;
      case PageCodec::kEntropy:
        scratch.resize(page.raw_size);
        PRESTO_RETURN_IF_ERROR(enc::huffDecompress(
            page.payload, {scratch.data(), scratch.size()}));
        break;
      case PageCodec::kLzEntropy: {
        // Two-stage decode: entropy -> LZ stream -> raw. The LZ
        // stream's size is only known from the entropy header, so
        // bound it by the worst-case LZ expansion of raw_size before
        // sizing the intermediate buffer (the claim is CRC-covered,
        // but damage is rejected structurally too).
        HuffStreamInfo info;
        PRESTO_RETURN_IF_ERROR(enc::huffStreamInfo(page.payload, info));
        const uint64_t max_lz =
            static_cast<uint64_t>(page.raw_size) + page.raw_size / 255 + 16;
        if (info.raw_bytes > max_lz)
            return Status::corruption(
                "entropy-coded LZ stream larger than worst case");
        lz_stream.resize(info.raw_bytes);
        PRESTO_RETURN_IF_ERROR(enc::huffDecompress(
            page.payload, {lz_stream.data(), lz_stream.size()}));
        scratch.resize(page.raw_size);
        PRESTO_RETURN_IF_ERROR(enc::lzDecompress(
            lz_stream, {scratch.data(), scratch.size()}));
        break;
      }
    }
    raw = {scratch.data(), scratch.size()};
    return Status::okStatus();
}

Status
pagePayload(const PageView& page, std::vector<uint8_t>& scratch,
            std::span<const uint8_t>& raw)
{
    static thread_local std::vector<uint8_t> lz_stream;
    return pagePayload(page, scratch, lz_stream, raw);
}

}  // namespace presto
