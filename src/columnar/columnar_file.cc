#include "columnar/columnar_file.h"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "common/batch_arena.h"
#include "common/crc32.h"
#include "common/durable_file.h"
#include "common/thread_pool.h"

namespace presto {

namespace {

constexpr char kMagic[4] = {'P', 'S', 'F', '1'};

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

void
putString(std::vector<uint8_t>& out, const std::string& s)
{
    enc::putVarint(out, s.size());
    // Element-wise append sidesteps a GCC 12 -Wstringop-overflow false
    // positive on vector::insert from string iterators.
    for (char c : s)
        out.push_back(static_cast<uint8_t>(c));
}

Status
getString(std::span<const uint8_t> in, size_t& pos, std::string& s)
{
    uint64_t len = 0;
    PRESTO_RETURN_IF_ERROR(enc::getVarint(in, pos, len));
    if (len > in.size() - pos)
        return Status::corruption("truncated string in footer");
    s.assign(reinterpret_cast<const char*>(in.data() + pos), len);
    pos += len;
    return Status::okStatus();
}

/** Append framed pages for an int64 sequence; returns stream metadata. */
StreamMeta
writeI64Stream(std::vector<uint8_t>& out, std::span<const int64_t> values,
               const WriterOptions& options)
{
    StreamMeta meta;
    meta.offset = out.size();
    meta.value_count = values.size();
    size_t pos = 0;
    do {
        const size_t n = std::min(values.size() - pos, kMaxValuesPerPage);
        const auto slice = values.subspan(pos, n);
        const Encoding encoding = options.force_plain
                                      ? Encoding::kPlainI64
                                      : enc::chooseIntEncoding(slice);
        std::vector<uint8_t> payload;
        switch (encoding) {
          case Encoding::kPlainI64:
            payload = enc::encodePlainI64(slice);
            break;
          case Encoding::kVarint:
            payload = enc::encodeVarint(slice);
            break;
          case Encoding::kDeltaVarint:
            payload = enc::encodeDeltaVarint(slice);
            break;
          case Encoding::kRle:
            payload = enc::encodeRle(slice);
            break;
          case Encoding::kDictionary:
            payload = enc::encodeDictionary(slice);
            break;
          case Encoding::kBitPacked:
            payload = enc::encodeBitPacked(slice);
            break;
          case Encoding::kPlainF32:
            PRESTO_PANIC("float encoding chosen for int stream");
        }
        // chooseIntEncoding ranks candidates by *pre-compression* size
        // (e.g. kBitPacked strips redundancy the codec would otherwise
        // find), but some pages invert under compression: low-entropy
        // plain bytes can LZ below a varint/bit-packed payload. Frame
        // both candidates and keep the smaller, so enabling a codec
        // never loses to force_plain on any page.
        static thread_local std::vector<uint8_t> frame;
        frame.clear();
        writePageFrame(frame, encoding, static_cast<uint32_t>(n), payload,
                       options.codec);
        if (options.codec != PageCodec::kNone &&
            encoding != Encoding::kPlainI64) {
            static thread_local std::vector<uint8_t> plain_frame;
            plain_frame.clear();
            writePageFrame(plain_frame, Encoding::kPlainI64,
                           static_cast<uint32_t>(n),
                           enc::encodePlainI64(slice), options.codec);
            if (plain_frame.size() < frame.size())
                frame.swap(plain_frame);
        }
        out.insert(out.end(), frame.begin(), frame.end());
        ++meta.num_pages;
        pos += n;
    } while (pos < values.size());
    meta.byte_size = out.size() - meta.offset;
    return meta;
}

/** Append framed pages for a float sequence; returns stream metadata. */
StreamMeta
writeF32Stream(std::vector<uint8_t>& out, std::span<const float> values,
               const WriterOptions& options)
{
    StreamMeta meta;
    meta.offset = out.size();
    meta.value_count = values.size();
    size_t pos = 0;
    do {
        const size_t n = std::min(values.size() - pos, kMaxValuesPerPage);
        const auto payload = enc::encodePlainF32(values.subspan(pos, n));
        writePageFrame(out, Encoding::kPlainF32, static_cast<uint32_t>(n),
                       payload, options.codec);
        ++meta.num_pages;
        pos += n;
    } while (pos < values.size());
    meta.byte_size = out.size() - meta.offset;
    return meta;
}

}  // namespace

uint64_t
ColumnMeta::byteSize() const
{
    uint64_t total = 0;
    for (const auto& s : streams)
        total += s.byte_size;
    return total;
}

Schema
FileFooter::schema() const
{
    Schema schema;
    for (const auto& col : columns)
        schema.add({col.name, col.kind});
    return schema;
}

std::vector<uint8_t>
ColumnarFileWriter::write(const RowBatch& batch, uint64_t partition_id) const
{
    PRESTO_CHECK(batch.complete(), "cannot write an incomplete batch");

    std::vector<uint8_t> out;
    for (char c : kMagic)
        out.push_back(static_cast<uint8_t>(c));

    std::vector<ColumnMeta> columns;
    columns.reserve(batch.numColumns());

    for (size_t c = 0; c < batch.numColumns(); ++c) {
        const auto& spec = batch.schema().feature(c);
        ColumnMeta meta;
        meta.name = spec.name;
        meta.kind = spec.kind;
        if (spec.kind == FeatureKind::kSparse) {
            const auto& col = batch.sparse(c);
            // Lengths stream: one entry per row.
            std::vector<int64_t> lengths(col.numRows());
            for (size_t r = 0; r < col.numRows(); ++r)
                lengths[r] = static_cast<int64_t>(col.rowLength(r));
            meta.streams.push_back(writeI64Stream(out, lengths, options_));
            meta.streams.push_back(
                writeI64Stream(out, col.values(), options_));
        } else {
            const auto& col = batch.dense(c);
            meta.streams.push_back(
                writeF32Stream(out, col.values(), options_));
        }
        if (c < options_.column_heat.size())
            for (auto& s : meta.streams)
                s.heat = std::min(options_.column_heat[c], kMaxStreamHeat);
        columns.push_back(std::move(meta));
    }

    // Footer.
    std::vector<uint8_t> footer;
    enc::putVarint(footer, batch.numRows());
    enc::putVarint(footer, partition_id);
    enc::putVarint(footer, columns.size());
    for (const auto& col : columns) {
        putString(footer, col.name);
        footer.push_back(static_cast<uint8_t>(col.kind));
        enc::putVarint(footer, col.streams.size());
        for (const auto& s : col.streams) {
            enc::putVarint(footer, s.offset);
            enc::putVarint(footer, s.byte_size);
            enc::putVarint(footer, s.value_count);
            enc::putVarint(footer, s.num_pages);
            enc::putVarint(footer, s.heat);
        }
    }

    const uint32_t footer_crc = crc32c(footer.data(), footer.size());
    out.insert(out.end(), footer.begin(), footer.end());
    putU32(out, static_cast<uint32_t>(footer.size()));
    putU32(out, footer_crc);
    for (char c : kMagic)
        out.push_back(static_cast<uint8_t>(c));
    return out;
}

Status
ColumnarFileReader::open(std::span<const uint8_t> data)
{
    open_ = false;
    footer_only_ = false;
    bytes_touched_ = 0;
    data_ = data;
    file_size_ = data.size();

    if (data.size() < 4)
        return Status::corruption("file too small for PSF framing");
    if (std::memcmp(data.data(), kMagic, 4) != 0)
        return Status::corruption("bad header magic");
    return parseFooterRegion(data, 0, data.size());
}

Status
ColumnarFileReader::openTail(std::span<const uint8_t> tail,
                             uint64_t file_size)
{
    open_ = false;
    footer_only_ = true;
    bytes_touched_ = 0;
    data_ = {};
    file_size_ = file_size;

    if (tail.size() > file_size)
        return Status::invalidArgument("tail larger than the file");
    // The header magic is outside the tail; the footer CRC and trailer
    // magic below still authenticate the directory before any plan or
    // page is trusted.
    return parseFooterRegion(tail, file_size - tail.size(), file_size);
}

Status
ColumnarFileReader::parseFooterRegion(std::span<const uint8_t> region,
                                      uint64_t region_base,
                                      uint64_t file_size)
{
    // Reset the footer in place: column/stream vectors (and the name
    // strings inside them) keep their capacity across open() calls, so
    // re-opening same-shaped partitions does not allocate.
    footer_.num_rows = 0;
    footer_.partition_id = 0;

    const size_t trailer = 4 + 4 + 4;  // size + crc + magic
    if (file_size < 4 + trailer || region.size() < trailer)
        return Status::corruption("file too small for PSF framing");
    if (std::memcmp(region.data() + region.size() - 4, kMagic, 4) != 0)
        return Status::corruption("bad trailer magic");

    const size_t size_pos = region.size() - trailer;
    const uint32_t footer_size = getU32(region, size_pos);
    const uint32_t footer_crc = getU32(region, size_pos + 4);
    if (footer_size > file_size - trailer - 4)
        return Status::corruption("footer size exceeds file");
    if (footer_size > size_pos)
        return Status::corruption("footer not covered by provided tail");
    const size_t footer_pos = size_pos - footer_size;
    // Absolute offset where the data region ends (== footer start).
    const uint64_t data_end = region_base + footer_pos;
    const auto footer_bytes = region.subspan(footer_pos, footer_size);
    if (crc32c(footer_bytes.data(), footer_bytes.size()) != footer_crc)
        return Status::corruption("footer checksum mismatch");

    size_t pos = 0;
    PRESTO_RETURN_IF_ERROR(
        enc::getVarint(footer_bytes, pos, footer_.num_rows));
    PRESTO_RETURN_IF_ERROR(
        enc::getVarint(footer_bytes, pos, footer_.partition_id));
    uint64_t num_columns = 0;
    PRESTO_RETURN_IF_ERROR(enc::getVarint(footer_bytes, pos, num_columns));
    if (num_columns > footer_size)
        return Status::corruption("implausible column count");
    footer_.columns.resize(num_columns);
    for (uint64_t c = 0; c < num_columns; ++c) {
        ColumnMeta& col = footer_.columns[c];
        PRESTO_RETURN_IF_ERROR(getString(footer_bytes, pos, col.name));
        if (pos >= footer_bytes.size())
            return Status::corruption("truncated column kind");
        const uint8_t kind = footer_bytes[pos++];
        if (kind > static_cast<uint8_t>(FeatureKind::kLabel))
            return Status::corruption("unknown feature kind");
        col.kind = static_cast<FeatureKind>(kind);
        uint64_t num_streams = 0;
        PRESTO_RETURN_IF_ERROR(
            enc::getVarint(footer_bytes, pos, num_streams));
        if (num_streams > 2)
            return Status::corruption("implausible stream count");
        col.streams.clear();
        for (uint64_t s = 0; s < num_streams; ++s) {
            StreamMeta stream;
            uint64_t num_pages = 0;
            PRESTO_RETURN_IF_ERROR(
                enc::getVarint(footer_bytes, pos, stream.offset));
            PRESTO_RETURN_IF_ERROR(
                enc::getVarint(footer_bytes, pos, stream.byte_size));
            PRESTO_RETURN_IF_ERROR(
                enc::getVarint(footer_bytes, pos, stream.value_count));
            PRESTO_RETURN_IF_ERROR(
                enc::getVarint(footer_bytes, pos, num_pages));
            stream.num_pages = static_cast<uint32_t>(num_pages);
            uint64_t heat = 0;
            PRESTO_RETURN_IF_ERROR(
                enc::getVarint(footer_bytes, pos, heat));
            if (heat > kMaxStreamHeat)
                return Status::corruption("stream heat out of range");
            stream.heat = static_cast<uint32_t>(heat);
            if (stream.offset > data_end ||
                stream.byte_size > data_end - stream.offset)
                return Status::corruption("stream extends past data region");
            // Defensive: the writer caps pages at kMaxValuesPerPage, so
            // a larger claim can only come from footer damage and would
            // make the decoder allocate unbounded output.
            if (stream.value_count >
                static_cast<uint64_t>(stream.num_pages) * kMaxValuesPerPage)
                return Status::corruption("stream value count implausible");
            col.streams.push_back(stream);
        }
    }
    if (pos != footer_bytes.size())
        return Status::corruption("trailing bytes in footer");
    // Names key projection and the schema, which rejects repeats.
    names_.clear();
    for (const auto& col : footer_.columns)
        names_.push_back(col.name);
    std::sort(names_.begin(), names_.end());
    if (std::adjacent_find(names_.begin(), names_.end()) != names_.end())
        return Status::corruption("duplicate column name in footer");

    bytes_touched_ = footer_size + trailer + 4;
    open_ = true;
    return Status::okStatus();
}

Status
ColumnarFileReader::validatePlans(std::span<const PageReadPlan> plans) const
{
    if (!open_)
        return Status::failedPrecondition("reader is not open");
    // Per-(column, stream) coverage cursors. Plans must visit each
    // stream's pages in order and cover its value range exactly, the
    // same invariant planPageReads() establishes by scanning.
    std::vector<std::vector<uint64_t>> covered(footer_.columns.size());
    for (size_t c = 0; c < footer_.columns.size(); ++c)
        covered[c].assign(footer_.columns[c].streams.size(), 0);
    for (const PageReadPlan& plan : plans) {
        if (plan.column >= footer_.columns.size())
            return Status::corruption("plan names an unknown column");
        const ColumnMeta& col = footer_.columns[plan.column];
        if (plan.stream >= col.streams.size())
            return Status::corruption("plan names an unknown stream");
        const StreamMeta& stream = col.streams[plan.stream];
        if (plan.frame_bytes < kPageFrameBytes)
            return Status::corruption("plan frame impossibly small");
        // open() bounded every stream by the data region, so a frame
        // inside its stream lies inside the file body.
        const uint64_t stream_end = stream.offset + stream.byte_size;
        if (plan.offset < stream.offset || plan.offset > stream_end ||
            plan.frame_bytes > stream_end - plan.offset) {
            return Status::corruption("plan frame outside its stream");
        }
        uint64_t& cursor = covered[plan.column][plan.stream];
        if (plan.out_offset != cursor ||
            plan.out_offset + plan.value_count > stream.value_count) {
            return Status::corruption(
                "plan output range disagrees with footer");
        }
        cursor += plan.value_count;
    }
    for (size_t c = 0; c < footer_.columns.size(); ++c) {
        for (size_t s = 0; s < footer_.columns[c].streams.size(); ++s) {
            if (covered[c][s] != footer_.columns[c].streams[s].value_count)
                return Status::corruption(
                    "plans do not cover every stream value");
        }
    }
    return Status::okStatus();
}

void
ColumnarFileReader::selectAll()
{
    const size_t n = footer_.columns.size();
    selected_.resize(n);
    out_column_.resize(n);
    for (size_t c = 0; c < n; ++c) {
        selected_[c] = static_cast<uint32_t>(c);
        out_column_[c] = static_cast<int32_t>(c);
    }
}

StatusOr<RowBatch>
ColumnarFileReader::readColumns(const std::vector<std::string>& names)
{
    if (!open_)
        return Status::failedPrecondition("reader is not open");
    selected_.clear();
    out_column_.assign(footer_.columns.size(), -1);
    for (const auto& name : names) {
        size_t c = 0;
        while (c < footer_.columns.size() && footer_.columns[c].name != name)
            ++c;
        if (c == footer_.columns.size())
            return Status::notFound("no column named " + name);
        if (out_column_[c] >= 0)
            return Status::invalidArgument("column requested twice: " + name);
        out_column_[c] = static_cast<int32_t>(selected_.size());
        selected_.push_back(static_cast<uint32_t>(c));
    }
    RowBatch batch;
    PRESTO_RETURN_IF_ERROR(readSelected(batch));
    return batch;
}

StatusOr<RowBatch>
ColumnarFileReader::readAll()
{
    RowBatch batch;
    PRESTO_RETURN_IF_ERROR(readAllInto(batch));
    return batch;
}

Status
ColumnarFileReader::readAllInto(RowBatch& out)
{
    selectAll();
    return readSelected(out);
}

Status
ColumnarFileReader::readSelected(RowBatch& out)
{
    // Plan before sizing: a footer's row or value-count claim sizes no
    // buffer until the frame scan has shown the pages that back it.
    PRESTO_RETURN_IF_ERROR(planSelected(plans_));
    PRESTO_RETURN_IF_ERROR(beginSelected(out));
    const auto frame = [this](const PageReadPlan& plan) {
        return data_.subspan(plan.offset, plan.frame_bytes);
    };
    Status st;
    if (pool_ == nullptr || plans_.size() < 2) {
        for (const PageReadPlan& plan : plans_) {
            st = completePage(plan, frame(plan), out, &scratch_);
            if (!st.ok())
                break;
        }
    } else {
        // One task per page of the file, each decoding onto its own
        // output slice. Every slot is written, so the first failure in
        // file order is reported, as the serial loop does.
        plan_status_.resize(plans_.size());
        pool_->parallelFor(plans_.size(), [&](size_t i) {
            plan_status_[i] = completePage(plans_[i], frame(plans_[i]), out);
        });
        for (const Status& slot : plan_status_) {
            if (!slot.ok()) {
                st = slot;
                break;
            }
        }
    }
    if (!st.ok()) {
        async_active_ = false;
        return st;
    }
    return finishReadInto(out);
}

bool
ColumnarFileReader::schemaMatches(const RowBatch& batch) const
{
    if (!batch.complete() || batch.numColumns() != selected_.size())
        return false;
    for (size_t o = 0; o < selected_.size(); ++o) {
        const auto& spec = batch.schema().feature(o);
        const ColumnMeta& col = footer_.columns[selected_[o]];
        if (spec.name != col.name || spec.kind != col.kind)
            return false;
    }
    return true;
}

Status
ColumnarFileReader::planPageReads(std::vector<PageReadPlan>& plans)
{
    selectAll();
    return planSelected(plans);
}

Status
ColumnarFileReader::planSelected(std::vector<PageReadPlan>& plans)
{
    if (!open_)
        return Status::failedPrecondition("reader is not open");
    if (footer_only_)
        return Status::failedPrecondition(
            "reader is footer-only (page reads need the body)");
    plans.clear();
    for (size_t c = 0; c < footer_.columns.size(); ++c) {
        if (out_column_[c] < 0)
            continue;
        const ColumnMeta& meta = footer_.columns[c];
        for (size_t s = 0; s < meta.streams.size(); ++s) {
            const StreamMeta& stream = meta.streams[s];
            const size_t end = stream.offset + stream.byte_size;
            size_t pos = stream.offset;
            uint64_t off = 0;
            for (uint32_t p = 0; p < stream.num_pages; ++p) {
                PageReadPlan plan;
                plan.offset = pos;
                plan.out_offset = off;
                plan.column = static_cast<uint32_t>(c);
                plan.stream = static_cast<uint32_t>(s);
                PageView page;
                PRESTO_RETURN_IF_ERROR(scanPageFrame(data_, pos, page));
                if (pos > end)
                    return Status::corruption(
                        "stream page sizes disagree with footer");
                if (off + page.value_count > stream.value_count)
                    return Status::corruption(
                        "stream value count mismatch");
                plan.frame_bytes =
                    static_cast<uint32_t>(pos - plan.offset);
                plan.value_count = page.value_count;
                plans.push_back(plan);
                off += page.value_count;
            }
            if (pos != end)
                return Status::corruption(
                    "stream page sizes disagree with footer");
            if (off != stream.value_count)
                return Status::corruption("stream value count mismatch");
        }
    }
    return Status::okStatus();
}

void
assignChannelPlacement(const FileFooter& footer, int num_channels,
                       std::vector<PageReadPlan>& plans)
{
    if (num_channels <= 0)
        num_channels = 1;
    uint32_t max_heat = 0;
    for (const auto& col : footer.columns)
        for (const auto& s : col.streams)
            max_heat = std::max(max_heat, s.heat);
    if (max_heat == 0) {
        for (auto& plan : plans) {
            plan.channel = -1;
            plan.hot = false;
        }
        return;
    }
    const uint32_t hot_threshold = (max_heat + 1) / 2;

    // Stream ordinals (file order) key the per-stream cold byte totals.
    std::vector<std::vector<uint32_t>> ordinal(footer.columns.size());
    uint32_t next_ordinal = 0;
    for (size_t c = 0; c < footer.columns.size(); ++c) {
        ordinal[c].resize(footer.columns[c].streams.size());
        for (size_t s = 0; s < footer.columns[c].streams.size(); ++s)
            ordinal[c][s] = next_ordinal++;
    }

    // Pass 1: classify, stripe hot pages round-robin, and total each
    // cold stream's service cost. Cost is a fixed flash-read term plus
    // the transfer bytes (placementPageCost), because a 16-byte length
    // page still costs a full flash page read — balancing raw bytes
    // would pile the fixed costs onto whichever channels draw the tiny
    // streams. Hot costs seed the per-channel load so the cold
    // balancing below accounts for them.
    std::vector<uint64_t> load(static_cast<size_t>(num_channels), 0);
    std::vector<uint64_t> cold_cost(next_ordinal, 0);
    uint32_t hot_rr = 0;
    for (auto& plan : plans) {
        if (plan.column >= footer.columns.size() ||
            plan.stream >= footer.columns[plan.column].streams.size()) {
            plan.channel = -1;
            plan.hot = false;
            continue;
        }
        const StreamMeta& stream =
            footer.columns[plan.column].streams[plan.stream];
        plan.hot = stream.heat >= hot_threshold;
        if (plan.hot) {
            plan.channel = static_cast<int32_t>(
                hot_rr++ % static_cast<uint32_t>(num_channels));
            load[static_cast<size_t>(plan.channel)] +=
                placementPageCost(plan.frame_bytes);
        } else {
            cold_cost[ordinal[plan.column][plan.stream]] +=
                placementPageCost(plan.frame_bytes);
        }
    }

    // Pass 2: place each cold stream whole on one channel — heaviest
    // stream first onto the least-loaded channel — so streams of very
    // different sizes (a 16-byte length stream beside a multi-page
    // value stream) cannot pile the heavy ones onto a channel subset.
    std::vector<uint32_t> by_weight;
    for (uint32_t o = 0; o < next_ordinal; ++o)
        if (cold_cost[o] > 0)
            by_weight.push_back(o);
    std::stable_sort(by_weight.begin(), by_weight.end(),
                     [&](uint32_t a, uint32_t b) {
                         return cold_cost[a] > cold_cost[b];
                     });
    std::vector<int32_t> cold_channel(next_ordinal, 0);
    for (uint32_t o : by_weight) {
        size_t best = 0;
        for (size_t c = 1; c < load.size(); ++c)
            if (load[c] < load[best])
                best = c;
        cold_channel[o] = static_cast<int32_t>(best);
        load[best] += cold_cost[o];
    }
    for (auto& plan : plans) {
        if (plan.hot)
            continue;
        if (plan.column >= footer.columns.size() ||
            plan.stream >= footer.columns[plan.column].streams.size())
            continue;  // invalid plan, forced to -1 above
        plan.channel = cold_channel[ordinal[plan.column][plan.stream]];
    }
}

Status
ColumnarFileReader::beginReadInto(RowBatch& out)
{
    if (!open_)
        return Status::failedPrecondition("reader is not open");
    selectAll();
    return beginSelected(out);
}

Status
ColumnarFileReader::beginSelected(RowBatch& out)
{
    if (!schemaMatches(out)) {
        // Fresh batch with the selected schema; columns start empty (all
        // zero rows) and are sized below like the reused-buffer path.
        Schema schema;
        for (uint32_t c : selected_)
            schema.add({footer_.columns[c].name, footer_.columns[c].kind});
        RowBatch fresh(std::move(schema));
        for (uint32_t c : selected_) {
            if (footer_.columns[c].kind == FeatureKind::kSparse)
                fresh.addColumn(SparseColumn{});
            else
                fresh.addColumn(DenseColumn{});
        }
        out = std::move(fresh);
    }
    for (size_t o = 0; o < selected_.size(); ++o) {
        const ColumnMeta& meta = footer_.columns[selected_[o]];
        const bool sparse = meta.kind == FeatureKind::kSparse;
        if (meta.streams.size() != (sparse ? 2u : 1u))
            return Status::corruption(
                sparse ? "sparse column must have two streams"
                       : "dense column must have one stream");
        if (meta.streams[0].value_count != footer_.num_rows)
            return Status::corruption(
                sparse ? "sparse lengths row count mismatch"
                       : "dense column row count mismatch");
        if (sparse) {
            // Row lengths decode into offsets[1..]; finishReadInto()
            // turns them into CSR offsets in place.
            SparseColumn& col = out.mutableSparse(o);
            col.mutableOffsets().resize(footer_.num_rows + 1);
            resizeReused(col.mutableValues(),
                         meta.streams[1].value_count);
        } else {
            out.mutableDense(o).mutableValues().resize(footer_.num_rows);
        }
    }
    async_active_ = true;
    return Status::okStatus();
}

Status
ColumnarFileReader::completePage(const PageReadPlan& plan,
                                 std::span<const uint8_t> frame,
                                 RowBatch& out, PageScratch* scratch)
{
    if (!async_active_)
        return Status::failedPrecondition("no async read in progress");
    // CRC verification happens here, before any decompress or decode,
    // so a bit flip acquired in flight is caught per page — including
    // flips inside a *compressed* payload, which fail the CRC (over
    // the compressed bytes) without the codec ever running.
    size_t pos = 0;
    PageView page;
    PRESTO_RETURN_IF_ERROR(readPageFrame(frame, pos, page));
    if (pos != frame.size() || page.value_count != plan.value_count)
        return Status::corruption("page frame disagrees with read plan");

    // Pages decoding concurrently on a shared pool each use their
    // thread's scratch; a serial caller brings its own.
    static thread_local PageScratch tl_scratch;
    PageScratch& sc = scratch != nullptr ? *scratch : tl_scratch;
    std::span<const uint8_t> raw;
    PRESTO_RETURN_IF_ERROR(pagePayload(page, sc.payload, sc.lz_stream, raw));

    const auto col = static_cast<size_t>(out_column_[plan.column]);
    if (footer_.columns[plan.column].kind != FeatureKind::kSparse) {
        float* dst = out.mutableDense(col).mutableValues().data();
        return enc::decodeF32Into(page.encoding, raw, page.value_count,
                                  dst + plan.out_offset);
    }
    SparseColumn& sparse = out.mutableSparse(col);
    const bool fast = enc::fastDecodeEnabled();
    if (plan.stream == 1 && fast) {
        return enc::decodeI64Into(
            page.encoding, raw, page.value_count,
            sparse.mutableValues().data() + plan.out_offset, sc.dict);
    }
    // Row lengths, and values under the reference decoder, go through
    // page-sized scratch.
    if (fast) {
        sc.values.resize(page.value_count);
        PRESTO_RETURN_IF_ERROR(enc::decodeI64Into(
            page.encoding, raw, page.value_count, sc.values.data(), sc.dict));
    } else {
        PRESTO_RETURN_IF_ERROR(enc::decodeI64Reference(
            page.encoding, raw, page.value_count, sc.values, sc.dict));
    }
    if (plan.stream == 1) {
        std::copy(sc.values.begin(), sc.values.end(),
                  sparse.mutableValues().data() + plan.out_offset);
        return Status::okStatus();
    }
    uint32_t* lengths = sparse.mutableOffsets().data() + 1 + plan.out_offset;
    for (size_t i = 0; i < sc.values.size(); ++i) {
        if (sc.values[i] < 0)
            return Status::corruption("negative sparse row length");
        if (sc.values[i] > int64_t{UINT32_MAX})
            return Status::corruption("sparse row length exceeds uint32");
        lengths[i] = static_cast<uint32_t>(sc.values[i]);
    }
    return Status::okStatus();
}

Status
ColumnarFileReader::finishReadInto(RowBatch& out)
{
    if (!async_active_)
        return Status::failedPrecondition("no async read in progress");
    async_active_ = false;
    for (size_t o = 0; o < selected_.size(); ++o) {
        const ColumnMeta& meta = footer_.columns[selected_[o]];
        for (const StreamMeta& stream : meta.streams)
            bytes_touched_ += stream.byte_size;
        if (meta.kind != FeatureKind::kSparse)
            continue;
        // Prefix-sum the decoded row lengths into CSR offsets in place.
        SparseColumn& col = out.mutableSparse(o);
        std::vector<uint32_t>& offsets = col.mutableOffsets();
        const uint64_t num_values = col.mutableValues().size();
        uint64_t running = 0;
        offsets[0] = 0;
        for (size_t r = 1; r < offsets.size(); ++r) {
            running += offsets[r];
            if (running > num_values)
                return Status::corruption("sparse lengths exceed values");
            offsets[r] = static_cast<uint32_t>(running);
        }
        if (running != num_values)
            return Status::corruption("sparse lengths do not cover values");
    }
    out.resetRowCountFromColumns();
    return Status::okStatus();
}

Status
saveToFile(const std::string& path, std::span<const uint8_t> bytes)
{
    // Crash-atomic publish (temp + fsync + rename + dir fsync): readers
    // either see the previous complete file or the new complete one,
    // never a torn prefix.
    return writeFileDurable(path, bytes);
}

StatusOr<std::vector<uint8_t>>
loadFromFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return Status::notFound("cannot open for reading: " + path);
    const auto size = static_cast<size_t>(in.tellg());
    in.seekg(0);
    std::vector<uint8_t> bytes(size);
    in.read(reinterpret_cast<char*>(bytes.data()),
            static_cast<std::streamsize>(size));
    if (!in)
        return Status::corruption("short read from " + path);
    return bytes;
}

}  // namespace presto
