/**
 * @file
 * The PSF ("PreSto columnar File") format: our self-contained stand-in for
 * Apache Parquet.
 *
 * One file holds one partition (a mutually-exclusive shard of rows, as in
 * Figure 1 of the paper). Data is laid out column-major so a reader can
 * selectively fetch any subset of features without touching the rest —
 * the property the Extract stage depends on.
 *
 * Layout:
 *   "PSF1"                            4-byte header magic
 *   column chunks (per schema order)  each a run of framed pages
 *   footer                            schema + per-stream directory
 *   footer_size u32, footer_crc u32
 *   "PSF1"                            4-byte trailer magic
 *
 * Dense/label features have one value stream. Sparse features have a
 * lengths stream (RLE/varint) and a values stream (dictionary/varint).
 */
#ifndef PRESTO_COLUMNAR_COLUMNAR_FILE_H_
#define PRESTO_COLUMNAR_COLUMNAR_FILE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/page.h"
#include "common/status.h"
#include "tabular/row_batch.h"

namespace presto {

class ThreadPool;

/** Directory entry for one encoded stream of one column. */
struct StreamMeta {
    uint64_t offset = 0;       ///< byte offset of the first page frame
    uint64_t byte_size = 0;    ///< total framed bytes of this stream
    uint64_t value_count = 0;  ///< decoded values across all pages
    uint32_t num_pages = 0;
    /**
     * Access heat: relative per-value downstream access cost of this
     * stream's column (from cachesim op traces or a supplied
     * histogram), quantized to [0, kMaxStreamHeat]. 0 = unknown/cold.
     * The async reader stripes pages of hot streams round-robin across
     * distinct flash channels; cold streams stay channel-contiguous.
     */
    uint32_t heat = 0;
};

/** Upper bound of StreamMeta::heat (quantization full scale). */
inline constexpr uint32_t kMaxStreamHeat = 1000;

/** Directory entry for one column. */
struct ColumnMeta {
    std::string name;
    FeatureKind kind = FeatureKind::kDense;
    std::vector<StreamMeta> streams;  ///< 1 (dense) or 2 (sparse: len, val)

    /** Total framed bytes across streams. */
    uint64_t byteSize() const;
};

/** Parsed footer of a PSF file. */
struct FileFooter {
    uint64_t num_rows = 0;
    uint64_t partition_id = 0;
    std::vector<ColumnMeta> columns;

    /** Reconstruct the schema described by the footer. */
    Schema schema() const;
};

/**
 * One planned page-frame read of the async Extract path: where the
 * framed page lives in the file and where its decoded values land.
 * Produced by ColumnarFileReader::planPageReads() and consumed by
 * completePage() once the frame bytes arrive (e.g. via an IoRing).
 */
struct PageReadPlan {
    uint64_t offset = 0;       ///< absolute file offset of the page frame
    uint32_t frame_bytes = 0;  ///< framed length: header + payload + CRC
    uint32_t value_count = 0;  ///< decoded values in this page
    uint64_t out_offset = 0;   ///< index of the first value in its stream
    uint32_t column = 0;       ///< footer column index
    uint32_t stream = 0;       ///< stream index within the column
    // Transient placement hints, assigned at read time from the footer's
    // heat metadata (never serialized — the PSJ journal format carries
    // only the six fields above; recovery re-derives placement).
    int32_t channel = -1;      ///< preferred flash channel, -1 = any
    bool hot = false;          ///< page belongs to a hot (striped) stream
};

/**
 * Page-sized buffers of one completePage() at a time: the decompressed
 * payload, kLzEntropy's LZ intermediate, the dictionary and the decoded
 * row lengths. Capacity is reused across pages.
 */
struct PageScratch {
    std::vector<uint8_t> payload;
    std::vector<uint8_t> lz_stream;
    std::vector<int64_t> dict;
    std::vector<int64_t> values;
};

/** Writer knobs. */
struct WriterOptions {
    /**
     * Store every int stream (sparse values and row lengths alike) as
     * kPlainI64 instead of choosing the smallest encoding per page.
     * Dense float streams are kPlainF32 either way; the codec still
     * applies.
     */
    bool force_plain = false;
    /**
     * Per-page compression applied to encoded payloads. The value
     * selects the candidate menu writePageFrame() may try (kLzEntropy
     * = the full {lz, entropy, lz+entropy} menu); the strictly
     * smallest frame is stored, so dense already-packed pages
     * (kBitPacked indices, high-entropy hashed ids) typically stay
     * uncompressed while redundant or skewed pages shrink. kNone
     * disables compression entirely (byte-compatible with pre-codec
     * PSF files).
     */
    PageCodec codec = PageCodec::kLzEntropy;
    /**
     * Optional per-column access heat (same order as the batch's
     * columns), quantized into StreamMeta::heat by the writer; both
     * streams of a sparse column inherit the column's heat. Empty =
     * no heat metadata (every stream written cold). Values above
     * kMaxStreamHeat are clamped. See cachesim columnAccessHeat().
     */
    std::vector<uint32_t> column_heat;
};

/**
 * Serializes RowBatch partitions into PSF bytes.
 */
class ColumnarFileWriter
{
  public:
    explicit ColumnarFileWriter(WriterOptions options = {})
        : options_(options)
    {}

    /**
     * Encode @p batch as one PSF file.
     * @param partition_id Recorded in the footer.
     */
    std::vector<uint8_t> write(const RowBatch& batch,
                               uint64_t partition_id) const;

  private:
    WriterOptions options_;
};

/**
 * Reads PSF bytes with column projection and byte-touch accounting.
 *
 * There is one page-decode engine: the plan/complete split below. The
 * blocking reads (readAllInto(), readColumns(), readAll()) run that
 * same split over the in-memory body, with the page frames taken from
 * the open()ed bytes instead of fetched by the caller.
 *
 * The reader counts the bytes it actually inspects (pages of selected
 * columns + footer), which the storage model uses to credit columnar
 * layouts for avoiding overfetch.
 */
class ColumnarFileReader
{
  public:
    /** Parse and validate the footer. Keeps a reference to @p data. */
    Status open(std::span<const uint8_t> data);

    /**
     * Footer-only open from the file's tail bytes, for file-backed
     * reads where the body stays on storage: @p tail is the last
     * tail.size() bytes of a @p file_size-byte PSF file and must cover
     * the footer and trailer. The blocking reads and planPageReads()
     * need the body and fail with kFailedPrecondition on a footer-only
     * reader; the async split (beginReadInto / completePage /
     * finishReadInto) works unchanged because page frames arrive from
     * the caller. Page plans come from the caller too (e.g. a segment
     * store's journal), validated with validatePlans().
     */
    Status openTail(std::span<const uint8_t> tail, uint64_t file_size);

    /**
     * Check externally supplied page plans against the open footer:
     * every frame must lie inside the file body, land within its
     * stream's directory entry, and cover each stream's value range
     * exactly. Plans that pass cannot make completePage() write
     * outside the buffers beginReadInto() sized.
     */
    Status validatePlans(std::span<const PageReadPlan> plans) const;

    const FileFooter& footer() const { return footer_; }
    bool isOpen() const { return open_; }

    /**
     * Decode the named columns into a RowBatch whose schema holds
     * exactly those features, in request order. Only their pages are
     * read, so bytesTouched() grows by the selected streams alone.
     * @return kNotFound for unknown names, kInvalidArgument for a name
     * requested twice, kCorruption for damaged pages.
     */
    StatusOr<RowBatch> readColumns(const std::vector<std::string>& names);

    /** Decode every column. */
    StatusOr<RowBatch> readAll();

    /**
     * Buffer-reusing form of readAll(): when @p out already has this
     * file's schema (same names and kinds), columns are decoded in
     * place into its existing vectors — after a warm-up batch, repeated
     * open()+readAllInto() cycles on same-shaped partitions allocate
     * nothing. Any other @p out (including a default-constructed one)
     * is replaced wholesale. Byte-touch accounting matches readAll().
     */
    Status readAllInto(RowBatch& out);

    /**
     * Decode the blocking reads' pages in parallel over @p pool
     * (nullptr restores serial decode): one task per page of every
     * selected stream of the file. Models the paper's FPGA Decoder
     * unit, which works on independent pages concurrently. Results,
     * error semantics (the first failing page in file order is
     * returned), and byte-touch accounting are identical to serial
     * decode; only the wall clock changes. The pool may be shared
     * across readers, but one reader must not be used from two threads
     * at once.
     */
    void setThreadPool(ThreadPool* pool) { pool_ = pool; }

    // --- plan/submit/complete split (page-granular reads) ---------------
    //
    // Every read of the reader runs these steps:
    //   1. planPageReads()  - enumerate every page frame of the file
    //   2. (caller)         - fetch each frame, e.g. through an IoRing
    //   3. beginReadInto()  - size the output batch's buffers
    //   4. completePage()   - CRC-check + decode one arrived frame
    //   5. finishReadInto() - build CSR offsets, finalize accounting
    // An async caller decodes page k while pages k+1..k+d are still in
    // flight. readAllInto() is this split run over memory (step 2 is a
    // subspan of the open()ed bytes), so results, error semantics, and
    // byte-touch accounting are identical by construction. These public
    // steps always cover every column, output column = footer column.

    /**
     * Enumerate every page frame of every column (file order). This is
     * the reader's only frame scan: a plan set is produced only for
     * files whose page framing is consistent with the footer. @p plans
     * is clear()ed first and reuses its capacity.
     */
    Status planPageReads(std::vector<PageReadPlan>& plans);

    /**
     * Prepare @p out to receive decoded pages: same buffer-reuse rules
     * as readAllInto() (matching schema decodes in place; any other
     * batch is replaced), with every value buffer sized from the
     * footer. Must precede completePage()/finishReadInto().
     */
    Status beginReadInto(RowBatch& out);

    /**
     * Verify and decode one fetched page frame into its slice of
     * @p out. @p frame holds exactly plan.frame_bytes bytes read from
     * plan.offset; the per-page CRC is checked before any decode, so a
     * bit-flipped in-flight read surfaces here as kCorruption and the
     * caller can re-submit just that page. A sparse row length below 0
     * or above UINT32_MAX is kCorruption too. Thread-safe for concurrent
     * calls on *distinct* plans of one begun read (pages decode onto
     * disjoint output slices), which is what lets completed pages of
     * different partitions share one decode ThreadPool.
     * @param scratch Page-sized decode buffers. A caller that decodes
     *        its pages one at a time passes its own, so they live as
     *        long as it does; nullptr uses the calling thread's (the
     *        choice for concurrent calls on a pool).
     */
    Status completePage(const PageReadPlan& plan,
                        std::span<const uint8_t> frame, RowBatch& out,
                        PageScratch* scratch = nullptr);

    /**
     * Finalize after every planned page completed: prefix-sums the
     * sparse row lengths (decoded into the CSR offsets slots) into
     * offsets, checks that they cover the values exactly, and adds the
     * streams' bytes to bytesTouched(). @p out must be the batch
     * passed to beginReadInto().
     */
    Status finishReadInto(RowBatch& out);

    /** Bytes of the file inspected so far (footer + selected pages). */
    uint64_t bytesTouched() const { return bytes_touched_; }

    /** Bytes a row-oriented layout would have to read for any projection. */
    uint64_t
    totalDataBytes() const
    {
        return file_size_;
    }

  private:
    /** Shared footer parse of open()/openTail(). @p region ends at the
        file's last byte; @p region_base is its absolute offset. */
    Status parseFooterRegion(std::span<const uint8_t> region,
                             uint64_t region_base, uint64_t file_size);
    /** Select every footer column, in footer order, as the output. */
    void selectAll();
    /** planPageReads() over the selected columns (file order). */
    Status planSelected(std::vector<PageReadPlan>& plans);
    /** beginReadInto() over the selected columns. */
    Status beginSelected(RowBatch& out);
    /** The split over the in-memory body: plan the selected columns,
        size @p out, completePage() every plan (serially or over
        pool_), finishReadInto(). */
    Status readSelected(RowBatch& out);
    bool schemaMatches(const RowBatch& batch) const;

    std::span<const uint8_t> data_;
    FileFooter footer_;
    bool open_ = false;
    bool footer_only_ = false;
    uint64_t file_size_ = 0;
    uint64_t bytes_touched_ = 0;
    ThreadPool* pool_ = nullptr;
    // Columns of the current read: output column -> footer column, and
    // footer column -> output column (-1 = not read). The public split
    // selects every column in footer order.
    std::vector<uint32_t> selected_;
    std::vector<int32_t> out_column_;
    // Scratch reused across calls so warmed-up reads allocate nothing:
    // the blocking read's page plans and per-plan pool statuses, and
    // open()'s sorted column names.
    std::vector<PageReadPlan> plans_;
    std::vector<Status> plan_status_;
    std::vector<std::string_view> names_;
    PageScratch scratch_;  ///< serial completePage() calls
    // Whether a beginReadInto() is pending its finishReadInto().
    bool async_active_ = false;
};

/**
 * Relative service cost of one page read for channel balancing: a
 * fixed flash-read + controller term (expressed in transfer-byte
 * equivalents) plus the frame's transfer bytes. Without the fixed
 * term, byte-balancing would treat a 16-byte length page as free even
 * though it still occupies its channel for a full flash page read.
 */
inline uint64_t
placementPageCost(uint64_t frame_bytes)
{
    return 32 * 1024 + frame_bytes;
}

/**
 * Assign transient channel-placement hints to validated @p plans from
 * the footer's heat metadata (RecFlash-style frequency-aware mapping):
 * pages of *hot* streams — heat at least half the hottest stream's —
 * are striped round-robin across @p num_channels distinct flash
 * channels so the IoRing's per-channel workers serve them in parallel;
 * pages of cold streams stay channel-contiguous (one channel per whole
 * stream, chosen heaviest-stream-first onto the least-loaded channel
 * so total bytes balance across channels). With no heat metadata (all
 * zero) every plan keeps channel -1 (any worker). Plans may come from
 * planPageReads() or from a segment journal; the hints are transient
 * and never serialized.
 */
void assignChannelPlacement(const FileFooter& footer, int num_channels,
                            std::vector<PageReadPlan>& plans);

/** Write PSF bytes to a filesystem path. */
Status saveToFile(const std::string& path, std::span<const uint8_t> bytes);

/** Read a whole file from a filesystem path. */
StatusOr<std::vector<uint8_t>> loadFromFile(const std::string& path);

}  // namespace presto

#endif  // PRESTO_COLUMNAR_COLUMNAR_FILE_H_
