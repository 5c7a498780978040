/**
 * @file
 * AsyncPartitionReader: page-granular partition reads over an IoRing.
 *
 * The blocking Extract path fetches a whole PSF file, then decodes it.
 * This reader instead keeps a window of page frames in flight on a
 * (possibly shared) IoRing and decodes each page the moment its bytes
 * arrive — decode of page k overlaps the storage latency of pages
 * k+1..k+depth, which is the paper's in-storage prefetch pattern.
 *
 * Fault handling mirrors the blocking path end to end:
 *  - transient errors / timeouts retry inside the ring with backoff;
 *  - a bit flip acquired in flight fails the page's CRC check in
 *    completePage(), and just that page is re-read (fresh fault draws
 *    via the attempt ordinal) up to max_page_attempts;
 *  - anything unrecoverable surfaces as the read's Status.
 *
 * With setDecodePool(), completed pages decode on a ThreadPool instead
 * of the calling thread. The pool may be shared by several readers, so
 * completed pages of *different* partitions keep one pool busy even
 * when each file's pages alone would not.
 */
#ifndef PRESTO_IO_ASYNC_READER_H_
#define PRESTO_IO_ASYNC_READER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "columnar/columnar_file.h"
#include "common/status.h"
#include "io/io_ring.h"

namespace presto {

class ThreadPool;

/** How page requests are mapped to the ring's flash channels. */
enum class ChannelPlacement : uint8_t {
    kNone = 0,     ///< no affinity: any device worker (legacy behavior)
    kAddress = 1,  ///< address-striped: channel = (offset / stripe) % C
    kHeat = 2,     ///< frequency-aware: assignChannelPlacement() hints
};

/** Per-read knobs. */
struct AsyncReadOptions {
    /**
     * Page requests in flight on the device at once. Up to
     * queue_depth - 1 completed frames additionally wait in a decode
     * backlog so the device window refills before the CPU sinks into a
     * decode; queue_depth = 1 therefore stays the strictly-alternating
     * blocking schedule (one page's storage wait, then its decode).
     */
    size_t queue_depth = 8;
    /** Whole-page re-reads before a CRC failure becomes fatal. */
    uint32_t max_page_attempts = 16;
    /**
     * Channel placement of page requests. kHeat stripes pages of hot
     * streams (footer heat metadata) round-robin across distinct
     * channels and keeps cold streams channel-contiguous, so channel
     * parallelism and entropy packing compound; with no heat metadata
     * it degrades to kNone. kAddress models a conventional
     * address-interleaved SSD mapping (the striping baseline).
     */
    ChannelPlacement placement = ChannelPlacement::kNone;
    /** Stripe size of kAddress placement, in bytes. */
    uint64_t address_stripe_bytes = 64 * 1024;
};

/** Counters for the most recent read(). */
struct AsyncReadStats {
    uint64_t pages = 0;
    uint64_t bytes_read = 0;          ///< bytes delivered by the ring
    uint64_t device_retries = 0;      ///< ring-level transient/timeout retries
    uint64_t corrupt_page_rereads = 0;  ///< pages re-read after CRC failure
    double modeled_storage_sec = 0;   ///< sum of per-request latencies
};

/**
 * One reader = one in-progress partition read. Not thread-safe itself
 * (one read() at a time), but many readers may share one IoRing and
 * one decode ThreadPool.
 */
class AsyncPartitionReader
{
  public:
    explicit AsyncPartitionReader(IoRing& ring,
                                  AsyncReadOptions options = {});

    /**
     * Read through @p ring from now on, as a newly registered consumer.
     * The frame buffers and decode scratch are kept, so a reader can
     * outlive the ring it was built on and serve another one; it must
     * not read again until it is given a live ring.
     */
    void setRing(IoRing& ring);

    /** Decode completed pages on @p pool (nullptr = calling thread). */
    void setDecodePool(ThreadPool* pool) { pool_ = pool; }

    /**
     * Read and decode the partition in @p file into @p out, page
     * frames flowing through the ring. Buffer-reuse semantics and the
     * decoded batch are bit-identical to ColumnarFileReader::
     * readAllInto() on the same bytes.
     * @param partition_id Fault-draw stream identity of this file.
     */
    Status read(std::span<const uint8_t> file, uint64_t partition_id,
                RowBatch& out);

    /**
     * File-backed source for readFile(): the PSF body stays on storage
     * and every page frame arrives via pread through the ring. The
     * descriptor is caller-owned and must stay open for the read; the
     * tail must cover the footer + trailer; the plans come from outside
     * (e.g. a segment store's journal) and are re-validated against the
     * footer before any page is fetched.
     */
    struct FileReadSource {
        int fd = -1;
        uint64_t file_size = 0;
        std::span<const uint8_t> tail;
        std::span<const PageReadPlan> plans;
    };

    /**
     * Same decode pipeline as read(), but page frames are pread() from
     * @p src.fd by the ring's device workers instead of copied from a
     * memory span — the cold-read path of the persistent segment store.
     * Retry/backoff, CRC re-read, and fault semantics are identical.
     */
    Status readFile(const FileReadSource& src, uint64_t partition_id,
                    RowBatch& out);

    const AsyncReadStats& lastReadStats() const { return stats_; }

    /** Footer / byte-touch access for the file of the last read(). */
    const ColumnarFileReader& reader() const { return reader_; }

  private:
    struct Slot {
        std::vector<uint8_t> buf;
        size_t plan = 0;
        uint32_t attempt = 0;
    };

    /** Shared submit/reap/decode loop of read()/readFile(); @p fd < 0
        means memory-backed (@p file), else file-backed via pread. */
    Status runRead(std::span<const uint8_t> file, int fd,
                   uint64_t partition_id, RowBatch& out);
    Status submitPage(std::span<const uint8_t> file, int fd,
                      uint64_t partition_id, size_t plan_index,
                      uint32_t attempt);
    void decodeSlot(size_t slot_index, RowBatch* out);

    IoRing* ring_;
    uint32_t consumer_;
    AsyncReadOptions options_;
    ThreadPool* pool_ = nullptr;
    ColumnarFileReader reader_;
    PageScratch scratch_;  ///< decode scratch when pages decode inline
    std::vector<PageReadPlan> plans_;
    std::vector<Slot> slots_;
    AsyncReadStats stats_;

    // runRead()'s working lists, kept across reads so a warmed reader
    // allocates nothing per read: the submission order, its per-channel
    // buckets (0 = unpinned) with their cost and cursor, completed
    // frames awaiting an inline decode, and each reap's completions.
    std::vector<size_t> order_;
    std::vector<std::vector<size_t>> buckets_;
    std::vector<uint64_t> bucket_cost_;
    std::vector<size_t> bucket_head_;
    std::vector<size_t> ready_;
    std::vector<IoCompletion> reaped_;

    // Shared with pool decode tasks (guarded by mu_).
    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<size_t> free_slots_;
    std::vector<std::pair<size_t, uint32_t>> retries_;  ///< (plan, attempt)
    size_t remaining_ = 0;        ///< pages not yet decoded successfully
    size_t decodes_pending_ = 0;  ///< pool tasks not yet finished
    Status error_;                ///< first unrecoverable failure
};

}  // namespace presto

#endif  // PRESTO_IO_ASYNC_READER_H_
