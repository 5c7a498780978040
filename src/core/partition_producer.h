/**
 * @file
 * PartitionProducer: the one Extract path from a PartitionStore to a
 * decoded RowBatch (Figure 9's fetch + decode steps), shared by the
 * batch pipeline's workers, every ingest-service worker and one-shot
 * epoch reads.
 *
 * The producer picks its source from what the store and its own
 * construction expose, never from an option:
 *  - an IoRing and a persistent store: every page frame of the
 *    partition's segment is pread through the ring (the cold path);
 *  - an IoRing only: page frames stream through the ring out of the
 *    store's pristine shared buffer;
 *  - neither: the store's fault-drawing shared fetch, decoded by a
 *    reused blocking reader.
 * In-ring faults retry inside the ring. Whole-partition failures share
 * one retry policy: kUnavailable and kCorruption retry up to
 * kMaxFetchAttempts times, kNotFound (a retired partition) and any
 * other error return at once.
 */
#ifndef PRESTO_CORE_PARTITION_PRODUCER_H_
#define PRESTO_CORE_PARTITION_PRODUCER_H_

#include <cstdint>
#include <memory>

#include "columnar/columnar_file.h"
#include "common/batch_arena.h"
#include "common/status.h"
#include "core/partition_store.h"
#include "tabular/row_batch.h"

namespace presto {

class AsyncPartitionReader;
class IoRing;
class ThreadPool;

/** Whole-partition fetch+decode attempts before a read gives up. */
inline constexpr uint64_t kMaxFetchAttempts = 16;

/** Counters of one produce() call. */
struct ProduceStats {
    uint64_t raw_bytes = 0;          ///< encoded partition size
    uint64_t bytes_touched = 0;      ///< columnar bytes read to decode
    uint64_t attempts = 0;           ///< whole-partition attempts made
    /** Transient read errors retried (in-ring retries included). */
    uint64_t transient_errors = 0;
    /** CRC-caught corruptions answered by a re-read (whole partition,
        or single pages inside the ring). */
    uint64_t corrupt_refetches = 0;
    bool hot_tier_hit = false;  ///< served from the store's hot tier
};

/**
 * Per-worker fetch+decode engine. Not thread-safe and not copyable:
 * each worker owns one, and its readers and decode buffers are reused
 * across calls.
 */
class PartitionProducer
{
  public:
    /**
     * @param decode_pool Optional pool for page-parallel decode
     *        (shared; must outlive the producer).
     * @param io_ring Optional async I/O engine (shared; must outlive
     *        the producer). Routes every read through the ring.
     */
    explicit PartitionProducer(ThreadPool* decode_pool = nullptr,
                               IoRing* io_ring = nullptr);
    ~PartitionProducer();

    /**
     * Read through @p decode_pool and @p io_ring from now on (same
     * meaning as the constructor's). Readers and decode buffers are
     * kept, ring frame buffers included, so one producer can serve
     * run after run whatever pool and ring each run brings.
     */
    void bind(ThreadPool* decode_pool, IoRing* io_ring);

    /**
     * Fetch and decode @p partition_id of @p store into @p out,
     * reusing @p out's column storage.
     */
    Status produce(PartitionStore& store, uint64_t partition_id,
                   RowBatch& out);

    /** Counters of the last produce(). */
    const ProduceStats& lastStats() const { return stats_; }

  private:
    /** One whole-partition attempt. */
    Status readOnce(PartitionStore& store, uint64_t partition_id,
                    uint64_t attempt, RowBatch& out);

    ColumnarFileReader reader_;
    /** Kept across bind(nullptr) for its frame buffers; read through
        only while ring_ is set. */
    std::unique_ptr<AsyncPartitionReader> async_;
    IoRing* ring_ = nullptr;
    ProduceStats stats_;
};

/**
 * One preprocessing worker's reusable state, from Extract to Transform:
 * its producer (readers, decode scratch, ring frame buffers), the
 * RowBatch it decodes into, and its Transform arena. Lent out by a
 * ShellPool (core/shell_pool.h).
 */
struct WorkerShell {
    PartitionProducer producer;
    RowBatch batch;
    BatchArena arena;
};

}  // namespace presto

#endif  // PRESTO_CORE_PARTITION_PRODUCER_H_
