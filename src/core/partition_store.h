/**
 * @file
 * PartitionStore: the storage-node substrate holding encoded columnar
 * partitions (Figure 1's data-storage stage).
 *
 * Each partition (one mini-batch worth of rows) is a self-contained PSF
 * file stored contiguously on one device — the property (from Meta's
 * Tectonic layout) that lets a SmartSSD preprocess a partition entirely
 * locally. Partitions are materialized lazily and deterministically from
 * the synthetic generator.
 *
 * Locking: mu_ guards only the maps and counters below: cache and hot
 * tier lookups, inserts, evictions, retirement marks. Nothing slow runs
 * under it. Generating and encoding a partition, and reading a segment
 * back, happen with mu_ released; the result is then inserted under mu_
 * with a double check: a buffer another thread cached first wins (the
 * bytes are identical), and a partition retired meanwhile is not
 * re-cached. So a fetch of a cached partition never waits behind
 * another partition's encode. commit_mu_ serializes the re-check and
 * durable append of a commit (not its encode); it is taken before mu_,
 * never under it. program_mu_ guards the compiled-program cache alone
 * and is never held with another store lock.
 */
#ifndef PRESTO_CORE_PARTITION_STORE_H_
#define PRESTO_CORE_PARTITION_STORE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "columnar/columnar_file.h"
#include "common/fault_injector.h"
#include "core/shell_pool.h"
#include "datagen/generator.h"
#include "ops/opvm.h"
#include "store/segment_store.h"

namespace presto {

/**
 * Encoded PSF bytes of one partition, held once and shared by the
 * encoded cache, the hot tier and every reader. Immutable; a holder
 * keeps the bytes alive across eviction, demotion and retirement.
 */
using PartitionBuffer = std::shared_ptr<const std::vector<uint8_t>>;

/** In-memory stand-in for one storage device's partition set. */
class PartitionStore
{
  public:
    /**
     * @param generator Source of raw partitions (owned by the caller,
     *        must outlive the store).
     */
    explicit PartitionStore(const RawDataGenerator& generator,
                            WriterOptions writer_options = {});

    /**
     * Pristine encoded PSF bytes of a partition (generated on first
     * access), shared with the cache: no fault draw, no tier
     * accounting, no copy. The returned buffer stays valid for as long
     * as the caller holds it, whatever the cache evicts meanwhile.
     */
    PartitionBuffer partition(uint64_t partition_id);

    /**
     * Bound the encoded-partition cache to @p bytes (0 = unlimited,
     * the default). When an insert pushes the cache over budget, the
     * oldest cached partitions are evicted (FIFO); partition content is
     * a pure function of (generator seed, id), so an evicted partition
     * re-materializes bit-identically on its next access. This is what
     * lets a continuously running service stream unboundedly many
     * epochs through a bounded memory footprint.
     */
    void setCacheBudget(uint64_t bytes);

    /** Encoded bytes currently cached. */
    uint64_t cachedBytes() const;

    /** Partitions evicted by the cache budget so far. */
    uint64_t evictions() const;

    /**
     * Install a fault injector for fetchShared (nullptr disables; the
     * injector must outlive the store). The cached partitions stay
     * pristine — a bit flip lands in a private copy of the fetch.
     */
    void setFaultInjector(const FaultInjector* faults);

    /**
     * Fetch the partition the way a preprocessing worker reads it off
     * the device. With a fault injector installed, the read can fail
     * transiently (kUnavailable) or deliver bytes with a bit flipped —
     * which the PSF page CRCs catch downstream, making this the hook
     * for exercising the corruption-recovery path. The result shares
     * the cached buffer; only an injected bit flip copies.
     *
     * Tiering: a partition resident in the hot memory tier (see
     * promotePartition) is served straight from memory — no device
     * read, so no fault draw — and counted as a hot-tier hit. Any
     * other fetch is a cold fetch: served from the encoded cache when
     * present, re-read from the backing segment store (persistent
     * mode, counted in diskReads()) or re-materialized from the
     * generator otherwise. A segment failing its CRC is quarantined and
     * the fetch is kCorruption; the next attempt re-materializes the
     * same bytes from the generator. A retired partition is kNotFound.
     *
     * @param attempt Retry ordinal of this fetch (0 = first try);
     *        part of the deterministic fault-draw identity.
     * @param hot_tier_hit Optional: set to whether this fetch was
     *        served from the hot tier.
     */
    StatusOr<PartitionBuffer> fetchShared(uint64_t partition_id,
                                          uint64_t attempt = 0,
                                          bool* hot_tier_hit = nullptr);

    /** fetchShared() into a private copy of the bytes. */
    StatusOr<std::vector<uint8_t>> fetchPartition(
        uint64_t partition_id, uint64_t attempt = 0,
        bool* hot_tier_hit = nullptr);

    // --- Hot memory tier -------------------------------------------------
    //
    // The hot tier holds the encoded bytes of the epoch trainers are
    // actually streaming (the catalog promotes the head epoch into it).
    // Hot entries are exempt from the FIFO cache eviction and are served
    // without touching the device path at all; the tier is bounded by
    // its own budget so promotion of a fat epoch degrades to partial
    // residency instead of unbounded memory growth.

    /**
     * Bound the hot tier to @p bytes (0 = promotion disabled; the
     * default). Shrinking the budget below current residency demotes
     * hottest-last until it fits.
     */
    void setHotTierBudget(uint64_t bytes);

    /**
     * Pin @p partition_id's encoded bytes into the hot tier. The tier
     * shares the buffer a cold fetch would serve: the cached one, else
     * (persistent mode) the bytes committed to the live segment, read
     * back and counted in diskReads(); only a partition with no segment
     * is generated and encoded. kResourceExhausted when the budget
     * cannot hold it (callers stop promoting the rest of the epoch); a
     * segment read error (a corrupt segment is quarantined by the read)
     * is returned and the partition stays cold; ok and idempotent
     * otherwise.
     */
    Status promotePartition(uint64_t partition_id);

    /** Drop @p partition_id from the hot tier (no-op when absent). */
    void demotePartition(uint64_t partition_id);

    /** Encoded bytes currently resident in the hot tier. */
    uint64_t hotTierBytes() const;

    /** Partitions currently resident in the hot tier. */
    size_t hotTierCount() const;

    /** Fetches served from the hot tier. */
    uint64_t hotTierHits() const;

    /** Fetches served outside the hot tier (cache, disk, generator). */
    uint64_t coldFetches() const;

    /** Segment-store reads of encoded bytes: cold fetches and hot-tier
        promotions that missed the cache in persistent mode. */
    uint64_t diskReads() const;

    // --- Retirement ------------------------------------------------------

    /**
     * Retire @p partition_id: durably retire every live segment holding
     * it on the backing store (persistent mode; each retire record is
     * journaled before the unlink, so a crash mid-retire recovers to
     * the journal's prefix), then drop its cached and hot-tier bytes
     * and refuse future fetches with kNotFound. Idempotent.
     * @return encoded bytes reclaimed (disk bytes in persistent mode,
     *         cached bytes otherwise).
     */
    StatusOr<uint64_t> retirePartition(uint64_t partition_id);

    /** True when @p partition_id has been retired. */
    bool isRetired(uint64_t partition_id) const;

    /** Encoded size of a partition in bytes. */
    uint64_t partitionBytes(uint64_t partition_id);

    /** Number of partitions materialized so far. */
    size_t materializedCount() const;

    /** True when a fault injector is installed and active. */
    bool faultInjectionEnabled() const;

    const RawDataGenerator& generator() const { return generator_; }

    /**
     * Preprocessing shells that outlive any one run over this store:
     * worker shells (producer, decode RowBatch, BatchArena) and
     * MiniBatch tensors. Every PreprocessManager borrows its workers'
     * shells here and gives them back, with its undelivered batches,
     * when it is destroyed. The store outlives its managers, so the
     * next epoch starts with warm buffers. Retention is bounded by the
     * most shells the managers held at one time (see
     * core/shell_pool.h); they are freed with the store.
     */
    ShellPool& shells() { return shells_; }

    /**
     * The compiled form of @p plan over @p schema, shared by every
     * flow over this store: the first use compiles it (under
     * program_mu_, so racing first uses compile once), later uses with
     * an equal plan and schema fingerprint get the same immutable
     * program. Cached programs live as long as the store.
     */
    std::shared_ptr<const CompiledProgram> program(const TransformPlan& plan,
                                                   const Schema& schema);

    /**
     * program() of TransformPlan::standard(@p config) over the RecSys
     * schema of @p config. Looked up by TransformPlan::standardKey, so
     * only the first use of a key builds the plan and schema.
     */
    std::shared_ptr<const CompiledProgram>
    standardProgram(const RmConfig& config);

    /**
     * Persistence mode: back this store with an on-disk SegmentStore
     * (not owned; must outlive this object; nullptr disables). Once
     * enabled, persistPartition() commits partitions as durable
     * segments and the async Extract path streams their pages from
     * real storage through the IoRing instead of from the in-memory
     * cache.
     */
    void enablePersistence(SegmentStore* segments);

    /** The backing segment store (nullptr when persistence is off). */
    SegmentStore* segmentStore() const;

    /**
     * Ensure @p partition_id is durably committed, encoding and
     * appending it on first call; idempotent afterwards (recovered
     * segments from an earlier process are reused, not rewritten).
     * @return the live segment id holding the partition.
     */
    StatusOr<uint64_t> persistPartition(uint64_t partition_id);

    // --- Staged commit ---------------------------------------------------
    //
    // persistPartition() (and, memory-only, partition()) split in two, so
    // a publisher can encode many partitions on many threads and still
    // commit them one at a time in its own order.

    /**
     * Encoded bytes to commit for @p partition_id: nullptr when a live
     * segment already holds it (persistent mode), else the cached
     * buffer, else generated and encoded without caching. Thread-safe;
     * the encode runs with no store lock held.
     */
    PartitionBuffer stagePartition(uint64_t partition_id);

    /**
     * Commit @p staged (from stagePartition; nullptr re-stages): cache
     * it (a buffer already cached wins), then in persistent mode
     * durably append it unless a live segment already holds the
     * partition. The re-check and append are serialized per store, so
     * racing commits of one id leave one segment.
     * @return the live segment id (0 in memory-only mode).
     */
    StatusOr<uint64_t> commitPartition(uint64_t partition_id,
                                       PartitionBuffer staged);

  private:
    /** Generate and encode @p partition_id, the one materialize step
        of every path. No lock taken or needed: the bytes are a pure
        function of (generator seed, id). */
    PartitionBuffer materialize(uint64_t partition_id) const;
    /** The cached buffer of @p partition_id, or nullptr. */
    PartitionBuffer cached(uint64_t partition_id) const;
    /**
     * Encoded bytes of @p partition_id after a cache miss, off the
     * device path: the live segment read back (counted in diskReads()),
     * else the generator when no segment holds it. Called without mu_;
     * the read or encode runs unlocked, then the result is cached.
     * kNotFound when the partition was retired meanwhile: it is then
     * neither cached nor returned.
     */
    StatusOr<PartitionBuffer> load(uint64_t partition_id);
    /** Cache @p bytes as @p partition_id's encoding and evict past the
        budget; mu_ held. When the partition is already cached that
        buffer is kept and returned instead (the bytes are identical). */
    PartitionBuffer insertCacheLocked(uint64_t partition_id,
                                      PartitionBuffer bytes);
    /** Demote hot entries (largest id first) until the tier fits its
        budget; mu_ held. */
    void shrinkHotTierLocked();
    /** Drop @p partition_id from the hot tier if present; mu_ held. */
    void demoteLocked(uint64_t partition_id);

    const RawDataGenerator& generator_;
    ColumnarFileWriter writer_;
    const FaultInjector* faults_ = nullptr;
    SegmentStore* segments_ = nullptr;
    std::mutex commit_mu_;  ///< serializes commit re-check + append
    mutable std::mutex mu_;
    std::map<uint64_t, PartitionBuffer> partitions_;
    std::deque<uint64_t> cache_order_;  ///< insertion order for eviction
    uint64_t cache_budget_bytes_ = 0;   ///< 0 = unlimited
    uint64_t cached_bytes_ = 0;
    uint64_t evictions_ = 0;
    std::map<uint64_t, PartitionBuffer> hot_;  ///< hot memory tier
    uint64_t hot_budget_bytes_ = 0;  ///< 0 = promotion disabled
    uint64_t hot_bytes_ = 0;
    uint64_t hot_hits_ = 0;
    uint64_t cold_fetches_ = 0;
    uint64_t disk_reads_ = 0;
    std::set<uint64_t> retired_;  ///< retired partition ids
    ShellPool shells_;  ///< own lock, independent of mu_
    std::mutex program_mu_;  ///< guards programs_; held over a compile
    std::vector<std::shared_ptr<const CompiledProgram>> programs_;
    /**
     * standardProgram()'s index into programs_ (under program_mu_); weak,
     * since programs_ already keeps every program alive.
     */
    std::vector<std::pair<std::array<size_t, 5>,
                          std::weak_ptr<const CompiledProgram>>>
        standard_programs_;
};

/** One partition of one store: what a preprocessing worker reads. */
struct PartitionRef {
    PartitionStore* store = nullptr;
    uint64_t partition_id = 0;
};

}  // namespace presto

#endif  // PRESTO_CORE_PARTITION_STORE_H_
