/**
 * @file
 * DatasetCatalog: epoch-versioned datasets over sharded partition
 * storage — the data-plane substrate of the multi-tenant ingestion
 * service (docs/SERVICE.md).
 *
 * Production recommendation training continuously re-snapshots its
 * training tables: a new *epoch* of a dataset appears every few hours
 * while trainers are still streaming the previous one (Meta's data
 * storage & ingestion paper, PAPERS.md). The catalog models exactly
 * that lifecycle:
 *
 *  - A *dataset* is registered once: a name, an RmConfig, a generator
 *    seed, a partition count per epoch, and a shard count. Shards model
 *    independent storage nodes; partition i of an epoch lives on shard
 *    i % S.
 *  - publishEpoch() materializes (and, with segment-store shards,
 *    durably commits) every partition of the next epoch and then
 *    atomically bumps the dataset head. Readers never observe a
 *    partially published epoch: the head moves only after the last
 *    partition's commit record is sealed.
 *  - pin() hands out an EpochReader pinned to one epoch. A pinned
 *    reader replays its epoch bit-identically — regardless of
 *    concurrent publishes, cache evictions, or (in persistent mode) a
 *    crash that aborts a later publish — because partition content is a
 *    pure function of (dataset seed, partition id) and partition ids
 *    embed the epoch.
 *  - applyRetention() bounds the steady-state footprint: old epochs
 *    beyond the newest retain_epochs are retired through the segment
 *    stores' journaled retire path — except epochs trainers still
 *    pin, which survive until their last reader drops. The head epoch
 *    is promoted into each shard's hot memory tier on publish, so hot
 *    reads skip the device while cold pins stream from disk, and the
 *    shards' scrub cursors prioritize pinned epochs' segments.
 *
 * Crash safety (persistent mode): every partition commit goes through
 * SegmentStore's crash-atomic intent->publish->seal protocol, so a
 * crash mid-publish (FaultSpec::crash_at_durable_op) leaves a strict
 * subset of the new epoch's partitions committed and the head
 * unmoved. Re-registering the dataset over the recovered shards
 * re-derives the head from the journals: an epoch is published iff
 * every one of its partitions is live. Re-publishing after a crash is
 * idempotent — already-committed partitions are reused, not rewritten.
 */
#ifndef PRESTO_SERVICE_DATASET_CATALOG_H_
#define PRESTO_SERVICE_DATASET_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/partition_store.h"
#include "datagen/generator.h"
#include "datagen/rm_config.h"
#include "store/segment_store.h"
#include "tabular/row_batch.h"

namespace presto {

/** Static description of one catalog dataset. */
struct DatasetSpec {
    std::string name;
    RmConfig config;
    GeneratorOptions generator;  ///< seed defines all epoch content
    size_t partitions_per_epoch = 4;
    /** Storage shards (ignored when segment-store shards are attached —
        the shard count is then the number of attached stores). */
    size_t shards = 1;
    /**
     * Per-shard encoded-partition cache budget in bytes (0 =
     * unlimited). A long-running service sets this so old epochs'
     * cached encodings are evicted instead of growing without bound;
     * evicted partitions re-materialize deterministically on demand.
     */
    uint64_t cache_budget_bytes = 0;
    /**
     * Retention policy: keep the newest @c retain_epochs published
     * epochs plus any older epoch with live pins; applyRetention()
     * retires the rest. 0 (the default) disables retention — every
     * epoch stays live forever, PR 9 behavior.
     */
    size_t retain_epochs = 0;
    /**
     * Per-shard hot memory tier budget in bytes. The head epoch is
     * promoted into the hot tier on publish so trainers streaming it
     * skip the device path entirely (PartitionStore hot-tier hits);
     * older pinned epochs stream cold from disk. 0 sizes the tier
     * against the cache budget (cache_budget_bytes / 2); the tier is
     * disabled when both are 0.
     */
    uint64_t hot_tier_bytes = 0;
};

/** What one applyRetention() pass did. */
struct RetentionReport {
    uint64_t epochs_retired = 0;       ///< epochs fully retired this pass
    uint64_t epochs_kept_pinned = 0;   ///< eligible but pinned, spared
    uint64_t partitions_retired = 0;
    uint64_t bytes_reclaimed = 0;      ///< encoded bytes freed (disk in
                                       ///< persistent mode)
    uint64_t live_epochs = 0;          ///< epochs still live after pass
};

struct CatalogDataset;  // internal state, defined in dataset_catalog.cc

/**
 * A reader pinned to one published epoch of one dataset.
 *
 * Copyable; copies stay pinned to the same epoch. The reader keeps the
 * dataset state alive via shared ownership, so it remains valid after
 * the catalog itself is destroyed. Thread-safe (the underlying
 * partition stores lock internally).
 *
 * Pinning is visible to retention: while any reader (or copy) of an
 * epoch is alive, applyRetention() will not retire that epoch, so the
 * reader keeps replaying it bit-identically no matter how many newer
 * epochs are published and retired around it. The pin releases when
 * the last copy is destroyed.
 */
class EpochReader
{
  public:
    EpochReader() = default;

    /** The pinned epoch (1-based). */
    uint64_t epoch() const { return epoch_; }

    /** Logical partitions in this epoch. */
    size_t numPartitions() const { return partitions_; }

    const RmConfig& config() const;
    const Schema& schema() const;

    /** Storage partition id of logical partition @p index. */
    uint64_t partitionId(size_t index) const;

    /** Shard holding logical partition @p index. */
    size_t shardOf(size_t index) const;

    /**
     * Encoded PSF bytes of logical partition @p index, fetched the way
     * a preprocessing worker reads them off the shard (subject to the
     * shard's fault injector, like PartitionStore::fetchPartition).
     * @param hot_tier_hit Optional: whether the shard served this
     *        fetch from its hot memory tier.
     */
    StatusOr<std::vector<uint8_t>> fetchEncoded(
        size_t index, uint64_t attempt = 0,
        bool* hot_tier_hit = nullptr) const;

    /** Shard store and storage partition id of logical partition
        @p index, or why it is not readable (unpinned reader, index out
        of range). */
    StatusOr<PartitionRef> locate(size_t index) const;

    /** Fetch + decode logical partition @p index into @p out through a
        fresh PartitionProducer (retries as documented in
        core/partition_producer.h).
        @param hot_tier_hit Optional: as in fetchEncoded. */
    Status readPartition(size_t index, RowBatch& out,
                         bool* hot_tier_hit = nullptr) const;

    bool valid() const { return state_ != nullptr; }

  private:
    friend class DatasetCatalog;
    EpochReader(std::shared_ptr<CatalogDataset> state, uint64_t epoch,
                size_t partitions, std::shared_ptr<void> pin_token);

    std::shared_ptr<CatalogDataset> state_;
    uint64_t epoch_ = 0;
    size_t partitions_ = 0;
    /** RAII pin: keeps the epoch's catalog pin count positive for the
        life of this reader and every copy of it. */
    std::shared_ptr<void> pin_token_;
};

/**
 * Registry of epoch-versioned datasets. Thread-safe: registration,
 * publishes, and pins may race arbitrarily; pinned readers are
 * unaffected by any of them.
 */
class DatasetCatalog
{
  public:
    DatasetCatalog() = default;
    DatasetCatalog(const DatasetCatalog&) = delete;
    DatasetCatalog& operator=(const DatasetCatalog&) = delete;

    /**
     * Register a dataset. With @p segment_shards non-empty, the dataset
     * is persistence-backed: partitions commit durably into the given
     * stores (not owned; must outlive the catalog and any readers) and
     * the published head is recovered from their journals — which is
     * how a restart after a mid-publish crash resumes at the last
     * fully-published epoch.
     */
    Status registerDataset(DatasetSpec spec,
                           std::vector<SegmentStore*> segment_shards = {});

    /**
     * Publish the next epoch of @p dataset: materialize (and durably
     * commit, when persistent) all of its partitions, then atomically
     * advance the head. Partitions are generated and encoded in
     * parallel by one encoder per core (at most one per partition):
     * the calling thread plus a pool scoped to the call. They work in
     * waves of one partition per encoder, so memory stays bounded;
     * partitions already committed before a crash are skipped. Each
     * wave then commits serially in
     * partition order (cache insert, then intent->publish->seal), so
     * journal bytes, segment ids, cache contents and crash semantics
     * equal a serial publish. On any error (including an injected
     * crash) the head is untouched and no reader can observe the
     * partial epoch. Publishes of one dataset are serialized;
     * concurrent pins and reads proceed untouched.
     * @return the new epoch number.
     */
    StatusOr<uint64_t> publishEpoch(const std::string& dataset);

    /** Pin the newest published epoch (error when none exists yet). */
    StatusOr<EpochReader> pin(const std::string& dataset) const;

    /** Pin a specific published epoch for historical replay. */
    StatusOr<EpochReader> pin(const std::string& dataset,
                              uint64_t epoch) const;

    /** Newest published epoch of @p dataset (0 = none yet). */
    StatusOr<uint64_t> headEpoch(const std::string& dataset) const;

    /**
     * Apply the dataset's retention policy now: retire every epoch
     * older than the newest spec.retain_epochs ones, except epochs
     * with live pins (spared this pass, reported as kept_pinned) —
     * they become eligible again once their last reader drops. A
     * no-op when retain_epochs is 0.
     *
     * Retirement goes through the segment stores' journaled retire
     * path (persistent mode), so a crash mid-pass leaves each epoch
     * recoverable as either fully live or fully retired — recovery at
     * the next registerDataset() finishes any half-retired epoch.
     * Racing pin() calls are linearized against the pass: a pin
     * either lands before the epoch is claimed (sparing it) or fails.
     */
    StatusOr<RetentionReport> applyRetention(const std::string& dataset);

    /** Live pins on one epoch (0 when unpinned or retired). */
    StatusOr<uint64_t> pinCount(const std::string& dataset,
                                uint64_t epoch) const;

    /** True when @p epoch has been retired by retention. */
    StatusOr<bool> epochRetired(const std::string& dataset,
                                uint64_t epoch) const;

    /** Published epochs still live (head minus retired). */
    StatusOr<uint64_t> liveEpochs(const std::string& dataset) const;

    /** Live segment bytes across the dataset's persistent shards —
        the steady-state disk footprint retention bounds. 0 in
        memory-only mode. */
    StatusOr<uint64_t> liveBytes(const std::string& dataset) const;

    /** Registered dataset names, sorted. */
    std::vector<std::string> datasets() const;

  private:
    StatusOr<std::shared_ptr<CatalogDataset>> find(
        const std::string& dataset) const;

    mutable std::mutex mu_;
    std::map<std::string, std::shared_ptr<CatalogDataset>> datasets_;
};

/**
 * Maximum partitions per epoch: partition ids embed (epoch, index) as
 * epoch << 20 | index, so index must fit in 20 bits.
 */
inline constexpr size_t kMaxPartitionsPerEpoch = 1u << 20;

/** Storage partition id of (epoch, logical index). */
inline constexpr uint64_t
epochPartitionId(uint64_t epoch, uint64_t index)
{
    return (epoch << 20) | index;
}

}  // namespace presto

#endif  // PRESTO_SERVICE_DATASET_CATALOG_H_
