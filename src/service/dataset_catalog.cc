#include "service/dataset_catalog.h"

#include <algorithm>
#include <set>
#include <thread>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "core/partition_producer.h"

namespace presto {

/**
 * Shared state of one registered dataset. Immutable after registration
 * except for the published head (atomic) and the shard stores' internal
 * caches (internally locked). Pinned readers share ownership, so a
 * reader outlives both the catalog and any later re-registration.
 */
struct CatalogDataset {
    DatasetSpec spec;
    std::unique_ptr<RawDataGenerator> generator;
    /** One PartitionStore per shard, all over the same generator. */
    std::vector<std::unique_ptr<PartitionStore>> shards;
    /** Durable backing per shard (empty in memory-only mode). */
    std::vector<SegmentStore*> segment_shards;

    /** Serializes publishes (and retention passes) of this dataset. */
    std::mutex publish_mu;
    /** Newest fully-published epoch (0 = none). The release store in
        publishEpoch() is the single atomic-publish point. */
    std::atomic<uint64_t> head{0};

    /**
     * Linearizes pin() against retention. An epoch transitions to
     * retired under this mutex only while its pin count is zero, and
     * pin() checks retired_epochs under the same mutex — so a racing
     * pin either lands first (sparing the epoch this pass) or fails.
     */
    std::mutex pins_mu;
    std::map<uint64_t, uint64_t> pin_counts;  ///< epoch -> live pins
    std::set<uint64_t> retired_epochs;

    bool persistent() const { return !segment_shards.empty(); }
    size_t numShards() const { return shards.size(); }

    /** Effective per-shard hot tier budget (see DatasetSpec). */
    uint64_t
    hotTierBudget() const
    {
        return spec.hot_tier_bytes != 0 ? spec.hot_tier_bytes
                                        : spec.cache_budget_bytes / 2;
    }
};

namespace {

/** Epoch a storage partition id belongs to. */
constexpr uint64_t
epochOfPartition(uint64_t partition_id)
{
    return partition_id >> 20;
}

/**
 * Take a pin on @p epoch; the returned token releases it when the
 * last copy dies. Fails when retention already retired the epoch.
 */
StatusOr<std::shared_ptr<void>>
acquirePin(const std::shared_ptr<CatalogDataset>& state, uint64_t epoch)
{
    std::scoped_lock lock(state->pins_mu);
    if (state->retired_epochs.count(epoch) != 0) {
        return Status::notFound(
            "epoch " + std::to_string(epoch) + " of " +
            state->spec.name + " has been retired");
    }
    ++state->pin_counts[epoch];
    return std::shared_ptr<void>(
        static_cast<void*>(nullptr),
        [state, epoch](void*) {
            std::scoped_lock release(state->pins_mu);
            auto it = state->pin_counts.find(epoch);
            if (it != state->pin_counts.end() && --it->second == 0)
                state->pin_counts.erase(it);
        });
}

/**
 * Move the hot tier to @p new_head: demote the previous head's
 * partitions, then promote the new head's until a shard's budget runs
 * out (partial residency — promotion failures are not errors).
 */
void
promoteHeadEpoch(CatalogDataset& ds, uint64_t new_head, uint64_t old_head)
{
    if (ds.hotTierBudget() == 0 || new_head == old_head)
        return;
    const size_t num_shards = ds.numShards();
    if (old_head != 0) {
        for (uint64_t i = 0; i < ds.spec.partitions_per_epoch; ++i) {
            ds.shards[i % num_shards]->demotePartition(
                epochPartitionId(old_head, i));
        }
    }
    if (new_head == 0)
        return;
    std::vector<bool> full(num_shards, false);
    for (uint64_t i = 0; i < ds.spec.partitions_per_epoch; ++i) {
        const size_t s = i % num_shards;
        if (full[s])
            continue;
        Status st = ds.shards[s]->promotePartition(
            epochPartitionId(new_head, i));
        if (st.code() == StatusCode::kResourceExhausted)
            full[s] = true;  // stop materializing for this shard
    }
}

/**
 * Retire every partition of @p epoch across the shards. Idempotent:
 * already-retired partitions contribute nothing.
 */
StatusOr<std::pair<uint64_t, uint64_t>>  // (partitions, bytes)
retireEpochPartitions(CatalogDataset& ds, uint64_t epoch)
{
    uint64_t partitions = 0;
    uint64_t bytes = 0;
    for (uint64_t i = 0; i < ds.spec.partitions_per_epoch; ++i) {
        auto reclaimed = ds.shards[i % ds.numShards()]->retirePartition(
            epochPartitionId(epoch, i));
        if (!reclaimed.ok())
            return reclaimed.status();
        ++partitions;
        bytes += *reclaimed;
    }
    return std::make_pair(partitions, bytes);
}

}  // namespace

EpochReader::EpochReader(std::shared_ptr<CatalogDataset> state,
                         uint64_t epoch, size_t partitions,
                         std::shared_ptr<void> pin_token)
    : state_(std::move(state)),
      epoch_(epoch),
      partitions_(partitions),
      pin_token_(std::move(pin_token))
{
}

const RmConfig&
EpochReader::config() const
{
    PRESTO_CHECK(valid(), "reading through an unpinned EpochReader");
    return state_->spec.config;
}

const Schema&
EpochReader::schema() const
{
    PRESTO_CHECK(valid(), "reading through an unpinned EpochReader");
    return state_->generator->schema();
}

uint64_t
EpochReader::partitionId(size_t index) const
{
    PRESTO_CHECK(valid() && index < partitions_,
                 "epoch partition index out of range");
    return epochPartitionId(epoch_, index);
}

size_t
EpochReader::shardOf(size_t index) const
{
    PRESTO_CHECK(valid() && index < partitions_,
                 "epoch partition index out of range");
    return index % state_->numShards();
}

StatusOr<PartitionRef>
EpochReader::locate(size_t index) const
{
    if (!valid())
        return Status::failedPrecondition("EpochReader is not pinned");
    if (index >= partitions_) {
        return Status::outOfRange(
            "partition " + std::to_string(index) + " >= epoch size " +
            std::to_string(partitions_));
    }
    return PartitionRef{state_->shards[index % state_->numShards()].get(),
                        partitionId(index)};
}

StatusOr<std::vector<uint8_t>>
EpochReader::fetchEncoded(size_t index, uint64_t attempt,
                          bool* hot_tier_hit) const
{
    auto where = locate(index);
    if (!where.ok())
        return where.status();
    return where->store->fetchPartition(where->partition_id, attempt,
                                        hot_tier_hit);
}

Status
EpochReader::readPartition(size_t index, RowBatch& out,
                           bool* hot_tier_hit) const
{
    auto where = locate(index);
    if (!where.ok())
        return where.status();
    PartitionProducer producer;
    Status st = producer.produce(*where->store, where->partition_id, out);
    if (hot_tier_hit != nullptr)
        *hot_tier_hit = producer.lastStats().hot_tier_hit;
    return st;
}

namespace {

/** What persistent-shard recovery derived from the journals. */
struct RecoveredLifecycle {
    uint64_t head = 0;  ///< newest fully-live epoch
    /** Epochs below head that are not fully live: fully-retired ones
        plus half-retired crash leftovers recovery must finish. */
    std::set<uint64_t> retired;
};

/**
 * Head recovery over persistent shards: epoch e is fully live iff
 * every one of its partitions has a live segment on its shard. With
 * retention in play the live epochs are no longer a prefix, so the
 * head is the NEWEST fully-live epoch; a partial epoch above it is a
 * crash-mid-publish leftover (harmless — republish reuses its
 * segments), while any non-fully-live epoch below it was (at least
 * partly) retired — recovery completes those retires so every epoch
 * ends fully live or fully retired.
 */
RecoveredLifecycle
recoverLifecycle(const DatasetSpec& spec,
                 const std::vector<SegmentStore*>& segment_shards)
{
    std::set<uint64_t> live;
    for (SegmentStore* store : segment_shards) {
        for (const SegmentInfo& info : store->listSegments()) {
            if (info.state == SegmentState::kSealed ||
                info.state == SegmentState::kCompacted)
                live.insert(info.meta.partition_id);
        }
    }
    RecoveredLifecycle out;
    if (live.empty())
        return out;
    std::set<uint64_t> incomplete;
    const uint64_t max_epoch = epochOfPartition(*live.rbegin());
    for (uint64_t epoch = 1; epoch <= max_epoch; ++epoch) {
        for (uint64_t i = 0; i < spec.partitions_per_epoch; ++i) {
            if (live.count(epochPartitionId(epoch, i)) == 0) {
                incomplete.insert(epoch);
                break;
            }
        }
        if (incomplete.count(epoch) == 0)
            out.head = epoch;
    }
    out.retired.insert(incomplete.begin(),
                       incomplete.lower_bound(out.head));
    return out;
}

}  // namespace

Status
DatasetCatalog::registerDataset(DatasetSpec spec,
                                std::vector<SegmentStore*> segment_shards)
{
    if (spec.name.empty())
        return Status::invalidArgument("dataset name must not be empty");
    if (spec.partitions_per_epoch == 0 ||
        spec.partitions_per_epoch > kMaxPartitionsPerEpoch) {
        return Status::invalidArgument(
            "partitions_per_epoch must be in [1, " +
            std::to_string(kMaxPartitionsPerEpoch) + "]");
    }
    const size_t num_shards =
        segment_shards.empty() ? spec.shards : segment_shards.size();
    if (num_shards == 0)
        return Status::invalidArgument("dataset needs at least one shard");

    auto state = std::make_shared<CatalogDataset>();
    state->spec = std::move(spec);
    state->spec.shards = num_shards;
    state->generator = std::make_unique<RawDataGenerator>(
        state->spec.config, state->spec.generator);
    state->segment_shards = std::move(segment_shards);
    for (size_t s = 0; s < num_shards; ++s) {
        auto shard = std::make_unique<PartitionStore>(*state->generator);
        if (state->spec.cache_budget_bytes > 0)
            shard->setCacheBudget(state->spec.cache_budget_bytes);
        if (state->hotTierBudget() > 0)
            shard->setHotTierBudget(state->hotTierBudget());
        if (state->persistent())
            shard->enablePersistence(state->segment_shards[s]);
        state->shards.push_back(std::move(shard));
    }
    if (state->persistent()) {
        const RecoveredLifecycle recovered =
            recoverLifecycle(state->spec, state->segment_shards);
        state->head.store(recovered.head, std::memory_order_release);
        // Finish any retire a crash interrupted: re-driving the
        // journaled retires is idempotent, and marking the epoch
        // retired up front keeps half-dead epochs unpinnable.
        for (uint64_t epoch : recovered.retired) {
            state->retired_epochs.insert(epoch);
            if (auto done = retireEpochPartitions(*state, epoch);
                !done.ok()) {
                return done.status();
            }
        }
        if (recovered.head != 0)
            promoteHeadEpoch(*state, recovered.head, 0);
        // Pin-aware scrub: pinned epochs' segments get verified first.
        // (A store shared across datasets keeps the last hook wired.)
        std::weak_ptr<CatalogDataset> weak = state;
        for (SegmentStore* store : state->segment_shards) {
            store->setScrubPriority([weak](uint64_t partition_id) {
                auto ds = weak.lock();
                if (ds == nullptr)
                    return uint64_t{0};
                std::scoped_lock pins(ds->pins_mu);
                auto it =
                    ds->pin_counts.find(epochOfPartition(partition_id));
                return it == ds->pin_counts.end() ? uint64_t{0}
                                                  : it->second;
            });
        }
    }

    std::scoped_lock lock(mu_);
    if (datasets_.count(state->spec.name) != 0) {
        return Status::failedPrecondition("dataset already registered: " +
                                          state->spec.name);
    }
    datasets_.emplace(state->spec.name, std::move(state));
    return Status::okStatus();
}

StatusOr<std::shared_ptr<CatalogDataset>>
DatasetCatalog::find(const std::string& dataset) const
{
    std::scoped_lock lock(mu_);
    auto it = datasets_.find(dataset);
    if (it == datasets_.end())
        return Status::notFound("unknown dataset: " + dataset);
    return it->second;
}

StatusOr<uint64_t>
DatasetCatalog::publishEpoch(const std::string& dataset)
{
    auto state = find(dataset);
    if (!state.ok())
        return state.status();
    CatalogDataset& ds = **state;

    std::scoped_lock publish_lock(ds.publish_mu);
    const uint64_t epoch = ds.head.load(std::memory_order_acquire) + 1;
    const size_t n = ds.spec.partitions_per_epoch;
    // A partition is a pure function of (seed, id), so generation and
    // encoding run on every core; only the commit is ordered. Each wave
    // stages one partition per encoder, which bounds the encoded bytes
    // in flight. The calling thread is one of the encoders, so the pool
    // scoped to this call is one thread smaller (every thread that
    // allocates leaves a malloc arena behind it).
    const size_t width =
        std::clamp<size_t>(std::thread::hardware_concurrency(), 1, n);
    std::unique_ptr<ThreadPool> helpers;
    if (width > 1)
        helpers = std::make_unique<ThreadPool>(width - 1);
    std::vector<PartitionBuffer> staged(width);
    for (size_t first = 0; first < n; first += width) {
        const size_t wave = std::min(width, n - first);
        auto stage = [&](size_t k) {
            const uint64_t i = first + k;
            staged[k] = ds.shards[i % ds.numShards()]->stagePartition(
                epochPartitionId(epoch, i));
        };
        for (size_t k = 1; k < wave; ++k)
            helpers->submit([&stage, k] { stage(k); });
        stage(0);
        if (helpers != nullptr)
            helpers->wait();
        // In partition order, exactly as a serial publish: cache insert,
        // then (persistent) the crash-atomic intent->publish->seal
        // commit; partitions recovered from before a crash are reused.
        // The final partition's seal record completes the epoch.
        for (size_t k = 0; k < wave; ++k) {
            const uint64_t i = first + k;
            auto seg = ds.shards[i % ds.numShards()]->commitPartition(
                epochPartitionId(epoch, i), std::move(staged[k]));
            if (!seg.ok()) {
                return Status(
                    seg.status().code(),
                    "publish of epoch " + std::to_string(epoch) +
                        " aborted at partition " + std::to_string(i) +
                        ": " + seg.status().message());
            }
        }
    }
    // Atomic publish: the head moves only once every partition of the
    // epoch is committed; concurrent pins see either epoch-1 or epoch,
    // never a partial epoch.
    ds.head.store(epoch, std::memory_order_release);
    // The new head is the hot epoch now; yesterday's moves to cold.
    promoteHeadEpoch(ds, epoch, epoch - 1);
    return epoch;
}

StatusOr<EpochReader>
DatasetCatalog::pin(const std::string& dataset) const
{
    auto head = headEpoch(dataset);
    if (!head.ok())
        return head.status();
    if (*head == 0) {
        return Status::failedPrecondition(
            "dataset has no published epoch: " + dataset);
    }
    return pin(dataset, *head);
}

StatusOr<EpochReader>
DatasetCatalog::pin(const std::string& dataset, uint64_t epoch) const
{
    auto state = find(dataset);
    if (!state.ok())
        return state.status();
    const uint64_t head = (*state)->head.load(std::memory_order_acquire);
    if (epoch == 0 || epoch > head) {
        return Status::outOfRange(
            "epoch " + std::to_string(epoch) + " of " + dataset +
            " is not published (head " + std::to_string(head) + ")");
    }
    auto token = acquirePin(*state, epoch);
    if (!token.ok())
        return token.status();
    return EpochReader(*state, epoch,
                       (*state)->spec.partitions_per_epoch,
                       *std::move(token));
}

StatusOr<RetentionReport>
DatasetCatalog::applyRetention(const std::string& dataset)
{
    auto found = find(dataset);
    if (!found.ok())
        return found.status();
    const std::shared_ptr<CatalogDataset>& state = *found;
    CatalogDataset& ds = *state;

    RetentionReport report;
    // Serialized with publishes so the pass sees a stable head and a
    // half-finished publish is never misread as a retirable epoch.
    std::scoped_lock publish_lock(ds.publish_mu);
    const uint64_t head = ds.head.load(std::memory_order_acquire);
    const uint64_t keep = ds.spec.retain_epochs;
    // Epochs below retire_below are eligible; none when retention is
    // off or the head has not outgrown the window yet.
    const uint64_t retire_below =
        keep == 0 || head <= keep ? 1 : head - keep + 1;
    for (uint64_t epoch = 1; epoch < retire_below; ++epoch) {
        // Claim the epoch under pins_mu: only pin-free epochs flip to
        // retired, and a pin that lost the race fails (acquirePin
        // checks retired_epochs under the same mutex).
        {
            std::scoped_lock pins(ds.pins_mu);
            if (ds.retired_epochs.count(epoch) != 0)
                continue;
            auto pinned = ds.pin_counts.find(epoch);
            if (pinned != ds.pin_counts.end() && pinned->second > 0) {
                ++report.epochs_kept_pinned;
                continue;
            }
            ds.retired_epochs.insert(epoch);
        }
        auto done = retireEpochPartitions(ds, epoch);
        if (!done.ok())
            return done.status();
        ++report.epochs_retired;
        report.partitions_retired += done->first;
        report.bytes_reclaimed += done->second;
    }
    std::scoped_lock pins(ds.pins_mu);
    report.live_epochs = head - ds.retired_epochs.size();
    return report;
}

StatusOr<uint64_t>
DatasetCatalog::pinCount(const std::string& dataset, uint64_t epoch) const
{
    auto state = find(dataset);
    if (!state.ok())
        return state.status();
    std::scoped_lock pins((*state)->pins_mu);
    auto it = (*state)->pin_counts.find(epoch);
    return it == (*state)->pin_counts.end() ? uint64_t{0} : it->second;
}

StatusOr<bool>
DatasetCatalog::epochRetired(const std::string& dataset,
                             uint64_t epoch) const
{
    auto state = find(dataset);
    if (!state.ok())
        return state.status();
    std::scoped_lock pins((*state)->pins_mu);
    return (*state)->retired_epochs.count(epoch) != 0;
}

StatusOr<uint64_t>
DatasetCatalog::liveEpochs(const std::string& dataset) const
{
    auto state = find(dataset);
    if (!state.ok())
        return state.status();
    const uint64_t head = (*state)->head.load(std::memory_order_acquire);
    std::scoped_lock pins((*state)->pins_mu);
    return head - (*state)->retired_epochs.size();
}

StatusOr<uint64_t>
DatasetCatalog::liveBytes(const std::string& dataset) const
{
    auto state = find(dataset);
    if (!state.ok())
        return state.status();
    uint64_t total = 0;
    for (SegmentStore* store : (*state)->segment_shards)
        total += store->liveBytes();
    return total;
}

StatusOr<uint64_t>
DatasetCatalog::headEpoch(const std::string& dataset) const
{
    auto state = find(dataset);
    if (!state.ok())
        return state.status();
    return (*state)->head.load(std::memory_order_acquire);
}

std::vector<std::string>
DatasetCatalog::datasets() const
{
    std::scoped_lock lock(mu_);
    std::vector<std::string> names;
    names.reserve(datasets_.size());
    for (const auto& [name, state] : datasets_)
        names.push_back(name);
    return names;
}

}  // namespace presto
