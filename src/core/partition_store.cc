#include "core/partition_store.h"

namespace presto {

PartitionStore::PartitionStore(const RawDataGenerator& generator,
                               WriterOptions writer_options)
    : generator_(generator), writer_(writer_options)
{
}

std::shared_ptr<const CompiledProgram>
PartitionStore::program(const TransformPlan& plan, const Schema& schema)
{
    const uint64_t fingerprint = schema.fingerprint();
    std::scoped_lock lock(program_mu_);
    for (const auto& cached : programs_) {
        if (cached->inputSchema().fingerprint() == fingerprint &&
            cached->plan() == plan)
            return cached;
    }
    programs_.push_back(std::make_shared<const CompiledProgram>(
        CompiledProgram::compile(plan, schema)));
    return programs_.back();
}

std::shared_ptr<const CompiledProgram>
PartitionStore::standardProgram(const RmConfig& config)
{
    const auto key = TransformPlan::standardKey(config);
    {
        std::scoped_lock lock(program_mu_);
        for (const auto& [k, cached] : standard_programs_)
            if (k == key)
                return cached.lock();
    }
    auto compiled = program(
        TransformPlan::standard(config),
        Schema::makeRecSys(config.num_dense, config.num_sparse));
    // Racing first uses may index the key twice; program() handed both
    // the same program.
    std::scoped_lock lock(program_mu_);
    standard_programs_.emplace_back(key, compiled);
    return compiled;
}

namespace {

Status
retiredStatus(uint64_t partition_id)
{
    return Status::notFound("partition " + std::to_string(partition_id) +
                            " is retired");
}

}  // namespace

PartitionBuffer
PartitionStore::materialize(uint64_t partition_id) const
{
    return std::make_shared<const std::vector<uint8_t>>(writer_.write(
        generator_.generatePartition(partition_id), partition_id));
}

PartitionBuffer
PartitionStore::cached(uint64_t partition_id) const
{
    std::scoped_lock lock(mu_);
    auto it = partitions_.find(partition_id);
    return it != partitions_.end() ? it->second : nullptr;
}

PartitionBuffer
PartitionStore::partition(uint64_t partition_id)
{
    if (PartitionBuffer hit = cached(partition_id))
        return hit;
    PartitionBuffer bytes = materialize(partition_id);
    std::scoped_lock lock(mu_);
    return insertCacheLocked(partition_id, std::move(bytes));
}

StatusOr<PartitionBuffer>
PartitionStore::load(uint64_t partition_id)
{
    PartitionBuffer bytes;
    if (SegmentStore* segments = segmentStore(); segments != nullptr) {
        // Persistent mode: stream the committed bytes back off the
        // segment store rather than silently regenerating them.
        auto info = segments->segmentForPartition(partition_id);
        if (info.ok()) {
            auto raw = segments->readSegmentRaw(info->meta.segment_id);
            if (!raw.ok())
                return raw.status();
            bytes = std::make_shared<const std::vector<uint8_t>>(
                *std::move(raw));
        } else if (info.status().code() != StatusCode::kNotFound) {
            return info.status();
        }
    }
    const bool from_disk = bytes != nullptr;
    if (!from_disk)
        bytes = materialize(partition_id);
    std::scoped_lock lock(mu_);
    if (from_disk)
        ++disk_reads_;
    // Retired while loading: the bytes must not come back to life.
    if (retired_.count(partition_id) != 0)
        return retiredStatus(partition_id);
    return insertCacheLocked(partition_id, std::move(bytes));
}

PartitionBuffer
PartitionStore::insertCacheLocked(uint64_t partition_id,
                                  PartitionBuffer bytes)
{
    auto [it, inserted] =
        partitions_.try_emplace(partition_id, std::move(bytes));
    if (!inserted)
        return it->second;  // another thread cached the same bytes first
    cache_order_.push_back(partition_id);
    cached_bytes_ += it->second->size();
    // Evict oldest entries past the budget — but never the one just
    // requested, so it stays cached for its next access. Readers
    // holding an evicted buffer keep it alive.
    while (cache_budget_bytes_ > 0 &&
           cached_bytes_ > cache_budget_bytes_ &&
           cache_order_.front() != partition_id) {
        auto victim = partitions_.find(cache_order_.front());
        cache_order_.pop_front();
        if (victim == partitions_.end())
            continue;
        cached_bytes_ -= victim->second->size();
        partitions_.erase(victim);
        ++evictions_;
    }
    return it->second;
}

void
PartitionStore::setCacheBudget(uint64_t bytes)
{
    std::scoped_lock lock(mu_);
    cache_budget_bytes_ = bytes;
}

uint64_t
PartitionStore::cachedBytes() const
{
    std::scoped_lock lock(mu_);
    return cached_bytes_;
}

uint64_t
PartitionStore::evictions() const
{
    std::scoped_lock lock(mu_);
    return evictions_;
}

void
PartitionStore::setFaultInjector(const FaultInjector* faults)
{
    std::scoped_lock lock(mu_);
    faults_ = (faults != nullptr && faults->enabled()) ? faults : nullptr;
}

StatusOr<PartitionBuffer>
PartitionStore::fetchShared(uint64_t partition_id, uint64_t attempt,
                            bool* hot_tier_hit)
{
    if (hot_tier_hit != nullptr)
        *hot_tier_hit = false;
    // Fault draws key off (partition, attempt) — not thread schedule —
    // so concurrent workers observe a reproducible fault pattern.
    const FaultInjector* faults = nullptr;
    PartitionBuffer bytes;
    {
        std::scoped_lock lock(mu_);
        if (retired_.count(partition_id) != 0)
            return retiredStatus(partition_id);
        if (auto hot = hot_.find(partition_id); hot != hot_.end()) {
            // Hot-tier hit: served from memory, never touches the
            // device path — so no fault draw either.
            ++hot_hits_;
            if (hot_tier_hit != nullptr)
                *hot_tier_hit = true;
            return hot->second;
        }
        ++cold_fetches_;
        faults = faults_;
        if (auto it = partitions_.find(partition_id); it != partitions_.end())
            bytes = it->second;
    }
    if (bytes == nullptr) {
        auto loaded = load(partition_id);
        if (!loaded.ok())
            return loaded.status();
        bytes = *std::move(loaded);
    }
    if (faults == nullptr)
        return bytes;
    if (faults->transientReadError(partition_id, attempt)) {
        return Status::unavailable(
            "transient read error on partition " +
            std::to_string(partition_id) + " (attempt " +
            std::to_string(attempt) + ")");
    }
    if (!faults->corruptionOccurs(partition_id, attempt))
        return bytes;
    // The flip lands in a private copy; the shared buffer stays pristine.
    auto flipped = std::make_shared<std::vector<uint8_t>>(*bytes);
    faults->corruptBytes(*flipped, partition_id, attempt);
    return PartitionBuffer(std::move(flipped));
}

StatusOr<std::vector<uint8_t>>
PartitionStore::fetchPartition(uint64_t partition_id, uint64_t attempt,
                               bool* hot_tier_hit)
{
    auto bytes = fetchShared(partition_id, attempt, hot_tier_hit);
    if (!bytes.ok())
        return bytes.status();
    return **bytes;
}

void
PartitionStore::setHotTierBudget(uint64_t bytes)
{
    std::scoped_lock lock(mu_);
    hot_budget_bytes_ = bytes;
    shrinkHotTierLocked();
}

void
PartitionStore::shrinkHotTierLocked()
{
    const uint64_t budget = hot_budget_bytes_;
    while (!hot_.empty() && (budget == 0 || hot_bytes_ > budget))
        demoteLocked(hot_.rbegin()->first);
}

Status
PartitionStore::promotePartition(uint64_t partition_id)
{
    // Hot bytes are the very bytes a cold fetch would serve: the cached
    // buffer, else (loaded with mu_ released) the committed segment's in
    // persistent mode. The checks run again once the bytes are in hand,
    // since a retire, promote or budget change may have landed meanwhile.
    PartitionBuffer bytes;
    for (;;) {
        {
            std::scoped_lock lock(mu_);
            if (retired_.count(partition_id) != 0)
                return retiredStatus(partition_id);
            if (hot_budget_bytes_ == 0)
                return Status::failedPrecondition("hot tier is disabled");
            if (hot_.count(partition_id) != 0)
                return Status::okStatus();
            if (auto it = partitions_.find(partition_id);
                bytes == nullptr && it != partitions_.end())
                bytes = it->second;
            if (bytes != nullptr) {
                if (hot_bytes_ + bytes->size() > hot_budget_bytes_) {
                    return Status::resourceExhausted(
                        "hot tier budget exhausted (" +
                        std::to_string(hot_bytes_) + " + " +
                        std::to_string(bytes->size()) + " > " +
                        std::to_string(hot_budget_bytes_) + " bytes)");
                }
                hot_bytes_ += bytes->size();
                hot_.emplace(partition_id, std::move(bytes));
                return Status::okStatus();
            }
        }
        auto loaded = load(partition_id);
        if (!loaded.ok())
            return loaded.status();
        bytes = *std::move(loaded);
    }
}

void
PartitionStore::demotePartition(uint64_t partition_id)
{
    std::scoped_lock lock(mu_);
    demoteLocked(partition_id);
}

void
PartitionStore::demoteLocked(uint64_t partition_id)
{
    auto it = hot_.find(partition_id);
    if (it == hot_.end())
        return;
    hot_bytes_ -= it->second->size();
    hot_.erase(it);
}

uint64_t
PartitionStore::hotTierBytes() const
{
    std::scoped_lock lock(mu_);
    return hot_bytes_;
}

size_t
PartitionStore::hotTierCount() const
{
    std::scoped_lock lock(mu_);
    return hot_.size();
}

uint64_t
PartitionStore::hotTierHits() const
{
    std::scoped_lock lock(mu_);
    return hot_hits_;
}

uint64_t
PartitionStore::coldFetches() const
{
    std::scoped_lock lock(mu_);
    return cold_fetches_;
}

uint64_t
PartitionStore::diskReads() const
{
    std::scoped_lock lock(mu_);
    return disk_reads_;
}

StatusOr<uint64_t>
PartitionStore::retirePartition(uint64_t partition_id)
{
    // Mark first, drop memory, then retire segments. Marking before the
    // durable retire is safe: retired_ is in-memory only, and the
    // catalog's recovery path re-drives the durable retire after a
    // crash, so the on-disk state still converges.
    SegmentStore* segments = nullptr;
    uint64_t reclaimed = 0;
    {
        std::scoped_lock lock(mu_);
        if (!retired_.insert(partition_id).second)
            return uint64_t{0};  // already retired
        auto cached = partitions_.find(partition_id);
        if (cached != partitions_.end()) {
            cached_bytes_ -= cached->second->size();
            if (segments_ == nullptr)
                reclaimed += cached->second->size();
            partitions_.erase(cached);
        }
        demoteLocked(partition_id);
        segments = segments_;
    }
    if (segments == nullptr)
        return reclaimed;
    // Retire every live segment holding the partition (compaction can
    // leave several); each retire is journaled before its unlink, so a
    // crash leaves a durable prefix that recovery completes.
    for (;;) {
        auto info = segments->segmentForPartition(partition_id);
        if (info.status().code() == StatusCode::kNotFound)
            break;
        if (!info.ok())
            return info.status();
        if (Status st = segments->retireSegment(info->meta.segment_id);
            !st.ok())
            return st;
        reclaimed += info->meta.byte_size;
    }
    return reclaimed;
}

bool
PartitionStore::isRetired(uint64_t partition_id) const
{
    std::scoped_lock lock(mu_);
    return retired_.count(partition_id) != 0;
}

void
PartitionStore::enablePersistence(SegmentStore* segments)
{
    std::scoped_lock lock(mu_);
    segments_ = segments;
}

SegmentStore*
PartitionStore::segmentStore() const
{
    std::scoped_lock lock(mu_);
    return segments_;
}

StatusOr<uint64_t>
PartitionStore::persistPartition(uint64_t partition_id)
{
    if (segmentStore() == nullptr)
        return Status::failedPrecondition("persistence is not enabled");
    return commitPartition(partition_id, stagePartition(partition_id));
}

PartitionBuffer
PartitionStore::stagePartition(uint64_t partition_id)
{
    if (SegmentStore* segments = segmentStore();
        segments != nullptr &&
        segments->segmentForPartition(partition_id).ok())
        return nullptr;  // committed already (e.g. before a crash)
    if (PartitionBuffer hit = cached(partition_id))
        return hit;
    return materialize(partition_id);
}

StatusOr<uint64_t>
PartitionStore::commitPartition(uint64_t partition_id,
                                PartitionBuffer staged)
{
    SegmentStore* segments = segmentStore();
    // One re-check + append at a time per store, so racing commits of
    // one id leave one live segment; the encode stays outside.
    std::scoped_lock commit(commit_mu_);
    if (segments != nullptr) {
        auto existing = segments->segmentForPartition(partition_id);
        if (existing.ok())
            return existing->meta.segment_id;
        if (existing.status().code() != StatusCode::kNotFound)
            return existing.status();
    }
    PartitionBuffer bytes;
    if (staged == nullptr) {
        bytes = partition(partition_id);
    } else {
        std::scoped_lock lock(mu_);
        bytes = insertCacheLocked(partition_id, std::move(staged));
    }
    if (segments == nullptr)
        return uint64_t{0};
    return segments->appendEncoded(*bytes, partition_id);
}

uint64_t
PartitionStore::partitionBytes(uint64_t partition_id)
{
    return partition(partition_id)->size();
}

size_t
PartitionStore::materializedCount() const
{
    std::scoped_lock lock(mu_);
    return partitions_.size();
}

bool
PartitionStore::faultInjectionEnabled() const
{
    std::scoped_lock lock(mu_);
    return faults_ != nullptr;
}

}  // namespace presto
