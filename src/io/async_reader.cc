#include "io/async_reader.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "common/batch_arena.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace presto {

AsyncPartitionReader::AsyncPartitionReader(IoRing& ring,
                                           AsyncReadOptions options)
    : ring_(&ring), consumer_(ring.registerConsumer()), options_(options)
{
    PRESTO_CHECK(options_.queue_depth > 0, "queue depth must be positive");
    PRESTO_CHECK(options_.max_page_attempts > 0,
                 "page attempt budget must be positive");
    // queue_depth frames in flight on the device plus queue_depth - 1
    // completed frames waiting for decode, so reaping a completion
    // never has to stall on a decode before the window can refill.
    slots_.resize(2 * options_.queue_depth - 1);
}

void
AsyncPartitionReader::setRing(IoRing& ring)
{
    ring_ = &ring;
    consumer_ = ring.registerConsumer();
}

Status
AsyncPartitionReader::submitPage(std::span<const uint8_t> file, int fd,
                                 uint64_t partition_id, size_t plan_index,
                                 uint32_t attempt)
{
    size_t slot_index;
    {
        std::lock_guard<std::mutex> lock(mu_);
        PRESTO_CHECK(!free_slots_.empty(), "no free prefetch slot");
        slot_index = free_slots_.back();
        free_slots_.pop_back();
    }
    Slot& slot = slots_[slot_index];
    const PageReadPlan& plan = plans_[plan_index];
    slot.plan = plan_index;
    slot.attempt = attempt;

    IoRequest req;
    if (fd >= 0) {
        req.fd = fd;
        req.length = plan.frame_bytes;
    } else {
        req.src = file.subspan(plan.offset, plan.frame_bytes);
    }
    req.dest = slot.buf.data();
    req.stream_id = partition_id;
    req.offset = plan.offset;
    req.attempt = attempt;
    req.user_data = slot_index;
    switch (options_.placement) {
      case ChannelPlacement::kNone:
        break;
      case ChannelPlacement::kAddress:
        req.channel = static_cast<int32_t>(
            (plan.offset / std::max<uint64_t>(1, options_.address_stripe_bytes)) %
            static_cast<uint64_t>(ring_->options().workers));
        break;
      case ChannelPlacement::kHeat:
        req.channel = plan.channel;
        break;
    }
    ring_->submit(consumer_, req);
    return Status::okStatus();
}

void
AsyncPartitionReader::decodeSlot(size_t slot_index, RowBatch* out)
{
    Slot& slot = slots_[slot_index];
    const PageReadPlan& plan = plans_[slot.plan];
    Status st = reader_.completePage(
        plan, {slot.buf.data(), plan.frame_bytes}, *out,
        pool_ == nullptr ? &scratch_ : nullptr);

    std::lock_guard<std::mutex> lock(mu_);
    free_slots_.push_back(slot_index);
    if (decodes_pending_ > 0)
        --decodes_pending_;
    if (st.ok()) {
        --remaining_;
    } else if (st.code() == StatusCode::kCorruption &&
               slot.attempt + 1 < options_.max_page_attempts) {
        // A damaged frame (e.g. bit flip acquired in flight) is re-read
        // with a fresh attempt ordinal so its fault draws differ.
        retries_.emplace_back(slot.plan, slot.attempt + 1);
        ++stats_.corrupt_page_rereads;
    } else if (error_.ok()) {
        error_ = std::move(st);
    }
    cv_.notify_all();
}

Status
AsyncPartitionReader::read(std::span<const uint8_t> file,
                           uint64_t partition_id, RowBatch& out)
{
    PRESTO_RETURN_IF_ERROR(reader_.open(file));
    PRESTO_RETURN_IF_ERROR(reader_.planPageReads(plans_));
    if (options_.placement == ChannelPlacement::kHeat)
        assignChannelPlacement(reader_.footer(), ring_->options().workers,
                               plans_);
    PRESTO_RETURN_IF_ERROR(reader_.beginReadInto(out));
    return runRead(file, /*fd=*/-1, partition_id, out);
}

Status
AsyncPartitionReader::readFile(const FileReadSource& src,
                               uint64_t partition_id, RowBatch& out)
{
    PRESTO_RETURN_IF_ERROR(reader_.openTail(src.tail, src.file_size));
    // Plans come from outside the file (a journal); prove they are
    // consistent with the footer before any of them sizes a buffer or
    // lands a decode, so a stale or corrupt plan set cannot write out
    // of bounds — it is rejected here as corruption instead.
    PRESTO_RETURN_IF_ERROR(reader_.validatePlans(src.plans));
    plans_.assign(src.plans.begin(), src.plans.end());
    // Journal plans never carry placement; re-derive it from the
    // footer's heat metadata at read time.
    if (options_.placement == ChannelPlacement::kHeat)
        assignChannelPlacement(reader_.footer(), ring_->options().workers,
                               plans_);
    PRESTO_RETURN_IF_ERROR(reader_.beginReadInto(out));
    return runRead({}, src.fd, partition_id, out);
}

Status
AsyncPartitionReader::runRead(std::span<const uint8_t> file, int fd,
                              uint64_t partition_id, RowBatch& out)
{
    stats_ = AsyncReadStats{};
    stats_.pages = plans_.size();
    {
        std::lock_guard<std::mutex> lock(mu_);
        free_slots_.clear();
        for (size_t s = 0; s < slots_.size(); ++s)
            free_slots_.push_back(s);
        retries_.clear();
        remaining_ = plans_.size();
        decodes_pending_ = 0;
        error_ = Status::okStatus();
    }
    // Every slot holds this file's largest frame (with headroom), so a
    // reader serving file after file soon stops growing them.
    uint32_t max_frame = 0;
    for (const PageReadPlan& plan : plans_)
        max_frame = std::max(max_frame, plan.frame_bytes);
    for (Slot& slot : slots_) {
        if (slot.buf.size() < max_frame)
            resizeReused(slot.buf, max_frame);
    }

    // Submission order. With channel hints (kHeat placement), submit
    // channel-interleaved — the channel with the least service cost
    // submitted so far goes next — instead of in file order, so the
    // in-flight window spans distinct channels even where consecutive
    // pages of one cold stream share one. completePage() is
    // order-independent, so only the schedule changes, not the result.
    order_.resize(plans_.size());
    std::iota(order_.begin(), order_.end(), size_t{0});
    if (std::any_of(plans_.begin(), plans_.end(),
                    [](const PageReadPlan& p) { return p.channel >= 0; })) {
        for (auto& bucket : buckets_)
            bucket.clear();
        size_t num_buckets = 0;
        for (size_t i = 0; i < plans_.size(); ++i) {
            const int32_t ch = plans_[i].channel;
            const size_t b = ch >= 0 ? static_cast<size_t>(ch) + 1 : 0;
            if (buckets_.size() <= b)
                buckets_.resize(b + 1);
            num_buckets = std::max(num_buckets, b + 1);
            buckets_[b].push_back(i);
        }
        bucket_cost_.assign(num_buckets, 0);
        bucket_head_.assign(num_buckets, 0);
        order_.clear();
        while (order_.size() < plans_.size()) {
            size_t best = num_buckets;
            for (size_t b = 0; b < num_buckets; ++b) {
                if (bucket_head_[b] >= buckets_[b].size())
                    continue;
                if (best == num_buckets || bucket_cost_[b] < bucket_cost_[best])
                    best = b;
            }
            const size_t i = buckets_[best][bucket_head_[best]++];
            order_.push_back(i);
            bucket_cost_[best] += placementPageCost(plans_[i].frame_bytes);
        }
    }

    size_t next_plan = 0;
    size_t ring_outstanding = 0;
    ready_.clear();

    // Account one reaped completion, then route its slot to the decode
    // backlog (or the decode pool).
    auto handleCompletion = [&](IoCompletion& c) {
        stats_.device_retries += c.retries;
        stats_.modeled_storage_sec += c.latency_sec;
        const auto slot_index = static_cast<size_t>(c.user_data);
        if (!c.status.ok()) {
            std::lock_guard<std::mutex> lock(mu_);
            free_slots_.push_back(slot_index);
            if (error_.ok())
                error_ = std::move(c.status);
            return;
        }
        stats_.bytes_read += c.bytes;
        if (pool_ != nullptr) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                ++decodes_pending_;
            }
            pool_->submit([this, slot_index, out_ptr = &out] {
                decodeSlot(slot_index, out_ptr);
            });
        } else {
            ready_.push_back(slot_index);
        }
    };

    // Top up the device window: corrupt-page re-reads first, then
    // fresh pages, while slots are free and fewer than queue_depth
    // requests are in flight.
    auto topUp = [&]() -> Status {
        while (ring_outstanding < options_.queue_depth) {
            size_t plan_index;
            uint32_t attempt = 0;
            {
                std::lock_guard<std::mutex> lock(mu_);
                if (!error_.ok() || free_slots_.empty())
                    break;
                if (!retries_.empty()) {
                    plan_index = retries_.back().first;
                    attempt = retries_.back().second;
                    retries_.pop_back();
                } else if (next_plan < order_.size()) {
                    plan_index = order_[next_plan++];
                } else {
                    break;
                }
            }
            PRESTO_RETURN_IF_ERROR(
                submitPage(file, fd, partition_id, plan_index, attempt));
            ++ring_outstanding;
        }
        return Status::okStatus();
    };

    Status loop_status = Status::okStatus();
    for (;;) {
        loop_status = topUp();
        if (!loop_status.ok())
            break;

        // Reap whatever is already complete before the CPU sinks into
        // a decode, so the device window refills first and the flash
        // channels keep working underneath the decode.
        if (ring_outstanding > 0) {
            reaped_.clear();
            ring_outstanding -= ring_->reapCompletions(consumer_, reaped_);
            if (!reaped_.empty()) {
                for (IoCompletion& c : reaped_)
                    handleCompletion(c);
                continue;  // refill the window before decoding
            }
        }

        if (!ready_.empty()) {
            const size_t slot_index = ready_.front();
            ready_.erase(ready_.begin());
            decodeSlot(slot_index, &out);
            continue;
        }

        {
            std::unique_lock<std::mutex> lock(mu_);
            if (!error_.ok())
                break;
            if (remaining_ == 0 && ring_outstanding == 0 &&
                decodes_pending_ == 0) {
                break;
            }
            if (ring_outstanding == 0) {
                // Every missing page is either decoding on the pool or
                // sitting in the retry queue; wait for movement.
                cv_.wait(lock, [this] {
                    return decodes_pending_ == 0 || !retries_.empty() ||
                           !error_.ok();
                });
                continue;
            }
        }

        IoCompletion c = ring_->waitCompletion(consumer_);
        --ring_outstanding;
        handleCompletion(c);
    }

    // Unwind before returning on failure: in-flight requests still
    // target slot buffers, and pool tasks still touch this reader.
    while (ring_outstanding > 0) {
        IoCompletion c = ring_->waitCompletion(consumer_);
        --ring_outstanding;
        stats_.device_retries += c.retries;
        stats_.modeled_storage_sec += c.latency_sec;
    }
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return decodes_pending_ == 0; });
        if (!error_.ok())
            return error_;
    }
    if (!loop_status.ok())
        return loop_status;
    return reader_.finishReadInto(out);
}

}  // namespace presto
