#include "core/preprocess_engine.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "core/partition_producer.h"

namespace presto {

/** Guarded by the engine mutex, except spec: immutable once open, it
    is read unlocked by the producing workers. */
struct PreprocessEngine::Flow {
    FlowSpec spec;
    /** Sequence n lives in slot n % capacity; nullptr = not published. */
    std::vector<std::unique_ptr<MiniBatch>> slots;
    uint64_t claimed = 0;  ///< next sequence number to claim
    size_t in_flight = 0;
    size_t ready = 0;  ///< published, undelivered
    uint64_t error_at = UINT64_MAX;  ///< sequence number of error
    Status error;
    bool closing = false;
    FlowStats stats;  ///< stats.delivered: next sequence number to deliver
    std::condition_variable cv;  ///< consumers and close(): flow changed
};

PreprocessEngine::PreprocessEngine(ShellPool& shells, int workers,
                                   ThreadPool* decode_pool,
                                   IoRing* io_ring)
    : shells_(shells)
{
    PRESTO_CHECK(workers >= 1, "need at least one worker");
    for (int w = 0; w < workers; ++w)
        workers_.emplace_back(&PreprocessEngine::workerLoop, this,
                              decode_pool, io_ring);
}

PreprocessEngine::~PreprocessEngine()
{
    // No open() can race a destructor: every id below next_id_ stays.
    for (FlowId id = 1; id < next_id_; ++id)
        close(id);
    {
        std::scoped_lock lock(mu_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_)
        worker.join();
}

PreprocessEngine::FlowId
PreprocessEngine::open(FlowSpec spec)
{
    PRESTO_CHECK(spec.queue_capacity >= 1, "queue capacity must be positive");
    auto flow = std::make_shared<Flow>();
    flow->slots.resize(spec.queue_capacity);
    flow->spec = std::move(spec);
    std::scoped_lock lock(mu_);
    const FlowId id = next_id_++;
    wfq_.join(id, flow->spec.weight);
    flows_.emplace(id, std::move(flow));
    work_cv_.notify_all();
    return id;
}

void
PreprocessEngine::workerLoop(ThreadPool* decode_pool, IoRing* io_ring)
{
    // Borrowed for the worker's life, so the shell outlives the engine
    // in the pool.
    std::unique_ptr<WorkerShell> shell = shells_.takeWorker();
    shell->producer.bind(decode_pool, io_ring);
    std::unique_lock lock(mu_);
    while (!stopping_) {
        const auto picked = wfq_.pick([&](FlowId id) {
            const Flow& f = *flows_.at(id);
            return !f.closing && f.error.ok() && f.claimed < f.spec.limit &&
                   f.claimed - f.stats.delivered < f.slots.size();
        });
        if (!picked) {
            work_cv_.wait(lock);
            continue;
        }
        std::shared_ptr<Flow> flow = flows_.at(*picked);
        const uint64_t seq = flow->claimed++;
        flow->stats.max_in_flight =
            std::max(flow->stats.max_in_flight, ++flow->in_flight);
        lock.unlock();

        // Extract, then Transform into a pooled MiniBatch shell taken
        // only once the partition is decoded.
        std::unique_ptr<MiniBatch> mb;
        const StatusOr<PartitionRef> where = flow->spec.locate(seq);
        Status st = where.ok() ? shell->producer.produce(*where->store,
                                                         where->partition_id,
                                                         shell->batch)
                               : where.status();
        if (st.ok()) {
            mb = shells_.takeBatch();
            flow->spec.program.run(shell->batch, *mb, shell->arena);
        }

        lock.lock();
        --flow->in_flight;
        if (!st.ok() && seq < flow->error_at) {
            flow->error_at = seq;
            flow->error = std::move(st);
        } else if (st.ok() && !flow->closing && seq < flow->error_at) {
            const ProduceStats& ps = shell->producer.lastStats();
            FlowStats& fs = flow->stats;
            ++fs.produced;
            fs.raw_bytes += ps.raw_bytes;
            fs.bytes_touched += ps.bytes_touched;
            fs.transient_errors += ps.transient_errors;
            fs.corrupt_refetches += ps.corrupt_refetches;
            fs.hot_tier_hits += ps.hot_tier_hit ? 1 : 0;
            fs.tensor_bytes += mb->byteSize();
            fs.max_queue_occupancy =
                std::max(fs.max_queue_occupancy, ++flow->ready);
            flow->slots[seq % flow->slots.size()] = std::move(mb);
        }
        shells_.giveBatch(std::move(mb));  // unpublished; nullptr: no-op
        flow->cv.notify_all();
    }
    lock.unlock();
    shell->producer.bind(nullptr, nullptr);  // the ring may go first
    shells_.giveWorker(std::move(shell));
}

StatusOr<FlowBatch>
PreprocessEngine::next(FlowId id)
{
    std::unique_lock lock(mu_);
    auto it = flows_.find(id);
    const std::shared_ptr<Flow> flow =
        it == flows_.end() ? nullptr : it->second;
    const auto head = [&flow]() -> std::unique_ptr<MiniBatch>& {
        return flow->slots[flow->stats.delivered % flow->slots.size()];
    };
    while (flow != nullptr && !flow->closing && head() == nullptr &&
           flow->stats.delivered < flow->spec.limit &&
           flow->stats.delivered != flow->error_at)
        flow->cv.wait(lock);
    if (flow == nullptr || flow->closing)
        return Status::aborted("flow " + std::to_string(id) + " closed");
    FlowBatch out;
    out.sequence = flow->stats.delivered;
    if (out.sequence >= flow->spec.limit)
        return out;
    if (out.sequence == flow->error_at)
        return flow->error;
    if (flow->ready == flow->slots.size() && flow->in_flight == 0)
        wfq_.wake(id);  // idle: the consumer, not the workers, held it
    out.batch = std::move(head());
    --flow->ready;
    ++flow->stats.delivered;
    lock.unlock();
    work_cv_.notify_one();  // one more sequence number is claimable
    return out;
}

void
PreprocessEngine::close(FlowId id)
{
    std::unique_lock lock(mu_);
    auto it = flows_.find(id);
    if (it == flows_.end())
        return;
    const std::shared_ptr<Flow> flow = it->second;
    flow->closing = true;
    flow->cv.notify_all();
    flow->cv.wait(lock, [&] { return flow->in_flight == 0; });
    if (flows_.erase(id) == 0)
        return;  // a racing close() erased it first
    wfq_.leave(id);
    for (auto& mb : flow->slots)
        shells_.giveBatch(std::move(mb));
}

FlowStats
PreprocessEngine::stats(FlowId id) const
{
    std::scoped_lock lock(mu_);
    return flows_.at(id)->stats;
}

}  // namespace presto
