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
    /** The batch of a sequence number EngineCore marks published in
        its slot (n % capacity); nullptr otherwise. */
    std::vector<std::unique_ptr<MiniBatch>> slots;
    FlowStats stats;  ///< all but delivered, which the core counts
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
    PRESTO_CHECK(spec.program != nullptr, "a flow needs a program");
    auto flow = std::make_shared<Flow>();
    flow->slots.resize(spec.queue_capacity);
    flow->spec = std::move(spec);
    std::scoped_lock lock(mu_);
    const FlowId id = next_id_++;
    core_.open(id, flow->spec.weight, flow->spec.queue_capacity,
               flow->spec.limit);
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
        const std::optional<EngineCore::Claim> claim = core_.claim();
        if (!claim) {
            work_cv_.wait(lock);
            continue;
        }
        const FlowId id = claim->flow;
        const uint64_t seq = claim->sequence;
        std::shared_ptr<Flow> flow = flows_.at(id);
        flow->stats.max_in_flight =
            std::max(flow->stats.max_in_flight, core_.find(id)->in_flight);
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
            flow->spec.program->run(shell->batch, *mb, shell->arena);
        }

        lock.lock();
        if (!st.ok()) {
            core_.fail(id, seq, std::move(st));
        } else if (core_.publish(id, seq)) {
            const ProduceStats& ps = shell->producer.lastStats();
            FlowStats& fs = flow->stats;
            ++fs.produced;
            fs.raw_bytes += ps.raw_bytes;
            fs.bytes_touched += ps.bytes_touched;
            fs.transient_errors += ps.transient_errors;
            fs.corrupt_refetches += ps.corrupt_refetches;
            fs.hot_tier_hits += ps.hot_tier_hit ? 1 : 0;
            fs.tensor_bytes += mb->byteSize();
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
    EngineCore::Head head;
    while ((head = core_.head(id)) == EngineCore::Head::kWait)
        flow->cv.wait(lock);
    if (head == EngineCore::Head::kClosed)
        return Status::aborted("flow " + std::to_string(id) + " closed");
    if (head == EngineCore::Head::kError)
        return core_.find(id)->error;
    FlowBatch out;
    out.sequence = core_.find(id)->delivered;
    if (head == EngineCore::Head::kEnd)
        return out;
    core_.deliver(id);
    out.batch = std::move(flow->slots[out.sequence % flow->slots.size()]);
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
    core_.close(id);
    flow->cv.notify_all();
    flow->cv.wait(lock, [&] {
        const EngineCore::Flow* f = core_.find(id);
        return f == nullptr || f->in_flight == 0;
    });
    if (flows_.erase(id) == 0)
        return;  // a racing close() released it first
    for (uint64_t seq : core_.release(id))
        shells_.giveBatch(std::move(flow->slots[seq % flow->slots.size()]));
}

FlowStats
PreprocessEngine::stats(FlowId id) const
{
    std::scoped_lock lock(mu_);
    FlowStats stats = flows_.at(id)->stats;
    const EngineCore::Flow& flow = *core_.find(id);
    stats.delivered = flow.delivered;
    stats.max_queue_occupancy = flow.max_ready;
    return stats;
}

}  // namespace presto
