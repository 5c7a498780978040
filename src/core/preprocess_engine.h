/**
 * @file
 * PreprocessEngine: the one worker engine of the data plane. The batch
 * pipeline (core/managers.h) runs one flow on it, the ingest service
 * (service/ingest_service.h) one flow per session.
 *
 * A flow is one consumer's ordered stream of train-ready MiniBatches:
 * sequence number n is Extracted from the store and partition its
 * locate(n) names, then Transformed by the flow's CompiledProgram
 * (ops/opvm.h). A flow holds the fused program alone, not a
 * PlanExecutor, whose unfused reference tables would be rebuilt for
 * every manager (about 5 ms per RM5 epoch).
 *
 * The engine is the threaded shell around EngineCore (engine_core.h),
 * which owns every flow rule: weighted-fair claims, the capacity bound
 * (claimed - delivered < queue_capacity), strict in-order delivery, an
 * error latched at its sequence number, the one wake rule, and close
 * giving every slot back. The shell calls the core under one mutex and
 * adds what needs threads: a fixed set of workers claims, produces
 * outside the lock (any number at once for one flow) and publishes the
 * MiniBatch into the slot the core names; next() blocks until the core
 * has a head to hand out.
 *
 * Buffers: each worker borrows a WorkerShell (producer, decode batch,
 * Transform arena) from the given ShellPool for its life and takes
 * MiniBatch shells from the same pool once a partition is decoded.
 * close() and the destructor give undelivered batches back to it.
 *
 * Thread-safe. The engine knows nothing of epochs or catalogs.
 */
#ifndef PRESTO_CORE_PREPROCESS_ENGINE_H_
#define PRESTO_CORE_PREPROCESS_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "core/engine_core.h"
#include "core/partition_store.h"
#include "core/shell_pool.h"
#include "ops/opvm.h"
#include "tabular/minibatch.h"

namespace presto {

class IoRing;
class ThreadPool;

/** What one flow streams. */
struct FlowSpec {
    double weight = 1.0;        ///< share; must pass checkWeight()
    size_t queue_capacity = 1;  ///< queued + in-flight bound (>= 1)
    uint64_t limit = UINT64_MAX;  ///< sequence numbers to produce
    /** Store and partition of a sequence number (thread-safe). */
    std::function<StatusOr<PartitionRef>(uint64_t sequence)> locate;
    /** The flow's Transform, immutable and shareable between flows. */
    std::shared_ptr<const CompiledProgram> program;
};

/** Counters of one flow, summed over the batches it published. */
struct FlowStats {
    uint64_t produced = 0;   ///< batches published into the slot ring
    uint64_t delivered = 0;  ///< batches handed out by next()
    uint64_t raw_bytes = 0;  ///< encoded partition bytes read
    uint64_t bytes_touched = 0;
    uint64_t transient_errors = 0;
    uint64_t corrupt_refetches = 0;
    uint64_t hot_tier_hits = 0;
    uint64_t tensor_bytes = 0;  ///< MiniBatch bytes published
    size_t max_queue_occupancy = 0;  ///< most published, undelivered
    size_t max_in_flight = 0;  ///< most productions at once
};

/** One delivered batch of a flow. */
struct FlowBatch {
    /** nullptr once the flow's limit has been delivered. */
    std::unique_ptr<MiniBatch> batch;
    uint64_t sequence = 0;
};

class PreprocessEngine
{
  public:
    using FlowId = EngineCore::FlowId;

    /**
     * Start @p workers threads (>= 1) that borrow their buffers from
     * @p shells. @p decode_pool and @p io_ring are bound to every
     * worker's producer (see PartitionProducer); both optional, both
     * must outlive the engine.
     */
    PreprocessEngine(ShellPool& shells, int workers,
                     ThreadPool* decode_pool = nullptr,
                     IoRing* io_ring = nullptr);
    /** Closes every flow and joins the workers. */
    ~PreprocessEngine();

    PreprocessEngine(const PreprocessEngine&) = delete;
    PreprocessEngine& operator=(const PreprocessEngine&) = delete;

    /** Open a flow; ids start at 1 and are never reused. */
    FlowId open(FlowSpec spec);

    /**
     * Blocking fetch of the flow's next batch in sequence order.
     * kAborted once the flow is closed (or unknown); the latched
     * production error once every earlier batch was delivered.
     */
    StatusOr<FlowBatch> next(FlowId id);

    /**
     * Close the flow: unblock its consumers, wait out its in-flight
     * productions, give its undelivered batches back to the pool.
     * Unknown ids are a no-op.
     */
    void close(FlowId id);

    /** Counters of open flow @p id (throws std::out_of_range for an
        unknown id). */
    FlowStats stats(FlowId id) const;

  private:
    struct Flow;

    void workerLoop(ThreadPool* decode_pool, IoRing* io_ring);

    ShellPool& shells_;

    mutable std::mutex mu_;
    std::condition_variable work_cv_;  ///< workers: a flow became claimable
    std::map<FlowId, std::shared_ptr<Flow>> flows_;
    EngineCore core_;  ///< the flow rules, over the same ids as flows_
    FlowId next_id_ = 1;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

}  // namespace presto

#endif  // PRESTO_CORE_PREPROCESS_ENGINE_H_
