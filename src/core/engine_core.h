/**
 * @file
 * EngineCore: the flow rules of the worker engine, with no threads and
 * no locks. The threaded PreprocessEngine (preprocess_engine.h) calls
 * it under its mutex, the service DES (service/service_scenario.h)
 * from simulated events, and the schedule test from every interleaving
 * of small configurations, so all three run the same rules.
 *
 * A flow streams sequence numbers 0, 1, 2, ... below its limit:
 *
 *  - claim: the next sequence number of the flow that weighted-fair
 *    queueing (wfq.h) picks among the claimable ones. A flow is
 *    claimable while it is open, has latched no error, has sequence
 *    numbers left below its limit, and claimed - delivered < capacity;
 *  - publish or fail ends a claimed production. Sequence n is
 *    published into slot n % capacity; a failure latches its error at
 *    the lowest failed sequence number, and the flow claims no more;
 *  - deliver hands out the head, strictly in sequence order. head()
 *    names what the next delivery is: a published batch, a wait, the
 *    end of the limit, the latched error once every earlier batch is
 *    delivered, or closed;
 *  - raiseLimit extends the flow: an open-loop caller (the DES) raises
 *    it by one per arriving request, a closed-loop one (the engine)
 *    opens the flow at its whole limit;
 *  - close stops claims and publishes; release, once nothing is in
 *    flight, hands back every published, undelivered slot and removes
 *    the flow.
 *
 * One wake rule: a flow that was unclaimable with nothing in flight
 * and becomes claimable (a delivery frees a slot, a stall drains, a
 * raised limit brings new work) is re-based to the system virtual time
 * (WfqScheduler::wake), so it takes no catch-up burst for the time it
 * was held back.
 */
#ifndef PRESTO_CORE_ENGINE_CORE_H_
#define PRESTO_CORE_ENGINE_CORE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/wfq.h"

namespace presto {

class EngineCore
{
  public:
    using FlowId = WfqScheduler::FlowId;

    /** One flow's counters (read-only to callers). */
    struct Flow {
        size_t capacity = 1;
        uint64_t limit = 0;
        uint64_t claimed = 0;    ///< next sequence number to claim
        uint64_t delivered = 0;  ///< next sequence number to deliver
        size_t in_flight = 0;    ///< claimed, neither published nor failed
        size_t ready = 0;        ///< published, undelivered
        size_t max_ready = 0;    ///< most ready at once: occupancy
        uint64_t error_at = UINT64_MAX;  ///< latched error's sequence
        Status error;
        bool closing = false;
        std::vector<bool> published;  ///< slot n % capacity holds n
    };
    struct Claim {
        FlowId flow;
        uint64_t sequence;
    };
    enum class Head { kBatch, kWait, kEnd, kError, kClosed };

    /** Open flow @p id (not yet open) at the system virtual time.
        @p weight must pass WfqScheduler::checkWeight(). */
    void open(FlowId id, double weight, size_t capacity, uint64_t limit);
    /** Raise open flow @p id's limit to @p limit (never lowers it). */
    void raiseLimit(FlowId id, uint64_t limit)
    {
        Flow& f = flows_.at(id);
        resume(id, f, [&] { f.limit = std::max(f.limit, limit); });
    }
    /** Claim for the claimable flow WFQ picks; nullopt when none is. */
    std::optional<Claim> claim();
    /** @return false when the batch is dropped: the flow is closing or
        latched an error at an earlier sequence number. */
    bool publish(FlowId id, uint64_t sequence);
    void fail(FlowId id, uint64_t sequence, Status error);
    /** What the next delivery of @p id is (kClosed when unknown). */
    Head head(FlowId id) const;
    /** Deliver the published head (head() == kBatch): its sequence. */
    uint64_t deliver(FlowId id);
    /** Stop claims and publishes of @p id; unknown ids are a no-op. */
    void close(FlowId id)
    {
        if (auto it = flows_.find(id); it != flows_.end())
            it->second.closing = true;
    }
    /** Remove closed flow @p id with nothing in flight; returns the
        sequence numbers of its published, undelivered slots. */
    std::vector<uint64_t> release(FlowId id);

    /** nullptr when @p id is not open. */
    const Flow* find(FlowId id) const
    {
        auto it = flows_.find(id);
        return it == flows_.end() ? nullptr : &it->second;
    }
    const WfqScheduler& wfq() const { return wfq_; }

  private:
    static bool
    claimable(const Flow& f)
    {
        return !f.closing && f.error_at == UINT64_MAX &&
               f.claimed < f.limit && f.claimed - f.delivered < f.capacity;
    }
    /** The wake rule around @p f's change by @p change. */
    template <typename Change>
    void resume(FlowId id, Flow& f, Change&& change)
    {
        const bool idle = !claimable(f) && f.in_flight == 0;
        change();
        if (idle && claimable(f))
            wfq_.wake(id);
    }

    std::map<FlowId, Flow> flows_;
    WfqScheduler wfq_;
};

}  // namespace presto

#endif  // PRESTO_CORE_ENGINE_CORE_H_
