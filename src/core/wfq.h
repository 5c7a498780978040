/**
 * @file
 * WfqScheduler: the one weighted-fair-queueing policy. EngineCore
 * (engine_core.h) holds it and decides with it which claimable flow a
 * worker serves next; the threaded worker engine and the service DES
 * both reach it only through that core.
 *
 * Start-time fair queueing over flows (sessions or simulated tenants):
 *
 *  - every flow carries a weight and a start tag;
 *  - pick() serves the flow with the smallest tag among those the
 *    caller admits (lowest id on ties), makes that tag the system
 *    virtual time, and charges the flow 1/weight;
 *  - a flow that joins, or returns from idle, is re-based to
 *    max(tag, system virtual time), so it neither starves the others
 *    nor replays service it never asked for (no catch-up burst).
 *
 * Eligibility and the moment of a wake stay with the caller: the
 * scheduler decides only the order among admitted flows.
 *
 * Not thread-safe.
 */
#ifndef PRESTO_CORE_WFQ_H_
#define PRESTO_CORE_WFQ_H_

#include <cstdint>
#include <map>
#include <optional>

#include "common/status.h"

namespace presto {

class WfqScheduler
{
  public:
    using FlowId = uint64_t;

    /** kInvalidArgument unless @p weight is positive and finite: 1/0
        would starve the flow forever, a negative weight would let it
        monopolize every pick. */
    static Status checkWeight(double weight);

    /** Add flow @p id (not yet present) at the system virtual time.
        @p weight must pass checkWeight(). */
    void join(FlowId id, double weight);

    /** Remove flow @p id. */
    void leave(FlowId id);

    /** Idle re-base of flow @p id: tag = max(tag, system vtime). */
    void wake(FlowId id);

    /** Flow @p id's start tag, and the system virtual time. */
    double tag(FlowId id) const { return flows_.at(id).tag; }
    double vtime() const { return vtime_; }

    /**
     * Serve the flow with the smallest tag among those @p eligible(id)
     * admits, lowest id on ties, and charge it 1/weight.
     * @return the picked id, or nullopt when no flow is admitted.
     */
    template <typename Eligible>
    std::optional<FlowId>
    pick(Eligible&& eligible)
    {
        auto best = flows_.end();
        for (auto it = flows_.begin(); it != flows_.end(); ++it) {
            if (eligible(it->first) &&
                (best == flows_.end() || it->second.tag < best->second.tag))
                best = it;
        }
        if (best == flows_.end())
            return std::nullopt;
        Flow& flow = best->second;
        vtime_ = flow.tag;
        flow.tag += 1.0 / flow.weight;
        return best->first;
    }

  private:
    struct Flow {
        double weight;
        double tag;
    };

    std::map<FlowId, Flow> flows_;  ///< id order is the tie-break order
    double vtime_ = 0;              ///< system virtual time: last pick's tag
};

}  // namespace presto

#endif  // PRESTO_CORE_WFQ_H_
