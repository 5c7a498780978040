#include "core/wfq.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace presto {

Status
WfqScheduler::checkWeight(double weight)
{
    if (!std::isfinite(weight) || weight <= 0)
        return Status::invalidArgument("weight must be positive");
    return Status::okStatus();
}

void
WfqScheduler::join(FlowId id, double weight)
{
    const Status st = checkWeight(weight);
    PRESTO_CHECK(st.ok(), st.message());
    const bool inserted = flows_.emplace(id, Flow{weight, vtime_}).second;
    PRESTO_CHECK(inserted, "flow ", id, " already joined");
}

void
WfqScheduler::leave(FlowId id)
{
    PRESTO_CHECK(flows_.erase(id) == 1, "unknown flow ", id);
}

void
WfqScheduler::wake(FlowId id)
{
    auto it = flows_.find(id);
    PRESTO_CHECK(it != flows_.end(), "unknown flow ", id);
    it->second.tag = std::max(it->second.tag, vtime_);
}

}  // namespace presto
