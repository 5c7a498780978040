#include "core/engine_core.h"

#include <algorithm>

#include "common/logging.h"

namespace presto {

void
EngineCore::open(FlowId id, double weight, size_t capacity, uint64_t limit)
{
    PRESTO_CHECK(capacity >= 1, "queue capacity must be positive");
    wfq_.join(id, weight);
    Flow& f = flows_[id];
    f.capacity = capacity;
    f.limit = limit;
    f.published.assign(capacity, false);
}

std::optional<EngineCore::Claim>
EngineCore::claim()
{
    const std::optional<FlowId> id =
        wfq_.pick([this](FlowId id) { return claimable(flows_.at(id)); });
    if (!id)
        return std::nullopt;
    Flow& f = flows_.at(*id);
    ++f.in_flight;
    return Claim{*id, f.claimed++};
}

bool
EngineCore::publish(FlowId id, uint64_t sequence)
{
    Flow& f = flows_.at(id);
    --f.in_flight;
    if (f.closing || sequence >= f.error_at)
        return false;
    f.published[sequence % f.capacity] = true;
    f.max_ready = std::max(f.max_ready, ++f.ready);
    return true;
}

void
EngineCore::fail(FlowId id, uint64_t sequence, Status error)
{
    Flow& f = flows_.at(id);
    --f.in_flight;
    if (sequence < f.error_at) {
        f.error_at = sequence;
        f.error = std::move(error);
    }
}

EngineCore::Head
EngineCore::head(FlowId id) const
{
    const Flow* f = find(id);
    if (f == nullptr || f->closing)
        return Head::kClosed;
    if (f->delivered >= f->limit)
        return Head::kEnd;
    if (f->delivered == f->error_at)
        return Head::kError;
    return f->published[f->delivered % f->capacity] ? Head::kBatch
                                                    : Head::kWait;
}

uint64_t
EngineCore::deliver(FlowId id)
{
    PRESTO_CHECK(head(id) == Head::kBatch, "flow ", id, " has no batch");
    Flow& f = flows_.at(id);
    const uint64_t sequence = f.delivered;
    resume(id, f, [&] {
        f.published[sequence % f.capacity] = false;
        --f.ready;
        ++f.delivered;
    });
    return sequence;
}

std::vector<uint64_t>
EngineCore::release(FlowId id)
{
    const Flow& f = flows_.at(id);
    PRESTO_CHECK(f.closing && f.in_flight == 0, "flow ", id, " still busy");
    std::vector<uint64_t> slots;
    for (uint64_t seq = f.delivered; seq < f.claimed; ++seq) {
        if (f.published[seq % f.capacity])
            slots.push_back(seq);
    }
    wfq_.leave(id);
    flows_.erase(id);
    return slots;
}

}  // namespace presto
