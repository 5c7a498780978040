#include "service/ingest_service.h"

#include "common/logging.h"
#include "models/calibration.h"

namespace presto {

namespace {

Status
unknownSession(uint64_t session_id)
{
    return Status::notFound("unknown session " + std::to_string(session_id));
}

}  // namespace

IngestService::IngestService(DatasetCatalog& catalog,
                             ServiceOptions options)
    : catalog_(catalog), options_(options),
      batch_cap_(static_cast<size_t>(options.workers)),
      engine_(shells_, options.workers)
{
}

// The engine closes every session, unblocking their trainers, and
// joins the workers.
IngestService::~IngestService() = default;

double
IngestService::estimateServiceSec(const RmConfig& config) const
{
    if (options_.service_sec_override > 0)
        return options_.service_sec_override;
    // Decode + fused transform at the measured calibration rates; the
    // admission projection only needs the right order of magnitude.
    const double values = config.rawValuesPerBatch();
    return values * (cal::kMeasuredSimdDecodeSecPerValue +
                     cal::kMeasuredFusedSecPerValue);
}

StatusOr<EpochReader>
IngestService::pinFor(const TenantSpec& spec) const
{
    return spec.epoch == 0 ? catalog_.pin(spec.dataset)
                           : catalog_.pin(spec.dataset, spec.epoch);
}

AdmissionDecision
IngestService::admitLocked(const TenantSpec& spec,
                           const RmConfig& config) const
{
    const auto input = [this](const TenantSpec& tenant, const RmConfig& cfg) {
        return AdmissionInput{tenant.name, tenant.peak_batches_per_sec,
                              estimateServiceSec(cfg), tenant.slo_p99_sec};
    };
    std::vector<AdmissionInput> admitted;
    admitted.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_)
        admitted.push_back(input(session.spec, session.reader.config()));
    return evaluateAdmission(admitted, input(spec, config),
                             static_cast<double>(options_.workers));
}

AdmissionDecision
IngestService::admissionProbe(const TenantSpec& spec) const
{
    // Pin exactly what openSession() would pin, so the probe never
    // reports admitted for a spec openSession() would fail.
    auto reader = pinFor(spec);
    if (!reader.ok())
        return AdmissionDecision{false, reader.status().toString()};
    std::scoped_lock lock(mu_);
    return admitLocked(spec, reader->config());
}

StatusOr<uint64_t>
IngestService::openSession(const TenantSpec& spec)
{
    if (spec.queue_capacity == 0)
        return Status::invalidArgument("queue_capacity must be >= 1");
    if (Status st = WfqScheduler::checkWeight(spec.weight); !st.ok())
        return st;
    auto reader = pinFor(spec);
    if (!reader.ok())
        return reader.status();
    TransformPlan plan = spec.plan.has_value()
                             ? *spec.plan
                             : TransformPlan::standard(reader->config());
    if (Status st = plan.validate(reader->schema()); !st.ok())
        return st;

    // Sequence n is logical partition n % epoch size: the stream wraps.
    FlowSpec flow{.weight = spec.weight,
                  .queue_capacity = spec.queue_capacity,
                  .locate = [epoch = *reader](uint64_t seq) {
                      return epoch.locate(seq % epoch.numPartitions());
                  },
                  .program = std::make_shared<const CompiledProgram>(
                      CompiledProgram::compile(std::move(plan),
                                               reader->schema()))};

    std::scoped_lock lock(mu_);
    if (options_.admission_control) {
        const AdmissionDecision decision =
            admitLocked(spec, reader->config());
        if (!decision.admitted) {
            return Status::failedPrecondition(
                "tenant " + spec.name + " rejected: " + decision.reason);
        }
    }
    const uint64_t id = engine_.open(std::move(flow));
    sessions_.emplace(id, Session{spec, *reader});
    batch_cap_ += spec.queue_capacity;
    shells_.setBatchCap(batch_cap_);
    return id;
}

StatusOr<DeliveredBatch>
IngestService::nextBatch(uint64_t session_id)
{
    EpochReader reader;
    {
        std::scoped_lock lock(mu_);
        auto it = sessions_.find(session_id);
        if (it == sessions_.end())
            return unknownSession(session_id);
        reader = it->second.reader;
    }
    // Blocks in the engine, outside mu_: a racing closeSession()
    // unblocks it with kAborted.
    StatusOr<FlowBatch> got = engine_.next(session_id);
    if (!got.ok())
        return got.status();
    return DeliveredBatch{std::move(got->batch), reader.epoch(),
                          got->sequence % reader.numPartitions(),
                          got->sequence};
}

Status
IngestService::closeSession(uint64_t session_id)
{
    {
        std::scoped_lock lock(mu_);
        auto it = sessions_.find(session_id);
        if (it == sessions_.end())
            return unknownSession(session_id);
        batch_cap_ -= it->second.spec.queue_capacity;
        sessions_.erase(it);
        shells_.setBatchCap(batch_cap_);
    }
    engine_.close(session_id);
    return Status::okStatus();
}

void
IngestService::recycle(std::unique_ptr<MiniBatch> batch)
{
    shells_.giveBatch(std::move(batch));
}

SessionStats
IngestService::statsLocked(uint64_t id, const Session& session) const
{
    const FlowStats flow = engine_.stats(id);
    return SessionStats{.tenant = session.spec.name,
                        .epoch = session.reader.epoch(),
                        .produced = flow.produced,
                        .delivered = flow.delivered,
                        .queue_capacity = session.spec.queue_capacity,
                        .max_queue_occupancy = flow.max_queue_occupancy,
                        .max_in_flight = flow.max_in_flight,
                        .service_sec_estimate =
                            estimateServiceSec(session.reader.config()),
                        .hot_tier_hits = flow.hot_tier_hits,
                        .cold_fetches = flow.produced - flow.hot_tier_hits};
}

StatusOr<SessionStats>
IngestService::sessionStats(uint64_t session_id) const
{
    std::scoped_lock lock(mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end())
        return unknownSession(session_id);
    return statsLocked(session_id, it->second);
}

std::vector<SessionStats>
IngestService::allSessionStats() const
{
    std::scoped_lock lock(mu_);
    std::vector<SessionStats> all;
    all.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_)
        all.push_back(statsLocked(id, session));
    return all;
}

}  // namespace presto
