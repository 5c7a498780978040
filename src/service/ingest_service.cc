#include "service/ingest_service.h"

#include <algorithm>

#include "common/batch_arena.h"
#include "common/logging.h"
#include "core/partition_producer.h"
#include "models/calibration.h"

namespace presto {

/**
 * All mutable fields are guarded by the service mutex except the
 * production step itself (fetch + decode + transform), which runs
 * unlocked on whatever worker claimed the session; `in_flight` keeps
 * claims exclusive, so per-session delivery order is partition order.
 * The fetch + decode buffers and the transform arena belong to the
 * worker, not the session.
 */
struct IngestService::Session {
    uint64_t id = 0;
    TenantSpec spec;
    EpochReader reader;
    std::unique_ptr<PlanExecutor> executor;
    double service_sec_estimate = 0;

    /** Output queue: a ring of spec.queue_capacity slots, so steady
        delivery allocates nothing. */
    std::vector<DeliveredBatch> ring;
    size_t head = 0;    ///< oldest queued slot
    size_t queued = 0;  ///< batches in the ring
    std::condition_variable queue_cv;  ///< consumers: batch or closure
    bool in_flight = false;            ///< a worker is producing for us
    bool closing = false;
    Status error;  ///< first production failure (delivered after drain)

    uint64_t next_index = 0;
    uint64_t produced = 0;
    uint64_t delivered = 0;
    size_t max_queue_occupancy = 0;
    uint64_t hot_tier_hits = 0;
    uint64_t cold_fetches = 0;

    bool
    eligible() const
    {
        return !closing && error.ok() && !in_flight &&
               queued < spec.queue_capacity;
    }

    void
    push(DeliveredBatch batch)
    {
        ring[(head + queued) % ring.size()] = std::move(batch);
        ++queued;
    }

    DeliveredBatch
    pop()
    {
        DeliveredBatch batch = std::move(ring[head]);
        head = (head + 1) % ring.size();
        --queued;
        return batch;
    }

    SessionStats
    stats() const
    {
        SessionStats out;
        out.tenant = spec.name;
        out.epoch = reader.epoch();
        out.produced = produced;
        out.delivered = delivered;
        out.queue_capacity = spec.queue_capacity;
        out.max_queue_occupancy = max_queue_occupancy;
        out.service_sec_estimate = service_sec_estimate;
        out.hot_tier_hits = hot_tier_hits;
        out.cold_fetches = cold_fetches;
        return out;
    }
};

IngestService::IngestService(DatasetCatalog& catalog,
                             ServiceOptions options)
    : catalog_(catalog), options_(options)
{
    PRESTO_CHECK(options_.workers >= 1,
                 "service needs at least one worker");
    workers_.reserve(static_cast<size_t>(options_.workers));
    for (int i = 0; i < options_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

IngestService::~IngestService()
{
    {
        std::scoped_lock lock(mu_);
        stopping_ = true;
        for (auto& [id, session] : sessions_)
            session->queue_cv.notify_all();
        work_cv_.notify_all();
    }
    for (std::thread& worker : workers_)
        worker.join();
}

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
IngestService::admitLocked(const TenantSpec& spec, double service_sec) const
{
    const auto input = [](const TenantSpec& tenant, double sec) {
        AdmissionInput in;
        in.tenant = tenant.name;
        in.peak_batches_per_sec = tenant.peak_batches_per_sec;
        in.service_sec = sec;
        in.slo_p99_sec = tenant.slo_p99_sec;
        return in;
    };
    std::vector<AdmissionInput> admitted;
    admitted.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) {
        if (!session->closing) {
            admitted.push_back(
                input(session->spec, session->service_sec_estimate));
        }
    }
    return evaluateAdmission(admitted, input(spec, service_sec),
                             static_cast<double>(options_.workers));
}

AdmissionDecision
IngestService::admissionProbe(const TenantSpec& spec) const
{
    // Pin exactly what openSession() would pin, so the probe never
    // reports admitted for a spec openSession() would fail.
    auto reader = pinFor(spec);
    if (!reader.ok()) {
        AdmissionDecision decision;
        decision.admitted = false;
        decision.reason = reader.status().toString();
        return decision;
    }
    std::scoped_lock lock(mu_);
    return admitLocked(spec, estimateServiceSec(reader->config()));
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

    auto session = std::make_shared<Session>();
    session->spec = spec;
    session->ring.resize(spec.queue_capacity);
    session->reader = *reader;
    session->service_sec_estimate =
        estimateServiceSec(reader->config());
    TransformPlan plan = spec.plan.has_value()
                             ? *spec.plan
                             : TransformPlan::standard(reader->config());
    if (Status st = plan.validate(reader->schema()); !st.ok())
        return st;
    session->executor = std::make_unique<PlanExecutor>(
        std::move(plan), reader->schema());

    std::scoped_lock lock(mu_);
    if (stopping_)
        return Status::aborted("service is shutting down");
    if (options_.admission_control) {
        const AdmissionDecision decision =
            admitLocked(spec, session->service_sec_estimate);
        if (!decision.admitted) {
            return Status::failedPrecondition(
                "tenant " + spec.name + " rejected: " + decision.reason);
        }
    }
    session->id = next_session_id_++;
    sessions_.emplace(session->id, session);
    wfq_.join(session->id, spec.weight);
    batches_.setBatchCap(batchCapLocked());
    work_cv_.notify_all();
    return session->id;
}

StatusOr<std::shared_ptr<IngestService::Session>>
IngestService::findLocked(uint64_t session_id) const
{
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
        return Status::notFound("unknown session " +
                                std::to_string(session_id));
    }
    return it->second;
}

void
IngestService::workerLoop()
{
    // One producer (reused reader, bounded retries) and one arena per
    // worker, shared by every session the worker serves.
    PartitionProducer producer;
    BatchArena arena;
    RowBatch raw;
    std::unique_lock lock(mu_);
    for (;;) {
        if (stopping_)
            return;
        const std::optional<uint64_t> picked = wfq_.pick(
            [&](uint64_t id) { return sessions_.at(id)->eligible(); });
        if (!picked) {
            work_cv_.wait(lock);
            continue;
        }
        std::shared_ptr<Session> pick = sessions_.at(*picked);
        pick->in_flight = true;
        const uint64_t index =
            pick->next_index % pick->reader.numPartitions();
        ++pick->next_index;
        lock.unlock();

        // Fetch + decode + transform outside the lock.
        DeliveredBatch out;
        out.epoch = pick->reader.epoch();
        out.partition_index = index;
        Status st = pick->reader.produce(producer, index, raw);
        if (st.ok()) {
            out.batch = batches_.takeBatch();
            pick->executor->runInto(raw, *out.batch, arena);
        }

        lock.lock();
        pick->in_flight = false;
        if (!st.ok()) {
            pick->error = st;
        } else if (producer.lastStats().hot_tier_hit) {
            ++pick->hot_tier_hits;
        } else {
            ++pick->cold_fetches;
        }
        if (st.ok() && !pick->closing) {
            out.sequence = pick->produced++;
            pick->push(std::move(out));
            pick->max_queue_occupancy =
                std::max(pick->max_queue_occupancy, pick->queued);
        }
        pick->queue_cv.notify_all();
        // The session may still be eligible (queue not full) and other
        // sessions may have gained eligibility; loop re-evaluates.
    }
}

StatusOr<DeliveredBatch>
IngestService::nextBatch(uint64_t session_id)
{
    std::unique_lock lock(mu_);
    auto found = findLocked(session_id);
    if (!found.ok())
        return found.status();
    std::shared_ptr<Session> session = *std::move(found);
    session->queue_cv.wait(lock, [&] {
        return session->queued > 0 || session->closing || stopping_ ||
               !session->error.ok();
    });
    if (session->queued > 0) {
        // A full queue with nothing in flight is an idle session: its
        // trainer, not the workers, held it back. Freeing a slot
        // re-bases it, so it takes no catch-up burst. (A closing
        // session may already have left the scheduler.)
        if (session->queued == session->spec.queue_capacity &&
            !session->in_flight && !session->closing) {
            wfq_.wake(session_id);
        }
        DeliveredBatch batch = session->pop();
        ++session->delivered;
        work_cv_.notify_all();  // queue space: session eligible again
        return batch;
    }
    if (!session->error.ok())
        return session->error;
    return Status::aborted("session " + std::to_string(session_id) +
                           " closed");
}

Status
IngestService::closeSession(uint64_t session_id)
{
    std::unique_lock lock(mu_);
    auto found = findLocked(session_id);
    if (!found.ok())
        return found.status();
    std::shared_ptr<Session> session = *std::move(found);
    session->closing = true;
    session->queue_cv.notify_all();
    // Wait out an in-flight production so the worker never touches a
    // session the map no longer owns. (The shared_ptr would keep it
    // alive regardless; this keeps shutdown deterministic.)
    session->queue_cv.wait(lock, [&] { return !session->in_flight; });
    if (sessions_.erase(session_id) == 1) {  // racing closes erase once
        wfq_.leave(session_id);
        batches_.setBatchCap(batchCapLocked());
    }
    work_cv_.notify_all();
    return Status::okStatus();
}

void
IngestService::recycle(std::unique_ptr<MiniBatch> batch)
{
    batches_.giveBatch(std::move(batch));
}

size_t
IngestService::batchCapLocked() const
{
    // Every slot of every open queue, plus one production per worker.
    size_t cap = static_cast<size_t>(options_.workers);
    for (const auto& [id, session] : sessions_)
        cap += session->spec.queue_capacity;
    return cap;
}

StatusOr<SessionStats>
IngestService::sessionStats(uint64_t session_id) const
{
    std::scoped_lock lock(mu_);
    auto found = findLocked(session_id);
    if (!found.ok())
        return found.status();
    return (*found)->stats();
}

std::vector<SessionStats>
IngestService::allSessionStats() const
{
    std::scoped_lock lock(mu_);
    std::vector<SessionStats> all;
    all.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_)
        all.push_back(session->stats());
    return all;
}

}  // namespace presto
