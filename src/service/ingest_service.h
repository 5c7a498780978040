/**
 * @file
 * IngestService: multi-tenant streaming preprocessing sessions.
 *
 * The batch pipeline (core/managers.h) runs one dataset for one
 * consumer and exits. A production ingestion tier instead runs
 * continuously: many tenants (training jobs) each open a *session*
 * against a catalog dataset and stream train-ready mini-batches at
 * whatever rate their trainer consumes them. This module provides that
 * layer on top of DatasetCatalog + the opvm transform stack:
 *
 *  - Sessions pin an epoch at open (or a caller-chosen one) — a
 *    tenant's stream replays bit-identically even while newer epochs
 *    are being published under it.
 *  - An admission controller (admission.h) gates openSession(): a
 *    tenant whose declared demand would push any admitted tenant past
 *    its p99 SLO budget is rejected with an explicit reason.
 *  - A shared pool of preprocessing workers serves all admitted
 *    sessions: the service runs one PreprocessEngine
 *    (core/preprocess_engine.h), each session one flow of it. Workers
 *    pick sessions under weighted-fair queueing (core/wfq.h, inside
 *    the EngineCore the DES replay runs too): each claimed batch charges
 *    the session 1/weight, and workers always serve the claimable
 *    session with the smallest start tag, so a tenant with weight 2
 *    gets twice the throughput of a weight-1 tenant under contention.
 *    A session opened mid-stream, or returning from idle (its queue
 *    was full with nothing in flight), starts at the system virtual
 *    time: it takes no catch-up burst.
 *  - Trainer-demand backpressure: a session's queued plus in-flight
 *    batches are bounded by its configured queue capacity, and a
 *    session is only *claimable* while it is below it. A stalled
 *    trainer therefore throttles its own fetch/transform work to a
 *    full queue — never unbounded buffering — while other tenants keep
 *    the workers busy.
 *
 * Batches within one session are delivered strictly in partition
 * order. Up to queue_capacity of them may be in production at once on
 * different workers, so one trainer can keep every worker busy.
 */
#ifndef PRESTO_SERVICE_INGEST_SERVICE_H_
#define PRESTO_SERVICE_INGEST_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/preprocess_engine.h"
#include "core/shell_pool.h"
#include "ops/plan.h"
#include "service/admission.h"
#include "service/dataset_catalog.h"
#include "tabular/minibatch.h"

namespace presto {

/** One tenant's session request. */
struct TenantSpec {
    std::string name;
    std::string dataset;  ///< catalog dataset to stream
    double weight = 1.0;  ///< weighted-fair share under contention
    /** p99 batch-latency SLO budget; 0 = best effort (no admission
        veto on this tenant's behalf). */
    double slo_p99_sec = 0;
    /** Declared peak demand, used by admission control. 0 = declare
        nothing (admitted unless the fleet is already saturated). */
    double peak_batches_per_sec = 0;
    /** Output queue bound: maximum batches buffered ahead of the
        trainer (must be >= 1). */
    size_t queue_capacity = 4;
    /** Epoch to pin (0 = newest published at open). */
    uint64_t epoch = 0;
    /** Transform plan; unset runs TransformPlan::standard(config). */
    std::optional<TransformPlan> plan;
};

/** Service-wide knobs. */
struct ServiceOptions {
    int workers = 2;  ///< shared preprocessing worker threads
    bool admission_control = true;
    /** Per-batch service-time estimate fed to admission control;
        0 derives one from the dataset config and the measured decode +
        fused-transform calibration rates. */
    double service_sec_override = 0;
};

/** One delivered train-ready batch plus its provenance. */
struct DeliveredBatch {
    std::unique_ptr<MiniBatch> batch;
    uint64_t epoch = 0;
    uint64_t partition_index = 0;  ///< logical index within the epoch
    uint64_t sequence = 0;         ///< 0-based delivery ordinal
};

/** Point-in-time counters of one session. */
struct SessionStats {
    std::string tenant;
    uint64_t epoch = 0;
    uint64_t produced = 0;   ///< batches transformed into the queue
    uint64_t delivered = 0;  ///< batches handed to the trainer
    size_t queue_capacity = 0;
    size_t max_queue_occupancy = 0;  ///< high-water mark (bounded proof)
    size_t max_in_flight = 0;  ///< most productions at once (high-water)
    double service_sec_estimate = 0;
    /** Fetches served from the shard's hot memory tier (the session
        streams the promoted head epoch). */
    uint64_t hot_tier_hits = 0;
    /** Fetches served cold: cache, disk, or re-materialization. */
    uint64_t cold_fetches = 0;
};

/**
 * Continuously running multi-tenant preprocessing service. Thread-safe;
 * the catalog must outlive the service.
 */
class IngestService
{
  public:
    explicit IngestService(DatasetCatalog& catalog,
                           ServiceOptions options = {});
    ~IngestService();

    IngestService(const IngestService&) = delete;
    IngestService& operator=(const IngestService&) = delete;

    /**
     * Admit a tenant and start streaming. On rejection the status is
     * kFailedPrecondition carrying the admission reason (see
     * admissionProbe() for the full decision).
     * @return session id for nextBatch()/closeSession().
     */
    StatusOr<uint64_t> openSession(const TenantSpec& spec);

    /**
     * Dry-run the admission decision for @p spec against the currently
     * admitted set, without opening anything.
     */
    AdmissionDecision admissionProbe(const TenantSpec& spec) const;

    /**
     * Blocking fetch of the session's next batch (strict partition
     * order, wrapping at the epoch end). Unblocks with kAborted when
     * the session (or service) is closed, or with the production error
     * once the queue drains after a failed fetch/transform.
     */
    StatusOr<DeliveredBatch> nextBatch(uint64_t session_id);

    /** Stop production, unblock consumers, and drop the session. */
    Status closeSession(uint64_t session_id);

    /**
     * Hand a delivered batch's tensors back for a later production (of
     * any session), so a trainer that recycles every batch streams
     * with no allocation once warm. Optional: a batch never returned
     * is simply the caller's. The service keeps at most one idle batch
     * per queue slot of the open sessions plus one per worker; beyond
     * that a returned batch is freed.
     */
    void recycle(std::unique_ptr<MiniBatch> batch);

    /** Snapshot of one session's counters. */
    StatusOr<SessionStats> sessionStats(uint64_t session_id) const;

    /** Snapshots of all open sessions, by session id. */
    std::vector<SessionStats> allSessionStats() const;

    const ServiceOptions& options() const { return options_; }

  private:
    /** What the service keeps of an open session; its stream is the
        engine flow of the same id. */
    struct Session {
        TenantSpec spec;
        EpochReader reader;
    };

    /** Per-batch service-time estimate for a dataset config. */
    double estimateServiceSec(const RmConfig& config) const;
    /** Pin the epoch @p spec asks for (0 = newest published). */
    StatusOr<EpochReader> pinFor(const TenantSpec& spec) const;
    /** Admission decision for @p spec over a dataset of @p config
        against the open sessions; mu_ held. */
    AdmissionDecision admitLocked(const TenantSpec& spec,
                                  const RmConfig& config) const;
    /** Snapshot of open session @p id; mu_ held. */
    SessionStats statsLocked(uint64_t id, const Session& session) const;

    DatasetCatalog& catalog_;
    ServiceOptions options_;

    /** Guards sessions_; taken before the engine's lock, never under
        it. */
    mutable std::mutex mu_;
    std::map<uint64_t, Session> sessions_;  ///< by session (= flow) id
    /** Idle-batch cap of shells_: one per worker plus every open
        session's queue_capacity. */
    size_t batch_cap_;
    /** Worker shells and the MiniBatch shells trainers recycled; its
        own lock, taken after mu_ or alone. */
    ShellPool shells_;
    PreprocessEngine engine_;  ///< after shells_: borrows from it
};

}  // namespace presto

#endif  // PRESTO_SERVICE_INGEST_SERVICE_H_
