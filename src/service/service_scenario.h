/**
 * @file
 * Discrete-event replay of the multi-tenant ingestion service under
 * diurnal traffic from millions of simulated users.
 *
 * The threaded IngestService cannot be run for a simulated day inside a
 * test, so this scenario replays the same policies on the DES engine
 * (sim/simulator.h) at full fleet scale: admission control
 * (admission.h), and the worker engine's own flow state machine
 * (EngineCore, core/engine_core.h) for weighted-fair device claims,
 * bounded per-tenant output queues, in-order delivery and the wake
 * rule. A pool of ISP devices serves batch requests from tenants whose
 * offered load follows diurnal curves with load spikes (diurnal.h),
 * while FaultInjector fail-stops remove devices mid-day. The scenario
 * drives each flow open loop: every arriving request raises the flow's
 * limit by one, where the threaded engine's trainers pull.
 *
 * The scenario is the evidence generator for docs/SERVICE.md and
 * bench_service: identical seeds and options produce bit-identical
 * reports, so its two headline claims are enforceable in CI —
 *
 *  1. with admission control on, every *admitted* tenant's p99 batch
 *     latency stays within its SLO through the diurnal peak, the load
 *     spike, and the injected device failures, while the uncontrolled
 *     baseline (same traffic, admission off) violates it; and
 *  2. a tenant whose trainer stalls fills its bounded output queue and
 *     throttles — max occupancy never exceeds the configured capacity —
 *     instead of buffering without bound.
 */
#ifndef PRESTO_SERVICE_SERVICE_SCENARIO_H_
#define PRESTO_SERVICE_SERVICE_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "service/diurnal.h"

namespace presto {

/** One simulated tenant (training job) of the scenario. */
struct ScenarioTenant {
    std::string name;
    /**
     * User population behind this tenant's traffic. When > 0, the
     * diurnal mean rate is derived as
     * users * requests_per_user_per_day / samples_per_batch / period,
     * overriding traffic.diurnal.mean_batches_per_sec: each user
     * request contributes one training sample, and samples are
     * aggregated into fixed-size batches before preprocessing.
     */
    double users = 0;
    double requests_per_user_per_day = 0;
    double samples_per_batch = 1;
    TrafficModel traffic;
    double weight = 1.0;       ///< weighted-fair share (> 0, finite)
    double slo_p99_sec = 0;    ///< p99 batch-latency budget (0 = none)
    size_t queue_capacity = 8; ///< bounded output queue toward the trainer
    /** Admission request time; tenants may join mid-day. */
    double join_sec = 0;
    /** Trainer stall window [start, end): output queue is not drained. */
    double stall_start_sec = 0;
    double stall_end_sec = 0;
    /**
     * Epoch-lifecycle behavior (only with lifecycle.publish_period_sec
     * set): pin this many epochs behind the head at join — 0 streams
     * the hot head epoch, >= 1 replays a historical (cold) epoch. When
     * the lagged epoch is already retired, the oldest live one at or
     * after it is pinned instead.
     */
    uint64_t pin_lag_epochs = 0;
    /**
     * Keep the join-time pin until this simulated time; afterwards the
     * tenant re-pins the head at each publish (a trainer finishing a
     * historical replay and catching up). 0 = follow the head from the
     * first publish after join.
     */
    double hold_pin_until_sec = 0;
};

/**
 * Dataset epoch lifecycle driving retention and tiering in the DES
 * replay — the scenario-level model of DatasetCatalog::applyRetention
 * plus head-epoch hot-tier promotion.
 */
struct EpochLifecycleModel {
    /** Seconds between epoch publishes (0 disables the lifecycle —
        the pre-retention scenario shape). The first publish fires at
        t = 0, before any same-time tenant join. */
    double publish_period_sec = 0;
    /** Retention: keep the newest this-many epochs (plus pinned). */
    size_t retain_epochs = 2;
    /** Modeled disk footprint of one epoch across the shards. */
    uint64_t epoch_bytes = 0;
    /** Extra per-batch service time when a tenant streams a cold
        (non-head) epoch from disk instead of the hot memory tier. */
    double cold_extra_sec = 0;
};

/** Fleet and policy knobs of one scenario run. */
struct ScenarioOptions {
    int devices = 24;            ///< ISP fleet size
    double service_sec = 0.25;   ///< per-batch preprocessing time
    double duration_sec = 86400; ///< simulated span (one day)
    uint64_t seed = 0x5e21f1ce;
    bool admission_control = true;
    FaultSpec faults;  ///< fail_stops remove devices at their times
    EpochLifecycleModel lifecycle;  ///< epoch publish/retention model
};

/** Per-tenant outcome of a scenario run. */
struct TenantReport {
    std::string name;
    bool admitted = false;
    std::string reject_reason;  ///< admission reason when rejected
    double projected_p99_sec = 0;  ///< admission-time projection
    uint64_t arrivals = 0;  ///< batch requests offered while admitted
    uint64_t served = 0;    ///< batches produced by the fleet
    double mean_latency_sec = 0;
    double p99_latency_sec = 0;
    double max_latency_sec = 0;
    size_t queue_capacity = 0;
    /** Most published, undelivered batches at once: the engine's
        FlowStats::max_queue_occupancy, read from EngineCore. */
    size_t max_queue_occupancy = 0;
    uint64_t backlog_peak = 0;       ///< max requests waiting for a device
    bool slo_met = true;  ///< p99 <= slo (true when no SLO declared)
    uint64_t hot_served = 0;   ///< batches served from the hot head epoch
    uint64_t cold_served = 0;  ///< batches streamed from a cold epoch
    uint64_t pinned_epoch = 0; ///< epoch pinned at scenario end
};

/** Lifecycle outcome of a scenario run (zeros when disabled). */
struct LifecycleReport {
    uint64_t epochs_published = 0;
    uint64_t epochs_retired = 0;
    /** Retention passes that spared an otherwise-eligible epoch
        because a tenant still pinned it (one count per epoch per
        pass). */
    uint64_t epochs_kept_pinned = 0;
    uint64_t peak_live_epochs = 0;
    uint64_t peak_live_bytes = 0;
    uint64_t final_live_bytes = 0;  ///< steady-state disk footprint
    /**
     * The footprint gate: true iff after every retention pass the
     * modeled live bytes stayed within (retain_epochs + independently
     * counted pinned-old epochs) * epoch_bytes — i.e. retention kept
     * the multi-day replay's disk footprint bounded.
     */
    bool footprint_bounded = true;
    uint64_t hot_served = 0;
    uint64_t cold_served = 0;
    double hot_hit_rate = 0;  ///< hot / (hot + cold)
    double mean_hot_latency_sec = 0;
    double mean_cold_latency_sec = 0;  ///< cold-epoch pin latency
    double p99_cold_latency_sec = 0;
};

/** Whole-fleet outcome of a scenario run. */
struct ScenarioReport {
    std::vector<TenantReport> tenants;  ///< in input order
    double duration_sec = 0;
    int devices = 0;
    uint64_t devices_failed = 0;
    double capacity_device_sec = 0;  ///< surviving device-seconds
    double busy_device_sec = 0;
    double fleet_utilization = 0;  ///< busy / surviving capacity
    uint64_t total_arrivals = 0;
    uint64_t total_served = 0;
    LifecycleReport lifecycle;  ///< epoch retention/tiering outcome
};

/**
 * Run the scenario to completion. Deterministic: the report is a pure
 * function of (options, tenants).
 */
ScenarioReport runServiceScenario(const ScenarioOptions& options,
                                  const std::vector<ScenarioTenant>& tenants);

}  // namespace presto

#endif  // PRESTO_SERVICE_SERVICE_SCENARIO_H_
