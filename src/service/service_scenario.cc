#include "service/service_scenario.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <optional>
#include <set>

#include "common/logging.h"
#include "core/engine_core.h"
#include "service/admission.h"
#include "sim/simulator.h"

namespace presto {

namespace {

/** What the DES tracks of one tenant beyond its engine flow. */
struct TenantState {
    const ScenarioTenant* spec = nullptr;
    size_t index = 0;  ///< input order; engine flow id and tie-break

    std::deque<double> backlog;  ///< arrival times of unclaimed requests
    uint64_t pinned_epoch = 0;   ///< 0 = lifecycle off / not joined

    TenantReport report;
    std::vector<double> latencies;

    bool
    stalledAt(double t) const
    {
        return t >= spec->stall_start_sec && t < spec->stall_end_sec;
    }
};

/** Whole-scenario DES state. */
struct ScenarioState {
    const ScenarioOptions* options = nullptr;
    Simulator sim;
    std::vector<ScenarioTenant> specs;  ///< private copy (rate derivation)
    std::vector<TenantState> tenants;
    int capacity = 0;  ///< surviving devices
    int busy = 0;
    /** One flow per tenant, keyed by input index: claims, in-flight
        and queue accounting, in-order delivery and wake. */
    EngineCore engine;
    double busy_device_sec = 0;
    uint64_t devices_failed = 0;
    double lost_device_sec = 0;

    // Epoch lifecycle (lifecycle.publish_period_sec > 0).
    uint64_t head_epoch = 0;
    std::set<uint64_t> live_epoch_set;  ///< published, not retired
    uint64_t live_bytes = 0;
    LifecycleReport lifecycle;
    std::vector<double> hot_latencies;
    std::vector<double> cold_latencies;

    void dispatch();
    void arrive(TenantState& tenant);
    void consume(TenantState& tenant);
    void startSlotGenerator(TenantState& tenant, uint64_t slot);
    std::vector<AdmissionInput> admittedInputs() const;

    bool lifecycleOn() const
    {
        return options->lifecycle.publish_period_sec > 0;
    }
    /** Hot iff the tenant streams the promoted head epoch. */
    bool tenantHot(const TenantState& t) const
    {
        return !lifecycleOn() || t.pinned_epoch == head_epoch;
    }
    void schedulePublish(double when);
    void publishEpochEvent();
    void pinAtJoin(TenantState& tenant);
};

struct LatencySummary {
    double mean = 0;
    double p99 = 0;
    double max = 0;
};

/** Summary of @p xs, which it sorts; zeros when empty. */
LatencySummary
summarize(std::vector<double>& xs)
{
    LatencySummary out;
    if (xs.empty())
        return out;
    std::sort(xs.begin(), xs.end());
    for (double x : xs)
        out.mean += x;
    out.mean /= static_cast<double>(xs.size());
    out.p99 = xs[static_cast<size_t>(
        0.99 * static_cast<double>(xs.size() - 1))];
    out.max = xs.back();
    return out;
}

AdmissionInput
inputFor(const ScenarioTenant& spec, double service_sec)
{
    AdmissionInput input;
    input.tenant = spec.name;
    input.peak_batches_per_sec = spec.traffic.peakRate();
    input.service_sec = service_sec;
    input.slo_p99_sec = spec.slo_p99_sec;
    return input;
}

std::vector<AdmissionInput>
ScenarioState::admittedInputs() const
{
    std::vector<AdmissionInput> admitted;
    for (const TenantState& t : tenants) {
        if (t.report.admitted)
            admitted.push_back(inputFor(*t.spec, options->service_sec));
    }
    return admitted;
}

void
ScenarioState::dispatch()
{
    while (busy < capacity) {
        const std::optional<EngineCore::Claim> claim = engine.claim();
        if (!claim)
            return;
        TenantState* tenant = &tenants[claim->flow];
        const double arrival_time = tenant->backlog.front();
        tenant->backlog.pop_front();
        ++busy;
        // Tiering classification happens at dispatch: a head-epoch
        // stream is a hot-tier read, a lagged pin streams its cold
        // epoch off disk and pays the extra device time.
        const bool hot = tenantHot(*tenant);
        const double service =
            options->service_sec +
            (hot ? 0.0 : options->lifecycle.cold_extra_sec);
        sim.schedule(service, [this, tenant, arrival_time, hot, service,
                               seq = claim->sequence] {
            --busy;
            engine.publish(tenant->index, seq);
            busy_device_sec += service;
            ++tenant->report.served;
            const double latency = sim.now() - arrival_time;
            tenant->latencies.push_back(latency);
            if (lifecycleOn()) {
                if (hot) {
                    ++tenant->report.hot_served;
                    hot_latencies.push_back(latency);
                } else {
                    ++tenant->report.cold_served;
                    cold_latencies.push_back(latency);
                }
            }
            // A stalled trainer leaves the batch in its queue.
            if (!tenant->stalledAt(sim.now()))
                consume(*tenant);
            dispatch();
        });
    }
}

void
ScenarioState::arrive(TenantState& tenant)
{
    // Open loop: each request raises the flow's limit by one.
    ++tenant.report.arrivals;
    tenant.backlog.push_back(sim.now());
    engine.raiseLimit(tenant.index, tenant.report.arrivals);
    tenant.report.backlog_peak =
        std::max(tenant.report.backlog_peak,
                 static_cast<uint64_t>(tenant.backlog.size()));
    dispatch();
}

void
ScenarioState::consume(TenantState& tenant)
{
    // The trainer takes every batch it can, in sequence order.
    while (engine.head(tenant.index) == EngineCore::Head::kBatch)
        engine.deliver(tenant.index);
}

void
ScenarioState::schedulePublish(double when)
{
    if (when >= options->duration_sec)
        return;
    sim.scheduleAt(when, [this, when] {
        publishEpochEvent();
        schedulePublish(when + options->lifecycle.publish_period_sec);
    });
}

void
ScenarioState::publishEpochEvent()
{
    const EpochLifecycleModel& model = options->lifecycle;
    ++head_epoch;
    live_epoch_set.insert(head_epoch);
    live_bytes += model.epoch_bytes;
    ++lifecycle.epochs_published;

    // Head-following tenants re-pin the freshly promoted epoch; a
    // tenant holding a historical pin keeps it until its hold expires.
    for (TenantState& tenant : tenants) {
        if (tenant.report.admitted && tenant.pinned_epoch != 0 &&
            sim.now() >= tenant.spec->hold_pin_until_sec) {
            tenant.pinned_epoch = head_epoch;
        }
    }

    // Retention: retire epochs older than the newest retain_epochs,
    // sparing any epoch a tenant still pins.
    if (model.retain_epochs > 0 && head_epoch > model.retain_epochs) {
        const uint64_t retire_below =
            head_epoch - model.retain_epochs + 1;
        std::set<uint64_t> pinned;
        for (const TenantState& tenant : tenants) {
            if (tenant.report.admitted && tenant.pinned_epoch != 0)
                pinned.insert(tenant.pinned_epoch);
        }
        for (auto it = live_epoch_set.begin();
             it != live_epoch_set.end() && *it < retire_below;) {
            if (pinned.count(*it) != 0) {
                ++lifecycle.epochs_kept_pinned;
                ++it;
                continue;
            }
            live_bytes -= model.epoch_bytes;
            ++lifecycle.epochs_retired;
            it = live_epoch_set.erase(it);
        }
        // The footprint gate, computed from an independent count of
        // old pinned epochs — a retention bug that leaks epochs shows
        // up as a violation instead of inflating its own bound.
        uint64_t pinned_old = 0;
        for (uint64_t epoch : pinned) {
            if (epoch < retire_below)
                ++pinned_old;
        }
        const uint64_t bound =
            (model.retain_epochs + pinned_old) * model.epoch_bytes;
        if (live_bytes > bound)
            lifecycle.footprint_bounded = false;
    }
    lifecycle.peak_live_epochs =
        std::max(lifecycle.peak_live_epochs,
                 static_cast<uint64_t>(live_epoch_set.size()));
    lifecycle.peak_live_bytes =
        std::max(lifecycle.peak_live_bytes, live_bytes);
}

void
ScenarioState::pinAtJoin(TenantState& tenant)
{
    if (!lifecycleOn() || head_epoch == 0)
        return;
    const uint64_t lag = tenant.spec->pin_lag_epochs;
    const uint64_t desired = head_epoch > lag ? head_epoch - lag : 1;
    // The lagged epoch may already be retired; pin the oldest live
    // epoch at or after it (there is always one: the head is live).
    auto it = live_epoch_set.lower_bound(desired);
    PRESTO_CHECK(it != live_epoch_set.end(),
                 "head epoch must be live at join");
    tenant.pinned_epoch = *it;
}

void
ScenarioState::startSlotGenerator(TenantState& tenant, uint64_t slot)
{
    if (static_cast<double>(slot) >= options->duration_sec)
        return;
    const double slot_start = static_cast<double>(slot);
    for (double offset : slotArrivals(tenant.spec->traffic, options->seed,
                                      tenant.index, slot)) {
        const double when = slot_start + offset;
        if (when < tenant.spec->join_sec || when >= options->duration_sec)
            continue;
        sim.scheduleAt(when, [this, &tenant] { arrive(tenant); });
    }
    sim.scheduleAt(slot_start + 1.0, [this, &tenant, slot] {
        startSlotGenerator(tenant, slot + 1);
    });
}

}  // namespace

ScenarioReport
runServiceScenario(const ScenarioOptions& options,
                   const std::vector<ScenarioTenant>& tenants)
{
    PRESTO_CHECK(options.devices > 0, "scenario needs a fleet");
    PRESTO_CHECK(options.service_sec > 0, "service time must be positive");

    ScenarioState state;
    state.options = &options;
    state.capacity = options.devices;
    state.specs = tenants;
    state.tenants.resize(tenants.size());
    for (size_t i = 0; i < state.specs.size(); ++i) {
        ScenarioTenant& spec = state.specs[i];
        // Derive the diurnal mean from the user population when given.
        if (spec.users > 0) {
            PRESTO_CHECK(spec.samples_per_batch > 0,
                         "samples per batch must be positive");
            const double batches_per_day =
                spec.users * spec.requests_per_user_per_day /
                spec.samples_per_batch;
            spec.traffic.diurnal.mean_batches_per_sec =
                batches_per_day / spec.traffic.diurnal.period_sec;
        }
        // Every flow opens at t = 0 with nothing requested; arrivals
        // raise its limit, and the engine's wake rule re-bases it
        // whenever it resumes (first arrival, arrival after an empty
        // backlog, stall drain).
        state.engine.open(i, spec.weight, spec.queue_capacity, 0);
        TenantState& tenant = state.tenants[i];
        tenant.spec = &spec;
        tenant.index = i;
        tenant.report.name = spec.name;
        tenant.report.queue_capacity = spec.queue_capacity;
    }

    // Epoch publishes run first: at equal times (insertion order) the
    // t = 0 publish precedes every t = 0 join, so a joining tenant
    // always finds a published head to pin.
    if (state.lifecycleOn())
        state.schedulePublish(0.0);

    // Trainer-stall drains: at stall end the trainer catches up and the
    // output queue empties. Scheduled first so a completion landing
    // exactly at stall end is consumed, not queued.
    for (TenantState& tenant : state.tenants) {
        if (tenant.spec->stall_end_sec > tenant.spec->stall_start_sec &&
            tenant.spec->stall_end_sec <= options.duration_sec) {
            state.sim.scheduleAt(tenant.spec->stall_end_sec, [&] {
                state.consume(tenant);
                state.dispatch();
            });
        }
    }

    // Device fail-stops shrink the surviving fleet permanently.
    FaultInjector faults(options.faults);
    for (const FailStop& fail : faults.failStopsByTime()) {
        if (fail.time_sec >= options.duration_sec ||
            fail.device >= options.devices) {
            continue;
        }
        state.sim.scheduleAt(fail.time_sec, [&state, &options, fail] {
            if (state.capacity == 0)
                return;
            --state.capacity;
            ++state.devices_failed;
            state.lost_device_sec +=
                options.duration_sec - fail.time_sec;
        });
    }

    // Tenant joins: admission decision, then traffic. Same-time joins
    // resolve in input order (insertion sequence).
    for (TenantState& tenant : state.tenants) {
        state.sim.scheduleAt(tenant.spec->join_sec, [&state, &tenant] {
            const AdmissionDecision decision = evaluateAdmission(
                state.admittedInputs(),
                inputFor(*tenant.spec, state.options->service_sec),
                static_cast<double>(state.options->devices));
            tenant.report.projected_p99_sec = decision.projected_p99_sec;
            if (!decision.admitted && state.options->admission_control) {
                tenant.report.reject_reason = decision.reason;
                return;
            }
            tenant.report.admitted = true;
            tenant.report.reject_reason.clear();
            state.pinAtJoin(tenant);
            state.startSlotGenerator(
                tenant,
                static_cast<uint64_t>(tenant.spec->join_sec));
        });
    }

    // Run to completion: arrivals stop at duration, then the backlog
    // drains (overload tails show up as latency, never as lost work).
    state.sim.run();

    ScenarioReport report;
    report.duration_sec = options.duration_sec;
    report.devices = options.devices;
    report.devices_failed = state.devices_failed;
    report.capacity_device_sec =
        static_cast<double>(options.devices) * options.duration_sec -
        state.lost_device_sec;
    report.busy_device_sec = state.busy_device_sec;
    report.fleet_utilization =
        report.capacity_device_sec > 0
            ? state.busy_device_sec / report.capacity_device_sec
            : 0.0;
    for (TenantState& tenant : state.tenants) {
        TenantReport& tr = tenant.report;
        const LatencySummary latency = summarize(tenant.latencies);
        tr.mean_latency_sec = latency.mean;
        tr.p99_latency_sec = latency.p99;
        tr.max_latency_sec = latency.max;
        tr.slo_met = tenant.spec->slo_p99_sec <= 0 ||
                     tr.p99_latency_sec <= tenant.spec->slo_p99_sec;
        tr.pinned_epoch = tenant.pinned_epoch;
        tr.max_queue_occupancy =
            state.engine.find(tenant.index)->max_ready;
        report.total_arrivals += tr.arrivals;
        report.total_served += tr.served;
        report.tenants.push_back(std::move(tr));
    }
    if (state.lifecycleOn()) {
        LifecycleReport& lc = state.lifecycle;
        lc.final_live_bytes = state.live_bytes;
        lc.hot_served = state.hot_latencies.size();
        lc.cold_served = state.cold_latencies.size();
        const uint64_t total = lc.hot_served + lc.cold_served;
        lc.hot_hit_rate =
            total > 0 ? static_cast<double>(lc.hot_served) /
                            static_cast<double>(total)
                      : 0.0;
        lc.mean_hot_latency_sec = summarize(state.hot_latencies).mean;
        const LatencySummary cold = summarize(state.cold_latencies);
        lc.mean_cold_latency_sec = cold.mean;
        lc.p99_cold_latency_sec = cold.p99;
        report.lifecycle = lc;
    }
    return report;
}

}  // namespace presto
