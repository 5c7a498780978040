/**
 * @file
 * Fault-tolerance degradation curves, emitted as JSON.
 *
 * Sweeps an injected failure rate and reports, for RM1 on both the
 * disaggregated-CPU baseline and the PreSto ISP backend:
 *   - end-to-end training throughput of the degraded pipeline,
 *   - GPU utilization (the dip is the cost of lost preprocessing),
 *   - retry/backoff activity from rate-scaled transient read errors,
 * plus failure-aware pool-scheduler metrics (re-provisioning latency
 * and capacity-loss device-seconds) for a SmartSSD pool losing the
 * same fraction of its devices. Everything is deterministic: the same
 * binary prints the same bytes on every run.
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/pool_scheduler.h"
#include "core/provisioner.h"
#include "core/training_pipeline.h"

using namespace presto;

namespace {

constexpr int kNumGpus = 8;
constexpr size_t kBatches = 4096;
constexpr double kRates[] = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5};

/** Fault spec for one sweep point: kill a fraction of the workers
 *  (staggered across the first half of the healthy runtime) and scale
 *  transient read errors with the same rate. */
FaultSpec
specForRate(double rate, int workers, double healthy_seconds)
{
    FaultSpec spec;
    const int to_fail =
        static_cast<int>(std::floor(rate * workers + 0.5));
    for (int i = 0; i < to_fail; ++i) {
        const double when = healthy_seconds * 0.5 *
                            (static_cast<double>(i) + 1.0) /
                            (static_cast<double>(to_fail) + 1.0);
        spec.fail_stops.push_back({i, when});
    }
    spec.transient_read_error_prob = 0.2 * rate;
    return spec;
}

void
emitPipelineCurve(const RmConfig& cfg, PreprocBackend backend,
                  const char* name, int workers, bool trailing_comma)
{
    PipelineOptions opt;
    opt.backend = backend;
    opt.isp_params = IspParams::smartSsd();
    opt.num_workers = workers;
    opt.num_gpus = kNumGpus;
    opt.batches_to_train = kBatches;
    const PipelineResult healthy = TrainingPipeline(cfg, opt).run();

    std::printf("    {\n"
                "      \"backend\": \"%s\",\n"
                "      \"provisioned_workers\": %d,\n"
                "      \"curve\": [\n",
                name, workers);
    for (size_t i = 0; i < std::size(kRates); ++i) {
        const double rate = kRates[i];
        opt.faults = specForRate(rate, workers, healthy.sim_seconds);
        const PipelineResult r = TrainingPipeline(cfg, opt).run();
        const auto& d = r.degradation;
        std::printf(
            "        {\"failure_rate\": %.2f, "
            "\"workers_failed\": %zu, "
            "\"surviving_workers\": %d, "
            "\"batches_trained\": %zu, "
            "\"train_throughput_batches_per_sec\": %.4f, "
            "\"gpu_utilization\": %.4f, "
            "\"gpu_idle_seconds\": %.4f, "
            "\"transient_read_errors\": %llu, "
            "\"retry_backoff_seconds\": %.4f, "
            "\"starved\": %s}%s\n",
            rate, d.workers_failed, d.surviving_workers,
            r.batches_trained, r.train_throughput, r.gpu_utilization,
            d.gpu_idle_seconds,
            static_cast<unsigned long long>(d.transient_read_errors),
            d.retry_backoff_seconds, d.starved ? "true" : "false",
            i + 1 < std::size(kRates) ? "," : "");
    }
    std::printf("      ]\n    }%s\n", trailing_comma ? "," : "");
}

void
emitPoolCurve()
{
    // RM5 jobs (8 SmartSSDs each) tile the 16-device pool exactly: the
    // free pool runs at zero while jobs queue, so every lost device
    // hits a running job's allocation and must wait for re-provisioned
    // capacity instead of being absorbed by idle slack.
    const int pool_size = 16;
    PoolScheduler pool(pool_size);
    std::vector<PoolJob> jobs;
    for (int i = 0; i < 12; ++i) {
        PoolJob job;
        job.arrival_sec = i * 300.0;
        job.duration_sec = 3600.0;
        job.rm_id = 5;
        job.num_gpus = 8;
        jobs.push_back(job);
    }

    std::printf("  \"pool\": {\n"
                "    \"pool_size\": %d,\n"
                "    \"jobs\": %zu,\n"
                "    \"curve\": [\n",
                pool_size, jobs.size());
    for (size_t i = 0; i < std::size(kRates); ++i) {
        const double rate = kRates[i];
        FaultSpec spec;
        const int to_fail =
            static_cast<int>(std::floor(rate * pool_size + 0.5));
        // Spread failures across the busy middle of the trace so they
        // hit allocated devices, not idle slack.
        for (int f = 0; f < to_fail; ++f)
            spec.fail_stops.push_back({f, 2000.0 + 1000.0 * f});
        const FaultInjector faults(spec);
        const PoolResult r = pool.run(jobs, faults);
        // Split rejects by machine-readable kind so the curves
        // distinguish admission-time rejects from fault evictions.
        int rejected = 0;
        int rejected_demand = 0;
        int rejected_capacity_lost = 0;
        for (const auto& jr : r.jobs) {
            if (!jr.rejected)
                continue;
            ++rejected;
            switch (jr.reject_kind) {
            case RejectKind::kDemandExceedsPool:
                ++rejected_demand;
                break;
            case RejectKind::kCapacityLost:
                ++rejected_capacity_lost;
                break;
            case RejectKind::kNone:
                break;
            }
        }
        std::printf(
            "      {\"failure_rate\": %.2f, "
            "\"devices_failed\": %d, "
            "\"replacements_requested\": %d, "
            "\"replacements_granted\": %d, "
            "\"mean_reprovision_latency_sec\": %.4f, "
            "\"capacity_loss_device_sec\": %.4f, "
            "\"rejected_jobs\": %d, "
            "\"rejects_by_reason\": {\"%s\": %d, \"%s\": %d}, "
            "\"mean_wait_sec\": %.4f}%s\n",
            rate, r.devices_failed, r.replacements_requested,
            r.replacements_granted, r.mean_reprovision_latency_sec,
            r.capacity_loss_device_sec, rejected,
            rejectKindName(RejectKind::kDemandExceedsPool), rejected_demand,
            rejectKindName(RejectKind::kCapacityLost), rejected_capacity_lost,
            r.mean_wait_sec,
            i + 1 < std::size(kRates) ? "," : "");
    }
    std::printf("    ]\n  }\n");
}

}  // namespace

int
main()
{
    const RmConfig cfg = rmConfig(1);
    Provisioner prov(cfg);
    const int cpu_workers = prov.provisionCpu(kNumGpus).workers;
    const int isp_workers =
        prov.provisionIsp(kNumGpus, IspParams::smartSsd()).workers;

    std::printf("{\n"
                "  \"workload\": \"%s\",\n"
                "  \"num_gpus\": %d,\n"
                "  \"batches\": %zu,\n"
                "  \"backends\": [\n",
                cfg.name.c_str(), kNumGpus, kBatches);
    emitPipelineCurve(cfg, PreprocBackend::kDisaggCpu, "disagg_cpu",
                      cpu_workers, /*trailing_comma=*/true);
    emitPipelineCurve(cfg, PreprocBackend::kIsp, "isp", isp_workers,
                      /*trailing_comma=*/false);
    std::printf("  ],\n");
    emitPoolCurve();
    std::printf("}\n");
    return 0;
}
