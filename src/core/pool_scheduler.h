/**
 * @file
 * Elastic ISP-device pool scheduling.
 *
 * The disaggregated-CPU baseline's key operational property is elastic,
 * on-demand allocation of preprocessing capacity per training job
 * (Section II-D). PreSto keeps that property at device granularity: a
 * storage cluster exposes its SmartSSDs as a pool, and each arriving
 * training job is allocated ceil(T/P) devices for its lifetime.
 *
 * This module simulates such a pool under a deterministic job trace:
 * FCFS admission, per-job device counts from the Provisioner, and
 * device-hour accounting. A FaultInjector can remove devices mid-run
 * (fail-stop); the scheduler is then failure-aware: a running job that
 * loses a device gets replacement capacity from the free pool as soon
 * as any is available (replacements outrank new admissions), and the
 * result reports re-provisioning latency and capacity-loss seconds —
 * the operational cost of a small pool where each device is a large
 * fraction of a job's preprocessing throughput.
 */
#ifndef PRESTO_CORE_POOL_SCHEDULER_H_
#define PRESTO_CORE_POOL_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "datagen/rm_config.h"
#include "models/isp_model.h"

namespace presto {

/** One training job in the trace. */
struct PoolJob {
    double arrival_sec = 0;
    double duration_sec = 0;  ///< training time once running
    int rm_id = 1;
    int num_gpus = 8;
};

/** Why a job was rejected (machine-readable form of reject_reason). */
enum class RejectKind {
    kNone = 0,            ///< not rejected
    kDemandExceedsPool,   ///< can never fit in this pool
    kCapacityLost,        ///< starved by fail-stop capacity loss
};

/** Short stable label of a RejectKind ("none", "demand", ...). */
const char* rejectKindName(RejectKind kind);

/** Per-job outcome. */
struct PoolJobResult {
    size_t job_index = 0;
    int devices = 0;
    double arrival_sec = 0;
    double start_sec = 0;  ///< admission time (>= arrival under queueing)
    double finish_sec = 0;
    bool rejected = false;        ///< never admitted (devices == 0)
    std::string reject_reason;    ///< empty unless rejected
    RejectKind reject_kind = RejectKind::kNone;

    int devices_lost = 0;  ///< fail-stops that hit this job's allocation
    /** Summed wait from each device loss to its replacement grant. */
    double reprovision_latency_sec = 0;
    /** Device-seconds the job ran below its provisioned allocation. */
    double capacity_loss_device_sec = 0;

    double waitSec() const { return start_sec - arrival_sec; }
};

/** Aggregate outcome of one pool simulation. */
struct PoolResult {
    std::vector<PoolJobResult> jobs;
    double makespan_sec = 0;        ///< last finish time
    double device_busy_sec = 0;     ///< sum of device x busy seconds
    int peak_devices_in_use = 0;
    double mean_wait_sec = 0;

    int devices_failed = 0;          ///< fail-stops that removed a device
    int replacements_requested = 0;  ///< device losses that hit a running job
    int replacements_granted = 0;    ///< lost devices re-provisioned
    double mean_reprovision_latency_sec = 0;
    /** Total device-seconds jobs ran short of their allocation. */
    double capacity_loss_device_sec = 0;

    /** Pool-wide device utilization over the makespan. */
    double utilization(int pool_size) const;
};

/**
 * FCFS elastic pool simulator for one accelerator build.
 */
class PoolScheduler
{
  public:
    /**
     * @param pool_size Devices in the storage cluster.
     * @param params Accelerator build (sets per-device throughput).
     */
    PoolScheduler(int pool_size, IspParams params = IspParams::smartSsd());

    /** Devices the T/P rule assigns to one job. */
    int devicesForJob(const PoolJob& job) const;

    /**
     * Simulate a trace. Jobs are admitted FCFS; a job whose device
     * demand exceeds the whole pool is rejected (devices = 0 and the
     * `rejected` flag set in the result). Deterministic.
     */
    PoolResult run(std::vector<PoolJob> jobs) const;

    /**
     * Simulate a trace under injected device fail-stops. The fault
     * timeline comes from @p faults (FaultSpec::fail_stops; device ids
     * are ignored — the pool treats devices as fungible). Deterministic:
     * the same seed and spec reproduce the result byte for byte, and a
     * no-fault injector reproduces run(jobs) exactly.
     */
    PoolResult run(std::vector<PoolJob> jobs,
                   const FaultInjector& faults) const;

    int poolSize() const { return pool_size_; }

  private:
    PoolResult runImpl(std::vector<PoolJob> jobs,
                       const FaultInjector* faults) const;

    int pool_size_;
    IspParams params_;
};

}  // namespace presto

#endif  // PRESTO_CORE_POOL_SCHEDULER_H_
