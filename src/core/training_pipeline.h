/**
 * @file
 * Discrete-event simulation of the end-to-end RecSys training pipeline
 * (Figure 9): preprocessing workers produce mini-batches into the train
 * manager's bounded input queue; the GPU training worker consumes them.
 *
 * This is where Figure 3's GPU utilization and the throughput numbers of
 * Figure 11 come from: when the aggregate preprocessing throughput falls
 * short of the GPU's demand, the queue runs dry and the GPU idles.
 *
 * A FaultSpec turns on degraded-mode simulation: workers can fail-stop
 * mid-run (surviving workers keep producing while the queue drains and
 * GPU utilization dips), straggle at a slowdown factor, suffer
 * transient partition-read errors retried with exponential backoff, or
 * deliver corrupt partitions that cost a re-fetch. All fault effects
 * are deterministic given the spec's seed, and a default FaultSpec
 * reproduces the fault-free simulation bit for bit.
 */
#ifndef PRESTO_CORE_TRAINING_PIPELINE_H_
#define PRESTO_CORE_TRAINING_PIPELINE_H_

#include <string>

#include "common/fault_injector.h"
#include "datagen/rm_config.h"
#include "models/isp_model.h"

namespace presto {

/** Which device executes the preprocessing workers. */
enum class PreprocBackend {
    kColocatedCpu,  ///< training-node cores, local storage reads
    kDisaggCpu,     ///< disaggregated pool cores, remote Extract
    kIsp,           ///< accelerator devices (SmartSSD / U280 builds)
};

/** Pipeline simulation knobs. */
struct PipelineOptions {
    PreprocBackend backend = PreprocBackend::kDisaggCpu;
    int num_workers = 1;          ///< CPU cores or ISP devices
    int num_gpus = 1;             ///< training consumers
    size_t queue_capacity = 32;   ///< train-manager input queue depth
    size_t batches_to_train = 512;///< simulation length
    IspParams isp_params;         ///< used when backend == kIsp
    FaultSpec faults;             ///< default: no faults injected
};

/** Fault-handling activity observed during one pipeline simulation. */
struct PipelineDegradation {
    size_t workers_failed = 0;      ///< fail-stops + exhausted retries
    size_t straggler_workers = 0;   ///< workers running slowed down
    int surviving_workers = 0;      ///< producers alive at sim end
    uint64_t transient_read_errors = 0;  ///< injected read failures
    uint64_t read_retries = 0;           ///< backoff retries executed
    double retry_backoff_seconds = 0;    ///< total time spent backing off
    uint64_t corrupt_batches_refetched = 0;  ///< CRC-failed partitions
    double refetch_seconds = 0;     ///< time spent re-fetching partitions
    double gpu_idle_seconds = 0;    ///< aggregate GPU starvation time
    /** True when producers died before batches_to_train completed. */
    bool starved = false;
};

/** Measured outcome of one pipeline simulation. */
struct PipelineResult {
    double sim_seconds = 0;
    size_t batches_trained = 0;
    double train_throughput = 0;      ///< batches/sec actually trained
    double preproc_throughput = 0;    ///< batches/sec produced
    double gpu_utilization = 0;       ///< busy fraction of the GPU(s)
    double gpu_max_throughput = 0;    ///< demand line (dotted in Fig 3)
    size_t max_stalled_producers = 0; ///< backpressure high-water mark
    /** Fault counters are all zero in fault-free runs (idle time and
     *  surviving_workers are reported either way). */
    PipelineDegradation degradation;
};

/**
 * Runs the producer-consumer pipeline simulation for one workload.
 */
class TrainingPipeline
{
  public:
    TrainingPipeline(const RmConfig& config, PipelineOptions options);

    /**
     * Simulate until batches_to_train are consumed — or, under injected
     * faults, until every producer has failed and the queue is dry
     * (degradation.starved is then set and batches_trained reports the
     * partial progress). Deterministic.
     */
    PipelineResult run() const;

    /** Per-worker batch production period for the configured backend. */
    double workerPeriodSeconds() const;

  private:
    RmConfig config_;
    PipelineOptions options_;
};

}  // namespace presto

#endif  // PRESTO_CORE_TRAINING_PIPELINE_H_
