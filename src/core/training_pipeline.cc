#include "core/training_pipeline.h"

#include <functional>
#include <memory>
#include <vector>

#include "common/logging.h"
#include "models/cpu_model.h"
#include "models/gpu_model.h"
#include "sim/sim_queue.h"
#include "sim/simulator.h"
#include "sim/utilization.h"

namespace presto {

TrainingPipeline::TrainingPipeline(const RmConfig& config,
                                   PipelineOptions options)
    : config_(config), options_(std::move(options))
{
    PRESTO_CHECK(options_.num_workers >= 1, "need at least one worker");
    PRESTO_CHECK(options_.num_gpus >= 1, "need at least one GPU");
    PRESTO_CHECK(options_.batches_to_train >= 1, "nothing to simulate");
}

double
TrainingPipeline::workerPeriodSeconds() const
{
    switch (options_.backend) {
      case PreprocBackend::kColocatedCpu:
        return 1.0 / CpuWorkerModel(config_).colocatedThroughputPerCore();
      case PreprocBackend::kDisaggCpu:
        return 1.0 / CpuWorkerModel(config_).throughputPerCore();
      case PreprocBackend::kIsp:
        return 1.0 / IspDeviceModel(options_.isp_params, config_)
                         .throughput();
    }
    PRESTO_PANIC("unknown backend");
}

PipelineResult
TrainingPipeline::run() const
{
    Simulator sim;
    SimQueue<size_t> queue(options_.queue_capacity);
    UtilizationTracker gpu_busy;

    GpuTrainModel gpu(config_);
    const double step_time = 1.0 / gpu.maxThroughput();
    const double worker_period = workerPeriodSeconds();

    const FaultInjector injector(options_.faults);
    const bool faulty = injector.enabled();

    size_t produced = 0;
    size_t trained = 0;
    double end_time = 0.0;
    bool done = false;

    PipelineDegradation deg;
    const size_t workers = static_cast<size_t>(options_.num_workers);
    std::vector<char> dead(workers, 0);
    std::vector<double> slowdown(workers, 1.0);
    std::vector<uint64_t> read_event(workers, 0);
    std::vector<uint64_t> fetch_event(workers, 0);
    if (faulty) {
        for (size_t w = 0; w < workers; ++w) {
            slowdown[w] = injector.slowdownFactor(static_cast<int>(w));
            if (slowdown[w] > 1.0)
                ++deg.straggler_workers;
        }
    }

    // Preprocessing workers: each is an independent produce loop. Worker
    // start offsets are staggered so producers do not fire in lockstep.
    // Under faults, one produced batch costs:
    //   (transient-read backoffs) + period * slowdown + (re-fetch cost)
    // where a CRC-detected corrupt partition is re-fetched and decoded
    // again (one extra slowed period).
    std::function<void(int)> produce = [&](int worker) {
        if (done || dead[static_cast<size_t>(worker)])
            return;
        double delay = worker_period;
        if (faulty) {
            const auto w = static_cast<size_t>(worker);
            delay *= slowdown[w];
            // Extract: the partition read can fail transiently; retry
            // with exponential backoff until the retry budget runs out,
            // at which point the device is declared failed.
            int retry = 0;
            while (injector.transientReadError(
                static_cast<uint64_t>(worker), read_event[w]++)) {
                ++deg.transient_read_errors;
                if (retry >= options_.faults.max_read_retries) {
                    dead[w] = 1;
                    ++deg.workers_failed;
                    return;
                }
                const double backoff = injector.retryBackoffSec(retry);
                delay += backoff;
                deg.retry_backoff_seconds += backoff;
                ++deg.read_retries;
                ++retry;
            }
            // Decode: a bit-flipped partition fails its page CRC after
            // delivery; the fallback re-fetches it from a replica.
            if (injector.corruptionOccurs(static_cast<uint64_t>(worker),
                                          fetch_event[w]++)) {
                const double refetch = worker_period * slowdown[w];
                delay += refetch;
                deg.refetch_seconds += refetch;
                ++deg.corrupt_batches_refetched;
            }
        }
        sim.schedule(delay, [&, worker] {
            if (done || dead[static_cast<size_t>(worker)])
                return;
            queue.push(produced++, [&, worker] {
                // Space acknowledged: immediately begin the next batch.
                produce(worker);
            });
        });
    };

    // GPU training workers: consume, train for step_time, repeat.
    std::function<void(int)> consume = [&](int g) {
        if (done)
            return;
        queue.pop([&, g](size_t) {
            gpu_busy.addBusy(step_time);
            sim.schedule(step_time, [&, g] {
                ++trained;
                if (trained >= options_.batches_to_train) {
                    done = true;
                    end_time = sim.now();
                    return;
                }
                consume(g);
            });
        });
    };

    for (int w = 0; w < options_.num_workers; ++w) {
        const double offset =
            worker_period * static_cast<double>(w) /
            static_cast<double>(options_.num_workers);
        sim.schedule(offset, [&, w] { produce(w); });
    }
    for (int g = 0; g < options_.num_gpus; ++g)
        consume(g);

    // Fail-stop faults: the worker dies at its scheduled time and its
    // in-flight batch is lost; survivors keep feeding the queue.
    if (faulty) {
        for (size_t w = 0; w < workers; ++w) {
            const auto when = injector.failStopTime(static_cast<int>(w));
            if (!when)
                continue;
            sim.scheduleAt(*when, [&, w] {
                if (done || dead[w])
                    return;
                dead[w] = 1;
                ++deg.workers_failed;
            });
        }
    }

    sim.run();
    if (!done) {
        // Only injected faults may leave training unfinished: producers
        // all died and the queue drained. Report the partial run.
        PRESTO_CHECK(faulty, "pipeline deadlocked before training finished");
        end_time = sim.now();
        deg.starved = true;
    }

    PipelineResult r;
    r.sim_seconds = end_time;
    r.batches_trained = trained;
    r.train_throughput =
        end_time > 0 ? static_cast<double>(trained) / end_time : 0.0;
    r.preproc_throughput =
        end_time > 0 ? static_cast<double>(queue.totalPushed()) / end_time
                     : 0.0;
    r.gpu_utilization = gpu_busy.utilization(
        end_time * static_cast<double>(options_.num_gpus));
    r.gpu_max_throughput =
        gpu.maxThroughput() * static_cast<double>(options_.num_gpus);
    r.max_stalled_producers = queue.maxWaitingProducers();
    deg.surviving_workers =
        options_.num_workers - static_cast<int>(deg.workers_failed);
    deg.gpu_idle_seconds =
        end_time * static_cast<double>(options_.num_gpus) -
        gpu_busy.busySeconds();
    if (deg.gpu_idle_seconds < 0)
        deg.gpu_idle_seconds = 0;
    r.degradation = deg;
    return r;
}

}  // namespace presto
