#include "core/pool_scheduler.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "common/logging.h"
#include "core/provisioner.h"
#include "sim/simulator.h"

namespace presto {

const char*
rejectKindName(RejectKind kind)
{
    switch (kind) {
    case RejectKind::kNone:
        return "none";
    case RejectKind::kDemandExceedsPool:
        return "demand_exceeds_pool";
    case RejectKind::kCapacityLost:
        return "capacity_lost";
    }
    return "unknown";
}

double
PoolResult::utilization(int pool_size) const
{
    if (makespan_sec <= 0 || pool_size <= 0)
        return 0.0;
    return device_busy_sec / (makespan_sec * pool_size);
}

PoolScheduler::PoolScheduler(int pool_size, IspParams params)
    : pool_size_(pool_size), params_(std::move(params))
{
    PRESTO_CHECK(pool_size_ >= 1, "pool needs at least one device");
}

int
PoolScheduler::devicesForJob(const PoolJob& job) const
{
    Provisioner prov(rmConfig(job.rm_id));
    return prov.provisionIsp(job.num_gpus, params_).workers;
}

PoolResult
PoolScheduler::run(std::vector<PoolJob> jobs) const
{
    return runImpl(std::move(jobs), nullptr);
}

PoolResult
PoolScheduler::run(std::vector<PoolJob> jobs,
                   const FaultInjector& faults) const
{
    return runImpl(std::move(jobs), faults.enabled() ? &faults : nullptr);
}

PoolResult
PoolScheduler::runImpl(std::vector<PoolJob> jobs,
                       const FaultInjector* faults) const
{
    // Stable arrival order (FCFS admission by arrival time, then index).
    std::vector<size_t> order(jobs.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         return jobs[a].arrival_sec < jobs[b].arrival_sec;
                     });

    PoolResult result;
    result.jobs.resize(jobs.size());

    Simulator sim;
    int free_devices = pool_size_;
    int in_use = 0;
    std::deque<size_t> admission_queue;  // job indices waiting FCFS
    std::vector<int> alloc(jobs.size(), 0);    // devices currently held
    std::vector<char> running(jobs.size(), 0);

    // Capacity a running job lost to a fail-stop and is waiting to get
    // back. Served FIFO, ahead of new admissions.
    struct Replacement {
        size_t job;
        double fail_time;
    };
    std::deque<Replacement> replacement_queue;

    // Admit from the head of the queue while capacity allows. FCFS:
    // a large job at the head blocks smaller jobs behind it (no
    // backfilling), keeping admission order deterministic and fair.
    // Replacement requests outrank new admissions: restoring a running
    // job's lost throughput beats starting more underfed work.
    std::function<void()> tryAdmit = [&] {
        while (!replacement_queue.empty() && free_devices > 0) {
            const Replacement repl = replacement_queue.front();
            replacement_queue.pop_front();
            if (!running[repl.job])
                continue;  // job finished while degraded
            --free_devices;
            ++in_use;
            ++alloc[repl.job];
            result.peak_devices_in_use =
                std::max(result.peak_devices_in_use, in_use);
            const double latency = sim.now() - repl.fail_time;
            result.jobs[repl.job].reprovision_latency_sec += latency;
            result.jobs[repl.job].capacity_loss_device_sec += latency;
            result.capacity_loss_device_sec += latency;
            ++result.replacements_granted;
            result.mean_reprovision_latency_sec += latency;  // sum; div later
        }
        while (!admission_queue.empty()) {
            const size_t idx = admission_queue.front();
            const int need = result.jobs[idx].devices;
            if (need > free_devices)
                return;
            admission_queue.pop_front();
            free_devices -= need;
            in_use += need;
            alloc[idx] = need;
            running[idx] = 1;
            result.peak_devices_in_use =
                std::max(result.peak_devices_in_use, in_use);

            PoolJobResult& job_result = result.jobs[idx];
            job_result.start_sec = sim.now();
            const double duration = jobs[idx].duration_sec;
            job_result.finish_sec = sim.now() + duration;
            result.device_busy_sec += duration * need;
            sim.schedule(duration, [&, idx] {
                // Release whatever the job currently holds (it may have
                // shrunk under failures or been restored since).
                free_devices += alloc[idx];
                in_use -= alloc[idx];
                alloc[idx] = 0;
                running[idx] = 0;
                // Un-replaced losses stay degraded to the end: account
                // the capacity hole up to the finish time.
                for (auto it = replacement_queue.begin();
                     it != replacement_queue.end();) {
                    if (it->job == idx) {
                        const double loss = sim.now() - it->fail_time;
                        result.jobs[idx].capacity_loss_device_sec += loss;
                        result.capacity_loss_device_sec += loss;
                        it = replacement_queue.erase(it);
                    } else {
                        ++it;
                    }
                }
                result.makespan_sec =
                    std::max(result.makespan_sec, sim.now());
                tryAdmit();
            });
        }
    };

    for (size_t idx : order) {
        const PoolJob& job = jobs[idx];
        PRESTO_CHECK(job.arrival_sec >= 0 && job.duration_sec > 0,
                     "job times must be positive");
        PoolJobResult& job_result = result.jobs[idx];
        job_result.job_index = idx;
        job_result.arrival_sec = job.arrival_sec;
        job_result.devices = devicesForJob(job);
        if (job_result.devices > pool_size_) {
            // Cannot ever fit: reject.
            job_result.reject_reason =
                "demand of " + std::to_string(job_result.devices) +
                " devices exceeds pool of " + std::to_string(pool_size_);
            job_result.reject_kind = RejectKind::kDemandExceedsPool;
            job_result.devices = 0;
            job_result.rejected = true;
            job_result.start_sec = job_result.finish_sec = job.arrival_sec;
            continue;
        }
        sim.scheduleAt(job.arrival_sec, [&, idx] {
            admission_queue.push_back(idx);
            tryAdmit();
        });
    }

    // Device fail-stops: each removes one device from the pool for good.
    // An idle device absorbs the failure silently; otherwise the running
    // job with the largest allocation (ties: lowest index) loses one
    // device and queues a replacement request.
    if (faults != nullptr) {
        for (const FailStop& fs : faults->failStopsByTime()) {
            sim.scheduleAt(fs.time_sec, [&] {
                if (free_devices > 0) {
                    --free_devices;
                    ++result.devices_failed;
                    return;
                }
                size_t victim = jobs.size();
                for (size_t j = 0; j < jobs.size(); ++j) {
                    if (!running[j])
                        continue;
                    if (victim == jobs.size() ||
                        alloc[j] > alloc[victim])
                        victim = j;
                }
                if (victim == jobs.size() || alloc[victim] == 0)
                    return;  // every device already failed
                --alloc[victim];
                --in_use;
                ++result.devices_failed;
                ++result.jobs[victim].devices_lost;
                ++result.replacements_requested;
                replacement_queue.push_back(Replacement{victim, sim.now()});
            });
        }
    }

    sim.run();

    // Jobs still queued when the trace drains were starved by capacity
    // lost to failures (or head-of-line blocking behind such a job).
    for (const size_t idx : admission_queue) {
        PoolJobResult& job_result = result.jobs[idx];
        job_result.devices = 0;
        job_result.rejected = true;
        job_result.reject_reason =
            "pool capacity lost to device failures before admission";
        job_result.reject_kind = RejectKind::kCapacityLost;
        job_result.start_sec = job_result.finish_sec =
            job_result.arrival_sec;
    }

    double wait_sum = 0;
    size_t admitted = 0;
    for (const auto& job_result : result.jobs) {
        if (job_result.devices == 0)
            continue;
        wait_sum += job_result.waitSec();
        ++admitted;
    }
    result.mean_wait_sec = admitted ? wait_sum / admitted : 0.0;
    if (result.replacements_granted > 0)
        result.mean_reprovision_latency_sec /= result.replacements_granted;
    return result;
}

}  // namespace presto
