/**
 * @file
 * Tests for the fault-injection layer: deterministic fault draws,
 * failure-aware pool scheduling, degraded pipeline simulation, and the
 * functional fetch-retry/corruption-recovery path, including the
 * PartitionProducer contract.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/fault_injector.h"
#include "core/managers.h"
#include "core/partition_producer.h"
#include "core/partition_store.h"
#include "core/pool_scheduler.h"
#include "core/provisioner.h"
#include "core/training_pipeline.h"
#include "datagen/generator.h"
#include "io/io_ring.h"

namespace presto {
namespace {

// --- FaultInjector ----------------------------------------------------------

TEST(FaultInjectorTest, DefaultSpecInjectsNothing)
{
    const FaultInjector injector{FaultSpec{}};
    EXPECT_FALSE(injector.enabled());
    EXPECT_FALSE(injector.spec().anyFaults());
    EXPECT_FALSE(injector.failStopTime(0).has_value());
    EXPECT_DOUBLE_EQ(injector.slowdownFactor(3), 1.0);
    EXPECT_FALSE(injector.transientReadError(0, 0));
    EXPECT_FALSE(injector.corruptionOccurs(0, 0));
}

TEST(FaultInjectorTest, DrawsAreDeterministicAndOrderFree)
{
    FaultSpec spec;
    spec.seed = 42;
    spec.transient_read_error_prob = 0.3;
    spec.corruption_prob = 0.2;
    const FaultInjector a(spec);
    const FaultInjector b(spec);

    // Query b in reverse order: stateless draws must not care.
    std::vector<bool> forward, backward;
    for (uint64_t e = 0; e < 256; ++e)
        forward.push_back(a.transientReadError(7, e));
    for (uint64_t e = 256; e-- > 0;)
        backward.push_back(b.transientReadError(7, e));
    for (size_t i = 0; i < 256; ++i)
        EXPECT_EQ(forward[i], backward[255 - i]) << "event " << i;
}

TEST(FaultInjectorTest, SeedSelectsTheFaultTimeline)
{
    FaultSpec spec;
    spec.transient_read_error_prob = 0.5;
    FaultSpec other = spec;
    other.seed ^= 1;
    const FaultInjector a(spec), b(other);
    int differences = 0;
    for (uint64_t e = 0; e < 512; ++e)
        differences += a.transientReadError(0, e) !=
                       b.transientReadError(0, e);
    EXPECT_GT(differences, 0);
}

TEST(FaultInjectorTest, ErrorRateTracksProbability)
{
    FaultSpec spec;
    spec.transient_read_error_prob = 0.25;
    const FaultInjector injector(spec);
    int hits = 0;
    const int draws = 20000;
    for (int e = 0; e < draws; ++e)
        hits += injector.transientReadError(1, static_cast<uint64_t>(e));
    EXPECT_NEAR(static_cast<double>(hits) / draws, 0.25, 0.02);
}

TEST(FaultInjectorTest, BackoffDoublesPerRetry)
{
    FaultSpec spec;
    spec.retry_backoff_base_sec = 0.010;
    spec.transient_read_error_prob = 0.1;  // enable
    const FaultInjector injector(spec);
    EXPECT_DOUBLE_EQ(injector.retryBackoffSec(0), 0.010);
    EXPECT_DOUBLE_EQ(injector.retryBackoffSec(1), 0.020);
    EXPECT_DOUBLE_EQ(injector.retryBackoffSec(5), 0.320);
}

TEST(FaultInjectorTest, CorruptBytesFlipsExactlyOneBitDeterministically)
{
    FaultSpec spec;
    spec.corruption_prob = 1.0;
    const FaultInjector injector(spec);
    std::vector<uint8_t> original(64, 0xAB);
    std::vector<uint8_t> once = original;
    std::vector<uint8_t> twice = original;
    const auto bit_a = injector.corruptBytes(once, 9, 4);
    const auto bit_b = injector.corruptBytes(twice, 9, 4);
    ASSERT_TRUE(bit_a.has_value());
    EXPECT_EQ(*bit_a, *bit_b);
    EXPECT_EQ(once, twice);
    int differing_bits = 0;
    for (size_t i = 0; i < original.size(); ++i) {
        uint8_t diff = static_cast<uint8_t>(original[i] ^ once[i]);
        while (diff != 0) {
            differing_bits += diff & 1;
            diff >>= 1;
        }
    }
    EXPECT_EQ(differing_bits, 1);

    std::vector<uint8_t> empty;
    EXPECT_FALSE(injector.corruptBytes(empty, 0, 0).has_value());
}

TEST(FaultInjectorTest, FailStopsOrderedByTime)
{
    FaultSpec spec;
    spec.fail_stops = {{3, 9.0}, {1, 2.0}, {2, 2.0}, {1, 5.0}};
    const FaultInjector injector(spec);
    const auto ordered = injector.failStopsByTime();
    ASSERT_EQ(ordered.size(), 4u);
    EXPECT_EQ(ordered[0].device, 1);
    EXPECT_EQ(ordered[1].device, 2);
    EXPECT_DOUBLE_EQ(ordered[2].time_sec, 5.0);
    EXPECT_DOUBLE_EQ(ordered[3].time_sec, 9.0);
    ASSERT_TRUE(injector.failStopTime(1).has_value());
    EXPECT_DOUBLE_EQ(*injector.failStopTime(1), 2.0);  // earliest wins
    EXPECT_DOUBLE_EQ(injector.slowdownFactor(1), 1.0);
}

TEST(FaultInjectorDeathTest, InvalidSpecsPanic)
{
    FaultSpec bad_prob;
    bad_prob.transient_read_error_prob = 1.0;
    EXPECT_DEATH(FaultInjector{bad_prob}, "probability");
    FaultSpec bad_slow;
    bad_slow.stragglers = {{0, 0.5}};
    EXPECT_DEATH(FaultInjector{bad_slow}, "slowdown");
    FaultSpec bad_time;
    bad_time.fail_stops = {{0, -1.0}};
    EXPECT_DEATH(FaultInjector{bad_time}, "fail-stop");
}

// --- PoolScheduler under fail-stops ----------------------------------------

PoolJob
poolJob(double arrival, double duration, int rm = 1, int gpus = 8)
{
    PoolJob j;
    j.arrival_sec = arrival;
    j.duration_sec = duration;
    j.rm_id = rm;
    j.num_gpus = gpus;
    return j;
}

void
expectSamePoolResult(const PoolResult& a, const PoolResult& b)
{
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_EQ(a.jobs[i].devices, b.jobs[i].devices);
        EXPECT_EQ(a.jobs[i].start_sec, b.jobs[i].start_sec);
        EXPECT_EQ(a.jobs[i].finish_sec, b.jobs[i].finish_sec);
        EXPECT_EQ(a.jobs[i].rejected, b.jobs[i].rejected);
        EXPECT_EQ(a.jobs[i].reject_reason, b.jobs[i].reject_reason);
        EXPECT_EQ(a.jobs[i].devices_lost, b.jobs[i].devices_lost);
        EXPECT_EQ(a.jobs[i].reprovision_latency_sec,
                  b.jobs[i].reprovision_latency_sec);
        EXPECT_EQ(a.jobs[i].capacity_loss_device_sec,
                  b.jobs[i].capacity_loss_device_sec);
    }
    EXPECT_EQ(a.makespan_sec, b.makespan_sec);
    EXPECT_EQ(a.device_busy_sec, b.device_busy_sec);
    EXPECT_EQ(a.peak_devices_in_use, b.peak_devices_in_use);
    EXPECT_EQ(a.mean_wait_sec, b.mean_wait_sec);
    EXPECT_EQ(a.devices_failed, b.devices_failed);
    EXPECT_EQ(a.replacements_granted, b.replacements_granted);
    EXPECT_EQ(a.mean_reprovision_latency_sec,
              b.mean_reprovision_latency_sec);
    EXPECT_EQ(a.capacity_loss_device_sec, b.capacity_loss_device_sec);
}

TEST(PoolFaultTest, NoFaultInjectorReproducesPlainRun)
{
    PoolScheduler pool(16);
    std::vector<PoolJob> jobs;
    for (int i = 0; i < 12; ++i)
        jobs.push_back(poolJob(i * 4.0, 30.0 + i, (i % 5) + 1));
    const FaultInjector none{FaultSpec{}};
    expectSamePoolResult(pool.run(jobs), pool.run(jobs, none));
}

TEST(PoolFaultTest, IdleDeviceAbsorbsFailureSilently)
{
    // RM1 on 8 GPUs needs 2 devices; pool of 8 leaves 6 idle.
    PoolScheduler pool(8);
    FaultSpec spec;
    spec.fail_stops = {{0, 5.0}};
    const FaultInjector faults(spec);
    const PoolResult r = pool.run({poolJob(0, 100, 1)}, faults);
    EXPECT_EQ(r.devices_failed, 1);
    EXPECT_EQ(r.jobs[0].devices_lost, 0);
    EXPECT_EQ(r.replacements_granted, 0);
    EXPECT_DOUBLE_EQ(r.jobs[0].finish_sec, 100.0);
}

TEST(PoolFaultTest, RunningJobLosesDeviceAndGetsReplacement)
{
    // Pool 8, both jobs admitted (2 devices each -> 4 free). Fail 5
    // devices so the free pool drains and job 0 loses one; job 1
    // finishing at t=50 frees capacity, granting the replacement.
    PoolScheduler pool(8);
    FaultSpec spec;
    for (int i = 0; i < 5; ++i)
        spec.fail_stops.push_back({i, 10.0});
    const FaultInjector faults(spec);
    const PoolResult r =
        pool.run({poolJob(0, 100, 1), poolJob(0, 50, 1)}, faults);
    EXPECT_EQ(r.devices_failed, 5);
    EXPECT_EQ(r.jobs[0].devices_lost +
                  r.jobs[1].devices_lost, 1);
    EXPECT_EQ(r.replacements_granted, 1);
    // The victim waited from t=10 to t=50 for re-provisioning.
    EXPECT_DOUBLE_EQ(r.mean_reprovision_latency_sec, 40.0);
    EXPECT_DOUBLE_EQ(r.capacity_loss_device_sec, 40.0);
}

TEST(PoolFaultTest, UnreplacedLossIsAccountedToJobFinish)
{
    // Single job on an exactly-sized pool: a failure at t=20 can never
    // be replaced, so the job runs degraded for its remaining 80 s.
    PoolScheduler pool(2);
    FaultSpec spec;
    spec.fail_stops = {{0, 20.0}};
    const FaultInjector faults(spec);
    const PoolResult r = pool.run({poolJob(0, 100, 1)}, faults);
    EXPECT_EQ(r.jobs[0].devices_lost, 1);
    EXPECT_EQ(r.replacements_granted, 0);
    EXPECT_DOUBLE_EQ(r.jobs[0].capacity_loss_device_sec, 80.0);
    EXPECT_DOUBLE_EQ(r.capacity_loss_device_sec, 80.0);
}

TEST(PoolFaultTest, StarvedQueuedJobIsRejectedWithReason)
{
    // Pool 2 fits one RM1 job; failing both devices mid-run leaves the
    // queued second job permanently unadmittable.
    PoolScheduler pool(2);
    FaultSpec spec;
    spec.fail_stops = {{0, 10.0}, {1, 10.0}};
    const FaultInjector faults(spec);
    const PoolResult r =
        pool.run({poolJob(0, 50, 1), poolJob(5, 50, 1)}, faults);
    EXPECT_FALSE(r.jobs[0].rejected);
    EXPECT_TRUE(r.jobs[1].rejected);
    EXPECT_EQ(r.jobs[1].devices, 0);
    EXPECT_NE(r.jobs[1].reject_reason.find("capacity lost"),
              std::string::npos);
}

TEST(PoolFaultTest, DeterministicUnderFaults)
{
    PoolScheduler pool(12);
    std::vector<PoolJob> jobs;
    for (int i = 0; i < 16; ++i)
        jobs.push_back(poolJob(i * 2.0, 25.0 + i, (i % 5) + 1));
    FaultSpec spec;
    spec.fail_stops = {{0, 3.0}, {1, 17.0}, {2, 31.0}, {3, 44.0}};
    const FaultInjector faults(spec);
    expectSamePoolResult(pool.run(jobs, faults), pool.run(jobs, faults));
}

// --- TrainingPipeline degraded mode -----------------------------------------

PipelineOptions
pipelineOptions(int workers = 4, size_t batches = 256)
{
    PipelineOptions opt;
    opt.backend = PreprocBackend::kIsp;
    opt.isp_params = IspParams::smartSsd();
    opt.num_workers = workers;
    opt.num_gpus = 1;
    opt.batches_to_train = batches;
    return opt;
}

void
expectSamePipelineResult(const PipelineResult& a, const PipelineResult& b)
{
    EXPECT_EQ(a.sim_seconds, b.sim_seconds);
    EXPECT_EQ(a.batches_trained, b.batches_trained);
    EXPECT_EQ(a.train_throughput, b.train_throughput);
    EXPECT_EQ(a.preproc_throughput, b.preproc_throughput);
    EXPECT_EQ(a.gpu_utilization, b.gpu_utilization);
    EXPECT_EQ(a.max_stalled_producers, b.max_stalled_producers);
    EXPECT_EQ(a.degradation.workers_failed, b.degradation.workers_failed);
    EXPECT_EQ(a.degradation.straggler_workers,
              b.degradation.straggler_workers);
    EXPECT_EQ(a.degradation.surviving_workers,
              b.degradation.surviving_workers);
    EXPECT_EQ(a.degradation.transient_read_errors,
              b.degradation.transient_read_errors);
    EXPECT_EQ(a.degradation.read_retries, b.degradation.read_retries);
    EXPECT_EQ(a.degradation.retry_backoff_seconds,
              b.degradation.retry_backoff_seconds);
    EXPECT_EQ(a.degradation.corrupt_batches_refetched,
              b.degradation.corrupt_batches_refetched);
    EXPECT_EQ(a.degradation.refetch_seconds,
              b.degradation.refetch_seconds);
    EXPECT_EQ(a.degradation.gpu_idle_seconds,
              b.degradation.gpu_idle_seconds);
    EXPECT_EQ(a.degradation.starved, b.degradation.starved);
}

TEST(PipelineFaultTest, DefaultFaultSpecMatchesFaultFreeRun)
{
    const RmConfig cfg = rmConfig(1);
    const PipelineResult plain =
        TrainingPipeline(cfg, pipelineOptions()).run();
    PipelineOptions opt = pipelineOptions();
    opt.faults = FaultSpec{};  // explicit no-fault spec
    const PipelineResult with_spec = TrainingPipeline(cfg, opt).run();
    expectSamePipelineResult(plain, with_spec);
    EXPECT_EQ(plain.degradation.workers_failed, 0u);
    EXPECT_FALSE(plain.degradation.starved);
    EXPECT_EQ(plain.degradation.surviving_workers, 4);
}

TEST(PipelineFaultTest, FailStopDegradesThroughputButCompletes)
{
    // T/P-exact CPU provisioning: losing one of the ceil(T/P) workers
    // drops aggregate preprocessing below GPU demand, so the failure is
    // visible as a throughput/utilization dip (not masked by headroom).
    const RmConfig cfg = rmConfig(5);
    PipelineOptions opt = pipelineOptions();
    opt.backend = PreprocBackend::kDisaggCpu;
    opt.num_workers = Provisioner(cfg).provisionCpu(1).workers;
    const PipelineResult healthy = TrainingPipeline(cfg, opt).run();

    opt.faults.fail_stops = {{0, healthy.sim_seconds / 4}};
    const PipelineResult degraded = TrainingPipeline(cfg, opt).run();

    EXPECT_EQ(degraded.batches_trained, opt.batches_to_train);
    EXPECT_EQ(degraded.degradation.workers_failed, 1u);
    EXPECT_EQ(degraded.degradation.surviving_workers,
              opt.num_workers - 1);
    EXPECT_FALSE(degraded.degradation.starved);
    EXPECT_LT(degraded.train_throughput, healthy.train_throughput);
    EXPECT_LT(degraded.gpu_utilization, healthy.gpu_utilization);
    EXPECT_GT(degraded.degradation.gpu_idle_seconds,
              healthy.degradation.gpu_idle_seconds);
}

TEST(PipelineFaultTest, AllWorkersDeadStarvesTheRun)
{
    const RmConfig cfg = rmConfig(1);
    PipelineOptions opt = pipelineOptions(2, 100000);
    opt.faults.fail_stops = {{0, 0.5}, {1, 0.5}};
    const PipelineResult r = TrainingPipeline(cfg, opt).run();
    EXPECT_TRUE(r.degradation.starved);
    EXPECT_EQ(r.degradation.surviving_workers, 0);
    EXPECT_LT(r.batches_trained, opt.batches_to_train);
    EXPECT_GT(r.batches_trained, 0u);  // partial progress, not a crash
}

TEST(PipelineFaultTest, StragglerSlowsTheRunDown)
{
    const RmConfig cfg = rmConfig(1);
    const PipelineResult healthy =
        TrainingPipeline(cfg, pipelineOptions()).run();
    PipelineOptions opt = pipelineOptions();
    opt.faults.stragglers = {{0, 4.0}, {1, 4.0}};
    const PipelineResult slowed = TrainingPipeline(cfg, opt).run();
    EXPECT_EQ(slowed.degradation.straggler_workers, 2u);
    EXPECT_GT(slowed.sim_seconds, healthy.sim_seconds);
    EXPECT_LE(slowed.gpu_utilization, healthy.gpu_utilization);
}

TEST(PipelineFaultTest, TransientErrorsAreRetriedWithBackoff)
{
    const RmConfig cfg = rmConfig(1);
    PipelineOptions opt = pipelineOptions();
    opt.faults.transient_read_error_prob = 0.10;
    const PipelineResult r = TrainingPipeline(cfg, opt).run();
    EXPECT_EQ(r.batches_trained, opt.batches_to_train);
    EXPECT_GT(r.degradation.transient_read_errors, 0u);
    EXPECT_GT(r.degradation.read_retries, 0u);
    EXPECT_GT(r.degradation.retry_backoff_seconds, 0.0);
}

TEST(PipelineFaultTest, CorruptBatchesCostARefetch)
{
    const RmConfig cfg = rmConfig(1);
    PipelineOptions opt = pipelineOptions();
    opt.faults.corruption_prob = 0.10;
    const PipelineResult r = TrainingPipeline(cfg, opt).run();
    EXPECT_EQ(r.batches_trained, opt.batches_to_train);
    EXPECT_GT(r.degradation.corrupt_batches_refetched, 0u);
    EXPECT_GT(r.degradation.refetch_seconds, 0.0);
}

TEST(PipelineFaultTest, DeterministicUnderMixedFaults)
{
    const RmConfig cfg = rmConfig(3);
    PipelineOptions opt = pipelineOptions(6, 384);
    opt.faults.fail_stops = {{2, 1.0}};
    opt.faults.stragglers = {{4, 2.0}};
    opt.faults.transient_read_error_prob = 0.05;
    opt.faults.corruption_prob = 0.02;
    const PipelineResult a = TrainingPipeline(cfg, opt).run();
    const PipelineResult b = TrainingPipeline(cfg, opt).run();
    expectSamePipelineResult(a, b);
}

// --- Functional path: PartitionStore + managers -----------------------------

TEST(PartitionStoreFaultTest, FetchMatchesPristineWithoutInjector)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 64;
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    EXPECT_FALSE(store.faultInjectionEnabled());
    const auto fetched = store.fetchPartition(0);
    ASSERT_TRUE(fetched.ok());
    EXPECT_EQ(*fetched, *store.partition(0));
}

TEST(PartitionStoreFaultTest, TransientErrorsAndCorruptionAreKeyedOnAttempt)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 64;
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    FaultSpec spec;
    spec.transient_read_error_prob = 0.5;
    spec.corruption_prob = 0.5;
    const FaultInjector faults(spec);
    store.setFaultInjector(&faults);
    ASSERT_TRUE(store.faultInjectionEnabled());

    int transient = 0, corrupt = 0, clean = 0;
    for (uint64_t attempt = 0; attempt < 64; ++attempt) {
        const auto a = store.fetchPartition(3, attempt);
        const auto b = store.fetchPartition(3, attempt);
        if (!a.ok()) {
            EXPECT_EQ(a.status().code(), StatusCode::kUnavailable);
            EXPECT_FALSE(b.ok());  // same (partition, attempt) -> same draw
            ++transient;
            continue;
        }
        ASSERT_TRUE(b.ok());
        EXPECT_EQ(*a, *b);
        if (*a != *store.partition(3))
            ++corrupt;
        else
            ++clean;
    }
    EXPECT_GT(transient, 0);
    EXPECT_GT(corrupt, 0);
    EXPECT_GT(clean, 0);
    // The cached copy stayed pristine throughout.
    store.setFaultInjector(nullptr);
    EXPECT_EQ(*store.fetchPartition(3), *store.partition(3));
}

TEST(ManagersFaultTest, TrainingRecoversIdenticalDataUnderFaults)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 48;
    RawDataGenerator gen(cfg);
    const size_t batches = 24;

    PartitionStore clean_store(gen);
    TrainManager clean(cfg, clean_store, PreprocessMode::kPreSto);
    (void)clean.train(batches, 2);
    const uint64_t reference = clean.deliveredChecksum();

    PartitionStore faulty_store(gen);
    FaultSpec spec;
    spec.transient_read_error_prob = 0.2;
    spec.corruption_prob = 0.2;
    const FaultInjector faults(spec);
    faulty_store.setFaultInjector(&faults);
    TrainManager manager(cfg, faulty_store, PreprocessMode::kPreSto);
    const RunStats stats = manager.train(batches, 2);

    // Every partition was recovered bit-exactly despite injected faults.
    EXPECT_EQ(manager.deliveredChecksum(), reference);
    EXPECT_EQ(stats.batches_delivered, batches);
    EXPECT_GT(stats.transient_read_errors +
                  stats.corrupt_partition_refetches, 0u);
}

// --- PartitionProducer: the one Extract path --------------------------------

RmConfig
producerConfig()
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 64;
    return cfg;
}

TEST(PartitionProducerTest, FaultyStoreYieldsCleanBatchesAndCountsRetries)
{
    const RmConfig cfg = producerConfig();
    RawDataGenerator gen(cfg);
    PartitionStore clean(gen);
    PartitionStore faulty(gen);
    FaultSpec spec;
    spec.transient_read_error_prob = 0.3;
    spec.corruption_prob = 0.3;
    const FaultInjector faults(spec);
    faulty.setFaultInjector(&faults);

    PartitionProducer reference;
    PartitionProducer producer;
    RowBatch want;
    RowBatch got;  // reused across partitions, like a worker's batch
    uint64_t transient = 0, corrupt = 0;
    for (uint64_t pid = 0; pid < 16; ++pid) {
        ASSERT_TRUE(reference.produce(clean, pid, want).ok());
        EXPECT_EQ(reference.lastStats().attempts, 1u);
        ASSERT_TRUE(producer.produce(faulty, pid, got).ok()) << pid;
        EXPECT_TRUE(got == want) << "partition " << pid;
        const ProduceStats& st = producer.lastStats();
        EXPECT_EQ(st.attempts, 1 + st.transient_errors + st.corrupt_refetches);
        EXPECT_EQ(st.raw_bytes, reference.lastStats().raw_bytes);
        EXPECT_EQ(st.bytes_touched, reference.lastStats().bytes_touched);
        transient += st.transient_errors;
        corrupt += st.corrupt_refetches;
    }
    EXPECT_GT(transient, 0u);
    EXPECT_GT(corrupt, 0u);
}

TEST(PartitionProducerTest, RingFaultsRecoverToTheBlockingBatches)
{
    const RmConfig cfg = producerConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    FaultSpec spec;
    spec.transient_read_error_prob = 0.2;
    spec.corruption_prob = 0.2;
    const FaultInjector faults(spec);
    IoRingOptions opt;
    opt.faults = &faults;
    IoRing ring(opt);

    PartitionProducer blocking;
    PartitionProducer ringed(nullptr, &ring);
    RowBatch want;
    RowBatch got;
    uint64_t retries = 0;
    for (uint64_t pid = 0; pid < 8; ++pid) {
        ASSERT_TRUE(blocking.produce(store, pid, want).ok());
        ASSERT_TRUE(ringed.produce(store, pid, got).ok()) << pid;
        EXPECT_TRUE(got == want) << "partition " << pid;
        EXPECT_EQ(ringed.lastStats().raw_bytes,
                  blocking.lastStats().raw_bytes);
        retries += ringed.lastStats().transient_errors +
                   ringed.lastStats().corrupt_refetches;
    }
    EXPECT_GT(retries, 0u);
}

TEST(PartitionProducerTest, RetiredPartitionFailsAfterOneAttempt)
{
    const RmConfig cfg = producerConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    FaultSpec spec;
    spec.transient_read_error_prob = 0.5;  // must not trigger a retry
    const FaultInjector faults(spec);
    store.setFaultInjector(&faults);
    ASSERT_TRUE(store.retirePartition(2).ok());

    IoRing ring;
    PartitionProducer blocking;
    PartitionProducer ringed(nullptr, &ring);
    for (PartitionProducer* producer : {&blocking, &ringed}) {
        RowBatch out;
        EXPECT_EQ(producer->produce(store, 2, out).code(),
                  StatusCode::kNotFound);
        EXPECT_EQ(producer->lastStats().attempts, 1u);
        EXPECT_EQ(producer->lastStats().transient_errors, 0u);
    }
}

TEST(PartitionProducerTest, ExhaustedRetryBudgetIsAStatusNotAnAbort)
{
    const RmConfig cfg = producerConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    FaultSpec spec;
    // The injector rejects a probability of exactly 1 (see
    // FaultInjectorDeathTest); the largest one it accepts fails every
    // attempt of this fixed-seed run.
    spec.transient_read_error_prob = std::nextafter(1.0, 0.0);
    const FaultInjector faults(spec);
    store.setFaultInjector(&faults);

    PartitionProducer producer;
    RowBatch out;
    const Status st = producer.produce(store, 0, out);
    EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.toString();
    EXPECT_EQ(producer.lastStats().attempts, kMaxFetchAttempts);
    EXPECT_EQ(producer.lastStats().transient_errors, kMaxFetchAttempts);

    // The same producer serves the next partition once faults clear.
    store.setFaultInjector(nullptr);
    ASSERT_TRUE(producer.produce(store, 0, out).ok());
    EXPECT_EQ(producer.lastStats().attempts, 1u);
}

}  // namespace
}  // namespace presto
