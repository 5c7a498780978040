/**
 * @file
 * Tests for the elastic ISP-device pool scheduler.
 */
#include <gtest/gtest.h>

#include "common/fault_injector.h"
#include "core/pool_scheduler.h"
#include "core/provisioner.h"

namespace presto {
namespace {

PoolJob
job(double arrival, double duration, int rm = 1, int gpus = 8)
{
    PoolJob j;
    j.arrival_sec = arrival;
    j.duration_sec = duration;
    j.rm_id = rm;
    j.num_gpus = gpus;
    return j;
}

TEST(PoolSchedulerTest, DevicesMatchProvisioner)
{
    PoolScheduler pool(64);
    for (int rm = 1; rm <= 5; ++rm) {
        Provisioner prov(rmConfig(rm));
        EXPECT_EQ(pool.devicesForJob(job(0, 1, rm, 8)),
                  prov.provisionIsp(8, IspParams::smartSsd()).workers);
    }
}

TEST(PoolSchedulerTest, AmpleCapacityMeansNoWaiting)
{
    PoolScheduler pool(64);
    const PoolResult r =
        pool.run({job(0, 100, 5), job(10, 100, 5), job(20, 100, 1)});
    for (const auto& jr : r.jobs) {
        EXPECT_GT(jr.devices, 0);
        EXPECT_DOUBLE_EQ(jr.waitSec(), 0.0);
    }
    EXPECT_DOUBLE_EQ(r.mean_wait_sec, 0.0);
}

TEST(PoolSchedulerTest, ContentionQueuesFcfs)
{
    // RM5 jobs need ~8 devices each; a pool of 8 serializes them.
    PoolScheduler pool(8);
    const PoolResult r =
        pool.run({job(0, 100, 5), job(1, 100, 5), job(2, 100, 5)});
    EXPECT_DOUBLE_EQ(r.jobs[0].start_sec, 0.0);
    EXPECT_DOUBLE_EQ(r.jobs[1].start_sec, 100.0);
    EXPECT_DOUBLE_EQ(r.jobs[2].start_sec, 200.0);
    EXPECT_DOUBLE_EQ(r.makespan_sec, 300.0);
    EXPECT_GT(r.mean_wait_sec, 0.0);
}

TEST(PoolSchedulerTest, PeakUsageNeverExceedsPool)
{
    PoolScheduler pool(12);
    std::vector<PoolJob> jobs;
    for (int i = 0; i < 10; ++i)
        jobs.push_back(job(i * 5.0, 50.0, (i % 5) + 1));
    const PoolResult r = pool.run(jobs);
    EXPECT_LE(r.peak_devices_in_use, 12);
    EXPECT_GT(r.peak_devices_in_use, 0);
    EXPECT_LE(r.utilization(12), 1.0);
}

TEST(PoolSchedulerTest, OversizedJobIsRejected)
{
    PoolScheduler pool(2);
    const PoolResult r = pool.run({job(0, 100, 5, 64), job(0, 10, 1, 1)});
    EXPECT_EQ(r.jobs[0].devices, 0);  // needs far more than 2 devices
    EXPECT_TRUE(r.jobs[0].rejected);
    EXPECT_NE(r.jobs[0].reject_reason.find("exceeds pool"),
              std::string::npos);
    EXPECT_GT(r.jobs[1].devices, 0);  // small job still runs
    EXPECT_FALSE(r.jobs[1].rejected);
    EXPECT_TRUE(r.jobs[1].reject_reason.empty());
    EXPECT_DOUBLE_EQ(r.jobs[1].waitSec(), 0.0);
}

TEST(PoolSchedulerTest, DeviceHoursAccounting)
{
    PoolScheduler pool(32);
    const PoolResult r = pool.run({job(0, 10, 5)});
    const int devices = pool.devicesForJob(job(0, 10, 5));
    EXPECT_DOUBLE_EQ(r.device_busy_sec, 10.0 * devices);
    EXPECT_DOUBLE_EQ(r.makespan_sec, 10.0);
    EXPECT_NEAR(r.utilization(32),
                10.0 * devices / (10.0 * 32), 1e-12);
}

TEST(PoolSchedulerTest, SmallJobsShareThePoolConcurrently)
{
    // Two RM1 jobs (2 devices each) overlap in a 4-device pool.
    PoolScheduler pool(4);
    const PoolResult r = pool.run({job(0, 100, 1), job(0, 100, 1)});
    EXPECT_DOUBLE_EQ(r.jobs[0].waitSec(), 0.0);
    EXPECT_DOUBLE_EQ(r.jobs[1].waitSec(), 0.0);
    EXPECT_EQ(r.peak_devices_in_use, 4);
    EXPECT_DOUBLE_EQ(r.makespan_sec, 100.0);
}

TEST(PoolSchedulerTest, FcfsHeadOfLineBlocksBackfill)
{
    // devices: RM1 -> 2, RM5 -> 8. Pool 8: job0 (RM1) runs; job1 (RM5)
    // cannot fit alongside and blocks job2 (RM1) behind it even though
    // job2 would fit — strict FCFS, no backfilling.
    PoolScheduler pool(8);
    const PoolResult r = pool.run(
        {job(0, 100, 1), job(1, 100, 5), job(2, 10, 1)});
    EXPECT_DOUBLE_EQ(r.jobs[0].start_sec, 0.0);
    EXPECT_DOUBLE_EQ(r.jobs[1].start_sec, 100.0);
    EXPECT_GE(r.jobs[2].start_sec, r.jobs[1].start_sec);
}

TEST(PoolSchedulerTest, DeterministicAcrossRuns)
{
    PoolScheduler pool(16);
    std::vector<PoolJob> jobs;
    for (int i = 0; i < 20; ++i)
        jobs.push_back(job(i * 3.0, 40.0 + i, (i % 5) + 1));
    const PoolResult a = pool.run(jobs);
    const PoolResult b = pool.run(jobs);
    ASSERT_EQ(a.jobs.size(), b.jobs.size());
    for (size_t i = 0; i < a.jobs.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.jobs[i].start_sec, b.jobs[i].start_sec);
        EXPECT_DOUBLE_EQ(a.jobs[i].finish_sec, b.jobs[i].finish_sec);
    }
}

TEST(PoolSchedulerTest, RejectKindsAreTagged)
{
    PoolScheduler pool(2);
    const PoolResult r = pool.run({job(0, 100, 5, 64), job(0, 10, 1, 1)});
    EXPECT_EQ(r.jobs[0].reject_kind, RejectKind::kDemandExceedsPool);
    EXPECT_EQ(r.jobs[1].reject_kind, RejectKind::kNone);
    EXPECT_STREQ(rejectKindName(r.jobs[0].reject_kind),
                 "demand_exceeds_pool");
    EXPECT_STREQ(rejectKindName(RejectKind::kCapacityLost),
                 "capacity_lost");
    EXPECT_STREQ(rejectKindName(RejectKind::kNone), "none");
}

TEST(PoolSchedulerTest, ReplacementRequestsAreCounted)
{
    // One RM5 job holds all 8 devices; two busy-device failures each
    // queue a replacement request that can never be granted before the
    // job ends.
    PoolScheduler pool(8);
    FaultSpec spec;
    spec.fail_stops = {{0, 10.0}, {1, 20.0}};
    const FaultInjector faults(spec);
    const PoolResult r = pool.run({job(0, 100, 5)}, faults);

    EXPECT_EQ(r.devices_failed, 2);
    EXPECT_EQ(r.replacements_requested, 2);
    EXPECT_EQ(r.replacements_granted, 0);
    EXPECT_EQ(r.jobs[0].devices_lost, 2);

    // With a spare device idle, the first failure is absorbed silently
    // and no replacement is requested for it.
    PoolScheduler roomy(9);
    FaultSpec one;
    one.fail_stops = {{0, 10.0}};
    const PoolResult absorbed = roomy.run({job(0, 100, 5)},
                                          FaultInjector(one));
    EXPECT_EQ(absorbed.devices_failed, 1);
    EXPECT_EQ(absorbed.replacements_requested, 0);
}

TEST(PoolSchedulerTest, StarvedJobTaggedCapacityLost)
{
    // The RM5 job runs on all 8 devices and loses one permanently; the
    // follower needs 8 devices but only 7 survive the trace.
    PoolScheduler pool(8);
    FaultSpec spec;
    spec.fail_stops = {{0, 10.0}};
    const FaultInjector faults(spec);
    const PoolResult r =
        pool.run({job(0, 100, 5), job(5, 10, 5)}, faults);

    EXPECT_FALSE(r.jobs[0].rejected);
    EXPECT_TRUE(r.jobs[1].rejected);
    EXPECT_EQ(r.jobs[1].reject_kind, RejectKind::kCapacityLost);
    EXPECT_NE(r.jobs[1].reject_reason.find("capacity lost"),
              std::string::npos);
}

TEST(PoolSchedulerDeathTest, BadInputsPanic)
{
    EXPECT_DEATH(PoolScheduler(0), "at least one device");
    PoolScheduler pool(4);
    EXPECT_DEATH(pool.run({job(0, 0, 1)}), "positive");
}

}  // namespace
}  // namespace presto
