/**
 * @file
 * Fault injection against the async I/O engine: transient errors and
 * timeouts on individual in-flight ring requests (retried inside the
 * ring with backoff), silent bit flips caught by the per-page CRC and
 * answered with single-page re-reads, and retry-budget exhaustion —
 * plus end-to-end recovery through the PreprocessManager.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/crc32.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "core/managers.h"
#include "core/partition_store.h"
#include "datagen/generator.h"
#include "io/async_reader.h"
#include "io/io_ring.h"

namespace presto {
namespace {

/** Submit @p n small reads and drain every completion. */
std::vector<IoCompletion>
runRequests(IoRing& ring, size_t n)
{
    const uint32_t me = ring.registerConsumer();
    std::vector<uint8_t> device(256);
    for (size_t i = 0; i < device.size(); ++i)
        device[i] = static_cast<uint8_t>(i);
    std::vector<std::vector<uint8_t>> dsts(n,
                                           std::vector<uint8_t>(256));
    for (size_t i = 0; i < n; ++i) {
        IoRequest req;
        req.src = device;
        req.dest = dsts[i].data();
        req.offset = i * 256;  // distinct fault identity per request
        req.user_data = i;
        ring.submit(me, req);
    }
    ring.drain();
    std::vector<IoCompletion> got;
    ring.reapCompletions(me, got);
    std::sort(got.begin(), got.end(),
              [](const IoCompletion& a, const IoCompletion& b) {
                  return a.user_data < b.user_data;
              });
    return got;
}

TEST(IoRingFaultTest, TransientErrorsRetryInsideTheRing)
{
    FaultSpec spec;
    spec.transient_read_error_prob = 0.3;
    spec.retry_backoff_base_sec = 1e-6;
    const FaultInjector faults(spec);
    IoRingOptions opt;
    opt.faults = &faults;
    IoRing ring(opt);

    const auto got = runRequests(ring, 128);
    ASSERT_EQ(got.size(), 128u);
    for (const auto& c : got)
        EXPECT_TRUE(c.status.ok()) << c.user_data;

    const IoRingStats stats = ring.statsSnapshot();
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_GT(stats.transient_errors, 0u);
    EXPECT_EQ(stats.retries, stats.transient_errors);
    EXPECT_EQ(stats.timeouts, 0u);
    // A retried request is charged service time per attempt plus the
    // exponential backoff between attempts.
    const double clean = ring.serviceSeconds(256);
    for (const auto& c : got) {
        if (c.retries == 0) {
            EXPECT_DOUBLE_EQ(c.latency_sec, clean);
        } else {
            EXPECT_GT(c.latency_sec, clean * (c.retries + 1));
        }
    }
}

TEST(IoRingFaultTest, TimeoutsAreChargedTheLostCommandWindow)
{
    FaultSpec spec;
    spec.read_timeout_prob = 0.25;
    spec.retry_backoff_base_sec = 1e-6;
    const FaultInjector faults(spec);
    IoRingOptions opt;
    opt.faults = &faults;
    opt.timeout_sec = 0.5;  // much larger than any service time
    IoRing ring(opt);

    const auto got = runRequests(ring, 128);
    const IoRingStats stats = ring.statsSnapshot();
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_GT(stats.timeouts, 0u);
    EXPECT_GE(stats.retries, stats.timeouts);
    for (const auto& c : got) {
        if (c.retries > 0)
            EXPECT_GE(c.latency_sec, opt.timeout_sec);
    }
}

TEST(IoRingFaultTest, RetryBudgetExhaustionFailsWithUnavailable)
{
    FaultSpec spec;
    spec.transient_read_error_prob = 0.9;
    spec.max_read_retries = 1;
    spec.retry_backoff_base_sec = 1e-6;
    const FaultInjector faults(spec);
    IoRingOptions opt;
    opt.faults = &faults;
    IoRing ring(opt);

    const auto got = runRequests(ring, 64);
    size_t failed = 0;
    for (const auto& c : got) {
        if (!c.status.ok()) {
            EXPECT_EQ(c.status.code(), StatusCode::kUnavailable);
            EXPECT_EQ(c.state, IoRequestState::kFailed);
            EXPECT_EQ(c.bytes, 0u);
            EXPECT_EQ(c.retries, 1u);
            ++failed;
        }
    }
    // p(fail) = 0.9^2 = 0.81: some of each outcome among 64 draws.
    EXPECT_GT(failed, 0u);
    EXPECT_LT(failed, 64u);
    EXPECT_EQ(ring.statsSnapshot().failed, failed);
}

TEST(IoRingFaultTest, FaultTimelineIsDeterministic)
{
    FaultSpec spec;
    spec.transient_read_error_prob = 0.4;
    spec.read_timeout_prob = 0.1;
    spec.corruption_prob = 0.1;
    spec.max_read_retries = 2;
    spec.retry_backoff_base_sec = 1e-6;
    const FaultInjector faults(spec);

    auto run = [&faults] {
        IoRingOptions opt;
        opt.faults = &faults;
        opt.workers = 4;  // interleaving must not matter
        IoRing ring(opt);
        return runRequests(ring, 96);
    };
    const auto a = run();
    const auto b = run();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].status.code(), b[i].status.code()) << i;
        EXPECT_EQ(a[i].retries, b[i].retries) << i;
        EXPECT_DOUBLE_EQ(a[i].latency_sec, b[i].latency_sec) << i;
    }
}

// --- AsyncPartitionReader under faults --------------------------------------

RmConfig
smallConfig()
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 512;
    return cfg;
}

TEST(AsyncReaderFaultTest, BitFlipIsCaughtByPageCrcAndReread)
{
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    const PartitionBuffer encoded = store.partition(0);

    ColumnarFileReader blocking;
    RowBatch expect;
    ASSERT_TRUE(blocking.open(*encoded).ok());
    ASSERT_TRUE(blocking.readAllInto(expect).ok());

    FaultSpec spec;
    spec.corruption_prob = 0.15;
    const FaultInjector faults(spec);
    IoRingOptions opt;
    opt.faults = &faults;
    IoRing ring(opt);
    AsyncPartitionReader reader(ring);
    RowBatch got;
    ASSERT_TRUE(reader.read(*encoded, 0, got).ok());

    // Silently corrupted pages were detected by their CRC and re-read;
    // the delivered batch is still bit-identical.
    EXPECT_TRUE(got == expect);
    EXPECT_GT(reader.lastReadStats().corrupt_page_rereads, 0u);
    EXPECT_GT(ring.statsSnapshot().corruptions_injected, 0u);
}

TEST(AsyncReaderFaultTest, TransientAndTimeoutFaultsRecoverInFlight)
{
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    const PartitionBuffer encoded = store.partition(0);

    ColumnarFileReader blocking;
    RowBatch expect;
    ASSERT_TRUE(blocking.open(*encoded).ok());
    ASSERT_TRUE(blocking.readAllInto(expect).ok());

    FaultSpec spec;
    spec.transient_read_error_prob = 0.2;
    spec.read_timeout_prob = 0.1;
    spec.retry_backoff_base_sec = 1e-6;
    const FaultInjector faults(spec);
    IoRingOptions opt;
    opt.faults = &faults;
    IoRing ring(opt);
    AsyncPartitionReader reader(ring);
    RowBatch got;
    ASSERT_TRUE(reader.read(*encoded, 0, got).ok());
    EXPECT_TRUE(got == expect);
    EXPECT_GT(reader.lastReadStats().device_retries, 0u);
    const IoRingStats stats = ring.statsSnapshot();
    EXPECT_GT(stats.transient_errors + stats.timeouts, 0u);
    EXPECT_EQ(stats.failed, 0u);
}

TEST(AsyncReaderFaultTest, MixedFaultsStayDeterministicAndRecoverable)
{
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    const PartitionBuffer encoded = store.partition(2);

    FaultSpec spec;
    spec.transient_read_error_prob = 0.15;
    spec.read_timeout_prob = 0.05;
    spec.corruption_prob = 0.1;
    spec.retry_backoff_base_sec = 1e-6;
    const FaultInjector faults(spec);

    auto run = [&](RowBatch& out, AsyncReadStats& rs) {
        IoRingOptions opt;
        opt.faults = &faults;
        IoRing ring(opt);
        AsyncPartitionReader reader(ring);
        ASSERT_TRUE(reader.read(*encoded, 2, out).ok());
        rs = reader.lastReadStats();
    };
    RowBatch a, b;
    AsyncReadStats ra, rb;
    run(a, ra);
    run(b, rb);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(ra.device_retries, rb.device_retries);
    EXPECT_EQ(ra.corrupt_page_rereads, rb.corrupt_page_rereads);
    EXPECT_DOUBLE_EQ(ra.modeled_storage_sec, rb.modeled_storage_sec);
}

// --- PreprocessManager over a faulty ring -----------------------------------

uint64_t
drainChecksum(PreprocessManager& manager, size_t batches)
{
    manager.start(batches);
    uint64_t checksum = 0;
    for (;;) {
        auto mb = manager.nextBatch();
        if (mb == nullptr)
            break;
        uint64_t crc = crc32c(mb->dense.data(),
                              mb->dense.size() * sizeof(float));
        for (const auto& jag : mb->sparse) {
            crc = crc32c(jag.values.data(),
                         jag.values.size() * sizeof(int64_t), crc);
        }
        checksum ^= mix64(crc + mb->batch_size);
        manager.recycle(std::move(mb));
    }
    return checksum;
}

TEST(ManagerIoFaultTest, PipelineRecoversIdenticalDataOverFaultyRing)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 96;
    RawDataGenerator gen(cfg);
    const size_t batches = 16;

    PartitionStore clean_store(gen);
    PreprocessManager clean_mgr(cfg, clean_store,
                                PreprocessMode::kPreSto, 2);
    const uint64_t reference = drainChecksum(clean_mgr, batches);

    FaultSpec spec;
    spec.transient_read_error_prob = 0.1;
    spec.read_timeout_prob = 0.05;
    spec.corruption_prob = 0.05;
    spec.retry_backoff_base_sec = 1e-6;
    const FaultInjector faults(spec);
    PartitionStore store(gen);
    IoRingOptions opt;
    opt.faults = &faults;
    IoRing ring(opt);
    PreprocessManager manager(cfg, store, PreprocessMode::kPreSto, 2,
                              /*queue_capacity=*/8,
                              /*decode_pool=*/nullptr, &ring);
    EXPECT_EQ(drainChecksum(manager, batches), reference);
    const RunStats stats = manager.stats();
    EXPECT_EQ(stats.batches_delivered, batches);
    // Ring-level retries and page re-reads surface in the run stats.
    EXPECT_GT(stats.transient_read_errors +
                  stats.corrupt_partition_refetches, 0u);
}

}  // namespace
}  // namespace presto
