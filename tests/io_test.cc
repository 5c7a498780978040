/**
 * @file
 * Tests for the async storage I/O engine: IoRing submission/completion
 * semantics, the page-granular AsyncPartitionReader, and its wiring
 * into the PreprocessManager pipeline. The central invariant is that
 * the async path is bit-identical to the blocking readAllInto path on
 * the same encoded bytes.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/durable_file.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "cachesim/op_traces.h"
#include "core/managers.h"
#include "core/partition_store.h"
#include "datagen/generator.h"
#include "io/async_reader.h"
#include "io/io_ring.h"

namespace presto {
namespace {

// --- IoRing -----------------------------------------------------------------

TEST(IoRingTest, StateNamesAreStable)
{
    EXPECT_STREQ(ioRequestStateName(IoRequestState::kSubmitted),
                 "submitted");
    EXPECT_STREQ(ioRequestStateName(IoRequestState::kInFlight),
                 "in-flight");
    EXPECT_STREQ(ioRequestStateName(IoRequestState::kCompleted),
                 "completed");
    EXPECT_STREQ(ioRequestStateName(IoRequestState::kFailed), "failed");
}

TEST(IoRingTest, SubmitCopiesBytesAndAccountsLatency)
{
    IoRing ring;
    const uint32_t me = ring.registerConsumer();
    std::vector<uint8_t> device(4096);
    for (size_t i = 0; i < device.size(); ++i)
        device[i] = static_cast<uint8_t>(mix64(i));
    std::vector<uint8_t> dst(device.size(), 0);

    IoRequest req;
    req.src = device;
    req.dest = dst.data();
    req.offset = 0;
    req.user_data = 77;
    ring.submit(me, req);

    const IoCompletion c = ring.waitCompletion(me);
    EXPECT_TRUE(c.status.ok());
    EXPECT_EQ(c.state, IoRequestState::kCompleted);
    EXPECT_EQ(c.user_data, 77u);
    EXPECT_EQ(c.bytes, device.size());
    EXPECT_EQ(c.retries, 0u);
    EXPECT_DOUBLE_EQ(c.latency_sec, ring.serviceSeconds(device.size()));
    EXPECT_EQ(dst, device);

    const IoRingStats stats = ring.statsSnapshot();
    EXPECT_EQ(stats.submitted, 1u);
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.bytes_read, device.size());
    EXPECT_GT(stats.modeledStorageSec(), 0.0);
}

TEST(IoRingTest, ServiceTimeFollowsSsdModel)
{
    IoRingOptions opt;
    const IoRing ring(opt);
    const double expected = opt.ssd.controller_overhead_sec +
                            opt.ssd.page_read_sec +
                            16384.0 / opt.ssd.channel_bytes_per_sec;
    EXPECT_DOUBLE_EQ(ring.serviceSeconds(16384), expected);
    // Larger reads cost strictly more channel time.
    EXPECT_LT(ring.serviceSeconds(4096), ring.serviceSeconds(65536));
}

TEST(IoRingTest, CompletionsRouteToTheirConsumer)
{
    IoRing ring;
    const uint32_t a = ring.registerConsumer();
    const uint32_t b = ring.registerConsumer();
    // Six reads in flight at once, each from its own device range into
    // its own destination buffer (concurrent reads must never share a
    // destination), so every read's bytes can be checked.
    constexpr size_t kReads = 6;
    constexpr size_t kBytes = 512;
    std::vector<uint8_t> device(kReads * kBytes);
    for (size_t i = 0; i < device.size(); ++i)
        device[i] = static_cast<uint8_t>(i / kBytes * 37 + i % 251);
    std::vector<std::vector<uint8_t>> dst(kReads,
                                          std::vector<uint8_t>(kBytes));

    for (size_t i = 0; i < kReads; ++i) {
        IoRequest req;
        req.src = std::span<const uint8_t>(device).subspan(i * kBytes,
                                                           kBytes);
        req.offset = i * kBytes;
        req.dest = dst[i].data();
        // Even reads belong to consumer a (cookies 100+), odd to b (200+).
        req.user_data = (i % 2 == 0 ? 100 : 200) + i;
        ring.submit(i % 2 == 0 ? a : b, req);
    }
    ring.drain();

    std::vector<IoCompletion> got_a, got_b;
    EXPECT_EQ(ring.reapCompletions(a, got_a), 3u);
    EXPECT_EQ(ring.reapCompletions(b, got_b), 3u);
    EXPECT_EQ(ring.cqSize(), 0u);
    for (const auto& c : got_a) {
        EXPECT_GE(c.user_data, 100u);
        EXPECT_LT(c.user_data, 200u);
    }
    for (const auto& c : got_b)
        EXPECT_GE(c.user_data, 200u);
    for (size_t i = 0; i < kReads; ++i) {
        EXPECT_TRUE(std::equal(dst[i].begin(), dst[i].end(),
                               device.begin() + i * kBytes))
            << "read " << i;
    }
}

TEST(IoRingTest, DrainLeavesNothingQueuedOrInFlight)
{
    IoRing ring;
    const uint32_t me = ring.registerConsumer();
    std::vector<uint8_t> device(1024, 1);
    std::vector<std::vector<uint8_t>> dsts(64,
                                           std::vector<uint8_t>(1024));
    for (size_t i = 0; i < dsts.size(); ++i) {
        IoRequest req;
        req.src = device;
        req.dest = dsts[i].data();
        req.offset = i * 1024;
        req.user_data = i;
        ring.submit(me, req);
    }
    ring.drain();
    EXPECT_EQ(ring.sqSize(), 0u);
    EXPECT_EQ(ring.inFlight(), 0u);
    EXPECT_EQ(ring.cqSize(), 64u);
    std::vector<IoCompletion> got;
    EXPECT_EQ(ring.reapCompletions(me, got), 64u);
}

TEST(IoRingTest, CqGrowthPastDepthIsCountedNeverDropped)
{
    IoRingOptions opt;
    opt.cq_depth = 2;
    IoRing ring(opt);
    const uint32_t me = ring.registerConsumer();
    std::vector<uint8_t> device(64, 7);
    std::vector<std::vector<uint8_t>> dsts(8, std::vector<uint8_t>(64));
    for (size_t i = 0; i < dsts.size(); ++i) {
        IoRequest req;
        req.src = device;
        req.dest = dsts[i].data();
        req.user_data = i;
        ring.submit(me, req);
    }
    ring.drain();
    // Every completion survived the soft bound; the overflow shows up
    // in stats the way io_uring accounts CQ overruns.
    std::vector<IoCompletion> got;
    EXPECT_EQ(ring.reapCompletions(me, got), 8u);
    EXPECT_GT(ring.statsSnapshot().cq_overflows, 0u);
}

TEST(IoRingTest, FullSqExertsBackpressure)
{
    IoRingOptions opt;
    opt.sq_depth = 2;
    opt.workers = 1;
    opt.emulate_latency = true;
    // One request holds the single worker ~60 ms; meanwhile the SQ
    // fills and further submission must fail/block.
    opt.latency_scale = 1000.0;
    IoRing ring(opt);
    const uint32_t me = ring.registerConsumer();
    std::vector<uint8_t> device(256, 3);
    std::vector<std::vector<uint8_t>> dsts(4, std::vector<uint8_t>(256));

    IoRequest req;
    req.src = device;
    req.dest = dsts[0].data();
    ring.submit(me, req);
    // Wait for the worker to own the first request.
    while (ring.inFlight() == 0)
        std::this_thread::yield();
    req.dest = dsts[1].data();
    ring.submit(me, req);
    req.dest = dsts[2].data();
    ring.submit(me, req);
    // SQ now holds sq_depth entries while the worker sleeps.
    EXPECT_EQ(ring.sqSize(), 2u);
    req.dest = dsts[3].data();
    EXPECT_FALSE(ring.trySubmit(me, req));
    ring.submit(me, req);  // blocks until the worker frees a slot
    ring.drain();
    std::vector<IoCompletion> got;
    EXPECT_EQ(ring.reapCompletions(me, got), 4u);
    const IoRingStats stats = ring.statsSnapshot();
    EXPECT_EQ(stats.submitted, 4u);
    EXPECT_GE(stats.max_queue_depth, 3u);
    EXPECT_EQ(static_cast<uint64_t>(stats.queue_depth.count()), 4u);
}

TEST(IoRingDeathTest, InvalidOptionsAndRequestsPanic)
{
    IoRingOptions bad;
    bad.sq_depth = 0;
    EXPECT_DEATH(IoRing{bad}, "sq_depth");
    IoRing ring;
    const uint32_t me = ring.registerConsumer();
    IoRequest req;
    std::vector<uint8_t> device(8, 1);
    req.src = device;  // non-empty source, no destination
    EXPECT_DEATH(ring.submit(me, req), "destination");
    req.dest = device.data();
    EXPECT_DEATH(ring.submit(me + 1, req), "unregistered");
}

// --- AsyncPartitionReader ----------------------------------------------------

RmConfig
smallConfig()
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 512;
    return cfg;
}

TEST(AsyncReaderTest, BitIdenticalToBlockingRead)
{
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    const PartitionBuffer encoded = store.partition(0);

    ColumnarFileReader blocking;
    RowBatch expect;
    ASSERT_TRUE(blocking.open(*encoded).ok());
    ASSERT_TRUE(blocking.readAllInto(expect).ok());

    for (const size_t depth : {1u, 2u, 8u, 64u}) {
        IoRing ring;
        AsyncReadOptions opt;
        opt.queue_depth = depth;
        AsyncPartitionReader reader(ring, opt);
        RowBatch got;
        ASSERT_TRUE(reader.read(*encoded, 0, got).ok()) << depth;
        EXPECT_TRUE(got == expect) << "queue depth " << depth;
        // Selective-read accounting matches the blocking reader too.
        EXPECT_EQ(reader.reader().bytesTouched(),
                  blocking.bytesTouched());
        const AsyncReadStats& rs = reader.lastReadStats();
        EXPECT_GT(rs.pages, 1u);
        EXPECT_GT(rs.bytes_read, 0u);
        EXPECT_LT(rs.bytes_read, encoded->size());  // pages, not the file
        EXPECT_GT(rs.modeled_storage_sec, 0.0);
        EXPECT_EQ(rs.device_retries, 0u);
        EXPECT_EQ(rs.corrupt_page_rereads, 0u);
    }
}

TEST(AsyncReaderTest, ReusesBuffersAcrossPartitions)
{
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    IoRing ring;
    AsyncPartitionReader reader(ring);
    ColumnarFileReader blocking;
    RowBatch got, expect;
    for (uint64_t pid = 0; pid < 4; ++pid) {
        const PartitionBuffer encoded = store.partition(pid);
        ASSERT_TRUE(blocking.open(*encoded).ok());
        ASSERT_TRUE(blocking.readAllInto(expect).ok());
        ASSERT_TRUE(reader.read(*encoded, pid, got).ok()) << pid;
        EXPECT_TRUE(got == expect) << "partition " << pid;
    }
}

TEST(AsyncReaderTest, SharedDecodePoolMatchesSerialDecode)
{
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    ThreadPool pool(3);
    IoRing ring;

    // Two readers over one ring and one pool, decoding different
    // partitions concurrently — the Figure 9 worker arrangement.
    std::vector<RowBatch> got(2);
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < 2; ++t) {
        threads.emplace_back([&, t] {
            AsyncPartitionReader reader(ring);
            reader.setDecodePool(&pool);
            const PartitionBuffer encoded = store.partition(
                static_cast<uint64_t>(t));
            if (!reader.read(*encoded, static_cast<uint64_t>(t), got[t])
                     .ok())
                ++failures;
        });
    }
    for (auto& th : threads)
        th.join();
    ASSERT_EQ(failures.load(), 0);

    ColumnarFileReader blocking;
    for (int t = 0; t < 2; ++t) {
        RowBatch expect;
        ASSERT_TRUE(
            blocking.open(*store.partition(static_cast<uint64_t>(t)))
                .ok());
        ASSERT_TRUE(blocking.readAllInto(expect).ok());
        EXPECT_TRUE(got[t] == expect) << "partition " << t;
    }
}

// --- PreprocessManager over the ring ----------------------------------------

/** Consume every batch and fold the TrainManager-style checksum. */
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

TEST(ManagerIoTest, RingDeliveryBitIdenticalToBlockingFetch)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 128;
    RawDataGenerator gen(cfg);
    const size_t batches = 12;

    PartitionStore blocking_store(gen);
    PreprocessManager blocking_mgr(cfg, blocking_store,
                                   PreprocessMode::kPreSto, 2);
    const uint64_t reference = drainChecksum(blocking_mgr, batches);

    PartitionStore store(gen);
    IoRing ring;
    PreprocessManager async_mgr(cfg, store, PreprocessMode::kPreSto, 2,
                                /*queue_capacity=*/8,
                                /*decode_pool=*/nullptr, &ring);
    EXPECT_EQ(drainChecksum(async_mgr, batches), reference);
    EXPECT_EQ(async_mgr.stats().batches_delivered, batches);
    EXPECT_EQ(async_mgr.stats().columnar_bytes_touched,
              blocking_mgr.stats().columnar_bytes_touched);

    const IoRingStats stats = ring.statsSnapshot();
    EXPECT_GT(stats.submitted, 0u);
    EXPECT_EQ(stats.submitted, stats.completed);
    EXPECT_EQ(stats.failed, 0u);
}

TEST(ManagerIoTest, RingPlusSharedDecodePoolDeliversIdentically)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 128;
    RawDataGenerator gen(cfg);
    const size_t batches = 8;

    PartitionStore blocking_store(gen);
    PreprocessManager blocking_mgr(cfg, blocking_store,
                                   PreprocessMode::kPreSto, 1);
    const uint64_t reference = drainChecksum(blocking_mgr, batches);

    PartitionStore store(gen);
    ThreadPool pool(2);
    IoRing ring;
    PreprocessManager async_mgr(cfg, store, PreprocessMode::kPreSto, 2,
                                /*queue_capacity=*/8,
                                &pool, &ring);
    EXPECT_EQ(drainChecksum(async_mgr, batches), reference);
}

TEST(ManagerIoTest, EveryWorkerKeepsItsOwnReadWindowInFlight)
{
    // Every worker Extracts through its own reader, so with a slow
    // one-worker device the ring queues more than one reader's window.
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 128;
    RawDataGenerator gen(cfg);
    const size_t batches = 6;

    // The blocking run also materializes every partition, so the ring
    // workers below spend their time reading rather than generating
    // and encoding partitions.
    PartitionStore store(gen);
    PreprocessManager blocking_mgr(cfg, store, PreprocessMode::kPreSto, 1);
    const uint64_t reference = drainChecksum(blocking_mgr, batches);

    IoRingOptions opt;
    opt.workers = 1;
    opt.emulate_latency = true;
    opt.latency_scale = 20.0;
    IoRing ring(opt);
    PreprocessManager manager(cfg, store, PreprocessMode::kPreSto, 3,
                              /*queue_capacity=*/8,
                              /*decode_pool=*/nullptr, &ring);
    EXPECT_EQ(drainChecksum(manager, batches), reference);
    EXPECT_GT(ring.statsSnapshot().max_queue_depth,
              AsyncReadOptions{}.queue_depth);
}

// --- file-backed (pread) requests -------------------------------------------

TEST(IoRingTest, FdBackedRequestPreadsTheRange)
{
    std::vector<uint8_t> device(8192);
    for (size_t i = 0; i < device.size(); ++i)
        device[i] = static_cast<uint8_t>(mix64(i) >> 3);
    const std::string path = ::testing::TempDir() + "io_ring_fd.bin";
    ASSERT_TRUE(saveToFile(path, device).ok());
    auto fd = openReadOnly(path);
    ASSERT_TRUE(fd.ok());

    IoRing ring;
    const uint32_t me = ring.registerConsumer();
    std::vector<uint8_t> dst(1000, 0);

    IoRequest req;
    req.fd = *fd;
    req.length = static_cast<uint32_t>(dst.size());
    req.offset = 4096;
    req.dest = dst.data();
    req.user_data = 5;
    ring.submit(me, req);

    const IoCompletion c = ring.waitCompletion(me);
    EXPECT_TRUE(c.status.ok());
    EXPECT_EQ(c.bytes, dst.size());
    EXPECT_TRUE(std::equal(dst.begin(), dst.end(),
                           device.begin() + 4096));
    // Timing model charges the pread like any other request.
    EXPECT_DOUBLE_EQ(c.latency_sec, ring.serviceSeconds(dst.size()));
    ::close(*fd);
}

TEST(IoRingTest, FdBackedReadPastEofFails)
{
    const std::string path = ::testing::TempDir() + "io_ring_eof.bin";
    ASSERT_TRUE(saveToFile(path, std::vector<uint8_t>(100, 7)).ok());
    auto fd = openReadOnly(path);
    ASSERT_TRUE(fd.ok());

    IoRing ring;
    const uint32_t me = ring.registerConsumer();
    std::vector<uint8_t> dst(64);
    IoRequest req;
    req.fd = *fd;
    req.length = static_cast<uint32_t>(dst.size());
    req.offset = 80;  // only 20 bytes remain
    req.dest = dst.data();
    ring.submit(me, req);

    const IoCompletion c = ring.waitCompletion(me);
    EXPECT_EQ(c.state, IoRequestState::kFailed);
    EXPECT_EQ(c.status.code(), StatusCode::kCorruption);
    EXPECT_EQ(c.bytes, 0u);
    ::close(*fd);
}

TEST(AsyncReaderTest, ReadFileMatchesMemoryRead)
{
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    const PartitionBuffer encoded = store.partition(3);

    const std::string path = ::testing::TempDir() + "async_readfile.psf";
    ASSERT_TRUE(saveToFile(path, *encoded).ok());

    ColumnarFileReader blocking;
    RowBatch expect;
    ASSERT_TRUE(blocking.open(*encoded).ok());
    // bytesTouched() right after open = header magic + footer region;
    // drop the leading magic to get the tail the store would persist.
    const size_t tail_bytes = blocking.bytesTouched() - 4;
    ASSERT_TRUE(blocking.readAllInto(expect).ok());
    std::vector<PageReadPlan> plans;
    ASSERT_TRUE(blocking.planPageReads(plans).ok());

    auto fd = openReadOnly(path);
    ASSERT_TRUE(fd.ok());
    IoRing ring;
    AsyncPartitionReader reader(ring);
    AsyncPartitionReader::FileReadSource src;
    src.fd = *fd;
    src.file_size = encoded->size();
    src.tail = std::span<const uint8_t>(*encoded).last(tail_bytes);
    src.plans = plans;
    RowBatch got;
    ASSERT_TRUE(reader.readFile(src, 3, got).ok());
    ::close(*fd);
    EXPECT_TRUE(got == expect);
    EXPECT_EQ(reader.lastReadStats().pages, plans.size());
}

// --- flash-channel affinity -------------------------------------------------

TEST(IoRingTest, ChannelPinnedRequestsKeepPerChannelFifoOrder)
{
    IoRingOptions opt;
    opt.workers = 4;
    IoRing ring(opt);
    const uint32_t me = ring.registerConsumer();
    std::vector<uint8_t> device(256, 0x11);
    std::vector<std::vector<uint8_t>> dst(24,
                                          std::vector<uint8_t>(256, 0));

    // Interleave submissions across two pinned channels; each channel
    // is served by exactly one worker, so its completions must pop in
    // submission order even though the channels race each other.
    IoRequest req;
    req.src = device;
    for (uint64_t i = 0; i < dst.size(); ++i) {
        req.dest = dst[i].data();
        req.channel = static_cast<int32_t>(i % 2);
        req.user_data = i;
        ring.submit(me, req);
    }
    ring.drain();

    std::vector<IoCompletion> got;
    ASSERT_EQ(ring.reapCompletions(me, got), dst.size());
    uint64_t last_even = 0, last_odd = 0;
    for (const IoCompletion& c : got) {
        ASSERT_TRUE(c.status.ok());
        uint64_t& last = (c.user_data % 2 == 0) ? last_even : last_odd;
        EXPECT_GE(c.user_data, last) << "channel FIFO order violated";
        last = c.user_data;
    }
    for (const auto& d : dst)
        EXPECT_EQ(d, device);
}

TEST(IoRingTest, MixedPinnedAndUnpinnedRequestsAllCompleteAndDrain)
{
    // Channels above the worker count wrap (channel % workers) and
    // unpinned requests keep the legacy any-worker behavior; nothing
    // may be stranded on the SQ at drain or destruction.
    IoRingOptions opt;
    opt.workers = 2;
    IoRing ring(opt);
    const uint32_t me = ring.registerConsumer();
    std::vector<uint8_t> device(128, 0x3c);
    std::vector<std::vector<uint8_t>> dst(40,
                                          std::vector<uint8_t>(128, 0));

    IoRequest req;
    req.src = device;
    for (uint64_t i = 0; i < dst.size(); ++i) {
        req.dest = dst[i].data();
        req.channel = static_cast<int32_t>(i % 5) - 1;  // -1..3
        req.user_data = i;
        ring.submit(me, req);
    }
    ring.drain();

    const IoRingStats stats = ring.statsSnapshot();
    EXPECT_EQ(stats.submitted, dst.size());
    EXPECT_EQ(stats.completed, dst.size());
    EXPECT_EQ(stats.failed, 0u);
    std::vector<IoCompletion> got;
    EXPECT_EQ(ring.reapCompletions(me, got), dst.size());
    for (const auto& d : dst)
        EXPECT_EQ(d, device);
}

TEST(AsyncReaderTest, PlacementModesAreBitIdenticalToBlockingRead)
{
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    WriterOptions wopts;
    wopts.column_heat = columnAccessHeat(cfg);
    PartitionStore store(gen, wopts);
    const PartitionBuffer encoded = store.partition(0);

    ColumnarFileReader blocking;
    RowBatch expect;
    ASSERT_TRUE(blocking.open(*encoded).ok());
    ASSERT_TRUE(blocking.readAllInto(expect).ok());

    for (const ChannelPlacement placement :
         {ChannelPlacement::kNone, ChannelPlacement::kAddress,
          ChannelPlacement::kHeat}) {
        IoRingOptions ropt;
        ropt.workers = 4;
        IoRing ring(ropt);
        AsyncReadOptions opt;
        opt.queue_depth = 4;
        opt.placement = placement;
        AsyncPartitionReader reader(ring, opt);
        RowBatch got;
        ASSERT_TRUE(reader.read(*encoded, 0, got).ok())
            << static_cast<int>(placement);
        EXPECT_TRUE(got == expect)
            << "placement " << static_cast<int>(placement);
        EXPECT_EQ(reader.reader().bytesTouched(),
                  blocking.bytesTouched());
    }
}

TEST(AsyncReaderTest, HeatPlacementWithoutMetadataDegradesToAnyChannel)
{
    // A file written without heat metadata must read fine under kHeat
    // (all plans stay channel -1, the legacy any-worker path).
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    const PartitionBuffer encoded = store.partition(1);

    ColumnarFileReader blocking;
    RowBatch expect;
    ASSERT_TRUE(blocking.open(*encoded).ok());
    ASSERT_TRUE(blocking.readAllInto(expect).ok());

    IoRing ring;
    AsyncReadOptions opt;
    opt.placement = ChannelPlacement::kHeat;
    AsyncPartitionReader reader(ring, opt);
    RowBatch got;
    ASSERT_TRUE(reader.read(*encoded, 1, got).ok());
    EXPECT_TRUE(got == expect);
}

}  // namespace
}  // namespace presto
