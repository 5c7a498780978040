/**
 * @file
 * Functional tests for the persistent segment store: append/read round
 * trips (blocking and through the IoRing), manifest recovery across
 * re-opens, retirement, compaction, the CRC scrub, journal
 * checkpointing, and the PartitionStore/PreprocessManager persistence
 * wiring. Crash-injection coverage lives in store_crash_test.cc and
 * store_recovery_test.cc.
 */
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/durable_file.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/managers.h"
#include "core/partition_store.h"
#include "datagen/generator.h"
#include "io/async_reader.h"
#include "io/io_ring.h"
#include "store/segment_store.h"

namespace presto {
namespace {

RmConfig
smallConfig()
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 256;
    return cfg;
}

/** Fresh, empty directory under the test temp root. */
std::string
freshDir(const std::string& name)
{
    const std::string dir = ::testing::TempDir() + name;
    ::system(("rm -rf " + dir).c_str());
    EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
    return dir;
}

std::unique_ptr<SegmentStore>
openStore(const std::string& dir, RecoveryReport* report = nullptr)
{
    SegmentStoreOptions opt;
    opt.directory = dir;
    auto store = SegmentStore::open(opt, report);
    EXPECT_TRUE(store.ok()) << store.status().message();
    return std::move(*store);
}

/** Whole-file CRC-checked read of a segment, decoded into @p out. */
Status
readDecoded(SegmentStore& store, uint64_t segment_id, RowBatch& out)
{
    auto bytes = store.readSegmentRaw(segment_id);
    if (!bytes.ok())
        return bytes.status();
    ColumnarFileReader reader;
    PRESTO_RETURN_IF_ERROR(reader.open(*bytes));
    return reader.readAllInto(out);
}

bool
fileExists(const std::string& path)
{
    return fileSizeOf(path).ok();
}

TEST(SegmentStoreTest, AppendReadRoundTripBlockingAndRing)
{
    const std::string dir = freshDir("store_roundtrip");
    auto store = openStore(dir);
    RawDataGenerator gen(smallConfig());
    const RowBatch batch = gen.generatePartition(7);

    auto id = store->appendPartition(batch, 7);
    ASSERT_TRUE(id.ok()) << id.status().message();

    RowBatch via_blocking;
    ASSERT_TRUE(readDecoded(*store, *id, via_blocking).ok());
    EXPECT_TRUE(via_blocking == batch);

    IoRing ring;
    AsyncPartitionReader reader(ring);
    RowBatch via_ring;
    ASSERT_TRUE(store->readSegment(*id, reader, via_ring).ok());
    EXPECT_TRUE(via_ring == batch);
    EXPECT_GT(reader.lastReadStats().pages, 0u);

    const auto segments = store->listSegments();
    ASSERT_EQ(segments.size(), 1u);
    EXPECT_EQ(segments[0].meta.segment_id, *id);
    EXPECT_EQ(segments[0].meta.partition_id, 7u);
    EXPECT_EQ(segments[0].state, SegmentState::kSealed);
    EXPECT_GT(segments[0].meta.plans.size(), 0u);
    EXPECT_TRUE(fileExists(store->segmentPath(segments[0].meta)));

    auto info = store->segmentForPartition(7);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->meta.segment_id, *id);
    EXPECT_EQ(store->segmentForPartition(8).status().code(),
              StatusCode::kNotFound);
}

TEST(SegmentStoreTest, ReopenRebuildsTheSameManifest)
{
    const std::string dir = freshDir("store_reopen");
    RawDataGenerator gen(smallConfig());
    std::vector<SegmentInfo> before;
    {
        auto store = openStore(dir);
        for (uint64_t pid = 0; pid < 3; ++pid) {
            auto id = store->appendPartition(gen.generatePartition(pid),
                                             pid);
            ASSERT_TRUE(id.ok());
        }
        before = store->listSegments();
    }

    RecoveryReport report;
    auto store = openStore(dir, &report);
    // Each append writes intent + seal; a clean shutdown leaves no torn
    // tail, no orphans, no quarantines.
    EXPECT_EQ(report.records_replayed, 6u);
    EXPECT_EQ(report.torn_tail_bytes, 0u);
    EXPECT_TRUE(report.orphans_removed.empty());
    EXPECT_TRUE(report.quarantined.empty());
    EXPECT_EQ(report.live_segments, 3u);

    const auto after = store->listSegments();
    ASSERT_EQ(after.size(), before.size());
    for (size_t i = 0; i < after.size(); ++i) {
        EXPECT_EQ(after[i].meta.segment_id, before[i].meta.segment_id);
        EXPECT_EQ(after[i].meta.partition_id, before[i].meta.partition_id);
        EXPECT_EQ(after[i].meta.byte_size, before[i].meta.byte_size);
        EXPECT_EQ(after[i].meta.file_crc, before[i].meta.file_crc);
        EXPECT_EQ(after[i].meta.tail_bytes, before[i].meta.tail_bytes);
        EXPECT_EQ(after[i].meta.plans.size(), before[i].meta.plans.size());
        EXPECT_EQ(after[i].state, SegmentState::kSealed);
    }
    for (uint64_t pid = 0; pid < 3; ++pid) {
        auto info = store->segmentForPartition(pid);
        ASSERT_TRUE(info.ok());
        RowBatch got;
        ASSERT_TRUE(readDecoded(*store, info->meta.segment_id, got).ok());
        EXPECT_TRUE(got == gen.generatePartition(pid)) << pid;
    }
}

TEST(SegmentStoreTest, RetireDeletesTheFileAndSurvivesReopen)
{
    const std::string dir = freshDir("store_retire");
    RawDataGenerator gen(smallConfig());
    uint64_t id = 0;
    std::string path;
    {
        auto store = openStore(dir);
        auto got = store->appendPartition(gen.generatePartition(0), 0);
        ASSERT_TRUE(got.ok());
        id = *got;
        path = store->segmentPath(store->listSegments()[0].meta);
        ASSERT_TRUE(fileExists(path));
        ASSERT_TRUE(store->retireSegment(id).ok());
        EXPECT_FALSE(fileExists(path));
        EXPECT_EQ(store->segmentForPartition(0).status().code(),
                  StatusCode::kNotFound);
        RowBatch out;
        EXPECT_EQ(readDecoded(*store, id, out).code(),
                  StatusCode::kNotFound);
        // Retiring again is a no-op, not an error.
        EXPECT_TRUE(store->retireSegment(id).ok());
    }
    auto store = openStore(dir);
    EXPECT_EQ(store->segmentForPartition(0).status().code(),
              StatusCode::kNotFound);
    EXPECT_FALSE(fileExists(path));
}

TEST(SegmentStoreTest, CompactOnceRewritesSmallerAndRetiresTheOld)
{
    const std::string dir = freshDir("store_compact");
    RawDataGenerator gen(smallConfig());
    const RowBatch batch = gen.generatePartition(4);

    // Seed the store (whose own writer uses the default LZ codec) with
    // a deliberately fat encoding, so compaction has a win to find.
    WriterOptions fat;
    fat.force_plain = true;
    fat.codec = PageCodec::kNone;
    const auto fat_psf = ColumnarFileWriter(fat).write(batch, 4);

    auto store = openStore(dir);
    auto old_id = store->appendEncoded(fat_psf, 4);
    ASSERT_TRUE(old_id.ok());
    const std::string old_path =
        store->segmentPath(store->listSegments()[0].meta);

    auto new_id = store->compactOnce();
    ASSERT_TRUE(new_id.ok()) << new_id.status().message();
    ASSERT_NE(*new_id, 0u);
    EXPECT_NE(*new_id, *old_id);

    auto info = store->segmentForPartition(4);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(info->meta.segment_id, *new_id);
    EXPECT_LT(info->meta.byte_size, fat_psf.size());
    EXPECT_FALSE(fileExists(old_path));  // old segment retired

    RowBatch got;
    ASSERT_TRUE(readDecoded(*store, *new_id, got).ok());
    EXPECT_TRUE(got == batch);

    // The rewrite is already tight: nothing further to compact.
    auto again = store->compactOnce();
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*again, 0u);
}

TEST(SegmentStoreTest, ScrubCountsPagesAndQuarantinesDamage)
{
    const std::string dir = freshDir("store_scrub");
    RawDataGenerator gen(smallConfig());
    auto store = openStore(dir);
    for (uint64_t pid = 0; pid < 2; ++pid)
        ASSERT_TRUE(
            store->appendPartition(gen.generatePartition(pid), pid).ok());
    const auto segments = store->listSegments();
    uint64_t total_pages = 0;
    for (const auto& info : segments)
        total_pages += info.meta.plans.size();

    auto verified = store->scrubSome(100000);
    ASSERT_TRUE(verified.ok());
    EXPECT_EQ(*verified, total_pages);

    // Flip one byte inside the first page frame of segment 1.
    const SegmentInfo& victim = segments[0];
    const std::string path = store->segmentPath(victim.meta);
    auto bytes = loadFromFile(path);
    ASSERT_TRUE(bytes.ok());
    (*bytes)[victim.meta.plans[0].offset + victim.meta.plans[0].frame_bytes /
             2] ^= 0x10;
    ASSERT_TRUE(saveToFile(path, *bytes).ok());

    // The scrub cursor wraps and the damaged page is caught.
    verified = store->scrubSome(100000);
    ASSERT_TRUE(verified.ok());
    EXPECT_LT(*verified, total_pages);
    auto listed = store->listSegments();
    EXPECT_EQ(listed[0].state, SegmentState::kQuarantined);
    EXPECT_FALSE(listed[0].quarantine_reason.empty());

    // A quarantined segment is never served again.
    RowBatch out;
    EXPECT_EQ(readDecoded(*store, victim.meta.segment_id, out).code(),
              StatusCode::kUnavailable);
    EXPECT_EQ(store->segmentForPartition(victim.meta.partition_id)
                  .status()
                  .code(),
              StatusCode::kNotFound);
}

TEST(SegmentStoreTest, ReadQuarantinesOnDecodeCorruption)
{
    const std::string dir = freshDir("store_read_quarantine");
    RawDataGenerator gen(smallConfig());
    auto store = openStore(dir);
    auto id = store->appendPartition(gen.generatePartition(0), 0);
    ASSERT_TRUE(id.ok());
    const SegmentInfo info = store->listSegments()[0];

    const std::string path = store->segmentPath(info.meta);
    auto bytes = loadFromFile(path);
    ASSERT_TRUE(bytes.ok());
    (*bytes)[info.meta.plans[0].offset + 8] ^= 0x01;
    ASSERT_TRUE(saveToFile(path, *bytes).ok());

    // The ring read re-reads the page (same bytes every time — real bit
    // rot, not an in-flight flip), exhausts its attempts, and fails
    // with corruption, which quarantines the segment.
    IoRing ring;
    AsyncReadOptions opt;
    opt.max_page_attempts = 2;
    AsyncPartitionReader reader(ring, opt);
    RowBatch out;
    EXPECT_EQ(store->readSegment(*id, reader, out).code(),
              StatusCode::kCorruption);
    EXPECT_EQ(store->listSegments()[0].state, SegmentState::kQuarantined);
}

TEST(SegmentStoreTest, CheckpointDropsRetiredHistoryAndReplays)
{
    const std::string dir = freshDir("store_checkpoint");
    RawDataGenerator gen(smallConfig());
    auto store = openStore(dir);
    std::vector<uint64_t> ids;
    for (uint64_t pid = 0; pid < 3; ++pid) {
        auto id = store->appendPartition(gen.generatePartition(pid), pid);
        ASSERT_TRUE(id.ok());
        ids.push_back(*id);
    }
    ASSERT_TRUE(store->retireSegment(ids[1]).ok());
    const uint64_t journal_before = *fileSizeOf(store->journalPath());

    ASSERT_TRUE(store->checkpointJournal().ok());
    EXPECT_LT(*fileSizeOf(store->journalPath()), journal_before);
    // Retired entries are garbage-collected by the rewrite.
    EXPECT_EQ(store->listSegments().size(), 2u);

    RecoveryReport report;
    auto reopened = openStore(dir, &report);
    EXPECT_EQ(report.live_segments, 2u);
    EXPECT_TRUE(report.quarantined.empty());
    for (uint64_t pid : {uint64_t{0}, uint64_t{2}}) {
        auto info = reopened->segmentForPartition(pid);
        ASSERT_TRUE(info.ok()) << pid;
        RowBatch got;
        ASSERT_TRUE(readDecoded(*reopened, info->meta.segment_id, got).ok());
        EXPECT_TRUE(got == gen.generatePartition(pid));
    }
    // The id allocator floor survives the checkpoint: a new segment
    // never reuses a retired id.
    auto id = reopened->appendPartition(gen.generatePartition(9), 9);
    ASSERT_TRUE(id.ok());
    EXPECT_GT(*id, ids.back());
}

TEST(SegmentStoreTest, ScheduledMaintenanceRunsOneTickAtATime)
{
    const std::string dir = freshDir("store_maintenance");
    RawDataGenerator gen(smallConfig());
    auto store = openStore(dir);
    for (uint64_t pid = 0; pid < 2; ++pid)
        ASSERT_TRUE(
            store->appendPartition(gen.generatePartition(pid), pid).ok());

    ThreadPool pool(1);
    EXPECT_TRUE(store->scheduleMaintenance(pool));
    // Back-pressure: a second tick is refused while one is pending.
    // (The single pool thread has not necessarily started the first.)
    EXPECT_FALSE(store->scheduleMaintenance(pool));
    pool.wait();
    EXPECT_TRUE(store->scheduleMaintenance(pool));
    pool.wait();
    // Maintenance must not have hurt anything.
    for (const auto& info : store->listSegments()) {
        if (info.state != SegmentState::kSealed &&
            info.state != SegmentState::kCompacted)
            continue;
        RowBatch got;
        EXPECT_TRUE(readDecoded(*store, info.meta.segment_id, got).ok());
    }
}

// --- PartitionStore persistence ----------------------------------------------

TEST(PartitionStorePersistenceTest, PersistPartitionIsIdempotent)
{
    const std::string dir = freshDir("store_persist");
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    PartitionStore pstore(gen);
    EXPECT_EQ(pstore.persistPartition(0).status().code(),
              StatusCode::kFailedPrecondition);

    auto store = openStore(dir);
    pstore.enablePersistence(store.get());
    ASSERT_EQ(pstore.segmentStore(), store.get());

    auto first = pstore.persistPartition(5);
    ASSERT_TRUE(first.ok());
    auto second = pstore.persistPartition(5);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(*first, *second);
    EXPECT_EQ(store->listSegments().size(), 1u);

    // The durable segment holds exactly the canonical encoded bytes.
    auto bytes = loadFromFile(store->segmentPath(
        store->listSegments()[0].meta));
    ASSERT_TRUE(bytes.ok());
    EXPECT_TRUE(*bytes == *pstore.partition(5));
}

TEST(PartitionStorePersistenceTest, ConcurrentPersistCommitsOneSegment)
{
    // Racing persists of one id encode concurrently, but the re-check
    // and the append are one step per store: one live segment results.
    const std::string dir = freshDir("store_persist_race");
    RawDataGenerator gen(smallConfig());
    PartitionStore pstore(gen);
    auto store = openStore(dir);
    pstore.enablePersistence(store.get());

    constexpr int kThreads = 8;
    std::vector<StatusOr<uint64_t>> ids(kThreads, uint64_t{0});
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] { ids[t] = pstore.persistPartition(7); });
    for (std::thread& thread : threads)
        thread.join();

    for (const auto& id : ids) {
        ASSERT_TRUE(id.ok()) << id.status().message();
        EXPECT_EQ(*id, *ids[0]);
    }
    ASSERT_EQ(store->listSegments().size(), 1u);
    EXPECT_EQ(store->liveBytes(), pstore.partitionBytes(7));
}

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

TEST(ManagerStoreTest, ColdReadPipelineMatchesMemoryPipeline)
{
    const std::string dir = freshDir("store_manager");
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 128;
    RawDataGenerator gen(cfg);
    const size_t batches = 8;

    PartitionStore memory_store(gen);
    IoRing memory_ring;
    PreprocessManager memory_mgr(cfg, memory_store, PreprocessMode::kPreSto,
                                 2, /*queue_capacity=*/8,
                                 /*decode_pool=*/nullptr, &memory_ring);
    const uint64_t reference = drainChecksum(memory_mgr, batches);

    // Same pipeline, but partitions are first committed as durable
    // segments and every page then arrives via pread through the ring.
    auto store = openStore(dir);
    PartitionStore cold_store(gen);
    cold_store.enablePersistence(store.get());
    IoRing ring;
    PreprocessManager cold_mgr(cfg, cold_store, PreprocessMode::kPreSto, 2,
                               /*queue_capacity=*/8,
                               /*decode_pool=*/nullptr, &ring);
    EXPECT_EQ(drainChecksum(cold_mgr, batches), reference);
    EXPECT_EQ(store->listSegments().size(), batches);
    const IoRingStats stats = ring.statsSnapshot();
    EXPECT_GT(stats.submitted, 0u);
    EXPECT_EQ(stats.failed, 0u);
}

}  // namespace
}  // namespace presto
