/**
 * @file
 * Epoch retention, memory tiering, and pin-aware scrub tests for the
 * ingestion-service catalog (docs/SERVICE.md "Retention and tiering").
 *
 * The retention guarantees under test:
 *
 *  - applyRetention() keeps the newest retain_epochs epochs plus every
 *    epoch a live EpochReader pins; everything older is retired.
 *  - A pinned epoch replays bit-identically no matter how many newer
 *    epochs are published and retired around it, in both memory-only
 *    and persistent mode.
 *  - pin() and applyRetention() linearize: a racing pin either lands
 *    before the pass claims the epoch (sparing it, valid replay) or
 *    fails kNotFound — never a reader over retired storage.
 *  - A crash mid-retire recovers to fully-live or fully-retired: the
 *    next registerDataset() finishes any half-retired epoch.
 *  - publishEpoch() promotes the head into the hot memory tier (reads
 *    skip the device) and demotes the previous head to the cold path.
 *  - The shards' scrub cursors prioritize pinned epochs' segments.
 */
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "columnar/columnar_file.h"
#include "common/fault_injector.h"
#include "core/partition_store.h"
#include "datagen/generator.h"
#include "service/dataset_catalog.h"
#include "service/ingest_service.h"
#include "service/service_scenario.h"
#include "store/segment_store.h"

namespace presto {
namespace {

RmConfig
smallConfig()
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 64;
    return cfg;
}

DatasetSpec
smallSpec(const std::string& name, size_t partitions = 4,
          size_t shards = 2)
{
    DatasetSpec spec;
    spec.name = name;
    spec.config = smallConfig();
    spec.generator.seed = 0xfeed;
    spec.partitions_per_epoch = partitions;
    spec.shards = shards;
    return spec;
}

std::string
freshDir(const std::string& name)
{
    const std::string dir = ::testing::TempDir() + name;
    ::system(("rm -rf " + dir).c_str());
    EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
    return dir;
}

std::unique_ptr<SegmentStore>
openStore(const std::string& dir, const FaultInjector* faults = nullptr)
{
    SegmentStoreOptions options;
    options.directory = dir;
    options.faults = faults;
    auto store = SegmentStore::open(options);
    EXPECT_TRUE(store.ok());
    return std::move(store.value());
}

std::vector<std::vector<uint8_t>>
snapshotEpoch(const EpochReader& reader)
{
    std::vector<std::vector<uint8_t>> encoded;
    for (size_t i = 0; i < reader.numPartitions(); ++i) {
        auto bytes = reader.fetchEncoded(i);
        EXPECT_TRUE(bytes.ok());
        encoded.push_back(std::move(bytes.value()));
    }
    return encoded;
}

// --- Retention policy, memory-only mode ------------------------------

TEST(RetentionTest, KeepsNewestKRetiresOlder)
{
    DatasetCatalog catalog;
    DatasetSpec spec = smallSpec("clicks");
    spec.retain_epochs = 2;
    ASSERT_TRUE(catalog.registerDataset(spec).ok());
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(catalog.publishEpoch("clicks").ok());

    auto report = catalog.applyRetention("clicks");
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->epochs_retired, 3u);
    EXPECT_EQ(report->epochs_kept_pinned, 0u);
    EXPECT_EQ(report->partitions_retired, 3u * 4u);
    EXPECT_EQ(report->live_epochs, 2u);
    EXPECT_EQ(catalog.liveEpochs("clicks").value(), 2u);

    for (uint64_t epoch = 1; epoch <= 3; ++epoch) {
        EXPECT_TRUE(catalog.epochRetired("clicks", epoch).value());
        auto pin = catalog.pin("clicks", epoch);
        ASSERT_FALSE(pin.ok());
        EXPECT_EQ(pin.status().code(), StatusCode::kNotFound);
    }
    for (uint64_t epoch = 4; epoch <= 5; ++epoch) {
        EXPECT_FALSE(catalog.epochRetired("clicks", epoch).value());
        EXPECT_TRUE(catalog.pin("clicks", epoch).ok());
    }

    // Idempotent: a second pass finds nothing eligible.
    report = catalog.applyRetention("clicks");
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->epochs_retired, 0u);
    EXPECT_EQ(report->live_epochs, 2u);
}

TEST(RetentionTest, DisabledPolicyIsNoOp)
{
    DatasetCatalog catalog;
    ASSERT_TRUE(catalog.registerDataset(smallSpec("clicks")).ok());
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(catalog.publishEpoch("clicks").ok());

    auto report = catalog.applyRetention("clicks");
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->epochs_retired, 0u);
    EXPECT_EQ(report->live_epochs, 4u);
    EXPECT_TRUE(catalog.pin("clicks", 1).ok());
}

TEST(RetentionTest, PinnedEpochSurvivesAndReplaysBitIdentical)
{
    DatasetCatalog catalog;
    DatasetSpec spec = smallSpec("clicks");
    spec.retain_epochs = 1;
    ASSERT_TRUE(catalog.registerDataset(spec).ok());
    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());

    auto pinned = catalog.pin("clicks", 1);
    ASSERT_TRUE(pinned.ok());
    EXPECT_EQ(catalog.pinCount("clicks", 1).value(), 1u);
    const auto baseline = snapshotEpoch(pinned.value());

    // A copy shares the pin; dropping it keeps the epoch pinned.
    {
        EpochReader copy = pinned.value();
        EXPECT_EQ(catalog.pinCount("clicks", 1).value(), 1u);
    }
    EXPECT_EQ(catalog.pinCount("clicks", 1).value(), 1u);

    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(catalog.publishEpoch("clicks").ok());
        auto report = catalog.applyRetention("clicks");
        ASSERT_TRUE(report.ok());
        EXPECT_GE(report->epochs_kept_pinned, 1u);
        EXPECT_FALSE(catalog.epochRetired("clicks", 1).value());
        EXPECT_EQ(snapshotEpoch(pinned.value()), baseline);
    }
    // Epochs 2..3 (older than head-retain, unpinned) are gone.
    EXPECT_TRUE(catalog.epochRetired("clicks", 2).value());
    EXPECT_TRUE(catalog.epochRetired("clicks", 3).value());

    // Releasing the last pin makes epoch 1 eligible again.
    pinned.value() = EpochReader();
    EXPECT_EQ(catalog.pinCount("clicks", 1).value(), 0u);
    auto report = catalog.applyRetention("clicks");
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->epochs_retired, 1u);
    EXPECT_TRUE(catalog.epochRetired("clicks", 1).value());
}

TEST(RetentionTest, RetireLinearizesWithConcurrentPins)
{
    DatasetCatalog catalog;
    DatasetSpec spec = smallSpec("clicks");
    spec.retain_epochs = 1;
    ASSERT_TRUE(catalog.registerDataset(spec).ok());
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(catalog.publishEpoch("clicks").ok());

    // Threads hammer pin(epoch 1) while retention passes run. Every
    // pin must either observe a live epoch (and replay it) or fail
    // kNotFound — no reader over retired storage, no crash.
    std::atomic<bool> done{false};
    std::atomic<uint64_t> attempts{0};
    std::thread retirer([&] {
        while (!done.load(std::memory_order_relaxed))
            EXPECT_TRUE(catalog.applyRetention("clicks").ok());
    });
    std::vector<std::thread> pinners;
    for (int t = 0; t < 4; ++t) {
        pinners.emplace_back([&] {
            for (int i = 0; i < 200; ++i) {
                auto pin = catalog.pin("clicks", 1);
                ++attempts;
                if (pin.ok()) {
                    RowBatch rows;
                    EXPECT_TRUE(pin->readPartition(0, rows).ok());
                    EXPECT_EQ(rows.numRows(), smallConfig().batch_size);
                } else {
                    EXPECT_EQ(pin.status().code(), StatusCode::kNotFound);
                }
            }
        });
    }
    for (std::thread& t : pinners)
        t.join();
    done.store(true);
    retirer.join();
    EXPECT_EQ(attempts.load(), 800u);

    // With every pin released, the epoch's window closes for good.
    while (!catalog.epochRetired("clicks", 1).value())
        ASSERT_TRUE(catalog.applyRetention("clicks").ok());
    EXPECT_EQ(catalog.pin("clicks", 1).status().code(),
              StatusCode::kNotFound);
    EXPECT_EQ(catalog.pinCount("clicks", 1).value(), 0u);
}

// --- Retention, persistent mode --------------------------------------

TEST(RetentionTest, PersistentRetireReclaimsDiskAndSurvivesPins)
{
    const std::string dir_a = freshDir("ret_shard_a");
    const std::string dir_b = freshDir("ret_shard_b");
    auto shard_a = openStore(dir_a);
    auto shard_b = openStore(dir_b);

    DatasetCatalog catalog;
    DatasetSpec spec = smallSpec("clicks");
    spec.retain_epochs = 2;
    ASSERT_TRUE(catalog
                    .registerDataset(spec, {shard_a.get(), shard_b.get()})
                    .ok());

    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());
    auto pinned = catalog.pin("clicks", 1);
    ASSERT_TRUE(pinned.ok());
    const auto baseline = snapshotEpoch(pinned.value());

    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(catalog.publishEpoch("clicks").ok());
    const uint64_t before = catalog.liveBytes("clicks").value();
    auto report = catalog.applyRetention("clicks");
    ASSERT_TRUE(report.ok());
    // Epochs 2 and 3 retire (1 is pinned, 4..5 retained).
    EXPECT_EQ(report->epochs_retired, 2u);
    EXPECT_EQ(report->epochs_kept_pinned, 1u);
    EXPECT_GT(report->bytes_reclaimed, 0u);
    EXPECT_EQ(catalog.liveBytes("clicks").value(),
              before - report->bytes_reclaimed);

    // The pinned epoch still replays bit-identically off the shards.
    EXPECT_EQ(snapshotEpoch(pinned.value()), baseline);
    for (uint64_t epoch : {2u, 3u}) {
        EXPECT_TRUE(catalog.epochRetired("clicks", epoch).value());
        for (size_t index = 0; index < 4; ++index) {
            SegmentStore* shard =
                index % 2 == 0 ? shard_a.get() : shard_b.get();
            EXPECT_EQ(shard
                          ->segmentForPartition(
                              epochPartitionId(epoch, index))
                          .status()
                          .code(),
                      StatusCode::kNotFound);
        }
    }
}

TEST(RetentionTest, RecoveryCompletesPartialRetire)
{
    const std::string dir_a = freshDir("ret_partial_a");
    const std::string dir_b = freshDir("ret_partial_b");
    std::vector<std::vector<uint8_t>> head_baseline;

    // Publish three epochs, then simulate a crash mid-retire of epoch 1
    // by retiring only its shard-a segments before "going down".
    {
        auto shard_a = openStore(dir_a);
        auto shard_b = openStore(dir_b);
        DatasetCatalog catalog;
        ASSERT_TRUE(catalog
                        .registerDataset(smallSpec("clicks"),
                                         {shard_a.get(), shard_b.get()})
                        .ok());
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(catalog.publishEpoch("clicks").ok());
        auto head = catalog.pin("clicks", 3);
        ASSERT_TRUE(head.ok());
        head_baseline = snapshotEpoch(head.value());

        for (size_t index = 0; index < 4; index += 2) {
            auto info = shard_a->segmentForPartition(
                epochPartitionId(1, index));
            ASSERT_TRUE(info.ok());
            ASSERT_TRUE(
                shard_a->retireSegment(info->meta.segment_id).ok());
        }
    }

    // Re-open: recovery must classify epoch 1 (partial, below the
    // fully-live head 3) as crash-mid-retire and finish the job.
    {
        auto shard_a = openStore(dir_a);
        auto shard_b = openStore(dir_b);
        DatasetCatalog catalog;
        DatasetSpec spec = smallSpec("clicks");
        spec.retain_epochs = 2;
        ASSERT_TRUE(catalog
                        .registerDataset(spec,
                                         {shard_a.get(), shard_b.get()})
                        .ok());
        EXPECT_EQ(catalog.headEpoch("clicks").value(), 3u);
        EXPECT_TRUE(catalog.epochRetired("clicks", 1).value());
        EXPECT_EQ(catalog.pin("clicks", 1).status().code(),
                  StatusCode::kNotFound);
        for (size_t index = 0; index < 4; ++index) {
            SegmentStore* shard =
                index % 2 == 0 ? shard_a.get() : shard_b.get();
            EXPECT_EQ(shard
                          ->segmentForPartition(epochPartitionId(1, index))
                          .status()
                          .code(),
                      StatusCode::kNotFound)
                << "partition " << index << " of epoch 1 survived";
        }

        // Epoch 2 (fully live, below head) and the head are untouched.
        EXPECT_FALSE(catalog.epochRetired("clicks", 2).value());
        EXPECT_TRUE(catalog.pin("clicks", 2).ok());
        auto head = catalog.pin("clicks", 3);
        ASSERT_TRUE(head.ok());
        EXPECT_EQ(snapshotEpoch(head.value()), head_baseline);
    }
}

// --- Hot memory tier -------------------------------------------------

TEST(RetentionTest, PublishPromotesHeadIntoHotTier)
{
    DatasetCatalog catalog;
    DatasetSpec spec = smallSpec("clicks");
    spec.retain_epochs = 2;
    spec.hot_tier_bytes = 16u << 20;
    ASSERT_TRUE(catalog.registerDataset(spec).ok());
    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());
    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());

    auto head = catalog.pin("clicks", 2);
    auto old_epoch = catalog.pin("clicks", 1);
    ASSERT_TRUE(head.ok());
    ASSERT_TRUE(old_epoch.ok());

    for (size_t index = 0; index < 4; ++index) {
        bool hot = false;
        ASSERT_TRUE(head->fetchEncoded(index, 0, &hot).ok());
        EXPECT_TRUE(hot) << "head partition " << index << " not hot";
        hot = true;
        ASSERT_TRUE(old_epoch->fetchEncoded(index, 0, &hot).ok());
        EXPECT_FALSE(hot) << "old partition " << index << " served hot";
    }

    // The next publish flips the tier: epoch 3 hot, epoch 2 demoted.
    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());
    auto new_head = catalog.pin("clicks", 3);
    ASSERT_TRUE(new_head.ok());
    bool hot = false;
    ASSERT_TRUE(new_head->fetchEncoded(0, 0, &hot).ok());
    EXPECT_TRUE(hot);
    hot = true;
    ASSERT_TRUE(head->fetchEncoded(0, 0, &hot).ok());
    EXPECT_FALSE(hot);
}

TEST(PartitionStoreTieringTest, HotTierBudgetAndRetire)
{
    // The store borrows the generator; keep it alive for the test.
    RawDataGenerator generator(smallConfig());
    PartitionStore store(generator);

    // No budget: promotion is a precondition failure.
    EXPECT_EQ(store.promotePartition(1).code(),
              StatusCode::kFailedPrecondition);

    store.setHotTierBudget(1u << 20);
    ASSERT_TRUE(store.promotePartition(1).ok());
    ASSERT_TRUE(store.promotePartition(1).ok());  // idempotent
    EXPECT_EQ(store.hotTierCount(), 1u);
    EXPECT_GT(store.hotTierBytes(), 0u);

    bool hot = false;
    ASSERT_TRUE(store.fetchPartition(1, 0, &hot).ok());
    EXPECT_TRUE(hot);
    EXPECT_EQ(store.hotTierHits(), 1u);
    ASSERT_TRUE(store.fetchPartition(2, 0, &hot).ok());
    EXPECT_FALSE(hot);
    EXPECT_EQ(store.coldFetches(), 1u);

    // One buffer per partition: the hot tier shares the cached bytes
    // instead of copying them, and a clean fetch shares them too.
    auto hot_bytes = store.fetchShared(1);
    ASSERT_TRUE(hot_bytes.ok());
    EXPECT_EQ(hot_bytes->get(), store.partition(1).get());
    auto cold_bytes = store.fetchShared(2);
    ASSERT_TRUE(cold_bytes.ok());
    EXPECT_EQ(cold_bytes->get(), store.partition(2).get());

    // A budget smaller than one partition rejects promotion.
    store.demotePartition(1);
    EXPECT_EQ(store.hotTierBytes(), 0u);
    store.setHotTierBudget(1);
    EXPECT_EQ(store.promotePartition(1).code(),
              StatusCode::kResourceExhausted);

    // Retired partitions are unfetchable and unpromotable.
    store.setHotTierBudget(1u << 20);
    auto reclaimed = store.retirePartition(2);
    ASSERT_TRUE(reclaimed.ok());
    EXPECT_GT(reclaimed.value(), 0u);  // cached encoding was dropped
    EXPECT_TRUE(store.isRetired(2));
    EXPECT_EQ(store.fetchPartition(2).status().code(),
              StatusCode::kNotFound);
    EXPECT_EQ(store.promotePartition(2).code(), StatusCode::kNotFound);
}

TEST(PartitionStoreTieringTest, PromotionServesDurableBytesAfterEviction)
{
    // Two stores over one generator and one segment store: the first
    // commits partitions uncompressed, the second would encode them
    // with the full codec menu. Promotion through the second must hand
    // out the committed bytes, not a re-encode with its own writer.
    RawDataGenerator generator(smallConfig());
    auto segments = openStore(freshDir("promote_durable"));
    WriterOptions plain;
    plain.codec = PageCodec::kNone;
    PartitionStore committer(generator, plain);
    committer.enablePersistence(segments.get());
    ASSERT_TRUE(committer.persistPartition(1).ok());
    ASSERT_TRUE(committer.persistPartition(2).ok());

    WriterOptions full;
    full.codec = PageCodec::kLzEntropy;
    PartitionStore store(generator, full);
    store.enablePersistence(segments.get());
    const uint64_t partition_bytes = committer.partitionBytes(1);
    store.setCacheBudget(partition_bytes / 2);  // below one partition
    store.setHotTierBudget(4 * partition_bytes);
    ASSERT_TRUE(store.fetchShared(1).ok());
    ASSERT_TRUE(store.fetchShared(2).ok());  // evicts partition 1
    ASSERT_EQ(store.evictions(), 1u);

    const uint64_t disk_reads = store.diskReads();
    ASSERT_TRUE(store.promotePartition(1).ok());
    EXPECT_EQ(store.diskReads(), disk_reads + 1);
    bool hot = false;
    auto served = store.fetchShared(1, 0, &hot);
    ASSERT_TRUE(served.ok());
    EXPECT_TRUE(hot);
    auto info = segments->segmentForPartition(1);
    ASSERT_TRUE(info.ok());
    auto durable = segments->readSegmentRaw(info->meta.segment_id);
    ASSERT_TRUE(durable.ok());
    EXPECT_EQ(**served, *durable);
    // The second store's own encoding differs, so the check above
    // tells a shared segment from a re-encode.
    EXPECT_NE(*durable, ColumnarFileWriter(full).write(
                            generator.generatePartition(1), 1));
}

TEST(PartitionStoreTieringTest, PromotionOfCorruptSegmentLeavesItCold)
{
    RawDataGenerator generator(smallConfig());
    auto segments = openStore(freshDir("promote_corrupt"));
    PartitionStore store(generator);
    store.enablePersistence(segments.get());
    auto segment_id = store.persistPartition(1);
    ASSERT_TRUE(segment_id.ok());
    const std::vector<uint8_t> pristine = *store.partition(1);
    store.setCacheBudget(1);  // hold nothing but the latest partition
    ASSERT_TRUE(store.fetchShared(2).ok());  // evicts partition 1

    // Flip one byte of the committed segment on disk.
    auto info = segments->segmentForPartition(1);
    ASSERT_TRUE(info.ok());
    const std::string path = segments->segmentPath(info->meta);
    auto bytes = loadFromFile(path);
    ASSERT_TRUE(bytes.ok());
    (*bytes)[bytes->size() / 2] ^= 0x01;
    ASSERT_TRUE(saveToFile(path, *bytes).ok());

    store.setHotTierBudget(1u << 20);
    EXPECT_EQ(store.promotePartition(1).code(), StatusCode::kCorruption);
    EXPECT_EQ(store.hotTierCount(), 0u);
    // The read quarantined the segment; the next cold fetch
    // re-materializes the same bytes from the generator.
    bool hot = true;
    auto refetched = store.fetchShared(1, 0, &hot);
    ASSERT_TRUE(refetched.ok());
    EXPECT_FALSE(hot);
    EXPECT_EQ(**refetched, pristine);
}

TEST(IngestServiceTest, SessionStatsSeparateHotAndColdFetches)
{
    DatasetCatalog catalog;
    DatasetSpec spec = smallSpec("clicks");
    spec.hot_tier_bytes = 16u << 20;
    ASSERT_TRUE(catalog.registerDataset(spec).ok());
    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());

    ServiceOptions options;
    options.workers = 1;
    IngestService service(catalog, options);
    TenantSpec tenant;
    tenant.name = "trainer";
    tenant.dataset = "clicks";
    auto session = service.openSession(tenant);
    ASSERT_TRUE(session.ok());
    for (int i = 0; i < 8; ++i)
        ASSERT_TRUE(service.nextBatch(session.value()).ok());

    auto stats = service.sessionStats(session.value());
    ASSERT_TRUE(stats.ok());
    // The head epoch is hot-promoted at publish: every fetch hits.
    EXPECT_GE(stats->hot_tier_hits, 8u);
    EXPECT_EQ(stats->cold_fetches, 0u);
    ASSERT_TRUE(service.closeSession(session.value()).ok());
}

// --- Pin-aware scrub -------------------------------------------------

TEST(RetentionTest, ScrubPrioritizesPinnedEpochs)
{
    const std::string dir_a = freshDir("scrub_shard_a");
    const std::string dir_b = freshDir("scrub_shard_b");
    auto shard_a = openStore(dir_a);
    auto shard_b = openStore(dir_b);

    DatasetCatalog catalog;
    ASSERT_TRUE(catalog
                    .registerDataset(smallSpec("clicks"),
                                     {shard_a.get(), shard_b.get()})
                    .ok());
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(catalog.publishEpoch("clicks").ok());

    // Pin epoch 2; the catalog's priority hook must steer both shards'
    // scrub cursors to epoch 2's segments first.
    auto pinned = catalog.pin("clicks", 2);
    ASSERT_TRUE(pinned.ok());
    for (SegmentStore* shard : {shard_a.get(), shard_b.get()}) {
        // Each shard holds 2 partitions per epoch; scrub a budget that
        // covers at most the pinned epoch's pages.
        auto verified = shard->scrubSome(2);
        ASSERT_TRUE(verified.ok());
        EXPECT_GT(verified.value(), 0u);
        const ScrubCounters counters = shard->scrubCounters();
        EXPECT_EQ(counters.pages_prioritized, counters.pages_total)
            << "scrub visited an unpinned segment before the pinned epoch";
    }
}

// --- DES lifecycle replay --------------------------------------------

TEST(ServiceScenarioTest, LifecycleBoundsFootprintAndSplitsTiers)
{
    ScenarioOptions options;
    options.devices = 8;
    options.service_sec = 0.2;
    options.duration_sec = 3600;
    options.lifecycle.publish_period_sec = 450;
    options.lifecycle.retain_epochs = 2;
    options.lifecycle.epoch_bytes = 1u << 30;
    options.lifecycle.cold_extra_sec = 0.1;

    ScenarioTenant hot;
    hot.name = "ranker";
    hot.traffic.diurnal.mean_batches_per_sec = 4.0;
    hot.traffic.diurnal.period_sec = options.duration_sec;
    ScenarioTenant cold;
    cold.name = "backfill";
    cold.traffic.diurnal.mean_batches_per_sec = 2.0;
    cold.traffic.diurnal.period_sec = options.duration_sec;
    cold.pin_lag_epochs = 2;
    cold.hold_pin_until_sec = options.duration_sec;

    const ScenarioReport report =
        runServiceScenario(options, {hot, cold});
    const LifecycleReport& life = report.lifecycle;
    EXPECT_EQ(life.epochs_published, 8u);
    EXPECT_GT(life.epochs_retired, 0u);
    EXPECT_GT(life.epochs_kept_pinned, 0u);
    EXPECT_TRUE(life.footprint_bounded);
    EXPECT_LE(life.final_live_bytes,
              life.peak_live_bytes);
    EXPECT_GT(life.hot_served, 0u);
    EXPECT_GT(life.cold_served, 0u);
    EXPECT_GT(life.mean_cold_latency_sec, life.mean_hot_latency_sec);
    // The head-follower streams hot; the pinned backfill streams cold.
    EXPECT_GT(report.tenants[0].hot_served, report.tenants[0].cold_served);
    EXPECT_GT(report.tenants[1].cold_served, 0u);
    EXPECT_NE(report.tenants[1].pinned_epoch, 0u);

    // Determinism: bit-identical lifecycle outcome on replay.
    const ScenarioReport replay =
        runServiceScenario(options, {hot, cold});
    EXPECT_EQ(replay.lifecycle.epochs_retired, life.epochs_retired);
    EXPECT_EQ(replay.lifecycle.final_live_bytes, life.final_live_bytes);
    EXPECT_EQ(replay.lifecycle.hot_served, life.hot_served);
    EXPECT_EQ(replay.lifecycle.cold_served, life.cold_served);
}

}  // namespace
}  // namespace presto
