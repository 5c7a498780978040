/**
 * @file
 * Service-tier tests: epoch-versioned DatasetCatalog (including crash
 * mid-publish and recovery), admission control, the shared WFQ
 * scheduler, the threaded IngestService (backpressure, strict order,
 * epoch pinning, weighted shares, no catch-up burst after a stall), the
 * DES service scenario (fair shares, determinism, bounded queues), and
 * the PartitionStore cache budget the catalog builds on.
 */
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "columnar/columnar_file.h"
#include "common/fault_injector.h"
#include "core/partition_store.h"
#include "core/wfq.h"
#include "datagen/generator.h"
#include "service/admission.h"
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

// --- Admission policy (pure function) --------------------------------

TEST(AdmissionTest, AdmitsWithinBudgetRejectsSaturation)
{
    AdmissionInput light{"light", 2.0, 0.1, 1.0};
    AdmissionDecision d = evaluateAdmission({}, light, 1.0);
    EXPECT_TRUE(d.admitted);
    EXPECT_TRUE(d.reason.empty());
    EXPECT_NEAR(d.projected_utilization, 0.2, 1e-9);
    EXPECT_NEAR(d.projected_p99_sec, projectedP99Sec(0.1, 0.2), 1e-12);

    AdmissionInput heavy{"heavy", 20.0, 0.1, 0.0};
    d = evaluateAdmission({light}, heavy, 1.0);
    EXPECT_FALSE(d.admitted);
    EXPECT_NE(d.reason.find("stable limit"), std::string::npos);
}

TEST(AdmissionTest, RejectsWhenAdmittedTenantSloWouldBreak)
{
    // Alone, "tight" projects well under its 0.15s budget.
    AdmissionInput tight{"tight", 1.0, 0.1, 0.15};
    ASSERT_TRUE(evaluateAdmission({}, tight, 1.0).admitted);

    // The candidate stays under the stable-utilization limit but drags
    // rho (and with it tight's projected p99) past tight's budget.
    AdmissionInput pusher{"pusher", 6.0, 0.1, 0.0};
    const AdmissionDecision d = evaluateAdmission({tight}, pusher, 1.0);
    EXPECT_FALSE(d.admitted);
    EXPECT_NE(d.reason.find("tight"), std::string::npos);
}

TEST(AdmissionTest, P99ProjectionMonotoneAndSaturating)
{
    EXPECT_NEAR(projectedP99Sec(0.2, 0.0), 0.2, 1e-12);
    EXPECT_LT(projectedP99Sec(0.2, 0.3), projectedP99Sec(0.2, 0.8));
    EXPECT_GE(projectedP99Sec(0.2, 1.0), 1e8);  // saturated: no promise
}

// --- WfqScheduler (shared by the service and the DES) -----------------

TEST(WfqSchedulerTest, WeightedOrderTiesAndWake)
{
    using Order = std::vector<uint64_t>;
    const auto all = [](uint64_t) { return true; };
    const auto only = [](uint64_t want) {
        return [want](uint64_t id) { return id == want; };
    };
    const auto picks = [](WfqScheduler& wfq, const auto& eligible, int n) {
        Order order;
        for (int i = 0; i < n; ++i)
            order.push_back(*wfq.pick(eligible));
        return order;
    };

    WfqScheduler wfq;
    wfq.join(1, 2.0);
    wfq.join(2, 1.0);
    // 2:1 order; equal tags go to the lower id.
    EXPECT_EQ(picks(wfq, all, 6), (Order{1, 2, 1, 1, 2, 1}));
    // A flow joining mid-stream starts at the system virtual time (the
    // last pick's tag, 1.5), so it is served once, not twice, before
    // the others (tags 2.0) get their turn.
    wfq.join(3, 1.0);
    EXPECT_EQ(picks(wfq, all, 3), (Order{3, 1, 2}));
    // The caller's predicate decides eligibility.
    EXPECT_EQ(*wfq.pick(only(2)), 2u);
    EXPECT_FALSE(wfq.pick([](uint64_t) { return false; }).has_value());
    wfq.leave(3);
    EXPECT_FALSE(wfq.pick(only(3)).has_value());
    for (uint64_t id : picks(wfq, all, 6))
        EXPECT_NE(id, 3u);

    // Flow 2 idles while flow 1 is served ten times. Woken, it rejoins
    // at the system virtual time and alternates with flow 1 instead of
    // taking ten picks in a row.
    WfqScheduler idle;
    idle.join(1, 1.0);
    idle.join(2, 1.0);
    picks(idle, only(1), 10);
    idle.wake(2);
    EXPECT_EQ(picks(idle, all, 4), (Order{2, 1, 2, 1}));
    // Waking never lowers a tag that is already ahead (flow 1: 12 vs a
    // system virtual time of 11), so flow 2 still goes next.
    idle.wake(1);
    EXPECT_EQ(*idle.pick(all), 2u);
}

TEST(WfqSchedulerTest, RejectsDegenerateWeights)
{
    for (double weight : {0.0, -1.0,
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
        const Status st = WfqScheduler::checkWeight(weight);
        EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
            << "weight=" << weight;
        EXPECT_EQ(st.message(), "weight must be positive");
    }
    EXPECT_TRUE(WfqScheduler::checkWeight(0.5).ok());
}

// --- DatasetCatalog, in-memory mode ----------------------------------

TEST(DatasetCatalogTest, PublishAdvancesHeadAtomically)
{
    DatasetCatalog catalog;
    ASSERT_TRUE(catalog.registerDataset(smallSpec("clicks")).ok());

    auto head = catalog.headEpoch("clicks");
    ASSERT_TRUE(head.ok());
    EXPECT_EQ(head.value(), 0u);
    EXPECT_FALSE(catalog.pin("clicks").ok());  // nothing published yet

    auto epoch = catalog.publishEpoch("clicks");
    ASSERT_TRUE(epoch.ok());
    EXPECT_EQ(epoch.value(), 1u);

    auto reader = catalog.pin("clicks");
    ASSERT_TRUE(reader.ok());
    EXPECT_EQ(reader.value().epoch(), 1u);
    EXPECT_EQ(reader.value().numPartitions(), 4u);
    EXPECT_EQ(reader.value().partitionId(2), epochPartitionId(1, 2));
    EXPECT_EQ(reader.value().shardOf(3), 3u % 2u);

    RowBatch rows;
    ASSERT_TRUE(reader.value().readPartition(0, rows).ok());
    EXPECT_EQ(rows.numRows(), smallConfig().batch_size);

    EXPECT_FALSE(catalog.pin("clicks", 2).ok());  // future epoch
    EXPECT_FALSE(catalog.pin("nope").ok());       // unknown dataset
}

TEST(DatasetCatalogTest, PinnedEpochBitIdenticalUnderConcurrentPublish)
{
    DatasetCatalog catalog;
    ASSERT_TRUE(catalog.registerDataset(smallSpec("clicks")).ok());
    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());

    auto reader = catalog.pin("clicks", 1);
    ASSERT_TRUE(reader.ok());
    const auto baseline = snapshotEpoch(reader.value());

    // Publish four more epochs while the pinned reader replays its own.
    std::thread publisher([&catalog] {
        for (int i = 0; i < 4; ++i)
            ASSERT_TRUE(catalog.publishEpoch("clicks").ok());
    });
    for (int pass = 0; pass < 8; ++pass)
        EXPECT_EQ(snapshotEpoch(reader.value()), baseline);
    publisher.join();

    EXPECT_EQ(catalog.headEpoch("clicks").value(), 5u);
    EXPECT_EQ(reader.value().epoch(), 1u);
    EXPECT_EQ(snapshotEpoch(reader.value()), baseline);

    // The pinned epoch outlives the catalog itself.
    auto survivor = catalog.pin("clicks", 1);
    ASSERT_TRUE(survivor.ok());
    {
        DatasetCatalog ephemeral;  // NOLINT: scope illustration
    }
    EXPECT_EQ(snapshotEpoch(survivor.value()), baseline);
}

// --- DatasetCatalog, persistent mode + crash mid-publish -------------

std::unique_ptr<SegmentStore>
openStore(const std::string& dir, const FaultInjector* faults)
{
    SegmentStoreOptions options;
    options.directory = dir;
    options.faults = faults;
    auto store = SegmentStore::open(options);
    EXPECT_TRUE(store.ok());
    return std::move(store.value());
}

TEST(DatasetCatalogTest, CrashMidPublishLeavesHeadAndRecovers)
{
    const std::string dir_a = freshDir("svc_shard_a");
    const std::string dir_b = freshDir("svc_shard_b");
    std::vector<std::vector<uint8_t>> baseline;

    // Phase 1: publish epoch 1 durably.
    {
        auto shard_a = openStore(dir_a, nullptr);
        auto shard_b = openStore(dir_b, nullptr);
        DatasetCatalog catalog;
        ASSERT_TRUE(catalog
                        .registerDataset(smallSpec("clicks"),
                                         {shard_a.get(), shard_b.get()})
                        .ok());
        ASSERT_TRUE(catalog.publishEpoch("clicks").ok());
        auto reader = catalog.pin("clicks", 1);
        ASSERT_TRUE(reader.ok());
        baseline = snapshotEpoch(reader.value());
    }

    // Phase 2: crash partway through publishing epoch 2. The head must
    // not move and epoch 1 must stay bit-identical.
    {
        FaultSpec spec;
        spec.crash_at_durable_op = 5;
        FaultInjector faults(spec);
        auto shard_a = openStore(dir_a, &faults);
        auto shard_b = openStore(dir_b, &faults);
        DatasetCatalog catalog;
        ASSERT_TRUE(catalog
                        .registerDataset(smallSpec("clicks"),
                                         {shard_a.get(), shard_b.get()})
                        .ok());
        EXPECT_EQ(catalog.headEpoch("clicks").value(), 1u);

        auto published = catalog.publishEpoch("clicks");
        EXPECT_FALSE(published.ok());
        EXPECT_EQ(catalog.headEpoch("clicks").value(), 1u);
        EXPECT_FALSE(catalog.pin("clicks", 2).ok());
    }

    // Phase 3: recover without faults. The head resumes at the last
    // fully-published epoch; re-publishing epoch 2 is idempotent over
    // whatever partitions the crash left committed.
    {
        auto shard_a = openStore(dir_a, nullptr);
        auto shard_b = openStore(dir_b, nullptr);
        DatasetCatalog catalog;
        ASSERT_TRUE(catalog
                        .registerDataset(smallSpec("clicks"),
                                         {shard_a.get(), shard_b.get()})
                        .ok());
        EXPECT_EQ(catalog.headEpoch("clicks").value(), 1u);

        auto reader = catalog.pin("clicks", 1);
        ASSERT_TRUE(reader.ok());
        EXPECT_EQ(snapshotEpoch(reader.value()), baseline);

        auto republished = catalog.publishEpoch("clicks");
        ASSERT_TRUE(republished.ok());
        EXPECT_EQ(republished.value(), 2u);
        auto epoch2 = catalog.pin("clicks", 2);
        ASSERT_TRUE(epoch2.ok());
        RowBatch rows;
        ASSERT_TRUE(epoch2.value().readPartition(1, rows).ok());
        EXPECT_EQ(rows.numRows(), smallConfig().batch_size);
        EXPECT_EQ(snapshotEpoch(reader.value()), baseline);
    }
}

/** Every file of @p dir: name -> bytes. */
std::map<std::string, std::vector<uint8_t>>
dirContents(const std::string& dir)
{
    std::map<std::string, std::vector<uint8_t>> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        std::ifstream in(entry.path(), std::ios::binary);
        files[entry.path().filename().string()] = std::vector<uint8_t>(
            std::istreambuf_iterator<char>(in), {});
    }
    return files;
}

TEST(DatasetCatalogTest, ParallelPublishIsByteIdenticalToSerialPersist)
{
    // publishEpoch encodes partitions on many threads but commits them
    // in partition order, so its journals and segment files equal those
    // of persisting every partition serially in that same order.
    constexpr size_t kShards = 2;
    constexpr uint64_t kEpochs = 2;
    // More partitions than a 4-core host's first wave.
    const DatasetSpec spec = smallSpec("clicks", 6, kShards);
    std::vector<std::string> parallel_dirs;
    std::vector<std::string> serial_dirs;
    std::vector<std::unique_ptr<SegmentStore>> parallel;
    std::vector<std::unique_ptr<SegmentStore>> serial;
    for (size_t s = 0; s < kShards; ++s) {
        const std::string shard = std::to_string(s);
        parallel_dirs.push_back(freshDir("svc_publish_parallel_" + shard));
        serial_dirs.push_back(freshDir("svc_publish_serial_" + shard));
        parallel.push_back(openStore(parallel_dirs[s], nullptr));
        serial.push_back(openStore(serial_dirs[s], nullptr));
    }

    DatasetCatalog catalog;
    ASSERT_TRUE(catalog
                    .registerDataset(spec,
                                     {parallel[0].get(), parallel[1].get()})
                    .ok());
    for (uint64_t epoch = 1; epoch <= kEpochs; ++epoch)
        ASSERT_EQ(catalog.publishEpoch("clicks").value(), epoch);

    RawDataGenerator generator(spec.config, spec.generator);
    std::vector<std::unique_ptr<PartitionStore>> stores;
    for (size_t s = 0; s < kShards; ++s) {
        stores.push_back(std::make_unique<PartitionStore>(generator));
        stores.back()->enablePersistence(serial[s].get());
    }
    for (uint64_t epoch = 1; epoch <= kEpochs; ++epoch) {
        for (uint64_t i = 0; i < spec.partitions_per_epoch; ++i) {
            ASSERT_TRUE(stores[i % kShards]
                            ->persistPartition(epochPartitionId(epoch, i))
                            .ok());
        }
    }

    for (size_t s = 0; s < kShards; ++s) {
        const auto got = dirContents(parallel_dirs[s]);
        const auto want = dirContents(serial_dirs[s]);
        // The journal plus one segment per partition of the shard.
        EXPECT_EQ(got.size(),
                  1 + kEpochs * spec.partitions_per_epoch / kShards);
        ASSERT_EQ(got.size(), want.size()) << "shard " << s;
        for (const auto& [name, bytes] : want) {
            ASSERT_EQ(got.count(name), 1u) << name;
            EXPECT_TRUE(got.at(name) == bytes) << "shard " << s << ": "
                                               << name << " differs";
        }
    }
}

// --- IngestService (threaded) ----------------------------------------

TEST(IngestServiceTest, BackpressureBoundsQueueAndPreservesOrder)
{
    DatasetCatalog catalog;
    ASSERT_TRUE(catalog.registerDataset(smallSpec("clicks")).ok());
    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());

    ServiceOptions options;
    options.workers = 2;
    IngestService service(catalog, options);

    TenantSpec tenant;
    tenant.name = "trainer";
    tenant.dataset = "clicks";
    tenant.queue_capacity = 2;
    auto session = service.openSession(tenant);
    ASSERT_TRUE(session.ok());

    // Consume two epochs' worth; delivery is strictly sequential and
    // wraps the 4-partition epoch.
    for (uint64_t i = 0; i < 8; ++i) {
        auto delivered = service.nextBatch(session.value());
        ASSERT_TRUE(delivered.ok());
        EXPECT_EQ(delivered.value().sequence, i);
        EXPECT_EQ(delivered.value().partition_index, i % 4);
        EXPECT_EQ(delivered.value().epoch, 1u);
        ASSERT_NE(delivered.value().batch, nullptr);
        EXPECT_EQ(delivered.value().batch->batch_size,
                  smallConfig().batch_size);
        EXPECT_TRUE(delivered.value().batch->consistent());
    }

    auto stats = service.sessionStats(session.value());
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().delivered, 8u);
    EXPECT_GE(stats.value().produced, 8u);
    EXPECT_LE(stats.value().max_queue_occupancy, tenant.queue_capacity);

    ASSERT_TRUE(service.closeSession(session.value()).ok());
    EXPECT_FALSE(service.nextBatch(session.value()).ok());
    EXPECT_FALSE(service.closeSession(session.value()).ok());
}

TEST(IngestServiceTest, AdmissionRejectsOverloadWithReason)
{
    DatasetCatalog catalog;
    ASSERT_TRUE(catalog.registerDataset(smallSpec("clicks")).ok());
    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());

    ServiceOptions options;
    options.workers = 1;
    options.service_sec_override = 0.1;
    IngestService service(catalog, options);

    TenantSpec modest;
    modest.name = "modest";
    modest.dataset = "clicks";
    modest.peak_batches_per_sec = 5.0;
    modest.slo_p99_sec = 1.0;
    auto admitted = service.openSession(modest);
    ASSERT_TRUE(admitted.ok());

    TenantSpec greedy;
    greedy.name = "greedy";
    greedy.dataset = "clicks";
    greedy.peak_batches_per_sec = 20.0;  // rho would hit 2.5
    const AdmissionDecision probe = service.admissionProbe(greedy);
    EXPECT_FALSE(probe.admitted);
    EXPECT_FALSE(probe.reason.empty());

    auto rejected = service.openSession(greedy);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(rejected.status().message().find("greedy"),
              std::string::npos);

    ASSERT_TRUE(service.closeSession(admitted.value()).ok());
}

TEST(IngestServiceTest, RejectsDegenerateWeights)
{
    DatasetCatalog catalog;
    ASSERT_TRUE(catalog.registerDataset(smallSpec("clicks")).ok());
    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());
    IngestService service(catalog);

    TenantSpec tenant;
    tenant.name = "trainer";
    tenant.dataset = "clicks";

    // weight = 0 would starve via vtime += 1/0 = inf; negative would
    // monopolize the workers. Both must be rejected up front.
    for (double weight : {0.0, -1.0,
                          std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN()}) {
        tenant.weight = weight;
        auto session = service.openSession(tenant);
        ASSERT_FALSE(session.ok()) << "weight=" << weight;
        EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
    }

    tenant.weight = 0.5;
    auto session = service.openSession(tenant);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(service.closeSession(session.value()).ok());
}

TEST(IngestServiceTest, AdmissionProbeMatchesOpenSessionOnBadSpecs)
{
    DatasetCatalog catalog;
    ASSERT_TRUE(catalog.registerDataset(smallSpec("clicks")).ok());
    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());
    IngestService service(catalog);

    // Unknown dataset: the probe must not report admitted when
    // openSession would fail to pin.
    TenantSpec unknown;
    unknown.name = "ghost";
    unknown.dataset = "nope";
    const AdmissionDecision bad_dataset = service.admissionProbe(unknown);
    EXPECT_FALSE(bad_dataset.admitted);
    EXPECT_FALSE(bad_dataset.reason.empty());
    EXPECT_FALSE(service.openSession(unknown).ok());

    // Unpublished epoch: same contract for the explicit-epoch pin.
    TenantSpec future;
    future.name = "early";
    future.dataset = "clicks";
    future.epoch = 7;
    const AdmissionDecision bad_epoch = service.admissionProbe(future);
    EXPECT_FALSE(bad_epoch.admitted);
    EXPECT_FALSE(bad_epoch.reason.empty());
    EXPECT_FALSE(service.openSession(future).ok());
}

TEST(IngestServiceTest, SessionsStayPinnedWhileHeadAdvances)
{
    DatasetCatalog catalog;
    ASSERT_TRUE(catalog.registerDataset(smallSpec("clicks")).ok());
    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());

    IngestService service(catalog);

    TenantSpec tenant;
    tenant.name = "replay";
    tenant.dataset = "clicks";
    auto session = service.openSession(tenant);
    ASSERT_TRUE(session.ok());

    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());  // head -> 2

    for (int i = 0; i < 6; ++i) {
        auto delivered = service.nextBatch(session.value());
        ASSERT_TRUE(delivered.ok());
        EXPECT_EQ(delivered.value().epoch, 1u);  // pinned at open
    }

    TenantSpec fresh = tenant;
    fresh.name = "fresh";
    auto head_session = service.openSession(fresh);
    ASSERT_TRUE(head_session.ok());
    auto delivered = service.nextBatch(head_session.value());
    ASSERT_TRUE(delivered.ok());
    EXPECT_EQ(delivered.value().epoch, 2u);

    ASSERT_TRUE(service.closeSession(session.value()).ok());
    ASSERT_TRUE(service.closeSession(head_session.value()).ok());
}

/** Batches produced so far per tenant, from one snapshot. */
std::map<std::string, uint64_t>
producedByTenant(const IngestService& service)
{
    std::map<std::string, uint64_t> produced;
    for (const SessionStats& stats : service.allSessionStats())
        produced[stats.tenant] = stats.produced;
    return produced;
}

/** Sleep until @p tenant has produced at least @p count batches. */
void
waitForProduced(const IngestService& service, const std::string& tenant,
                uint64_t count)
{
    while (producedByTenant(service)[tenant] < count)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// The two WFQ tests below use one worker and queues deep enough never
// to fill while they measure, so a session without a pulling trainer
// stays backlogged and the pick order alone decides the counts.
constexpr size_t kDeepQueue = 512;

TEST(IngestServiceTest, WeightedSharesWithOneWorker)
{
    DatasetCatalog catalog;
    ASSERT_TRUE(catalog.registerDataset(smallSpec("clicks")).ok());
    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());

    ServiceOptions options;
    options.workers = 1;
    IngestService service(catalog, options);

    TenantSpec gold;
    gold.name = "gold";
    gold.dataset = "clicks";
    gold.weight = 2.0;
    gold.queue_capacity = kDeepQueue;
    TenantSpec bronze = gold;
    bronze.name = "bronze";
    bronze.weight = 1.0;
    auto gold_id = service.openSession(gold);
    auto bronze_id = service.openSession(bronze);
    ASSERT_TRUE(gold_id.ok());
    ASSERT_TRUE(bronze_id.ok());

    // Count from bronze's first batch on: until bronze opened, the
    // worker served gold alone.
    waitForProduced(service, "bronze", 1);
    std::map<std::string, uint64_t> before = producedByTenant(service);
    waitForProduced(service, "bronze", 61);
    std::map<std::string, uint64_t> after = producedByTenant(service);
    ASSERT_LT(after["gold"], kDeepQueue);
    const uint64_t gold_made = after["gold"] - before["gold"];
    const uint64_t bronze_made = after["bronze"] - before["bronze"];
    const double ratio = static_cast<double>(gold_made) /
                         static_cast<double>(bronze_made);
    EXPECT_GT(ratio, 1.8) << gold_made << " vs " << bronze_made;
    EXPECT_LT(ratio, 2.2) << gold_made << " vs " << bronze_made;

    ASSERT_TRUE(service.closeSession(*gold_id).ok());
    ASSERT_TRUE(service.closeSession(*bronze_id).ok());
}

TEST(IngestServiceTest, StalledSessionTakesNoCatchUpBurst)
{
    DatasetCatalog catalog;
    ASSERT_TRUE(catalog.registerDataset(smallSpec("clicks")).ok());
    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());

    ServiceOptions options;
    options.workers = 1;
    IngestService service(catalog, options);

    TenantSpec busy;
    busy.name = "busy";
    busy.dataset = "clicks";
    busy.queue_capacity = kDeepQueue;
    TenantSpec stalled = busy;
    stalled.name = "stalled";
    stalled.queue_capacity = 4;
    auto busy_id = service.openSession(busy);
    auto stalled_id = service.openSession(stalled);
    ASSERT_TRUE(busy_id.ok());
    ASSERT_TRUE(stalled_id.ok());

    // "stalled"'s trainer pulls nothing: its queue fills and the worker
    // serves "busy" alone for 60 batches.
    waitForProduced(service, "busy", 60);

    // The stalled trainer resumes. Back from idle, its session rejoins
    // at the system virtual time: the equal-weight sessions alternate
    // instead of "stalled" replaying the productions it sat out.
    const std::map<std::string, uint64_t> before = producedByTenant(service);
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(service.nextBatch(*stalled_id).ok());
    const std::map<std::string, uint64_t> after = producedByTenant(service);
    ASSERT_LT(after.at("busy"), kDeepQueue);

    const uint64_t busy_made = after.at("busy") - before.at("busy");
    const uint64_t stalled_made = after.at("stalled") - before.at("stalled");
    EXPECT_GE(stalled_made, 16u);
    EXPECT_GE(2 * busy_made, stalled_made)
        << "busy " << busy_made << " vs stalled " << stalled_made;

    ASSERT_TRUE(service.closeSession(*busy_id).ok());
    ASSERT_TRUE(service.closeSession(*stalled_id).ok());
}

TEST(IngestServiceTest, OneSessionKeepsEveryWorkerBusy)
{
    // One trainer, three workers: the session's next sequence numbers
    // are claimed by different workers and produced side by side.
    // RM1 partitions of 2048 rows keep each production busy long
    // enough for the claims to overlap; the trainer pulls nothing, so
    // the queue fills and must stop at its capacity.
    DatasetCatalog catalog;
    DatasetSpec spec = smallSpec("clicks");
    spec.config.batch_size = 2048;
    ASSERT_TRUE(catalog.registerDataset(spec).ok());
    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());

    ServiceOptions options;
    options.workers = 3;
    IngestService service(catalog, options);
    TenantSpec tenant;
    tenant.name = "trainer";
    tenant.dataset = "clicks";
    tenant.queue_capacity = 12;
    auto session = service.openSession(tenant);
    ASSERT_TRUE(session.ok());

    waitForProduced(service, "trainer", tenant.queue_capacity);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    auto stats = service.sessionStats(*session);
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->max_in_flight, 3u);
    EXPECT_EQ(stats->produced, tenant.queue_capacity);
    EXPECT_LE(stats->max_queue_occupancy, tenant.queue_capacity);

    // Delivery stays in partition order.
    for (uint64_t i = 0; i < 2 * tenant.queue_capacity; ++i) {
        auto got = service.nextBatch(*session);
        ASSERT_TRUE(got.ok()) << got.status().toString();
        EXPECT_EQ(got->sequence, i);
        EXPECT_EQ(got->partition_index, i % spec.partitions_per_epoch);
    }
    ASSERT_TRUE(service.closeSession(*session).ok());
}

/** Bitwise equality of two delivered batches. */
bool
sameBatch(const MiniBatch& a, const MiniBatch& b)
{
    const auto same_floats = [](const std::vector<float>& x,
                                const std::vector<float>& y) {
        return x.size() == y.size() &&
               std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) ==
                   0;
    };
    if (a.batch_size != b.batch_size || !same_floats(a.dense, b.dense) ||
        !same_floats(a.labels, b.labels) ||
        a.sparse.size() != b.sparse.size())
        return false;
    for (size_t t = 0; t < a.sparse.size(); ++t) {
        if (a.sparse[t].values != b.sparse[t].values ||
            a.sparse[t].lengths != b.sparse[t].lengths)
            return false;
    }
    return true;
}

TEST(IngestServiceTest, CorruptColdSegmentIsRematerializedNotFatal)
{
    // A session pinned to an old epoch streams it cold off disk once
    // the cache has moved on. A bit flip in one of its segment files
    // used to end the session: the segment's CRC error was latched as
    // the session error. The shared producer retries instead; the
    // retry finds the segment quarantined and re-materializes the same
    // bytes from the generator.
    const std::string dir_a = freshDir("svc_corrupt_a");
    const std::string dir_b = freshDir("svc_corrupt_b");
    auto shard_a = openStore(dir_a, nullptr);
    auto shard_b = openStore(dir_b, nullptr);
    DatasetSpec spec = smallSpec("clicks");
    DatasetCatalog catalog;
    {
        // Size the cache budget below one partition, so every epoch-1
        // fetch below is a cold disk read (and the hot tier, sized at
        // half the cache budget, holds nothing).
        RawDataGenerator probe(spec.config, spec.generator);
        spec.cache_budget_bytes =
            PartitionStore(probe).partitionBytes(epochPartitionId(1, 0)) /
            2;
    }
    ASSERT_TRUE(catalog
                    .registerDataset(spec, {shard_a.get(), shard_b.get()})
                    .ok());
    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());
    ASSERT_TRUE(catalog.publishEpoch("clicks").ok());

    // Flip one byte of epoch 1, partition 1 (shard b) on disk.
    const uint64_t victim = epochPartitionId(1, 1);
    auto info = shard_b->segmentForPartition(victim);
    ASSERT_TRUE(info.ok());
    const std::string path = shard_b->segmentPath(info->meta);
    auto bytes = loadFromFile(path);
    ASSERT_TRUE(bytes.ok());
    (*bytes)[info->meta.plans[0].offset + 8] ^= 0x01;
    ASSERT_TRUE(saveToFile(path, *bytes).ok());

    // Reference: the same epoch from a clean in-memory catalog.
    DatasetCatalog clean;
    DatasetSpec clean_spec = smallSpec("clicks");
    ASSERT_TRUE(clean.registerDataset(clean_spec).ok());
    ASSERT_TRUE(clean.publishEpoch("clicks").ok());

    TenantSpec tenant;
    tenant.name = "replay";
    tenant.dataset = "clicks";
    tenant.epoch = 1;
    IngestService service(catalog);
    IngestService reference(clean);
    auto session = service.openSession(tenant);
    auto clean_session = reference.openSession(tenant);
    ASSERT_TRUE(session.ok());
    ASSERT_TRUE(clean_session.ok());
    for (uint64_t i = 0; i < spec.partitions_per_epoch; ++i) {
        auto got = service.nextBatch(session.value());
        ASSERT_TRUE(got.ok()) << "partition " << i << ": "
                              << got.status().toString();
        auto want = reference.nextBatch(clean_session.value());
        ASSERT_TRUE(want.ok());
        EXPECT_EQ(got->epoch, 1u);
        EXPECT_EQ(got->partition_index, i);
        EXPECT_TRUE(sameBatch(*got->batch, *want->batch)) << i;
    }
    auto stats = service.sessionStats(session.value());
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->hot_tier_hits, 0u);
    EXPECT_GE(stats->cold_fetches, spec.partitions_per_epoch);

    // The bad segment ended quarantined, never silently served.
    EXPECT_EQ(shard_b->segmentForPartition(victim).status().code(),
              StatusCode::kNotFound);
    bool quarantined = false;
    for (const SegmentInfo& seg : shard_b->listSegments()) {
        if (seg.meta.segment_id == info->meta.segment_id)
            quarantined = seg.state == SegmentState::kQuarantined;
    }
    EXPECT_TRUE(quarantined);
}

// --- DES service scenario --------------------------------------------

ScenarioTenant
constantTenant(const std::string& name, double rate, double weight)
{
    ScenarioTenant tenant;
    tenant.name = name;
    tenant.traffic.diurnal.mean_batches_per_sec = rate;
    tenant.traffic.diurnal.amplitude = 0;
    tenant.weight = weight;
    tenant.queue_capacity = 4;
    return tenant;
}

TEST(ServiceScenarioTest, WeightedFairSharesUnderOverload)
{
    ScenarioOptions options;
    options.devices = 1;
    options.service_sec = 0.1;  // capacity 10/s vs 40/s offered
    options.duration_sec = 300;
    options.admission_control = false;

    const ScenarioReport report = runServiceScenario(
        options, {constantTenant("gold", 20, 2.0),
                  constantTenant("bronze", 20, 1.0)});

    ASSERT_EQ(report.tenants.size(), 2u);
    const TenantReport& gold = report.tenants[0];
    const TenantReport& bronze = report.tenants[1];

    // The scenario is work-conserving: overload surfaces as latency,
    // never as lost batches, so both tenants are fully served and the
    // 2:1 weighted-fair device shares show up as gold waiting far less.
    EXPECT_EQ(gold.served, gold.arrivals);
    EXPECT_EQ(bronze.served, bronze.arrivals);
    EXPECT_GT(bronze.mean_latency_sec, 1.3 * gold.mean_latency_sec);
    EXPECT_GT(bronze.max_latency_sec, gold.max_latency_sec);
    EXPECT_LT(gold.backlog_peak, bronze.backlog_peak);
    EXPECT_GT(gold.backlog_peak, 0u);
    EXPECT_GT(report.fleet_utilization, 0.95);
}

TEST(ServiceScenarioTest, DeterministicReplayAndBoundedStallQueue)
{
    ScenarioOptions options;
    options.devices = 4;
    options.service_sec = 0.1;
    options.duration_sec = 400;
    options.faults.fail_stops = {{1, 200.0}};

    ScenarioTenant steady = constantTenant("steady", 8, 1.0);
    steady.slo_p99_sec = 1.0;
    ScenarioTenant stalled = constantTenant("stalled", 6, 1.0);
    stalled.queue_capacity = 3;
    stalled.stall_start_sec = 100;
    stalled.stall_end_sec = 150;

    const ScenarioReport first =
        runServiceScenario(options, {steady, stalled});
    const ScenarioReport second =
        runServiceScenario(options, {steady, stalled});

    ASSERT_EQ(first.tenants.size(), 2u);
    EXPECT_EQ(first.devices_failed, 1u);
    EXPECT_TRUE(first.tenants[0].slo_met);

    // The stalled trainer fills its bounded queue exactly to capacity
    // and never beyond: backpressure, not buffering.
    EXPECT_EQ(first.tenants[1].max_queue_occupancy, 3u);
    EXPECT_GT(first.tenants[1].backlog_peak, 3u);

    // Bit-identical replay: same inputs, same report.
    for (size_t i = 0; i < first.tenants.size(); ++i) {
        EXPECT_EQ(first.tenants[i].served, second.tenants[i].served);
        EXPECT_EQ(first.tenants[i].p99_latency_sec,
                  second.tenants[i].p99_latency_sec);
        EXPECT_EQ(first.tenants[i].max_latency_sec,
                  second.tenants[i].max_latency_sec);
    }
    EXPECT_EQ(first.busy_device_sec, second.busy_device_sec);
}

TEST(ServiceScenarioTest, StalledTenantTakesNoCatchUpBurst)
{
    // Two equal tenants offer 15 batches/s each to 4 devices at 0.1 s
    // (40/s). One trainer stalls over [100, 150) s with 3 queue slots,
    // so ~750 requests pile up behind it. When the stall drains, the
    // engine's wake rule re-bases that flow like any idle one: it
    // shares the fleet with the steady tenant instead of taking three
    // devices of four until its stale tag catches up.
    ScenarioOptions options;
    options.devices = 4;
    options.service_sec = 0.1;
    options.duration_sec = 300;

    ScenarioTenant steady = constantTenant("steady", 15, 1.0);
    ScenarioTenant stalled = constantTenant("stalled", 15, 1.0);
    stalled.queue_capacity = 3;
    stalled.stall_start_sec = 100;
    stalled.stall_end_sec = 150;

    const ScenarioReport report =
        runServiceScenario(options, {steady, stalled});
    ASSERT_EQ(report.tenants.size(), 2u);
    const TenantReport& s = report.tenants[0];
    const TenantReport& t = report.tenants[1];
    ASSERT_TRUE(s.admitted && t.admitted);
    EXPECT_EQ(s.served, s.arrivals);
    EXPECT_EQ(t.served, t.arrivals);
    EXPECT_GT(t.backlog_peak, 500u);
    EXPECT_EQ(t.max_queue_occupancy, 3u);
    EXPECT_LT(s.max_latency_sec, 1.0);
}

TEST(ServiceScenarioTest, AdmissionControlGatesJoiner)
{
    ScenarioOptions options;
    options.devices = 2;
    options.service_sec = 0.1;  // capacity 20/s
    options.duration_sec = 120;

    ScenarioTenant anchor = constantTenant("anchor", 8, 1.0);
    anchor.slo_p99_sec = 1.0;
    ScenarioTenant flood = constantTenant("flood", 40, 1.0);
    flood.join_sec = 30;

    ScenarioReport controlled =
        runServiceScenario(options, {anchor, flood});
    EXPECT_TRUE(controlled.tenants[0].admitted);
    EXPECT_FALSE(controlled.tenants[1].admitted);
    EXPECT_FALSE(controlled.tenants[1].reject_reason.empty());
    EXPECT_EQ(controlled.tenants[1].arrivals, 0u);

    options.admission_control = false;
    ScenarioReport open = runServiceScenario(options, {anchor, flood});
    EXPECT_TRUE(open.tenants[1].admitted);
    EXPECT_GT(open.tenants[1].arrivals, 0u);
}

TEST(ServiceScenarioDeathTest, RejectsNonPositiveWeight)
{
    ScenarioOptions options;
    options.devices = 1;
    options.service_sec = 0.1;
    options.duration_sec = 10;
    // Weight 0 would give the tenant an infinite virtual time; a
    // negative weight would let it take every device.
    for (double weight : {0.0, -1.0}) {
        EXPECT_DEATH(runServiceScenario(
                         options, {constantTenant("steady", 2, 1.0),
                                   constantTenant("bad", 2, weight)}),
                     "weight must be positive");
    }
}

// --- PartitionStore cache budget -------------------------------------

TEST(PartitionStoreCacheTest, BudgetEvictsAndRematerializesIdentically)
{
    RawDataGenerator generator(smallConfig(), {});
    PartitionStore store(generator);

    auto first = store.fetchPartition(1);
    ASSERT_TRUE(first.ok());
    const uint64_t one_partition = store.partitionBytes(1);
    ASSERT_GT(one_partition, 0u);

    store.setCacheBudget(2 * one_partition + one_partition / 2);
    for (uint64_t pid = 1; pid <= 8; ++pid)
        ASSERT_TRUE(store.fetchPartition(pid).ok());

    EXPECT_GT(store.evictions(), 0u);
    EXPECT_LE(store.cachedBytes(), 2 * one_partition + one_partition / 2);

    // Evicted partitions re-materialize bit-identically on demand.
    auto again = store.fetchPartition(1);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value(), first.value());
}

TEST(PartitionStoreCacheTest, ConcurrentFetchesSurviveEviction)
{
    // Regression: fetchPartition used to copy from a reference after
    // releasing the store lock, so a concurrent materialization could
    // evict (destroy) the vector mid-copy under a tight budget. Several
    // workers hammering a budget that holds ~1 partition makes that
    // interleaving common; run under ASan for the UAF itself, and check
    // bit-identical reads either way.
    //
    // Shared buffers: every worker also holds partition() buffers for
    // the whole run while the others evict those partitions from the
    // cache and promote/demote them through a one-partition hot tier.
    // A held buffer must keep its bytes regardless.
    RawDataGenerator generator(smallConfig(), {});
    PartitionStore store(generator);
    const std::vector<uint8_t> want(*store.partition(0));
    store.setCacheBudget(store.partitionBytes(0) + 1);
    store.setHotTierBudget(store.partitionBytes(0) + 1);

    std::atomic<bool> mismatch{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
        workers.emplace_back([&store, &want, &mismatch, t] {
            const PartitionBuffer held_zero = store.partition(0);
            const uint64_t other = static_cast<uint64_t>(t % 3) + 1;
            const PartitionBuffer held_other = store.partition(other);
            const std::vector<uint8_t> other_snapshot(*held_other);
            for (uint64_t i = 0; i < 20; ++i) {
                // Worker-dependent stride: everyone revisits partition
                // 0 while others pull in evicting neighbours.
                const uint64_t pid = (i + t) % 2 == 0 ? 0 : (i % 3) + 1;
                auto bytes = store.fetchPartition(pid);
                if (!bytes.ok() ||
                    (pid == 0 && bytes.value() != want)) {
                    mismatch = true;
                }
                // Churn the hot tier under everyone's held buffers.
                if ((i + t) % 3 == 0)
                    (void)store.promotePartition(pid);
                else
                    store.demotePartition((i % 3) + 1);
                const PartitionBuffer shared = store.partition(pid);
                if (pid == 0 && *shared != want)
                    mismatch = true;
                if (*held_zero != want || *held_other != other_snapshot)
                    mismatch = true;
            }
        });
    }
    for (std::thread& worker : workers)
        worker.join();
    EXPECT_FALSE(mismatch);
    EXPECT_GT(store.evictions(), 0u);
}

}  // namespace
}  // namespace presto
