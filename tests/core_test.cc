/**
 * @file
 * Tests for the PreSto core: provisioner, partition store, the
 * functional train/preprocess managers, and the DES training pipeline.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <optional>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "core/fleet.h"
#include "core/managers.h"
#include "core/partition_producer.h"
#include "core/partition_store.h"
#include "core/preprocess_engine.h"
#include "core/provisioner.h"
#include "core/training_pipeline.h"
#include "io/io_ring.h"
#include "models/calibration.h"
#include "ops/preprocessor.h"

namespace presto {
namespace {

RmConfig
tinyConfig()
{
    RmConfig cfg = rmConfig(2);
    cfg.batch_size = 96;
    cfg.num_dense = 5;
    cfg.num_sparse = 3;
    cfg.num_generated = 2;
    return cfg;
}

// --- Provisioner --------------------------------------------------------------

TEST(ProvisionerTest, WorkersIsCeilOfDemandOverThroughput)
{
    for (const auto& cfg : allRmConfigs()) {
        Provisioner prov(cfg);
        const Provision p = prov.provisionCpu(8);
        EXPECT_EQ(p.workers,
                  static_cast<int>(std::ceil(p.demand_batches_per_sec /
                                             p.per_worker_throughput)));
        EXPECT_GE(p.workers, 1);
        EXPECT_GE(p.workers * p.per_worker_throughput,
                  p.demand_batches_per_sec);
    }
}

TEST(ProvisionerTest, DemandScalesWithGpus)
{
    Provisioner prov(rmConfig(3));
    EXPECT_DOUBLE_EQ(prov.trainingDemand(8), 8 * prov.trainingDemand(1));
    EXPECT_GE(prov.provisionCpu(8).workers,
              prov.provisionCpu(1).workers);
}

TEST(ProvisionerTest, IspNeedsFarFewerWorkersThanCpu)
{
    for (const auto& cfg : allRmConfigs()) {
        Provisioner prov(cfg);
        const Provision cpu = prov.provisionCpu(8);
        const Provision isp = prov.provisionIsp(8, IspParams::smartSsd());
        EXPECT_LT(isp.workers * 10, cpu.workers) << cfg.name;
    }
}

TEST(ProvisionerTest, DeploymentsCarryCostAndPower)
{
    Provisioner prov(rmConfig(5));
    const Provision isp = prov.provisionIsp(8, IspParams::smartSsd());
    EXPECT_DOUBLE_EQ(isp.deployment.power_watts,
                     isp.workers * cal::kSmartSsdWatts);
    EXPECT_DOUBLE_EQ(isp.deployment.capex_dollars,
                     isp.workers * cal::kSmartSsdDollars);
}

TEST(ProvisionerDeathTest, ZeroGpusPanics)
{
    Provisioner prov(rmConfig(1));
    EXPECT_DEATH(prov.trainingDemand(0), "at least one GPU");
}

// --- PartitionStore --------------------------------------------------------------

TEST(PartitionStoreTest, MaterializesLazily)
{
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    EXPECT_EQ(store.materializedCount(), 0u);
    (void)store.partition(3);
    EXPECT_EQ(store.materializedCount(), 1u);
    (void)store.partition(3);
    EXPECT_EQ(store.materializedCount(), 1u);  // cached
}

TEST(PartitionStoreTest, DeterministicBytes)
{
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen_a(cfg), gen_b(cfg);
    PartitionStore a(gen_a), b(gen_b);
    EXPECT_EQ(*a.partition(5), *b.partition(5));
    EXPECT_EQ(a.partitionBytes(5), b.partitionBytes(5));
}

TEST(PartitionStoreTest, PartitionsAreValidPsfFiles)
{
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(*store.partition(2)).ok());
    EXPECT_EQ(reader.footer().partition_id, 2u);
    EXPECT_EQ(reader.footer().num_rows, cfg.batch_size);
}

// --- PartitionStore concurrency ---------------------------------------------------

/** RM5 at the benchmark's 1024 rows: ~400 ms to generate and encode
    under the full codec menu. */
RmConfig
slowConfig()
{
    RmConfig cfg = rmConfig(5);
    cfg.batch_size = 1024;
    return cfg;
}

/** Spin until @p flag is set, then give its thread time to get past
    the store's lock lookups and into a long generate + encode. */
void
waitUntilBusy(const std::atomic<bool>& flag)
{
    while (!flag.load())
        std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
}

TEST(PartitionStoreConcurrencyTest, FetchDoesNotWaitBehindAnotherEncode)
{
    // An uncached slowConfig() partition takes hundreds of milliseconds
    // to generate and encode. Fetches of a partition that is already
    // cached must all finish while that encode is still running: the
    // store lock is never held across an encode.
    RawDataGenerator gen(slowConfig());
    PartitionStore store(gen);
    const PartitionBuffer cached = store.partition(0);

    std::atomic<bool> encoding{false};
    std::atomic<bool> encoded{false};
    std::thread slow([&] {
        encoding = true;
        (void)store.partition(1);
        encoded = true;
    });
    waitUntilBusy(encoding);
    bool served = true;
    for (int i = 0; i < 200; ++i) {
        auto bytes = store.fetchShared(0);
        served = served && bytes.ok() && *bytes == cached;
    }
    EXPECT_FALSE(encoded.load())
        << "cached fetches waited for another partition's encode";
    slow.join();
    EXPECT_TRUE(served);
    EXPECT_EQ(store.materializedCount(), 2u);
}

TEST(PartitionStoreConcurrencyTest, RetireDuringLoadLeavesItNeitherCachedNorHot)
{
    // A promotion loads (generates and encodes) the partition with the
    // store lock released; a retire landing meanwhile must win. The
    // finished load is refused, not cached and not promoted.
    RawDataGenerator gen(slowConfig());
    PartitionStore store(gen);
    store.setHotTierBudget(uint64_t{1} << 30);

    std::atomic<bool> loading{false};
    Status promoted;
    std::thread loader([&] {
        loading = true;
        promoted = store.promotePartition(3);
    });
    waitUntilBusy(loading);
    EXPECT_TRUE(store.retirePartition(3).ok());
    loader.join();

    EXPECT_EQ(promoted.code(), StatusCode::kNotFound) << promoted.message();
    EXPECT_EQ(store.materializedCount(), 0u);
    EXPECT_EQ(store.cachedBytes(), 0u);
    EXPECT_EQ(store.hotTierCount(), 0u);
    EXPECT_EQ(store.hotTierBytes(), 0u);
    EXPECT_EQ(store.fetchShared(3).status().code(), StatusCode::kNotFound);
}

// --- Managers (functional end-to-end) ----------------------------------------------

TEST(ManagersTest, DeliversAllBatches)
{
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    TrainManager trainer(cfg, store, PreprocessMode::kPreSto);
    const RunStats stats = trainer.train(4, /*worker_override=*/2);
    EXPECT_EQ(stats.batches_delivered, 4u);
    EXPECT_EQ(store.materializedCount(), 4u);
}

TEST(ManagersTest, ByteAccountingMatchesMode)
{
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);

    PartitionStore store_a(gen);
    TrainManager disagg(cfg, store_a, PreprocessMode::kDisaggCpu);
    const RunStats d = disagg.train(3, 1);
    EXPECT_GT(d.raw_bytes_over_network, 0u);
    EXPECT_EQ(d.raw_bytes_p2p, 0u);

    PartitionStore store_b(gen);
    TrainManager presto(cfg, store_b, PreprocessMode::kPreSto);
    const RunStats p = presto.train(3, 1);
    EXPECT_EQ(p.raw_bytes_over_network, 0u);
    EXPECT_GT(p.raw_bytes_p2p, 0u);

    // Same partitions -> same raw byte volume, just a different path.
    EXPECT_EQ(d.raw_bytes_over_network, p.raw_bytes_p2p);
    EXPECT_EQ(d.tensor_bytes_over_network, p.tensor_bytes_over_network);
}

TEST(ManagersTest, ModesProduceIdenticalTensors)
{
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);

    PartitionStore store_a(gen);
    TrainManager a(cfg, store_a, PreprocessMode::kDisaggCpu);
    (void)a.train(3, 2);

    PartitionStore store_b(gen);
    TrainManager b(cfg, store_b, PreprocessMode::kPreSto);
    (void)b.train(3, 2);

    EXPECT_EQ(a.deliveredChecksum(), b.deliveredChecksum());
    EXPECT_NE(a.deliveredChecksum(), 0u);
}

TEST(ManagersTest, ChecksumIndependentOfWorkerCount)
{
    // XOR-folded checksums are order-independent, so parallel delivery
    // must not change the result.
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    PartitionStore s1(gen), s2(gen);
    TrainManager one(cfg, s1, PreprocessMode::kPreSto);
    TrainManager four(cfg, s2, PreprocessMode::kPreSto);
    (void)one.train(5, 1);
    (void)four.train(5, 4);
    EXPECT_EQ(one.deliveredChecksum(), four.deliveredChecksum());
}

TEST(ManagersTest, TpRuleProvisionsWorkers)
{
    const RmConfig& cfg = rmConfig(5);
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    TrainManager trainer(cfg, store, PreprocessMode::kDisaggCpu);
    EXPECT_GT(trainer.measuredTrainingThroughput(), 0);
    (void)trainer.train(1);
    // ceil(T / P): one GPU's demand for RM5 needs ~40 CPU workers.
    EXPECT_GT(trainer.provisionedWorkers(), 20);
    EXPECT_LT(trainer.provisionedWorkers(), 80);
}

TEST(ManagersTest, ColumnarBytesTouchedCoversWholeFiles)
{
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    TrainManager trainer(cfg, store, PreprocessMode::kPreSto);
    const RunStats stats = trainer.train(2, 1);
    // readAll touches every page plus footer: within a few % of the raw
    // file bytes.
    EXPECT_GE(stats.columnar_bytes_touched, stats.raw_bytes_p2p * 95 / 100);
}

TEST(PreprocessManagerDeathTest, BadArgsPanic)
{
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    EXPECT_DEATH(PreprocessManager(cfg, store, PreprocessMode::kPreSto, 0),
                 "at least one worker");
    EXPECT_DEATH(
        PreprocessManager(cfg, store, PreprocessMode::kPreSto, 1, 0),
        "capacity");
}

TEST(ManagersTest, StressManyBatchesSmallQueue)
{
    // Backpressure correctness under real threads: a tiny queue and
    // more workers than queue slots must still deliver every batch
    // exactly once.
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    PreprocessManager manager(cfg, store, PreprocessMode::kPreSto,
                              /*num_workers=*/4, /*queue_capacity=*/2);
    manager.start(24);
    size_t delivered = 0;
    while (auto mb = manager.nextBatch()) {
        EXPECT_TRUE(mb->consistent());
        ++delivered;
    }
    EXPECT_EQ(delivered, 24u);
    EXPECT_EQ(manager.stats().batches_delivered, 24u);
    EXPECT_EQ(store.materializedCount(), 24u);
}

// --- Shells reused through the store's pool -------------------------------

/** Digest of every byte and extent of a MiniBatch. */
uint64_t
fullDigest(const MiniBatch& mb)
{
    uint64_t h = mix64(mb.batch_size ^ (mb.num_dense << 32));
    const auto fold = [&h](const void* data, size_t bytes) {
        h = mix64(h ^ crc32c(data, bytes) ^ (uint64_t{bytes} << 32));
    };
    fold(mb.dense.data(), mb.dense.size() * sizeof(float));
    fold(mb.labels.data(), mb.labels.size() * sizeof(float));
    for (const JaggedIndices& jag : mb.sparse) {
        fold(jag.feature_name.data(), jag.feature_name.size());
        fold(jag.values.data(), jag.values.size() * sizeof(int64_t));
        fold(jag.lengths.data(), jag.lengths.size() * sizeof(uint32_t));
    }
    return h;
}

/** One manager shape: its config (and so its TransformPlan), workers,
    queue bound, and whether it Extracts through a ring of its own. */
struct ManagerShape {
    RmConfig config;
    int workers = 1;
    size_t queue = 4;
    bool ring = false;
};

/** Sorted digests of one full epoch of @p partitions (delivery order
    varies with the workers; content must not). Recycles every batch. */
std::vector<uint64_t>
epochDigests(const ManagerShape& shape, PartitionStore& store,
             size_t partitions)
{
    std::optional<IoRing> ring;
    if (shape.ring)
        ring.emplace();
    PreprocessManager manager(shape.config, store, PreprocessMode::kPreSto,
                              shape.workers, shape.queue, nullptr,
                              ring ? &*ring : nullptr);
    manager.start(partitions);
    std::vector<uint64_t> digests;
    while (auto mb = manager.nextBatch()) {
        EXPECT_TRUE(mb->consistent());
        digests.push_back(fullDigest(*mb));
        manager.recycle(std::move(mb));
    }
    std::sort(digests.begin(), digests.end());
    return digests;
}

/** Shapes over tinyConfig()'s store whose plans differ in outputs,
    bucket boundaries and hash table sizes. */
std::vector<ManagerShape>
reuseShapes()
{
    const RmConfig base = tinyConfig();
    RmConfig no_generated = base;
    no_generated.num_generated = 0;
    RmConfig wide = base;
    wide.num_generated = base.num_dense;
    wide.bucket_size = 64;
    wide.avg_embeddings = 1000;
    return {
        {base, 2, 2, false},
        {no_generated, 1, 4, false},
        {wide, 3, 1, true},
        {base, 2, 8, true},
    };
}

TEST(ManagersTest, ReusedShellsDeliverWhatAFreshStoreDelivers)
{
    // Managers with different plans, worker counts and I/O paths take
    // turns over one store, each inheriting the decode batches, arenas
    // and MiniBatches its predecessors left in the store's pool; one is
    // destroyed mid-epoch with batches still queued. Every epoch must
    // equal the same manager's epoch over a fresh store.
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    constexpr size_t kPartitions = 6;
    const std::vector<ManagerShape> shapes = reuseShapes();

    PartitionStore shared(gen);
    for (int round = 0; round < 2; ++round) {
        for (const ManagerShape& shape : shapes) {
            PartitionStore fresh(gen);
            EXPECT_EQ(epochDigests(shape, shared, kPartitions),
                      epochDigests(shape, fresh, kPartitions))
                << "round " << round << ", " << shape.workers
                << " workers";
        }
        // Abandon an epoch: take one batch, let the workers fill the
        // queue behind it, destroy the manager.
        PreprocessManager quitter(shapes[2].config, shared,
                                  PreprocessMode::kPreSto, 2, 3);
        quitter.start(kPartitions);
        auto first = quitter.nextBatch();
        ASSERT_NE(first, nullptr);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        quitter.recycle(std::move(first));
    }
    EXPECT_GT(shared.shells().idleBatches(), 0u);
    EXPECT_GT(shared.shells().idleWorkers(), 0u);
}

TEST(ManagersTest, ConcurrentManagersShareTheStorePool)
{
    // Two managers with different plans run epochs side by side over
    // one store, both borrowing from and returning to its pool.
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    constexpr size_t kPartitions = 5;
    const std::vector<ManagerShape> shapes = reuseShapes();
    const ManagerShape& a = shapes[1];
    const ManagerShape& b = shapes[2];
    std::vector<uint64_t> want_a;
    std::vector<uint64_t> want_b;
    {
        PartitionStore fresh_a(gen);
        PartitionStore fresh_b(gen);
        want_a = epochDigests(a, fresh_a, kPartitions);
        want_b = epochDigests(b, fresh_b, kPartitions);
    }

    PartitionStore shared(gen);
    std::atomic<int> mismatches{0};
    const auto run = [&](const ManagerShape& shape,
                         const std::vector<uint64_t>& want) {
        for (int epoch = 0; epoch < 4; ++epoch) {
            if (epochDigests(shape, shared, kPartitions) != want)
                ++mismatches;
        }
    };
    std::thread ta(run, std::cref(a), std::cref(want_a));
    std::thread tb(run, std::cref(b), std::cref(want_b));
    ta.join();
    tb.join();
    EXPECT_EQ(mismatches.load(), 0);
    // Each manager returns what it borrowed: the pool holds no more
    // worker shells than both managers' workers together.
    EXPECT_LE(shared.shells().idleWorkers(),
              static_cast<size_t>(a.workers + b.workers));
}

// --- One compiled program per store ----------------------------------------

/** The standard plan and schema a manager over @p cfg compiles. */
std::shared_ptr<const CompiledProgram>
standardProgram(PartitionStore& store, const RmConfig& cfg)
{
    return store.program(TransformPlan::standard(cfg),
                         Schema::makeRecSys(cfg.num_dense, cfg.num_sparse));
}

TEST(ProgramCacheTest, SecondManagerReusesTheStoresProgram)
{
    // A second manager over the same store, with the same plan, runs
    // the program the first one compiled: nothing is validated or
    // compiled again, and both hold the one pointer the store hands
    // out. A manager with another plan gets a program of its own.
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    const uint64_t validations = planValidationCount();
    PreprocessManager first(cfg, store, PreprocessMode::kPreSto, 2, 4);
    EXPECT_EQ(planValidationCount(), validations + 1);
    PreprocessManager second(cfg, store, PreprocessMode::kPreSto, 1, 2);
    EXPECT_EQ(planValidationCount(), validations + 1)
        << "the second manager compiled its own program";
    const auto program = standardProgram(store, cfg);
    EXPECT_EQ(program.use_count(), 4)  // the store, two managers, here
        << "the managers do not share the store's program";

    RmConfig other = cfg;
    other.num_generated = 0;
    PreprocessManager third(other, store, PreprocessMode::kPreSto, 1, 2);
    EXPECT_EQ(planValidationCount(), validations + 2);
    EXPECT_EQ(program.use_count(), 4);
    EXPECT_NE(standardProgram(store, other), program);

    // A started manager runs the shared program.
    second.start(3);
    size_t delivered = 0;
    while (auto mb = second.nextBatch()) {
        ++delivered;
        second.recycle(std::move(mb));
    }
    EXPECT_EQ(delivered, 3u);
    EXPECT_EQ(standardProgram(store, cfg), program);
}

TEST(ProgramCacheTest, ManagersOpenedAtOnceCompileOnce)
{
    // Two managers on one store, constructed from two threads at once,
    // race the store's first-use compile: one compiles, the other waits
    // and shares it, and both deliver what a fresh store delivers.
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    constexpr size_t kPartitions = 4;
    const ManagerShape shape{cfg, 2, 3, false};
    std::vector<uint64_t> want;
    {
        PartitionStore fresh(gen);
        want = epochDigests(shape, fresh, kPartitions);
    }
    for (int round = 0; round < 3; ++round) {
        PartitionStore store(gen);
        const uint64_t validations = planValidationCount();
        std::atomic<int> ready{0};
        std::atomic<int> mismatches{0};
        const auto run = [&] {
            ready.fetch_add(1);
            while (ready.load() < 2)
                std::this_thread::yield();
            if (epochDigests(shape, store, kPartitions) != want)
                mismatches.fetch_add(1);
        };
        std::thread a(run);
        std::thread b(run);
        a.join();
        b.join();
        EXPECT_EQ(mismatches.load(), 0) << "round " << round;
        EXPECT_EQ(planValidationCount(), validations + 1)
            << "round " << round << ": the managers compiled twice";
    }
}

// --- The worker engine: order and errors ------------------------------------

/** Digests of partitions [0, @p n) of @p store, each produced and
    transformed on this thread by one producer and a Preprocessor. */
std::vector<uint64_t>
serialDigests(const RmConfig& cfg, PartitionStore& store, size_t n)
{
    PartitionProducer producer;
    const Preprocessor preprocessor(cfg);
    RowBatch raw;
    MiniBatch mb;
    BatchArena arena;
    std::vector<uint64_t> digests;
    for (uint64_t pid = 0; pid < n; ++pid) {
        EXPECT_TRUE(producer.produce(store, pid, raw).ok()) << pid;
        preprocessor.preprocessInto(raw, mb, arena);
        digests.push_back(fullDigest(mb));
    }
    return digests;
}

TEST(PreprocessEngineTest, RetiredPartitionEndsTheFlowAfterEveryEarlierBatch)
{
    // Three workers run ahead of the consumer, past the retired
    // partition; delivery still stops at it: 0..k-1 in order, then its
    // kNotFound, then nothing more.
    const RmConfig cfg = tinyConfig();
    RawDataGenerator gen(cfg);
    constexpr uint64_t kRetired = 3;
    constexpr uint64_t kPartitions = 8;
    std::vector<uint64_t> want;
    {
        PartitionStore clean(gen);
        want = serialDigests(cfg, clean, kRetired);
    }
    PartitionStore store(gen);
    ASSERT_TRUE(store.retirePartition(kRetired).ok());

    PreprocessEngine engine(store.shells(), 3);
    FlowSpec spec;
    spec.queue_capacity = 4;
    spec.limit = kPartitions;
    spec.locate = [&store](uint64_t seq) -> StatusOr<PartitionRef> {
        return PartitionRef{&store, seq};
    };
    spec.program = store.program(
        TransformPlan::standard(cfg),
        Schema::makeRecSys(cfg.num_dense, cfg.num_sparse));
    const PreprocessEngine::FlowId flow = engine.open(std::move(spec));

    for (uint64_t seq = 0; seq < kRetired; ++seq) {
        StatusOr<FlowBatch> got = engine.next(flow);
        ASSERT_TRUE(got.ok()) << got.status().toString();
        ASSERT_NE(got->batch, nullptr);
        EXPECT_EQ(got->sequence, seq);
        EXPECT_EQ(fullDigest(*got->batch), want[seq]) << seq;
    }
    for (int again = 0; again < 3; ++again) {
        EXPECT_EQ(engine.next(flow).status().code(), StatusCode::kNotFound);
    }
    const FlowStats stats = engine.stats(flow);
    EXPECT_EQ(stats.delivered, kRetired);
    EXPECT_LE(stats.max_queue_occupancy, 4u);
    engine.close(flow);
    EXPECT_EQ(engine.next(flow).status().code(), StatusCode::kAborted);
}

TEST(ManagersTest, FaultyStoreDeliversInPartitionOrderAtThreeWorkers)
{
    // Transient errors and CRC-caught corruptions make productions
    // finish out of order; delivery must not.
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 128;
    RawDataGenerator gen(cfg);
    constexpr size_t kBatches = 12;
    std::vector<uint64_t> want;
    {
        PartitionStore clean(gen);
        want = serialDigests(cfg, clean, kBatches);
    }

    FaultSpec faults_spec;
    faults_spec.transient_read_error_prob = 0.2;
    faults_spec.corruption_prob = 0.2;
    const FaultInjector faults(faults_spec);
    PartitionStore store(gen);
    store.setFaultInjector(&faults);
    PreprocessManager manager(cfg, store, PreprocessMode::kPreSto, 3, 4);
    manager.start(kBatches);
    std::vector<uint64_t> got;
    while (auto mb = manager.nextBatch()) {
        got.push_back(fullDigest(*mb));
        manager.recycle(std::move(mb));
    }
    EXPECT_EQ(got, want);
    EXPECT_GT(manager.stats().transient_read_errors, 0u);
}

class PipelinePerRm : public ::testing::TestWithParam<int>
{
};

TEST_P(PipelinePerRm, IspBackendInvariants)
{
    PipelineOptions opts;
    opts.backend = PreprocBackend::kIsp;
    opts.isp_params = IspParams::smartSsd();
    opts.num_workers = 2;
    opts.batches_to_train = 96;
    const PipelineResult r =
        TrainingPipeline(rmConfig(GetParam()), opts).run();
    EXPECT_EQ(r.batches_trained, 96u);
    EXPECT_GT(r.sim_seconds, 0);
    EXPECT_LE(r.gpu_utilization, 1.0 + 1e-9);
    EXPECT_GE(r.preproc_throughput, r.train_throughput * 0.999);
    EXPECT_LE(r.train_throughput, r.gpu_max_throughput * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Rms, PipelinePerRm, ::testing::Range(1, 6));

// --- FleetModel -----------------------------------------------------------------------

TEST(FleetModelTest, AggregatesAcrossJobs)
{
    FleetModel fleet({{5, 8}, {5, 8}});
    const FleetSummary one = FleetModel({{5, 8}}).evaluate(
        FleetSystem::kDisaggCpu);
    const FleetSummary two = fleet.evaluate(FleetSystem::kDisaggCpu);
    EXPECT_EQ(two.total_workers, 2 * one.total_workers);
    EXPECT_DOUBLE_EQ(two.total_power_watts, 2 * one.total_power_watts);
    EXPECT_DOUBLE_EQ(two.raw_in_bytes_per_sec,
                     2 * one.raw_in_bytes_per_sec);
}

TEST(FleetModelTest, PrestoHasNoRawInTraffic)
{
    FleetModel fleet({{1, 8}, {3, 8}, {5, 16}});
    const FleetSummary presto =
        fleet.evaluate(FleetSystem::kPrestoSmartSsd);
    EXPECT_DOUBLE_EQ(presto.raw_in_bytes_per_sec, 0.0);
    EXPECT_GT(presto.tensors_out_bytes_per_sec, 0.0);
    const FleetSummary disagg = fleet.evaluate(FleetSystem::kDisaggCpu);
    EXPECT_GT(disagg.raw_in_bytes_per_sec, 0.0);
    // Tensors-out is identical: the same batches reach the trainers.
    EXPECT_DOUBLE_EQ(presto.tensors_out_bytes_per_sec,
                     disagg.tensors_out_bytes_per_sec);
}

TEST(FleetModelTest, NetworkReliefAboveOne)
{
    FleetModel fleet({{2, 8}, {4, 8}, {5, 8}});
    EXPECT_GT(fleet.networkReliefFactor(), 1.5);
}

TEST(FleetModelTest, PrestoCheaperAndCooler)
{
    FleetModel fleet({{1, 8}, {2, 8}, {3, 8}, {4, 8}, {5, 8}});
    const FleetSummary d = fleet.evaluate(FleetSystem::kDisaggCpu);
    const FleetSummary p = fleet.evaluate(FleetSystem::kPrestoSmartSsd);
    EXPECT_LT(p.total_cost_dollars * 3, d.total_cost_dollars);
    EXPECT_LT(p.total_power_watts * 8, d.total_power_watts);
    EXPECT_DOUBLE_EQ(p.total_demand_batches_per_sec,
                     d.total_demand_batches_per_sec);
}

TEST(FleetModelDeathTest, BadJobsPanic)
{
    EXPECT_DEATH(FleetModel({}), "at least one job");
    EXPECT_DEATH(FleetModel({{9, 8}}), "bad RM id");
    EXPECT_DEATH(FleetModel({{1, 0}}), "at least one GPU");
}

// --- TrainingPipeline (DES) ----------------------------------------------------------

TEST(TrainingPipelineTest, UndersuppliedGpuMatchesPreprocThroughput)
{
    PipelineOptions opts;
    opts.backend = PreprocBackend::kColocatedCpu;
    opts.num_workers = 4;
    opts.batches_to_train = 128;
    TrainingPipeline pipeline(rmConfig(5), opts);
    const PipelineResult r = pipeline.run();
    EXPECT_EQ(r.batches_trained, 128u);
    // Preprocessing-bound: training throughput ~= preproc throughput,
    // far below the GPU's demand.
    EXPECT_NEAR(r.train_throughput, r.preproc_throughput,
                r.preproc_throughput * 0.05);
    EXPECT_LT(r.gpu_utilization, 0.10);
}

TEST(TrainingPipelineTest, OversuppliedGpuSaturates)
{
    PipelineOptions opts;
    opts.backend = PreprocBackend::kIsp;
    opts.isp_params = IspParams::smartSsd();
    opts.num_workers = 16;  // >> 1 GPU demand for RM1
    opts.batches_to_train = 256;
    TrainingPipeline pipeline(rmConfig(1), opts);
    const PipelineResult r = pipeline.run();
    EXPECT_GT(r.gpu_utilization, 0.95);
    EXPECT_NEAR(r.train_throughput, r.gpu_max_throughput,
                r.gpu_max_throughput * 0.05);
    EXPECT_GT(r.max_stalled_producers, 0u);  // backpressure engaged
}

TEST(TrainingPipelineTest, ThroughputScalesWithWorkers)
{
    auto run = [](int workers) {
        PipelineOptions opts;
        opts.backend = PreprocBackend::kDisaggCpu;
        opts.num_workers = workers;
        // Long enough to amortize the pipeline-fill transient.
        opts.batches_to_train = 512;
        return TrainingPipeline(rmConfig(5), opts).run();
    };
    const double t1 = run(1).train_throughput;
    const double t8 = run(8).train_throughput;
    EXPECT_NEAR(t8 / t1, 8.0, 0.5);
}

TEST(TrainingPipelineTest, DisaggWorkerSlowerThanIspDevice)
{
    PipelineOptions cpu_opts;
    cpu_opts.backend = PreprocBackend::kDisaggCpu;
    PipelineOptions isp_opts;
    isp_opts.backend = PreprocBackend::kIsp;
    isp_opts.isp_params = IspParams::smartSsd();
    const RmConfig& cfg = rmConfig(5);
    EXPECT_GT(TrainingPipeline(cfg, cpu_opts).workerPeriodSeconds(),
              TrainingPipeline(cfg, isp_opts).workerPeriodSeconds() * 20);
}

TEST(TrainingPipelineTest, DeterministicAcrossRuns)
{
    PipelineOptions opts;
    opts.backend = PreprocBackend::kDisaggCpu;
    opts.num_workers = 3;
    opts.batches_to_train = 64;
    const PipelineResult a = TrainingPipeline(rmConfig(2), opts).run();
    const PipelineResult b = TrainingPipeline(rmConfig(2), opts).run();
    EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
    EXPECT_DOUBLE_EQ(a.gpu_utilization, b.gpu_utilization);
}

TEST(TrainingPipelineTest, ConservationOfBatches)
{
    PipelineOptions opts;
    opts.backend = PreprocBackend::kDisaggCpu;
    opts.num_workers = 2;
    opts.batches_to_train = 32;
    const PipelineResult r = TrainingPipeline(rmConfig(1), opts).run();
    EXPECT_EQ(r.batches_trained, 32u);
    // Producers may have preprocessed a few extra batches into the queue.
    EXPECT_GE(r.preproc_throughput, r.train_throughput);
}

TEST(TrainingPipelineDeathTest, BadOptionsPanic)
{
    PipelineOptions opts;
    opts.num_workers = 0;
    EXPECT_DEATH(TrainingPipeline(rmConfig(1), opts), "worker");
}

}  // namespace
}  // namespace presto
