/**
 * @file
 * Cross-module integration tests: generate -> encode -> store -> extract
 * -> transform -> train-ready tensors, with replay determinism, failure
 * injection, and selective-fetch accounting.
 */
#include <gtest/gtest.h>

#include "columnar/columnar_file.h"
#include "core/managers.h"
#include "core/partition_store.h"
#include "datagen/generator.h"
#include "dlrm/dlrm.h"
#include "ops/preprocessor.h"

namespace presto {
namespace {

RmConfig
smallRm(int rm, size_t batch)
{
    RmConfig cfg = rmConfig(rm);
    cfg.batch_size = batch;
    return cfg;
}

class EndToEndPerRm : public ::testing::TestWithParam<int>
{
};

TEST_P(EndToEndPerRm, StorageRoundTripPreservesTransformResults)
{
    const RmConfig cfg = smallRm(GetParam(), 64);
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(11);

    // Direct path: transform the in-memory batch.
    Preprocessor pre(cfg);
    const MiniBatch direct = pre.preprocess(raw);

    // Storage path: encode to PSF, decode, then transform.
    const auto encoded = ColumnarFileWriter().write(raw, 11);
    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(encoded).ok());
    auto decoded = reader.readAll();
    ASSERT_TRUE(decoded.ok());
    const MiniBatch via_storage = pre.preprocess(*decoded);

    EXPECT_EQ(direct.dense, via_storage.dense);
    EXPECT_EQ(direct.labels, via_storage.labels);
    ASSERT_EQ(direct.sparse.size(), via_storage.sparse.size());
    for (size_t i = 0; i < direct.sparse.size(); ++i) {
        EXPECT_EQ(direct.sparse[i].values, via_storage.sparse[i].values);
        EXPECT_EQ(direct.sparse[i].lengths, via_storage.sparse[i].lengths);
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, EndToEndPerRm,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(IntegrationTest, ExtractOnlyNeededFeaturesForPartialModels)
{
    // An ML engineer's model may use a subset of logged features; the
    // columnar Extract should only pay for those.
    const RmConfig cfg = smallRm(2, 128);
    RawDataGenerator gen(cfg);
    const auto encoded = ColumnarFileWriter().write(gen.generatePartition(0),
                                                    0);

    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(encoded).ok());
    std::vector<std::string> wanted = {"label"};
    for (int i = 0; i < 8; ++i)
        wanted.push_back("dense_" + std::to_string(i));
    for (int i = 0; i < 4; ++i)
        wanted.push_back("sparse_" + std::to_string(i));
    auto subset = reader.readColumns(wanted);
    ASSERT_TRUE(subset.ok());
    EXPECT_EQ(subset->numColumns(), wanted.size());
    // 13 of 547 columns; sparse columns dominate bytes, we took 4/42.
    EXPECT_LT(reader.bytesTouched(), encoded.size() / 5);
}

TEST(IntegrationTest, TrainRunIsReplayableByteForByte)
{
    const RmConfig cfg = smallRm(1, 128);
    RawDataGenerator gen(cfg);

    uint64_t checksums[2];
    for (int run = 0; run < 2; ++run) {
        PartitionStore store(gen);
        TrainManager trainer(cfg, store, PreprocessMode::kPreSto);
        (void)trainer.train(4, 2);
        checksums[run] = trainer.deliveredChecksum();
    }
    EXPECT_EQ(checksums[0], checksums[1]);
}

TEST(IntegrationTest, CorruptPartitionIsDetectedBeforeTraining)
{
    const RmConfig cfg = smallRm(1, 64);
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    std::vector<uint8_t> corrupted = *store.partition(0);
    corrupted[corrupted.size() / 3] ^= 0x08;

    ColumnarFileReader reader;
    Status st = reader.open(corrupted);
    if (st.ok())
        st = reader.readAll().status();
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST(IntegrationTest, PartitionFilesSurviveDiskRoundTrip)
{
    const RmConfig cfg = smallRm(1, 64);
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    const PartitionBuffer bytes = store.partition(9);

    const std::string path = ::testing::TempDir() + "partition9.psf";
    ASSERT_TRUE(saveToFile(path, *bytes).ok());
    auto loaded = loadFromFile(path);
    ASSERT_TRUE(loaded.ok());

    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(*loaded).ok());
    auto batch = reader.readAll();
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(*batch, gen.generatePartition(9));
}

TEST(IntegrationTest, GeneratedFeatureIndicesAreStableAcrossPaths)
{
    // Bucketize -> SigridHash of the same dense input must agree whether
    // the data came straight from the generator or through storage.
    const RmConfig cfg = smallRm(5, 32);
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(3);
    const auto encoded = ColumnarFileWriter().write(raw, 3);
    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(encoded).ok());
    auto decoded = reader.readAll();
    ASSERT_TRUE(decoded.ok());

    Preprocessor pre(cfg);
    const MiniBatch a = pre.preprocess(raw);
    const MiniBatch b = pre.preprocess(*decoded);
    for (size_t g = cfg.num_sparse; g < a.sparse.size(); ++g)
        EXPECT_EQ(a.sparse[g].values, b.sparse[g].values);
}

TEST(IntegrationTest, MixedWorkloadStoresAreIsolated)
{
    // Two jobs with different configs share nothing: partitions differ
    // and transforms differ, even for the same partition index.
    const RmConfig cfg_a = smallRm(1, 64);
    RmConfig cfg_b = smallRm(1, 64);
    GeneratorOptions opts;
    opts.seed = 777;
    RawDataGenerator gen_a(cfg_a);
    RawDataGenerator gen_b(cfg_b, opts);
    PartitionStore store_a(gen_a), store_b(gen_b);
    EXPECT_NE(*store_a.partition(0), *store_b.partition(0));
}

TEST(IntegrationTest, MultiEpochTrainingOverShuffledPartitions)
{
    // Figure 1 end to end, for real: a 4-partition dataset walked for
    // two epochs, in-storage preprocessing, and a DLRM whose held-out
    // loss drops after them.
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 128;
    cfg.num_dense = 6;
    cfg.num_sparse = 4;
    cfg.num_generated = 3;

    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    Preprocessor pre(cfg);

    DlrmParams params = DlrmParams::fromRmConfig(cfg, 8, 256);
    params.learning_rate = 0.08f;
    DlrmModel model(params);

    auto batchFor = [&](uint64_t pid) {
        ColumnarFileReader reader;
        EXPECT_TRUE(reader.open(*store.partition(pid)).ok());
        auto raw = reader.readAll();
        EXPECT_TRUE(raw.ok());
        return pre.preprocess(*raw);
    };

    const MiniBatch held_out = batchFor(99);
    const float before = model.evaluate(held_out);
    for (int epoch = 0; epoch < 2; ++epoch) {
        for (uint64_t pid = 0; pid < 4; ++pid)
            (void)model.trainStep(batchFor(pid));
    }
    EXPECT_LT(model.evaluate(held_out), before);
}

TEST(IntegrationTest, WorkAccountingConsistentWithDeliveredTensors)
{
    const RmConfig cfg = smallRm(2, 64);
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(0);
    const TransformWork work = TransformWork::measure(cfg, raw);
    const MiniBatch mb = Preprocessor(cfg).preprocess(raw);
    // hash_values counts every sparse id including generated ones.
    EXPECT_DOUBLE_EQ(work.hash_values,
                     static_cast<double>(mb.totalSparseValues()));
    EXPECT_DOUBLE_EQ(work.dense_values,
                     static_cast<double>(mb.dense.size()));
}

}  // namespace
}  // namespace presto
