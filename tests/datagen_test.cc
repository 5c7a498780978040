/**
 * @file
 * Tests for the Table I presets, the distribution samplers, and the raw
 * data generator.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "common/stats.h"
#include "datagen/distributions.h"
#include "datagen/generator.h"
#include "datagen/rm_config.h"

namespace presto {
namespace {

// --- RmConfig (Table I) -------------------------------------------------------

TEST(RmConfigTest, FiveWorkloads)
{
    EXPECT_EQ(numRmConfigs(), 5u);
}

TEST(RmConfigTest, Rm1MatchesCriteo)
{
    const RmConfig& c = rmConfig(1);
    EXPECT_EQ(c.num_dense, 13u);
    EXPECT_EQ(c.num_sparse, 26u);
    EXPECT_DOUBLE_EQ(c.avg_sparse_length, 1.0);
    EXPECT_TRUE(c.fixed_sparse_length);
    EXPECT_EQ(c.num_generated, 13u);
    EXPECT_EQ(c.bucket_size, 1024u);
    EXPECT_EQ(c.num_tables, 39u);
    EXPECT_EQ(c.avg_embeddings, 500000u);
    EXPECT_EQ(c.batch_size, 8192u);
}

// Every field is a size_t so the struct has no padding: gtest names each
// case after a byte dump of its parameter, and uninitialised padding bytes
// would make those names differ from build to build.
struct TableOneRow {
    size_t rm;
    size_t dense, sparse, generated, bucket, tables;
};

class TableOneTest : public ::testing::TestWithParam<TableOneRow>
{
};

TEST_P(TableOneTest, MatchesPaper)
{
    const auto& row = GetParam();
    const RmConfig& c = rmConfig(static_cast<int>(row.rm));
    EXPECT_EQ(c.num_dense, row.dense);
    EXPECT_EQ(c.num_sparse, row.sparse);
    EXPECT_EQ(c.num_generated, row.generated);
    EXPECT_EQ(c.bucket_size, row.bucket);
    EXPECT_EQ(c.num_tables, row.tables);
    // Tables = raw sparse features + generated sparse features.
    EXPECT_EQ(c.num_tables, c.totalSparseFeatures());
    // Shared model architecture.
    EXPECT_EQ(c.bottom_mlp, (std::vector<size_t>{512, 256, 128}));
    EXPECT_EQ(c.top_mlp, (std::vector<size_t>{1024, 1024, 512, 256, 1}));
}

INSTANTIATE_TEST_SUITE_P(
    AllRows, TableOneTest,
    ::testing::Values(TableOneRow{1, 13, 26, 13, 1024, 39},
                      TableOneRow{2, 504, 42, 21, 1024, 63},
                      TableOneRow{3, 504, 42, 42, 1024, 84},
                      TableOneRow{4, 504, 42, 42, 2048, 84},
                      TableOneRow{5, 504, 42, 42, 4096, 84}),
    [](const auto& info) { return "RM" + std::to_string(info.param.rm); });

TEST(RmConfigTest, RawValuesPerRow)
{
    const RmConfig& c = rmConfig(1);
    // 13 dense + 26 sparse x len 1 + 1 label.
    EXPECT_DOUBLE_EQ(c.rawValuesPerRow(), 40.0);
    EXPECT_DOUBLE_EQ(c.rawValuesPerBatch(), 40.0 * 8192);
}

TEST(RmConfigDeathTest, OutOfRangeIdPanics)
{
    EXPECT_DEATH(rmConfig(0), "RM id");
    EXPECT_DEATH(rmConfig(6), "RM id");
}

// --- ZipfSampler ---------------------------------------------------------------

class ZipfTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>>
{
};

TEST_P(ZipfTest, SamplesInRange)
{
    const auto [n, s] = GetParam();
    ZipfSampler zipf(n, s);
    Rng rng(99);
    for (int i = 0; i < 5000; ++i)
        EXPECT_LT(zipf.sample(rng), n);
}

TEST_P(ZipfTest, HeadIsMorePopularThanTail)
{
    const auto [n, s] = GetParam();
    if (n < 100)
        GTEST_SKIP() << "needs enough items to split head/tail";
    ZipfSampler zipf(n, s);
    Rng rng(100);
    uint64_t head = 0, tail = 0;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t v = zipf.sample(rng);
        if (v < n / 10)
            ++head;
        else if (v >= n - n / 10)
            ++tail;
    }
    EXPECT_GT(head, tail * 2);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ZipfTest,
    ::testing::Combine(::testing::Values(uint64_t{1}, uint64_t{10},
                                         uint64_t{1000},
                                         uint64_t{50'000'000}),
                       ::testing::Values(0.8, 1.0, 1.05, 1.5)));

TEST(ZipfTest, DeterministicGivenStream)
{
    ZipfSampler zipf(1000, 1.05);
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(zipf.sample(a), zipf.sample(b));
}

TEST(ZipfTest, SingleItemAlwaysZero)
{
    ZipfSampler zipf(1, 1.0);
    Rng rng(1);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(zipf.sample(rng), 0u);
}

TEST(ZipfTest, Rank1MostFrequent)
{
    ZipfSampler zipf(100, 1.2);
    Rng rng(5);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 50000; ++i)
        ++counts[zipf.sample(rng)];
    for (int k = 1; k < 10; ++k)
        EXPECT_GE(counts[0], counts[k]);
}

TEST(ZipfDeathTest, InvalidParamsPanic)
{
    EXPECT_DEATH(ZipfSampler(0, 1.0), "at least one item");
    EXPECT_DEATH(ZipfSampler(10, 0.0), "positive");
}

// --- PoissonSampler ---------------------------------------------------------------

class PoissonTest : public ::testing::TestWithParam<double>
{
};

TEST_P(PoissonTest, MeanAndVarianceMatchLambda)
{
    const double lambda = GetParam();
    PoissonSampler poisson(lambda);
    Rng rng(202);
    Accumulator acc;
    for (int i = 0; i < 50000; ++i)
        acc.add(static_cast<double>(poisson.sample(rng)));
    EXPECT_NEAR(acc.mean(), lambda, std::max(0.05, lambda * 0.03));
    EXPECT_NEAR(acc.variance(), lambda, std::max(0.1, lambda * 0.08));
}

INSTANTIATE_TEST_SUITE_P(Lambdas, PoissonTest,
                         ::testing::Values(0.5, 2.0, 20.0, 100.0));

TEST(PoissonTest, ZeroLambdaAlwaysZero)
{
    PoissonSampler poisson(0.0);
    Rng rng(1);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(poisson.sample(rng), 0u);
}

TEST(PoissonDeathTest, NegativeLambdaPanics)
{
    EXPECT_DEATH(PoissonSampler(-1.0), "non-negative");
}

// --- RawDataGenerator -----------------------------------------------------------

TEST(GeneratorTest, SchemaMatchesConfig)
{
    const RmConfig& cfg = rmConfig(2);
    RawDataGenerator gen(cfg);
    EXPECT_EQ(gen.schema().numDense(), cfg.num_dense);
    EXPECT_EQ(gen.schema().numSparse(), cfg.num_sparse);
    EXPECT_EQ(gen.schema().numLabels(), 1u);
}

TEST(GeneratorTest, PartitionIsDeterministic)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 256;
    RawDataGenerator a(cfg), b(cfg);
    EXPECT_EQ(a.generatePartition(3), b.generatePartition(3));
}

TEST(GeneratorTest, PartitionsAreIndependentOfGenerationOrder)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 128;
    RawDataGenerator a(cfg), b(cfg);
    (void)a.generatePartition(0);  // warm a differently than b
    EXPECT_EQ(a.generatePartition(5), b.generatePartition(5));
}

TEST(GeneratorTest, DistinctPartitionsDiffer)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 128;
    RawDataGenerator gen(cfg);
    EXPECT_FALSE(gen.generatePartition(0) == gen.generatePartition(1));
}

TEST(GeneratorTest, RowCountOverride)
{
    RawDataGenerator gen(rmConfig(1));
    EXPECT_EQ(gen.generatePartition(0, 64).numRows(), 64u);
}

TEST(GeneratorTest, DefaultRowsIsBatchSize)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 512;
    RawDataGenerator gen(cfg);
    EXPECT_EQ(gen.generatePartition(0).numRows(), 512u);
}

TEST(GeneratorTest, Rm1SparseLengthsAreFixedAtOne)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 256;
    RawDataGenerator gen(cfg);
    const RowBatch batch = gen.generatePartition(0);
    for (size_t c : batch.schema().indicesOfKind(FeatureKind::kSparse)) {
        const auto& col = batch.sparse(c);
        for (size_t r = 0; r < col.numRows(); ++r)
            EXPECT_EQ(col.rowLength(r), 1u);
    }
}

TEST(GeneratorTest, ProductionSparseLengthsAverageTwenty)
{
    RmConfig cfg = rmConfig(5);
    cfg.batch_size = 512;
    cfg.num_sparse = 8;  // keep the test fast
    cfg.num_dense = 4;
    cfg.num_generated = 2;
    RawDataGenerator gen(cfg);
    const RowBatch batch = gen.generatePartition(0);
    Accumulator acc;
    for (size_t c : batch.schema().indicesOfKind(FeatureKind::kSparse))
        acc.add(batch.sparse(c).averageLength());
    EXPECT_NEAR(acc.mean(), 20.0, 1.0);
}

TEST(GeneratorTest, MissingDenseRateMatchesOption)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 2048;
    GeneratorOptions opts;
    opts.missing_dense_prob = 0.1;
    RawDataGenerator gen(cfg, opts);
    const RowBatch batch = gen.generatePartition(0);
    size_t nan_count = 0, total = 0;
    for (size_t c : batch.schema().indicesOfKind(FeatureKind::kDense)) {
        for (float v : batch.dense(c).values()) {
            nan_count += std::isnan(v);
            ++total;
        }
    }
    EXPECT_NEAR(static_cast<double>(nan_count) / total, 0.1, 0.02);
}

TEST(GeneratorTest, LabelsAreBinaryWithLowCtr)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 4096;
    RawDataGenerator gen(cfg);
    const RowBatch batch = gen.generatePartition(0);
    const auto& labels = batch.dense(0);
    size_t clicks = 0;
    for (float v : labels.values()) {
        EXPECT_TRUE(v == 0.0f || v == 1.0f);
        clicks += (v == 1.0f);
    }
    EXPECT_NEAR(static_cast<double>(clicks) / batch.numRows(), 0.03, 0.015);
}

TEST(GeneratorTest, SparseIdsAreNonNegative)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 256;
    RawDataGenerator gen(cfg);
    const RowBatch batch = gen.generatePartition(0);
    for (size_t c : batch.schema().indicesOfKind(FeatureKind::kSparse)) {
        for (int64_t id : batch.sparse(c).values())
            EXPECT_GE(id, 0);
    }
}

TEST(GeneratorTest, DifferentSeedsProduceDifferentData)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 128;
    GeneratorOptions opt_a, opt_b;
    opt_b.seed = opt_a.seed + 1;
    RawDataGenerator a(cfg, opt_a), b(cfg, opt_b);
    EXPECT_FALSE(a.generatePartition(0) == b.generatePartition(0));
}

}  // namespace
}  // namespace presto
