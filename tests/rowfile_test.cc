/**
 * @file
 * Tests for the row-oriented (RSF) baseline format.
 */
#include <gtest/gtest.h>

#include "columnar/columnar_file.h"
#include "columnar/row_file.h"
#include "datagen/generator.h"

namespace presto {
namespace {

RowBatch
smallBatch(int rm, size_t rows, uint64_t partition = 0)
{
    RmConfig cfg = rmConfig(rm);
    cfg.batch_size = rows;
    RawDataGenerator gen(cfg);
    return gen.generatePartition(partition);
}

// --- RowFile -------------------------------------------------------------------

class RowFileRoundTrip : public ::testing::TestWithParam<int>
{
};

TEST_P(RowFileRoundTrip, ReadAllRecoversBatch)
{
    const RowBatch batch = smallBatch(GetParam(), 150);
    const auto bytes = RowFileWriter().write(batch, 9);
    RowFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    EXPECT_EQ(reader.numRows(), 150u);
    EXPECT_EQ(reader.partitionId(), 9u);
    EXPECT_EQ(reader.schema(), batch.schema());
    auto out = reader.readAll();
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, batch);
}

INSTANTIATE_TEST_SUITE_P(Workloads, RowFileRoundTrip,
                         ::testing::Values(1, 2, 5));

TEST(RowFileTest, ProjectionMatchesColumnarContent)
{
    const RowBatch batch = smallBatch(1, 80);
    const auto rsf = RowFileWriter().write(batch, 0);
    const auto psf = ColumnarFileWriter().write(batch, 0);

    const std::vector<std::string> names = {"dense_2", "sparse_5"};
    RowFileReader row_reader;
    ASSERT_TRUE(row_reader.open(rsf).ok());
    auto from_row = row_reader.readColumns(names);
    ASSERT_TRUE(from_row.ok());

    ColumnarFileReader col_reader;
    ASSERT_TRUE(col_reader.open(psf).ok());
    auto from_col = col_reader.readColumns(names);
    ASSERT_TRUE(from_col.ok());

    EXPECT_EQ(*from_row, *from_col);
}

TEST(RowFileTest, AnyProjectionTouchesWholeRecordRegion)
{
    const RowBatch batch = smallBatch(2, 100);
    const auto bytes = RowFileWriter().write(batch, 0);

    RowFileReader one_col;
    ASSERT_TRUE(one_col.open(bytes).ok());
    ASSERT_TRUE(one_col.readColumns({"dense_0"}).ok());

    RowFileReader all_cols;
    ASSERT_TRUE(all_cols.open(bytes).ok());
    ASSERT_TRUE(all_cols.readAll().ok());

    // Overfetch: scanning one column costs the same as scanning all.
    EXPECT_EQ(one_col.bytesTouched(), all_cols.bytesTouched());
    EXPECT_GT(one_col.bytesTouched(), bytes.size() * 9 / 10);
}

TEST(RowFileTest, UnknownFeatureIsNotFound)
{
    const auto bytes = RowFileWriter().write(smallBatch(1, 10), 0);
    RowFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    EXPECT_EQ(reader.readColumns({"missing"}).status().code(),
              StatusCode::kNotFound);
}

TEST(RowFileTest, MagicAndFooterCorruptionDetected)
{
    const auto bytes = RowFileWriter().write(smallBatch(1, 10), 0);
    for (size_t pos : {size_t{0}, bytes.size() - 1, bytes.size() - 10}) {
        auto corrupted = bytes;
        corrupted[pos] ^= 0x20;
        RowFileReader reader;
        EXPECT_FALSE(reader.open(corrupted).ok()) << "flip at " << pos;
    }
}

TEST(RowFileTest, ReadBeforeOpenFails)
{
    RowFileReader reader;
    EXPECT_EQ(reader.readAll().status().code(),
              StatusCode::kFailedPrecondition);
}

TEST(RowFileTest, RowFormatBiggerOrSimilarButNeverSelective)
{
    // Columnar wins on selective reads even when total sizes are close.
    const RowBatch batch = smallBatch(5, 200);
    const auto rsf = RowFileWriter().write(batch, 0);
    const auto psf = ColumnarFileWriter().write(batch, 0);
    ColumnarFileReader col_reader;
    ASSERT_TRUE(col_reader.open(psf).ok());
    ASSERT_TRUE(col_reader.readColumns({"dense_0"}).ok());
    EXPECT_LT(col_reader.bytesTouched() * 10, rsf.size());
}

}  // namespace
}  // namespace presto
