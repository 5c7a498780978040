/**
 * @file
 * Tests for the functional ISP datapath emulator: bit-identical results
 * vs the CPU reference path and unit counters consistent with the
 * analytical TransformWork model.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "columnar/columnar_file.h"
#include "core/isp_emulator.h"
#include "datagen/generator.h"
#include "ops/preprocessor.h"

namespace presto {
namespace {

RmConfig
emuConfig(int rm, size_t batch = 96)
{
    RmConfig cfg = rmConfig(rm);
    cfg.batch_size = batch;
    if (rm != 1) {
        cfg.num_dense = 7;
        cfg.num_sparse = 4;
        cfg.num_generated = 3;
    }
    return cfg;
}

class EmulatorEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(EmulatorEquivalence, MatchesCpuReferencePath)
{
    const RmConfig cfg = emuConfig(GetParam());
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(4);
    const auto encoded = ColumnarFileWriter().write(raw, 4);

    const MiniBatch reference = Preprocessor(cfg).preprocess(raw);
    IspEmulator emulator(cfg);
    const MiniBatch emulated = emulator.process(encoded).value();

    EXPECT_EQ(reference.dense, emulated.dense);
    EXPECT_EQ(reference.labels, emulated.labels);
    ASSERT_EQ(reference.sparse.size(), emulated.sparse.size());
    for (size_t i = 0; i < reference.sparse.size(); ++i) {
        EXPECT_EQ(reference.sparse[i].feature_name,
                  emulated.sparse[i].feature_name);
        EXPECT_EQ(reference.sparse[i].values, emulated.sparse[i].values);
        EXPECT_EQ(reference.sparse[i].lengths, emulated.sparse[i].lengths);
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, EmulatorEquivalence,
                         ::testing::Values(1, 2, 5));

TEST(IspEmulatorTest, CountersMatchTransformWork)
{
    const RmConfig cfg = emuConfig(5, 128);
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(0);
    const auto encoded = ColumnarFileWriter().write(raw, 0);
    const TransformWork work = TransformWork::measure(cfg, raw);

    IspEmulator emulator(cfg);
    (void)emulator.process(encoded);
    const IspUnitCounters& c = emulator.counters();

    EXPECT_EQ(static_cast<double>(c.decoded_values), work.raw_values);
    EXPECT_EQ(static_cast<double>(c.bucketize_values),
              work.bucketize_values);
    EXPECT_EQ(static_cast<double>(c.hash_values), work.hash_values);
    EXPECT_EQ(static_cast<double>(c.log_values), work.dense_values);
    EXPECT_EQ(static_cast<double>(c.convert_values), work.output_values);
    EXPECT_EQ(c.bucketize_levels,
              c.bucketize_values *
                  static_cast<uint64_t>(work.bucketize_levels));
    EXPECT_EQ(c.p2p_bytes, encoded.size());
}

TEST(IspEmulatorTest, DoubleBufferingEngagesOnLargeStreams)
{
    // Batches larger than the PE buffer require multiple chunk swaps.
    RmConfig cfg = emuConfig(1, 8192);
    RawDataGenerator gen(cfg);
    const auto encoded =
        ColumnarFileWriter().write(gen.generatePartition(0), 0);
    IspEmulator emulator(cfg);
    (void)emulator.process(encoded);
    // 8192-value streams over 4096-value buffers: >= 2 swaps per pass.
    EXPECT_GT(emulator.counters().buffer_swaps,
              cfg.num_dense * 2);
}

TEST(IspEmulatorTest, FeatureUnitsEngageUpToPoolSize)
{
    const RmConfig cfg = emuConfig(2);  // 7 dense + 4 sparse streams
    RawDataGenerator gen(cfg);
    const auto encoded =
        ColumnarFileWriter().write(gen.generatePartition(0), 0);

    IspEmulator narrow(cfg, 2);
    (void)narrow.process(encoded);
    EXPECT_EQ(narrow.counters().feature_units_used, 2u);

    IspEmulator wide(cfg, 64);
    (void)wide.process(encoded);
    EXPECT_EQ(wide.counters().feature_units_used, 11u);  // one per stream
}

/** Every counter field, as one comparable tuple. */
auto
counterFields(const IspUnitCounters& c)
{
    return std::make_tuple(c.p2p_bytes, c.decoded_values,
                           c.bucketize_values, c.bucketize_levels,
                           c.hash_values, c.log_values, c.convert_values,
                           c.buffer_swaps, c.feature_units_used);
}

IspUnitCounters
countersOf(const RmConfig& cfg, int units)
{
    RawDataGenerator gen(cfg);
    const auto encoded =
        ColumnarFileWriter().write(gen.generatePartition(0), 0);
    IspEmulator emulator(cfg, units);
    EXPECT_TRUE(emulator.process(encoded).ok());
    return emulator.counters();
}

TEST(IspEmulatorTest, CountersArePinned)
{
    // Recorded from the emulator that streamed each output through its
    // PE in kPeBufferValues chunks and counted inside the chunk loop;
    // the counters derived from the program's outputs must agree.
    // Fields: p2p, decoded, bucketize values/levels, hash, log,
    // convert, buffer swaps, feature units.
    RmConfig rm1 = rmConfig(1);
    rm1.batch_size = 8192;
    IspUnitCounters c = countersOf(rm1, 8);
    EXPECT_EQ(counterFields(c),
              std::make_tuple(1661214ull, 327680ull, 106496ull, 1171456ull,
                              319488ull, 106496ull, 434176ull, 104ull, 8u));

    c = countersOf(emuConfig(2), 2);
    EXPECT_EQ(counterFields(c),
              std::make_tuple(51266ull, 8360ull, 288ull, 3168ull, 7880ull,
                              672ull, 8648ull, 14ull, 2u));
    c = countersOf(emuConfig(2), 64);
    EXPECT_EQ(counterFields(c),
              std::make_tuple(51266ull, 8360ull, 288ull, 3168ull, 7880ull,
                              672ull, 8648ull, 14ull, 11u));

    c = countersOf(emuConfig(5, 128), 8);
    EXPECT_EQ(counterFields(c),
              std::make_tuple(67824ull, 11248ull, 384ull, 4992ull, 10608ull,
                              896ull, 11632ull, 14ull, 8u));
}

TEST(IspEmulatorTest, SameDecodedBatchGivesTheCompiledProgramsOutput)
{
    const RmConfig cfg = emuConfig(5, 300);
    RawDataGenerator gen(cfg);
    const auto encoded =
        ColumnarFileWriter().write(gen.generatePartition(2), 2);

    // The batch the device's Decoder unit sees, run by the CPU path.
    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(encoded).ok());
    RowBatch decoded;
    ASSERT_TRUE(reader.readAllInto(decoded).ok());
    MiniBatch cpu;
    BatchArena arena;
    Preprocessor(cfg).program().run(decoded, cpu, arena);

    IspEmulator emulator(cfg);
    MiniBatch isp;
    ASSERT_TRUE(emulator.processInto(encoded, isp).ok());

    // Floats compare bit for bit, so -0.0f and NaN payloads count too.
    auto sameBits = [](const std::vector<float>& a,
                       const std::vector<float>& b) {
        return a.size() == b.size() &&
               std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
                   0;
    };
    EXPECT_EQ(isp.batch_size, cpu.batch_size);
    EXPECT_EQ(isp.num_dense, cpu.num_dense);
    EXPECT_TRUE(sameBits(isp.labels, cpu.labels));
    EXPECT_TRUE(sameBits(isp.dense, cpu.dense));
    ASSERT_EQ(isp.sparse.size(), cpu.sparse.size());
    for (size_t i = 0; i < cpu.sparse.size(); ++i) {
        EXPECT_EQ(isp.sparse[i].feature_name, cpu.sparse[i].feature_name);
        EXPECT_EQ(isp.sparse[i].lengths, cpu.sparse[i].lengths);
        EXPECT_EQ(isp.sparse[i].values, cpu.sparse[i].values);
    }
}

TEST(IspEmulatorTest, DeterministicAcrossInstances)
{
    const RmConfig cfg = emuConfig(2);
    RawDataGenerator gen(cfg);
    const auto encoded =
        ColumnarFileWriter().write(gen.generatePartition(1), 1);
    IspEmulator a(cfg), b(cfg);
    const MiniBatch ma = a.process(encoded).value();
    const MiniBatch mb = b.process(encoded).value();
    EXPECT_EQ(ma.dense, mb.dense);
    for (size_t i = 0; i < ma.sparse.size(); ++i)
        EXPECT_EQ(ma.sparse[i].values, mb.sparse[i].values);
}

TEST(IspEmulatorTest, CorruptPartitionReturnsCorruptionStatus)
{
    const RmConfig cfg = emuConfig(1);
    RawDataGenerator gen(cfg);
    auto encoded = ColumnarFileWriter().write(gen.generatePartition(0), 0);
    encoded[encoded.size() / 2] ^= 0x01;
    IspEmulator emulator(cfg);
    const auto result = emulator.process(encoded);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
    EXPECT_NE(result.status().message().find("ISP decode failed"),
              std::string::npos);
}

TEST(IspEmulatorTest, WorkloadMismatchReturnsCorruptionStatus)
{
    // A valid RM2-shaped partition fed to an RM1-configured device is a
    // data-placement fault, not a crash.
    const RmConfig stored = emuConfig(2);
    RawDataGenerator gen(stored);
    const auto encoded =
        ColumnarFileWriter().write(gen.generatePartition(0), 0);
    IspEmulator emulator(emuConfig(1));
    const auto result = emulator.process(encoded);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(IspEmulatorDeathTest, BadUnitCountPanics)
{
    EXPECT_DEATH(IspEmulator(rmConfig(1), 0), "feature unit");
}

}  // namespace
}  // namespace presto
