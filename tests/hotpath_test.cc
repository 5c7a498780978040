/**
 * @file
 * Differential and allocation tests for the vectorized Transform hot
 * path: every SIMD dispatch level must produce bit-identical results to
 * the scalar reference ops, and the steady-state preprocess loop must
 * run without per-batch heap allocations.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <new>
#include <random>
#include <ranges>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "columnar/columnar_file.h"
#include "common/batch_arena.h"
#include "common/crc32.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/isp_emulator.h"
#include "core/managers.h"
#include "core/partition_producer.h"
#include "core/partition_store.h"
#include "datagen/generator.h"
#include "io/io_ring.h"
#include "ops/fast_math.h"
#include "ops/fast_ops.h"
#include "ops/hash.h"
#include "ops/ops.h"
#include "ops/plan.h"
#include "ops/preprocessor.h"
#include "ops/simd.h"
#include "service/ingest_service.h"
#include "store/segment_store.h"

#include <sys/resource.h>

// --- Global allocation-counting hook --------------------------------------
// Replaces the global allocation functions for this test binary; counting
// is off unless a test arms it, so gtest's own allocations don't count.
// It counts calls and sums the bytes requested.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<size_t> g_alloc_count{0};
std::atomic<size_t> g_alloc_bytes{0};

void*
countedAlloc(std::size_t size)
{
    if (g_count_allocs.load(std::memory_order_relaxed)) {
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
        g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    }
    void* p = std::malloc(size ? size : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}
}  // namespace

void*
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace presto {
namespace {

/** Every dispatch level available on this machine, scalar first. */
std::vector<SimdLevel>
availableLevels()
{
    std::vector<SimdLevel> levels{SimdLevel::kScalar};
    if (detectedSimdLevel() >= SimdLevel::kAvx2)
        levels.push_back(SimdLevel::kAvx2);
    if (detectedSimdLevel() >= SimdLevel::kAvx512)
        levels.push_back(SimdLevel::kAvx512);
    return levels;
}

/** RAII restore of the active SIMD level. */
class ScopedSimdLevel
{
  public:
    explicit ScopedSimdLevel(SimdLevel level) : saved_(activeSimdLevel())
    {
        setSimdLevel(level);
    }
    ~ScopedSimdLevel() { setSimdLevel(saved_); }

  private:
    SimdLevel saved_;
};

std::vector<float>
adversarialFloats(size_t n, uint32_t seed)
{
    std::mt19937 rng(seed);
    std::vector<float> v(n);
    for (size_t i = 0; i < n; ++i) {
        switch (rng() % 8) {
          case 0: v[i] = std::numeric_limits<float>::quiet_NaN(); break;
          case 1: v[i] = std::numeric_limits<float>::infinity(); break;
          case 2: v[i] = -std::numeric_limits<float>::infinity(); break;
          case 3: v[i] = std::numeric_limits<float>::denorm_min(); break;
          case 4: v[i] = -1.0f * static_cast<float>(rng() % 1000); break;
          case 5:
            // Random bit pattern (may be NaN/inf/denormal/negative).
            v[i] = std::bit_cast<float>(static_cast<uint32_t>(rng()));
            break;
          default:
            v[i] = std::ldexp(static_cast<float>(rng()),
                              static_cast<int>(rng() % 40) - 20);
        }
    }
    return v;
}

TEST(SimdDispatchTest, DetectionIsMonotonicAndSettable)
{
    const SimdLevel detected = detectedSimdLevel();
    EXPECT_GE(detected, SimdLevel::kScalar);
    ScopedSimdLevel scoped(SimdLevel::kScalar);
    EXPECT_EQ(activeSimdLevel(), SimdLevel::kScalar);
    // Requests above the detected level clamp down.
    EXPECT_EQ(setSimdLevel(SimdLevel::kAvx512), detected);
    EXPECT_EQ(activeSimdLevel(), detected);
}

TEST(HotpathDifferentialTest, SigridHashMatchesReferenceOnAllLevels)
{
    const std::vector<int64_t> divisors{
        1,       2,         3,        7,         1024,
        500000,  999983,    33554431, 33554432,  int64_t{1} << 26,
        (int64_t{1} << 40) + 7};
    std::mt19937_64 rng(42);
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                     size_t{9}, size_t{4096}}) {
        std::vector<int64_t> input(n);
        for (auto& v : input)
            v = static_cast<int64_t>(rng());
        for (int64_t d : divisors) {
            const uint64_t seed = rng();
            std::vector<int64_t> expected(input);
            sigridHashInPlace(expected, seed, d);
            for (SimdLevel level : availableLevels()) {
                ScopedSimdLevel scoped(level);
                std::vector<int64_t> got(n, -1);
                sigridHashInto(input, got, seed, d);
                EXPECT_EQ(got, expected)
                    << "level=" << simdLevelName(level) << " d=" << d
                    << " n=" << n;
                // In-place (aliased) form.
                std::vector<int64_t> inplace(input);
                sigridHashInPlaceFast(inplace, seed, d);
                EXPECT_EQ(inplace, expected)
                    << "level=" << simdLevelName(level) << " d=" << d;
            }
        }
    }
}

TEST(HotpathDifferentialTest, LogMatchesReferenceOnAllLevels)
{
    for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                     size_t{17}, size_t{4096}}) {
        const auto input = adversarialFloats(n, 7 + n);
        std::vector<float> expected(input);
        logTransformInPlace(expected);
        for (SimdLevel level : availableLevels()) {
            ScopedSimdLevel scoped(level);
            std::vector<float> got(input);
            logTransformInPlaceFast(got);
            for (size_t i = 0; i < n; ++i) {
                EXPECT_EQ(std::bit_cast<uint32_t>(got[i]),
                          std::bit_cast<uint32_t>(expected[i]))
                    << "level=" << simdLevelName(level) << " i=" << i
                    << " in=" << input[i];
            }
        }
    }
}

TEST(HotpathDifferentialTest, FastLog1pNearLibm)
{
    // fastLog1p must stay within EXPECT_FLOAT_EQ's 4-ulp band of libm
    // (existing ops tests compare transformed output against std::log1p).
    const auto input = adversarialFloats(65536, 99);
    for (float v : input) {
        const float x = v < 0.0f ? 0.0f : v;
        if (std::isnan(x)) {
            EXPECT_TRUE(std::isnan(fastLog1p(x)));
            continue;
        }
        EXPECT_FLOAT_EQ(fastLog1p(x), std::log1p(x)) << "x=" << x;
    }
}

TEST(HotpathDifferentialTest, FillMissingMatchesReferenceOnAllLevels)
{
    for (size_t n : {size_t{0}, size_t{3}, size_t{16}, size_t{4097}}) {
        const auto input = adversarialFloats(n, 11 + n);
        std::vector<float> expected(input);
        fillMissingInPlace(expected, -1.5f);
        for (SimdLevel level : availableLevels()) {
            ScopedSimdLevel scoped(level);
            std::vector<float> got(input);
            fillMissingInPlaceFast(got, -1.5f);
            for (size_t i = 0; i < n; ++i) {
                EXPECT_EQ(std::bit_cast<uint32_t>(got[i]),
                          std::bit_cast<uint32_t>(expected[i]))
                    << "level=" << simdLevelName(level) << " i=" << i;
            }
        }
    }
}

TEST(HotpathDifferentialTest, BucketizeMatchesReferenceOnAllLevels)
{
    std::mt19937 rng(23);
    for (size_t num_bounds : {size_t{1}, size_t{2}, size_t{3}, size_t{37},
                              size_t{1024}, size_t{4096}}) {
        std::vector<float> b(num_bounds);
        float acc = -100.0f;
        for (auto& v : b) {
            // Duplicate boundaries are allowed (ties exercise the
            // upper_bound-vs-lower_bound distinction).
            acc += static_cast<float>(rng() % 3);
            v = acc;
        }
        const BucketBoundaries bounds(b);
        const FastBucketizer fast(bounds);
        for (size_t n : {size_t{0}, size_t{1}, size_t{8}, size_t{9},
                         size_t{4096}}) {
            auto values = adversarialFloats(n, 31 + n);
            // Mix in exact boundary hits.
            for (size_t i = 0; i + 2 < n; i += 3)
                values[i] = b[rng() % num_bounds];
            std::vector<int64_t> expected(n);
            bucketizeInto(values, bounds, expected);
            for (SimdLevel level : availableLevels()) {
                ScopedSimdLevel scoped(level);
                std::vector<int64_t> got(n, -1);
                fast.bucketizeInto(values, got);
                EXPECT_EQ(got, expected)
                    << "level=" << simdLevelName(level)
                    << " bounds=" << num_bounds << " n=" << n;
            }
            for (size_t i = 0; i < std::min(n, size_t{64}); ++i)
                EXPECT_EQ(fast.searchBucketId(values[i]), expected[i]);
        }
    }
}

/** Structural checksum over every tensor of a mini-batch. */
uint64_t
batchChecksum(const MiniBatch& mb)
{
    uint64_t crc = crc32c(mb.dense.data(), mb.dense.size() * sizeof(float));
    crc = crc32c(mb.labels.data(), mb.labels.size() * sizeof(float), crc);
    for (const auto& jag : mb.sparse) {
        crc = crc32c(jag.values.data(),
                     jag.values.size() * sizeof(int64_t), crc);
        crc = crc32c(jag.lengths.data(),
                     jag.lengths.size() * sizeof(uint32_t), crc);
    }
    return mix64(crc + mb.batch_size);
}

TEST(HotpathDifferentialTest, ArenaPreprocessMatchesAllocatingPath)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 512;
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(3);
    const Preprocessor pre(cfg);

    ScopedSimdLevel scalar(SimdLevel::kScalar);
    const uint64_t want = batchChecksum(pre.preprocess(raw));

    for (SimdLevel level : availableLevels()) {
        ScopedSimdLevel scoped(level);
        BatchArena arena;
        MiniBatch mb;
        // Repeated reuse of the same arena + output shell must keep
        // producing the reference bits (second pass runs on recycled
        // capacity).
        for (int pass = 0; pass < 3; ++pass) {
            pre.preprocessInto(raw, mb, arena);
            EXPECT_EQ(batchChecksum(mb), want)
                << "level=" << simdLevelName(level) << " pass=" << pass;
        }
        EXPECT_EQ(arena.batches(), 3u);
    }
}

TEST(HotpathDifferentialTest, ReaderReuseMatchesFreshReader)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 256;
    RawDataGenerator gen(cfg);
    ColumnarFileWriter writer;

    ColumnarFileReader reused;
    RowBatch batch;
    for (uint64_t pid = 0; pid < 3; ++pid) {
        const auto encoded = writer.write(gen.generatePartition(pid), pid);
        ASSERT_TRUE(reused.open(encoded).ok());
        ASSERT_TRUE(reused.readAllInto(batch).ok());

        ColumnarFileReader fresh;
        ASSERT_TRUE(fresh.open(encoded).ok());
        auto fresh_batch = fresh.readAll();
        ASSERT_TRUE(fresh_batch.ok());

        ASSERT_EQ(batch.numRows(), fresh_batch->numRows());
        ASSERT_EQ(batch.numColumns(), fresh_batch->numColumns());
        for (size_t c = 0; c < batch.numColumns(); ++c) {
            if (batch.schema().feature(c).kind == FeatureKind::kSparse) {
                EXPECT_TRUE(std::ranges::equal(
                    batch.sparse(c).values(),
                    fresh_batch->sparse(c).values()));
                EXPECT_TRUE(std::ranges::equal(
                    batch.sparse(c).offsets(),
                    fresh_batch->sparse(c).offsets()));
            } else {
                // Bitwise compare: raw dense columns carry NaN missing
                // values, which float == would reject.
                EXPECT_TRUE(std::ranges::equal(
                    batch.dense(c).values(),
                    fresh_batch->dense(c).values(),
                    [](float a, float b) {
                        return std::bit_cast<uint32_t>(a) ==
                               std::bit_cast<uint32_t>(b);
                    }));
            }
        }
        EXPECT_EQ(reused.bytesTouched(), fresh.bytesTouched());
    }
}

TEST(ZeroAllocTest, SteadyStatePreprocessLoopDoesNotAllocate)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 512;
    RawDataGenerator gen(cfg);
    const auto encoded =
        ColumnarFileWriter().write(gen.generatePartition(0), 0);
    const Preprocessor pre(cfg);

    ColumnarFileReader reader;
    RowBatch raw;
    BatchArena arena;
    MiniBatch mb;
    // Warm-up sizes every buffer (arena slots, decode scratch, output
    // tensors); repeat so amortized growth is done too.
    for (int warm = 0; warm < 3; ++warm) {
        ASSERT_TRUE(reader.open(encoded).ok());
        ASSERT_TRUE(reader.readAllInto(raw).ok());
        pre.preprocessInto(raw, mb, arena);
    }
    const uint64_t want = batchChecksum(mb);
    const size_t slots = arena.slotAllocations();

    bool all_ok = true;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 8; ++i) {
        all_ok = all_ok && reader.open(encoded).ok();
        all_ok = all_ok && reader.readAllInto(raw).ok();
        pre.preprocessInto(raw, mb, arena);
    }
    g_count_allocs.store(false);

    ASSERT_TRUE(all_ok);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "steady-state fetch+decode+transform loop heap-allocated";
    EXPECT_EQ(arena.slotAllocations(), slots);
    EXPECT_EQ(batchChecksum(mb), want);
}

TEST(ZeroAllocTest, SteadyStatePlanExecutorRunIntoDoesNotAllocate)
{
    // The fused bytecode VM behind PlanExecutor (and Preprocessor) must
    // stream values register-to-register: once buffers are sized, a
    // compiled plan's runInto performs zero heap allocations per batch.
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 512;
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(0);
    const PlanExecutor exec(TransformPlan::standard(cfg), raw.schema());

    MiniBatch mb;
    BatchArena arena;
    for (int warm = 0; warm < 3; ++warm)
        exec.runInto(raw, mb, arena);
    const uint64_t want = batchChecksum(mb);

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 8; ++i)
        exec.runInto(raw, mb, arena);
    g_count_allocs.store(false);

    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "fused-VM steady-state runInto heap-allocated";
    EXPECT_EQ(batchChecksum(mb), want);
}

TEST(ZeroAllocTest, SteadyStateDecodeLoopCoversEveryIntEncoding)
{
    // A file whose pages exercise the breadth of the integer encodings
    // (bit-packed dictionaries, RLE lengths, delta offsets, varints):
    // serial decode of all of them must stay allocation-free once the
    // reader's scratch buffers are warm.
    Schema schema;
    schema.add({"label", FeatureKind::kDense});
    schema.add({"few_distinct", FeatureKind::kSparse});
    schema.add({"monotone", FeatureKind::kSparse});
    schema.add({"uniform", FeatureKind::kSparse});
    schema.add({"runs", FeatureKind::kSparse});
    RowBatch batch(schema);
    constexpr size_t kRows = 4096;
    std::mt19937_64 rng(17);
    std::vector<float> labels(kRows);
    for (auto& l : labels)
        l = static_cast<float>(rng() % 2);
    batch.addColumn(DenseColumn(std::move(labels)));
    for (int shape = 0; shape < 4; ++shape) {
        std::vector<int64_t> ids;
        std::vector<uint32_t> offsets{0};
        int64_t acc = 0;
        for (size_t i = 0; i < kRows; ++i) {
            for (size_t j = 0; j < 3; ++j) {
                switch (shape) {
                  case 0:
                    ids.push_back(
                        static_cast<int64_t>(rng() % 11) * 999'983);
                    break;
                  case 1:
                    acc += static_cast<int64_t>(rng() % 50);
                    ids.push_back(acc);
                    break;
                  case 2:
                    ids.push_back(static_cast<int64_t>(rng()));
                    break;
                  default:
                    // Long runs over a multi-bit value range: RLE beats
                    // bit-packing here (width-0 packing only wins for
                    // genuinely constant pages, like the lengths).
                    ids.push_back(
                        static_cast<int64_t>((ids.size() / 113) % 5));
                    break;
                }
            }
            offsets.push_back(static_cast<uint32_t>(ids.size()));
        }
        batch.addColumn(SparseColumn(std::move(ids), std::move(offsets)));
    }
    const auto encoded = ColumnarFileWriter().write(batch, 0);

    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(encoded).ok());
    std::vector<bool> seen(7, false);
    for (const auto& col : reader.footer().columns) {
        for (const auto& stream : col.streams) {
            size_t pos = stream.offset;
            for (uint32_t p = 0; p < stream.num_pages; ++p) {
                PageView page;
                ASSERT_TRUE(scanPageFrame(encoded, pos, page).ok());
                seen[static_cast<size_t>(page.encoding)] = true;
            }
        }
    }
    EXPECT_TRUE(seen[static_cast<size_t>(Encoding::kBitPacked)])
        << "few-distinct ids were expected to choose kBitPacked";
    EXPECT_TRUE(seen[static_cast<size_t>(Encoding::kRle)]);
    EXPECT_TRUE(seen[static_cast<size_t>(Encoding::kPlainI64)]);

    RowBatch raw;
    for (int warm = 0; warm < 3; ++warm) {
        ASSERT_TRUE(reader.open(encoded).ok());
        ASSERT_TRUE(reader.readAllInto(raw).ok());
    }
    ASSERT_EQ(raw, batch);

    bool all_ok = true;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 8; ++i) {
        all_ok = all_ok && reader.open(encoded).ok();
        all_ok = all_ok && reader.readAllInto(raw).ok();
    }
    g_count_allocs.store(false);

    ASSERT_TRUE(all_ok);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "steady-state decode loop heap-allocated";
    EXPECT_EQ(raw, batch);
}

TEST(ZeroAllocTest, SteadyStateDecodeOfCompressedPagesDoesNotAllocate)
{
    // LZ-compressed pages route decode through the reader's decompress
    // scratch; once that is warm the loop must stay allocation-free,
    // same as the uncompressed path. RM2's clustered ids give the codec
    // real work — assert that so the test cannot pass vacuously.
    RmConfig cfg = rmConfig(2);
    cfg.batch_size = 512;
    RawDataGenerator gen(cfg);
    const auto encoded =
        ColumnarFileWriter().write(gen.generatePartition(0), 0);

    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(encoded).ok());
    size_t compressed_pages = 0;
    size_t entropy_pages = 0;
    for (const auto& col : reader.footer().columns) {
        for (const auto& stream : col.streams) {
            size_t pos = stream.offset;
            for (uint32_t p = 0; p < stream.num_pages; ++p) {
                PageView page;
                ASSERT_TRUE(scanPageFrame(encoded, pos, page).ok());
                if (page.codec != PageCodec::kNone)
                    ++compressed_pages;
                if (page.codec == PageCodec::kEntropy ||
                    page.codec == PageCodec::kLzEntropy)
                    ++entropy_pages;
            }
        }
    }
    ASSERT_GT(compressed_pages, 0u) << "no page compressed";
    // The default menu is kLzEntropy: entropy-coded pages must be part
    // of the loop (their table build + bitstream decode included) or
    // the zero-alloc claim would not cover the new codec.
    ASSERT_GT(entropy_pages, 0u) << "no page entropy-coded";

    RowBatch raw;
    for (int warm = 0; warm < 3; ++warm) {
        ASSERT_TRUE(reader.open(encoded).ok());
        ASSERT_TRUE(reader.readAllInto(raw).ok());
    }

    bool all_ok = true;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 8; ++i) {
        all_ok = all_ok && reader.open(encoded).ok();
        all_ok = all_ok && reader.readAllInto(raw).ok();
    }
    g_count_allocs.store(false);

    ASSERT_TRUE(all_ok);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "compressed-page decode loop heap-allocated";
}

TEST(ZeroAllocTest, SteadyStateIspEmulatorLoopDoesNotAllocate)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 512;
    RawDataGenerator gen(cfg);
    const auto encoded =
        ColumnarFileWriter().write(gen.generatePartition(0), 0);

    IspEmulator emulator(cfg);
    MiniBatch mb;
    for (int warm = 0; warm < 3; ++warm)
        ASSERT_TRUE(emulator.processInto(encoded, mb).ok());
    const uint64_t want = batchChecksum(mb);

    bool all_ok = true;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 8; ++i)
        all_ok = all_ok && emulator.processInto(encoded, mb).ok();
    g_count_allocs.store(false);

    ASSERT_TRUE(all_ok);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "steady-state ISP emulator loop heap-allocated";
    EXPECT_EQ(batchChecksum(mb), want);
}

/** Heap bytes and minor page faults of one epoch. */
struct EpochCost {
    size_t bytes = 0;
    long minor_faults = 0;
};

long
minorFaults()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
}

/**
 * One whole epoch over @p store through a PreprocessManager shaped like
 * the benchmark's (3 workers, queue of 8), construction to destruction.
 * The trainer holds every batch until the epoch ends, then recycles
 * them all: each epoch then has the same peak live set (one MiniBatch
 * per partition) whatever the thread timing.
 */
EpochCost
runEpoch(const RmConfig& cfg, PartitionStore& store, size_t partitions,
         IoRing* ring, uint64_t& checksum)
{
    EpochCost cost;
    checksum = 0;
    std::vector<std::unique_ptr<MiniBatch>> held;
    held.reserve(partitions);
    const long faults = minorFaults();
    g_alloc_bytes.store(0);
    g_count_allocs.store(true);
    {
        PreprocessManager manager(cfg, store, PreprocessMode::kPreSto, 3, 8,
                                  nullptr, ring);
        manager.start(partitions);
        while (auto mb = manager.nextBatch()) {
            checksum ^= batchChecksum(*mb);
            held.push_back(std::move(mb));
        }
        for (auto& mb : held)
            manager.recycle(std::move(mb));
    }
    g_count_allocs.store(false);
    cost.bytes = g_alloc_bytes.load();
    cost.minor_faults = minorFaults() - faults;
    return cost;
}

TEST(ZeroAllocTest, SecondEpochOverAStoreReusesItsShells)
{
    // The blocking path on the benchmark's RM5 shape (plain pages, 1024
    // rows, ~9.6 MB per MiniBatch). The first manager sizes the decode
    // batches, arenas and MiniBatches and leaves them in the store's
    // pool; the second epoch must reuse them, not re-acquire them.
    RmConfig cfg = rmConfig(5);
    cfg.batch_size = 1024;
    RawDataGenerator gen(cfg);
    WriterOptions plain;
    plain.codec = PageCodec::kNone;
    PartitionStore store(gen, plain);
    constexpr size_t kPartitions = 6;
    for (uint64_t pid = 0; pid < kPartitions; ++pid)
        store.partitionBytes(pid);  // materialize outside the epochs

    uint64_t first_sum = 0;
    uint64_t second_sum = 0;
    const EpochCost first =
        runEpoch(cfg, store, kPartitions, nullptr, first_sum);
    const EpochCost second =
        runEpoch(cfg, store, kPartitions, nullptr, second_sum);
    EXPECT_EQ(second_sum, first_sum);
    EXPECT_GT(first.bytes, kPartitions * 1024 * cfg.num_dense * 4)
        << "the first epoch should size at least the dense tensors";
    EXPECT_LT(second.bytes * 20, first.bytes)
        << "second epoch allocated " << second.bytes << " of the first's "
        << first.bytes << " bytes";
    // The second manager compiles and builds nothing: the store answers
    // its standard-plan lookup from the config's key and hands it the
    // program the first one compiled (the plan and schema it used to
    // build for that lookup were 368,392 bytes at RM5's 589 outputs).
    // What it still allocates is its engine: 816-1,264 bytes.
    EXPECT_LT(second.bytes, size_t{4} << 10)
        << "second epoch allocated " << second.bytes << " bytes";
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    // Sanitizer allocators map and poison memory their own way; the
    // fault count is a property of the plain allocator.
    EXPECT_LT(second.minor_faults, 1000)
        << "first epoch " << first.minor_faults << " faults";
#endif
}

TEST(ZeroAllocTest, SecondRingEpochOverAStoreReusesItsShells)
{
    // The ring path on RM1 with the full codec menu: every page is
    // pread from a segment through the IoRing, as in the cold-ring
    // benchmark workload.
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 4096;
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    const std::string dir = ::testing::TempDir() + "hotpath_ring_epochs";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SegmentStoreOptions so;
    so.directory = dir;
    auto segments = SegmentStore::open(so);
    ASSERT_TRUE(segments.ok()) << segments.status().message();
    store.enablePersistence(segments->get());
    constexpr size_t kPartitions = 6;
    for (uint64_t pid = 0; pid < kPartitions; ++pid)
        ASSERT_TRUE(store.persistPartition(pid).ok());
    IoRingOptions ro;
    ro.workers = 2;
    IoRing ring(ro);

    uint64_t first_sum = 0;
    uint64_t second_sum = 0;
    const EpochCost first =
        runEpoch(cfg, store, kPartitions, &ring, first_sum);
    const EpochCost second =
        runEpoch(cfg, store, kPartitions, &ring, second_sum);
    EXPECT_EQ(second_sum, first_sum);
    EXPECT_LT(second.bytes * 20, first.bytes)
        << "second epoch allocated " << second.bytes << " of the first's "
        << first.bytes << " bytes";
    // The ring's queues and the reader's per-read lists are reused,
    // and the store's compiled program is shared and looked up without
    // building a plan, so what a warmed epoch still allocates is the
    // segment store's per-read copies (segment info, path, footer
    // tail) and the footer parse: 64,308 bytes over the 6 partitions.
    EXPECT_LT(second.bytes, size_t{72} << 10)
        << "second epoch allocated " << second.bytes << " bytes";
}

TEST(ZeroAllocTest, RecyclingServiceSessionDoesNotAllocate)
{
    // A trainer that hands every batch back through recycle(): once the
    // service's pool holds a batch per queue slot and worker, fetch,
    // decode, transform and delivery of a session allocate nothing.
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 512;
    DatasetCatalog catalog;
    DatasetSpec spec;
    spec.name = "zero";
    spec.config = cfg;
    spec.partitions_per_epoch = 4;
    ASSERT_TRUE(catalog.registerDataset(spec).ok());
    ASSERT_TRUE(catalog.publishEpoch("zero").ok());
    // One worker: every worker keeps its own decode buffers, so with
    // more, one that sat out the warm-up would size them in the
    // measured loop.
    ServiceOptions options;
    options.workers = 1;
    IngestService service(catalog, options);
    TenantSpec tenant;
    tenant.name = "trainer";
    tenant.dataset = "zero";
    tenant.queue_capacity = 3;
    auto session = service.openSession(tenant);
    ASSERT_TRUE(session.ok()) << session.status().message();

    // Warm-up. Queued plus in-flight batches never exceed the queue
    // capacity, so at most capacity + 1 batches are live, counting the
    // one the trainer holds. Hold one until the queue is full, so the
    // pool has held that many; then several passes over the epoch
    // size every buffer.
    auto held = service.nextBatch(*session);
    ASSERT_TRUE(held.ok()) << held.status().message();
    for (;;) {
        auto stats = service.sessionStats(*session);
        ASSERT_TRUE(stats.ok());
        if (stats->produced - stats->delivered == tenant.queue_capacity)
            break;
        std::this_thread::yield();
    }
    service.recycle(std::move(held->batch));
    for (int i = 0; i < 24; ++i) {
        auto got = service.nextBatch(*session);
        ASSERT_TRUE(got.ok()) << got.status().message();
        service.recycle(std::move(got->batch));
    }

    bool all_ok = true;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 16; ++i) {
        auto got = service.nextBatch(*session);
        all_ok = all_ok && got.ok() && got->batch->consistent();
        if (got.ok())
            service.recycle(std::move(got->batch));
    }
    g_count_allocs.store(false);

    ASSERT_TRUE(all_ok);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "recycling service session heap-allocated";
    EXPECT_TRUE(service.closeSession(*session).ok());
}

TEST(ParallelForTest, SkewedWorkStillRunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<uint32_t>> hits(kN);
    std::atomic<uint64_t> index_sum{0};
    pool.parallelFor(kN, [&](size_t i) {
        if (i == 0) {
            // One pathologically expensive index: contiguous-split
            // scheduling would serialize a whole range behind it.
            volatile int sink = 0;
            for (int spin = 0; spin < 2000000; ++spin)
                sink = sink + 1;
        }
        hits[i].fetch_add(1, std::memory_order_relaxed);
        index_sum.fetch_add(i, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
    EXPECT_EQ(index_sum.load(), uint64_t{kN} * (kN - 1) / 2);
}

/** Workers × store (clean, or faulty: transient 0.2, corruption 0.2). */
class ManagerWorkerSweepTest
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(ManagerWorkerSweepTest, SameBatchesAndRetryCountsAtAnyWorkerCount)
{
    const auto [workers, faulty] = GetParam();
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 128;
    RawDataGenerator gen(cfg);
    constexpr size_t kBatches = 12;

    FaultSpec spec;
    spec.transient_read_error_prob = 0.2;
    spec.corruption_prob = 0.2;
    const FaultInjector faults(spec);
    auto makeStore = [&] {
        auto store = std::make_unique<PartitionStore>(gen);
        if (faulty)
            store->setFaultInjector(&faults);
        return store;
    };

    // Reference: one producer and one transform, partition by partition
    // on this thread. Fault draws are keyed by (partition, attempt), so
    // every schedule sees the same faults.
    uint64_t want_sum = 0;
    ProduceStats want;
    {
        auto store = makeStore();
        PartitionProducer producer;
        Preprocessor preprocessor(cfg);
        RowBatch batch;
        MiniBatch mb;
        BatchArena arena;
        for (uint64_t pid = 0; pid < kBatches; ++pid) {
            ASSERT_TRUE(producer.produce(*store, pid, batch).ok());
            want.transient_errors += producer.lastStats().transient_errors;
            want.corrupt_refetches += producer.lastStats().corrupt_refetches;
            preprocessor.preprocessInto(batch, mb, arena);
            want_sum ^= batchChecksum(mb);
        }
    }
    if (faulty) {
        EXPECT_GT(want.transient_errors, 0u);
    }

    auto store = makeStore();
    PreprocessManager manager(cfg, *store, PreprocessMode::kDisaggCpu,
                              workers, 4);
    manager.start(kBatches);
    uint64_t sum = 0;
    size_t count = 0;
    while (auto mb = manager.nextBatch()) {
        EXPECT_TRUE(mb->consistent());
        sum ^= batchChecksum(*mb);
        ++count;
        manager.recycle(std::move(mb));
    }
    // XOR-folded checksums are order-independent; injected faults never
    // change delivered bits, only retry counters.
    EXPECT_EQ(count, kBatches);
    EXPECT_EQ(manager.stats().batches_delivered, kBatches);
    EXPECT_EQ(sum, want_sum);
    EXPECT_EQ(manager.stats().transient_read_errors, want.transient_errors);
    EXPECT_EQ(manager.stats().corrupt_partition_refetches,
              want.corrupt_refetches);
}

INSTANTIATE_TEST_SUITE_P(
    WorkersByStore, ManagerWorkerSweepTest,
    ::testing::Combine(::testing::Values(1, 2, 4), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
        return std::to_string(std::get<0>(info.param)) + "_workers_" +
               (std::get<1>(info.param) ? "faulty" : "clean");
    });

}  // namespace
}  // namespace presto
