/**
 * @file
 * Property-based and model-based tests: randomized differential checks
 * of the bounded queue against a reference model, fuzzed decoding of
 * untrusted bytes, an oracle LRU cache, and a discrete-event
 * cross-validation of the ISP pipeline throughput model.
 */
#include <gtest/gtest.h>

#include <deque>
#include <list>
#include <optional>

#include "cachesim/cache.h"
#include "columnar/columnar_file.h"
#include "columnar/encoding.h"
#include "columnar/page.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "core/isp_emulator.h"
#include "datagen/generator.h"
#include "models/isp_model.h"
#include "ops/preprocessor.h"
#include "sim/sim_queue.h"
#include "sim/simulator.h"

namespace presto {
namespace {

// --- SimQueue vs a reference model ------------------------------------------------

/** Straight-line reference with the same contract as SimQueue<int>. */
class ReferenceQueue
{
  public:
    explicit ReferenceQueue(size_t capacity) : capacity_(capacity) {}

    /** @return items delivered to consumers as (consumer_arrival, item). */
    void
    push(int item)
    {
        if (!waiting_consumers_.empty()) {
            delivered_.emplace_back(waiting_consumers_.front(), item);
            waiting_consumers_.pop_front();
            ++accepted_;
            return;
        }
        if (items_.size() < capacity_) {
            items_.push_back(item);
            ++accepted_;
            return;
        }
        blocked_.push_back(item);
    }

    void
    pop(int consumer_tag)
    {
        if (!items_.empty()) {
            delivered_.emplace_back(consumer_tag, items_.front());
            items_.pop_front();
            if (!blocked_.empty()) {
                items_.push_back(blocked_.front());
                blocked_.pop_front();
                ++accepted_;
            }
            return;
        }
        waiting_consumers_.push_back(consumer_tag);
    }

    size_t capacity_;
    std::deque<int> items_;
    std::deque<int> blocked_;
    std::deque<int> waiting_consumers_;
    std::vector<std::pair<int, int>> delivered_;
    size_t accepted_ = 0;
};

class SimQueueFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(SimQueueFuzz, MatchesReferenceModelUnderRandomOps)
{
    Rng rng(GetParam());
    const size_t capacity = 1 + rng.uniformInt(uint64_t{5});
    SimQueue<int> queue(capacity);
    ReferenceQueue reference(capacity);

    std::vector<std::pair<int, int>> delivered;
    size_t accepted = 0;
    int next_item = 0;
    int next_consumer = 0;

    for (int op = 0; op < 500; ++op) {
        if (rng.bernoulli(0.55)) {
            const int item = next_item++;
            queue.push(item, [&] { ++accepted; });
            reference.push(item);
        } else {
            const int tag = next_consumer++;
            queue.pop([&, tag](int item) {
                delivered.emplace_back(tag, item);
            });
            reference.pop(tag);
        }
        ASSERT_EQ(queue.size(), reference.items_.size());
        ASSERT_EQ(queue.waitingProducers(), reference.blocked_.size());
        ASSERT_EQ(queue.waitingConsumers(),
                  reference.waiting_consumers_.size());
        ASSERT_EQ(accepted, reference.accepted_);
        ASSERT_EQ(delivered, reference.delivered_);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimQueueFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- fuzzed decoding of untrusted bytes ---------------------------------------------

class DecodeFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(DecodeFuzz, RandomBytesNeverCrashVarint)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<uint8_t> bytes(rng.uniformInt(uint64_t{32}));
        for (auto& b : bytes)
            b = static_cast<uint8_t>(rng.next());
        size_t pos = 0;
        uint64_t value = 0;
        const Status st = enc::getVarint(bytes, pos, value);
        if (st.ok()) {
            EXPECT_LE(pos, bytes.size());
        } else {
            EXPECT_EQ(st.code(), StatusCode::kCorruption);
        }
    }
}

TEST_P(DecodeFuzz, RandomBytesNeverCrashIntDecoders)
{
    Rng rng(GetParam());
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<uint8_t> bytes(rng.uniformInt(uint64_t{200}));
        for (auto& b : bytes)
            b = static_cast<uint8_t>(rng.next());
        const auto encoding = static_cast<Encoding>(
            1 + rng.uniformInt(uint64_t{6}));  // any int encoding
        const size_t count = rng.uniformInt(uint64_t{64});
        std::vector<int64_t> out;
        // Must return a Status (ok or corruption), never crash or hang.
        (void)enc::decodeI64(encoding, bytes, count, out);
        EXPECT_LE(out.size(), count);
    }
}

TEST_P(DecodeFuzz, RandomBytesNeverCrashPageReader)
{
    Rng rng(GetParam() ^ 0xfeed);
    for (int trial = 0; trial < 100; ++trial) {
        std::vector<uint8_t> bytes(rng.uniformInt(uint64_t{64}));
        for (auto& b : bytes)
            b = static_cast<uint8_t>(rng.next());
        size_t pos = 0;
        PageView page;
        const Status st = readPageFrame(bytes, pos, page);
        // A 13+-byte random frame passing a CRC32C check is ~2^-32.
        EXPECT_FALSE(st.ok());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzz, ::testing::Values(11, 22, 33));

// --- single-bit-flip corruption of encoded PSF partitions ---------------------------

/**
 * Flipping any one bit of an encoded partition must never crash a
 * reader and must never silently change the decoded data: every read
 * either fails with kCorruption or yields output identical to the
 * pristine reference (a flip can land in slack bytes the decode never
 * consumes).
 */
class BitFlipCorruption : public ::testing::TestWithParam<int>
{
};

TEST_P(BitFlipCorruption, ReaderNeverReturnsWrongData)
{
    RmConfig cfg = rmConfig(GetParam());
    cfg.batch_size = 64;
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(7);
    const auto pristine = ColumnarFileWriter().write(raw, 7);

    FaultSpec spec;
    spec.corruption_prob = 1.0;  // activate the injector
    const FaultInjector injector(spec);

    size_t detected = 0, benign = 0;
    for (uint64_t trial = 0; trial < 200; ++trial) {
        auto corrupted = pristine;
        injector.corruptBytes(corrupted, 7, trial);
        ASSERT_NE(corrupted, pristine);

        ColumnarFileReader reader;
        Status st = reader.open(corrupted);
        StatusOr<RowBatch> decoded =
            st.ok() ? reader.readAll() : StatusOr<RowBatch>(st);
        if (!decoded.ok()) {
            EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
                << "trial " << trial << ": "
                << decoded.status().toString();
            ++detected;
        } else {
            EXPECT_TRUE(*decoded == raw)
                << "trial " << trial << " silently decoded wrong data";
            ++benign;
        }
    }
    // CRC framing must catch the overwhelming majority of flips.
    EXPECT_GT(detected, benign);
}

TEST_P(BitFlipCorruption, IspEmulatorNeverReturnsWrongData)
{
    RmConfig cfg = rmConfig(GetParam());
    cfg.batch_size = 64;
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(3);
    const auto pristine = ColumnarFileWriter().write(raw, 3);
    const MiniBatch reference = Preprocessor(cfg).preprocess(raw);

    FaultSpec spec;
    spec.corruption_prob = 1.0;
    const FaultInjector injector(spec);

    IspEmulator emulator(cfg);
    for (uint64_t trial = 0; trial < 100; ++trial) {
        auto corrupted = pristine;
        injector.corruptBytes(corrupted, 3, trial);
        const auto processed = emulator.process(corrupted);
        if (!processed.ok()) {
            EXPECT_EQ(processed.status().code(), StatusCode::kCorruption)
                << "trial " << trial;
        } else {
            EXPECT_EQ(processed->dense, reference.dense);
            EXPECT_EQ(processed->labels, reference.labels);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, BitFlipCorruption,
                         ::testing::Values(1, 2, 5));

/**
 * Corruption inside a *compressed* page payload must be caught by the
 * page CRC — which covers the stored (compressed) bytes — before the
 * decompressor ever runs. The returned status message proves which
 * check fired: frame-level "page checksum mismatch", never an "lz: ..."
 * decompressor error.
 */
TEST(CompressedPageCorruption, CrcFiresBeforeDecompress)
{
    RmConfig cfg = rmConfig(2);
    cfg.batch_size = 256;
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(5);
    const auto pristine = ColumnarFileWriter().write(raw, 5);

    // Locate every compressed page's stored payload in the file.
    ColumnarFileReader meta_reader;
    ASSERT_TRUE(meta_reader.open(pristine).ok());
    struct Region {
        size_t begin, size;
    };
    std::vector<Region> payloads;
    for (const auto& col : meta_reader.footer().columns) {
        for (const auto& stream : col.streams) {
            const std::span<const uint8_t> bytes(
                pristine.data() + stream.offset, stream.byte_size);
            size_t pos = 0;
            for (uint32_t p = 0; p < stream.num_pages; ++p) {
                PageView page;
                ASSERT_TRUE(readPageFrame(bytes, pos, page).ok());
                if (page.codec != PageCodec::kNone)
                    payloads.push_back(
                        {static_cast<size_t>(page.payload.data() -
                                             pristine.data()),
                         page.payload.size()});
            }
        }
    }
    ASSERT_FALSE(payloads.empty())
        << "no page compressed; corruption test is vacuous";

    Rng rng(404);
    int trials = 0;
    for (const auto& region : payloads) {
        for (int flip = 0; flip < 8; ++flip, ++trials) {
            auto corrupted = pristine;
            const size_t byte =
                region.begin + rng.uniformInt(region.size);
            corrupted[byte] ^= static_cast<uint8_t>(
                1u << rng.uniformInt(uint64_t{8}));

            ColumnarFileReader reader;
            Status st = reader.open(corrupted);
            StatusOr<RowBatch> decoded =
                st.ok() ? reader.readAll() : StatusOr<RowBatch>(st);
            ASSERT_FALSE(decoded.ok())
                << "payload flip in trial " << trials
                << " escaped detection";
            EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
            EXPECT_NE(decoded.status().toString().find(
                          "page checksum mismatch"),
                      std::string::npos)
                << "trial " << trials << " failed past the CRC: "
                << decoded.status().toString();
        }
    }
}

// --- CacheSim vs oracle LRU ------------------------------------------------------------

/** Naive fully-associative LRU oracle. */
class OracleLru
{
  public:
    OracleLru(size_t lines, uint64_t line_bytes)
        : lines_(lines), line_bytes_(line_bytes)
    {}

    bool
    access(uint64_t addr)
    {
        const uint64_t tag = addr / line_bytes_;
        for (auto it = order_.begin(); it != order_.end(); ++it) {
            if (*it == tag) {
                order_.erase(it);
                order_.push_front(tag);
                return true;
            }
        }
        order_.push_front(tag);
        if (order_.size() > lines_)
            order_.pop_back();
        return false;
    }

  private:
    size_t lines_;
    uint64_t line_bytes_;
    std::list<uint64_t> order_;
};

TEST(CacheOracleTest, SingleSetConfigMatchesFullyAssociativeLru)
{
    // num_sets == 1 makes the simulator fully associative.
    CacheConfig cfg;
    cfg.line_bytes = 64;
    cfg.ways = 8;
    cfg.size_bytes = 64 * 8;  // exactly one set
    CacheSim sim(cfg);
    OracleLru oracle(8, 64);

    Rng rng(99);
    for (int i = 0; i < 20000; ++i) {
        // Working set of ~24 lines forces constant eviction.
        const uint64_t addr = rng.uniformInt(uint64_t{24}) * 64 +
                              rng.uniformInt(uint64_t{64});
        ASSERT_EQ(sim.access(addr, false), oracle.access(addr))
            << "divergence at access " << i;
    }
}

// --- DES cross-validation of the ISP throughput model ------------------------------------

/**
 * Simulates the accelerator as a chain of stage resources fed by
 * batch_concurrency independent streams, with the raw-data delivery path
 * (SSD P2P) shared serially across streams, and returns the sustained
 * batches/second. Used to cross-validate the closed-form
 * IspDeviceModel::throughput().
 */
double
simulateIspThroughput(const IspDeviceModel& device, int batches)
{
    const LatencyBreakdown lat = device.batchLatency();
    const auto& p = device.params();

    // Per-stream stage service times mirroring the model's stages:
    // decode, transform (gen+norm), convert, kernel-invoke overhead.
    const double stages[4] = {
        lat.extract_decode,
        lat.bucketize + lat.sigrid_hash + lat.log,
        lat.other - p.fixed_sec_per_batch,
        p.fixed_sec_per_batch,
    };
    const double per_batch_delivery = device.deliverSeconds();

    struct Stream {
        double stage_free[4] = {0, 0, 0, 0};
    };
    std::vector<Stream> streams(
        static_cast<size_t>(p.batch_concurrency));
    double delivery_free_at = 0.0;
    double finish_time = 0.0;

    for (int b = 0; b < batches; ++b) {
        Stream& s = streams[static_cast<size_t>(b) % streams.size()];
        // Delivery is a shared serial resource; a stream only requests
        // the next batch once its decode stage has drained the previous
        // one (double buffering depth 1).
        delivery_free_at = std::max(delivery_free_at, s.stage_free[0]) +
                           per_batch_delivery;
        double t = delivery_free_at;
        for (int stage = 0; stage < 4; ++stage) {
            t = std::max(t, s.stage_free[stage]) + stages[stage];
            s.stage_free[stage] = t;
        }
        finish_time = std::max(finish_time, t);
    }
    return batches / finish_time;
}

TEST(IspDesValidationTest, ClosedFormThroughputMatchesPipelineSimulation)
{
    for (int rm : {1, 3, 5}) {
        IspDeviceModel device(IspParams::smartSsd(), rmConfig(rm));
        const double simulated = simulateIspThroughput(device, 2000);
        const double closed = device.throughput();
        EXPECT_NEAR(simulated / closed, 1.0, 0.25)
            << "RM" << rm << ": simulated " << simulated << " vs closed "
            << closed;
    }
}

}  // namespace
}  // namespace presto
