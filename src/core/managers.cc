#include "core/managers.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/rng.h"
#include "models/calibration.h"
#include "models/cpu_model.h"
#include "models/gpu_model.h"
#include "models/isp_model.h"

namespace presto {

namespace {

/**
 * Fetch-stage share of one partition's measured cost. Extract decodes
 * w.raw_values at the vectorized page-decode rate while Transform
 * retires w.output_values through the fused op-chain VM; both rates are
 * measured on this host (models/calibration.h, provenance
 * BENCH_decode.json / BENCH_fused.json), so the staged-pipeline split
 * tracks the real kernels instead of assuming the stages cost the same.
 */
double
measuredFetchShare(const RmConfig& config)
{
    const TransformWork w = TransformWork::expected(config);
    const double fetch =
        w.raw_values * cal::kMeasuredSimdDecodeSecPerValue;
    const double transform =
        w.output_values * cal::kMeasuredFusedSecPerValue;
    return fetch / (fetch + transform);
}

}  // namespace

PreprocessManager::PreprocessManager(const RmConfig& config,
                                     PartitionStore& store,
                                     PreprocessMode mode, int num_workers,
                                     size_t queue_capacity, bool prefetch,
                                     ThreadPool* decode_pool,
                                     IoRing* io_ring)
    : config_(config), store_(store), mode_(mode), preprocessor_(config),
      queue_capacity_(queue_capacity), num_workers_(num_workers),
      prefetch_(prefetch), decode_pool_(decode_pool), io_ring_(io_ring),
      fetch_share_(measuredFetchShare(config))
{
    PRESTO_CHECK(num_workers_ >= 1, "need at least one worker");
    PRESTO_CHECK(queue_capacity_ >= 1, "queue capacity must be positive");
    // Prefetch window: one decoded partition per worker plus the
    // fetchers' lead, sized from the same measured split (a fetch-heavy
    // workload earns a deeper window because its transformers drain
    // slower relative to the fetchers filling it).
    decoded_capacity_ = std::max<size_t>(
        2, static_cast<size_t>(
               std::ceil(num_workers_ * (1.0 + fetch_share_))));
}

PreprocessManager::~PreprocessManager()
{
    {
        std::unique_lock lock(mu_);
        stopping_ = true;
    }
    queue_not_full_.notify_all();
    queue_not_empty_.notify_all();
    decoded_not_full_.notify_all();
    decoded_not_empty_.notify_all();
    for (auto& w : workers_)
        w.join();
}

void
PreprocessManager::start(size_t total_batches)
{
    PRESTO_CHECK(workers_.empty(), "manager already started");
    total_batches_ = total_batches;
    if (!prefetch_) {
        workers_.reserve(num_workers_);
        for (int w = 0; w < num_workers_; ++w)
            workers_.emplace_back([this] { workerLoop(); });
        return;
    }
    // Staged pipeline: dedicated fetchers decode partition N+1 while
    // transform workers run partition N. The budget splits in
    // proportion to the measured per-partition stage costs (see
    // measuredFetchShare) instead of a static half/half: a decode-heavy
    // workload (long sparse rows) earns more fetchers, a transform-heavy
    // one more transformers. A single-worker budget still gets one
    // thread per stage — that is the minimal double buffer.
    int fetchers =
        static_cast<int>(std::lround(num_workers_ * fetch_share_));
    fetchers = std::clamp(fetchers, 1, std::max(1, num_workers_ - 1));
    const int transformers = std::max(1, num_workers_ - fetchers);
    inform("staged pipeline (", config_.name, "): ", fetchers,
           " fetch + ", transformers,
           " transform workers, measured fetch share ",
           static_cast<int>(std::lround(fetch_share_ * 100)),
           "%, prefetch window ", decoded_capacity_);
    active_fetchers_ = fetchers;
    workers_.reserve(static_cast<size_t>(fetchers + transformers));
    for (int w = 0; w < fetchers; ++w)
        workers_.emplace_back([this] { fetchLoop(); });
    for (int w = 0; w < transformers; ++w)
        workers_.emplace_back([this] { transformLoop(); });
}

bool
PreprocessManager::claimPartition(uint64_t& id)
{
    std::unique_lock lock(mu_);
    if (next_partition_ >= total_batches_ || stopping_)
        return false;
    id = next_partition_++;
    return true;
}

void
PreprocessManager::produce(PartitionProducer& producer, uint64_t id,
                           DecodedPartition& dp)
{
    // Extract: fetch the encoded partition from the (local) SSD and
    // decode it. In Disagg mode the encoded bytes crossed the
    // datacenter network first; in PreSto mode they moved SSD->FPGA
    // over the device-internal P2P path.
    Status st = producer.produce(store_, id, dp.batch);
    PRESTO_CHECK(st.ok(), "partition ", id, " unreadable: ",
                 st.toString());
    dp.stats = producer.lastStats();
}

template <typename T>
std::unique_ptr<T>
PreprocessManager::takeFree(std::vector<std::unique_ptr<T>>& free)
{
    std::unique_lock lock(mu_);
    if (free.empty())
        return std::make_unique<T>();
    auto item = std::move(free.back());
    free.pop_back();
    return item;
}

void
PreprocessManager::transformAndDeliver(DecodedPartition& dp,
                                       BatchArena& arena)
{
    // Transform: the full operator pipeline, into a recycled batch.
    auto mb = takeFree(free_batches_);
    preprocessor_.preprocessInto(dp.batch, *mb, arena);
    const uint64_t tensor_bytes = mb->byteSize();

    std::unique_lock lock(mu_);
    queue_not_full_.wait(lock, [this] {
        return queue_.size() < queue_capacity_ || stopping_;
    });
    if (stopping_)
        return;
    if (mode_ == PreprocessMode::kDisaggCpu) {
        stats_.raw_bytes_over_network += dp.stats.raw_bytes;
    } else {
        stats_.raw_bytes_p2p += dp.stats.raw_bytes;
    }
    stats_.tensor_bytes_over_network += tensor_bytes;
    stats_.columnar_bytes_touched += dp.stats.bytes_touched;
    stats_.transient_read_errors += dp.stats.transient_errors;
    stats_.corrupt_partition_refetches += dp.stats.corrupt_refetches;
    queue_.push_back(std::move(mb));
    lock.unlock();
    queue_not_empty_.notify_one();
}

void
PreprocessManager::workerLoop()
{
    // Unstaged (seed) schedule: each worker alternates Extract and
    // Transform, but with the device-style persistent decode buffers.
    PartitionProducer producer(decode_pool_, io_ring_);
    BatchArena arena;
    DecodedPartition dp;
    uint64_t pid = 0;
    while (claimPartition(pid)) {
        produce(producer, pid, dp);
        transformAndDeliver(dp, arena);
    }
}

void
PreprocessManager::fetchLoop()
{
    PartitionProducer producer(decode_pool_, io_ring_);
    uint64_t pid = 0;
    while (claimPartition(pid)) {
        std::unique_ptr<DecodedPartition> dp = takeFree(free_shells_);
        produce(producer, pid, *dp);

        bool stopped = false;
        {
            std::unique_lock lock(mu_);
            decoded_not_full_.wait(lock, [this] {
                return decoded_.size() < decoded_capacity_ || stopping_;
            });
            stopped = stopping_;
            if (!stopped)
                decoded_.push_back(std::move(dp));
        }
        if (stopped)
            break;
        decoded_not_empty_.notify_one();
    }
    {
        std::unique_lock lock(mu_);
        --active_fetchers_;
    }
    // Wake every transformer so the last ones observe the drained queue.
    decoded_not_empty_.notify_all();
}

void
PreprocessManager::transformLoop()
{
    BatchArena arena;
    for (;;) {
        std::unique_ptr<DecodedPartition> dp;
        {
            std::unique_lock lock(mu_);
            decoded_not_empty_.wait(lock, [this] {
                return !decoded_.empty() || active_fetchers_ == 0 ||
                       stopping_;
            });
            if (stopping_)
                return;
            if (decoded_.empty())
                return;  // all fetchers finished and the queue drained
            dp = std::move(decoded_.front());
            decoded_.pop_front();
        }
        decoded_not_full_.notify_one();
        transformAndDeliver(*dp, arena);
        std::unique_lock lock(mu_);
        free_shells_.push_back(std::move(dp));
    }
}

void
PreprocessManager::recycle(std::unique_ptr<MiniBatch> mb)
{
    if (mb == nullptr)
        return;
    std::unique_lock lock(mu_);
    free_batches_.push_back(std::move(mb));
}

std::unique_ptr<MiniBatch>
PreprocessManager::nextBatch()
{
    std::unique_lock lock(mu_);
    if (delivered_ >= total_batches_)
        return nullptr;
    queue_not_empty_.wait(lock, [this] {
        return !queue_.empty() || stopping_;
    });
    if (queue_.empty())
        return nullptr;
    auto mb = std::move(queue_.front());
    queue_.pop_front();
    ++delivered_;
    ++stats_.batches_delivered;
    lock.unlock();
    queue_not_full_.notify_one();
    return mb;
}

TrainManager::TrainManager(const RmConfig& config, PartitionStore& store,
                           PreprocessMode mode)
    : config_(config), store_(store), mode_(mode)
{
}

double
TrainManager::measuredTrainingThroughput() const
{
    // Figure 9 step 2: stress-test the GPU with dummy mini-batches. With
    // no physical GPU, the calibrated A100 model plays that role.
    return GpuTrainModel(config_).maxThroughput();
}

RunStats
TrainManager::train(size_t total_batches, int worker_override)
{
    // T/P rule: workers = ceil(T / P).
    const double demand = measuredTrainingThroughput();
    double per_worker = 0;
    if (mode_ == PreprocessMode::kDisaggCpu) {
        per_worker = CpuWorkerModel(config_).throughputPerCore();
    } else {
        per_worker =
            IspDeviceModel(IspParams::smartSsd(), config_).throughput();
    }
    provisioned_workers_ = worker_override > 0
                               ? worker_override
                               : static_cast<int>(
                                     std::ceil(demand / per_worker));
    // The functional path runs on this host: cap the real thread count.
    const int threads = std::clamp(provisioned_workers_, 1, 4);

    const auto wall_start = std::chrono::steady_clock::now();
    PreprocessManager manager(config_, store_, mode_, threads);
    manager.start(total_batches);

    checksum_ = 0;
    for (;;) {
        auto mb = manager.nextBatch();
        if (mb == nullptr)
            break;
        PRESTO_CHECK(mb->consistent(), "train manager got a bad batch");
        // "Training": fold a structural checksum so replays can assert
        // byte-identical delivery.
        uint64_t crc = crc32c(mb->dense.data(),
                              mb->dense.size() * sizeof(float));
        for (const auto& jag : mb->sparse) {
            crc = crc32c(jag.values.data(),
                         jag.values.size() * sizeof(int64_t), crc);
        }
        checksum_ ^= mix64(crc + mb->batch_size);
        // Hand the tensors back so the next partition reuses them.
        manager.recycle(std::move(mb));
    }

    RunStats stats = manager.stats();
    stats.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    return stats;
}

}  // namespace presto
