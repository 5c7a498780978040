#include "core/managers.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/partition_producer.h"
#include "models/cpu_model.h"
#include "models/gpu_model.h"
#include "models/isp_model.h"

namespace presto {

PreprocessManager::PreprocessManager(const RmConfig& config,
                                     PartitionStore& store,
                                     PreprocessMode mode, int num_workers,
                                     size_t queue_capacity,
                                     ThreadPool* decode_pool,
                                     IoRing* io_ring)
    : config_(config), store_(store), mode_(mode), preprocessor_(config),
      queue_capacity_(queue_capacity), num_workers_(num_workers),
      decode_pool_(decode_pool), io_ring_(io_ring)
{
    PRESTO_CHECK(num_workers_ >= 1, "need at least one worker");
    PRESTO_CHECK(queue_capacity_ >= 1, "queue capacity must be positive");
}

PreprocessManager::~PreprocessManager()
{
    {
        std::unique_lock lock(mu_);
        stopping_ = true;
    }
    queue_not_full_.notify_all();
    queue_not_empty_.notify_all();
    for (auto& w : workers_)
        w.join();
    // Undelivered and recycled batches outlive this manager in the
    // store's pool, so the next run over the store starts warm.
    for (auto& mb : free_batches_)
        store_.shells().giveBatch(std::move(mb));
    for (auto& mb : queue_)
        store_.shells().giveBatch(std::move(mb));
}

void
PreprocessManager::start(size_t total_batches)
{
    PRESTO_CHECK(workers_.empty(), "manager already started");
    total_batches_ = total_batches;
    workers_.reserve(num_workers_);
    for (int w = 0; w < num_workers_; ++w)
        workers_.emplace_back([this] { workerLoop(); });
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
PreprocessManager::workerLoop()
{
    // Run to completion: each worker takes its partition from Extract
    // to a delivered MiniBatch, reusing its producer, decode batch and
    // arena across partitions. They are borrowed from the store's pool
    // for the worker's life, so they outlive this manager too.
    std::unique_ptr<WorkerShell> shell = store_.shells().takeWorker();
    PartitionProducer& producer = shell->producer;
    producer.bind(decode_pool_, io_ring_);
    uint64_t pid = 0;
    while (claimPartition(pid)) {
        // Extract: fetch the encoded partition from the (local) SSD and
        // decode it. In Disagg mode the encoded bytes crossed the
        // datacenter network first; in PreSto mode they moved
        // SSD->FPGA over the device-internal P2P path.
        const Status st = producer.produce(store_, pid, shell->batch);
        PRESTO_CHECK(st.ok(), "partition ", pid, " unreadable: ",
                     st.toString());
        const ProduceStats& produced = producer.lastStats();

        // Transform: the full operator pipeline, into a recycled batch,
        // else a pooled one; a fresh one only when both are empty.
        std::unique_ptr<MiniBatch> mb;
        {
            std::unique_lock lock(mu_);
            if (!free_batches_.empty()) {
                mb = std::move(free_batches_.back());
                free_batches_.pop_back();
            }
        }
        if (mb == nullptr)
            mb = store_.shells().takeBatch();
        preprocessor_.preprocessInto(shell->batch, *mb, shell->arena);
        const uint64_t tensor_bytes = mb->byteSize();

        std::unique_lock lock(mu_);
        queue_not_full_.wait(lock, [this] {
            return queue_.size() < queue_capacity_ || stopping_;
        });
        if (stopping_) {
            free_batches_.push_back(std::move(mb));
            break;
        }
        if (mode_ == PreprocessMode::kDisaggCpu) {
            stats_.raw_bytes_over_network += produced.raw_bytes;
        } else {
            stats_.raw_bytes_p2p += produced.raw_bytes;
        }
        stats_.tensor_bytes_over_network += tensor_bytes;
        stats_.columnar_bytes_touched += produced.bytes_touched;
        stats_.transient_read_errors += produced.transient_errors;
        stats_.corrupt_partition_refetches += produced.corrupt_refetches;
        queue_.push_back(std::move(mb));
        lock.unlock();
        queue_not_empty_.notify_one();
    }
    producer.bind(nullptr, nullptr);  // the ring may go before the store
    store_.shells().giveWorker(std::move(shell));
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
