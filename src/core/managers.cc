#include "core/managers.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/crc32.h"
#include "common/logging.h"
#include "common/rng.h"
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
    : store_(store), mode_(mode),
      engine_(store.shells(), num_workers, decode_pool, io_ring),
      // Extract: partition n from the (local) SSD. In Disagg mode the
      // encoded bytes crossed the datacenter network first; in PreSto
      // mode they moved SSD->FPGA over the device-internal P2P path.
      flow_spec_{.queue_capacity = queue_capacity,
                 .locate = [&store](uint64_t seq) -> StatusOr<PartitionRef> {
                     return PartitionRef{&store, seq};
                 },
                 .program = store.standardProgram(config)}
{
    PRESTO_CHECK(queue_capacity >= 1, "queue capacity must be positive");
}

PreprocessManager::~PreprocessManager() = default;

void
PreprocessManager::start(size_t total_batches)
{
    PRESTO_CHECK(flow_ == 0, "manager already started");
    flow_spec_.limit = total_batches;
    flow_ = engine_.open(std::move(flow_spec_));
}

void
PreprocessManager::recycle(std::unique_ptr<MiniBatch> mb)
{
    store_.shells().giveBatch(std::move(mb));
}

std::unique_ptr<MiniBatch>
PreprocessManager::nextBatch()
{
    if (flow_ == 0)
        return nullptr;
    StatusOr<FlowBatch> got = engine_.next(flow_);
    PRESTO_CHECK(got.ok(), "partition ", engine_.stats(flow_).delivered,
                 " unreadable: ", got.status().toString());
    return std::move(got->batch);
}

RunStats
PreprocessManager::stats() const
{
    if (flow_ == 0)
        return {};
    const FlowStats fs = engine_.stats(flow_);
    const bool disagg = mode_ == PreprocessMode::kDisaggCpu;
    return RunStats{.batches_delivered = fs.delivered,
                    .raw_bytes_over_network = disagg ? fs.raw_bytes : 0,
                    .raw_bytes_p2p = disagg ? 0 : fs.raw_bytes,
                    .tensor_bytes_over_network = fs.tensor_bytes,
                    .columnar_bytes_touched = fs.bytes_touched,
                    .transient_read_errors = fs.transient_errors,
                    .corrupt_partition_refetches = fs.corrupt_refetches};
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
    const double per_worker =
        mode_ == PreprocessMode::kDisaggCpu
            ? CpuWorkerModel(config_).throughputPerCore()
            : IspDeviceModel(IspParams::smartSsd(), config_).throughput();
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
    while (auto mb = manager.nextBatch()) {
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
