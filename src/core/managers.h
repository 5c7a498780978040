/**
 * @file
 * The PreSto software architecture (Figure 9): TrainManager and
 * PreprocessManager running the *functional* end-to-end pipeline.
 *
 * This path really moves bytes: partitions are decoded from PSF files,
 * transformed by the operator library, and delivered as train-ready
 * MiniBatch tensors through a bounded input queue — while the managers
 * account for every byte that crosses the (simulated) datacenter network
 * versus the SmartSSD-internal P2P path.
 */
#ifndef PRESTO_CORE_MANAGERS_H_
#define PRESTO_CORE_MANAGERS_H_

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/batch_arena.h"
#include "core/partition_producer.h"
#include "core/partition_store.h"
#include "datagen/rm_config.h"
#include "ops/preprocessor.h"
#include "tabular/minibatch.h"
#include "tabular/row_batch.h"

namespace presto {

class IoRing;

/** Where preprocessing executes (determines data movement accounting). */
enum class PreprocessMode {
    kDisaggCpu,  ///< raw partitions cross the network to a CPU pool
    kPreSto,     ///< partitions stay inside the storage node (ISP)
};

/** Byte-movement and progress accounting of one training run. */
struct RunStats {
    size_t batches_delivered = 0;
    uint64_t raw_bytes_over_network = 0;  ///< storage -> preproc pool
    uint64_t raw_bytes_p2p = 0;           ///< SSD -> FPGA inside the node
    uint64_t tensor_bytes_over_network = 0;  ///< preproc -> train manager
    uint64_t columnar_bytes_touched = 0;  ///< selective-read accounting
    double wall_seconds = 0;
    /** Injected transient read errors retried (fault injection only). */
    uint64_t transient_read_errors = 0;
    /** Partitions re-fetched after a page-CRC corruption detection. */
    uint64_t corrupt_partition_refetches = 0;
};

/**
 * Spawns preprocessing workers over a PartitionStore and serves
 * train-ready mini-batches (Figure 9 steps 3-5).
 */
class PreprocessManager
{
  public:
    /**
     * @param config Workload description (also selects the Transform plan).
     * @param store The storage node holding encoded partitions.
     * @param mode Disagg vs PreSto data-path accounting.
     * @param num_workers Preprocessing (transform) worker threads.
     * @param queue_capacity Bound of the mini-batch input queue.
     * @param prefetch Stage the pipeline: dedicated fetcher threads
     *        decode partition N+1 while transform workers run partition
     *        N, connected by a bounded decoded-partition queue. Off
     *        runs the seed's combined fetch+transform loop per worker.
     *        Delivered batches are identical either way (ordering may
     *        differ, as it already can between workers).
     * @param decode_pool Optional thread pool the per-worker readers
     *        use for page-parallel decode (models the FPGA Decoder
     *        unit). nullptr keeps per-page decode serial within each
     *        worker. Shared across workers; must outlive the manager.
     * @param io_ring Optional async I/O engine. When set, the Extract
     *        stage streams page frames through the ring instead of the
     *        blocking whole-file fetch: each fetcher keeps a window of
     *        pages in flight and decodes them as they complete, so
     *        decode overlaps modeled storage latency. Faults then act
     *        on individual in-flight page reads (ring-level retry with
     *        backoff; CRC-caught bit flips re-read just that page).
     *        Shared across workers; must outlive the manager. Delivered
     *        batches are bit-identical to the blocking path.
     */
    PreprocessManager(const RmConfig& config, PartitionStore& store,
                      PreprocessMode mode, int num_workers,
                      size_t queue_capacity = 8, bool prefetch = true,
                      ThreadPool* decode_pool = nullptr,
                      IoRing* io_ring = nullptr);

    /** Stops workers and drains the queue. */
    ~PreprocessManager();

    PreprocessManager(const PreprocessManager&) = delete;
    PreprocessManager& operator=(const PreprocessManager&) = delete;

    /** Begin producing partitions [0, total_batches). */
    void start(size_t total_batches);

    /**
     * Blocking fetch of the next mini-batch (Figure 9 step 5).
     * @return nullptr once all requested batches were delivered.
     */
    std::unique_ptr<MiniBatch> nextBatch();

    /**
     * Return a consumed mini-batch so its tensors are reused for a
     * later partition (steady-state zero-allocation delivery). Safe to
     * skip — workers then allocate fresh batches as in the seed.
     */
    void recycle(std::unique_ptr<MiniBatch> mb);

    const RunStats& stats() const { return stats_; }
    PreprocessMode mode() const { return mode_; }

  private:
    /** One fetched+decoded partition moving between pipeline stages. */
    struct DecodedPartition {
        RowBatch batch;
        ProduceStats stats;
    };

    void workerLoop();
    void fetchLoop();
    void transformLoop();
    bool claimPartition(uint64_t& id);
    /** Fetch + decode partition @p id through @p producer; a partition
     * the producer cannot recover is fatal. */
    void produce(PartitionProducer& producer, uint64_t id,
                 DecodedPartition& dp);
    /** Transform + enqueue one decoded partition; returns its shell. */
    void transformAndDeliver(DecodedPartition& dp, BatchArena& arena);
    /** Pop a recycled object off @p free (fresh when empty). */
    template <typename T>
    std::unique_ptr<T> takeFree(std::vector<std::unique_ptr<T>>& free);

    RmConfig config_;
    PartitionStore& store_;
    PreprocessMode mode_;
    Preprocessor preprocessor_;
    size_t queue_capacity_;
    int num_workers_;
    bool prefetch_;
    ThreadPool* decode_pool_;
    IoRing* io_ring_;
    // Fetch-stage share of the worker budget, derived from the measured
    // decode vs fused-transform rates for this workload (see start()).
    double fetch_share_;

    std::mutex mu_;
    std::condition_variable queue_not_empty_;
    std::condition_variable queue_not_full_;
    std::condition_variable decoded_not_empty_;
    std::condition_variable decoded_not_full_;
    std::deque<std::unique_ptr<MiniBatch>> queue_;
    // Staged-pipeline state: decoded partitions in flight, recycled
    // shells, and recycled output batches.
    std::deque<std::unique_ptr<DecodedPartition>> decoded_;
    size_t decoded_capacity_ = 0;
    std::vector<std::unique_ptr<DecodedPartition>> free_shells_;
    std::vector<std::unique_ptr<MiniBatch>> free_batches_;
    int active_fetchers_ = 0;
    std::vector<std::thread> workers_;
    uint64_t next_partition_ = 0;
    size_t total_batches_ = 0;
    size_t delivered_ = 0;
    bool stopping_ = false;
    RunStats stats_;
};

/**
 * Drives one end-to-end training job (Figure 9 steps 1-2 and 6-7):
 * bootstraps, measures the GPU's maximum throughput, provisions the
 * preprocess manager via T/P, and consumes mini-batches.
 */
class TrainManager
{
  public:
    TrainManager(const RmConfig& config, PartitionStore& store,
                 PreprocessMode mode);

    /**
     * Run @p total_batches training steps; preprocessing worker count is
     * derived from the T/P rule unless @p worker_override > 0.
     * @return accounting of the run.
     */
    RunStats train(size_t total_batches, int worker_override = 0);

    /** T: measured maximum single-GPU training throughput (batches/s). */
    double measuredTrainingThroughput() const;

    /** Derived worker count from the last train() call. */
    int provisionedWorkers() const { return provisioned_workers_; }

    /** Structural checksum of all delivered batches (for replay tests). */
    uint64_t deliveredChecksum() const { return checksum_; }

  private:
    RmConfig config_;
    PartitionStore& store_;
    PreprocessMode mode_;
    int provisioned_workers_ = 0;
    uint64_t checksum_ = 0;
};

}  // namespace presto

#endif  // PRESTO_CORE_MANAGERS_H_
