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

#include <memory>

#include "core/partition_store.h"
#include "core/preprocess_engine.h"
#include "datagen/rm_config.h"
#include "tabular/minibatch.h"

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
    /** Injected transient read errors retried (fault injection only);
        on the ring paths this includes the ring's device-level retries. */
    uint64_t transient_read_errors = 0;
    /** Re-reads after a page-CRC corruption detection: whole-partition
        re-fetches, plus, on the ring paths, the in-ring single-page
        re-reads (AsyncReadStats::corrupt_page_rereads). */
    uint64_t corrupt_partition_refetches = 0;
};

/**
 * Serves train-ready mini-batches of one store (Figure 9 steps 3-5):
 * one weight-1 flow of a PreprocessEngine of its own, limited to the
 * partitions start() asks for and delivered in partition order.
 *
 * Buffer ownership: the manager owns no long-lived buffers. Its
 * engine's workers borrow their WorkerShells (PartitionProducer,
 * decode RowBatch, BatchArena) and every MiniBatch shell from the
 * store's ShellPool (PartitionStore::shells()); recycle() hands a
 * batch straight back to that pool, and the destructor returns the
 * undelivered ones. Batches the caller still holds stay the caller's.
 * So consecutive managers over one store (one per epoch) reuse the
 * same memory, and what the pool retains is bounded by the most
 * shells the managers held at once.
 */
class PreprocessManager
{
  public:
    /**
     * @param config Workload description (also selects the Transform plan).
     * @param store The storage node holding encoded partitions.
     * @param mode Disagg vs PreSto data-path accounting.
     * @param num_workers Worker threads. Each claims the next
     *        partition, Extracts it through its own PartitionProducer
     *        and Transforms it (TransformPlan::standard(config)) with
     *        its own BatchArena, so every stage's cost spreads over all
     *        workers.
     * @param queue_capacity Bound of queued plus in-flight batches.
     * @param decode_pool Optional thread pool the per-worker readers
     *        use for page-parallel decode (models the FPGA Decoder
     *        unit). nullptr keeps per-page decode serial within each
     *        worker. Shared across workers; must outlive the manager.
     * @param io_ring Optional async I/O engine. When set, Extract
     *        streams page frames through the ring instead of the
     *        blocking whole-file fetch: each worker keeps a window of
     *        pages in flight and decodes them as they complete, so
     *        decode overlaps modeled storage latency. Faults then act
     *        on individual in-flight page reads (ring-level retry with
     *        backoff; CRC-caught bit flips re-read just that page).
     *        Shared across workers; must outlive the manager. Delivered
     *        batches are bit-identical to the blocking path.
     */
    PreprocessManager(const RmConfig& config, PartitionStore& store,
                      PreprocessMode mode, int num_workers,
                      size_t queue_capacity = 8,
                      ThreadPool* decode_pool = nullptr,
                      IoRing* io_ring = nullptr);

    /**
     * The same manager; @p prefetch is ignored. Kept only for
     * bench_e2e/workloads.cc, which passes it by position. No other
     * caller may use this overload.
     */
    PreprocessManager(const RmConfig& config, PartitionStore& store,
                      PreprocessMode mode, int num_workers,
                      size_t queue_capacity, bool /*prefetch*/,
                      ThreadPool* decode_pool, IoRing* io_ring)
        : PreprocessManager(config, store, mode, num_workers,
                            queue_capacity, decode_pool, io_ring)
    {
    }

    /** Waits out in-flight productions and stops the workers;
        undelivered batches go to the store's pool. */
    ~PreprocessManager();

    PreprocessManager(const PreprocessManager&) = delete;
    PreprocessManager& operator=(const PreprocessManager&) = delete;

    /** Begin producing partitions [0, total_batches). */
    void start(size_t total_batches);

    /**
     * Blocking fetch of the next mini-batch (Figure 9 step 5), in
     * partition order. Panics if a partition stays unreadable.
     * @return nullptr once all requested batches were delivered.
     */
    std::unique_ptr<MiniBatch> nextBatch();

    /**
     * Return a consumed mini-batch to the store's pool so its tensors
     * are reused for a later partition (steady-state zero-allocation
     * delivery), by this manager or by the next one over the store.
     * Safe to skip: workers then allocate.
     */
    void recycle(std::unique_ptr<MiniBatch> mb);

    /** Accounting of the batches produced so far. */
    RunStats stats() const;
    PreprocessMode mode() const { return mode_; }

  private:
    PartitionStore& store_;
    PreprocessMode mode_;
    PreprocessEngine engine_;
    FlowSpec flow_spec_;  ///< the flow start() opens
    PreprocessEngine::FlowId flow_ = 0;  ///< 0 until start()
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
