/**
 * @file
 * ShellPool: preprocessing buffers that outlive one run.
 *
 * A preprocessing worker needs a worker shell (its PartitionProducer
 * with the readers' decode and ring frame buffers, the RowBatch it
 * decodes into, its Transform BatchArena) and MiniBatch tensors to
 * transform into. Sized once, they are reused batch after batch; freed
 * at the end of every run, the next run over the same data re-acquires
 * (and the kernel re-faults) all of it. The pool keeps them between
 * runs, the way the paper's in-storage units keep their decode and
 * transform buffers on the device across training jobs. The borrowers
 * are PreprocessEngine workers (core/preprocess_engine.h): a batch
 * pipeline's engine borrows both halves from its store's pool, the
 * ingest service's engine from the service's own capped pool. A
 * borrower rebinds the shell's producer to its own decode pool and
 * ring (PartitionProducer::bind) before reading.
 *
 * Retention bound: a shell is created only when the pool has none idle
 * (take*() on an empty pool), so idle + lent shells never exceed the
 * most shells that were lent at one time. The pool therefore holds no
 * more than its borrowers' peak live set, and a run that reuses it
 * adds nothing to peak memory. An optional cap on MiniBatch shells
 * (setBatchCap) frees whatever is given back past it.
 *
 * Thread-safe: one mutex guards both free lists. Shells are created
 * and freed outside it.
 */
#ifndef PRESTO_CORE_SHELL_POOL_H_
#define PRESTO_CORE_SHELL_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "tabular/minibatch.h"

namespace presto {

struct WorkerShell;  // core/partition_producer.h

class ShellPool
{
  public:
    ShellPool();
    ~ShellPool();
    ShellPool(const ShellPool&) = delete;
    ShellPool& operator=(const ShellPool&) = delete;

    /** An idle worker shell, or a fresh one when none is idle. */
    std::unique_ptr<WorkerShell> takeWorker();
    /** Return a worker shell for a later borrower (nullptr: no-op). */
    void giveWorker(std::unique_ptr<WorkerShell> shell);

    /** An idle MiniBatch shell, or a fresh one when none is idle. */
    std::unique_ptr<MiniBatch> takeBatch();
    /**
     * Return a MiniBatch shell (nullptr: no-op). Freed instead when the
     * pool already holds its batch cap.
     */
    void giveBatch(std::unique_ptr<MiniBatch> mb);

    /** Hold at most @p cap idle MiniBatch shells (default: no cap);
        idle shells past a lowered cap are freed. */
    void setBatchCap(size_t cap);

    size_t idleWorkers() const;
    size_t idleBatches() const;

  private:
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<WorkerShell>> workers_;
    std::vector<std::unique_ptr<MiniBatch>> batches_;
    size_t batch_cap_ = SIZE_MAX;
};

}  // namespace presto

#endif  // PRESTO_CORE_SHELL_POOL_H_
