/**
 * @file
 * The end-to-end Transform pipeline: raw RowBatch -> train-ready MiniBatch.
 *
 * Implements the paper's preprocessing plan (Figure 1, steps 1-3):
 *   1. feature generation: FillMissing + Bucketize over a subset of dense
 *      features, producing the generated sparse features;
 *   2. feature normalization: Log over all dense features, SigridHash over
 *      all (raw + generated) sparse features;
 *   3. mini-batch conversion into TorchRec-style tensors.
 *
 * The same functional pipeline backs both the CPU baseline and the ISP
 * units — PreSto changes *where/how fast* it runs, never the results.
 */
#ifndef PRESTO_OPS_PREPROCESSOR_H_
#define PRESTO_OPS_PREPROCESSOR_H_

#include <cstddef>

#include "common/batch_arena.h"
#include "common/thread_pool.h"
#include "datagen/rm_config.h"
#include "ops/opvm.h"
#include "tabular/minibatch.h"
#include "tabular/row_batch.h"

namespace presto {

/**
 * Bucketize boundary range of the standard plan, covering the central
 * mass of the synthetic dense log-normal (mu 2.0, sigma 1.5).
 * @{
 */
inline constexpr float kStandardBucketLo = 0.02f;
inline constexpr float kStandardBucketHi = 3000.0f;
/** @} */

/**
 * Scalar-operation counts of one Transform invocation; the currency the
 * device cost models price. Derivable either from real data
 * (TransformWork::measure) or analytically from a config
 * (TransformWork::expected).
 */
struct TransformWork {
    double dense_values = 0;      ///< dense entries (FillMissing + Log)
    double bucketize_values = 0;  ///< values digitized by Bucketize
    double bucketize_levels = 0;  ///< binary-search depth, log2(m)+1
    double hash_values = 0;       ///< sparse ids hashed by SigridHash
    double raw_values = 0;        ///< scalars decoded in Extract
    double output_values = 0;     ///< scalars in the train-ready tensors
    size_t num_features = 0;      ///< columns touched (per-feature setup)
    size_t batch_size = 0;

    /** Operation counts expected for one batch of @p config. */
    static TransformWork expected(const RmConfig& config);

    /** Exact operation counts for a concrete raw batch. */
    static TransformWork measure(const RmConfig& config,
                                 const RowBatch& raw);
};

/**
 * Executes the Transform plan of one RmConfig.
 *
 * Construction compiles TransformPlan::standard(config) once into a
 * fused bytecode program (ops/opvm.h); every preprocess call executes
 * that cached program in a single SIMD pass per column. Thread-safe for
 * concurrent preprocess() calls; the optional pool parallelizes across
 * features (inter-feature parallelism).
 */
class Preprocessor
{
  public:
    explicit Preprocessor(const RmConfig& config);

    /**
     * Run the full Transform on one raw partition.
     *
     * @param raw Batch matching Schema::makeRecSys(config) layout.
     * @param pool Optional worker pool for inter-feature parallelism.
     */
    MiniBatch preprocess(const RowBatch& raw, ThreadPool* pool = nullptr) const;

    /**
     * Allocation-free form of preprocess(): writes into @p out (whose
     * buffers are reused across calls) and borrows scratch from
     * @p arena. After a warm-up batch has sized the buffers, the
     * steady-state loop performs zero heap allocations per batch.
     * Output is identical to preprocess(). The arena belongs to the
     * calling worker; the optional pool only splits per-feature tasks,
     * each touching a distinct pre-prepared arena slot.
     */
    void preprocessInto(const RowBatch& raw, MiniBatch& out,
                        BatchArena& arena,
                        ThreadPool* pool = nullptr) const;

    const RmConfig& config() const { return config_; }

    /** The cached compiled program preprocess() executes. */
    const CompiledProgram& program() const { return program_; }

  private:
    RmConfig config_;
    CompiledProgram program_;
};

}  // namespace presto

#endif  // PRESTO_OPS_PREPROCESSOR_H_
