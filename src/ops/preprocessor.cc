#include "ops/preprocessor.h"

#include <cmath>

#include "common/logging.h"

namespace presto {

TransformWork
TransformWork::expected(const RmConfig& config)
{
    TransformWork w;
    const auto batch = static_cast<double>(config.batch_size);
    w.batch_size = config.batch_size;
    w.dense_values = static_cast<double>(config.num_dense) * batch;
    w.bucketize_values = static_cast<double>(config.num_generated) * batch;
    w.bucketize_levels =
        std::log2(static_cast<double>(config.bucket_size)) + 1.0;
    const double raw_sparse = static_cast<double>(config.num_sparse) *
                              config.avg_sparse_length * batch;
    w.hash_values = raw_sparse + w.bucketize_values;
    w.raw_values = w.dense_values + raw_sparse + batch;  // + labels
    w.output_values = w.dense_values + w.hash_values + batch;
    w.num_features = 1 + config.num_dense + config.totalSparseFeatures();
    return w;
}

TransformWork
TransformWork::measure(const RmConfig& config, const RowBatch& raw)
{
    TransformWork w;
    w.batch_size = raw.numRows();
    const auto batch = static_cast<double>(raw.numRows());
    w.dense_values = static_cast<double>(config.num_dense) * batch;
    w.bucketize_values = static_cast<double>(config.num_generated) * batch;
    w.bucketize_levels =
        std::log2(static_cast<double>(config.bucket_size)) + 1.0;
    double raw_sparse = 0;
    for (size_t c = 0; c < raw.numColumns(); ++c) {
        if (raw.schema().feature(c).kind == FeatureKind::kSparse)
            raw_sparse += static_cast<double>(raw.sparse(c).numValues());
    }
    w.hash_values = raw_sparse + w.bucketize_values;
    w.raw_values = w.dense_values + raw_sparse + batch;
    w.output_values = w.dense_values + w.hash_values + batch;
    w.num_features = 1 + config.num_dense + config.totalSparseFeatures();
    return w;
}

Preprocessor::Preprocessor(const RmConfig& config)
    : config_(config)
{
    PRESTO_CHECK(config_.num_generated <= config_.num_dense,
                 "cannot generate more sparse features than dense inputs");
    program_ = CompiledProgram::compile(
        TransformPlan::standard(config_),
        Schema::makeRecSys(config_.num_dense, config_.num_sparse));
}

MiniBatch
Preprocessor::preprocess(const RowBatch& raw, ThreadPool* pool) const
{
    MiniBatch mb;
    BatchArena arena;
    preprocessInto(raw, mb, arena, pool);
    return mb;
}

void
Preprocessor::preprocessInto(const RowBatch& raw, MiniBatch& mb,
                             BatchArena& arena, ThreadPool* pool) const
{
    PRESTO_CHECK(raw.complete(), "raw batch is incomplete");
    program_.run(raw, mb, arena, pool);
}

}  // namespace presto
