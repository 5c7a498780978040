#include "ops/plan.h"

#include <atomic>
#include <unordered_set>

#include "common/rng.h"
#include "ops/hash.h"
#include "ops/opvm.h"
#include "ops/preprocessor.h"

namespace presto {

namespace {

std::atomic<uint64_t> g_validation_count{0};

}  // namespace

uint64_t
planValidationCount()
{
    return g_validation_count.load(std::memory_order_relaxed);
}

size_t
TransformPlan::numDenseOutputs() const
{
    size_t n = 0;
    for (const auto& out : outputs_)
        n += (out.kind == PlanOutput::Kind::kDense);
    return n;
}

size_t
TransformPlan::numSparseOutputs() const
{
    size_t n = 0;
    for (const auto& out : outputs_) {
        n += (out.kind == PlanOutput::Kind::kSparse ||
              out.kind == PlanOutput::Kind::kGenerated);
    }
    return n;
}

Status
TransformPlan::validate(const Schema& schema) const
{
    g_validation_count.fetch_add(1, std::memory_order_relaxed);
    std::unordered_set<std::string> names;
    size_t labels = 0;
    for (const auto& out : outputs_) {
        if (!names.insert(out.output_name).second) {
            return Status::invalidArgument("duplicate output name: " +
                                           out.output_name);
        }
        const auto idx = schema.indexOf(out.source_feature);
        if (!idx.has_value()) {
            return Status::notFound("unknown source feature: " +
                                    out.source_feature);
        }
        const FeatureKind kind = schema.feature(*idx).kind;
        switch (out.kind) {
          case PlanOutput::Kind::kLabel:
            if (kind != FeatureKind::kLabel)
                return Status::invalidArgument(
                    out.source_feature + " is not a label column");
            ++labels;
            break;
          case PlanOutput::Kind::kDense:
          case PlanOutput::Kind::kGenerated:
            if (kind != FeatureKind::kDense)
                return Status::invalidArgument(
                    out.source_feature + " is not a dense feature");
            break;
          case PlanOutput::Kind::kSparse:
            if (kind != FeatureKind::kSparse)
                return Status::invalidArgument(
                    out.source_feature + " is not a sparse feature");
            break;
        }
        if (out.kind == PlanOutput::Kind::kGenerated &&
            out.bucket_boundaries == 0) {
            return Status::invalidArgument(
                "generated output needs bucket boundaries: " +
                out.output_name);
        }
        if (out.kind == PlanOutput::Kind::kDense && !out.sparse_ops.empty())
            return Status::invalidArgument(
                "dense output cannot have sparse ops: " + out.output_name);
        if (out.kind == PlanOutput::Kind::kSparse && !out.dense_ops.empty())
            return Status::invalidArgument(
                "sparse output cannot have dense ops: " + out.output_name);
        for (const auto& op : out.dense_ops) {
            if (op.kind == DenseOp::Kind::kClamp && op.a > op.b)
                return Status::invalidArgument("clamp range inverted in " +
                                               out.output_name);
        }
        for (const auto& op : out.sparse_ops) {
            if (op.kind == SparseOp::Kind::kSigridHash && op.max_value <= 0)
                return Status::invalidArgument(
                    "SigridHash max must be positive in " +
                    out.output_name);
        }
    }
    if (labels > 1)
        return Status::invalidArgument("at most one label output");
    return Status::okStatus();
}

TransformPlan
TransformPlan::standard(const RmConfig& config)
{
    // Mirrors Preprocessor exactly (seeds, boundaries, output order).
    const auto seed = [](size_t table) {
        return mix64(0x516ffd4005ULL ^ table);
    };
    const auto table_size = static_cast<int64_t>(config.avg_embeddings);

    TransformPlan plan;
    {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kLabel;
        out.output_name = "label";
        out.source_feature = "label";
        plan.add(std::move(out));
    }
    for (size_t f = 0; f < config.num_dense; ++f) {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kDense;
        out.output_name = "dense_" + std::to_string(f);
        out.source_feature = out.output_name;
        out.dense_ops = {DenseOp::fillMissing(0.0f), DenseOp::log()};
        plan.add(std::move(out));
    }
    for (size_t f = 0; f < config.num_sparse; ++f) {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kSparse;
        out.output_name = "sparse_" + std::to_string(f);
        out.source_feature = out.output_name;
        out.sparse_ops = {SparseOp::sigridHash(seed(f), table_size)};
        plan.add(std::move(out));
    }
    for (size_t g = 0; g < config.num_generated; ++g) {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kGenerated;
        out.output_name = "generated_" + std::to_string(g);
        out.source_feature = "dense_" + std::to_string(g);
        out.dense_ops = {DenseOp::fillMissing(0.0f)};
        out.bucket_boundaries = config.bucket_size;
        out.sparse_ops = {
            SparseOp::sigridHash(seed(config.num_sparse + g), table_size)};
        plan.add(std::move(out));
    }
    return plan;
}

std::array<size_t, 5>
TransformPlan::standardKey(const RmConfig& config)
{
    return {config.num_dense, config.num_sparse, config.num_generated,
            config.bucket_size, config.avg_embeddings};
}

PlanExecutor::PlanExecutor(TransformPlan plan, const Schema& input_schema)
    : program_(std::make_shared<const CompiledProgram>(
          CompiledProgram::compile(std::move(plan), input_schema)))
{
    // Metadata for the unfused reference path only; the compiled program
    // carries its own copy of everything the fused path needs.
    const TransformPlan& p = program_->plan();
    source_index_.reserve(p.outputs().size());
    boundary_slot_.reserve(p.outputs().size());
    for (const auto& out : p.outputs()) {
        source_index_.push_back(
            *program_->inputSchema().indexOf(out.source_feature));
        if (out.kind == PlanOutput::Kind::kGenerated) {
            boundary_slot_.push_back(static_cast<int>(boundaries_.size()));
            boundaries_.push_back(BucketBoundaries::makeLogSpaced(
                out.bucket_boundaries, kStandardBucketLo,
                kStandardBucketHi));
        } else {
            boundary_slot_.push_back(-1);
        }
    }
}

const TransformPlan&
PlanExecutor::plan() const
{
    return program_->plan();
}

MiniBatch
PlanExecutor::run(const RowBatch& raw) const
{
    MiniBatch mb;
    BatchArena arena;
    program_->run(raw, mb, arena);
    return mb;
}

void
PlanExecutor::runInto(const RowBatch& raw, MiniBatch& out, BatchArena& arena,
                      ThreadPool* pool) const
{
    program_->run(raw, out, arena, pool);
}

MiniBatch
PlanExecutor::runUnfused(const RowBatch& raw) const
{
    const TransformPlan& plan_ = program_->plan();
    PRESTO_CHECK(raw.schema() == program_->inputSchema(),
                 "batch schema does not match the plan's input schema");
    const size_t batch = raw.numRows();

    MiniBatch mb;
    mb.batch_size = batch;
    mb.num_dense = plan_.numDenseOutputs();
    mb.dense.resize(batch * mb.num_dense);
    mb.sparse.reserve(plan_.numSparseOutputs());

    auto applyDenseOps = [](std::vector<float>& values,
                            const std::vector<DenseOp>& ops) {
        for (const auto& op : ops) {
            switch (op.kind) {
              case DenseOp::Kind::kFillMissing:
                fillMissingInPlace(values, op.a);
                break;
              case DenseOp::Kind::kLog:
                logTransformInPlace(values);
                break;
              case DenseOp::Kind::kClamp:
                for (auto& v : values)
                    v = std::min(std::max(v, op.a), op.b);
                break;
            }
        }
    };

    auto applySparseOps = [](SparseColumn col,
                             const std::vector<SparseOp>& ops) {
        for (const auto& op : ops) {
            switch (op.kind) {
              case SparseOp::Kind::kSigridHash:
                col = sigridHash(col, op.seed, op.max_value);
                break;
              case SparseOp::Kind::kFirstX:
                col = firstX(col, op.max_ids);
                break;
            }
        }
        return col;
    };

    size_t dense_slot = 0;
    for (size_t o = 0; o < plan_.outputs().size(); ++o) {
        const auto& out = plan_.outputs()[o];
        const size_t src = source_index_[o];
        switch (out.kind) {
          case PlanOutput::Kind::kLabel: {
            const auto& col = raw.dense(src);
            mb.labels.assign(col.values().begin(), col.values().end());
            break;
          }
          case PlanOutput::Kind::kDense: {
            const auto& col = raw.dense(src);
            std::vector<float> values(col.values().begin(),
                                      col.values().end());
            applyDenseOps(values, out.dense_ops);
            for (size_t r = 0; r < batch; ++r)
                mb.dense[r * mb.num_dense + dense_slot] = values[r];
            ++dense_slot;
            break;
          }
          case PlanOutput::Kind::kSparse: {
            const SparseColumn col =
                applySparseOps(raw.sparse(src), out.sparse_ops);
            JaggedIndices jag;
            jag.feature_name = out.output_name;
            jag.values.assign(col.values().begin(), col.values().end());
            jag.lengths.resize(batch);
            for (size_t r = 0; r < batch; ++r)
                jag.lengths[r] = static_cast<uint32_t>(col.rowLength(r));
            mb.sparse.push_back(std::move(jag));
            break;
          }
          case PlanOutput::Kind::kGenerated: {
            const auto& col = raw.dense(src);
            std::vector<float> values(col.values().begin(),
                                      col.values().end());
            applyDenseOps(values, out.dense_ops);
            const auto& bounds =
                boundaries_[static_cast<size_t>(boundary_slot_[o])];
            std::vector<int64_t> ids(batch);
            bucketizeInto(values, bounds, ids);
            std::vector<uint32_t> offsets(batch + 1);
            for (size_t r = 0; r <= batch; ++r)
                offsets[r] = static_cast<uint32_t>(r);
            const SparseColumn generated = applySparseOps(
                SparseColumn(std::move(ids), std::move(offsets)),
                out.sparse_ops);
            JaggedIndices jag;
            jag.feature_name = out.output_name;
            jag.values.assign(generated.values().begin(),
                              generated.values().end());
            jag.lengths.resize(batch);
            for (size_t r = 0; r < batch; ++r)
                jag.lengths[r] =
                    static_cast<uint32_t>(generated.rowLength(r));
            mb.sparse.push_back(std::move(jag));
            break;
          }
        }
    }

    PRESTO_CHECK(mb.consistent(), "plan produced an inconsistent batch");
    return mb;
}

}  // namespace presto
