#include "ops/opvm.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "ops/fast_ops_internal.h"
#include "ops/opvm_internal.h"
#include "ops/preprocessor.h"
#include "ops/simd.h"

namespace presto {

const char*
opCodeName(OpCode op)
{
    switch (op) {
      case OpCode::kFill:      return "fill";
      case OpCode::kLog:       return "log";
      case OpCode::kClamp:     return "clamp";
      case OpCode::kBucketize: return "bucketize";
      case OpCode::kHash:      return "hash";
    }
    return "?";
}

namespace opvm_detail {

void
runDenseScalar(const OpInstr* ops, size_t nops, const float* src, size_t n,
               float* dst, size_t stride)
{
    for (size_t i = 0; i < n; ++i)
        dst[i * stride] = applyF32Scalar(ops, nops, src[i]);
}

void
runSparseScalar(const OpInstr* ops, size_t nops, const int64_t* src,
                size_t n, int64_t* dst)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = applyHashScalar(ops, nops, src[i]);
}

void
runGeneratedScalar(const OpInstr* f32_ops, size_t nf32,
                   const BucketTable& bt, const OpInstr* hash_ops,
                   size_t nhash, const float* src, size_t n, int64_t* out)
{
    for (size_t i = 0; i < n; ++i) {
        const float v = applyF32Scalar(f32_ops, nf32, src[i]);
        out[i] = applyHashScalar(hash_ops, nhash,
                                 simd_detail::bucketIdScalar(v, bt));
    }
}

void
runGenerated(const OpInstr* f32_ops, size_t nf32, const BucketTable& bt,
             const OpInstr* hash_ops, size_t nhash, const float* src,
             size_t n, int64_t* out)
{
    switch (activeSimdLevel()) {
#if defined(PRESTO_HAVE_X86_SIMD)
      case SimdLevel::kAvx512:
        runGeneratedAvx512(f32_ops, nf32, bt, hash_ops, nhash, src, n, out);
        return;
      case SimdLevel::kAvx2:
        runGeneratedAvx2(f32_ops, nf32, bt, hash_ops, nhash, src, n, out);
        return;
#endif
      default:
        runGeneratedScalar(f32_ops, nf32, bt, hash_ops, nhash, src, n, out);
    }
}

}  // namespace opvm_detail

namespace {

void
dispatchDense(const OpInstr* ops, size_t nops, const float* src, size_t n,
              float* dst, size_t stride)
{
    switch (activeSimdLevel()) {
#if defined(PRESTO_HAVE_X86_SIMD)
      case SimdLevel::kAvx512:
        opvm_detail::runDenseAvx512(ops, nops, src, n, dst, stride);
        return;
      case SimdLevel::kAvx2:
        opvm_detail::runDenseAvx2(ops, nops, src, n, dst, stride);
        return;
#endif
      default:
        opvm_detail::runDenseScalar(ops, nops, src, n, dst, stride);
    }
}

void
dispatchSparse(const OpInstr* ops, size_t nops, const int64_t* src,
               size_t n, int64_t* dst)
{
    switch (activeSimdLevel()) {
#if defined(PRESTO_HAVE_X86_SIMD)
      case SimdLevel::kAvx512:
        opvm_detail::runSparseAvx512(ops, nops, src, n, dst);
        return;
      case SimdLevel::kAvx2:
        opvm_detail::runSparseAvx2(ops, nops, src, n, dst);
        return;
#endif
      default:
        opvm_detail::runSparseScalar(ops, nops, src, n, dst);
    }
}

/** Fallback: whole-column passes for a too-long f32 chain. */
void
applyF32Passes(const OpInstr* ops, size_t nops, std::vector<float>& values)
{
    for (size_t k = 0; k < nops; ++k) {
        switch (ops[k].op) {
          case OpCode::kFill:
            fillMissingInPlaceFast(values, ops[k].a);
            break;
          case OpCode::kLog:
            logTransformInPlaceFast(values);
            break;
          case OpCode::kClamp:
            for (auto& v : values)
                v = std::min(std::max(v, ops[k].a), ops[k].b);
            break;
          default:
            break;
        }
    }
}

/** Fallback: whole-column passes for a too-long hash chain. */
void
applyHashPasses(const OpInstr* ops, size_t nops,
                std::vector<int64_t>& values)
{
    for (size_t k = 0; k < nops; ++k)
        sigridHashInPlaceFast(values, ops[k].seed, ops[k].max_value);
}

}  // namespace

std::vector<OpInstr>
simplifyF32Chain(std::vector<OpInstr> ops)
{
    const auto nan_free_below = [&](size_t j) {
        // True when no NaN can reach ops[j]: an earlier non-NaN fill
        // scrubbed NaNs and every op since preserves NaN-freeness.
        bool clean = false;
        for (size_t i = 0; i < j; ++i) {
            switch (ops[i].op) {
              case OpCode::kFill:
                if (!std::isnan(ops[i].a))
                    clean = true;
                // fill(NaN) maps NaN to NaN: clean stays clean.
                break;
              case OpCode::kLog:
                break;  // log1p(max(x, 0)) of non-NaN is non-NaN
              case OpCode::kClamp:
                if (std::isnan(ops[i].a) || std::isnan(ops[i].b))
                    clean = false;  // NaN bound may surface (per tier)
                break;
              default:
                clean = false;  // not an f32-stage op; be conservative
                break;
            }
        }
        return clean;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t k = 0; k + 1 < ops.size() && !changed; ++k) {
            OpInstr& cur = ops[k];
            OpInstr& next = ops[k + 1];
            if (cur.op == OpCode::kClamp && next.op == OpCode::kClamp &&
                !std::isnan(cur.a) && !std::isnan(cur.b) &&
                !std::isnan(next.a) && !std::isnan(next.b)) {
                // clamp(a1,b1);clamp(a2,b2) == clamp(max(a1,a2),
                // min(max(b1,a2),b2)) — exactly these operand orders,
                // so signed-zero ties resolve as the composition does.
                const float lo = std::max(cur.a, next.a);
                const float hi = std::min(std::max(cur.b, next.a), next.b);
                cur.a = lo;
                cur.b = hi;
                ops.erase(ops.begin() + static_cast<ptrdiff_t>(k) + 1);
                changed = true;
            } else if (cur.op == OpCode::kFill &&
                       next.op == OpCode::kFill && std::isnan(cur.a)) {
                // Earlier fill dominated by the adjacent later one.
                ops.erase(ops.begin() + static_cast<ptrdiff_t>(k));
                changed = true;
            }
        }
        for (size_t k = 0; k < ops.size() && !changed; ++k) {
            if (ops[k].op == OpCode::kFill && nan_free_below(k)) {
                ops.erase(ops.begin() + static_cast<ptrdiff_t>(k));
                changed = true;
            }
        }
    }
    return ops;
}

CompiledProgram
CompiledProgram::compile(TransformPlan plan, const Schema& input_schema)
{
    CompiledProgram p;
    const Status st = plan.validate(input_schema);
    PRESTO_CHECK(st.ok(), "invalid plan: ", st.toString());
    p.plan_ = std::move(plan);
    p.input_schema_ = input_schema;
    p.schema_fp_ = input_schema.fingerprint();
    p.num_dense_ = p.plan_.numDenseOutputs();
    p.num_sparse_ = p.plan_.numSparseOutputs();

    size_t dense_slot = 0;
    size_t sparse_slot = 0;
    for (const auto& out : p.plan_.outputs()) {
        CompiledOutput c;
        c.kind = out.kind;
        c.name = out.output_name;
        c.source = *p.input_schema_.indexOf(out.source_feature);
        switch (out.kind) {
          case PlanOutput::Kind::kLabel:
            break;
          case PlanOutput::Kind::kDense:
            c.slot = dense_slot++;
            break;
          case PlanOutput::Kind::kSparse:
          case PlanOutput::Kind::kGenerated:
            c.slot = sparse_slot++;
            break;
        }
        for (const auto& op : out.dense_ops) {
            OpInstr in;
            switch (op.kind) {
              case DenseOp::Kind::kFillMissing:
                in.op = OpCode::kFill;
                in.a = op.a;
                break;
              case DenseOp::Kind::kLog:
                in.op = OpCode::kLog;
                break;
              case DenseOp::Kind::kClamp:
                in.op = OpCode::kClamp;
                in.a = op.a;
                in.b = op.b;
                break;
            }
            c.code.push_back(in);
            ++c.num_f32;
        }
        // Chain-level algebraic simplification: the code holds only
        // f32-stage ops at this point, so simplify wholesale and
        // remember the original length for the disassembly.
        c.unsimplified_f32 = c.num_f32;
        if (c.num_f32 > 1) {
            c.code = simplifyF32Chain(std::move(c.code));
            c.num_f32 = static_cast<uint32_t>(c.code.size());
        }
        if (out.kind == PlanOutput::Kind::kGenerated) {
            OpInstr in;
            in.op = OpCode::kBucketize;
            in.table = static_cast<int32_t>(p.bucketizers_.size());
            p.bucketizers_.emplace_back(BucketBoundaries::makeLogSpaced(
                out.bucket_boundaries, kStandardBucketLo,
                kStandardBucketHi));
            c.code.push_back(in);
        }
        // FirstX ops fold into one prefix cap applied while packing the
        // input ids (elementwise hashes commute with positional prefix
        // selection); the hash ops stay in chain order.
        for (const auto& op : out.sparse_ops) {
            if (op.kind == SparseOp::Kind::kFirstX) {
                c.prefix_cap = std::min(c.prefix_cap, op.max_ids);
            } else {
                OpInstr in;
                in.op = OpCode::kHash;
                in.seed = op.seed;
                in.max_value = op.max_value;
                c.code.push_back(in);
                ++c.num_hash;
            }
        }
        c.fused = c.num_f32 <= kMaxFusedChainOps &&
                  c.num_hash <= kMaxFusedChainOps;
        p.has_fallback_ |= !c.fused;
        p.outputs_.push_back(std::move(c));
    }
    return p;
}

void
CompiledProgram::run(const RowBatch& raw, MiniBatch& mb, BatchArena& arena,
                     ThreadPool* pool) const
{
    // Validation happened at compile time; per batch only an O(1)
    // fingerprint compare remains. The full comparison runs solely to
    // produce a precise panic on mismatch.
    if (raw.schema().fingerprint() != schema_fp_) {
        PRESTO_CHECK(raw.schema() == input_schema_,
                     "batch schema does not match the plan's input schema");
    }
    const size_t batch = raw.numRows();
    mb.batch_size = batch;
    mb.num_dense = num_dense_;
    mb.dense.resize(batch * num_dense_);
    mb.sparse.resize(num_sparse_);
    if (has_fallback_)
        arena.prepareF32(outputs_.size());

    auto task = [&](size_t o) { runOutput(o, raw, mb, arena); };
    if (pool != nullptr) {
        pool->parallelFor(outputs_.size(), task);
    } else {
        for (size_t o = 0; o < outputs_.size(); ++o)
            task(o);
    }

    arena.noteBatch();
    PRESTO_CHECK(mb.consistent(),
                 "compiled plan produced an inconsistent batch");
}

void
CompiledProgram::runOutput(size_t o, const RowBatch& raw, MiniBatch& mb,
                           BatchArena& arena) const
{
    const CompiledOutput& out = outputs_[o];
    switch (out.kind) {
      case PlanOutput::Kind::kLabel: {
        const auto& col = raw.dense(out.source);
        mb.labels.assign(col.values().begin(), col.values().end());
        break;
      }
      case PlanOutput::Kind::kDense:
        runDense(out, raw, mb, arena, o);
        break;
      case PlanOutput::Kind::kSparse:
        runSparse(out, raw, mb);
        break;
      case PlanOutput::Kind::kGenerated:
        runGenerated(out, raw, mb, arena, o);
        break;
    }
}

void
CompiledProgram::runDense(const CompiledOutput& out, const RowBatch& raw,
                          MiniBatch& mb, BatchArena& arena, size_t o) const
{
    const auto& col = raw.dense(out.source);
    const size_t batch = raw.numRows();
    float* dst = mb.dense.data() + out.slot;
    if (out.fused) {
        dispatchDense(out.code.data(), out.num_f32, col.values().data(),
                      batch, dst, num_dense_);
        return;
    }
    std::vector<float>& scratch = arena.f32(o);
    scratch.assign(col.values().begin(), col.values().end());
    applyF32Passes(out.code.data(), out.num_f32, scratch);
    for (size_t r = 0; r < batch; ++r)
        dst[r * num_dense_] = scratch[r];
}

void
CompiledProgram::runSparse(const CompiledOutput& out, const RowBatch& raw,
                           MiniBatch& mb) const
{
    const auto& col = raw.sparse(out.source);
    const size_t batch = raw.numRows();
    JaggedIndices& jag = mb.sparse[out.slot];
    jag.feature_name = out.name;
    jag.lengths.resize(batch);
    const int64_t* src = nullptr;
    if (out.prefix_cap == SIZE_MAX) {
        for (size_t r = 0; r < batch; ++r)
            jag.lengths[r] = static_cast<uint32_t>(col.rowLength(r));
        resizeReused(jag.values, col.numValues());
        src = col.values().data();
    } else {
        // Apply the folded FirstX cap while packing the surviving ids.
        size_t total = 0;
        for (size_t r = 0; r < batch; ++r) {
            const size_t len = std::min(col.rowLength(r), out.prefix_cap);
            jag.lengths[r] = static_cast<uint32_t>(len);
            total += len;
        }
        resizeReused(jag.values, total);
        size_t w = 0;
        for (size_t r = 0; r < batch; ++r) {
            const auto row = col.row(r);
            const size_t len = std::min(row.size(), out.prefix_cap);
            std::copy_n(row.data(), len, jag.values.data() + w);
            w += len;
        }
        src = jag.values.data();
    }
    if (out.num_hash == 0) {
        if (src != jag.values.data())
            std::copy_n(src, jag.values.size(), jag.values.data());
        return;
    }
    // A kSparse program is hash-only, so its code starts at the hash ops.
    const OpInstr* hash_ops = out.code.data();
    if (out.fused) {
        dispatchSparse(hash_ops, out.num_hash, src, jag.values.size(),
                       jag.values.data());
        return;
    }
    if (src != jag.values.data())
        std::copy_n(src, jag.values.size(), jag.values.data());
    applyHashPasses(hash_ops, out.num_hash, jag.values);
}

void
CompiledProgram::runGenerated(const CompiledOutput& out,
                              const RowBatch& raw, MiniBatch& mb,
                              BatchArena& arena, size_t o) const
{
    const auto& col = raw.dense(out.source);
    const size_t batch = raw.numRows();
    JaggedIndices& jag = mb.sparse[out.slot];
    jag.feature_name = out.name;
    // Generated rows hold one id each, so a FirstX cap either keeps the
    // row (cap >= 1) or empties every row (cap == 0).
    const uint32_t rowlen = out.prefix_cap == 0 ? 0u : 1u;
    jag.lengths.assign(batch, rowlen);
    jag.values.resize(batch * rowlen);
    if (rowlen == 0 || batch == 0)
        return;
    const OpInstr* f32_ops = out.code.data();
    const OpInstr& bridge = out.code[out.num_f32];
    const FastBucketizer& bz = bucketizer(bridge.table);
    const OpInstr* hash_ops = out.code.data() + out.num_f32 + 1;
    if (out.fused) {
        opvm_detail::runGenerated(f32_ops, out.num_f32, bz.table(), hash_ops,
                                  out.num_hash, col.values().data(), batch,
                                  jag.values.data());
        return;
    }
    std::vector<float>& scratch = arena.f32(o);
    scratch.assign(col.values().begin(), col.values().end());
    applyF32Passes(f32_ops, out.num_f32, scratch);
    bz.bucketizeInto(scratch, jag.values);
    applyHashPasses(hash_ops, out.num_hash, jag.values);
}

std::string
CompiledProgram::disassemble() const
{
    std::ostringstream os;
    os << "program: " << outputs_.size() << " outputs (" << num_dense_
       << " dense, " << num_sparse_ << " sparse), input schema "
       << input_schema_.numFeatures() << " features, fingerprint 0x"
       << std::hex << schema_fp_ << std::dec << "\n";
    for (size_t o = 0; o < outputs_.size(); ++o) {
        const auto& out = outputs_[o];
        const char* kind = "?";
        switch (out.kind) {
          case PlanOutput::Kind::kLabel:     kind = "label"; break;
          case PlanOutput::Kind::kDense:     kind = "dense"; break;
          case PlanOutput::Kind::kSparse:    kind = "sparse"; break;
          case PlanOutput::Kind::kGenerated: kind = "generated"; break;
        }
        os << "output " << o << ": " << kind << " \"" << out.name
           << "\" <- col " << out.source << ", slot " << out.slot;
        if (!out.fused)
            os << "  ; NOT fused (chain > " << kMaxFusedChainOps << " ops)";
        if (out.num_f32 != out.unsimplified_f32)
            os << "  ; simplified " << out.unsimplified_f32 << " -> "
               << out.num_f32 << " f32 ops";
        os << "\n";
        if (out.prefix_cap != SIZE_MAX)
            os << "    firstx     cap=" << out.prefix_cap
               << "  ; folded from the chain's FirstX ops\n";
        for (size_t k = 0; k < out.code.size(); ++k) {
            const OpInstr& in = out.code[k];
            os << "    " << std::left;
            switch (in.op) {
              case OpCode::kFill:
                os << "fill       a=" << in.a;
                break;
              case OpCode::kLog:
                os << "log";
                break;
              case OpCode::kClamp:
                os << "clamp      lo=" << in.a << " hi=" << in.b;
                break;
              case OpCode::kBucketize:
                os << "bucketize  table=" << in.table << " ("
                   << bucketizer(in.table).size() << " bounds)";
                break;
              case OpCode::kHash:
                os << "hash       seed=0x" << std::hex << in.seed
                   << std::dec << " mod=" << in.max_value;
                break;
            }
            os << "\n";
        }
        switch (out.kind) {
          case PlanOutput::Kind::kLabel:
            os << "    store.f32  labels\n";
            break;
          case PlanOutput::Kind::kDense:
            os << "    store.f32  dense[r * " << num_dense_ << " + "
               << out.slot << "]\n";
            break;
          case PlanOutput::Kind::kSparse:
          case PlanOutput::Kind::kGenerated:
            os << "    store.i64  sparse[" << out.slot << "]\n";
            break;
        }
    }
    return os.str();
}

}  // namespace presto
