/**
 * @file
 * Calibration constants for every device/cost model, each tied to a paper
 * statement or a public spec.
 *
 * The PoC hardware (Xeon Gold 6242 nodes, A100, Samsung SmartSSD) is not
 * available here, so — exactly like the paper's own large-scale analytical
 * model (Section V-B) — performance is derived from per-unit throughput
 * constants. The constants below are chosen so the *shapes* the paper
 * reports hold (see DESIGN.md Section 5 for the target bands); they are
 * locked by tests/calibration_test.cc.
 */
#ifndef PRESTO_MODELS_CALIBRATION_H_
#define PRESTO_MODELS_CALIBRATION_H_

#include "common/units.h"

namespace presto::cal {

// =========================================================================
// Baseline CPU preprocessing worker (one disaggregated Xeon core running
// the TorchArrow operator stack).
//
// Anchors: Fig 5 (RM5 = 14x RM1 single-worker latency; feature gen+norm =
// 79% of preprocessing time on average; Extract(Read) small), Fig 4
// (367 cores feed 8 A100s on RM5).
// =========================================================================

/** Seconds per raw value for columnar page decode on a CPU core. */
inline constexpr double kCpuDecodeSecPerValue = 13e-9;

/** Seconds per (value x binary-search level) for Bucketize. The branchy
 *  search through a float boundary array costs ~a branch miss per level
 *  at TorchArrow abstraction overheads. */
inline constexpr double kCpuBucketizeSecPerValueLevel = 40e-9;

/** Seconds per id for SigridHash (hash + modulo + column plumbing). */
inline constexpr double kCpuHashSecPerValue = 55e-9;

/** Seconds per dense value for Log normalization (libm log1p + copies). */
inline constexpr double kCpuLogSecPerValue = 80e-9;

/** Seconds per output scalar for mini-batch conversion (gather into
 *  train-ready tensors). */
inline constexpr double kCpuConvertSecPerValue = 8e-9;

/** Fixed per-batch framework overhead (dataloader dispatch, RPC setup). */
inline constexpr double kCpuFixedSecPerBatch = 3e-3;

/** Per-feature setup cost (column metadata, allocator churn). */
inline constexpr double kCpuSecPerFeature = 10e-6;

// --- Measured decode rates (BENCH_decode.json on the dev host) -----------
//
// bench_decode measures the real columnar decoders in this repo; the
// committed BENCH_decode.json is the provenance for the constants below
// (65536-value pages, best dispatched SIMD level vs the scalar
// reference). They parameterize the "measured decode" variants of the
// Fig 11/12 models so the analytical curves can be re-anchored to this
// host instead of the calibrated Xeon constant.

/** Reference (scalar, TorchArrow-like) varint decode: 7.45e7 values/s
 *  => 13.4 ns/value, which independently corroborates the calibrated
 *  kCpuDecodeSecPerValue = 13 ns anchor above. */
inline constexpr double kMeasuredDecodeRefValuesPerSec = 7.45e7;

/** Vectorized varint decode (the dominant sparse-page encoding):
 *  2.68e8 values/s. */
inline constexpr double kMeasuredDecodeSimdValuesPerSec = 2.68e8;

/** Vectorized dictionary-page decode: 7.43e8 values/s. */
inline constexpr double kMeasuredDictDecodeValuesPerSec = 7.43e8;

/** Vectorized bit-packed decode (incl. the FOR-over-deltas mode):
 *  1.24e9 values/s — ~3.9x the delta-varint reference it replaces for
 *  monotone offset streams. */
inline constexpr double kMeasuredBitPackedValuesPerSec = 1.24e9;

/** Sec/value of the measured scalar reference decoder. */
inline constexpr double kMeasuredCpuDecodeSecPerValue =
    1.0 / kMeasuredDecodeRefValuesPerSec;

/** Sec/value of the measured vectorized decode path. */
inline constexpr double kMeasuredSimdDecodeSecPerValue =
    1.0 / kMeasuredDecodeSimdValuesPerSec;

// --- Measured fused-transform rate (BENCH_fused.json on the dev host) ----
//
// bench_fused measures the compiled op-chain VM (src/ops/opvm.h): the
// whole standard Transform — feature generation, normalization, and
// conversion — executed in one SIMD pass per column. One rate covers the
// pipeline because fusion collapses the per-op costs into a single
// value-granular walk.

/** Fused Transform: output values retired per second on one core
 *  (RM1 end-to-end, best dispatched SIMD level), as measured before
 *  the radix-indexed Bucketize; BENCH_fused.json now reports 2-3x this.
 *  ROADMAP item 5 recalibrates the models from bench_e2e. */
inline constexpr double kMeasuredFusedValuesPerSec = 1.36e8;

/** Sec/output-value of the measured fused Transform path. */
inline constexpr double kMeasuredFusedSecPerValue =
    1.0 / kMeasuredFusedValuesPerSec;

// --- Page compression (PSF LZ codec) -------------------------------------
//
// PSF pages may carry an LZ-compressed payload (src/columnar/compress.h).
// Compression shrinks the Extract(Read)/delivery stage by the stored
// ratio and adds a decompress term to Extract(Decode); the constants
// below parameterize the "compressed PSF" variants of the Fig 11/12
// models. Measured values come from the committed BENCH_decode.json
// (compressed_pages section on this host).

/** Measured LZ decompress rate of the in-repo codec on compressible
 *  plain-i64 pages, in raw (decompressed) output bytes per second. */
inline constexpr double kMeasuredLzDecompressBytesPerSec = 1.4e9;

/** Measured stored/raw ratio of an LZ-compressed RM2 PSF partition
 *  (hashed-id pages stay uncompressed because the writer only keeps
 *  strictly-smaller pages, so the file-level ratio is well above the
 *  per-page ratio of its compressible pages). */
inline constexpr double kMeasuredLzStoredRatio = 0.81;

/** Measured decode rate of the in-repo canonical-Huffman entropy
 *  decoder (columnar/entropy.h) on the skewed pages the writer's
 *  strictly-smallest rule actually entropy-codes, in raw output bytes
 *  per second (BENCH_decode.json entropy_pages, best corpus on this
 *  host; near-incompressible payloads never reach this decoder because
 *  the menu keeps them plain or LZ-only). */
inline constexpr double kMeasuredHuffDecodeBytesPerSec = 1.9e9;

/** Measured stored/raw ratio of an RM1 PSF partition written with the
 *  full per-page codec menu (plain / LZ / entropy / LZ+entropy,
 *  strictly-smallest wins), from BENCH_decode.json entropy_pages. */
inline constexpr double kMeasuredEntropyStoredRatio = 0.77;

/** Co-located workers (Fig 3) share the host with the training-side
 *  input pipeline; effective throughput per core drops by this factor
 *  relative to a dedicated disaggregated core. Reconciles Fig 3's <20%
 *  GPU utilization at 16 cores with Fig 4's ~42 dedicated cores/GPU. */
inline constexpr double kColocatedInterference = 0.48;

/** Peak DRAM bandwidth of the two-socket Xeon Gold 6242 node (Section
 *  III-C quotes 281.6 GB/s); Figure 6 normalizes against this. */
inline constexpr double kCpuMemBandwidthBytesPerSec = 281.6e9;

/** Average DRAM miss-stall exposed per LLC miss after overlap (used to
 *  estimate the compute vs memory split of op time in Figure 6). */
inline constexpr double kLlcMissStallSec = 35e-9;

// =========================================================================
// Raw data encoding (PSF/Parquet) and train-ready tensor sizes.
// =========================================================================

/** Encoded bytes per dense value (plain float pages). */
inline constexpr double kEncodedBytesPerDenseValue = 4.0;

/** Encoded bytes per raw sparse id. Ids are near-uniform 63-bit hashes;
 *  dictionary/varint pages average ~9 bytes each. */
inline constexpr double kEncodedBytesPerSparseValue = 9.0;

/** Encoded bytes per row for lengths/labels bookkeeping. */
inline constexpr double kEncodedBytesPerRow = 3.0;

/** Train-ready bytes: fp32 dense values. */
inline constexpr double kTensorBytesPerDenseValue = 4.0;

/** Train-ready bytes: int32 embedding indices (tables < 2^31 rows). */
inline constexpr double kTensorBytesPerSparseValue = 4.0;

/** Train-ready bytes per (row x sparse table) for the lengths tensor. */
inline constexpr double kTensorBytesPerLength = 4.0;

// =========================================================================
// Storage and network.
// =========================================================================

/** 10 GbE payload bandwidth (Section V-B: nodes talk over 10 Gbps). */
inline constexpr double kNetworkBytesPerSec = presto::kTenGbEBytesPerSec;

/** Fixed latency per RPC call (PyTorch RPC + kernel network stack). */
inline constexpr double kRpcFixedSec = 120e-6;

/** Chunk size for storage reads; each chunk is one RPC. */
inline constexpr double kRpcChunkBytes = 1.0 * presto::kMiB;

/** SSD sequential read bandwidth (local reads by co-located workers). */
inline constexpr double kSsdReadBytesPerSec = 3.0e9;

/** SmartSSD SSD->FPGA peer-to-peer bandwidth (slightly below the raw SSD
 *  stream rate due to the FPGA DMA engine). */
inline constexpr double kSmartSsdP2pBytesPerSec = 2.9e9;

// =========================================================================
// SmartSSD ISP accelerator (Table II: units synthesized at 223 MHz inside
// a U.2 SmartSSD with a 25 W envelope).
//
// Anchors: Fig 12 (avg 9.6x / max 11.6x single-worker latency reduction;
// Extract = 40.8% of PreSto's latency), Fig 11 (one SmartSSD between
// Disagg(32) and Disagg(64); Disagg(64) wins by ~27%), Fig 14 (<= 9 ISP
// units for 8 A100s).
// =========================================================================

/** Accelerator clock (Table II). */
inline constexpr double kFpgaClockHz = 223.0 * presto::kMHz;

/** Decoder unit: effective values/second. Page decode serializes on
 *  varint boundaries, so it is the least parallel unit (the paper notes
 *  decoding is "less parallelizable", keeping Extract at ~40% of the
 *  PreSto batch latency). ~1.1 values/cycle across lanes. */
inline constexpr double kIspDecodeValuesPerSec = 0.25e9;

/** Bucketize unit: one binary-search level per cycle per PE; a value
 *  costs log2(m)+1 levels. PE count from Table II's unit budget. */
inline constexpr int kIspBucketizePes = 4;

/** SigridHash unit: pipelined hash, 1 id/cycle/PE. */
inline constexpr int kIspHashPes = 2;

/** Log unit: pipelined log1p, 1 value/cycle/PE. */
inline constexpr int kIspLogPes = 2;

/** Mini-batch conversion rate (gather + DMA-out formatting). */
inline constexpr double kIspConvertValuesPerSec = 0.32e9;

/** Fixed per-batch overhead (XRT kernel invocation + RPC to the train
 *  manager). */
inline constexpr double kIspFixedSecPerBatch = 3.5e-3;

/** Modeled FPGA LZ-decompressor unit: a sequence-reconstruction stage
 *  retiring ~4 output bytes/cycle at the Table II clock (not a paper
 *  unit — parameterizes the compressed-PSF what-if in bench_fig11/12;
 *  IspParams leaves it off by default). */
inline constexpr double kIspDecompressBytesPerSec = kFpgaClockHz * 4.0;

/** Modeled FPGA canonical-Huffman unit in front of the decompressor:
 *  a flat-table code lookup retiring ~2 output bytes/cycle at the
 *  Table II clock (half the LZ unit's rate — each output byte costs a
 *  serial table probe, pipelined two-wide across the format's
 *  independent bitstream lanes). Parameterizes the entropy-PSF what-if
 *  in bench_fig11/12; IspParams leaves it off by default. */
inline constexpr double kIspEntropyDecodeBytesPerSec = kFpgaClockHz * 2.0;

/** Concurrent mini-batch streams per SmartSSD. Feature-unit groups work
 *  on independent partitions, so device throughput exceeds 1/latency
 *  (reconciles Fig 11's ~50x throughput with Fig 12's ~10x latency). */
inline constexpr int kIspBatchConcurrency = 2;

// --- U280 variant (Fig 16): 2x units, discrete PCIe card -----------------

/** U280 compute units are doubled vs the SmartSSD build. */
inline constexpr double kU280UnitScale = 2.0;

/** U280 decode scales less than 2x (serialization-bound). */
inline constexpr double kU280DecodeScale = 1.35;

/** Host-mediated SSD->U280 delivery bandwidth (PCIe staging). */
inline constexpr double kU280DeliverBytesPerSec = 3.0e9;

/** The U280 build runs one monolithic stream (no batch interleaving). */
inline constexpr int kU280BatchConcurrency = 1;

// =========================================================================
// GPU models.
// =========================================================================

/** A100 peak dense fp16 FLOPs and the fraction DLRM GEMMs achieve. */
inline constexpr double kA100PeakFlops = 312e12;
inline constexpr double kA100GemmEfficiency = 0.35;

/** A100 HBM bandwidth and the fraction random embedding gathers achieve. */
inline constexpr double kA100HbmBytesPerSec = 1555e9;
inline constexpr double kA100GatherEfficiency = 0.34;

/** Backward pass cost relative to forward (GEMMs ~2x, + optimizer). */
inline constexpr double kTrainBackwardFactor = 2.0;

/** Embedding backward/optimizer traffic relative to forward gathers. */
inline constexpr double kEmbeddingUpdateFactor = 1.5;

/** Fixed per-step overhead: kernel launches across tables, all-to-all,
 *  host logic. */
inline constexpr double kTrainFixedSecPerStep = 9.0e-3;

/** Embedding vector width (Table I models use dim 128). */
inline constexpr int kEmbeddingDim = 128;

// --- NVTabular-on-A100 preprocessing (Fig 16) -----------------------------

/** Per-(feature x op) dispatch overhead of the GPU dataframe pipeline:
 *  kernel launches plus host-side column handling. Each launch touches a
 *  small working set, so launches cannot amortize (the paper's stated
 *  reason GPUs underperform on this workload). */
inline constexpr double kGpuPerFeatureOpSec = 120e-6;

/** Element-wise ops applied per feature (generate/normalize/convert). */
inline constexpr double kGpuOpsPerFeature = 3.0;

/** Effective GPU throughput on preprocessing element ops. */
inline constexpr double kGpuPreprocValuesPerSec = 8.0e9;

/** Fixed per-batch driver/dataframe overhead of the GPU pipeline. */
inline constexpr double kGpuPreprocFixedSec = 4.0e-3;

// =========================================================================
// Power (measured-style active powers, not TDPs).
//
// Anchors: Fig 15(a) (avg 11.3x / max 15.1x energy-efficiency gain),
// Fig 16 (PreSto(SmartSSD) perf/W = 2.9x PreSto(U280)).
// =========================================================================

/** Per-core share of a loaded 2-socket Xeon 6242 node (PCM-style:
 *  node idle + per-core active, amortized). 367 cores x this = ~2.7 kW,
 *  the 15.1x max anchor. */
inline constexpr double kCpuWattsPerCore = 7.4;

/** Full preprocessing node (32 cores busy) for node-count costing. */
inline constexpr double kCpuWattsPerNode = 400.0;

/** SmartSSD active power (TDP 25 W; Vivado-reported activity ~20 W). */
inline constexpr double kSmartSsdWatts = 20.0;

/** U280 active power (TDP 225 W; measured activity much lower). */
inline constexpr double kU280Watts = 75.0;

/** A100 active power while running the (underutilizing) preproc. */
inline constexpr double kA100PreprocWatts = 120.0;

// =========================================================================
// Cost (Section V-C: cost-efficiency = Thr x Dur / (CapEx + OpEx)).
//
// Anchors: Fig 15(b) (avg 4.3x / max 5.6x cost-efficiency gain).
// =========================================================================

/** Dell R640-class 2-socket Xeon Gold 6242 node, 32 cores. */
inline constexpr double kCpuNodeDollars = 8500.0;
inline constexpr int kCpuCoresPerNode = 32;

/** Samsung SmartSSD street price. */
inline constexpr double kSmartSsdDollars = 2200.0;

/** Xilinx U280 card price. */
inline constexpr double kU280Dollars = 7500.0;

/** A100 PCIe card price. */
inline constexpr double kA100Dollars = 12000.0;

/** Deployment duration (3 years, per Barroso et al. / the paper). */
inline constexpr double kDurationSec = 3.0 * presto::kYear;

/** Electricity price used by the paper ($/kWh). */
inline constexpr double kElectricityPerKwh = 0.0733;

// =========================================================================
// Training-node composition.
// =========================================================================

/** GPUs per training node (DGX A100, Section III). */
inline constexpr int kGpusPerTrainingNode = 8;

/** CPU cores available per GPU in the co-located setup (128/8). */
inline constexpr int kColocatedCoresPerGpu = 16;

}  // namespace presto::cal

#endif  // PRESTO_MODELS_CALIBRATION_H_
