/**
 * @file
 * Tracked perf baseline of the vectorized Extract path, emitted as JSON
 * (committed as BENCH_decode.json; schema in docs/PERF.md).
 *
 * Measures, on this host, single-thread decode throughput of every
 * integer page encoding at every SIMD dispatch level against the
 * byte-wise reference decoders, CRC32C bytes/s of the table vs the
 * SSE4.2 implementation, page-parallel whole-file decode over a
 * ThreadPool, the LZ page codec (kernel compress/decompress rates plus
 * the file-level stored ratio and decode cost of codec on vs off), and
 * the end-to-end RM1 Extract+Transform rows/s with the
 * fast paths off vs on. Every timed kernel is differentially checked
 * against its reference first; any mismatch exits nonzero, so a perf
 * number can never be reported for a wrong decoder.
 *
 * Usage: bench_decode [--quick]   (--quick shrinks sizes/reps for the
 * ctest "perf" smoke label; numbers are then noisy but the differential
 * checks still run.)
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "columnar/columnar_file.h"
#include "columnar/encoding.h"
#include "columnar/entropy.h"
#include "common/batch_arena.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/generator.h"
#include "ops/preprocessor.h"
#include "ops/simd.h"

using namespace presto;

namespace {

struct BenchConfig {
    size_t values;       ///< elements per decode timing buffer
    size_t crc_bytes;    ///< bytes per CRC timing buffer
    size_t reps;         ///< timed repetitions (best-of)
    size_t e2e_batches;  ///< end-to-end pipeline iterations
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Best-of-reps seconds for one timed closure. */
template <typename F>
double
bestSeconds(size_t reps, F&& body)
{
    double best = 1e300;
    for (size_t r = 0; r < reps; ++r) {
        const double t0 = now();
        body();
        const double dt = now() - t0;
        if (dt < best)
            best = dt;
    }
    return best;
}

[[noreturn]] void
mismatch(const char* what, const char* variant)
{
    std::fprintf(stderr, "FATAL: %s output differs from reference (%s)\n",
                 what, variant);
    std::exit(1);
}

std::vector<SimdLevel>
availableLevels()
{
    std::vector<SimdLevel> levels = {SimdLevel::kScalar};
    if (detectedSimdLevel() >= SimdLevel::kAvx2)
        levels.push_back(SimdLevel::kAvx2);
    if (detectedSimdLevel() >= SimdLevel::kAvx512)
        levels.push_back(SimdLevel::kAvx512);
    return levels;
}

/** Encoding-appropriate data so each codec is timed on its home turf. */
std::vector<int64_t>
valuesFor(Encoding encoding, size_t n)
{
    Rng rng(7);
    std::vector<int64_t> v(n);
    int64_t acc = 0;
    for (size_t i = 0; i < n; ++i) {
        switch (encoding) {
          case Encoding::kPlainI64:
            v[i] = static_cast<int64_t>(rng.next());
            break;
          case Encoding::kVarint:
            // Zipf-popular categorical ids: mostly short varints with a
            // heavy tail of long ones.
            v[i] = static_cast<int64_t>(
                rng.uniformInt(uint64_t{4}) != 0
                    ? rng.uniformInt(uint64_t{1} << 14)
                    : rng.uniformInt(uint64_t{1} << 40));
            break;
          case Encoding::kDeltaVarint:
            acc += static_cast<int64_t>(rng.uniformInt(uint64_t{64}));
            v[i] = acc;
            break;
          case Encoding::kRle:
            v[i] = static_cast<int64_t>((i / 89) % 7);
            break;
          case Encoding::kDictionary:
          case Encoding::kBitPacked:
            // Few-distinct ids (an embedding-table page after hashing).
            v[i] = static_cast<int64_t>(rng.uniformInt(uint64_t{977})) *
                   999'983;
            break;
          case Encoding::kPlainF32:
            break;
        }
    }
    return v;
}

std::vector<uint8_t>
encodeAs(Encoding encoding, std::span<const int64_t> values)
{
    switch (encoding) {
      case Encoding::kPlainI64: return enc::encodePlainI64(values);
      case Encoding::kVarint: return enc::encodeVarint(values);
      case Encoding::kDeltaVarint: return enc::encodeDeltaVarint(values);
      case Encoding::kRle: return enc::encodeRle(values);
      case Encoding::kDictionary: return enc::encodeDictionary(values);
      case Encoding::kBitPacked: return enc::encodeBitPacked(values);
      case Encoding::kPlainF32: break;
    }
    std::fprintf(stderr, "FATAL: not an int encoding\n");
    std::exit(1);
}

void
runCrc(const BenchConfig& bc)
{
    Rng rng(11);
    std::vector<uint8_t> buf(bc.crc_bytes);
    for (auto& b : buf)
        b = static_cast<uint8_t>(rng.next());

    const uint32_t want = crc32cTable(buf.data(), buf.size());
    if (crc32cHardwareAvailable()) {
        setCrc32cHardwareEnabled(true);
        if (crc32c(buf.data(), buf.size()) != want)
            mismatch("crc32c", "sse42");
    }

    std::printf("  \"crc32c\": {\n"
                "    \"bytes\": %zu,\n"
                "    \"hardware_available\": %s,\n",
                buf.size(), crc32cHardwareAvailable() ? "true" : "false");
    volatile uint32_t sink = 0;
    const double table_secs = bestSeconds(bc.reps, [&] {
        sink = crc32cTable(buf.data(), buf.size());
    });
    const double gb = static_cast<double>(buf.size()) / 1e9;
    std::printf("    \"table\": {\"seconds\": %.6e, \"gb_per_sec\": "
                "%.4f},\n",
                table_secs, gb / table_secs);
    if (crc32cHardwareAvailable()) {
        const double hw_secs = bestSeconds(bc.reps, [&] {
            sink = crc32c(buf.data(), buf.size());
        });
        std::printf("    \"sse42\": {\"seconds\": %.6e, \"gb_per_sec\": "
                    "%.4f, \"speedup_vs_table\": %.3f}\n",
                    hw_secs, gb / hw_secs, table_secs / hw_secs);
    } else {
        std::printf("    \"sse42\": null\n");
    }
    std::printf("  },\n");
    (void)sink;
}

void
runDecodeKernels(const BenchConfig& bc)
{
    const auto levels = availableLevels();
    const std::vector<Encoding> encodings{
        Encoding::kPlainI64,   Encoding::kVarint,
        Encoding::kDeltaVarint, Encoding::kRle,
        Encoding::kDictionary,  Encoding::kBitPacked};

    std::printf("  \"decode\": [\n");
    for (size_t e = 0; e < encodings.size(); ++e) {
        const Encoding encoding = encodings[e];
        const auto values = valuesFor(encoding, bc.values);
        const auto payload = encodeAs(encoding, values);
        const size_t n = values.size();

        std::vector<int64_t> ref, ref_dict;
        if (!enc::decodeI64Reference(encoding, payload, n, ref, ref_dict)
                 .ok() ||
            ref != values)
            mismatch(encodingName(encoding), "reference round-trip");

        const double ref_secs = bestSeconds(bc.reps, [&] {
            if (!enc::decodeI64Reference(encoding, payload, n, ref,
                                         ref_dict)
                     .ok())
                mismatch(encodingName(encoding), "reference");
        });

        std::printf("    {\n"
                    "      \"encoding\": \"%s\",\n"
                    "      \"values\": %zu,\n"
                    "      \"payload_bytes\": %zu,\n"
                    "      \"reference\": {\"seconds\": %.6e, "
                    "\"values_per_sec\": %.4e},\n"
                    "      \"dispatched\": [\n",
                    encodingName(encoding), n, payload.size(), ref_secs,
                    static_cast<double>(n) / ref_secs);

        std::vector<int64_t> out(n), dict;
        for (size_t i = 0; i < levels.size(); ++i) {
            setSimdLevel(levels[i]);
            std::fill(out.begin(), out.end(), int64_t{-1});
            if (!enc::decodeI64Into(encoding, payload, n, out.data(), dict)
                     .ok() ||
                out != ref)
                mismatch(encodingName(encoding),
                         simdLevelName(levels[i]));
            const double secs = bestSeconds(bc.reps, [&] {
                if (!enc::decodeI64Into(encoding, payload, n, out.data(),
                                        dict)
                         .ok())
                    mismatch(encodingName(encoding),
                             simdLevelName(levels[i]));
            });
            std::printf("        {\"level\": \"%s\", \"seconds\": %.6e, "
                        "\"values_per_sec\": %.4e, "
                        "\"speedup_vs_reference\": %.3f}%s\n",
                        simdLevelName(levels[i]), secs,
                        static_cast<double>(n) / secs, ref_secs / secs,
                        i + 1 < levels.size() ? "," : "");
        }
        std::printf("      ]\n    }%s\n",
                    e + 1 < encodings.size() ? "," : "");
    }
    std::printf("  ],\n");
    setSimdLevel(detectedSimdLevel());
}

/** Whole-file decode: serial vs page-parallel readAllInto. */
void
runFileDecode(const BenchConfig& bc)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = static_cast<int>(
        std::min<size_t>(4 * bc.values, 262144));
    RawDataGenerator gen(cfg);
    const auto encoded =
        ColumnarFileWriter().write(gen.generatePartition(0), 0);

    ColumnarFileReader reader;
    RowBatch serial_batch, parallel_batch;
    if (!reader.open(encoded).ok() ||
        !reader.readAllInto(serial_batch).ok())
        mismatch("readAllInto", "serial");
    const double serial_secs = bestSeconds(bc.reps, [&] {
        if (!reader.open(encoded).ok() ||
            !reader.readAllInto(serial_batch).ok())
            mismatch("readAllInto", "serial");
    });

    const unsigned hw = std::max(2u, std::thread::hardware_concurrency());
    ThreadPool pool(static_cast<int>(hw));
    ColumnarFileReader preader;
    preader.setThreadPool(&pool);
    if (!preader.open(encoded).ok() ||
        !preader.readAllInto(parallel_batch).ok() ||
        !(parallel_batch == serial_batch))
        mismatch("readAllInto", "page-parallel");
    const double parallel_secs = bestSeconds(bc.reps, [&] {
        if (!preader.open(encoded).ok() ||
            !preader.readAllInto(parallel_batch).ok())
            mismatch("readAllInto", "page-parallel");
    });

    const double rows = static_cast<double>(serial_batch.numRows());
    std::printf("  \"file_decode\": {\n"
                "    \"rows\": %zu,\n"
                "    \"encoded_bytes\": %zu,\n"
                "    \"serial\": {\"seconds\": %.6e, \"rows_per_sec\": "
                "%.4e},\n"
                "    \"page_parallel\": {\"threads\": %u, \"seconds\": "
                "%.6e, \"rows_per_sec\": %.4e, \"speedup_vs_serial\": "
                "%.3f}\n"
                "  },\n",
                serial_batch.numRows(), encoded.size(), serial_secs,
                rows / serial_secs, hw, parallel_secs,
                rows / parallel_secs, serial_secs / parallel_secs);
}

/**
 * LZ page codec: kernel-level compress/decompress rates on
 * representative page payloads, and the file-level effect of the codec
 * (stored ratio and serial-decode cost) on a compressible partition.
 * The decompress rate and stored ratio rows feed
 * cal::kMeasuredLzDecompressBytesPerSec / kMeasuredLzStoredRatio.
 */
void
runCompressedPages(const BenchConfig& bc)
{
    std::printf("  \"compressed_pages\": {\n");

    // --- codec kernels on page-shaped payloads ---------------------------
    struct Corpus {
        const char* name;
        std::vector<uint8_t> raw;
    };
    const auto clustered = valuesFor(Encoding::kVarint, bc.values);
    Rng rng(23);
    std::vector<uint8_t> random_bytes(bc.values);
    for (auto& b : random_bytes)
        b = static_cast<uint8_t>(rng.next());
    const Corpus corpora[] = {
        {"varint_clustered_ids", enc::encodeVarint(clustered)},
        {"plain_i64_clustered_ids", enc::encodePlainI64(clustered)},
        {"random_bytes", std::move(random_bytes)},
    };

    std::printf("    \"codec\": [\n");
    for (size_t c = 0; c < std::size(corpora); ++c) {
        const auto& raw = corpora[c].raw;
        const auto packed = enc::lzCompress(raw);
        std::vector<uint8_t> back(raw.size());
        if (!enc::lzDecompress(packed, back).ok() || back != raw)
            mismatch("lz codec", corpora[c].name);

        std::vector<uint8_t> scratch;
        const double comp_secs = bestSeconds(bc.reps, [&] {
            enc::lzCompress(raw, scratch);
        });
        const double decomp_secs = bestSeconds(bc.reps, [&] {
            if (!enc::lzDecompress(packed, back).ok())
                mismatch("lz codec", corpora[c].name);
        });
        const double gb = static_cast<double>(raw.size()) / 1e9;
        std::printf("      {\"corpus\": \"%s\", \"raw_bytes\": %zu, "
                    "\"compressed_bytes\": %zu, \"ratio\": %.3f,\n"
                    "       \"compress\": {\"seconds\": %.6e, "
                    "\"raw_gb_per_sec\": %.4f},\n"
                    "       \"decompress\": {\"seconds\": %.6e, "
                    "\"raw_gb_per_sec\": %.4f}}%s\n",
                    corpora[c].name, raw.size(), packed.size(),
                    static_cast<double>(raw.size()) /
                        static_cast<double>(packed.size()),
                    comp_secs, gb / comp_secs, decomp_secs,
                    gb / decomp_secs,
                    c + 1 < std::size(corpora) ? "," : "");
    }
    std::printf("    ],\n");

    // --- file-level codec on/off on a compressible partition -------------
    // RM2 rows are ~9 KB encoded, so this stays an order of magnitude
    // smaller than the RM1 file above at the same row count.
    RmConfig cfg = rmConfig(2);
    cfg.batch_size = static_cast<int>(
        std::min<size_t>(bc.values, 65536));
    RawDataGenerator gen(cfg);
    const RowBatch batch = gen.generatePartition(0);
    WriterOptions off;
    off.codec = PageCodec::kNone;
    const auto with_lz = ColumnarFileWriter().write(batch, 0);
    const auto without = ColumnarFileWriter(off).write(batch, 0);

    ColumnarFileReader lz_reader, plain_reader;
    RowBatch a, b;
    if (!lz_reader.open(with_lz).ok() || !lz_reader.readAllInto(a).ok() ||
        !plain_reader.open(without).ok() ||
        !plain_reader.readAllInto(b).ok() || !(a == b))
        mismatch("file codec", "lz vs none differential");

    const double lz_secs = bestSeconds(bc.reps, [&] {
        if (!lz_reader.open(with_lz).ok() ||
            !lz_reader.readAllInto(a).ok())
            mismatch("file codec", "lz decode");
    });
    const double plain_secs = bestSeconds(bc.reps, [&] {
        if (!plain_reader.open(without).ok() ||
            !plain_reader.readAllInto(b).ok())
            mismatch("file codec", "plain decode");
    });

    const double rows = static_cast<double>(batch.numRows());
    std::printf("    \"file\": {\n"
                "      \"workload\": \"RM2\",\n"
                "      \"rows\": %zu,\n"
                "      \"bytes_codec_on\": %zu,\n"
                "      \"bytes_codec_off\": %zu,\n"
                "      \"stored_ratio\": %.3f,\n"
                "      \"codec_on\": {\"seconds\": %.6e, "
                "\"rows_per_sec\": %.4e},\n"
                "      \"codec_off\": {\"seconds\": %.6e, "
                "\"rows_per_sec\": %.4e},\n"
                "      \"decode_slowdown\": %.3f\n"
                "    }\n"
                "  },\n",
                batch.numRows(), with_lz.size(), without.size(),
                static_cast<double>(with_lz.size()) /
                    static_cast<double>(without.size()),
                lz_secs, rows / lz_secs, plain_secs, rows / plain_secs,
                lz_secs / plain_secs);
}

[[noreturn]] void
gateFail(const char* gate, double got, double bound)
{
    std::fprintf(stderr,
                 "FATAL: perf gate %s failed: got %.4f vs bound %.4f\n",
                 gate, got, bound);
    std::exit(1);
}

/**
 * Entropy page codec: canonical-Huffman kernel rates on page-shaped
 * payloads, and the file-level effect of widening the codec menu from
 * LZ-only to {plain, LZ, entropy, LZ+entropy} on RM1. The decompress
 * rate and stored-ratio rows feed
 * cal::kMeasuredHuffDecompressBytesPerSec / kMeasuredEntropyStoredRatio.
 *
 * Self-enforcing gates: the full menu must store strictly fewer bytes
 * than LZ-only (always, including --quick — the writer only picks a
 * codec when it is strictly smaller, so this catches menu-selection
 * regressions even on noisy runs). In full mode two absolute gates are
 * also enforced: RM1 stored ratio < 0.815, and Huffman decode >= 1 GB/s
 * on the best (most skewed) corpus — the kind of page the
 * strictly-smallest menu rule actually entropy-codes; near-
 * incompressible payloads fall back to LZ or plain frames and never
 * reach this decoder.
 */
void
runEntropyPages(const BenchConfig& bc, bool quick)
{
    std::printf("  \"entropy_pages\": {\n");

    // --- kernel rates on page-shaped payloads ----------------------------
    struct Corpus {
        const char* name;
        std::vector<uint8_t> raw;
    };
    const auto clustered = valuesFor(Encoding::kVarint, bc.values);
    // Dense-float page: clustered exponents, near-uniform mantissa tail.
    Rng frng(31);
    std::vector<uint8_t> dense_f32(bc.values * sizeof(float));
    for (size_t i = 0; i < bc.values; ++i) {
        const float f = static_cast<float>(frng.uniform(0.0, 8.0));
        std::memcpy(dense_f32.data() + i * sizeof(float), &f, sizeof(f));
    }
    const Corpus corpora[] = {
        {"varint_clustered_ids", enc::encodeVarint(clustered)},
        {"plain_i64_clustered_ids", enc::encodePlainI64(clustered)},
        {"dense_f32_uniform", std::move(dense_f32)},
    };

    double best_decode_gbps = 0.0;
    std::printf("    \"codec\": [\n");
    for (size_t c = 0; c < std::size(corpora); ++c) {
        const auto& raw = corpora[c].raw;
        const auto packed = enc::huffCompress(raw);
        std::vector<uint8_t> back(raw.size());
        if (!enc::huffDecompress(packed, back).ok() || back != raw)
            mismatch("huff codec", corpora[c].name);

        std::vector<uint8_t> scratch;
        const double comp_secs = bestSeconds(bc.reps, [&] {
            enc::huffCompress(raw, scratch);
        });
        const double decomp_secs = bestSeconds(bc.reps, [&] {
            if (!enc::huffDecompress(packed, back).ok())
                mismatch("huff codec", corpora[c].name);
        });
        const double gb = static_cast<double>(raw.size()) / 1e9;
        best_decode_gbps = std::max(best_decode_gbps, gb / decomp_secs);
        std::printf("      {\"corpus\": \"%s\", \"raw_bytes\": %zu, "
                    "\"compressed_bytes\": %zu, \"ratio\": %.3f,\n"
                    "       \"compress\": {\"seconds\": %.6e, "
                    "\"raw_gb_per_sec\": %.4f},\n"
                    "       \"decompress\": {\"seconds\": %.6e, "
                    "\"raw_gb_per_sec\": %.4f}}%s\n",
                    corpora[c].name, raw.size(), packed.size(),
                    static_cast<double>(raw.size()) /
                        static_cast<double>(packed.size()),
                    comp_secs, gb / comp_secs, decomp_secs,
                    gb / decomp_secs,
                    c + 1 < std::size(corpora) ? "," : "");
    }
    std::printf("    ],\n");

    // --- file-level menu widening on RM1 ---------------------------------
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = static_cast<int>(
        std::min<size_t>(bc.values, 65536));
    RawDataGenerator gen(cfg);
    const RowBatch batch = gen.generatePartition(0);
    WriterOptions off, lz_only, full;
    off.codec = PageCodec::kNone;
    lz_only.codec = PageCodec::kLz;
    full.codec = PageCodec::kLzEntropy;
    const auto without = ColumnarFileWriter(off).write(batch, 0);
    const auto with_lz = ColumnarFileWriter(lz_only).write(batch, 0);
    const auto with_full = ColumnarFileWriter(full).write(batch, 0);

    ColumnarFileReader full_reader, lz_reader;
    RowBatch a, b;
    if (!full_reader.open(with_full).ok() ||
        !full_reader.readAllInto(a).ok() ||
        !lz_reader.open(with_lz).ok() || !lz_reader.readAllInto(b).ok() ||
        !(a == b))
        mismatch("file codec", "full menu vs lz differential");

    const double full_secs = bestSeconds(bc.reps, [&] {
        if (!full_reader.open(with_full).ok() ||
            !full_reader.readAllInto(a).ok())
            mismatch("file codec", "full menu decode");
    });
    const double lz_secs = bestSeconds(bc.reps, [&] {
        if (!lz_reader.open(with_lz).ok() ||
            !lz_reader.readAllInto(b).ok())
            mismatch("file codec", "lz decode");
    });

    const double rows = static_cast<double>(batch.numRows());
    const double ratio_full = static_cast<double>(with_full.size()) /
                              static_cast<double>(without.size());
    const double ratio_lz = static_cast<double>(with_lz.size()) /
                            static_cast<double>(without.size());
    std::printf("    \"file\": {\n"
                "      \"workload\": \"RM1\",\n"
                "      \"rows\": %zu,\n"
                "      \"bytes_codec_off\": %zu,\n"
                "      \"bytes_lz_only\": %zu,\n"
                "      \"bytes_full_menu\": %zu,\n"
                "      \"stored_ratio_lz\": %.3f,\n"
                "      \"stored_ratio_full_menu\": %.3f,\n"
                "      \"lz_only\": {\"seconds\": %.6e, "
                "\"rows_per_sec\": %.4e},\n"
                "      \"full_menu\": {\"seconds\": %.6e, "
                "\"rows_per_sec\": %.4e, \"decode_slowdown_vs_lz\": "
                "%.3f}\n"
                "    },\n"
                "    \"absolute_gates_enforced\": %s,\n"
                "    \"gates\": {\"full_menu_lt_lz_bytes\": true, "
                "\"stored_ratio_bound\": 0.815, "
                "\"huff_decode_gb_per_sec_min\": 1.0}\n"
                "  },\n",
                batch.numRows(), without.size(), with_lz.size(),
                with_full.size(), ratio_lz, ratio_full, lz_secs,
                rows / lz_secs, full_secs, rows / full_secs,
                full_secs / lz_secs, quick ? "false" : "true");

    // Relative gate: always on. The menu picks the strictly-smallest
    // frame per page, so the full menu can never store more than
    // LZ-only; "equal" would mean entropy never won a single page.
    if (!(with_full.size() < with_lz.size()))
        gateFail("full_menu_bytes < lz_only_bytes",
                 static_cast<double>(with_full.size()),
                 static_cast<double>(with_lz.size()));
    if (!quick) {
        if (!(ratio_full < 0.815))
            gateFail("rm1_stored_ratio_full_menu < 0.815", ratio_full,
                     0.815);
        if (!(best_decode_gbps >= 1.0))
            gateFail("huff_decode_gb_per_sec >= 1.0", best_decode_gbps,
                     1.0);
    }
}

/**
 * End-to-end RM1 Extract+Transform (open + readAllInto + preprocessInto),
 * with the Extract fast paths pinned off (reference decoders + table
 * CRC) vs on (dispatched decoders + SSE4.2 CRC). Transform runs at the
 * best SIMD level in both configurations, so the delta isolates Extract.
 */
void
runEndToEnd(const BenchConfig& bc)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 4096;
    RawDataGenerator gen(cfg);
    const auto encoded =
        ColumnarFileWriter().write(gen.generatePartition(0), 0);
    const Preprocessor pre(cfg);
    const size_t rows = static_cast<size_t>(cfg.batch_size);

    setSimdLevel(detectedSimdLevel());
    auto runPipeline = [&](bool fast_extract, uint64_t* checksum) {
        enc::setFastDecodeEnabled(fast_extract);
        setCrc32cHardwareEnabled(fast_extract &&
                                 crc32cHardwareAvailable());
        ColumnarFileReader reader;
        RowBatch raw;
        BatchArena arena;
        MiniBatch mb;
        for (int warm = 0; warm < 2; ++warm) {  // size every buffer
            if (!reader.open(encoded).ok() ||
                !reader.readAllInto(raw).ok())
                mismatch("e2e", "decode");
            pre.preprocessInto(raw, mb, arena);
        }
        const double secs = bestSeconds(bc.reps, [&] {
            for (size_t b = 0; b < bc.e2e_batches; ++b) {
                if (!reader.open(encoded).ok() ||
                    !reader.readAllInto(raw).ok())
                    mismatch("e2e", "decode");
                pre.preprocessInto(raw, mb, arena);
            }
        });
        uint64_t crc = crc32cTable(
            mb.dense.data(), mb.dense.size() * sizeof(float));
        for (const auto& jag : mb.sparse)
            crc = crc32cTable(jag.values.data(),
                              jag.values.size() * sizeof(int64_t),
                              static_cast<uint32_t>(crc));
        *checksum = crc;
        enc::setFastDecodeEnabled(true);
        setCrc32cHardwareEnabled(crc32cHardwareAvailable());
        return secs;
    };

    uint64_t ref_crc = 0, fast_crc = 0;
    const double ref_secs = runPipeline(false, &ref_crc);
    const double fast_secs = runPipeline(true, &fast_crc);
    if (ref_crc != fast_crc)
        mismatch("e2e", "fast extract checksum");

    const double total = static_cast<double>(rows * bc.e2e_batches);
    std::printf("  \"end_to_end_rm1\": {\n"
                "    \"rows_per_batch\": %zu,\n"
                "    \"batches_per_rep\": %zu,\n"
                "    \"reference_extract\": {\"seconds\": %.6e, "
                "\"rows_per_sec\": %.4e},\n"
                "    \"fast_extract\": {\"seconds\": %.6e, "
                "\"rows_per_sec\": %.4e, \"speedup\": %.3f}\n"
                "  }\n",
                rows, bc.e2e_batches, ref_secs, total / ref_secs,
                fast_secs, total / fast_secs, ref_secs / fast_secs);
}

}  // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--quick")
            quick = true;
    }
    const BenchConfig bc = quick
                               ? BenchConfig{1 << 13, 1 << 16, 3, 2}
                               : BenchConfig{1 << 16, 1 << 24, 9, 8};

    std::printf("{\n"
                "  \"bench\": \"decode\",\n"
                "  \"quick\": %s,\n"
                "  \"detected_simd\": \"%s\",\n"
                "  \"crc32c_hardware\": %s,\n",
                quick ? "true" : "false",
                simdLevelName(detectedSimdLevel()),
                crc32cHardwareAvailable() ? "true" : "false");
    runCrc(bc);
    runDecodeKernels(bc);
    runFileDecode(bc);
    runCompressedPages(bc);
    runEntropyPages(bc, quick);
    runEndToEnd(bc);
    std::printf("}\n");
    return 0;
}
