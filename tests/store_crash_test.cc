/**
 * @file
 * Crash-consistency sweep for the persistent segment store.
 *
 * The store counts its durable operations (journal appends and
 * crash-atomic file publishes) from zero. One sweep iteration injects a
 * crash at exactly operation k — the write is torn at a seed-derived
 * byte length and every later operation aborts — then re-opens the
 * directory without faults and checks the recovery guarantee:
 *
 *   - every operation that reported success before the crash is
 *     exactly preserved (committed appends decode bit-identical,
 *     acknowledged retirements stay retired);
 *   - no corrupt batch is ever served — every live segment decodes to
 *     precisely the generator's partition;
 *   - torn temp files and unsealed segment files are removed;
 *   - recovering again changes nothing (idempotence).
 *
 * Sweeping k over the workload's full operation count visits every
 * crash window the workload has, including mid-append, mid-publish,
 * mid-compaction, mid-retire, and mid-checkpoint.
 */
#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/fault_injector.h"
#include "datagen/generator.h"
#include "service/dataset_catalog.h"
#include "store/segment_store.h"

namespace presto {
namespace {

RmConfig
smallConfig()
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 128;
    return cfg;
}

std::string
freshDir(const std::string& name)
{
    const std::string dir = ::testing::TempDir() + name;
    ::system(("rm -rf " + dir).c_str());
    EXPECT_EQ(::mkdir(dir.c_str(), 0755), 0) << dir;
    return dir;
}

/** Whole-file CRC-checked read of a segment, decoded into @p out. */
Status
readDecoded(SegmentStore& store, uint64_t segment_id, RowBatch& out)
{
    auto bytes = store.readSegmentRaw(segment_id);
    if (!bytes.ok())
        return bytes.status();
    ColumnarFileReader reader;
    PRESTO_RETURN_IF_ERROR(reader.open(*bytes));
    return reader.readAllInto(out);
}

std::vector<std::string>
listDir(const std::string& dir)
{
    std::vector<std::string> names;
    DIR* d = ::opendir(dir.c_str());
    if (d == nullptr)
        return names;
    while (struct dirent* e = ::readdir(d)) {
        const std::string name = e->d_name;
        if (name != "." && name != "..")
            names.push_back(name);
    }
    ::closedir(d);
    return names;
}

/** What the workload knows it accomplished before the injected crash. */
struct WorkloadOutcome {
    std::set<uint64_t> committed;  ///< partitions whose append returned ok
    std::set<uint64_t> retired;    ///< partitions whose retire returned ok
    bool crashed = false;
    uint64_t durable_ops = 0;
};

/** ok = keep going; kAborted = the injected crash fired; else = bug. */
bool
stepOk(const Status& st, WorkloadOutcome& out)
{
    if (st.ok())
        return true;
    EXPECT_EQ(st.code(), StatusCode::kAborted) << st.message();
    out.crashed = true;
    return false;
}

/**
 * A workload touching every durable-op kind: four appends (one
 * deliberately fat so compaction has work), one compaction, one
 * retirement, one journal checkpoint.
 */
WorkloadOutcome
runWorkload(const std::string& dir, const FaultInjector* faults)
{
    WorkloadOutcome out;
    RawDataGenerator gen(smallConfig());

    SegmentStoreOptions opt;
    opt.directory = dir;
    opt.faults = faults;
    auto store = SegmentStore::open(opt);
    if (!store.ok()) {
        EXPECT_EQ(store.status().code(), StatusCode::kAborted)
            << store.status().message();
        out.crashed = true;
        return out;
    }

    WriterOptions fat;
    fat.force_plain = true;
    fat.codec = PageCodec::kNone;
    const auto fat_psf =
        ColumnarFileWriter(fat).write(gen.generatePartition(0), 0);
    for (uint64_t pid = 0; pid < 4; ++pid) {
        auto id = pid == 0
                      ? (*store)->appendEncoded(fat_psf, 0)
                      : (*store)->appendPartition(gen.generatePartition(pid),
                                                  pid);
        if (!stepOk(id.status(), out)) {
            out.durable_ops = (*store)->durableOps();
            return out;
        }
        out.committed.insert(pid);
    }

    auto compacted = (*store)->compactOnce();
    if (!stepOk(compacted.status(), out)) {
        out.durable_ops = (*store)->durableOps();
        return out;
    }
    EXPECT_NE(*compacted, 0u);  // the fat segment shrinks under LZ

    auto victim = (*store)->segmentForPartition(2);
    EXPECT_TRUE(victim.ok());
    if (victim.ok() &&
        stepOk((*store)->retireSegment(victim->meta.segment_id), out)) {
        out.retired.insert(2);
    } else if (out.crashed) {
        out.durable_ops = (*store)->durableOps();
        return out;
    }

    (void)stepOk((*store)->checkpointJournal(), out);
    out.durable_ops = (*store)->durableOps();
    return out;
}

/** Recovery-side check of the guarantee for one post-crash directory. */
void
verifyRecovered(const std::string& dir, const WorkloadOutcome& out)
{
    RawDataGenerator gen(smallConfig());
    SegmentStoreOptions opt;
    opt.directory = dir;
    RecoveryReport report;
    auto store = SegmentStore::open(opt, &report);
    ASSERT_TRUE(store.ok()) << store.status().message();

    // Crashes tear only the last durable op; every sealed segment's
    // file went durable earlier, so nothing can be quarantined.
    EXPECT_TRUE(report.quarantined.empty());

    // Committed prefix exactly restored.
    for (uint64_t pid : out.committed) {
        if (out.retired.count(pid) > 0)
            continue;
        auto info = (*store)->segmentForPartition(pid);
        ASSERT_TRUE(info.ok()) << "committed partition " << pid
                               << " lost: " << info.status().message();
        RowBatch got;
        ASSERT_TRUE(readDecoded(**store, info->meta.segment_id, got).ok());
        EXPECT_TRUE(got == gen.generatePartition(pid)) << pid;
    }
    for (uint64_t pid : out.retired) {
        EXPECT_EQ((*store)->segmentForPartition(pid).status().code(),
                  StatusCode::kNotFound)
            << "acknowledged retirement of partition " << pid << " lost";
    }

    // Zero corrupt batches: whatever else survived decodes exactly.
    std::set<std::string> referenced{"JOURNAL"};
    for (const SegmentInfo& info : (*store)->listSegments()) {
        if (info.state != SegmentState::kSealed &&
            info.state != SegmentState::kCompacted)
            continue;
        referenced.insert(info.meta.file_name);
        RowBatch got;
        ASSERT_TRUE(readDecoded(**store, info.meta.segment_id, got).ok());
        EXPECT_TRUE(got == gen.generatePartition(info.meta.partition_id));
    }

    // Torn temps and unsealed files are gone.
    for (const std::string& name : listDir(dir)) {
        EXPECT_TRUE(referenced.count(name) > 0)
            << "unswept leftover " << name;
    }

    // Recovering again is a no-op.
    const auto first = (*store)->listSegments();
    const auto journal_first = loadFromFile((*store)->journalPath());
    ASSERT_TRUE(journal_first.ok());
    store->reset();
    auto again = SegmentStore::open(opt);
    ASSERT_TRUE(again.ok());
    const auto second = (*again)->listSegments();
    ASSERT_EQ(second.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(second[i].meta.segment_id, first[i].meta.segment_id);
        EXPECT_EQ(second[i].state, first[i].state);
        EXPECT_EQ(second[i].meta.file_crc, first[i].meta.file_crc);
    }
    const auto journal_second = loadFromFile((*again)->journalPath());
    ASSERT_TRUE(journal_second.ok());
    EXPECT_TRUE(*journal_second == *journal_first);
}

// --- Catalog retention: crash sweep across the retire path -----------

/** Per-epoch shard state: all partitions present, all gone, or mixed. */
enum class EpochDisk { kFullyLive, kFullyRetired, kPartial };

EpochDisk
epochOnDisk(SegmentStore& shard_a, SegmentStore& shard_b,
            uint64_t epoch, size_t partitions)
{
    size_t present = 0;
    for (size_t i = 0; i < partitions; ++i) {
        SegmentStore& shard = i % 2 == 0 ? shard_a : shard_b;
        if (shard.segmentForPartition(epochPartitionId(epoch, i)).ok())
            ++present;
    }
    if (present == partitions)
        return EpochDisk::kFullyLive;
    return present == 0 ? EpochDisk::kFullyRetired : EpochDisk::kPartial;
}

/**
 * Crash sweep across DatasetCatalog::applyRetention: publish four
 * epochs over two shards (retain two), then crash at every durable
 * operation the retention pass performs. Recovery via
 * registerDataset() must leave each epoch fully live or fully retired
 * — a partially retired epoch below the head is finished, never
 * served — and a fault-free retention pass afterwards converges to
 * the policy's steady state.
 */
TEST(StoreCrashTest, RetentionSweepLeavesEpochsAtomic)
{
    const RmConfig config = smallConfig();
    DatasetSpec spec;
    spec.name = "clicks";
    spec.config = config;
    spec.generator.seed = 0xfeed;
    spec.partitions_per_epoch = 4;
    spec.retain_epochs = 2;

    // Fault-free baseline: fixes the sweep window [publish_ops,
    // total_ops) and the per-epoch encoded snapshots.
    uint64_t publish_ops = 0;
    uint64_t total_ops = 0;
    std::vector<std::vector<std::vector<uint8_t>>> epochs(5);
    {
        const std::string dir_a = freshDir("ret_crash_base_a");
        const std::string dir_b = freshDir("ret_crash_base_b");
        SegmentStoreOptions opt_a;
        opt_a.directory = dir_a;
        SegmentStoreOptions opt_b;
        opt_b.directory = dir_b;
        auto shard_a = SegmentStore::open(opt_a);
        auto shard_b = SegmentStore::open(opt_b);
        ASSERT_TRUE(shard_a.ok() && shard_b.ok());
        DatasetCatalog catalog;
        ASSERT_TRUE(catalog
                        .registerDataset(spec, {shard_a->get(),
                                                shard_b->get()})
                        .ok());
        for (int i = 0; i < 4; ++i)
            ASSERT_TRUE(catalog.publishEpoch("clicks").ok());
        for (uint64_t epoch = 1; epoch <= 4; ++epoch) {
            auto reader = catalog.pin("clicks", epoch);
            ASSERT_TRUE(reader.ok());
            for (size_t i = 0; i < 4; ++i) {
                auto bytes = reader->fetchEncoded(i);
                ASSERT_TRUE(bytes.ok());
                epochs[epoch].push_back(std::move(bytes.value()));
            }
        }
        // Each store checks the crash index against its own durable-op
        // counter, so the sweep window is per-shard: crash index k
        // lands in the retention phase once every shard has finished
        // its publish ops, and some shard still has retention ops left.
        // The shards' workloads are symmetric (two partitions per epoch
        // each), so the windows coincide.
        publish_ops = std::max((*shard_a)->durableOps(),
                               (*shard_b)->durableOps());
        ASSERT_TRUE(catalog.applyRetention("clicks").ok());
        total_ops = std::max((*shard_a)->durableOps(),
                             (*shard_b)->durableOps());
    }
    ASSERT_GT(total_ops, publish_ops);  // retirement is journaled

    for (uint64_t k = publish_ops; k < total_ops; ++k) {
        SCOPED_TRACE("crash at durable op " + std::to_string(k));
        const std::string dir_a =
            freshDir("ret_crash_" + std::to_string(k) + "_a");
        const std::string dir_b =
            freshDir("ret_crash_" + std::to_string(k) + "_b");
        FaultSpec fault_spec;
        fault_spec.crash_at_durable_op = static_cast<int64_t>(k);
        FaultInjector faults(fault_spec);
        {
            // One injector shared by both shards: k counts durable
            // ops across the whole catalog, like one machine dying.
            SegmentStoreOptions opt_a;
            opt_a.directory = dir_a;
            SegmentStoreOptions opt_b;
            opt_b.directory = dir_b;
            opt_a.faults = &faults;
            opt_b.faults = &faults;
            auto shard_a = SegmentStore::open(opt_a);
            auto shard_b = SegmentStore::open(opt_b);
            ASSERT_TRUE(shard_a.ok() && shard_b.ok());
            DatasetCatalog catalog;
            ASSERT_TRUE(catalog
                            .registerDataset(spec, {shard_a->get(),
                                                    shard_b->get()})
                            .ok());
            for (int i = 0; i < 4; ++i)
                ASSERT_TRUE(catalog.publishEpoch("clicks").ok());
            auto report = catalog.applyRetention("clicks");
            ASSERT_FALSE(report.ok());
            EXPECT_EQ(report.status().code(), StatusCode::kAborted);
        }

        // Recover fault-free. registerDataset() must complete any
        // half-retired epoch; epochs then split cleanly.
        SegmentStoreOptions opt_a;
        opt_a.directory = dir_a;
        SegmentStoreOptions opt_b;
        opt_b.directory = dir_b;
        auto shard_a = SegmentStore::open(opt_a);
        auto shard_b = SegmentStore::open(opt_b);
        ASSERT_TRUE(shard_a.ok() && shard_b.ok());
        DatasetCatalog catalog;
        ASSERT_TRUE(catalog
                        .registerDataset(spec, {shard_a->get(),
                                                shard_b->get()})
                        .ok());
        ASSERT_EQ(catalog.headEpoch("clicks").value(), 4u);
        for (uint64_t epoch = 1; epoch <= 4; ++epoch) {
            const EpochDisk disk = epochOnDisk(**shard_a, **shard_b,
                                               epoch, 4);
            ASSERT_NE(disk, EpochDisk::kPartial)
                << "epoch " << epoch << " recovered half-retired";
            const bool retired =
                catalog.epochRetired("clicks", epoch).value();
            EXPECT_EQ(retired, disk == EpochDisk::kFullyRetired);
            auto reader = catalog.pin("clicks", epoch);
            ASSERT_EQ(reader.ok(), !retired);
            if (retired)
                continue;
            // A surviving epoch replays bit-identically.
            for (size_t i = 0; i < 4; ++i) {
                auto bytes = reader->fetchEncoded(i);
                ASSERT_TRUE(bytes.ok());
                EXPECT_TRUE(*bytes == epochs[epoch][i])
                    << "epoch " << epoch << " partition " << i;
            }
        }
        // Retained epochs are never touched by the crash window.
        EXPECT_FALSE(catalog.epochRetired("clicks", 3).value());
        EXPECT_FALSE(catalog.epochRetired("clicks", 4).value());

        // A fault-free pass converges to the policy's steady state.
        ASSERT_TRUE(catalog.applyRetention("clicks").ok());
        EXPECT_TRUE(catalog.epochRetired("clicks", 1).value());
        EXPECT_TRUE(catalog.epochRetired("clicks", 2).value());
        EXPECT_EQ(catalog.liveEpochs("clicks").value(), 2u);
    }
}

TEST(StoreCrashTest, SweepEveryDurableOpCrashWindow)
{
    // Fault-free baseline: the workload completes and fixes the sweep
    // bound (its durable-op count).
    const std::string base = freshDir("store_crash_base");
    const WorkloadOutcome baseline = runWorkload(base, nullptr);
    ASSERT_FALSE(baseline.crashed);
    ASSERT_EQ(baseline.committed.size(), 4u);
    ASSERT_EQ(baseline.retired.size(), 1u);
    ASSERT_GT(baseline.durable_ops, 10u);

    for (uint64_t k = 0; k < baseline.durable_ops; ++k) {
        SCOPED_TRACE("crash at durable op " + std::to_string(k));
        const std::string dir =
            freshDir("store_crash_" + std::to_string(k));
        FaultSpec spec;
        spec.crash_at_durable_op = static_cast<int64_t>(k);
        FaultInjector faults(spec);
        const WorkloadOutcome out = runWorkload(dir, &faults);
        EXPECT_TRUE(out.crashed);
        verifyRecovered(dir, out);
    }
}

}  // namespace
}  // namespace presto
