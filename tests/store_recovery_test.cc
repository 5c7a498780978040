/**
 * @file
 * Journal-replay and recovery property tests for the segment store.
 *
 * The journal's damage model is "torn tail only": appends can tear the
 * last frame at any byte offset but never damage earlier bytes. These
 * tests drive that model exhaustively — the journal is truncated at
 * every byte offset and the store must recover the longest committed
 * prefix every time — and pin down the idempotence property: replaying
 * (or recovering) twice is bit-identical to doing it once.
 */
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <set>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "datagen/generator.h"
#include "store/journal.h"
#include "store/segment_store.h"

namespace presto {
namespace {

RmConfig
smallConfig()
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 64;
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

// --- journal-level properties ------------------------------------------------

std::vector<JournalRecord>
sampleRecords()
{
    std::vector<JournalRecord> records;
    JournalRecord cp;
    cp.kind = JournalRecordKind::kCheckpoint;
    cp.next_segment_id = 17;
    records.push_back(cp);
    for (uint64_t id = 1; id <= 3; ++id) {
        JournalRecord intent;
        intent.kind = JournalRecordKind::kSegmentWriting;
        intent.segment_id = id;
        intent.partition_id = id * 11;
        intent.file_name = "seg-" + std::to_string(id) + ".psf";
        records.push_back(intent);

        JournalRecord seal;
        seal.kind = JournalRecordKind::kSegmentSealed;
        // The decoder mirrors meta.segment_id into the record-level id.
        seal.segment_id = id;
        seal.meta.segment_id = id;
        seal.meta.partition_id = id * 11;
        seal.meta.file_name = intent.file_name;
        seal.meta.byte_size = 1000 + id;
        seal.meta.file_crc = static_cast<uint32_t>(0xabc0 + id);
        seal.meta.num_rows = 64;
        seal.meta.tail_bytes = 96;
        for (uint32_t p = 0; p < 4; ++p) {
            PageReadPlan plan;
            plan.offset = 4 + p * 100;
            plan.frame_bytes = 100;
            plan.value_count = 16;
            plan.out_offset = p * 16;
            plan.column = p % 2;
            plan.stream = 0;
            seal.meta.plans.push_back(plan);
        }
        records.push_back(seal);
    }
    JournalRecord compacted;
    compacted.kind = JournalRecordKind::kSegmentCompacted;
    compacted.segment_id = 1;
    compacted.new_segment_id = 3;
    records.push_back(compacted);
    JournalRecord retired;
    retired.kind = JournalRecordKind::kSegmentRetired;
    retired.segment_id = 1;
    records.push_back(retired);
    JournalRecord quarantined;
    quarantined.kind = JournalRecordKind::kSegmentQuarantined;
    quarantined.segment_id = 2;
    quarantined.reason = "page 3 checksum mismatch";
    records.push_back(quarantined);
    return records;
}

std::vector<uint8_t>
encodeJournal(const std::vector<JournalRecord>& records)
{
    std::vector<uint8_t> bytes = encodeJournalHeader();
    for (const JournalRecord& rec : records) {
        const auto frame = encodeJournalFrame(rec);
        bytes.insert(bytes.end(), frame.begin(), frame.end());
    }
    return bytes;
}

void
expectSameRecord(const JournalRecord& a, const JournalRecord& b)
{
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.segment_id, b.segment_id);
    EXPECT_EQ(a.partition_id, b.partition_id);
    EXPECT_EQ(a.file_name, b.file_name);
    EXPECT_EQ(a.new_segment_id, b.new_segment_id);
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_EQ(a.next_segment_id, b.next_segment_id);
    EXPECT_EQ(a.meta.segment_id, b.meta.segment_id);
    EXPECT_EQ(a.meta.partition_id, b.meta.partition_id);
    EXPECT_EQ(a.meta.file_name, b.meta.file_name);
    EXPECT_EQ(a.meta.byte_size, b.meta.byte_size);
    EXPECT_EQ(a.meta.file_crc, b.meta.file_crc);
    EXPECT_EQ(a.meta.num_rows, b.meta.num_rows);
    EXPECT_EQ(a.meta.tail_bytes, b.meta.tail_bytes);
    ASSERT_EQ(a.meta.plans.size(), b.meta.plans.size());
    for (size_t i = 0; i < a.meta.plans.size(); ++i) {
        EXPECT_EQ(a.meta.plans[i].offset, b.meta.plans[i].offset);
        EXPECT_EQ(a.meta.plans[i].frame_bytes, b.meta.plans[i].frame_bytes);
        EXPECT_EQ(a.meta.plans[i].value_count, b.meta.plans[i].value_count);
        EXPECT_EQ(a.meta.plans[i].out_offset, b.meta.plans[i].out_offset);
        EXPECT_EQ(a.meta.plans[i].column, b.meta.plans[i].column);
        EXPECT_EQ(a.meta.plans[i].stream, b.meta.plans[i].stream);
    }
}

TEST(JournalReplayTest, RoundTripsEveryRecordKind)
{
    const auto records = sampleRecords();
    const auto bytes = encodeJournal(records);
    JournalReplay replay;
    ASSERT_TRUE(replayJournal(bytes, replay).ok());
    EXPECT_EQ(replay.valid_bytes, bytes.size());
    EXPECT_EQ(replay.torn_bytes, 0u);
    EXPECT_TRUE(replay.torn_reason.empty());
    ASSERT_EQ(replay.records.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameRecord(replay.records[i], records[i]);
    }
}

TEST(JournalReplayTest, TruncationAtEveryOffsetYieldsTheLongestPrefix)
{
    const auto records = sampleRecords();
    const auto bytes = encodeJournal(records);

    // Frame boundaries: prefix lengths at which the journal is intact.
    std::vector<size_t> boundaries{encodeJournalHeader().size()};
    for (const JournalRecord& rec : records)
        boundaries.push_back(boundaries.back() +
                             encodeJournalFrame(rec).size());

    for (size_t cut = 0; cut <= bytes.size(); ++cut) {
        SCOPED_TRACE("cut at " + std::to_string(cut));
        const std::span<const uint8_t> prefix(bytes.data(), cut);
        JournalReplay replay;
        const Status st = replayJournal(prefix, replay);
        if (cut < 4) {
            // Below the header the file is not a journal at all; the
            // header is written atomically, so this is hard corruption,
            // not a torn tail.
            EXPECT_EQ(st.code(), StatusCode::kCorruption);
            continue;
        }
        ASSERT_TRUE(st.ok()) << st.message();

        // The replayed prefix is the longest run of whole frames.
        size_t expect_records = 0;
        size_t expect_valid = boundaries[0];
        while (expect_records < records.size() &&
               boundaries[expect_records + 1] <= cut) {
            ++expect_records;
            expect_valid = boundaries[expect_records];
        }
        EXPECT_EQ(replay.records.size(), expect_records);
        EXPECT_EQ(replay.valid_bytes, expect_valid);
        EXPECT_EQ(replay.torn_bytes, cut - expect_valid);
        EXPECT_EQ(replay.torn_reason.empty(), replay.torn_bytes == 0);

        // Idempotence: replaying the valid prefix again is clean and
        // decodes identically.
        JournalReplay again;
        ASSERT_TRUE(
            replayJournal({bytes.data(), replay.valid_bytes}, again).ok());
        EXPECT_EQ(again.torn_bytes, 0u);
        ASSERT_EQ(again.records.size(), replay.records.size());
        for (size_t i = 0; i < again.records.size(); ++i)
            expectSameRecord(again.records[i], replay.records[i]);
    }
}

TEST(JournalReplayTest, BitFlipInAFrameStopsTheReplayThere)
{
    const auto records = sampleRecords();
    const auto bytes = encodeJournal(records);
    auto damaged = bytes;
    // Flip a byte inside the third frame's payload.
    size_t pos = encodeJournalHeader().size();
    pos += encodeJournalFrame(records[0]).size();
    pos += encodeJournalFrame(records[1]).size();
    damaged[pos + 10] ^= 0x40;

    JournalReplay replay;
    ASSERT_TRUE(replayJournal(damaged, replay).ok());
    EXPECT_EQ(replay.records.size(), 2u);
    EXPECT_EQ(replay.valid_bytes, pos);
    EXPECT_EQ(replay.torn_bytes, damaged.size() - pos);
    EXPECT_FALSE(replay.torn_reason.empty());
}

// --- store-level recovery ----------------------------------------------------

/** Canonical store: three appended partitions, clean shutdown. */
struct Canonical {
    std::string dir;
    std::vector<uint8_t> journal;
    std::vector<std::string> segment_files;
};

Canonical
buildCanonicalStore(const std::string& name)
{
    Canonical c;
    c.dir = freshDir(name);
    RawDataGenerator gen(smallConfig());
    SegmentStoreOptions opt;
    opt.directory = c.dir;
    auto store = SegmentStore::open(opt);
    EXPECT_TRUE(store.ok());
    for (uint64_t pid = 0; pid < 3; ++pid) {
        auto id = (*store)->appendPartition(gen.generatePartition(pid), pid);
        EXPECT_TRUE(id.ok());
    }
    for (const SegmentInfo& info : (*store)->listSegments())
        c.segment_files.push_back(info.meta.file_name);
    auto bytes = loadFromFile((*store)->journalPath());
    EXPECT_TRUE(bytes.ok());
    c.journal = *bytes;
    return c;
}

/** Scratch store dir: truncated journal + hard links to the segments. */
std::string
scratchStore(const Canonical& c, size_t cut, const std::string& name)
{
    const std::string dir = freshDir(name);
    const std::vector<uint8_t> prefix(c.journal.begin(),
                                      c.journal.begin() + cut);
    EXPECT_TRUE(saveToFile(dir + "/JOURNAL", prefix).ok());
    for (const std::string& file : c.segment_files)
        EXPECT_EQ(::link((c.dir + "/" + file).c_str(),
                         (dir + "/" + file).c_str()),
                  0);
    return dir;
}

TEST(StoreRecoveryTest, JournalTruncatedAtEveryOffsetRecoversThePrefix)
{
    const Canonical c = buildCanonicalStore("store_trunc_canonical");
    RawDataGenerator gen(smallConfig());

    for (size_t cut = 0; cut <= c.journal.size(); ++cut) {
        SCOPED_TRACE("journal truncated at " + std::to_string(cut));
        const std::string dir = scratchStore(c, cut, "store_trunc_scratch");
        SegmentStoreOptions opt;
        opt.directory = dir;
        RecoveryReport report;
        auto store = SegmentStore::open(opt, &report);
        if (cut < 4) {
            // A sub-header journal is outside the torn-tail damage
            // model (the header is published atomically): recovery
            // refuses rather than guessing.
            EXPECT_FALSE(store.ok());
            EXPECT_EQ(store.status().code(), StatusCode::kCorruption);
            continue;
        }
        ASSERT_TRUE(store.ok()) << store.status().message();

        // Expected state: fold the journal prefix ourselves.
        JournalReplay replay;
        ASSERT_TRUE(replayJournal({c.journal.data(), cut}, replay).ok());
        std::set<uint64_t> sealed;
        for (const JournalRecord& rec : replay.records)
            if (rec.kind == JournalRecordKind::kSegmentSealed)
                sealed.insert(rec.meta.segment_id);

        EXPECT_EQ(report.records_replayed, replay.records.size());
        EXPECT_EQ(report.torn_tail_bytes, replay.torn_bytes);
        EXPECT_EQ(report.live_segments, sealed.size());
        EXPECT_TRUE(report.quarantined.empty());

        const auto listed = (*store)->listSegments();
        ASSERT_EQ(listed.size(), sealed.size());
        for (const SegmentInfo& info : listed) {
            EXPECT_TRUE(sealed.count(info.meta.segment_id) > 0);
            EXPECT_EQ(info.state, SegmentState::kSealed);
        }
        // The torn tail was physically dropped from the journal.
        EXPECT_EQ(*fileSizeOf((*store)->journalPath()), replay.valid_bytes);

        // Spot-decode the recovered state (every 17th offset and the
        // interesting edges, to keep the sweep fast).
        if (cut % 17 == 0 || cut < 8 || cut + 8 > c.journal.size()) {
            for (const SegmentInfo& info : listed) {
                RowBatch got;
                ASSERT_TRUE(readDecoded(**store, info.meta.segment_id, got)
                                .ok());
                EXPECT_TRUE(got ==
                            gen.generatePartition(info.meta.partition_id));
            }
        }
    }
}

TEST(StoreRecoveryTest, RecoveringTwiceIsBitIdentical)
{
    const Canonical c = buildCanonicalStore("store_idem_canonical");
    // A torn mid-frame cut: recovery has real work (truncate + orphan
    // sweep) to do, and doing it twice must change nothing.
    const size_t cut = c.journal.size() - 7;
    const std::string dir = scratchStore(c, cut, "store_idem_scratch");
    SegmentStoreOptions opt;
    opt.directory = dir;

    RecoveryReport first_report;
    auto first = SegmentStore::open(opt, &first_report);
    ASSERT_TRUE(first.ok());
    EXPECT_GT(first_report.torn_tail_bytes, 0u);
    const auto state_one = (*first)->listSegments();
    const auto journal_one = loadFromFile((*first)->journalPath());
    ASSERT_TRUE(journal_one.ok());
    first->reset();

    RecoveryReport second_report;
    auto second = SegmentStore::open(opt, &second_report);
    ASSERT_TRUE(second.ok());
    // The second recovery sees an already-clean store: no torn tail, no
    // orphans left to remove, the same live set.
    EXPECT_EQ(second_report.torn_tail_bytes, 0u);
    EXPECT_TRUE(second_report.orphans_removed.empty());
    EXPECT_EQ(second_report.live_segments, first_report.live_segments);
    const auto state_two = (*second)->listSegments();
    ASSERT_EQ(state_two.size(), state_one.size());
    for (size_t i = 0; i < state_two.size(); ++i) {
        EXPECT_EQ(state_two[i].meta.segment_id, state_one[i].meta.segment_id);
        EXPECT_EQ(state_two[i].meta.file_crc, state_one[i].meta.file_crc);
        EXPECT_EQ(state_two[i].state, state_one[i].state);
    }
    const auto journal_two = loadFromFile((*second)->journalPath());
    ASSERT_TRUE(journal_two.ok());
    EXPECT_TRUE(*journal_two == *journal_one);
}

TEST(StoreRecoveryTest, DamagedSegmentFileIsQuarantinedNeverServed)
{
    const Canonical c = buildCanonicalStore("store_quarantine");
    // Bit rot in the middle of the second segment's file.
    const std::string victim = c.dir + "/" + c.segment_files[1];
    auto bytes = loadFromFile(victim);
    ASSERT_TRUE(bytes.ok());
    (*bytes)[bytes->size() / 2] ^= 0x08;
    ASSERT_TRUE(saveToFile(victim, *bytes).ok());

    SegmentStoreOptions opt;
    opt.directory = c.dir;
    RecoveryReport report;
    auto store = SegmentStore::open(opt, &report);
    ASSERT_TRUE(store.ok());
    ASSERT_EQ(report.quarantined.size(), 1u);
    EXPECT_EQ(report.live_segments, 2u);

    bool decision_found = false;
    for (const std::string& line : report.decisions())
        decision_found |= line.find("quarantined segment") !=
                          std::string::npos;
    EXPECT_TRUE(decision_found);

    RawDataGenerator gen(smallConfig());
    const uint64_t bad_id = report.quarantined[0];
    RowBatch out;
    EXPECT_EQ(readDecoded(**store, bad_id, out).code(),
              StatusCode::kUnavailable);
    for (const SegmentInfo& info : (*store)->listSegments()) {
        if (info.meta.segment_id == bad_id) {
            EXPECT_EQ(info.state, SegmentState::kQuarantined);
            continue;
        }
        RowBatch got;
        ASSERT_TRUE(readDecoded(**store, info.meta.segment_id, got).ok());
        EXPECT_TRUE(got == gen.generatePartition(info.meta.partition_id));
    }
}

TEST(StoreRecoveryTest, StrayFilesAreSweptOnRecovery)
{
    const Canonical c = buildCanonicalStore("store_sweep");
    const std::vector<uint8_t> junk{1, 2, 3};
    ASSERT_TRUE(saveToFile(c.dir + "/seg-99999999.psf", junk).ok());
    ASSERT_TRUE(saveToFile(c.dir + "/seg-00000001.psf.tmp", junk).ok());
    ASSERT_TRUE(saveToFile(c.dir + "/notes.txt", junk).ok());

    SegmentStoreOptions opt;
    opt.directory = c.dir;
    RecoveryReport report;
    auto store = SegmentStore::open(opt, &report);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(report.orphans_removed.size(), 2u);
    EXPECT_FALSE(fileSizeOf(c.dir + "/seg-99999999.psf").ok());
    EXPECT_FALSE(fileSizeOf(c.dir + "/seg-00000001.psf.tmp").ok());
    EXPECT_TRUE(fileSizeOf(c.dir + "/notes.txt").ok());  // not ours
    EXPECT_EQ(report.live_segments, 3u);
    EXPECT_TRUE(report.quarantined.empty());
}

// Files the store did not name are not its to delete: recovery sweeps
// only JOURNAL.tmp and seg-<n>.psf[.tmp].
TEST(StoreRecoveryTest, ForeignPsfSurvivesOpenWithoutJournal)
{
    const std::string dir = freshDir("store_foreign_fresh");
    const std::vector<uint8_t> foreign{1, 2, 3};
    ASSERT_TRUE(saveToFile(dir + "/part-00000000.psf", foreign).ok());

    SegmentStoreOptions opt;
    opt.directory = dir;
    RecoveryReport report;
    auto store = SegmentStore::open(opt, &report);
    ASSERT_TRUE(store.ok());
    EXPECT_TRUE(report.orphans_removed.empty());
    auto kept = loadFromFile(dir + "/part-00000000.psf");
    ASSERT_TRUE(kept.ok());
    EXPECT_EQ(*kept, foreign);
}

TEST(StoreRecoveryTest, ExistsOnlyOnceAJournalIsPublished)
{
    // exists() is how a reader tells a store from a directory open()
    // would turn into one; neither a foreign file nor a torn first
    // journal makes a store.
    const std::string dir = freshDir("store_exists");
    EXPECT_FALSE(SegmentStore::exists(dir));
    const std::vector<uint8_t> foreign{1, 2, 3};
    ASSERT_TRUE(saveToFile(dir + "/part-00000000.psf", foreign).ok());
    ASSERT_TRUE(saveToFile(dir + "/JOURNAL.tmp", foreign).ok());
    EXPECT_FALSE(SegmentStore::exists(dir));
    SegmentStoreOptions opt;
    opt.directory = dir;
    ASSERT_TRUE(SegmentStore::open(opt).ok());
    EXPECT_TRUE(SegmentStore::exists(dir));
    EXPECT_FALSE(SegmentStore::exists(dir + "/missing"));
}

TEST(StoreRecoveryTest, ForeignPsfSurvivesRecoveryBesideALiveStore)
{
    const Canonical c = buildCanonicalStore("store_foreign_live");
    const std::vector<uint8_t> foreign{1, 2, 3};
    ASSERT_TRUE(saveToFile(c.dir + "/part-00000000.psf", foreign).ok());
    ASSERT_TRUE(saveToFile(c.dir + "/part-00000000.psf.tmp", foreign).ok());

    SegmentStoreOptions opt;
    opt.directory = c.dir;
    RecoveryReport report;
    auto store = SegmentStore::open(opt, &report);
    ASSERT_TRUE(store.ok());
    EXPECT_TRUE(report.orphans_removed.empty());
    EXPECT_EQ(report.live_segments, 3u);
    for (const char* name : {"/part-00000000.psf", "/part-00000000.psf.tmp"}) {
        auto kept = loadFromFile(c.dir + name);
        ASSERT_TRUE(kept.ok()) << name;
        EXPECT_EQ(*kept, foreign) << name;
    }
}

}  // namespace
}  // namespace presto
