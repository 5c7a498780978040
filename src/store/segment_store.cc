#include "store/segment_store.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <set>
#include <string_view>

#include <dirent.h>
#include <unistd.h>

#include "common/crc32.h"
#include "common/durable_file.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace presto {

namespace {

constexpr const char* kJournalName = "JOURNAL";

std::string
segmentFileName(uint64_t segment_id)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "seg-%08" PRIu64 ".psf", segment_id);
    return buf;
}

/**
 * True for the names this store writes besides JOURNAL itself:
 * JOURNAL.tmp, seg-<n>.psf and seg-<n>.psf.tmp. Recovery deletes only
 * these, so files it never wrote survive in a shared directory.
 */
bool
isStoreFileName(std::string_view name)
{
    const bool is_tmp = name.ends_with(".tmp");
    if (is_tmp)
        name.remove_suffix(4);
    if (name == kJournalName)
        return is_tmp;
    if (!name.starts_with("seg-") || !name.ends_with(".psf"))
        return false;
    const std::string_view id = name.substr(4, name.size() - 8);
    return !id.empty() &&
           id.find_first_not_of("0123456789") == std::string_view::npos;
}

/** Plain names of regular files in @p dir (no error is fatal here). */
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
    std::sort(names.begin(), names.end());
    return names;
}

}  // namespace

const char*
segmentStateName(SegmentState state)
{
    switch (state) {
      case SegmentState::kSealed:      return "sealed";
      case SegmentState::kCompacted:   return "compacted";
      case SegmentState::kRetired:     return "retired";
      case SegmentState::kQuarantined: return "quarantined";
    }
    return "unknown";
}

std::vector<std::string>
RecoveryReport::decisions() const
{
    std::vector<std::string> out;
    out.push_back("replayed " + std::to_string(records_replayed) +
                  " journal record(s)");
    if (torn_tail_bytes > 0) {
        out.push_back("dropped torn journal tail: " +
                      std::to_string(torn_tail_bytes) + " byte(s) (" +
                      torn_reason + ")");
    }
    for (const auto& name : orphans_removed)
        out.push_back("removed orphan " + name);
    for (uint64_t id : quarantined)
        out.push_back("quarantined segment " + std::to_string(id));
    out.push_back(std::to_string(live_segments) + " live segment(s)");
    return out;
}

SegmentStore::SegmentStore(SegmentStoreOptions options)
    : options_(std::move(options)), io_(options_.faults)
{
}

std::string
SegmentStore::journalPath() const
{
    return options_.directory + "/" + kJournalName;
}

bool
SegmentStore::exists(const std::string& directory)
{
    return fileSizeOf(directory + "/" + kJournalName).ok();
}

std::string
SegmentStore::segmentPath(const SegmentMeta& meta) const
{
    return options_.directory + "/" + meta.file_name;
}

uint64_t
SegmentStore::durableOps() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return io_.durableOps();
}

StatusOr<std::unique_ptr<SegmentStore>>
SegmentStore::open(SegmentStoreOptions options, RecoveryReport* report)
{
    PRESTO_CHECK(!options.directory.empty(), "store needs a directory");
    std::unique_ptr<SegmentStore> store(new SegmentStore(std::move(options)));
    RecoveryReport local;
    PRESTO_RETURN_IF_ERROR(store->recover(local));
    store->recovery_ = local;
    if (report != nullptr)
        *report = std::move(local);
    return store;
}

Status
SegmentStore::recover(RecoveryReport& report)
{
    // Recovery only reads the journal (plus one idempotent truncate of
    // a torn tail) and deletes files the intact prefix proves dead, so
    // running it twice — or crashing partway and running it again —
    // reaches the same state.
    const std::string jpath = journalPath();
    auto jsize = fileSizeOf(jpath);
    if (!jsize.ok()) {
        // No journal means no store: no file of the store's naming can
        // be trusted (e.g. a torn JOURNAL.tmp from a crash during the
        // very first initialization), so sweep those before starting
        // fresh. This publish is the one durable op an open may issue.
        for (const std::string& name : listDir(options_.directory)) {
            if (!isStoreFileName(name))
                continue;
            if (::unlink((options_.directory + "/" + name).c_str()) == 0)
                report.orphans_removed.push_back(name);
        }
        std::lock_guard<std::mutex> lock(mu_);
        const auto header = encodeJournalHeader();
        PRESTO_RETURN_IF_ERROR(io_.publishDurable(jpath, header));
        journal_bytes_ = header.size();
        next_segment_id_ = 1;
        return Status::okStatus();
    }

    auto bytes = loadFromFile(jpath);
    if (!bytes.ok())
        return bytes.status();
    JournalReplay replay;
    PRESTO_RETURN_IF_ERROR(replayJournal(*bytes, replay));
    report.records_replayed = replay.records.size();
    report.torn_tail_bytes = replay.torn_bytes;
    report.torn_reason = replay.torn_reason;
    if (replay.torn_bytes > 0) {
        // Future appends must land right after the intact prefix, so
        // the torn tail is cut off now. Truncating to the same prefix
        // again is a no-op — idempotence holds.
        if (::truncate(jpath.c_str(), (off_t)replay.valid_bytes) != 0)
            return Status::unavailable("cannot truncate torn journal tail");
        PRESTO_RETURN_IF_ERROR(fsyncDirOf(jpath));
    }

    std::lock_guard<std::mutex> lock(mu_);
    journal_bytes_ = replay.valid_bytes;

    // Fold the intact records into per-segment state.
    struct Intent {
        uint64_t partition_id;
        std::string file_name;
    };
    std::map<uint64_t, Intent> intents;
    for (const JournalRecord& rec : replay.records) {
        switch (rec.kind) {
          case JournalRecordKind::kSegmentWriting:
            intents[rec.segment_id] =
                Intent{rec.partition_id, rec.file_name};
            next_segment_id_ =
                std::max(next_segment_id_, rec.segment_id + 1);
            break;
          case JournalRecordKind::kSegmentSealed: {
            SegmentInfo info;
            info.meta = rec.meta;
            info.state = SegmentState::kSealed;
            segments_[rec.meta.segment_id] = std::move(info);
            intents.erase(rec.meta.segment_id);
            next_segment_id_ =
                std::max(next_segment_id_, rec.meta.segment_id + 1);
            break;
          }
          case JournalRecordKind::kSegmentCompacted: {
            auto it = segments_.find(rec.segment_id);
            if (it != segments_.end()) {
                it->second.state = SegmentState::kCompacted;
                it->second.compacted_into = rec.new_segment_id;
            }
            break;
          }
          case JournalRecordKind::kSegmentRetired: {
            auto it = segments_.find(rec.segment_id);
            if (it != segments_.end())
                it->second.state = SegmentState::kRetired;
            break;
          }
          case JournalRecordKind::kSegmentQuarantined: {
            auto it = segments_.find(rec.segment_id);
            if (it != segments_.end()) {
                it->second.state = SegmentState::kQuarantined;
                it->second.quarantine_reason = rec.reason;
            }
            break;
          }
          case JournalRecordKind::kCheckpoint:
            next_segment_id_ =
                std::max(next_segment_id_, rec.next_segment_id);
            break;
        }
    }

    // Unsealed intents are crash leftovers: the commit point was never
    // reached, so whatever the crash left of their files is garbage.
    for (const auto& [id, intent] : intents) {
        const std::string path = options_.directory + "/" + intent.file_name;
        bool removed = false;
        if (::unlink(path.c_str()) == 0)
            removed = true;
        if (::unlink((path + ".tmp").c_str()) == 0)
            removed = true;
        if (removed)
            report.orphans_removed.push_back(intent.file_name);
    }

    // Directory sweep: stray temp files (torn publishes) and segment
    // files no intact record accounts for cannot be trusted; retired
    // segments whose unlink the crash swallowed go too.
    std::set<std::string> referenced;
    for (const auto& [id, info] : segments_) {
        if (info.state == SegmentState::kSealed ||
            info.state == SegmentState::kCompacted ||
            info.state == SegmentState::kQuarantined) {
            referenced.insert(info.meta.file_name);
        }
    }
    for (const std::string& name : listDir(options_.directory)) {
        if (!isStoreFileName(name) || referenced.count(name) > 0)
            continue;
        if (::unlink((options_.directory + "/" + name).c_str()) == 0)
            report.orphans_removed.push_back(name);
    }

    // Verify every live segment's bytes against its sealed meta. A
    // mismatch quarantines the segment in memory (recovery never
    // appends journal records — the decision re-derives identically on
    // every replay; the scrub journals it later if asked to).
    for (auto& [id, info] : segments_) {
        if (info.state != SegmentState::kSealed &&
            info.state != SegmentState::kCompacted) {
            continue;
        }
        const std::string path = segmentPath(info.meta);
        auto size = fileSizeOf(path);
        std::string why;
        if (!size.ok() || *size != info.meta.byte_size) {
            why = "segment file missing or mis-sized";
        } else {
            auto data = loadFromFile(path);
            if (!data.ok()) {
                why = "segment file unreadable";
            } else if (crc32c(data->data(), data->size()) !=
                       info.meta.file_crc) {
                why = "segment checksum mismatch";
            }
        }
        if (!why.empty()) {
            info.state = SegmentState::kQuarantined;
            info.quarantine_reason = why;
            report.quarantined.push_back(id);
        } else {
            ++report.live_segments;
        }
    }
    return Status::okStatus();
}

Status
SegmentStore::appendRecord(const JournalRecord& record)
{
    const auto frame = encodeJournalFrame(record);
    PRESTO_RETURN_IF_ERROR(io_.appendDurable(journalPath(), frame));
    journal_bytes_ += frame.size();
    return Status::okStatus();
}

StatusOr<uint64_t>
SegmentStore::appendPartition(const RowBatch& batch, uint64_t partition_id)
{
    ColumnarFileWriter writer(options_.writer);
    const auto psf = writer.write(batch, partition_id);
    return appendEncoded(psf, partition_id);
}

StatusOr<uint64_t>
SegmentStore::appendEncoded(std::span<const uint8_t> psf,
                            uint64_t partition_id)
{
    // Derive the sealed meta (footer parse + page plans) before any
    // durable op, so a malformed file is rejected with the journal
    // untouched.
    ColumnarFileReader reader;
    PRESTO_RETURN_IF_ERROR(reader.open(psf));
    if (reader.footer().partition_id != partition_id)
        return Status::invalidArgument(
            "PSF partition id disagrees with append");
    SegmentMeta meta;
    PRESTO_RETURN_IF_ERROR(reader.planPageReads(meta.plans));
    meta.partition_id = partition_id;
    meta.byte_size = psf.size();
    meta.file_crc = crc32c(psf.data(), psf.size());
    meta.num_rows = reader.footer().num_rows;
    // bytesTouched() after open() is footer + trailer + header magic;
    // the tail region excludes the 4 header bytes.
    meta.tail_bytes = static_cast<uint32_t>(reader.bytesTouched() - 4);

    std::lock_guard<std::mutex> lock(mu_);
    meta.segment_id = next_segment_id_++;
    meta.file_name = segmentFileName(meta.segment_id);

    // 1. intent; 2. file; 3. seal — see the header for crash windows.
    JournalRecord intent;
    intent.kind = JournalRecordKind::kSegmentWriting;
    intent.segment_id = meta.segment_id;
    intent.partition_id = partition_id;
    intent.file_name = meta.file_name;
    PRESTO_RETURN_IF_ERROR(appendRecord(intent));

    PRESTO_RETURN_IF_ERROR(io_.publishDurable(segmentPath(meta), psf));

    JournalRecord seal;
    seal.kind = JournalRecordKind::kSegmentSealed;
    seal.meta = meta;
    PRESTO_RETURN_IF_ERROR(appendRecord(seal));

    SegmentInfo info;
    info.meta = std::move(meta);
    info.state = SegmentState::kSealed;
    const uint64_t id = info.meta.segment_id;
    segments_[id] = std::move(info);

    if (journal_bytes_ > options_.checkpoint_journal_bytes)
        PRESTO_RETURN_IF_ERROR(checkpointLocked());
    return id;
}

StatusOr<SegmentInfo>
SegmentStore::segmentForPartition(uint64_t partition_id) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const SegmentInfo* best = nullptr;
    for (const auto& [id, info] : segments_) {
        if (info.meta.partition_id != partition_id)
            continue;
        if (info.state != SegmentState::kSealed &&
            info.state != SegmentState::kCompacted) {
            continue;
        }
        // Ascending map order: the last live match is the newest.
        if (best == nullptr || info.state == SegmentState::kSealed ||
            best->state != SegmentState::kSealed) {
            best = &info;
        }
    }
    if (best == nullptr)
        return Status::notFound("no live segment holds partition " +
                                std::to_string(partition_id));
    return *best;
}

StatusOr<SegmentInfo>
SegmentStore::segmentLocked(uint64_t segment_id) const
{
    auto it = segments_.find(segment_id);
    if (it == segments_.end())
        return Status::notFound("unknown segment " +
                                std::to_string(segment_id));
    const SegmentInfo& info = it->second;
    if (info.state == SegmentState::kRetired)
        return Status::notFound("segment " + std::to_string(segment_id) +
                                " is retired");
    if (info.state == SegmentState::kQuarantined)
        return Status::unavailable("segment " + std::to_string(segment_id) +
                                   " is quarantined: " +
                                   info.quarantine_reason);
    return info;
}

Status
SegmentStore::quarantineLocked(uint64_t segment_id,
                               const std::string& reason)
{
    auto it = segments_.find(segment_id);
    if (it == segments_.end())
        return Status::notFound("unknown segment");
    if (it->second.state == SegmentState::kQuarantined)
        return Status::okStatus();
    JournalRecord rec;
    rec.kind = JournalRecordKind::kSegmentQuarantined;
    rec.segment_id = segment_id;
    rec.reason = reason;
    PRESTO_RETURN_IF_ERROR(appendRecord(rec));
    it->second.state = SegmentState::kQuarantined;
    it->second.quarantine_reason = reason;
    return Status::okStatus();
}

Status
SegmentStore::readSegment(uint64_t segment_id, AsyncPartitionReader& reader,
                          RowBatch& out)
{
    SegmentInfo info;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto got = segmentLocked(segment_id);
        if (!got.ok())
            return got.status();
        info = std::move(got).value();
    }
    const std::string path = segmentPath(info.meta);
    auto fd = openReadOnly(path);
    if (!fd.ok())
        return fd.status();

    // Cold read: only the tail (footer + trailer) is pread here; every
    // page frame then flows through the ring's device workers.
    std::vector<uint8_t> tail(info.meta.tail_bytes);
    Status st = preadExact(*fd, tail.data(), tail.size(),
                           info.meta.byte_size - tail.size(), path);
    if (st.ok()) {
        AsyncPartitionReader::FileReadSource src;
        src.fd = *fd;
        src.file_size = info.meta.byte_size;
        src.tail = tail;
        src.plans = info.meta.plans;
        st = reader.readFile(src, info.meta.partition_id, out);
    }
    ::close(*fd);
    if (st.code() == StatusCode::kCorruption) {
        std::lock_guard<std::mutex> lock(mu_);
        (void)quarantineLocked(segment_id, st.message());
    }
    return st;
}

Status
SegmentStore::retireSegment(uint64_t segment_id)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = segments_.find(segment_id);
    if (it == segments_.end())
        return Status::notFound("unknown segment");
    if (it->second.state == SegmentState::kRetired)
        return Status::okStatus();
    JournalRecord rec;
    rec.kind = JournalRecordKind::kSegmentRetired;
    rec.segment_id = segment_id;
    PRESTO_RETURN_IF_ERROR(appendRecord(rec));
    // The record is durable before the unlink: if the unlink is lost to
    // a crash, recovery's directory sweep finishes the job.
    (void)::unlink(segmentPath(it->second.meta).c_str());
    it->second.state = SegmentState::kRetired;
    return Status::okStatus();
}

StatusOr<uint64_t>
SegmentStore::compactOnce()
{
    // Candidate: the largest live segment we have not tried yet this
    // process (compaction outputs are skipped — re-encoding them again
    // cannot win).
    SegmentInfo candidate;
    bool found = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        uint64_t best_size = 0;
        for (const auto& [id, info] : segments_) {
            if (info.state != SegmentState::kSealed)
                continue;
            if (compact_tried_.count(id) > 0)
                continue;
            if (info.meta.byte_size > best_size) {
                best_size = info.meta.byte_size;
                candidate = info;
                found = true;
            }
        }
        if (found)
            compact_tried_.insert(candidate.meta.segment_id);
    }
    if (!found)
        return uint64_t{0};

    auto bytes = readSegmentRaw(candidate.meta.segment_id);
    if (!bytes.ok())
        return bytes.status();
    ColumnarFileReader reader;
    RowBatch batch;
    PRESTO_RETURN_IF_ERROR(reader.open(*bytes));
    PRESTO_RETURN_IF_ERROR(reader.readAllInto(batch));
    ColumnarFileWriter writer(options_.writer);
    const auto rewritten =
        writer.write(batch, candidate.meta.partition_id);
    if (rewritten.size() >= candidate.meta.byte_size)
        return uint64_t{0};  // no win; remembered in compact_tried_

    auto new_id = appendEncoded(rewritten, candidate.meta.partition_id);
    if (!new_id.ok())
        return new_id.status();
    {
        std::lock_guard<std::mutex> lock(mu_);
        JournalRecord rec;
        rec.kind = JournalRecordKind::kSegmentCompacted;
        rec.segment_id = candidate.meta.segment_id;
        rec.new_segment_id = *new_id;
        PRESTO_RETURN_IF_ERROR(appendRecord(rec));
        auto it = segments_.find(candidate.meta.segment_id);
        if (it != segments_.end()) {
            it->second.state = SegmentState::kCompacted;
            it->second.compacted_into = *new_id;
        }
        compact_tried_.insert(*new_id);
    }
    PRESTO_RETURN_IF_ERROR(retireSegment(candidate.meta.segment_id));
    return *new_id;
}

void
SegmentStore::setScrubPriority(std::function<uint64_t(uint64_t)> priority)
{
    std::lock_guard<std::mutex> lock(mu_);
    scrub_priority_ = std::move(priority);
}

ScrubCounters
SegmentStore::scrubCounters() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return scrub_counters_;
}

uint64_t
SegmentStore::liveBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    uint64_t total = 0;
    for (const auto& [id, info] : segments_) {
        if (info.state == SegmentState::kSealed ||
            info.state == SegmentState::kCompacted) {
            total += info.meta.byte_size;
        }
    }
    return total;
}

StatusOr<std::vector<uint8_t>>
SegmentStore::readSegmentRaw(uint64_t segment_id)
{
    SegmentInfo info;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto got = segmentLocked(segment_id);
        if (!got.ok())
            return got.status();
        info = std::move(got).value();
    }
    auto bytes = loadFromFile(segmentPath(info.meta));
    if (!bytes.ok())
        return bytes.status();
    if (crc32c(bytes->data(), bytes->size()) != info.meta.file_crc) {
        Status st = Status::corruption("segment checksum mismatch");
        std::lock_guard<std::mutex> lock(mu_);
        (void)quarantineLocked(segment_id, st.message());
        return st;
    }
    return *std::move(bytes);
}

StatusOr<uint64_t>
SegmentStore::scrubSome(size_t max_pages)
{
    // Snapshot the live segments; the cursor pair (segment, page)
    // resumes where the previous pass stopped and wraps at the end.
    std::vector<SegmentInfo> live;
    std::function<uint64_t(uint64_t)> priority;
    uint64_t cursor_segment;
    uint64_t cursor_page;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto& [id, info] : segments_) {
            if (info.state == SegmentState::kSealed ||
                info.state == SegmentState::kCompacted) {
                live.push_back(info);
            }
        }
        priority = scrub_priority_;
        cursor_segment = scrub_cursor_segment_;
        cursor_page = scrub_cursor_page_;
    }
    if (live.empty())
        return uint64_t{0};

    // Priorities are computed outside mu_: the hook may take its own
    // locks (the catalog's pin-count mutex) and must never nest under
    // the store mutex.
    std::vector<uint64_t> prio(live.size(), 0);
    if (priority) {
        for (size_t i = 0; i < live.size(); ++i)
            prio[i] = priority(live[i].meta.partition_id);
    }
    std::vector<size_t> order(live.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         if (prio[a] != prio[b])
                             return prio[a] > prio[b];
                         return live[a].meta.segment_id <
                                live[b].meta.segment_id;
                     });

    // Resume at the cursor's segment if it is still live; pin churn
    // can reorder or retire it between passes, in which case the pass
    // restarts at the head of the (new) priority order.
    size_t start = 0;
    while (start < order.size() &&
           live[order[start]].meta.segment_id != cursor_segment) {
        ++start;
    }
    if (start == order.size()) {
        start = 0;
        cursor_page = 0;
    }

    uint64_t verified = 0;
    uint64_t prioritized = 0;
    std::vector<uint8_t> frame;
    for (size_t step = 0; step < order.size() && verified < max_pages;
         ++step) {
        const size_t idx = order[(start + step) % order.size()];
        const SegmentInfo& info = live[idx];
        const std::string path = segmentPath(info.meta);
        uint64_t page = step == 0 ? cursor_page : 0;
        for (; page < info.meta.plans.size() && verified < max_pages;
             ++page) {
            const PageReadPlan& plan = info.meta.plans[page];
            Status st = readFileRange(path, plan.offset, plan.frame_bytes,
                                      frame);
            if (st.ok()) {
                size_t pos = 0;
                PageView view;
                st = readPageFrame(frame, pos, view);
                if (st.ok() && pos != frame.size())
                    st = Status::corruption("page frame size mismatch");
            }
            if (!st.ok()) {
                std::lock_guard<std::mutex> lock(mu_);
                (void)quarantineLocked(
                    info.meta.segment_id,
                    "scrub: " + st.message() + " (page " +
                        std::to_string(page) + ")");
                break;  // rest of this segment is moot
            }
            ++verified;
            if (prio[idx] > 0)
                ++prioritized;
        }
        cursor_segment = info.meta.segment_id;
        cursor_page = page;
        if (page >= info.meta.plans.size()) {
            // Advance to the next segment in this pass's order.
            cursor_segment =
                live[order[(start + step + 1) % order.size()]]
                    .meta.segment_id;
            cursor_page = 0;
        }
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        scrub_cursor_segment_ = cursor_segment;
        scrub_cursor_page_ = cursor_page;
        scrub_counters_.pages_total += verified;
        scrub_counters_.pages_prioritized += prioritized;
    }
    return verified;
}

bool
SegmentStore::scheduleMaintenance(ThreadPool& pool)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (maintenance_pending_)
            return false;
        maintenance_pending_ = true;
    }
    pool.submit([this] { maintenanceTick(); });
    return true;
}

void
SegmentStore::maintenanceTick()
{
    // Bounded work per tick: a slice of the CRC scrub and at most one
    // compaction attempt. Failures are advisory here — the next tick
    // (or the foreground read that hits the segment) retries or
    // quarantines as appropriate.
    (void)scrubSome(options_.scrub_pages_per_tick);
    (void)compactOnce();
    std::lock_guard<std::mutex> lock(mu_);
    maintenance_pending_ = false;
}

Status
SegmentStore::checkpointJournal()
{
    std::lock_guard<std::mutex> lock(mu_);
    return checkpointLocked();
}

Status
SegmentStore::checkpointLocked()
{
    // Atomic whole-journal rewrite: a checkpoint record (the id
    // allocator floor) followed by the live state. Retired segments'
    // history is the garbage being collected.
    std::vector<uint8_t> bytes = encodeJournalHeader();
    JournalRecord cp;
    cp.kind = JournalRecordKind::kCheckpoint;
    cp.next_segment_id = next_segment_id_;
    auto frame = encodeJournalFrame(cp);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    for (const auto& [id, info] : segments_) {
        if (info.state == SegmentState::kRetired)
            continue;
        JournalRecord seal;
        seal.kind = JournalRecordKind::kSegmentSealed;
        seal.meta = info.meta;
        frame = encodeJournalFrame(seal);
        bytes.insert(bytes.end(), frame.begin(), frame.end());
        if (info.state == SegmentState::kCompacted) {
            JournalRecord rec;
            rec.kind = JournalRecordKind::kSegmentCompacted;
            rec.segment_id = id;
            rec.new_segment_id = info.compacted_into;
            frame = encodeJournalFrame(rec);
            bytes.insert(bytes.end(), frame.begin(), frame.end());
        } else if (info.state == SegmentState::kQuarantined) {
            JournalRecord rec;
            rec.kind = JournalRecordKind::kSegmentQuarantined;
            rec.segment_id = id;
            rec.reason = info.quarantine_reason;
            frame = encodeJournalFrame(rec);
            bytes.insert(bytes.end(), frame.begin(), frame.end());
        }
    }
    PRESTO_RETURN_IF_ERROR(io_.publishDurable(journalPath(), bytes));
    journal_bytes_ = bytes.size();
    // Retired entries served their purpose once the rewrite is durable.
    for (auto it = segments_.begin(); it != segments_.end();) {
        if (it->second.state == SegmentState::kRetired)
            it = segments_.erase(it);
        else
            ++it;
    }
    return Status::okStatus();
}

std::vector<SegmentInfo>
SegmentStore::listSegments() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SegmentInfo> out;
    out.reserve(segments_.size());
    for (const auto& [id, info] : segments_)
        out.push_back(info);
    return out;
}

}  // namespace presto
