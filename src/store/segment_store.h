/**
 * @file
 * SegmentStore: the persistent home of PSF partitions.
 *
 * A store is one directory holding
 *
 *   JOURNAL            append-only lifecycle log (see journal.h)
 *   seg-XXXXXXXX.psf   immutable segment files, one PSF partition each
 *
 * Write protocol for one segment (numbers are durable-op boundaries,
 * i.e. crash windows the fault tests sweep):
 *
 *   1. append kSegmentWriting{id, partition, file}    (intent)
 *   2. publish the segment file crash-atomically
 *   3. append kSegmentSealed{full meta + page plans}  (COMMIT POINT)
 *
 * A crash before 3 leaves at most an orphan file (or a torn temp),
 * which recovery deletes; the segment never existed. A crash after 3
 * leaves a fully committed segment. There is no window in which a
 * partially-written segment is visible to readers.
 *
 * Recovery (open()) replays the journal, drops its torn tail, derives
 * every segment's state from the intact record prefix, deletes orphans
 * and stray temp files (only names the store itself writes; other
 * files in the directory are left alone), verifies each live segment
 * file's size + whole-file CRC against its sealed meta (failures =>
 * quarantined, reported, never served), and rebuilds the in-memory
 * manifest. Recovery never writes the journal, so recovering twice — or
 * crashing mid-recovery and recovering again — is idempotent by
 * construction.
 *
 * Reads go through the IoRing: a cold read preads the file tail
 * (footer) plus each planned page frame through the ring's device
 * workers, with the ring's retry/backoff and the per-page CRC re-read
 * semantics intact. A read that still decodes corrupt quarantines the
 * segment (journaled) instead of serving bad batches.
 *
 * Maintenance runs as bounded ticks — a CRC scrub of a few pages per
 * tick plus at most one compaction attempt — submitted to a shared
 * ThreadPool, one tick in flight at a time, so background work never
 * queues up behind itself and foreground fetch latency stays bounded.
 */
#ifndef PRESTO_STORE_SEGMENT_STORE_H_
#define PRESTO_STORE_SEGMENT_STORE_H_

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "columnar/columnar_file.h"
#include "io/async_reader.h"
#include "store/journal.h"
#include "store/store_fs.h"
#include "tabular/row_batch.h"

namespace presto {

class ThreadPool;

/** Lifecycle state of one segment (derived from the journal). */
enum class SegmentState : uint8_t {
    kSealed,       ///< live, serving reads
    kCompacted,    ///< superseded by a compaction rewrite, file intact
    kRetired,      ///< file deleted
    kQuarantined,  ///< failed a CRC check; never served
};

/** Human-readable state name. */
const char* segmentStateName(SegmentState state);

/** Manifest entry for one segment. */
struct SegmentInfo {
    SegmentMeta meta;
    SegmentState state = SegmentState::kSealed;
    std::string quarantine_reason;   ///< set when kQuarantined
    uint64_t compacted_into = 0;     ///< replacement id when kCompacted
};

/** What recovery found and decided while opening a store. */
struct RecoveryReport {
    uint64_t records_replayed = 0;
    uint64_t torn_tail_bytes = 0;     ///< journal bytes dropped as torn
    std::string torn_reason;          ///< why the replay stopped early
    std::vector<std::string> orphans_removed;  ///< unsealed/temp files
    std::vector<uint64_t> quarantined;  ///< segments failing size/CRC
    uint64_t live_segments = 0;

    /** One line per decision, for the CLI and logs. */
    std::vector<std::string> decisions() const;
};

/** Scrub work accounting (see scrubSome / setScrubPriority). */
struct ScrubCounters {
    uint64_t pages_total = 0;        ///< page frames CRC-verified
    uint64_t pages_prioritized = 0;  ///< of those, on priority>0 segments
};

/** Store configuration. */
struct SegmentStoreOptions {
    std::string directory;  ///< must exist and be writable
    /** PSF writer knobs for new segments. */
    WriterOptions writer;
    /** Crash/fault oracle (not owned; may be nullptr). */
    const FaultInjector* faults = nullptr;
    /** Pages CRC-scrubbed per maintenance tick (the throttle). */
    size_t scrub_pages_per_tick = 32;
    /** Rewrite the journal once it exceeds this many bytes. */
    uint64_t checkpoint_journal_bytes = 1 << 20;
};

/**
 * Thread-safe: appends, reads, and maintenance ticks may come from
 * different threads. One store instance owns its directory.
 */
class SegmentStore
{
  public:
    /**
     * Open (and recover) the store in @p options.directory. A missing
     * journal means an empty store and one is created; anything else
     * runs recovery as described above. @p report (optional) receives
     * what recovery found.
     */
    static StatusOr<std::unique_ptr<SegmentStore>> open(
        SegmentStoreOptions options, RecoveryReport* report = nullptr);

    /** True when @p directory holds a store (its journal), so that
        open() recovers it rather than creating an empty one there. */
    static bool exists(const std::string& directory);

    /** Encode @p batch as PSF and commit it as a new segment. */
    StatusOr<uint64_t> appendPartition(const RowBatch& batch,
                                       uint64_t partition_id);

    /** Commit already-encoded PSF bytes as a new segment. */
    StatusOr<uint64_t> appendEncoded(std::span<const uint8_t> psf,
                                     uint64_t partition_id);

    /**
     * The live (sealed or compacted-but-present) segment holding
     * @p partition_id; the newest wins when compaction left several.
     * kNotFound when the partition is absent or quarantined.
     */
    StatusOr<SegmentInfo> segmentForPartition(uint64_t partition_id) const;

    /**
     * Cold read: stream the segment's pages from storage through
     * @p reader's IoRing (pread per page frame) and decode into
     * @p out. Decode-level corruption quarantines the segment.
     */
    Status readSegment(uint64_t segment_id, AsyncPartitionReader& reader,
                       RowBatch& out);

    /** Mark a segment retired and delete its file. */
    Status retireSegment(uint64_t segment_id);

    /**
     * Compact one segment: re-encode the best candidate (largest live
     * segment whose re-encoded form is strictly smaller) into a new
     * sealed segment, mark the old one compacted, then retire it.
     * @return the new segment id, or 0 when nothing was worth
     * compacting.
     */
    StatusOr<uint64_t> compactOnce();

    /**
     * CRC-scrub up to @p max_pages page frames, resuming where the
     * last pass stopped. A failing page quarantines its segment.
     * Without a priority hook, segments are visited round-robin in
     * ascending id order; with one (setScrubPriority), each pass
     * visits higher-priority segments first — the mechanism behind
     * pin-aware scrubbing, where trainer-pinned epochs get verified
     * ahead of cold ones. @return pages verified this pass.
     */
    StatusOr<uint64_t> scrubSome(size_t max_pages);

    /**
     * Install a scrub priority hook: given a partition id, return its
     * priority (higher scrubs first; 0 = baseline). The hook is called
     * outside the store mutex — it may take its own locks (the catalog
     * hook takes the pin-count mutex) but must not call back into this
     * store. nullptr restores plain ascending-id order.
     */
    void setScrubPriority(std::function<uint64_t(uint64_t)> priority);

    /** Scrub work done so far (total and priority-driven pages). */
    ScrubCounters scrubCounters() const;

    /** Bytes of live (sealed or compacted-but-present) segment files —
        the store's steady-state disk footprint. */
    uint64_t liveBytes() const;

    /**
     * Whole-file blocking read of a live segment's encoded PSF bytes,
     * CRC-verified against the sealed meta (mismatch quarantines), not
     * decoded. The cold-tier path: lets a partition cache re-load
     * encoded bytes off disk without paying a decode. Compaction and
     * presto_cli decode what it returns.
     */
    StatusOr<std::vector<uint8_t>> readSegmentRaw(uint64_t segment_id);

    /**
     * Submit one bounded maintenance tick (scrub + at most one
     * compaction) to @p pool unless a tick is already pending — the
     * back-pressure that keeps background work from piling up.
     * @return true when a tick was scheduled.
     */
    bool scheduleMaintenance(ThreadPool& pool);

    /** Rewrite the journal to just the live state (checkpoint). */
    Status checkpointJournal();

    /** Snapshot of every known segment, ascending id. */
    std::vector<SegmentInfo> listSegments() const;

    /** What recovery found when this store was opened. */
    const RecoveryReport& recoveryReport() const { return recovery_; }

    const std::string& directory() const { return options_.directory; }
    std::string journalPath() const;
    std::string segmentPath(const SegmentMeta& meta) const;

    /** Durable operations issued so far (crash-sweep upper bound). */
    uint64_t durableOps() const;

  private:
    explicit SegmentStore(SegmentStoreOptions options);

    Status recover(RecoveryReport& report);
    Status appendRecord(const JournalRecord& record);
    Status quarantineLocked(uint64_t segment_id, const std::string& reason);
    StatusOr<SegmentInfo> segmentLocked(uint64_t segment_id) const;
    Status checkpointLocked();
    void maintenanceTick();

    SegmentStoreOptions options_;
    RecoveryReport recovery_;

    mutable std::mutex mu_;
    StoreIo io_;                             // guarded by mu_
    std::map<uint64_t, SegmentInfo> segments_;  // guarded by mu_
    uint64_t next_segment_id_ = 1;           // guarded by mu_
    uint64_t journal_bytes_ = 0;             // guarded by mu_
    uint64_t scrub_cursor_segment_ = 0;      // guarded by mu_
    uint64_t scrub_cursor_page_ = 0;         // guarded by mu_
    ScrubCounters scrub_counters_;           // guarded by mu_
    /** Priority hook (guarded by mu_ for the pointer; invoked outside
        mu_ — see setScrubPriority). */
    std::function<uint64_t(uint64_t)> scrub_priority_;
    bool maintenance_pending_ = false;       // guarded by mu_
    /** Segments already considered by compactOnce() (in-memory only —
        after a restart each gets one fresh look). Guarded by mu_. */
    std::set<uint64_t> compact_tried_;
};

}  // namespace presto

#endif  // PRESTO_STORE_SEGMENT_STORE_H_
