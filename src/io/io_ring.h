/**
 * @file
 * IoRing: an io_uring-style asynchronous storage I/O engine.
 *
 * The paper's SmartSSD hides flash latency by keeping many page reads
 * in flight while earlier pages are decoded. This module emulates that
 * device interface in software: callers enqueue read requests on a
 * bounded submission queue (SQ), a pool of device workers — one per
 * modeled flash channel by default — services them with NVMe-style
 * timing derived from SsdParams, and finished requests surface on a
 * completion queue (CQ) tagged with the caller's cookie.
 *
 * Each request walks an explicit state machine:
 *
 *   submitted (SQ) -> in-flight (device worker) -> completed | failed
 *
 * With a FaultInjector installed, individual in-flight requests can
 * fail transiently, time out, or deliver bit-flipped bytes; transient
 * errors and timeouts are retried *inside the ring* with the spec's
 * exponential backoff until its retry budget runs out (then the request
 * fails with kUnavailable). Bit flips are delivered silently — exactly
 * like real silent data corruption — and are meant to be caught by the
 * per-page CRC at decode time. All fault draws are keyed on the stable
 * (stream_id, offset, attempt) identity, so a run's fault timeline is
 * reproducible regardless of worker interleaving.
 *
 * One ring may be shared by many concurrent consumers (e.g. one per
 * pipeline fetcher thread): registerConsumer() hands out a routing id,
 * and each consumer reaps only its own completions. The CQ never drops
 * a completion; growth past cq_depth is tallied as an overflow, the way
 * io_uring accounts CQ overruns.
 */
#ifndef PRESTO_IO_IO_RING_H_
#define PRESTO_IO_IO_RING_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/fault_injector.h"
#include "common/stats.h"
#include "common/status.h"
#include "models/ssd_model.h"

namespace presto {

/** Lifecycle states of one IoRing request. */
enum class IoRequestState : uint8_t {
    kSubmitted,  ///< waiting on the submission queue
    kInFlight,   ///< owned by a device worker
    kCompleted,  ///< bytes delivered (possibly silently corrupted)
    kFailed,     ///< retry budget exhausted (kUnavailable)
};

/** Human-readable state name. */
const char* ioRequestStateName(IoRequestState state);

/**
 * One submission-queue entry: deliver a device-resident byte range into
 * caller-owned @p dest. Two backends share the queue:
 *
 *  - memory-backed (@p fd < 0): copy @p src into @p dest. The source
 *    span stays valid until the completion is reaped.
 *  - file-backed (@p fd >= 0): pread() @p length bytes at @p offset of
 *    the (caller-owned, kept-open) descriptor into @p dest; @p src is
 *    ignored. A short or failing pread completes the request as kFailed
 *    with the pread's status — it is a real I/O error, not an injected
 *    one, so the in-ring retry budget does not apply.
 *
 * Either way the destination must hold the full request, and injected
 * faults (transients, timeouts, silent bit flips) act identically on
 * both backends.
 */
struct IoRequest {
    std::span<const uint8_t> src;  ///< device-resident bytes (fd < 0)
    uint8_t* dest = nullptr;       ///< caller-owned destination buffer
    int fd = -1;             ///< file-backed source descriptor (-1 = none)
    uint32_t length = 0;     ///< bytes to pread when fd >= 0
    uint64_t stream_id = 0;  ///< fault-draw stream (e.g. partition id)
    uint64_t offset = 0;     ///< device byte offset (fault/timing identity)
    uint32_t attempt = 0;    ///< caller-level re-read ordinal (fault identity)
    uint64_t user_data = 0;  ///< opaque cookie echoed in the completion
    /**
     * Flash-channel affinity: -1 (default) lets any device worker pick
     * the request up (legacy behavior); >= 0 pins it to the worker
     * serving channel (channel % workers), which is how frequency-aware
     * placement turns hot-page striping into real channel parallelism.
     * Pinned requests keep FIFO order per channel.
     */
    int32_t channel = -1;
};

/** One completion-queue entry. */
struct IoCompletion {
    uint64_t user_data = 0;
    Status status;  ///< ok, or kUnavailable once the retry budget is gone
    IoRequestState state = IoRequestState::kCompleted;
    uint32_t retries = 0;      ///< device-level retries this request spent
    double latency_sec = 0;    ///< modeled service time incl. retries
    uint64_t bytes = 0;        ///< bytes delivered (0 on failure)
};

/** Ring configuration. */
struct IoRingOptions {
    size_t sq_depth = 64;   ///< bounded SQ; submit() blocks when full
    size_t cq_depth = 128;  ///< soft CQ bound; growth past it = overflow
    /** Device workers servicing requests; 0 = one per flash channel. */
    int workers = 0;
    /**
     * When true, workers sleep for each request's modeled service time,
     * so wall-clock overlap of storage latency with decode is real.
     * When false (simulation mode) latencies are only accounted.
     */
    bool emulate_latency = false;
    double latency_scale = 1.0;  ///< scales modeled latency (and sleeps)
    /** Modeled lost-command window charged when a timeout fault fires. */
    double timeout_sec = 1e-3;
    /** Upper bound of the latency histogram used for percentiles. */
    double latency_hist_max_sec = 5e-3;
    SsdParams ssd;  ///< flash geometry/timing behind serviceSeconds()
    /** Optional fault oracle (not owned; must outlive the ring). */
    const FaultInjector* faults = nullptr;
};

/** Counters and distributions exposed by IoRing::statsSnapshot(). */
struct IoRingStats {
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t transient_errors = 0;  ///< injected transient read errors
    uint64_t timeouts = 0;          ///< injected command timeouts
    uint64_t retries = 0;           ///< device-level retry attempts
    uint64_t corruptions_injected = 0;
    uint64_t bytes_read = 0;
    uint64_t cq_overflows = 0;
    uint64_t max_in_flight = 0;
    uint64_t max_queue_depth = 0;  ///< max SQ + in-flight
    /** SQ + in-flight sampled at every submit. */
    Accumulator queue_depth;
    /** Modeled per-request service time (incl. retries/backoff). */
    Accumulator latency;
    Histogram latency_hist{0.0, 5e-3, 1000};

    /** Total modeled storage seconds across completed requests. */
    double modeledStorageSec() const { return latency.sum(); }
    /** Latency percentile from the histogram (q in [0, 1]). */
    double latencyQuantile(double q) const
    {
        return latency_hist.quantile(q);
    }
};

/**
 * The ring. Thread-safe: any thread may submit or reap; device workers
 * run internally. Destruction drains queued requests, then joins.
 */
class IoRing
{
  public:
    explicit IoRing(IoRingOptions options = {});
    ~IoRing();

    IoRing(const IoRing&) = delete;
    IoRing& operator=(const IoRing&) = delete;

    /**
     * Allocate a completion-routing id. Every submit must carry a
     * registered consumer id, and each consumer must eventually reap
     * its own completions.
     */
    uint32_t registerConsumer();

    /** Enqueue @p req, blocking while the SQ is full. */
    void submit(uint32_t consumer, const IoRequest& req);

    /** Non-blocking submit. @return false when the SQ is full. */
    bool trySubmit(uint32_t consumer, const IoRequest& req);

    /** Block until a completion for @p consumer arrives, and pop it. */
    IoCompletion waitCompletion(uint32_t consumer);

    /**
     * Pop every available completion for @p consumer (non-blocking).
     * @return the number of completions appended to @p out.
     */
    size_t reapCompletions(uint32_t consumer,
                           std::vector<IoCompletion>& out);

    /** Block until no request is queued or in flight. */
    void drain();

    size_t sqSize() const;
    size_t cqSize() const;
    size_t inFlight() const;
    IoRingStats statsSnapshot() const;
    const IoRingOptions& options() const { return options_; }

    /**
     * Modeled service time of one @p bytes read request (before
     * latency_scale): controller overhead + the first flash page's tR +
     * channel transfer of the full request; further flash-page reads
     * pipeline behind the transfer. Cross-request parallelism comes
     * from the device workers (one per channel).
     */
    double serviceSeconds(uint64_t bytes) const;

  private:
    struct Sqe {
        IoRequest req;
        uint32_t consumer = 0;
    };
    struct Cqe {
        IoCompletion completion;
        uint32_t consumer = 0;
    };

    void deviceLoop(int worker);
    void processRequest(const Sqe& sqe);

    IoRingOptions options_;
    std::vector<std::thread> workers_;

    mutable std::mutex mu_;
    std::condition_variable sq_space_;    ///< SQ below sq_depth
    std::condition_variable sq_nonempty_; ///< work for device workers
    std::condition_variable cq_nonempty_; ///< completions to reap
    std::condition_variable idle_;        ///< SQ empty and nothing in flight
    // FIFO queues in vectors reserved to sq_depth / cq_depth, so a
    // warmed ring allocates nothing per request (entries leave from
    // the middle too: channel-pinned pops, per-consumer reaps).
    std::vector<Sqe> sq_;
    std::vector<Cqe> cq_;
    size_t in_flight_ = 0;
    uint32_t next_consumer_ = 0;
    bool stop_ = false;
    IoRingStats stats_;
};

}  // namespace presto

#endif  // PRESTO_IO_IO_RING_H_
