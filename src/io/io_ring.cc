#include "io/io_ring.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "common/durable_file.h"
#include "common/logging.h"
#include "common/rng.h"

namespace presto {

namespace {

void
sleepSec(double seconds)
{
    if (seconds > 0)
        std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

/** Bytes a request delivers: pread length (file) or src size (memory). */
uint64_t
requestBytes(const IoRequest& req)
{
    return req.fd >= 0 ? req.length : req.src.size();
}

}  // namespace

const char*
ioRequestStateName(IoRequestState state)
{
    switch (state) {
      case IoRequestState::kSubmitted: return "submitted";
      case IoRequestState::kInFlight:  return "in-flight";
      case IoRequestState::kCompleted: return "completed";
      case IoRequestState::kFailed:    return "failed";
    }
    return "unknown";
}

IoRing::IoRing(IoRingOptions options) : options_(options)
{
    PRESTO_CHECK(options_.sq_depth > 0, "sq_depth must be positive");
    PRESTO_CHECK(options_.cq_depth > 0, "cq_depth must be positive");
    PRESTO_CHECK(options_.latency_scale >= 0, "negative latency scale");
    if (options_.workers <= 0)
        options_.workers = options_.ssd.channels;
    PRESTO_CHECK(options_.workers > 0, "ring needs at least one worker");
    stats_.latency_hist =
        Histogram(0.0, options_.latency_hist_max_sec, 1000);
    sq_.reserve(options_.sq_depth);
    cq_.reserve(options_.cq_depth);
    workers_.reserve(static_cast<size_t>(options_.workers));
    for (int w = 0; w < options_.workers; ++w)
        workers_.emplace_back([this, w] { deviceLoop(w); });
}

IoRing::~IoRing()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    sq_nonempty_.notify_all();
    for (auto& t : workers_)
        t.join();
}

uint32_t
IoRing::registerConsumer()
{
    std::lock_guard<std::mutex> lock(mu_);
    return next_consumer_++;
}

void
IoRing::submit(uint32_t consumer, const IoRequest& req)
{
    PRESTO_CHECK(req.dest != nullptr || requestBytes(req) == 0,
                 "submit without a destination buffer");
    std::unique_lock<std::mutex> lock(mu_);
    PRESTO_CHECK(consumer < next_consumer_, "unregistered consumer");
    sq_space_.wait(lock, [this] { return sq_.size() < options_.sq_depth; });
    sq_.push_back(Sqe{req, consumer});
    ++stats_.submitted;
    const uint64_t depth = sq_.size() + in_flight_;
    stats_.queue_depth.add(static_cast<double>(depth));
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, depth);
    lock.unlock();
    sq_nonempty_.notify_all();
}

bool
IoRing::trySubmit(uint32_t consumer, const IoRequest& req)
{
    PRESTO_CHECK(req.dest != nullptr || requestBytes(req) == 0,
                 "submit without a destination buffer");
    {
        std::lock_guard<std::mutex> lock(mu_);
        PRESTO_CHECK(consumer < next_consumer_, "unregistered consumer");
        if (sq_.size() >= options_.sq_depth)
            return false;
        sq_.push_back(Sqe{req, consumer});
        ++stats_.submitted;
        const uint64_t depth = sq_.size() + in_flight_;
        stats_.queue_depth.add(static_cast<double>(depth));
        stats_.max_queue_depth = std::max(stats_.max_queue_depth, depth);
    }
    sq_nonempty_.notify_all();
    return true;
}

IoCompletion
IoRing::waitCompletion(uint32_t consumer)
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        for (auto it = cq_.begin(); it != cq_.end(); ++it) {
            if (it->consumer == consumer) {
                IoCompletion c = std::move(it->completion);
                cq_.erase(it);
                return c;
            }
        }
        cq_nonempty_.wait(lock);
    }
}

size_t
IoRing::reapCompletions(uint32_t consumer, std::vector<IoCompletion>& out)
{
    std::lock_guard<std::mutex> lock(mu_);
    size_t reaped = 0;
    for (auto it = cq_.begin(); it != cq_.end();) {
        if (it->consumer == consumer) {
            out.push_back(std::move(it->completion));
            it = cq_.erase(it);
            ++reaped;
        } else {
            ++it;
        }
    }
    return reaped;
}

void
IoRing::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [this] { return sq_.empty() && in_flight_ == 0; });
}

size_t
IoRing::sqSize() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return sq_.size();
}

size_t
IoRing::cqSize() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return cq_.size();
}

size_t
IoRing::inFlight() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return in_flight_;
}

IoRingStats
IoRing::statsSnapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

double
IoRing::serviceSeconds(uint64_t bytes) const
{
    const SsdParams& ssd = options_.ssd;
    return ssd.controller_overhead_sec + ssd.page_read_sec +
           static_cast<double>(bytes) / ssd.channel_bytes_per_sec;
}

void
IoRing::deviceLoop(int worker)
{
    // Channel-pinned entries (req.channel >= 0) are served only by the
    // worker owning that channel, in per-channel FIFO order; unpinned
    // entries go to whichever worker reaches them first. During
    // shutdown every worker drains any remaining entry so pinned
    // requests cannot be stranded behind a stopped peer.
    const auto eligible = [this, worker](const Sqe& sqe) {
        return stop_ || sqe.req.channel < 0 ||
               sqe.req.channel % options_.workers == worker;
    };
    for (;;) {
        Sqe sqe;
        {
            std::unique_lock<std::mutex> lock(mu_);
            auto it = sq_.end();
            sq_nonempty_.wait(lock, [this, &eligible, &it] {
                it = std::find_if(sq_.begin(), sq_.end(), eligible);
                return stop_ || it != sq_.end();
            });
            if (it == sq_.end())
                return;  // stop requested and nothing left to service
            sqe = std::move(*it);
            sq_.erase(it);
            ++in_flight_;
            stats_.max_in_flight =
                std::max(stats_.max_in_flight,
                         static_cast<uint64_t>(in_flight_));
        }
        sq_space_.notify_one();
        processRequest(sqe);
    }
}

void
IoRing::processRequest(const Sqe& sqe)
{
    const IoRequest& req = sqe.req;
    const FaultInjector* faults = options_.faults;
    // Fault draws key on the page's stable identity; the caller-level
    // attempt shifts the event window so a re-read of the same page
    // draws fresh outcomes, and each device-level retry advances it.
    const uint64_t base_event =
        mix64(req.offset + 1) +
        0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(req.attempt) + 1);

    IoCompletion c;
    c.user_data = req.user_data;
    c.state = IoRequestState::kCompleted;

    const uint64_t req_bytes = requestBytes(req);
    const double service =
        serviceSeconds(req_bytes) * options_.latency_scale;
    const int max_retries =
        faults != nullptr ? faults->spec().max_read_retries : 0;
    uint32_t tries = 0;
    uint64_t injected_transients = 0;
    uint64_t injected_timeouts = 0;
    for (;;) {
        const uint64_t event = base_event + tries;
        const bool timeout =
            faults != nullptr && faults->readTimeout(req.stream_id, event);
        const bool transient =
            faults != nullptr &&
            faults->transientReadError(req.stream_id, event);
        // A timed-out command is charged the full lost-command window
        // instead of its service time.
        const double attempt_sec =
            timeout ? options_.timeout_sec * options_.latency_scale
                    : service;
        if (options_.emulate_latency)
            sleepSec(attempt_sec);
        c.latency_sec += attempt_sec;
        injected_timeouts += timeout ? 1 : 0;
        injected_transients += transient && !timeout ? 1 : 0;
        if (!timeout && !transient)
            break;
        if (static_cast<int>(tries) >= max_retries) {
            c.status = Status::unavailable(
                timeout ? "storage request timed out"
                        : "transient storage read error");
            c.state = IoRequestState::kFailed;
            break;
        }
        const double backoff = faults->retryBackoffSec(
                                   static_cast<int>(tries)) *
                               options_.latency_scale;
        if (options_.emulate_latency)
            sleepSec(backoff);
        c.latency_sec += backoff;
        ++tries;
    }
    c.retries = tries;

    bool corrupted = false;
    if (c.status.ok()) {
        if (req.fd >= 0) {
            // Real storage: pread the range off the (kept-open) file. A
            // failure here is a genuine I/O error, surfaced as-is.
            Status st = req.length == 0
                            ? Status::okStatus()
                            : preadExact(req.fd, req.dest, req.length,
                                         req.offset, "io-ring fd");
            if (!st.ok()) {
                c.status = std::move(st);
                c.state = IoRequestState::kFailed;
            }
        } else if (!req.src.empty()) {
            std::memcpy(req.dest, req.src.data(), req.src.size());
        }
    }
    if (c.status.ok()) {
        c.bytes = req_bytes;
        // Silent in-flight corruption: flip one bit of the delivered
        // copy. The device reports success; only the page CRC can tell.
        if (faults != nullptr && req_bytes != 0 &&
            faults->corruptionOccurs(req.stream_id, base_event + tries)) {
            faults->corruptBytes({req.dest, req_bytes}, req.stream_id,
                                 base_event + tries);
            corrupted = true;
        }
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        --in_flight_;
        if (c.status.ok())
            ++stats_.completed;
        else
            ++stats_.failed;
        stats_.retries += tries;
        stats_.transient_errors += injected_transients;
        stats_.timeouts += injected_timeouts;
        stats_.corruptions_injected += corrupted ? 1 : 0;
        stats_.bytes_read += c.bytes;
        stats_.latency.add(c.latency_sec);
        stats_.latency_hist.add(c.latency_sec);
        if (cq_.size() >= options_.cq_depth)
            ++stats_.cq_overflows;
        cq_.push_back(Cqe{std::move(c), sqe.consumer});
    }
    cq_nonempty_.notify_all();
    idle_.notify_all();
}

}  // namespace presto
