/**
 * @file
 * Schedule tests of EngineCore, the flow rules shared by the threaded
 * worker engine and the service DES. The core has no threads, so a
 * test can run it through chosen interleavings of worker, consumer,
 * arrival and close actions and check every invariant after every step:
 *
 *  - claimed - delivered never exceeds the capacity;
 *  - delivered sequence numbers are 0, 1, 2, ... with no gap, and each
 *    was published first;
 *  - the latched error is delivered only after every earlier batch;
 *  - nothing is claimed for a closed or errored flow, and a claim
 *    finds a flow whenever one is claimable;
 *  - release returns exactly the published, undelivered slots;
 *  - a flow that resumes (unclaimable with nothing in flight, then
 *    claimable) has a tag no lower than the system virtual time.
 *
 * The test keeps its own ledger of each flow, written from the rules
 * above and never read back from the core, and compares the two after
 * every step. The exhaustive cases visit every reachable state of
 * small configurations and take every action out of each: the state
 * holds the whole ledger and the scheduler's tags, so every
 * interleaving is a path through the visited states and every step of
 * it is checked. Long random schedules cover larger configurations.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/engine_core.h"

namespace presto {
namespace {

using Head = EngineCore::Head;
constexpr uint64_t kNone = UINT64_MAX;

/**
 * The test's own account of one flow. Every sequence number in flight
 * or published lies in [delivered, claimed), which the capacity keeps
 * short, so both sets are bit masks over offsets from delivered.
 */
struct Ledger {
    EngineCore::FlowId id = 0;
    size_t capacity = 1;
    uint64_t limit = 0;
    uint64_t raise_to = 0;  ///< open loop: raise the limit up to this
    uint64_t claimed = 0;
    uint64_t delivered = 0;
    uint64_t in_flight = 0;      ///< bit i: delivered + i in flight
    uint64_t published = 0;      ///< bit i: delivered + i published
    uint64_t failed_at = kNone;  ///< lowest failed sequence number
    bool closing = false;
    bool released = false;

    uint64_t
    bit(uint64_t seq) const
    {
        return uint64_t{1} << (seq - delivered);
    }
    bool
    claimable() const
    {
        return !released && !closing && failed_at == kNone &&
               claimed < limit && claimed - delivered < capacity;
    }
    bool idle() const { return !claimable() && in_flight == 0; }

    Head
    expectedHead() const
    {
        if (released || closing)
            return Head::kClosed;
        if (delivered >= limit)
            return Head::kEnd;
        if (delivered == failed_at)
            return Head::kError;
        return (published & 1) != 0 ? Head::kBatch : Head::kWait;
    }
};

struct Action {
    enum Kind { kClaim, kPublish, kFail, kDeliver, kClose, kRelease, kRaise };
    Kind kind;
    size_t flow = 0;  ///< index into Model::flows (id - 1)
    uint64_t seq = 0;
};

std::string
describe(const Action& a)
{
    static const char* const kNames[] = {"claim",   "publish", "fail",
                                         "deliver", "close",   "release",
                                         "raise"};
    std::string s = kNames[a.kind];
    if (a.kind != Action::kClaim)
        s += " f" + std::to_string(a.flow + 1);
    if (a.kind == Action::kPublish || a.kind == Action::kFail)
        s += "#" + std::to_string(a.seq);
    return s;
}

const char*
headName(Head head)
{
    static const char* const kNames[] = {"batch", "wait", "end", "error",
                                         "closed"};
    return kNames[static_cast<int>(head)];
}

std::string
errorFor(uint64_t seq)
{
    return "production of " + std::to_string(seq) + " failed";
}

/** An EngineCore, the ledger of each of its flows, and the workers. */
struct Model {
    EngineCore core;
    std::vector<Ledger> flows;
    size_t workers = 3;
    bool faults = true;  ///< fail and close actions on

    void
    open(double weight, size_t capacity, uint64_t limit, uint64_t raise_to)
    {
        Ledger f;
        f.id = flows.size() + 1;
        f.capacity = capacity;
        f.limit = limit;
        f.raise_to = raise_to;
        core.open(f.id, weight, capacity, limit);
        flows.push_back(std::move(f));
    }

    /** Every action a worker, a consumer or an arrival can take now. */
    std::vector<Action>
    actions() const
    {
        std::vector<Action> out;
        size_t busy = 0;
        for (const Ledger& f : flows)
            busy += __builtin_popcountll(f.in_flight);
        if (busy < workers)
            out.push_back({Action::kClaim});
        for (size_t i = 0; i < flows.size(); ++i) {
            const Ledger& f = flows[i];
            if (f.released)
                continue;
            for (uint64_t seq = f.delivered; seq < f.claimed; ++seq) {
                if ((f.in_flight & f.bit(seq)) == 0)
                    continue;
                out.push_back({Action::kPublish, i, seq});
                if (faults)
                    out.push_back({Action::kFail, i, seq});
            }
            // A consumer delivers what head() offers, as next() does.
            if (core.head(f.id) == Head::kBatch)
                out.push_back({Action::kDeliver, i});
            if (f.closing && f.in_flight == 0)
                out.push_back({Action::kRelease, i});
            if (!f.closing && faults)
                out.push_back({Action::kClose, i});
            if (!f.closing && f.limit < f.raise_to)
                out.push_back({Action::kRaise, i});
        }
        return out;
    }

    /** Apply @p a and check every invariant: the first violation, or
        the empty string. */
    std::string
    step(const Action& a)
    {
        std::vector<bool> idle_before(flows.size());
        for (size_t i = 0; i < flows.size(); ++i)
            idle_before[i] = flows[i].idle();
        if (std::string why = apply(a); !why.empty())
            return why;
        return check(idle_before);
    }

    std::string
    apply(const Action& a)
    {
        Ledger& f = flows[a.flow];
        switch (a.kind) {
        case Action::kClaim: {
            const std::optional<EngineCore::Claim> claim = core.claim();
            if (!claim) {
                for (const Ledger& g : flows) {
                    if (g.claimable())
                        return "claim found nothing, flow " +
                               std::to_string(g.id) + " is claimable";
                }
                return "";
            }
            Ledger& c = flows.at(claim->flow - 1);
            if (c.closing || c.failed_at != kNone)
                return "claimed for a closed or errored flow";
            if (!c.claimable())
                return "claimed past the capacity or the limit";
            if (claim->sequence != c.claimed)
                return "claimed sequence " + std::to_string(claim->sequence) +
                       ", expected " + std::to_string(c.claimed);
            c.in_flight |= c.bit(c.claimed++);
            return "";
        }
        case Action::kPublish: {
            const bool kept = core.publish(f.id, a.seq);
            f.in_flight &= ~f.bit(a.seq);
            if (kept != (!f.closing && a.seq < f.failed_at))
                return kept ? "kept a batch of a closed flow or past its error"
                            : "dropped a batch it should keep";
            if (kept)
                f.published |= f.bit(a.seq);
            return "";
        }
        case Action::kFail:
            core.fail(f.id, a.seq, Status::unavailable(errorFor(a.seq)));
            f.in_flight &= ~f.bit(a.seq);
            f.failed_at = std::min(f.failed_at, a.seq);
            return "";
        case Action::kDeliver: {
            const uint64_t seq = core.deliver(f.id);
            if (seq != f.delivered)
                return "delivered sequence " + std::to_string(seq) +
                       ", expected " + std::to_string(f.delivered);
            if ((f.published & 1) == 0)
                return "delivered unpublished sequence " +
                       std::to_string(seq);
            f.published >>= 1;
            f.in_flight >>= 1;
            ++f.delivered;
            return "";
        }
        case Action::kClose:
            core.close(f.id);
            f.closing = true;
            return "";
        case Action::kRelease: {
            uint64_t returned = 0;
            for (uint64_t seq : core.release(f.id)) {
                if (seq < f.delivered || seq >= f.claimed ||
                    (returned & f.bit(seq)) != 0)
                    return "release returned a slot twice or out of range";
                returned |= f.bit(seq);
            }
            if (returned != f.published)
                return "release returned other slots than the published";
            f.published = 0;
            f.released = true;
            return "";
        }
        case Action::kRaise:
            core.raiseLimit(f.id, ++f.limit);
            return "";
        }
        return "unknown action";
    }

    std::string
    check(const std::vector<bool>& idle_before) const
    {
        for (size_t i = 0; i < flows.size(); ++i) {
            const Ledger& f = flows[i];
            const auto name = [&f] {
                return "flow " + std::to_string(f.id) + ": ";
            };
            const EngineCore::Flow* cf = core.find(f.id);
            if (f.released) {
                if (cf != nullptr || core.head(f.id) != Head::kClosed)
                    return name() + "released, yet still open";
                continue;
            }
            if (cf == nullptr)
                return name() + "open, yet unknown to the core";
            if (f.claimed - f.delivered > f.capacity ||
                cf->claimed - cf->delivered > f.capacity)
                return name() + "claimed - delivered exceeds the capacity";
            if (cf->claimed != f.claimed || cf->delivered != f.delivered ||
                cf->in_flight != size_t(__builtin_popcountll(f.in_flight)) ||
                cf->ready != size_t(__builtin_popcountll(f.published)))
                return name() + "counters disagree with the ledger";
            const Head head = core.head(f.id);
            if (head != f.expectedHead()) {
                if (head == Head::kError)
                    return name() + "error delivered before an earlier batch";
                return name() + "head is " + headName(head) + ", expected " +
                       headName(f.expectedHead());
            }
            if (head == Head::kError && cf->error.message() !=
                                            errorFor(f.failed_at))
                return name() + "error not latched at its sequence number";
            if (idle_before[i] && f.claimable() &&
                core.wfq().tag(f.id) < core.wfq().vtime())
                return name() + "resumed without a re-base (tag below vtime)";
        }
        return "";
    }

    /** Everything the invariants read: the ledgers, which the core
        agrees with, plus the scheduler's tags. Packed for the
        exhaustive configurations: two flows, sequence numbers below
        255, capacity at most 8. */
    using Key = std::array<uint64_t, 5>;
    Key
    key() const
    {
        Key k{};
        for (size_t i = 0; i < 2; ++i) {
            const Ledger& f = flows[i];
            const uint64_t failed = std::min<uint64_t>(f.failed_at, 255);
            k[2 * i] = f.limit | f.claimed << 8 | f.delivered << 16 |
                       failed << 24 | f.in_flight << 32 |
                       f.published << 40 | uint64_t{f.closing} << 48 |
                       uint64_t{f.released} << 49;
            const double tag = f.released ? 0.0 : core.wfq().tag(f.id);
            std::memcpy(&k[2 * i + 1], &tag, sizeof tag);
        }
        const double vtime = core.wfq().vtime();
        std::memcpy(&k[4], &vtime, sizeof vtime);
        return k;
    }
};

struct KeyHash {
    size_t
    operator()(const Model::Key& k) const
    {
        uint64_t h = 0;
        for (uint64_t v : k)
            h = (h ^ v) * 0x100000001b3ull + (h >> 29);
        return h;
    }
};

struct Exploration {
    std::unordered_set<Model::Key, KeyHash> seen;
    std::vector<Action> path;
    size_t steps = 0;
    std::string violation;  ///< with the schedule that led to it
};

void
explore(const Model& model, Exploration& x)
{
    for (const Action& a : model.actions()) {
        Model next = model;
        x.path.push_back(a);
        ++x.steps;
        if (std::string why = next.step(a); !why.empty()) {
            x.violation = why + "\n  after:";
            for (const Action& p : x.path)
                x.violation += " " + describe(p);
            return;
        }
        if (x.seen.insert(next.key()).second)
            explore(next, x);
        if (!x.violation.empty())
            return;
        x.path.pop_back();
    }
}

/**
 * Two flows at weights 1 and 2, each at @p capacity, on 3 workers.
 * Closed loop (the engine): each flow opens at @p limit, and workers
 * may fail and consumers close. Open loop (the DES): each flow opens
 * at limit 0 and arrivals raise it up to @p limit; the DES never fails
 * a production or closes a flow.
 */
void
exploreAll(size_t capacity, uint64_t limit, bool open_loop)
{
    Model model;
    model.faults = !open_loop;
    model.open(1.0, capacity, open_loop ? 0 : limit, open_loop ? limit : 0);
    model.open(2.0, capacity, open_loop ? 0 : limit, open_loop ? limit : 0);
    Exploration x;
    x.seen.insert(model.key());
    explore(model, x);
    const std::string at = "_c" + std::to_string(capacity);
    EXPECT_EQ(x.violation, "") << at;
    EXPECT_GT(x.seen.size(), 1000u) << at;
    ::testing::Test::RecordProperty("states" + at,
                                    std::to_string(x.seen.size()));
    ::testing::Test::RecordProperty("steps" + at, std::to_string(x.steps));
}

TEST(EngineCoreScheduleTest, EveryInterleavingClosedLoop)
{
    for (size_t capacity = 1; capacity <= 3; ++capacity)
        exploreAll(capacity, 6, false);
}

TEST(EngineCoreScheduleTest, EveryInterleavingOpenLoop)
{
    for (size_t capacity = 1; capacity <= 3; ++capacity)
        exploreAll(capacity, 6, true);
}

TEST(EngineCoreScheduleTest, LongRandomSchedules)
{
    // Four live flows on 4 workers, mixed closed and open
    // loop, fails and closes rare so flows run deep; a released flow
    // is replaced by a fresh one.
    for (uint64_t seed : {1u, 2u, 3u}) {
        std::mt19937_64 rng(seed);
        const auto uniform = [&rng](uint64_t lo, uint64_t hi) {
            return std::uniform_int_distribution<uint64_t>(lo, hi)(rng);
        };
        Model model;
        model.workers = 4;
        const auto openOne = [&] {
            const double weight = 0.5 * static_cast<double>(uniform(1, 6));
            const size_t capacity = uniform(1, 4);
            if (uniform(0, 1) == 0)
                model.open(weight, capacity, uniform(1, 400), 0);
            else
                model.open(weight, capacity, 0, kNone);
        };
        for (int i = 0; i < 4; ++i)
            openOne();
        for (int n = 0; n < 20000; ++n) {
            const std::vector<Action> actions = model.actions();
            std::vector<double> weights;
            for (const Action& a : actions)
                weights.push_back(
                    a.kind == Action::kFail || a.kind == Action::kClose
                        ? 1.0
                        : 40.0);
            const Action a = actions[std::discrete_distribution<size_t>(
                weights.begin(), weights.end())(rng)];
            const std::string why = model.step(a);
            ASSERT_EQ(why, "") << "seed " << seed << " step " << n << ": "
                               << describe(a);
            if (a.kind == Action::kRelease)
                openOne();
        }
    }
}

}  // namespace
}  // namespace presto
