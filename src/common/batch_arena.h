/**
 * @file
 * Per-worker reusable scratch buffers for the preprocessing hot path.
 *
 * A BatchArena owns a set of slot-indexed vectors that survive across
 * batches: the first batch through a worker sizes them, every later
 * batch reuses the same capacity, so the steady-state Transform loop
 * performs zero heap allocations per batch. Slots have stable addresses
 * (each buffer is a separately heap-allocated vector), so references
 * handed to parallel tasks stay valid while other slots are created.
 *
 * Thread safety: an arena belongs to one worker. The only concurrent
 * use allowed is lookups of *distinct, already-prepared* slots from
 * parallel tasks (prepareF32/prepareI64 must run before the fan-out).
 */
#ifndef PRESTO_COMMON_BATCH_ARENA_H_
#define PRESTO_COMMON_BATCH_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace presto {

class BatchArena
{
  public:
    BatchArena() = default;
    BatchArena(const BatchArena&) = delete;
    BatchArena& operator=(const BatchArena&) = delete;

    /** Ensure float slots [0, count) exist (serial; call before fan-out). */
    void prepareF32(size_t count);
    /** Ensure int64 slots [0, count) exist (serial; call before fan-out). */
    void prepareI64(size_t count);

    /**
     * Scratch buffer for @p slot. Creates missing slots serially;
     * lookups of prepared slots are safe from parallel tasks as long as
     * no two tasks share a slot. Contents are whatever the previous
     * batch left — callers resize/assign before use.
     */
    std::vector<float>& f32(size_t slot);
    std::vector<int64_t>& i64(size_t slot);

    /** Account one batch completed (stats only; buffers keep capacity). */
    void noteBatch() { ++batches_; }

    // --- stats (used by the zero-allocation test hook and bench) ----------
    /** Number of slot vectors created since construction. */
    size_t slotAllocations() const { return f32_.size() + i64_.size(); }
    /** Batches served (noteBatch calls). */
    size_t batches() const { return batches_; }
    /** Total capacity currently held across slots, in bytes. */
    size_t bytesReserved() const;

  private:
    std::vector<std::unique_ptr<std::vector<float>>> f32_;
    std::vector<std::unique_ptr<std::vector<int64_t>>> i64_;
    size_t batches_ = 0;
};

/**
 * Resize @p v, a buffer reused batch after batch, to @p n elements. A
 * sparse column's value count differs by a few percent from one
 * partition to the next, so growth reserves 1/8 headroom: a buffer
 * sized by one partition then absorbs the others instead of
 * reallocating (vector's own growth would double it whenever a larger
 * partition came along).
 */
template <typename T>
void
resizeReused(std::vector<T>& v, size_t n)
{
    if (n > v.capacity())
        v.reserve(n + n / 8);
    v.resize(n);
}

}  // namespace presto

#endif  // PRESTO_COMMON_BATCH_ARENA_H_
