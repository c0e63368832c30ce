/**
 * @file
 * Indexed binary min-heap over component wakeup times: the event
 * engine's sleeper lane.
 *
 * Each registered component owns one permanent slot. A component that
 * sleeps past the next cycle keys its slot at the cycle it next wants
 * to tick; one in the Simulator's due lane parks its slot at maxTick,
 * where it costs nothing until it falls asleep again. Slots are never
 * removed: re-arming is a decrease/increase key (O(log n)), the
 * earliest wakeup is O(1), and forEachDue() finds every slot due by a
 * cycle without popping any of them. Tick order within a cycle is not
 * the heap's business: the Simulator walks its due bitset in
 * registration order.
 */

#ifndef LWSP_SIM_EVENT_QUEUE_HH
#define LWSP_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace lwsp {

class EventQueue
{
  public:
    /** Register a new slot armed at @p tick. @return its index. */
    std::uint32_t
    add(Tick tick)
    {
        auto idx = static_cast<std::uint32_t>(key_.size());
        key_.push_back(tick);
        pos_.push_back(static_cast<std::uint32_t>(heap_.size()));
        heap_.push_back(idx);
        siftUp(pos_[idx]);
        return idx;
    }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

    /** Earliest armed tick; requires non-empty. */
    Tick
    topTick() const
    {
        LWSP_ASSERT(!heap_.empty(), "topTick on empty queue");
        return key_[heap_.front()];
    }

    /**
     * Call @p f(slot) for every slot keyed at or before @p t, in no
     * particular order, popping nothing: a walk of the heap's key <= t
     * prefix, which stops at the first later key on each path.
     */
    template <typename F>
    void
    forEachDue(Tick t, F &&f) const
    {
        if (!heap_.empty() && key_[heap_.front()] <= t)
            walkDue(0, t, f);
    }

    /** Current armed tick of slot @p idx. */
    Tick
    keyOf(std::uint32_t idx) const
    {
        LWSP_ASSERT(idx < key_.size(), "bad slot index");
        return key_[idx];
    }

    /** Re-arm slot @p idx at @p tick (earlier or later than before). */
    void
    set(std::uint32_t idx, Tick tick)
    {
        LWSP_ASSERT(idx < key_.size(), "bad slot index");
        Tick old = key_[idx];
        if (tick == old)
            return;
        key_[idx] = tick;
        if (tick < old)
            siftUp(pos_[idx]);
        else
            siftDown(pos_[idx]);
    }

  private:
    bool
    before(std::uint32_t a, std::uint32_t b) const
    {
        return key_[a] < key_[b];
    }

    /** forEachDue() below heap position @p hole, whose key is <= t. */
    template <typename F>
    void
    walkDue(std::uint32_t hole, Tick t, F &f) const
    {
        f(heap_[hole]);
        for (std::uint32_t child = 2 * hole + 1;
             child <= 2 * hole + 2 && child < heap_.size(); ++child)
            if (key_[heap_[child]] <= t)
                walkDue(child, t, f);
    }

    void
    place(std::uint32_t hole, std::uint32_t idx)
    {
        heap_[hole] = idx;
        pos_[idx] = hole;
    }

    void
    siftUp(std::uint32_t hole)
    {
        std::uint32_t idx = heap_[hole];
        while (hole > 0) {
            std::uint32_t parent = (hole - 1) / 2;
            if (!before(idx, heap_[parent]))
                break;
            place(hole, heap_[parent]);
            hole = parent;
        }
        place(hole, idx);
    }

    void
    siftDown(std::uint32_t hole)
    {
        std::uint32_t idx = heap_[hole];
        auto n = static_cast<std::uint32_t>(heap_.size());
        while (true) {
            std::uint32_t child = 2 * hole + 1;
            if (child >= n)
                break;
            if (child + 1 < n && before(heap_[child + 1], heap_[child]))
                ++child;
            if (!before(heap_[child], idx))
                break;
            place(hole, heap_[child]);
            hole = child;
        }
        place(hole, idx);
    }

    std::vector<std::uint32_t> heap_;  ///< heap of slot indices
    std::vector<std::uint32_t> pos_;   ///< slot index -> heap position
    std::vector<Tick> key_;            ///< slot index -> armed tick
};

} // namespace lwsp

#endif // LWSP_SIM_EVENT_QUEUE_HH
