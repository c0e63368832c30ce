/**
 * @file
 * Indexed binary min-heap over component wakeup times.
 *
 * Each registered component owns one permanent slot, keyed by the cycle
 * at which it next wants to tick. Ties break on the slot index, so all
 * components due in the same cycle come off the heap in registration
 * order — exactly the order the reference cycle engine ticks them,
 * which is what keeps the two engines bit-identical.
 *
 * Slots are never removed: re-arming a component is a decrease/increase
 * key on its slot (O(log n)), and querying the earliest wakeup is O(1).
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

    /** Slot index owning the earliest tick; requires non-empty. */
    std::uint32_t
    topIndex() const
    {
        LWSP_ASSERT(!heap_.empty(), "topIndex on empty queue");
        return heap_.front();
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
    /** Heap order: (tick, index), so same-cycle pops follow
     *  registration order. */
    bool
    before(std::uint32_t a, std::uint32_t b) const
    {
        return key_[a] != key_[b] ? key_[a] < key_[b] : a < b;
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
