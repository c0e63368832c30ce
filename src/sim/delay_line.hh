/**
 * @file
 * A latency-modelled FIFO: the NoC's links (noc/noc.hh).
 *
 * Payloads pushed at cycle T with latency L become visible at the head no
 * earlier than cycle T+L. FIFO order is preserved regardless of per-item
 * latency (items cannot overtake), so a link delivers its messages in the
 * order they were sent.
 */

#ifndef LWSP_SIM_DELAY_LINE_HH
#define LWSP_SIM_DELAY_LINE_HH

#include <deque>

#include "common/logging.hh"
#include "common/types.hh"

namespace lwsp {

template <typename T>
class DelayLine
{
  public:
    /**
     * Enqueue @p item at cycle @p now, ready at now + @p latency (but never
     * before the item currently at the tail, preserving FIFO arrival order).
     */
    void
    push(Tick now, Tick latency, T item)
    {
        Tick ready = now + latency;
        if (!items_.empty() && items_.back().ready > ready)
            ready = items_.back().ready;
        items_.push_back({ready, std::move(item)});
    }

    /** @return true if the head item exists and is ready at @p now. */
    bool
    headReady(Tick now) const
    {
        return !items_.empty() && items_.front().ready <= now;
    }

    /** Pop the head item; requires non-empty. */
    T
    pop()
    {
        LWSP_ASSERT(!items_.empty(), "DelayLine::pop on empty line");
        T item = std::move(items_.front().item);
        items_.pop_front();
        return item;
    }

    /** Cycle at which the head item becomes ready; requires non-empty. */
    Tick
    headReadyTick() const
    {
        LWSP_ASSERT(!items_.empty(), "headReadyTick on empty line");
        return items_.front().ready;
    }

    bool empty() const { return items_.empty(); }

  private:
    struct Slot
    {
        Tick ready;
        T item;
    };

    std::deque<Slot> items_;
};

} // namespace lwsp

#endif // LWSP_SIM_DELAY_LINE_HH
