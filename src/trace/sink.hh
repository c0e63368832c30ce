/**
 * @file
 * The event sink: a lock-free single-producer ring buffer.
 *
 * Each System owns one sink and runs on exactly one thread (parallel
 * sweeps parallelize across Systems, never within one), so emission is
 * a bounds-checked store plus an index increment — no atomics, no
 * locks, no allocation after construction. When the ring wraps, the
 * oldest events are overwritten: a trace is a window ending at the
 * interesting moment (a crash, the end of a run), which is exactly
 * what wrapping preserves.
 *
 * Zero-cost discipline (same as the LRPO oracles): components hold a
 * `TraceSink *` that is null unless `SystemConfig::traceEnabled`; every
 * emit site is a null-pointer check.
 */

#ifndef LWSP_TRACE_SINK_HH
#define LWSP_TRACE_SINK_HH

#include <cstddef>
#include <vector>

#include "common/logging.hh"
#include "trace/events.hh"

namespace lwsp {
namespace trace {

class TraceSink
{
  public:
    /**
     * @param capacity ring size in events (power of two not required)
     * @param mask run-time category filter (default: everything)
     */
    explicit TraceSink(std::size_t capacity = defaultCapacity,
                       std::uint32_t mask = allCategories)
        : mask_(mask), ring_(capacity)
    {
        LWSP_ASSERT(capacity > 0, "trace ring needs capacity");
    }

    /** Ring capacity used when the config does not override it. */
    static constexpr std::size_t defaultCapacity = 1u << 16;

    /** @return true if @p c passes the run-time mask. */
    bool
    wants(Category c) const
    {
        return (mask_ & categoryBit(c)) != 0;
    }

    std::uint32_t mask() const { return mask_; }

    /** Record @p e (category-filtered; overwrites the oldest on wrap). */
    void
    emit(const Event &e)
    {
        if (!wants(eventInfo(e.type).category))
            return;
        ring_[head_] = e;
        head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
        ++emitted_;
    }

    /** Events ever accepted (>= size() once the ring has wrapped). */
    std::uint64_t emitted() const { return emitted_; }

    /** Events currently retained. */
    std::size_t
    size() const
    {
        return emitted_ < ring_.size() ? static_cast<std::size_t>(emitted_)
                                       : ring_.size();
    }

    std::size_t capacity() const { return ring_.size(); }
    bool wrapped() const { return emitted_ > ring_.size(); }

    /** Retained events, oldest first (chronological). */
    std::vector<Event>
    snapshot() const
    {
        std::vector<Event> out;
        std::size_t n = size();
        out.reserve(n);
        std::size_t start = wrapped() ? head_ : 0;
        for (std::size_t i = 0; i < n; ++i)
            out.push_back(ring_[(start + i) % ring_.size()]);
        return out;
    }

    void
    clear()
    {
        head_ = 0;
        emitted_ = 0;
    }

  private:
    std::uint32_t mask_;
    std::vector<Event> ring_;
    std::size_t head_ = 0;
    std::uint64_t emitted_ = 0;
};

/**
 * Emit helper for component hook sites: the null-sink test, then the
 * run-time mask inside emit().
 */
inline void
emitIf(TraceSink *sink, const Event &e)
{
    if (sink != nullptr)
        sink->emit(e);
}

} // namespace trace
} // namespace lwsp

#endif // LWSP_TRACE_SINK_HH
