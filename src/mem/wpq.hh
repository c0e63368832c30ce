/**
 * @file
 * The battery-backed write pending queue (WPQ) used as LightWSP's redo
 * buffer. Entries are 8B granules tagged with region IDs; the owning
 * memory controller flushes them to PM strictly in region order. Supports
 * the CAM operations the paper needs: per-address search for LLC-miss
 * handling (§IV-H) and line-granular conflict checks.
 */

#ifndef LWSP_MEM_WPQ_HH
#define LWSP_MEM_WPQ_HH

#include <array>
#include <deque>
#include <optional>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "mem/persist.hh"

namespace lwsp {
namespace mem {

class Wpq
{
  public:
    explicit Wpq(std::size_t capacity) : capacity_(capacity)
    {
        LWSP_ASSERT(capacity > 0, "WPQ capacity must be positive");
    }

    bool full() const { return entries_.size() >= capacity_; }
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return capacity_; }

    /**
     * Insert an entry. @p allow_overflow permits exceeding capacity,
     * which the deadlock-resolution fallback needs (paper §IV-D
     * "exceptionally lets the WPQ overflow").
     */
    void
    push(const PersistEntry &e, bool allow_overflow = false)
    {
        LWSP_ASSERT(allow_overflow || !full(),
                    "WPQ overflow without fallback");
        entries_.push_back(e);
        ++counters_.pushes;
    }

    /** Pop the overall oldest entry (ungated FIFO mode). */
    std::optional<PersistEntry>
    popFront()
    {
        if (entries_.empty())
            return std::nullopt;
        PersistEntry e = entries_.front();
        entries_.pop_front();
        ++counters_.pops;
        return e;
    }

    /**
     * CAM search: newest entry matching the 8B address (the value a load
     * would need). @return the entry value, or nullopt on miss.
     */
    std::optional<std::uint64_t>
    search(Addr addr) const
    {
        ++counters_.searches;
        for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
            if (it->addr == addr) {
                ++counters_.searchHits;
                return it->value;
            }
        }
        return std::nullopt;
    }

    /** @return true if any entry falls within the cacheline at @p line. */
    bool
    containsLine(Addr line) const
    {
        for (const auto &e : entries_) {
            if (alignDown(e.addr, cachelineBytes) == line)
                return true;
        }
        return false;
    }

    /** Smallest region id present; invalidRegion when empty. */
    RegionId
    minRegion() const
    {
        RegionId min = invalidRegion;
        for (const auto &e : entries_) {
            if (e.region < min)
                min = e.region;
        }
        return min;
    }

    bool
    hasRegion(RegionId r) const
    {
        for (const auto &e : entries_) {
            if (e.region == r)
                return true;
        }
        return false;
    }

    /** Pop the oldest entry of region @p r (FIFO within a region). */
    std::optional<PersistEntry>
    popRegion(RegionId r)
    {
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->region == r) {
                PersistEntry e = *it;
                entries_.erase(it);
                ++counters_.pops;
                return e;
            }
        }
        return std::nullopt;
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const auto &e : entries_)
            fn(e);
    }

    /**
     * Mutable entry access for the fault layer (crash-time bit flips and
     * torn writes land directly in the battery-backed queue cells).
     */
    PersistEntry &
    entryAt(std::size_t i)
    {
        LWSP_ASSERT(i < entries_.size(), "Wpq::entryAt out of range");
        return entries_[i];
    }

    /** Smallest region with an ECC-damaged entry; invalidRegion if none. */
    RegionId
    minDamagedRegion() const
    {
        RegionId min = invalidRegion;
        for (const auto &e : entries_) {
            if (e.ecc != 0 && e.region < min)
                min = e.region;
        }
        return min;
    }

    void clear() { entries_.clear(); }

    // ---- Statistics ------------------------------------------------------
    /** The queue's counters: exactly what resetStats() zeroes. */
    struct Counters
    {
        std::uint64_t pushes = 0;      ///< entries enqueued
        std::uint64_t pops = 0;        ///< entries dequeued
        std::uint64_t searches = 0;    ///< CAM searches
        std::uint64_t searchHits = 0;  ///< CAM search hits

        static constexpr auto
        fields()
        {
            using C = Counters;
            return std::to_array<stats::Counter<C>>({
                {"pushes", &C::pushes},
                {"pops", &C::pops},
                {"searches", &C::searches},
                {"searchHits", &C::searchHits},
            });
        }
    };

    const Counters &counters() const { return counters_; }

    void resetStats() { counters_ = {}; }

  private:
    std::size_t capacity_;
    std::deque<PersistEntry> entries_;
    // search() is const (a lookup); its CAM-port counters are
    // bookkeeping.
    mutable Counters counters_;
};

} // namespace mem
} // namespace lwsp

#endif // LWSP_MEM_WPQ_HH
