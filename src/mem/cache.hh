/**
 * @file
 * Set-associative cache timing model (tags only; data is functional).
 *
 * Supports the buffer-snooping victim-selection policies of paper §IV-G /
 * §V-F3: on a miss needing an eviction, an external filter can veto dirty
 * victims whose line conflicts with the front-end buffer. Depending on the
 * policy the cache scans all ways (Full), half the ways (Half), or refuses
 * to evict (Zero), in which case the access reports `blocked` and the core
 * must retry.
 */

#ifndef LWSP_MEM_CACHE_HH
#define LWSP_MEM_CACHE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>

#include "common/intmath.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace lwsp {
namespace mem {

/** How many ways the snoop-conflict victim scan may inspect. */
enum class VictimPolicy : std::uint8_t
{
    Full,  ///< scan every way for a conflict-free victim (default)
    Half,  ///< scan only half the ways
    Zero,  ///< never divert: block until the conflicting entry drains
    None,  ///< snooping disabled entirely (the stale-load configuration)
};

struct CacheConfig
{
    std::size_t sizeBytes = 64 * 1024;
    unsigned assoc = 8;
    unsigned latency = 4;          ///< hit latency in cycles
};

class Cache
{
  public:
    /** Widest set the LRU victim sort handles (L1d is 8-way, L2 16). */
    static constexpr unsigned maxAssoc = 64;

    struct AccessResult
    {
        bool hit = false;
        bool blocked = false;       ///< Zero-policy conflict: retry later
        bool evictedDirty = false;  ///< a dirty line was displaced
        Addr evictedLine = invalidAddr;
        bool victimDiverted = false; ///< LRU victim vetoed, another chosen
    };

    Cache(std::string name, const CacheConfig &cfg);

    /**
     * Access @p addr; allocate on miss. @p is_write marks the line dirty.
     * Applies the eviction filter (if any) when displacing a dirty line.
     */
    AccessResult access(Addr addr, bool is_write);

    /** @return true if the line containing @p addr is present. */
    bool present(Addr addr) const;

    /** Drop the line containing @p addr, if present (no writeback). */
    void invalidate(Addr addr);

    /**
     * Drop every line (power failure: caches are volatile). The tag
     * store goes back to untouched zero pages.
     */
    void invalidateAll();

    /**
     * Install the snoop filter: @p can_evict returns false when the dirty
     * line's data still sits in the front-end buffer (buffer conflict).
     */
    void
    setEvictionFilter(VictimPolicy policy,
                      std::function<bool(Addr line)> can_evict)
    {
        policy_ = policy;
        canEvict_ = std::move(can_evict);
    }

    unsigned latency() const { return cfg_.latency; }

    /** The cache's counters: exactly what resetStats() zeroes. */
    struct Counters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t bufferConflicts = 0;  ///< dirty victims vetoed
        std::uint64_t divertedVictims = 0;  ///< LRU victim moved to clean

        static constexpr auto
        fields()
        {
            using C = Counters;
            return std::to_array<stats::Counter<C>>({
                {"hits", &C::hits},
                {"misses", &C::misses},
                {"bufferConflicts", &C::bufferConflicts},
                {"divertedVictims", &C::divertedVictims},
            });
        }
    };

    const Counters &counters() const { return counters_; }
    std::uint64_t hits() const { return counters_.hits; }

    void resetStats() { counters_ = {}; }

    const std::string &name() const { return name_; }

  private:
    /** All-zero bytes are an invalid line: what an untouched page holds. */
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        Addr tag = 0;
        std::uint64_t lruStamp = 0;
    };

    /** Returns the tag store's pages to the kernel. */
    struct Unmap
    {
        std::size_t bytes;
        void operator()(Line *lines) const;
    };

    Addr lineAddr(Addr addr) const { return alignDown(addr, cachelineBytes); }
    std::size_t setIndex(Addr addr) const;

    std::string name_;
    CacheConfig cfg_;
    std::size_t numSets_;
    /**
     * numSets_ * assoc lines, row-major by set, in anonymous zero pages:
     * a page costs memory only once a line on it is written, so a 16 MB
     * DRAM cache's 6 MB of tags cost what a run touches.
     */
    std::unique_ptr<Line[], Unmap> lines_;
    std::uint64_t clock_ = 0;  // LRU stamp source

    VictimPolicy policy_ = VictimPolicy::None;
    std::function<bool(Addr)> canEvict_;

    Counters counters_;
};

} // namespace mem
} // namespace lwsp

#endif // LWSP_MEM_CACHE_HH
