#include "cache.hh"

#include <sys/mman.h>

#include <new>
#include <type_traits>

namespace lwsp {
namespace mem {

void
Cache::Unmap::operator()(Line *lines) const
{
    munmap(lines, bytes);
}

Cache::Cache(std::string name, const CacheConfig &cfg)
    : name_(std::move(name)), cfg_(cfg)
{
    static_assert(std::is_trivially_copyable_v<Line> &&
                      std::is_trivially_destructible_v<Line>,
                  "tag lines live in raw zero pages");
    LWSP_ASSERT(cfg.assoc > 0, "cache assoc must be positive");
    LWSP_ASSERT(cfg.assoc <= maxAssoc, "cache assoc above ", maxAssoc);
    LWSP_ASSERT(cfg.sizeBytes % (cachelineBytes * cfg.assoc) == 0,
                "cache size not divisible into sets");
    numSets_ = cfg.sizeBytes / (cachelineBytes * cfg.assoc);
    LWSP_ASSERT(isPowerOf2(numSets_), "cache sets must be a power of two");
    const std::size_t bytes = numSets_ * cfg.assoc * sizeof(Line);
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    lines_ = std::unique_ptr<Line[], Unmap>(static_cast<Line *>(p),
                                            Unmap{bytes});
}

std::size_t
Cache::setIndex(Addr addr) const
{
    return (addr / cachelineBytes) & (numSets_ - 1);
}

bool
Cache::present(Addr addr) const
{
    Addr tag = lineAddr(addr);
    std::size_t base = setIndex(addr) * cfg_.assoc;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        const Line &l = lines_[base + w];
        if (l.valid && l.tag == tag)
            return true;
    }
    return false;
}

void
Cache::invalidate(Addr addr)
{
    Addr tag = lineAddr(addr);
    std::size_t base = setIndex(addr) * cfg_.assoc;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        Line &l = lines_[base + w];
        if (l.valid && l.tag == tag) {
            l.valid = false;
            l.dirty = false;
        }
    }
}

void
Cache::invalidateAll()
{
    // A private anonymous page reads as zeros again once dropped.
    const int rc = madvise(lines_.get(), lines_.get_deleter().bytes,
                           MADV_DONTNEED);
    LWSP_ASSERT(rc == 0, "madvise on the tag store failed");
}

Cache::AccessResult
Cache::access(Addr addr, bool is_write)
{
    AccessResult res;
    Addr tag = lineAddr(addr);
    std::size_t base = setIndex(addr) * cfg_.assoc;
    ++clock_;

    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        Line &l = lines_[base + w];
        if (l.valid && l.tag == tag) {
            l.lruStamp = clock_;
            l.dirty = l.dirty || is_write;
            ++counters_.hits;
            res.hit = true;
            return res;
        }
    }
    ++counters_.misses;

    // Choose a victim: invalid way first, else LRU order subject to the
    // snoop filter for dirty victims.
    int victim = -1;
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (!lines_[base + w].valid) {
            victim = static_cast<int>(w);
            break;
        }
    }

    if (victim < 0) {
        // Ways sorted by LRU stamp ascending (oldest first).
        std::array<unsigned, maxAssoc> order{};
        for (unsigned w = 0; w < cfg_.assoc; ++w)
            order[w] = w;
        for (unsigned i = 1; i < cfg_.assoc; ++i) {
            for (unsigned j = i; j > 0 &&
                 lines_[base + order[j]].lruStamp <
                     lines_[base + order[j - 1]].lruStamp; --j) {
                std::swap(order[j], order[j - 1]);
            }
        }

        unsigned scan_limit = cfg_.assoc;
        if (policy_ == VictimPolicy::Half)
            scan_limit = (cfg_.assoc + 1) / 2;
        else if (policy_ == VictimPolicy::Zero)
            scan_limit = 1;

        bool filter_active = canEvict_ && policy_ != VictimPolicy::None;
        unsigned tried = 0;
        for (unsigned idx = 0; idx < cfg_.assoc && victim < 0; ++idx) {
            unsigned w = order[idx];
            const Line &cand = lines_[base + w];
            if (filter_active && cand.dirty && !canEvict_(cand.tag)) {
                ++counters_.bufferConflicts;
                ++tried;
                if (tried >= scan_limit)
                    break;
                continue;
            }
            victim = static_cast<int>(w);
            if (idx > 0)
                res.victimDiverted = true;
        }
        if (victim < 0) {
            // Every scannable way conflicts (or Zero policy): the access
            // must wait for the front-end buffer to drain.
            res.blocked = true;
            --counters_.misses;  // the retry will re-count
            return res;
        }
        if (res.victimDiverted)
            ++counters_.divertedVictims;
    }

    Line &l = lines_[base + victim];
    if (l.valid && l.dirty) {
        res.evictedDirty = true;
        res.evictedLine = l.tag;
    }
    l.valid = true;
    l.dirty = is_write;
    l.tag = tag;
    l.lruStamp = clock_;
    return res;
}

} // namespace mem
} // namespace lwsp
