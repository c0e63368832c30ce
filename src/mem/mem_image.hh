/**
 * @file
 * Functional memory image: a sparse, paged 64-bit-word store.
 *
 * Two images exist per simulated system: the execution image (what loads
 * observe) and the PM image (updated only when the WPQ releases an entry
 * to persistent memory). Crash-consistency checks compare and clone these.
 */

#ifndef LWSP_MEM_MEM_IMAGE_HH
#define LWSP_MEM_MEM_IMAGE_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace lwsp {
namespace mem {

class MemImage
{
  public:
    static constexpr unsigned pageShift = 12;  // 4 KiB pages
    static constexpr Addr pageWords = (1ull << pageShift) / 8;

    /** Read the 8-byte word at @p addr (must be 8B aligned; 0 if untouched). */
    std::uint64_t
    read(Addr addr) const
    {
        LWSP_ASSERT((addr & 7) == 0, "unaligned read 0x", std::hex, addr);
        auto it = pages_.find(addr >> pageShift);
        if (it == pages_.end())
            return 0;
        return it->second[(addr >> 3) & (pageWords - 1)];
    }

    /** Write the 8-byte word at @p addr (must be 8B aligned). */
    void
    write(Addr addr, std::uint64_t value)
    {
        LWSP_ASSERT((addr & 7) == 0, "unaligned write 0x", std::hex, addr);
        auto &page = pages_[addr >> pageShift];
        if (page.empty())
            page.assign(pageWords, 0);
        page[(addr >> 3) & (pageWords - 1)] = value;
        if (!poisoned_.empty())
            poisoned_.erase(addr);
    }

    // ---- PM media errors (fault injection) ---------------------------
    /**
     * Mark the word at @p addr as a media read error: the device flags
     * it (like a DIMM returning a poison ECC code) and its data are
     * garbage. A fresh write to the address heals it. The stored value
     * is left as-is — the injector scrambles it separately, so code that
     * ignores the flag observes corrupt data rather than a crash.
     */
    void poison(Addr addr) { poisoned_.insert(addr); }

    bool isPoisoned(Addr addr) const { return poisoned_.count(addr) != 0; }

    /** Deep copy (crash-recovery runs re-execute on a cloned PM image). */
    MemImage clone() const { return *this; }

    /**
     * Compare against @p other over the union of touched pages.
     * @return list of differing addresses (capped at @p max_diffs)
     */
    std::vector<Addr>
    diff(const MemImage &other, std::size_t max_diffs = 16) const
    {
        std::vector<Addr> out;
        auto scan = [&](const MemImage &a, const MemImage &b) {
            for (const auto &[pageno, words] : a.pages_) {
                for (Addr i = 0; i < pageWords; ++i) {
                    Addr addr = (pageno << pageShift) | (i << 3);
                    if (words[i] != b.read(addr)) {
                        bool seen = false;
                        for (Addr d : out)
                            seen = seen || d == addr;
                        if (!seen)
                            out.push_back(addr);
                        if (out.size() >= max_diffs)
                            return;
                    }
                }
            }
        };
        scan(*this, other);
        if (out.size() < max_diffs)
            scan(other, *this);
        return out;
    }

    /**
     * diff() restricted to [lo, hi): used to compare application data
     * while ignoring checkpoint storage and stacks, whose final contents
     * may legitimately differ across thread interleavings.
     */
    std::vector<Addr>
    diffInRange(const MemImage &other, Addr lo, Addr hi,
                std::size_t max_diffs = 16) const
    {
        std::vector<Addr> out;
        for (Addr addr : diff(other, 4096)) {
            if (addr >= lo && addr < hi) {
                out.push_back(addr);
                if (out.size() >= max_diffs)
                    break;
            }
        }
        return out;
    }

  private:
    std::unordered_map<Addr, std::vector<std::uint64_t>> pages_;
    std::unordered_set<Addr> poisoned_;
};

} // namespace mem
} // namespace lwsp

#endif // LWSP_MEM_MEM_IMAGE_HH
