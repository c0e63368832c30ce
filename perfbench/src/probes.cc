#include "probes.hh"

#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "mem/cache.hh"
#include "mem/wpq.hh"
#include "spans.hh"

using namespace lwsp;

namespace perfbench {

namespace {
constexpr unsigned kReps = 5;
} // namespace

double
cacheAccessNs(std::uint64_t seed)
{
    constexpr std::size_t kAccesses = 1u << 18;
    Rng rng(seed ^ 0xcac4e);
    std::vector<Addr> addrs(kAccesses);
    std::vector<bool> writes(kAccesses);
    for (std::size_t i = 0; i < kAccesses; ++i) {
        Addr span = rng.chance(0.7) ? (32u << 10) : (1u << 20);
        addrs[i] = 0x1000'0000ull + rng.below(span / 8) * 8;
        writes[i] = rng.chance(0.3);
    }

    stats::Percentiles ns;
    std::uint64_t hits = 0;
    for (unsigned r = 0; r < kReps; ++r) {
        mem::Cache cache("probe.l1d", mem::CacheConfig{});
        cache.setEvictionFilter(mem::VictimPolicy::Full,
                                [](Addr) { return true; });
        double t0 = hostSeconds();
        for (std::size_t i = 0; i < kAccesses; ++i)
            cache.access(addrs[i], writes[i]);
        ns.sample((hostSeconds() - t0) * 1e9 / kAccesses);
        hits += cache.hits();
    }
    LWSP_ASSERT(hits > 0, "cache probe never hit");
    return ns.p50();
}

double
wpqOpNs(std::uint64_t seed)
{
    constexpr std::size_t kRegions = 1u << 14;
    constexpr unsigned kPerRegion = 8;
    constexpr std::size_t kCapacity = 64;
    Rng rng(seed ^ 0x3b9);
    std::vector<Addr> addrs(kRegions * kPerRegion);
    for (auto &a : addrs)
        a = 0x2000'0000ull + rng.below(128) * 8;

    stats::Percentiles ns;
    std::uint64_t hits = 0;
    for (unsigned r = 0; r < kReps; ++r) {
        mem::Wpq wpq(kCapacity);
        RegionId oldest = 1;
        std::size_t ops = 0;
        double t0 = hostSeconds();
        for (std::size_t g = 0; g < kRegions; ++g) {
            const RegionId region = static_cast<RegionId>(g + 1);
            while (wpq.size() + kPerRegion > kCapacity) {
                while (wpq.popRegion(oldest))
                    ++ops;
                ++oldest;
            }
            for (unsigned k = 0; k < kPerRegion; ++k) {
                mem::PersistEntry e;
                e.addr = addrs[g * kPerRegion + k];
                e.value = g;
                e.region = region;
                if (wpq.search(e.addr))
                    ++hits;
                wpq.push(e);
                ops += 2;
            }
        }
        ns.sample((hostSeconds() - t0) * 1e9 / static_cast<double>(ops));
    }
    LWSP_ASSERT(hits > 0, "WPQ probe never hit");
    return ns.p50();
}

} // namespace perfbench
