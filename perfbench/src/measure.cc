#include "measure.hh"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <unordered_map>

#include "spans.hh"

namespace perfbench {

Tail
tailPercentile(std::vector<double> v, std::size_t beyond)
{
    Tail t;
    t.n = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    t.rank = t.n > beyond ? t.n - beyond : 1;
    t.value = v[t.rank - 1];
    t.percentile =
        100.0 * static_cast<double>(t.rank) / static_cast<double>(t.n);
    return t;
}

namespace {

/** 16 Ki pseudo-random words, the same on every host (64 KiB). */
std::vector<std::uint32_t>
makeTable()
{
    std::vector<std::uint32_t> table(1u << 14);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto &w : table) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        w = static_cast<std::uint32_t>(x >> 32);
    }
    return table;
}

/** Unpredictable branches on words drawn from @p table. */
std::uint64_t
branchKernel(const std::vector<std::uint32_t> &table)
{
    std::uint64_t s = 0;
    std::uint32_t x = 1;
    for (std::uint32_t k = 0; k < 200000; ++k) {
        x = x * 1664525u + 1013904223u;
        const std::uint32_t v = table[x >> 18];
        if (v & 1)
            s += v;
        else
            s ^= v << 1;
        if (v & 2)
            s *= 3;
        if (v & 8)
            s += k;
    }
    return s;
}

/** Inserts into a fresh hash map, then as many lookups. */
std::uint64_t
mapKernel()
{
    std::unordered_map<std::uint32_t, std::uint32_t> m;
    std::uint32_t x = 7;
    std::uint64_t s = 0;
    for (std::uint32_t k = 0; k < 8000; ++k) {
        x = x * 1664525u + 1013904223u;
        m[x >> 12] += k;
    }
    for (std::uint32_t k = 0; k < 8000; ++k) {
        x = x * 1664525u + 1013904223u;
        auto it = m.find(x >> 12);
        if (it != m.end())
            s += it->second;
    }
    return s + m.size();
}

volatile std::uint64_t gaugeSink;

} // namespace

double
gaugeSeconds()
{
    static const std::vector<std::uint32_t> table = makeTable();
    // Untimed: bring the table back into cache after the simulator ran.
    gaugeSink = std::accumulate(table.begin(), table.end(), std::uint64_t{0});
    double t0 = hostSeconds();
    gaugeSink = branchKernel(table) ^ mapKernel();
    return hostSeconds() - t0;
}

double
atReferenceSpeed(double seconds, double gauge)
{
    return gauge > 0 ? seconds * kGaugeRefSeconds / gauge : seconds;
}

std::uint64_t
fnv1a(const std::string &text, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace perfbench
