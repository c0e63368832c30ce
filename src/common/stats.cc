#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>

namespace lwsp {
namespace stats {

double
Percentiles::percentile(double q) const
{
    LWSP_ASSERT(q >= 0.0 && q <= 1.0, "percentile rank out of [0,1]");
    if (samples_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    // Nearest-rank: rank ceil(q*n), 1-based, clamped to [1, n].
    auto n = samples_.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank < 1)
        rank = 1;
    if (rank > n)
        rank = n;
    return samples_[rank - 1];
}

double
Percentiles::max() const
{
    if (samples_.empty())
        return 0.0;
    if (sorted_)
        return samples_.back();
    return *std::max_element(samples_.begin(), samples_.end());
}

double
Percentiles::mean() const
{
    if (samples_.empty())
        return 0.0;
    double sum = 0;
    for (double v : samples_)
        sum += v;
    return sum / static_cast<double>(samples_.size());
}

namespace {

/** JSON number (JSON has no NaN/Inf — those become null). */
void
jsonNum(std::ostream &os, double v)
{
    if (std::isfinite(v))
        os << std::setprecision(12) << v;
    else
        os << "null";
}

} // namespace

void
StatGroup::dumpJson(std::ostream &os) const
{
    os << '{';
    bool first = true;
    auto key = [&](const std::string &stat) -> std::ostream & {
        if (!first)
            os << ',';
        first = false;
        os << '"' << stat << "\":";
        return os;
    };

    for (const auto &[stat, dist] : dists_) {
        const Distribution &d = *dist;
        key(stat);
        os << "{\"mean\":";
        jsonNum(os, d.summary().mean());
        os << ",\"min\":";
        jsonNum(os, d.summary().min());
        os << ",\"max\":";
        jsonNum(os, d.summary().max());
        os << ",\"count\":" << d.summary().count()
           << ",\"underflow\":" << d.underflow()
           << ",\"overflow\":" << d.overflow() << ",\"buckets\":[";
        for (std::size_t i = 0; i < d.buckets().size(); ++i) {
            if (i)
                os << ',';
            os << d.buckets()[i];
        }
        os << "]}";
    }
    for (const auto &[stat, fn] : funcs_) {
        key(stat);
        jsonNum(os, fn());
    }
    os << '}';
}

double
StatGroup::value(std::string_view stat) const
{
    if (auto it = funcs_.find(stat); it != funcs_.end())
        return it->second();
    std::size_t dot = stat.rfind('.');
    auto it = dot == std::string_view::npos
                  ? dists_.end()
                  : dists_.find(stat.substr(0, dot));
    if (it != dists_.end()) {
        const Average &a = it->second->summary();
        std::string_view field = stat.substr(dot + 1);
        if (field == "sum")
            return a.sum();
        if (field == "count")
            return static_cast<double>(a.count());
        if (field == "max")
            return a.max();
    }
    panic("StatGroup ", name_, " has no stat '", stat, "'");
}

StatGroup &
Registry::group(const std::string &name)
{
    auto it = index_.find(name);
    if (it != index_.end())
        return *groups_[it->second];
    index_.emplace(name, groups_.size());
    groups_.push_back(std::make_unique<StatGroup>(name));
    return *groups_.back();
}

void
Registry::dumpJson(std::ostream &os) const
{
    os << '{';
    bool first = true;
    for (const auto &g : groups_) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << g->name() << "\":";
        g->dumpJson(os);
    }
    os << '}';
}

double
geomean(const std::vector<double> &values)
{
    LWSP_ASSERT(!values.empty(), "geomean of empty set");
    double log_sum = 0;
    for (double v : values) {
        LWSP_ASSERT(v > 0, "geomean requires positive values");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace stats
} // namespace lwsp
