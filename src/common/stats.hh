/**
 * @file
 * A small statistics package modelled on gem5's: averages, histograms
 * and exact percentiles; per-component counter tables; and a registry
 * of named stat groups that dumps as one stable JSON object.
 */

#ifndef LWSP_COMMON_STATS_HH
#define LWSP_COMMON_STATS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "logging.hh"

namespace lwsp {
namespace stats {

/** Running mean/min/max over sampled values. */
class Average
{
  public:
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
        if (count_ == 1 || v < min_)
            min_ = v;
        if (count_ == 1 || v > max_)
            max_ = v;
    }

    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    void
    reset()
    {
        sum_ = min_ = max_ = 0;
        count_ = 0;
    }

  private:
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
    std::uint64_t count_ = 0;
};

/** Fixed-bucket histogram over [lo, hi) with overflow/underflow buckets. */
class Distribution
{
  public:
    Distribution() : Distribution(0, 1, 1) {}

    Distribution(double lo, double hi, unsigned buckets)
        : lo_(lo), hi_(hi), counts_(buckets, 0)
    {
        LWSP_ASSERT(hi > lo && buckets > 0, "bad Distribution bounds");
    }

    void
    sample(double v)
    {
        avg_.sample(v);
        if (v < lo_) {
            ++underflow_;
        } else if (v >= hi_) {
            ++overflow_;
        } else {
            auto idx = static_cast<std::size_t>(
                (v - lo_) / (hi_ - lo_) * counts_.size());
            if (idx >= counts_.size())
                idx = counts_.size() - 1;
            ++counts_[idx];
        }
    }

    const Average &summary() const { return avg_; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    const std::vector<std::uint64_t> &buckets() const { return counts_; }

    void
    reset()
    {
        avg_.reset();
        underflow_ = overflow_ = 0;
        for (auto &c : counts_)
            c = 0;
    }

  private:
    double lo_;
    double hi_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    Average avg_;
};

/**
 * Exact percentile accumulator: stores every sample and sorts lazily at
 * query time. Intended for request-latency style populations (thousands
 * to low millions of samples) where tail quantiles must be exact, not
 * sketch approximations — p999 over a 10k-request tape is 10 samples,
 * well inside sketch error bars.
 */
class Percentiles
{
  public:
    void
    sample(double v)
    {
        samples_.push_back(v);
        sorted_ = false;
    }

    /**
     * Exact quantile by the nearest-rank method: the smallest sample
     * such that at least ceil(q * count) samples are <= it. q in [0,1];
     * returns 0 for an empty population.
     */
    double percentile(double q) const;

    double p50() const { return percentile(0.50); }
    double p90() const { return percentile(0.90); }
    double p99() const { return percentile(0.99); }
    double p999() const { return percentile(0.999); }
    double max() const;
    double mean() const;
    std::uint64_t count() const { return samples_.size(); }

    void
    reset()
    {
        samples_.clear();
        sorted_ = false;
    }

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = false;
};

/**
 * One row of a component's counter table: the dump name of one member
 * of its `Counters` struct. A component declares each counter once, as
 * a member, and names it once, as a row of `Counters::fields()`;
 * registration (StatGroup::addCounters) and reset (`counters_ = {}`)
 * both derive from that pair.
 */
template <typename C>
struct Counter
{
    const char *name;
    std::variant<std::uint64_t C::*, Distribution C::*> member;
};

/**
 * Bytes the members named by @p rows occupy: sizeof(C) exactly when
 * every member has a row.
 */
template <typename C, std::size_t N>
constexpr std::size_t
counterBytes(const std::array<Counter<C>, N> &rows)
{
    std::size_t bytes = 0;
    for (const Counter<C> &r : rows)
        bytes += r.member.index() == 0 ? sizeof(std::uint64_t)
                                       : sizeof(Distribution);
    return bytes;
}

/**
 * Owner of a component's named statistics: distributions and
 * callback-backed values, both read at dump time.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void
    addDistribution(const std::string &stat_name, const Distribution *d)
    {
        dists_.emplace(stat_name, d);
    }

    /** Register a callback-backed stat: the value is computed at dump time. */
    void
    addFunc(const std::string &stat_name, std::function<double()> fn)
    {
        funcs_.emplace(stat_name, std::move(fn));
    }

    /**
     * Register every row of `C::fields()` read from @p c, which must
     * outlive this group's dumps. A member added to C without a row
     * fails the build here.
     */
    template <typename C>
    void
    addCounters(const C &c)
    {
        static_assert(counterBytes(C::fields()) == sizeof(C),
                      "give every counter member a fields() row");
        for (const Counter<C> &row : C::fields()) {
            if (const auto *m = std::get_if<0>(&row.member)) {
                const std::uint64_t *v = &(c.*(*m));
                addFunc(row.name, [v] { return static_cast<double>(*v); });
            } else {
                addDistribution(row.name, &(c.*std::get<1>(row.member)));
            }
        }
    }

    /** Dump as one JSON object: {"dist": {...}, ..., "stat": value, ...}. */
    void dumpJson(std::ostream &os) const;

    const std::string &name() const { return name_; }

    /**
     * Value of the stat with dump name @p stat: a func stat, or a
     * distribution's "<dist>.sum", "<dist>.count" or "<dist>.max".
     * Panics if there is none.
     */
    double value(std::string_view stat) const;

    /** value() of a func stat (the older, typed name). */
    double funcValue(const std::string &s) const { return value(s); }

  private:
    std::string name_;
    std::map<std::string, const Distribution *, std::less<>> dists_;
    std::map<std::string, std::function<double()>, std::less<>> funcs_;
};

/**
 * Ordered collection of StatGroups — one per component of a system.
 * Groups are created on demand and dumped in creation order as a single
 * JSON object keyed by group.
 */
class Registry
{
  public:
    /** Get or create the group named @p name (stable reference). */
    StatGroup &group(const std::string &name);

    /** {"group": {...}, ...} — the JSON run-report stats section. */
    void dumpJson(std::ostream &os) const;

    std::size_t numGroups() const { return groups_.size(); }

    /** Every group, in creation order. */
    const auto &groups() const { return groups_; }

  private:
    std::vector<std::unique_ptr<StatGroup>> groups_;
    std::map<std::string, std::size_t> index_;
};

/** Geometric mean of positive values; panics on empty input. */
double geomean(const std::vector<double> &values);

} // namespace stats
} // namespace lwsp

#endif // LWSP_COMMON_STATS_HH
