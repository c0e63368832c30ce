/**
 * @file
 * The benchmark's three workloads, each a fixed list of simulation
 * points the driver runs serially, one after another, on one thread:
 *
 *  - paper-apps:  the fig07 grid (quick app set) x {baseline, capri,
 *                 ppa, lightwsp} on the default 2-MC machine;
 *  - scaleout:    a slice of the fig23 grid, many-MC flat and tree
 *                 fabrics, fault-free and with 10% broadcast loss;
 *  - serve-crash: fig21 traced service tapes under all five schemes,
 *                 folded over the arrival grid, plus fig22 storm
 *                 lifetimes (crash, interrupted drain, checked recovery,
 *                 MTTR probe, rerun).
 *
 * Every point checks its own outputs: it must complete, pds/serve
 * points must pass the semantic oracle, fault-free storm images must
 * recover, and on the default seed its numbers must equal its row in
 * the committed reference CSVs. Any other seed re-draws the serve-crash
 * storm tapes, storm schedules and storm fault seeds, and skips the
 * reference rows.
 */

#ifndef LWSP_PERFBENCH_SUITES_HH
#define LWSP_PERFBENCH_SUITES_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace lwsp::core {
class System;
struct RunResult;
} // namespace lwsp::core

namespace perfbench {

/** The seed whose inputs are those of the committed reference CSVs. */
constexpr std::uint64_t kDefaultSeed = 0;

/**
 * @p reference on the default seed, else a value drawn from (@p seed,
 * @p tag): how every seeded input (tape, storm, fault seed) is derived.
 */
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t tag,
                         std::uint64_t reference);

struct Options
{
    std::uint64_t seed = kDefaultSeed;
    std::string resultsDir = "results";  ///< committed reference CSVs
};

/** Layer counts summed over one traced pass (registry-backed). */
struct LayerCounts
{
    double compileOutputInsts = 0;
    double compileBoundaries = 0;
    double compileFixpointIters = 0;
    double cpuInsts = 0;
    double boundaryWaitCycles = 0;
    double bufferFullCycles = 0;  ///< store buffer + front-end buffer
    double l1Hits = 0;
    double l1Misses = 0;
    double wpqPushes = 0;
    double wpqSearches = 0;
    double wpqSearchHits = 0;
    double fallbackFlushes = 0;
    double maxWpqOccupancy = 0;   ///< max, not sum
    double nocMessages = 0;
    double nocBoundaries = 0;
    double bcastRetries = 0;
    double traceEvents = 0;
    double runCycles = 0;         ///< cycles advanced inside System::run
    double oracleChecks = 0;
    double recoveries = 0;
    double recoveriesDegraded = 0;
    double failuresFired = 0;
    double boots = 0;

    /** Add @p sys's registry counters and @p last's retry count. */
    void absorb(const lwsp::core::System &sys,
                const lwsp::core::RunResult &last);
};

/** What one point produced. */
struct PointResult
{
    std::string error;          ///< "" when every check passed
    std::uint64_t digest = 0;   ///< of every simulated number it produced
    double cycles = 0;          ///< simulated cycles, warm-up included
    double insts = 0;           ///< instructions retired after warm-up
};

class Suite
{
  public:
    virtual ~Suite() = default;

    /** Build the shared one-off inputs; calling it again rebuilds them. */
    virtual void setup(const Options &opt) = 0;

    virtual std::size_t size() const = 0;
    virtual std::string pointName(std::size_t i) const = 0;

    /** Run point @p i; @p counts is non-null on traced passes. */
    virtual PointResult run(std::size_t i, LayerCounts *counts) = 0;

    /**
     * Simulated design outcomes of the points run so far (deterministic
     * in the seed), keyed by metric name.
     */
    virtual std::map<std::string, double> outcomes() const = 0;
};

/** @return the named workload, or null when the name is unknown. */
std::unique_ptr<Suite> makeSuite(const std::string &name);

} // namespace perfbench

#endif // LWSP_PERFBENCH_SUITES_HH
