/**
 * @file
 * Parallel experiment-sweep engine.
 *
 * Every figure/table reproduction is a sweep over independent
 * (workload x scheme x config) simulation points. SweepExecutor fans a
 * spec list out across worker threads with a shared claim counter
 * (work-stealing at point granularity: whichever worker frees up first
 * takes the next unclaimed index), while results land in a vector slot
 * per input index — so the output order, and therefore every table, CSV
 * byte and geomean, is identical to a serial sweep regardless of job
 * count or scheduling. Points themselves are deterministic: each
 * simulation seeds its RNGs from its own spec (no global RNG, no shared
 * mutable state beyond the Runner's mutex-guarded memo), which is what
 * makes "parallel == serial, bit for bit" a contract rather than a hope.
 *
 * The executor also keeps wall-clock/throughput telemetry per sweep and
 * accumulated across the binary's lifetime, emitted as a BENCH_sweep.json
 * record to track the repo's performance trajectory.
 */

#ifndef LWSP_HARNESS_SWEEP_HH
#define LWSP_HARNESS_SWEEP_HH

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "harness/runner.hh"

namespace lwsp {
namespace harness {

/**
 * Run @p fn(i) for every i in [0, n) on up to @p jobs threads. Order of
 * execution is unspecified; the call returns once every index finished.
 * The first exception thrown by any index is rethrown to the caller
 * (after all workers have joined). jobs <= 1 degenerates to a plain
 * serial loop with no thread machinery.
 */
void parallelFor(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)> &fn);

/** Wall-clock/throughput instrumentation for one or more sweeps. */
struct SweepStats
{
    unsigned jobs = 1;
    std::size_t points = 0;            ///< simulation points dispatched
    double wallSeconds = 0.0;
    std::uint64_t simulatedCycles = 0; ///< sum of per-point cycle counts

    double
    pointsPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(points) / wallSeconds
                   : 0.0;
    }

    /** Simulator throughput: simulated cycles retired per wall second. */
    double
    cyclesPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(simulatedCycles) / wallSeconds
                   : 0.0;
    }
};

/**
 * One executed experiment point, retained for run-report emission. The
 * key, workload label and scheme name are fixed when the record is made
 * (specKey for RunSpec points; the point's own spec string for generated
 * programs), so writing a report never resolves a workload by name.
 */
struct RunRecord
{
    std::string key;       ///< canonical point key, unique per point
    std::string workload;  ///< workload label
    std::string scheme;    ///< scheme name
    RunOutcome outcome;
};

/** What a runPoints() callback returns for its point. */
struct PointRun
{
    RunRecord record;
    /** Cycles of every simulation the point ran (a point may run
     *  several, e.g. a crash-free golden run plus a recovery probe). */
    std::uint64_t simulatedCycles = 0;
};

class SweepExecutor
{
  public:
    /** @param jobs worker threads; 0 = std::thread::hardware_concurrency */
    explicit SweepExecutor(unsigned jobs = 0);

    /**
     * Execute every spec through @p runner, one runPoints point per
     * spec. Result i corresponds to specs[i]; bit-identical to calling
     * runner.run(specs[i]) in order.
     */
    std::vector<RunOutcome> runAll(Runner &runner,
                                   const std::vector<RunSpec> &specs);

    /**
     * Slowdown-vs-baseline for every spec (deterministic order). The
     * Baseline runs are claimed as runPoints points of their own first,
     * so distinct baselines compute in parallel instead of serializing
     * behind the memo of whichever scheme point asked first.
     */
    std::vector<double> slowdowns(Runner &runner,
                                  const std::vector<RunSpec> &specs);

    /**
     * Execute @p n points: point(i) simulates point i however it needs
     * to and returns its record. Returns the records in input order,
     * sets lastStats() and keeps each new key in runRecords(). The one
     * sweep primitive: runAll and slowdowns are runPoints over RunSpecs.
     * @p point runs on worker threads, so it may write only state owned
     * by index i.
     */
    std::vector<RunRecord>
    runPoints(std::size_t n,
              const std::function<PointRun(std::size_t)> &point);

    /** Telemetry for the most recent runAll/slowdowns/runPoints call. */
    const SweepStats &lastStats() const { return last_; }

    /** Telemetry accumulated over every sweep this executor ran. */
    const SweepStats &totalStats() const { return total_; }

    /**
     * Every point executed by this executor (baselines included),
     * deduplicated by record key in first-execution order.
     */
    const std::vector<RunRecord> &runRecords() const { return records_; }

  private:
    unsigned jobs_;
    SweepStats last_;
    SweepStats total_;
    std::vector<RunRecord> records_;
    std::set<std::string> recordedKeys_;
};

/**
 * Write one BENCH_sweep.json record (single-line JSON object so shell
 * aggregation in scripts/bench_all.sh stays trivial). It carries the
 * process's suppressedWarnings() count, so a quiet bench whose runs
 * warned (a cycle-cap hit, say) still leaves a trace.
 */
void writeSweepJson(const std::string &path, const std::string &bench,
                    const SweepStats &stats);

/**
 * Versioned machine-readable run report: one record per distinct
 * simulation point with its canonical spec key, resolved configuration
 * axes, compile stats and the full RunResult, plus a cross-run
 * cycles-percentiles footer. Schema identifier "lwsp-run-report-v1.3"
 * (minor bumps are additive: v1.1 added the percentiles footer, v1.2
 * the per-run recovery lineage — "recovery_outcome", "none" on fresh
 * boots, and "failures_survived" — and v1.3 writes "result" from
 * core::resultFields, which adds the four fabric counters); consumers
 * must reject unknown major versions.
 */
void writeRunReports(const std::string &path, const std::string &bench,
                     const std::vector<RunRecord> &records,
                     const SweepStats &stats);

} // namespace harness
} // namespace lwsp

#endif // LWSP_HARNESS_SWEEP_HH
