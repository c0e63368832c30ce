/**
 * @file
 * Experiment runner: generates a workload, compiles it for the requested
 * scheme, assembles the system configuration (with per-experiment
 * overrides for the sensitivity studies) and runs it.
 *
 * Every run is memoized behind a canonical spec key, so (a) repeated
 * points — the sensitivity figures all revisit the default LightWSP
 * configuration, and every slowdown normalization revisits its Baseline
 * run — simulate exactly once, and (b) the cache can be shared by the
 * worker threads of a parallel sweep: the first thread to request a key
 * simulates while later requesters block on a shared future, never
 * duplicating work. Simulations themselves are deterministic (fixed
 * per-spec RNG seeding, no global mutable state), so a memoized result
 * is bit-identical to a fresh one.
 */

#ifndef LWSP_HARNESS_RUNNER_HH
#define LWSP_HARNESS_RUNNER_HH

#include <future>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/system.hh"
#include "workloads/generator.hh"

namespace lwsp {
namespace cli {
struct Flag;
}
namespace harness {

/**
 * One experiment point. Every member has an initializer, so a
 * designated initializer may name just the overrides it sets
 * (`{.wpqEntries = 256}`). A plain field's initializer is its Table I
 * default, taken from the machine config where one holds it; the
 * three optionals default to a value derived from the scheme or the
 * profile.
 */
struct RunSpec
{
    std::string workload{};                    ///< paper-app profile name
    core::Scheme scheme = core::Scheme::LightWsp;

    // Sensitivity-study overrides.
    /** Fig 11; the front-end buffer follows it. */
    unsigned wpqEntries = static_cast<unsigned>(mem::McConfig{}.wpqEntries);
    /** Fig 12; unset = half the WPQ (compiled schemes only). */
    std::optional<unsigned> storeThreshold{};
    /** Figs 13/14; unset = the scheme's own. */
    std::optional<mem::VictimPolicy> victimPolicy{};
    double persistPathGBps = 4.0;              ///< Fig 15
    /** Fig 16; unset = the profile's thread count. */
    std::optional<unsigned> threads{};
    Tick pmReadCycles = mem::McConfig{}.pmReadCycles;    ///< Fig 17 (CXL)
    Tick pmWriteCycles = mem::McConfig{}.pmWriteCycles;  ///< Fig 17
    Tick extraPathLatency = 0;   ///< Fig 17 (CXL link), added to the path
    Tick drainInterval = mem::McConfig{}.drainInterval;  ///< CXL media
    bool strictFlushAcks = mem::McConfig{}.strictFlushAcks;  ///< ablation
    unsigned numMcs = core::SystemConfig{}.numMcs;  ///< Fig 23 (scale-out)
    /** Fig 23 (flat/tree). */
    noc::TopologyConfig topology = core::SystemConfig{}.topology;
};

/** The --engine event|cycle flag every front end shares: it sets the
 *  process default, lwsp::setDefaultSimEngine(). */
cli::Flag engineFlag();

/** lwsp::defaultSimEngine() under the harness name perfbench calls. */
inline SimEngine defaultSimEngine() { return lwsp::defaultSimEngine(); }

struct RunOutcome
{
    core::RunResult result;
    compiler::CompileStats compileStats;
    unsigned threads = 1;

    // Recovery lineage (run-report schema v1.2). Fresh-boot runs — all
    // of the sensitivity sweeps — leave recovered false; crash/recover
    // drivers (fig22, lwsp_cli crash) fill these from System's lineage.
    bool recovered = false;
    core::RecoveryOutcome recoveryOutcome =
        core::RecoveryOutcome::Recovered;
    unsigned failuresSurvived = 0;
};

/** Build the SystemConfig for a (profile, spec) pair. */
core::SystemConfig makeConfig(const workloads::WorkloadProfile &profile,
                              const RunSpec &spec);

/** Compile @p workload for @p spec's scheme (consumes the module). */
compiler::CompiledProgram
prepareProgram(workloads::Workload &&workload, const RunSpec &spec);

/**
 * A paper-profile point ready to simulate exactly as Runner::run does:
 * the spec's config with the cache warmup set, its compiled program and
 * its thread count. Drivers that need the live System (tracing, fault
 * injection) adjust cfg and construct it themselves.
 */
struct PreparedPoint
{
    core::SystemConfig cfg;
    compiler::CompiledProgram prog;
    unsigned threads = 1;
};

PreparedPoint preparePoint(const RunSpec &spec);

/**
 * Run @p sys, built from @p spec's point, to the end of its program. A
 * run that hits the config's cycle cap (a live-lock, or a cap too low
 * for the point) is never a result: it panics naming specKey(spec).
 */
core::RunResult runToCompletion(core::System &sys, const RunSpec &spec);

class Runner
{
  public:
    /**
     * Execute one experiment point (memoized; thread-safe). Concurrent
     * calls with distinct specs simulate in parallel; concurrent calls
     * with the same spec simulate once.
     */
    RunOutcome run(const RunSpec &spec);

    /**
     * Cycles of @p spec divided by the matching Baseline run's cycles
     * (same workload, threads and memory configuration). Both runs go
     * through the shared memo, so neither is ever simulated twice.
     */
    double slowdownVsBaseline(const RunSpec &spec);

    /**
     * The Baseline point @p spec is normalized against: scheme-specific
     * overrides reset, workload/threads/PM-latency overrides kept (the
     * paper normalizes within each memory configuration).
     */
    static RunSpec baselineSpec(const RunSpec &spec);

  private:
    RunOutcome runUncached(const RunSpec &spec);

    std::mutex mutex_;
    std::unordered_map<std::string, std::shared_future<RunOutcome>> memo_;
};

/**
 * Canonical memo key: every field, plus the process engine. Each
 * optional is printed as the value it derives to (the store threshold
 * through the helper prepareProgram uses, 0 for uncompiled schemes;
 * the profile's thread count; -1 for the scheme's own victim policy),
 * so a spec spelling out a default shares the unset point's key.
 */
std::string specKey(const RunSpec &spec);

/**
 * Region-level persistence efficiency, Eq. (1) of the paper:
 * (Tp - Twait) / Tp * 100, where Twait is the scheme's persist-induced
 * core wait time and Tp estimates the unoptimized persistence latency.
 */
double persistenceEfficiency(const core::RunResult &r,
                             const core::SystemConfig &cfg);

} // namespace harness
} // namespace lwsp

#endif // LWSP_HARNESS_RUNNER_HH
