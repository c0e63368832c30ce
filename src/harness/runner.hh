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
namespace harness {

/**
 * One experiment point. Every member has an initializer, so a
 * designated initializer may name just the overrides it sets
 * (`{.wpqEntries = 256}`).
 */
struct RunSpec
{
    std::string workload{};                    ///< paper-app profile name
    core::Scheme scheme = core::Scheme::LightWsp;

    // Sensitivity-study overrides (defaults = Table I values).
    std::optional<unsigned> wpqEntries{};      ///< Fig 11 (FEB follows)
    std::optional<unsigned> storeThreshold{};  ///< Fig 12
    std::optional<mem::VictimPolicy> victimPolicy{};  ///< Figs 13/14
    std::optional<double> persistPathGBps{};   ///< Fig 15
    std::optional<unsigned> threads{};         ///< Fig 16
    std::optional<Tick> pmReadCycles{};        ///< Fig 17 (CXL)
    std::optional<Tick> pmWriteCycles{};       ///< Fig 17
    std::optional<Tick> extraPathLatency{};    ///< Fig 17 (CXL link)
    std::optional<Tick> drainInterval{};       ///< CXL media bandwidth
    std::optional<bool> strictFlushAcks{};     ///< commit-pipeline ablation
    std::optional<SimEngine> engine{};         ///< A/B: event vs cycle
    std::optional<unsigned> numMcs{};          ///< Fig 23 (scale-out)
    std::optional<noc::TopologyConfig> topology{};  ///< Fig 23 (flat/tree)
};

/**
 * Process-wide engine default for specs that leave RunSpec::engine unset
 * (what --engine=cycle in the bench/CLI front ends flips). Defaults to
 * SimEngine::Event. Results are bit-identical either way; the knob
 * exists for A/B verification and perf comparison.
 */
SimEngine defaultSimEngine();
void setDefaultSimEngine(SimEngine e);

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
 * Canonical memo key: every optional folded to the value makeConfig /
 * prepareProgram would derive anyway, so a spec with an explicit default
 * (e.g. wpqEntries = 64) and one leaving the field unset map to the same
 * simulation. Must stay in lockstep with makeConfig()/prepareProgram().
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
