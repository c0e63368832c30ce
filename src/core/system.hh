/**
 * @file
 * The LightWSP system: cores, caches, persist paths, memory controllers
 * and the recovery engine, wired per the configured persistence scheme.
 *
 * The system maintains two functional images: the execution image (what
 * loads observe, updated at dispatch) and the PM image (updated only when
 * a WPQ releases an entry), so at any crash cycle the PM image is exactly
 * what battery-backed hardware would leave behind. runWithPowerFailure()
 * runs the paper's §IV-F drain protocol; recover() builds a successor
 * system from the post-crash PM image with every thread repositioned at
 * its latest persisted boundary.
 */

#ifndef LWSP_CORE_SYSTEM_HH
#define LWSP_CORE_SYSTEM_HH

#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "core/system_config.hh"
#include "cpu/core.hh"
#include "cpu/lock_table.hh"
#include "cpu/thread_context.hh"
#include "mem/mem_controller.hh"
#include "mem/mem_image.hh"
#include "mem/oracle.hh"
#include "noc/noc.hh"
#include "sim/simulator.hh"
#include "trace/sink.hh"

namespace lwsp {
namespace core {

/** PC-slot sentinel: thread has not yet persisted any boundary. */
constexpr std::uint64_t noSiteSentinel = 0xffff'fffeull;

/**
 * Classification of a recovery attempt (fault-hardening contract):
 * every injected fault is either masked (Recovered), survived by
 * falling back to an older persisted epoch (RecoveredDegraded), or
 * reported (DetectedUnrecoverable) — never silent corruption.
 */
enum class RecoveryOutcome : std::uint8_t
{
    Recovered,              ///< full recovery at the newest epoch
    RecoveredDegraded,      ///< sound recovery at an older epoch
    DetectedUnrecoverable,  ///< PM image damaged beyond sound recovery
};

const char *recoveryOutcomeName(RecoveryOutcome o);

/**
 * What the §IV-F crash drain observed and did about injected hardware
 * faults. All-default when fault injection is off.
 */
struct CrashReport
{
    bool faultsArmed = false;
    /** Drain truncated before this region (WPQ ECC damage), if any. */
    RegionId corruptBarrier = invalidRegion;
    /** Truncation would lose already-persisted writes: refuse recovery. */
    bool truncationHazard = false;
    unsigned wpqDamaged = 0;
    unsigned poisonedWords = 0;
    unsigned silentFlips = 0;
    unsigned stallsInjected = 0;
    std::uint64_t bcastRetries = 0;
    std::uint64_t bcastLostAtCrash = 0;
};

/** Result of System::recoverChecked(). */
struct RecoveryResult
{
    /** The recovered system; null iff outcome is DetectedUnrecoverable. */
    std::unique_ptr<class System> sys;
    RecoveryOutcome outcome = RecoveryOutcome::Recovered;
    std::string detail;          ///< human-readable classification reason
    unsigned maskedPoisonRegs = 0;  ///< poisoned slots recipes masked
};

/**
 * Aggregated outcome of one run: a typed view of the stat registry
 * System::registerStats builds, read through resultFields().
 */
struct RunResult
{
    Tick cycles = 0;
    bool completed = false;      ///< false: cycle limit or power failure
    std::uint64_t instsRetired = 0;
    std::uint64_t storesRetired = 0;
    std::uint64_t boundaries = 0;
    double ipc = 0.0;

    // Stall accounting (persistence-efficiency inputs, Eq. 1).
    std::uint64_t boundaryWaitCycles = 0;
    std::uint64_t sbFullCycles = 0;
    std::uint64_t febFullCycles = 0;
    std::uint64_t snoopBlockedCycles = 0;
    std::uint64_t lockBlockedCycles = 0;

    // Memory-system behaviour.
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t staleLoads = 0;
    std::uint64_t bufferConflicts = 0;
    std::uint64_t divertedVictims = 0;
    std::uint64_t wpqLoadHits = 0;
    std::uint64_t wpqFlushedEntries = 0;
    std::uint64_t wpqFallbackFlushes = 0;
    std::uint64_t wpqOverflowEvents = 0;
    std::size_t maxWpqOccupancy = 0;
    std::uint64_t regionsCommitted = 0;

    // Control-plane behaviour (fig23 scale-out inputs).
    std::uint64_t nocMessages = 0;      ///< control messages on the fabric
    std::uint64_t bcastRetries = 0;     ///< router retry rounds (faults)
    double bcastLatencyAvg = 0.0;       ///< boundary arrival -> full ACK
    double bcastLatencyMax = 0.0;       ///< worst region's ACK round

    double avgRegionInsts = 0.0;
    double avgRegionStores = 0.0;

    double l1MissRate() const
    {
        std::uint64_t t = l1Hits + l1Misses;
        return t ? static_cast<double>(l1Misses) / t : 0.0;
    }
};

/** How a RunResult member reduces over registry stats a and b. */
enum class Reduce
{
    Given,  ///< not a stat: the run's completion flag
    Sum,    ///< Σ a, plus Σ b when b is set
    Max,    ///< largest a (0 with none)
    Ratio,  ///< Σ a / Σ b (0 when Σ b is 0)
};

/**
 * A registry stat: its group, where '#' stands for any component index
 * ("core#.l1d"), and its dump name ("bcastLatency.sum" for a
 * distribution's field). Groups are visited in registration order, so
 * sums run in core and MC order.
 */
struct StatRef
{
    const char *group = nullptr;
    const char *stat = nullptr;
};

/** One RunResult member: run-report key, member, registry reduction. */
struct ResultField
{
    const char *key;
    std::variant<std::uint64_t RunResult::*, double RunResult::*,
                 bool RunResult::*> member;
    Reduce reduce;
    StatRef a{};
    StatRef b{};
};

/**
 * Every RunResult member, in declaration and run-report order: the one
 * table collectResult, the run report and result equality walk.
 */
std::span<const ResultField> resultFields();

/**
 * Result of System::runUntilWordChanges(): used by the recovery-latency
 * benchmark (fig20) to time "power-on to first served operation".
 */
struct ServeProbe
{
    bool served = false;   ///< the watched word changed before the run ended
    Tick serveTick = 0;    ///< cycle at which the change became visible
    RunResult result;      ///< run outcome up to the stop point
};

class System : public cpu::MemPort
{
  public:
    /**
     * @param cfg scheme-applied configuration
     * @param program the binary to run (compiled or original per scheme)
     * @param num_threads software threads; all start at function 0 with
     *        r0 = thread id
     */
    System(const SystemConfig &cfg,
           const compiler::CompiledProgram &program, unsigned num_threads);

    /** Run to completion (or the config's cycle cap). */
    RunResult run();

    /**
     * Run until cycle @p fail_at, then execute the power-failure drain
     * protocol. If the program finishes earlier, returns the normal
     * result and performs no crash.
     *
     * @return the run result up to the failure point
     */
    RunResult runWithPowerFailure(Tick fail_at);

    /**
     * Failure-storm drain: run until cycle @p fail_at, then execute the
     * §IV-F drain protocol with power failing again after each entry of
     * @p drain_interrupts quiescence iterations (in order), and once
     * more to completion after the last. Battery-backed WPQ and MC
     * protocol registers survive every interruption, so each re-entered
     * drain resumes where the previous one stopped — the paper's
     * argument for why repeated failures are no worse than one — and
     * crashFinish() runs exactly once no matter how the drain loop was
     * sliced. An empty vector is exactly runWithPowerFailure(fail_at).
     */
    RunResult runWithFailureStorm(Tick fail_at,
                                  const std::vector<unsigned>
                                      &drain_interrupts);

    /**
     * Run until the execution-image word at @p addr holds a value other
     * than @p from (or until completion / the cycle cap). The check sits
     * after every executed cycle, so the reported tick is the first
     * cycle boundary at which the new value is architecturally visible.
     * Used to measure recovery latency as "power-on to first served
     * operation": recover(), read the op counter, then watch it move.
     */
    ServeProbe runUntilWordChanges(Addr addr, std::uint64_t from);

    /** @return true if the drain protocol actually executed. */
    bool crashed() const { return crashed_; }

    /** Invariant oracle (null unless cfg.oraclesEnabled). */
    mem::LrpoOracle *oracle() { return oracle_.get(); }
    const mem::LrpoOracle *oracle() const { return oracle_.get(); }

    /** Telemetry sink (null unless cfg.traceEnabled). */
    trace::TraceSink *traceSink() { return traceSink_.get(); }
    const trace::TraceSink *traceSink() const { return traceSink_.get(); }

    /** Post-crash (or final) persistent-memory state. */
    const mem::MemImage &pmImage() const { return pm_; }

    /** Execution-image view (golden final memory on clean completion). */
    const mem::MemImage &execImage() const { return execMem_; }

    /**
     * Build a successor system resuming from @p pm_state: each thread is
     * repositioned via its PC slot, registers restored from checkpoint
     * slots (+ recipes), and lock ownership rebuilt from the lock words
     * listed in @p lock_addrs.
     */
    static std::unique_ptr<System>
    recover(const SystemConfig &cfg,
            const compiler::CompiledProgram &program,
            unsigned num_threads, const mem::MemImage &pm_state,
            const std::vector<Addr> &lock_addrs);

    /**
     * Hardened recovery: validate @p pm_state before building the
     * successor — poisoned PC slots, poisoned register slots no pruning
     * recipe can mask, poisoned lock words and (under the hardened
     * checkpoint format) register-checkpoint checksum mismatches all
     * classify the image DetectedUnrecoverable instead of resuming on
     * garbage. A victim's @p victim_report (when given) folds the crash
     * drain's own findings in: a truncation hazard is unrecoverable, a
     * clean corruption barrier degrades to the older epoch.
     */
    static RecoveryResult
    recoverChecked(const SystemConfig &cfg,
                   const compiler::CompiledProgram &program,
                   unsigned num_threads, const mem::MemImage &pm_state,
                   const std::vector<Addr> &lock_addrs,
                   const CrashReport *victim_report = nullptr);

    /** What the crash drain saw of injected faults (all-default if none). */
    const CrashReport &crashReport() const { return crashReport_; }

    // ---- Recovery lineage --------------------------------------------------
    // A system built by recover()/recoverChecked() carries how it came to
    // be: its boot classification and how many power failures the state
    // it resumed from has survived so far. walkLifetime() overwrites the
    // count as the storm unfolds; reports and --stats-json read it.

    /** True iff this system was built by recover()/recoverChecked(). */
    bool recovered() const { return recovered_; }

    /** Boot classification (Recovered unless set by recoverChecked()). */
    RecoveryOutcome bootOutcome() const { return bootOutcome_; }

    /** Power failures survived by the state this system resumed from. */
    unsigned failuresSurvived() const { return failuresSurvived_; }

    /** Stamp the lineage (recoverChecked() and walkLifetime()). */
    void setRecoveryLineage(RecoveryOutcome outcome, unsigned failures)
    {
        recovered_ = true;
        bootOutcome_ = outcome;
        failuresSurvived_ = failures;
    }

    /** Fault injector (null unless cfg.faults.enabled). */
    fault::FaultInjector *faultInjector() { return faultInjector_.get(); }

    // ---- MemPort ----------------------------------------------------------
    Tick loadLatency(CoreId core_id, Addr addr, Tick now) override;
    bool storeAccess(CoreId core_id, Addr addr, Tick now) override;
    bool tryPersistAccept(const mem::PersistEntry &e, Tick now) override;
    void broadcastBoundary(RegionId region, Tick now) override;
    bool regionDurable(CoreId core_id, RegionId region) override;
    bool persistsDrained(CoreId core_id) override;

    // ---- Introspection ----------------------------------------------------
    cpu::Core &coreAt(CoreId i) { return *cores_.at(i); }
    mem::MemController &mcAt(McId i) { return *mcs_.at(i); }
    unsigned numThreads() const
    {
        return static_cast<unsigned>(threads_.size());
    }
    Tick now() const { return sim_.now(); }
    const SystemConfig &config() const { return cfg_; }
    noc::Noc &nocNet() { return noc_; }

    /** MC owning @p addr (cacheline interleaving). */
    McId mcForAddr(Addr addr) const;

    /** System-level counters: what the end of warmup zeroes here. */
    struct Counters
    {
        std::uint64_t staleLoads = 0;        ///< no snooping: stale data
        std::uint64_t staleExtraMisses = 0;  ///< their L1 refetches

        static constexpr auto
        fields()
        {
            using C = Counters;
            return std::to_array<stats::Counter<C>>({
                {"staleLoads", &C::staleLoads},
                {"staleExtraMisses", &C::staleExtraMisses},
            });
        }
    };

    const Counters &counters() const { return counters_; }

    /**
     * Zero the counters of every core, cache, MC and WPQ and the
     * system's own: the end-of-warmup reset. The NoC's are kept.
     */
    void resetStats();

    /**
     * Register with @p registry every component's counter table (one
     * group per core, cache, MC, WPQ and the NoC), each MC's flush-ID
     * register, and the system group: its counters plus the derived
     * cycles, crash, trace and recovery values. The registry must not
     * outlive this System.
     */
    void registerStats(stats::Registry &registry) const;

  private:
    bool done() const;
    bool advance(Tick limit);
    void scheduleThreads(Tick now);
    void maybeEndWarmup();
    void executeCrashDrain(Tick now, int interrupt_after = -1);
    void injectCrashFaults(Tick now);
    void injectPostDrainFaults(Tick now);
    RunResult collectResult(bool completed);

    SystemConfig cfg_;
    const compiler::CompiledProgram &program_;
    std::unique_ptr<mem::LrpoOracle> oracle_;
    std::unique_ptr<trace::TraceSink> traceSink_;
    std::unique_ptr<fault::FaultInjector> faultInjector_;
    CrashReport crashReport_;
    bool crashFaultsInjected_ = false;

    mem::MemImage execMem_;
    mem::MemImage pm_;
    cpu::LockTable locks_;
    cpu::RegionAllocator regionAlloc_;

    Simulator sim_;
    noc::Noc noc_;
    std::vector<std::unique_ptr<mem::MemController>> mcs_;
    std::vector<std::unique_ptr<mem::Cache>> l1d_;
    std::unique_ptr<mem::Cache> l2_;
    std::vector<std::unique_ptr<cpu::Core>> cores_;
    std::vector<std::unique_ptr<cpu::ThreadContext>> threads_;

    /** Round-robin run queues: thread indices per core. */
    std::vector<std::vector<ThreadId>> runQueues_;
    std::vector<std::size_t> runIndex_;
    Tick nextScheduleCheck_ = 0;
    /** Any core oversubscribed? Then clock jumps must stop at every
     *  schedule check so context switches land on the same cycles. */
    bool multiQueued_ = false;

    // runUntilWordChanges() watch state: checked (one branch) after each
    // executed cycle in both engines; dormant unless armed.
    bool watchArmed_ = false;
    Addr watchAddr_ = 0;
    std::uint64_t watchFrom_ = 0;
    bool watchServed_ = false;
    Tick watchTick_ = 0;

    bool crashed_ = false;
    bool drainFinished_ = false;  ///< crashFinish() loop already ran
    bool recovered_ = false;
    RecoveryOutcome bootOutcome_ = RecoveryOutcome::Recovered;
    unsigned failuresSurvived_ = 0;
    bool warmupDone_ = false;
    Tick warmupCycles_ = 0;
    Counters counters_;
};

} // namespace core
} // namespace lwsp

#endif // LWSP_CORE_SYSTEM_HH
