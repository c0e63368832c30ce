/**
 * @file
 * Whole-system configuration (paper Table I) and the persistence schemes
 * evaluated against each other in §V.
 *
 * Note on scaling: the paper fast-forwards 10B instructions in gem5 and
 * simulates 5B more; our workloads run 10^5-10^6 instructions end to end,
 * so cache capacities are scaled down (L2 16MB -> 256KB, DRAM cache
 * 4GB -> 16MB per MC, mem::dramCacheConfig) to keep the hierarchy's
 * hit-rate structure — L1-resident vs L2-resident vs DRAM-cache-resident
 * vs PM-bound — at the reduced footprints. Latencies are Table I values
 * converted to 2 GHz cycles.
 */

#ifndef LWSP_CORE_SYSTEM_CONFIG_HH
#define LWSP_CORE_SYSTEM_CONFIG_HH

#include "compiler/config.hh"
#include "cpu/core.hh"
#include "fault/fault.hh"
#include "mem/cache.hh"
#include "mem/mem_controller.hh"
#include "noc/topology.hh"
#include "sim/simulator.hh"
#include "trace/events.hh"

namespace lwsp {
namespace core {

/** The persistence designs compared in the paper's evaluation. */
enum class Scheme : std::uint8_t
{
    Baseline,    ///< Optane memory mode, original binary, no persistence
    PspIdeal,    ///< ideal PSP (BBB/eADR-class): persistence free, no DRAM$
    LightWsp,    ///< this paper
    NaiveSfence, ///< LightWSP regions with a stall at every boundary
    Ppa,         ///< persistent processor architecture (MICRO'23)
    Capri,       ///< compiler/arch WSP with L1-connected persist path
    Cwsp,        ///< compiler-directed WSP with MC speculation (ISCA'24)
};

/** Scheme names, indexed by Scheme (the lwsp_cli spelling). */
inline constexpr const char *schemeNames[] = {
    "baseline", "psp-ideal", "lightwsp", "naive-sfence",
    "ppa",      "capri",     "cwsp",
};

const char *schemeName(Scheme s);

/** @return true if @p s runs the boundary/checkpoint-compiled binary. */
constexpr bool
schemeUsesCompiledBinary(Scheme s)
{
    return s == Scheme::LightWsp || s == Scheme::NaiveSfence ||
           s == Scheme::Cwsp;
}

/** @return true if stores travel a persist path in scheme @p s. */
constexpr bool
schemeHasPersistPath(Scheme s)
{
    return s != Scheme::Baseline && s != Scheme::PspIdeal;
}

/** MC<->MC and router hop latency: 10 ns at 2 GHz. */
inline constexpr Tick nocHopLatency = 20;

struct SystemConfig
{
    Scheme scheme = Scheme::LightWsp;
    unsigned numCores = 8;

    cpu::CoreConfig core;                     ///< SB/FEB, persist path
    mem::CacheConfig l1d{64 * 1024, 8, 4};    ///< 64KB/core, 8-way, 4 cyc
    mem::CacheConfig l2{256 * 1024, 16, 44};  ///< shared (scaled), 44 cyc
    mem::McConfig mc;                         ///< WPQ/PM/DRAM-cache knobs
    unsigned numMcs = 2;

    /**
     * Control-plane fabric: flat router fan-out + all-to-all ACKs (the
     * paper's 2-iMC machine, default) or a radix-r aggregation tree
     * whose per-region message count is O(MCs) instead of O(MCs^2) —
     * see noc/topology.hh. Ignored (degrades to flat) with one MC.
     */
    noc::TopologyConfig topology;

    mem::VictimPolicy victimPolicy = mem::VictimPolicy::Full;

    /** Round-robin scheduling quantum (threads > cores). */
    Tick ctxQuantum = 20000;

    std::uint64_t seed = 12345;

    /** Ceiling for run(); trips the runaway guard when exceeded. */
    Tick maxCycles = 100'000'000;

    /**
     * Clock driver, initialised from the process default (`--engine`).
     * Event (default): one wake tick per component, so sleepers are
     * skipped and idle stretches jumped. Cycle: the reference loop that
     * ticks every component every cycle, kept selectable as the
     * bit-identical ground truth for A/B verification (asserted by
     * test_engine).
     */
    SimEngine engine = defaultSimEngine();

    /**
     * Retired-instruction count after which all statistics reset and the
     * cycle baseline restarts — stands in for the paper's 10B-instruction
     * fast-forward that warms the DRAM cache before measurement.
     */
    std::uint64_t warmupInsts = 0;

    /**
     * Compile the LRPO invariant oracles into this system: every MC
     * reports protocol events to a System-owned mem::LrpoOracle that
     * checks release ordering, WPQ occupancy and post-crash PM age every
     * cycle (see mem/oracle.hh). Off by default — the hooks are
     * null-pointer checks and the timing model is unchanged either way.
     */
    bool oraclesEnabled = false;

    /**
     * Compile the telemetry subsystem into this system: the System owns
     * a trace::TraceSink and every component (cores, MCs, caches, the
     * scheduler, the crash-drain engine) emits typed events to it. Off
     * by default — the hook sites are null-pointer checks and cycle
     * counts are bit-identical either way (asserted by test_trace).
     */
    bool traceEnabled = false;

    /** Run-time category filter for the sink (bit-or of Category). */
    std::uint32_t traceMask = trace::allCategories;

    /** Ring-buffer capacity in events (oldest overwritten on wrap). */
    std::size_t traceBufferEvents = 1u << 16;

    /**
     * Hardware fault injection (see fault/fault.hh). Disabled by
     * default: no FaultInjector is created, every hook stays a null
     * pointer and results are bit-identical to a faultless build. With
     * `faults.enabled` but every axis at its default, the machine runs
     * the hardened protocol paths (broadcast ack/retry bookkeeping) with
     * timing still bit-identical — asserted by test_fault.
     */
    fault::FaultConfig faults;

    /**
     * Derive the per-scheme core/MC settings. Call once after setting the
     * scheme and any explicit overrides.
     */
    void
    applySchemeDefaults()
    {
        core.persistPathEnabled = schemeHasPersistPath(scheme);
        switch (scheme) {
          case Scheme::Baseline:
            mc.gatingEnabled = false;
            victimPolicy = mem::VictimPolicy::None;
            break;
          case Scheme::PspIdeal:
            mc.gatingEnabled = false;
            mc.dramCacheEnabled = false;
            victimPolicy = mem::VictimPolicy::None;
            break;
          case Scheme::LightWsp:
            mc.gatingEnabled = true;
            core.boundaryPolicy = cpu::CoreConfig::BoundaryPolicy::Lazy;
            break;
          case Scheme::NaiveSfence:
            // The blocking barrier at every boundary already enforces
            // region order, so the WPQ drains as a plain FIFO — gating
            // it on top would couple independent threads through the
            // global region sequence and livelock the ablation.
            mc.gatingEnabled = false;
            core.boundaryPolicy =
                cpu::CoreConfig::BoundaryPolicy::StallUntilDurable;
            break;
          case Scheme::Ppa:
            mc.gatingEnabled = false;  // eager write-back persistence
            core.boundaryPolicy =
                cpu::CoreConfig::BoundaryPolicy::HwImplicit;
            victimPolicy = mem::VictimPolicy::None;
            break;
          case Scheme::Capri:
            mc.gatingEnabled = false;
            core.boundaryPolicy =
                cpu::CoreConfig::BoundaryPolicy::HwImplicit;
            core.trafficAmplification = 8.0;  // 64B flush per 8B store
            // The 64B granularity also multiplies PM write traffic at
            // the buffers' drain (partially absorbed by PM-internal
            // line batching).
            mc.drainInterval = mc.drainInterval * 4;
            victimPolicy = mem::VictimPolicy::None;
            break;
          case Scheme::Cwsp:
            mc.gatingEnabled = false;  // MC speculation: no persist waits
            core.boundaryPolicy = cpu::CoreConfig::BoundaryPolicy::Lazy;
            // Undo logging adds a (mitigated) read-modify overhead to
            // every PM write: model as a drain-bandwidth derating
            // (4 entries per 3 cycles vs LightWSP's 2 per cycle at the
            // Table I defaults, i.e. 1.5x the per-write drain cost).
            mc.drainInterval = mc.drainInterval * 3;
            mc.drainBurst = mc.drainBurst * 2;
            break;
        }
        core.rngSeed = seed;
    }
};

} // namespace core
} // namespace lwsp

#endif // LWSP_CORE_SYSTEM_CONFIG_HH
