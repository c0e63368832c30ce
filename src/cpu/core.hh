/**
 * @file
 * Simplified out-of-order core timing model.
 *
 * Instructions are functionally executed at dispatch (by ThreadContext)
 * and flow through a ROB with dependence-tracked completion times; they
 * retire in order up to the commit width. Retired stores enter the store
 * buffer, which drains one store per cycle into the L1 (regular path) and
 * — in persistence schemes — into the front-end buffer (FEB), the head of
 * the non-temporal persist path. The FEB launches one 8B granule per
 * bandwidth slot with the configured path latency; entries leave the FEB
 * only when the target WPQ accepts them, so WPQ back-pressure propagates
 * FEB -> SB -> retirement, exactly the stall chain the paper studies.
 *
 * Boundary policies:
 *  - Lazy: LightWSP/cWSP — boundaries flow like stores, no core stalls.
 *  - StallUntilDurable: the naive-sfence ablation — retirement stalls at
 *    every boundary until the region is durable.
 *  - HwImplicit: PPA/Capri — the binary has no boundary instructions; the
 *    hardware ends a region every hwRegionStores stores and stalls
 *    retirement until this core's persists have drained.
 */

#ifndef LWSP_CPU_CORE_HH
#define LWSP_CPU_CORE_HH

#include <array>
#include <deque>

#include "common/intmath.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "cpu/thread_context.hh"
#include "mem/persist.hh"
#include "sim/simulator.hh"

namespace lwsp {

namespace trace {
class TraceSink;
} // namespace trace

namespace cpu {

struct CoreConfig
{
    unsigned sbEntries = 56;
    std::size_t febEntries = 64;

    bool persistPathEnabled = true;
    Tick pathLatency = 40;          ///< 20 ns at 2 GHz
    Tick pathCyclesPerEntry = 4;    ///< 8B at 4 GB/s, 2 GHz
    double trafficAmplification = 1.0;  ///< Capri: 8 (64B per 8B store)

    enum class BoundaryPolicy : std::uint8_t
    {
        Lazy,
        StallUntilDurable,
        HwImplicit,
    };
    BoundaryPolicy boundaryPolicy = BoundaryPolicy::Lazy;
    unsigned hwRegionStores = 32;   ///< implicit region size (PPA/Capri)

    double branchMissRate = 0.02;
    std::uint64_t rngSeed = 1;

    /**
     * When non-null, retirement and persist-path egress emit trace
     * events (region lifecycle, boundary sends, checkpoint stores).
     * Null (the default) keeps the hooks zero-cost — the same
     * discipline as McConfig::oracle.
     */
    trace::TraceSink *sink = nullptr;

    /**
     * When nonzero, retiring a store to this address emits a ServeMark
     * trace event carrying the stored value (the serve subsystem's
     * monotonic served-op counter) and the core's cumulative
     * boundary-stall cycles — the per-request completion timestamps
     * fig21's LatencyRecorder folds into latency percentiles. Zero (the
     * default) keeps the retire hot path free of the comparison's
     * side effects.
     */
    Addr serveMarkAddr = 0;
};

/** Memory-system services the core needs; implemented by the System. */
class MemPort
{
  public:
    virtual ~MemPort() = default;

    /** Load latency for @p addr (updates cache state). */
    virtual Tick loadLatency(CoreId core, Addr addr, Tick now) = 0;

    /**
     * Regular-path store (L1 write-allocate). @return false when blocked
     * by a zero-victim snoop conflict; the store buffer head retries.
     */
    virtual bool storeAccess(CoreId core, Addr addr, Tick now) = 0;

    /** Offer a persist-path granule to its target MC's WPQ. */
    virtual bool tryPersistAccept(const mem::PersistEntry &e, Tick now) = 0;

    /** Boundary exited this core's persist path: broadcast its region. */
    virtual void broadcastBoundary(RegionId region, Tick now) = 0;

    /** NaiveSfence: is every store of regions <= @p region durable? */
    virtual bool regionDurable(CoreId core, RegionId region) = 0;

    /** HwImplicit: have all of this core's persists drained to PM? */
    virtual bool persistsDrained(CoreId core) = 0;
};

class Core : public Clocked
{
  public:
    Core(CoreId id, const CoreConfig &cfg, MemPort &port);

    CoreId id() const { return id_; }

    /** Attach (or detach with nullptr) the running thread context. */
    void
    setThread(ThreadContext *t)
    {
        thread_ = t;
        // The flag described the outgoing thread; dispatch() would clear
        // it on the next tick anyway, but clearing it here keeps it
        // accurate across fast-forwarded (skipped) cycles too.
        lockBlocked_ = false;
        rearm();
    }
    ThreadContext *thread() { return thread_; }

    /**
     * Account a context switch: pipeline flush penalty and stale
     * register-ready times cleared. The region ID travels with the
     * ThreadContext, which is how LightWSP virtualizes it (§IV-C).
     */
    void
    applyContextSwitch(Tick now, Tick penalty)
    {
        regReady_.fill(now);
        dispatchBlockedUntil_ = std::max(dispatchBlockedUntil_,
                                         now + penalty);
        rearm();
    }

    void tick(Tick now) override;
    Tick nextActiveTick(Tick now) const override;

    /** @return true when ROB, SB and FEB are all empty. */
    bool
    drained() const
    {
        return rob_.empty() && sb_.empty() && feb_.empty();
    }

    /** @return true if the thread is stuck on a contended lock. */
    bool lockBlocked() const { return lockBlocked_; }

    // ---- FEB CAM interface (buffer snooping, §IV-G) ----------------------
    bool febContainsLine(Addr line) const;
    bool febEmpty() const { return feb_.empty(); }
    RegionId febMinRegion() const;

    // ---- Statistics -------------------------------------------------------
    /** The core's counters: exactly what resetStats() zeroes. */
    struct Counters
    {
        std::uint64_t instsRetired = 0;
        std::uint64_t storesRetired = 0;
        std::uint64_t boundariesRetired = 0;   ///< region boundaries
        std::uint64_t robFullCycles = 0;       ///< dispatch: ROB full
        std::uint64_t sbFullCycles = 0;        ///< retire: store buffer full
        std::uint64_t febFullCycles = 0;       ///< SB drain: FEB full
        std::uint64_t boundaryWaitCycles = 0;  ///< awaiting durability
        std::uint64_t lockBlockedCycles = 0;   ///< on a contended lock
        std::uint64_t pathBlockedCycles = 0;   ///< FEB egress refused
        std::uint64_t snoopBlockedCycles = 0;  ///< zero-victim snoop
        std::uint64_t branchMisses = 0;        ///< branch mispredictions
        /** Dynamic instructions (stores) per region, §V-G3. */
        stats::Distribution regionInsts{0, 512, 64};
        stats::Distribution regionStores{0, 64, 64};

        static constexpr auto
        fields()
        {
            using C = Counters;
            return std::to_array<stats::Counter<C>>({
                {"instsRetired", &C::instsRetired},
                {"storesRetired", &C::storesRetired},
                {"boundariesRetired", &C::boundariesRetired},
                {"robFullCycles", &C::robFullCycles},
                {"sbFullCycles", &C::sbFullCycles},
                {"febFullCycles", &C::febFullCycles},
                {"boundaryWaitCycles", &C::boundaryWaitCycles},
                {"lockBlockedCycles", &C::lockBlockedCycles},
                {"pathBlockedCycles", &C::pathBlockedCycles},
                {"snoopBlockedCycles", &C::snoopBlockedCycles},
                {"branchMisses", &C::branchMisses},
                {"regionInsts", &C::regionInsts},
                {"regionStores", &C::regionStores},
            });
        }
    };

    const Counters &counters() const { return counters_; }

    /** Zero all counters (end-of-warmup reset). */
    void resetStats() { counters_ = {}; }

  private:
    struct RobEntry
    {
        Tick ready;
        ExecRecord rec;
    };

    struct FebEntry
    {
        mem::PersistEntry entry;
        Tick arriveAt = 0;
        bool launched = false;
    };

    void persistEgress(Tick now);
    void persistLaunch(Tick now);
    void drainStoreBuffer(Tick now);
    void retire(Tick now);
    void dispatch(Tick now);

    CoreId id_;
    CoreConfig cfg_;
    MemPort &port_;
    ThreadContext *thread_ = nullptr;
    Rng rng_;

    std::deque<RobEntry> rob_;
    std::array<Tick, ir::numGprs> regReady_{};
    std::deque<ExecRecord> sb_;
    std::deque<FebEntry> feb_;
    std::size_t launchedCount_ = 0;
    Tick nextLaunch_ = 0;
    Tick dispatchBlockedUntil_ = 0;

    bool waitingDurable_ = false;
    RegionId durableRegion_ = invalidRegion;
    unsigned hwStoreCount_ = 0;
    bool lockBlocked_ = false;

    // Region statistics (§V-G3): dynamic insts/stores per region.
    std::uint64_t instsSinceBoundary_ = 0;
    std::uint64_t storesSinceBoundary_ = 0;

    Counters counters_;
};

} // namespace cpu
} // namespace lwsp

#endif // LWSP_CPU_CORE_HH
