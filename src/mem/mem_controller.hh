/**
 * @file
 * Integrated memory controller with LightWSP's gated, battery-backed WPQ.
 *
 * The controller realises lazy region-level persist ordering (LRPO,
 * paper §III-B/IV-B): it learns the execution order of regions from
 * boundary broadcasts, exchanges bdry-ACKs and flush-ACKs with its peer
 * MCs, and releases WPQ entries to PM strictly in region-ID order. The
 * exchange never asks which fabric carries it: each ACK round is one
 * `Noc::ackRound` call, and a tree root's announcement is read as every
 * peer's ACK (noc/noc.hh). The controller also owns this channel's DRAM
 * cache (Optane-memory-mode style) and serves LLC load misses with the
 * parallel PM-read + WPQ CAM search of §IV-H.
 *
 * Deadlock resolution (§IV-D): when the WPQ fills while the boundary of
 * the region being drained has not arrived, the controller flushes that
 * region's entries with undo logging and accepts only that region's
 * stores (allowing soft overflow) until the boundary shows up.
 */

#ifndef LWSP_MEM_MEM_CONTROLLER_HH
#define LWSP_MEM_MEM_CONTROLLER_HH

#include <array>
#include <map>
#include <queue>
#include <utility>
#include <vector>

#include "common/bitset.hh"
#include "common/stats.hh"
#include "mem/cache.hh"
#include "mem/mem_image.hh"
#include "mem/persist.hh"
#include "mem/wpq.hh"
#include "sim/simulator.hh"

namespace lwsp {
namespace noc {
class Noc;
} // namespace noc

namespace trace {
class TraceSink;
} // namespace trace

namespace mem {

class LrpoOracle;

/**
 * Each MC's DRAM cache (Optane memory mode): 16 MB per MC,
 * direct-mapped, 100-cycle hits. Table I's 4 GB is scaled down with the
 * workloads' footprints (see core/system_config.hh).
 */
inline constexpr CacheConfig dramCacheConfig{16ull * 1024 * 1024, 1, 100};

/**
 * Read-bandwidth modelling: minimum cycles between successive line
 * fetches served by the DRAM cache (DDR4) and by PM media. The gap
 * between the two is what makes streaming workloads suffer without a
 * DRAM cache (the PSP-vs-WSP axis of Fig. 9).
 */
inline constexpr Tick dcReadInterval = 3;   ///< ~38 GB/s DDR4 per MC
inline constexpr Tick pmReadInterval = 10;  ///< ~13 GB/s Optane reads per MC
inline constexpr Tick pmWriteInterval = 12; ///< Optane line-write occupancy

struct McConfig
{
    std::size_t wpqEntries = 64;
    Tick pmReadCycles = 350;        ///< 175 ns at 2 GHz
    Tick pmWriteCycles = 180;       ///< 90 ns at 2 GHz
    Tick drainInterval = 1;         ///< cycles between WPQ drain rounds
    unsigned drainBurst = 2;        ///< entries flushed per round
    bool dramCacheEnabled = true;   ///< false models the ideal-PSP baseline
    /**
     * true  = paper-literal commit: region k+1 flushes only after region
     *         k's flush-ACK round completes on every MC;
     * false = relaxed (default): flush k+1 once its bdry-ACKs complete and
     *         all local entries of k are out (crash drain still completes
     *         any fully-arrived region, so consistency is preserved).
     */
    bool strictFlushAcks = false;
    /** false = plain FIFO drain with no region gating (non-WSP schemes). */
    bool gatingEnabled = true;
    /**
     * When non-null, every protocol event (boundary arrival, ACK, WPQ
     * insert, PM release, commit, crash drain) is reported to the LRPO
     * invariant oracle. Null (the default) keeps the hooks zero-cost.
     */
    LrpoOracle *oracle = nullptr;
    /**
     * When non-null, protocol events (WPQ enqueue/release/drain,
     * boundary arrival/ACK, region commit) are emitted to the telemetry
     * sink. Null (the default) keeps the hooks zero-cost, exactly like
     * the oracle pointer above.
     */
    trace::TraceSink *sink = nullptr;
    /**
     * Test-only fault knob: release one store of a not-yet-closed region
     * to PM ahead of its boundary, without undo logging. Exists solely to
     * prove the oracle's ordering checkers are live — never enable
     * outside oracle-liveness tests.
     */
    bool faultReleaseEarly = false;
};

class MemController : public Clocked, public McEndpoint
{
  public:
    MemController(McId id, const McConfig &cfg, MemImage &pm,
                  noc::Noc &noc_net);

    McId id() const { return id_; }

    // ---- Persist-path side -------------------------------------------
    /**
     * @return true if @p e can enter the WPQ this cycle. Full WPQs decline
     * everything except (in deadlock fallback) the draining region's own
     * stores, which may softly overflow.
     */
    bool canAccept(const PersistEntry &e) const;

    /** Insert @p e; caller must have checked canAccept(). */
    void accept(const PersistEntry &e, Tick now);

    // ---- Control plane ------------------------------------------------
    void receive(const McMsg &msg, Tick now) override;

    void tick(Tick now) override;
    Tick nextActiveTick(Tick now) const override;

    // ---- Load path ------------------------------------------------------
    struct LoadResult
    {
        Tick latency = 0;
        bool wpqHit = false;
        bool dramCacheHit = false;
    };

    /** Serve an LLC (L2) miss for @p addr: DRAM cache, then PM + WPQ CAM. */
    LoadResult serveLoadMiss(Addr addr, Tick now);

    /**
     * Account direct PM write-line traffic (ideal-PSP mode: with no DRAM
     * cache, store lines hit the PM device and delay its reads).
     */
    void
    pmWriteTraffic(Tick now)
    {
        nextPmReadSlot_ =
            std::max(now, nextPmReadSlot_) + pmWriteInterval;
    }

    // ---- Power failure ---------------------------------------------------
    /**
     * One quiescence iteration of the recovery drain (paper §IV-F steps
     * 2-5): flush every ready region. @return true if progress was made.
     *
     * Re-entrant: the drain cursor and WPQ are battery-backed, so a
     * power failure between iterations simply resumes here — already-
     * drained regions are skipped (the cursor only advances) and a call
     * after crashFinish() reports no progress.
     */
    bool crashStep(Tick now);

    /**
     * Step 6 + undo restore: discard unpersisted entries. Idempotent —
     * a second call is a no-op, so a failure storm that re-runs the
     * drain epilogue cannot roll PM back twice or double-count with the
     * oracle.
     */
    void crashFinish(Tick now = 0);

    // ---- Fault handling (crash-time ECC damage, §IV-F hardening) ---------
    /**
     * Smallest WPQ region with an ECC-damaged entry (bit flip / torn
     * write detected by the battery-backed queue's ECC); invalidRegion
     * when the queue is clean.
     */
    RegionId minDamagedRegion() const { return wpq_.minDamagedRegion(); }

    /**
     * Would truncating the crash drain before region @p b lose writes
     * that already reached PM without undo logging? True when a region
     * >= @p b committed here or had a normal (non-shadowed) flush start:
     * such writes cannot be rolled back, so stopping at @p b would leave
     * PM holding a *partial* suffix — detected-unrecoverable, never a
     * silent truncation.
     */
    bool truncationHazard(RegionId b) const;

    /**
     * Stop the crash drain before region @p b (the globally lowest
     * damaged region): regions >= @p b are discarded as if the power had
     * failed one epoch earlier. @p hazard marks the image unrecoverable
     * (see truncationHazard); the drain still runs so PM lands in a
     * deterministic state, but recovery must refuse the image.
     */
    void
    setCorruptBarrier(RegionId b, bool hazard)
    {
        corruptBarrier_ = std::min(corruptBarrier_, b);
        detectedUnrecoverable_ = detectedUnrecoverable_ || hazard;
    }

    /** Absorb @p iters crash-drain quiescence iterations (MC stall). */
    void setCrashStall(unsigned iters) { stallIters_ = iters; }

    RegionId corruptBarrier() const { return corruptBarrier_; }
    bool detectedUnrecoverable() const { return detectedUnrecoverable_; }

    /** Mutable WPQ access for the fault layer's crash-time damage. */
    Wpq &wpqMutable() { return wpq_; }

    // ---- Introspection ---------------------------------------------------
    RegionId flushId() const { return flushId_; }
    RegionId drainCursor() const { return drainCursor_; }
    const Wpq &wpq() const { return wpq_; }
    Cache &dramCache() { return dramCache_; }
    const Cache &dramCache() const { return dramCache_; }
    bool inFallback() const { return fallbackActive_; }

    /**
     * Region slots the ring holds, from min(flushId, drainCursor) up to
     * the newest region touched. Test-only: the ring stays bounded by
     * the regions in flight, however many regions a run commits.
     */
    std::size_t liveRegionSlots() const { return ringLen_; }

    /** The controller's counters: exactly what resetStats() zeroes. */
    struct Counters
    {
        std::uint64_t flushedEntries = 0;    ///< WPQ entries released
        std::uint64_t fallbackFlushes = 0;   ///< undo-logged releases
        std::uint64_t overflowEvents = 0;    ///< soft fallback overflows
        std::uint64_t wpqLoadHits = 0;       ///< LLC misses the CAM served
        std::uint64_t loadMisses = 0;        ///< LLC misses served here
        std::uint64_t regionsCommitted = 0;  ///< flush-ACK rounds done
        std::uint64_t maxWpqOccupancy = 0;
        /** WPQ occupancy at every enqueue, over [0, WPQ size]. */
        stats::Distribution wpqOccupancy;
        /** Cycles from boundary arrival to full bdry-ACK round, §IV-B. */
        stats::Distribution bcastLatency{0, 4096, 32};

        static constexpr auto
        fields()
        {
            using C = Counters;
            return std::to_array<stats::Counter<C>>({
                {"flushedEntries", &C::flushedEntries},
                {"fallbackFlushes", &C::fallbackFlushes},
                {"overflowEvents", &C::overflowEvents},
                {"wpqLoadHits", &C::wpqLoadHits},
                {"loadMisses", &C::loadMisses},
                {"regionsCommitted", &C::regionsCommitted},
                {"maxWpqOccupancy", &C::maxWpqOccupancy},
                {"wpqOccupancy", &C::wpqOccupancy},
                {"bcastLatency", &C::bcastLatency},
            });
        }
    };

    const Counters &counters() const { return counters_; }

    /** `counters_ = {}`, with the occupancy range of this WPQ. */
    void
    resetStats()
    {
        counters_ = {.wpqOccupancy = {0, cfg_.wpqEntries + 1.0, 32}};
    }

  private:
    struct RegionState
    {
        bool bdryArrived = false;
        /**
         * One bit per MC whose bdry-ACK / flush-ACK has been observed
         * (flushAcks includes our own). A root announcement sets them
         * all at once.
         */
        DynBitset bdryAcks;
        DynBitset flushAcks;
        bool localFlushDone = false;
        bool bdryAckSent = false;
        Tick bdryArrivedAt = 0;       ///< stats-only (bcastLatency)
        /**
         * A normal (non-undo-logged) flush of this region reached PM.
         * Such writes cannot be rolled back, so a corruption barrier at
         * or below this region is a truncation hazard.
         */
        bool normalFlushStarted = false;

        /** Back to a fresh region's state, keeping the bitsets' storage. */
        void
        clear()
        {
            RegionState fresh;
            fresh.bdryAcks = std::move(bdryAcks);
            fresh.flushAcks = std::move(flushAcks);
            fresh.bdryAcks.reset(fresh.bdryAcks.size());
            fresh.flushAcks.reset(fresh.flushAcks.size());
            *this = std::move(fresh);
        }
    };

    /**
     * Region @p r's state, the ring growing to cover it. A region the
     * ring has retired (below min(flushId_, drainCursor_)) gets a
     * scratch slot: only a late flush-ACK writes there, and nothing
     * reads a retired region again.
     */
    RegionState &state(RegionId r);

    /** Region @p r's slot, or null outside the ring (a fresh region). */
    const RegionState *peek(RegionId r) const;

    /** Retire the slots both flushId_ and drainCursor_ have passed. */
    void retireRegions();

    /** All peers' bdry-ACKs plus our own arrival: safe to flush. */
    bool ready(RegionId r) const;

    /** The round is complete: every peer's bdry-ACK has been observed. */
    bool
    bdryAcksComplete(const RegionState &st) const
    {
        return st.bdryAcks.containsAll(peersAll_);
    }

    /** Every MC's flush-ACK for the region has been observed. */
    bool
    flushAcksComplete(const RegionState &st) const
    {
        return st.flushAcks.containsAll(peersAll_);
    }

    /** Hand our @p type ACK round for region @p r to the fabric. */
    void ackRound(McMsg::Type type, RegionId r, Tick now);

    /** Mark region @p r locally flushed; exchange flush-ACKs; advance. */
    void finishLocalFlush(RegionId r, Tick now);

    void maybeAdvanceFlushId(Tick now);

    /**
     * Release one entry to PM. Fallback flushes are undo-logged; any
     * flush (normal or fallback) of an entry older than a fallback write
     * to the same address updates that write's undo pre-image instead of
     * touching PM, so region-ordered final values and crash restoration
     * both stay correct despite the out-of-order fallback.
     */
    void flushEntryToPm(const PersistEntry &e, bool fallback, Tick now);

    /**
     * Report a PM-affecting event to the oracle and the trace sink:
     * kind 0 = normal flush, 1 = fallback flush, 2 = skipped (absorbed
     * into an undo pre-image), 3 = crash undo restore.
     */
    void traceEvent(int kind, Addr addr, std::uint64_t value,
                    RegionId region, Tick now);

    /**
     * De-taint addresses whose shadow writes are all committed. A shadow
     * is erasable exactly when its maxRegion (the max over its writes'
     * regions) has dropped below the drain cursor, so the candidates are
     * kept in a lazy min-heap keyed by maxRegion: each cursor advance
     * pops only the shadows that just became erasable instead of
     * rescanning every live shadow's write list (the former O(shadows *
     * writes) hot spot that dominated high-thread-count runs). Entries
     * whose shadow has since grown a newer maxRegion are stale and
     * skipped — the growth pushed a fresh entry.
     */
    void pruneCommittedShadows();

    McId id_;
    const McConfig cfg_;
    MemImage &pm_;
    noc::Noc &noc_;
    DynBitset peersAll_;  ///< every MC id except our own
    Wpq wpq_;
    Cache dramCache_;

    /**
     * Per-region protocol state for regions [ringBase_, ringBase_ +
     * ringLen_), in a ring of power-of-two capacity starting at slot
     * ringHead_. Slots outside that window are kept fresh, so a region
     * the window grows over starts fresh, and slots are reused rather
     * than allocated per region. A commit clears its slot in place: a
     * later state() of the committed region sees a fresh slot, exactly
     * as if its state had been erased and re-created.
     */
    std::vector<RegionState> ring_;
    std::size_t ringHead_ = 0;
    std::size_t ringLen_ = 0;
    RegionId ringBase_ = 1;
    RegionState retired_;       ///< scratch slot for retired regions
    RegionId drainCursor_ = 1;  ///< next region to drain locally
    RegionId flushId_ = 1;      ///< persistent register (committed prefix)
    Tick nextDrainTick_ = 0;
    Tick nextDcReadSlot_ = 0;   ///< DRAM-cache read-bandwidth cursor
    Tick nextPmReadSlot_ = 0;   ///< PM read-bandwidth cursor

    /**
     * Battery-backed shadow of a fallback-tainted address: the pre-taint
     * value plus every subsequent write (region, value) in flush order.
     * At a crash the address resolves to the newest write of a committed
     * region (or the base value when none committed) — uncommitted
     * fallback writes are thereby rolled back and committed writes that
     * were chronologically overtaken are reinstated.
     */
    struct Shadow
    {
        std::uint64_t base = 0;
        RegionId maxRegion = 0;  ///< newest region that reached PM
        std::vector<std::pair<RegionId, std::uint64_t>> writes;
    };

    bool fallbackActive_ = false;
    bool faultFired_ = false;   ///< faultReleaseEarly one-shot latch
    std::map<Addr, Shadow> shadows_;
    /** Prune candidates: (shadow maxRegion at push time, address). */
    std::priority_queue<std::pair<RegionId, Addr>,
                        std::vector<std::pair<RegionId, Addr>>,
                        std::greater<>>
        shadowPruneQ_;

    // Crash-time fault-handling state (inert without fault injection).
    RegionId corruptBarrier_ = invalidRegion;
    bool detectedUnrecoverable_ = false;
    unsigned stallIters_ = 0;
    bool crashFinished_ = false;  ///< crashFinish() already ran

    Counters counters_;
};

} // namespace mem
} // namespace lwsp

#endif // LWSP_MEM_MEM_CONTROLLER_HH
