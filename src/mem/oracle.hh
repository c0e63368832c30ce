/**
 * @file
 * Always-on runtime invariant oracles for LRPO (lazy region-level
 * persist ordering).
 *
 * The oracle is a passive observer of protocol events — boundary
 * arrivals, bdry-ACKs, WPQ insertions, PM releases, region commits and
 * the crash drain — that rebuilds its own view of what the protocol
 * permits and flags any release the view forbids. It deliberately does
 * NOT read the memory controller's internal state (drain cursor, ready
 * bits): deriving legality independently from the event stream is what
 * lets it catch state-machine bugs instead of re-asserting them.
 *
 * Invariants checked (paper §III-B/IV-B/IV-D/IV-F):
 *  1. No store of an unclosed region is released to PM: a normal
 *     (non-fallback) flush of region r at MC m requires r's boundary to
 *     have arrived at m and every peer's bdry-ACK for r to have been
 *     received — fallback releases are exempt but must be undo-logged
 *     (kind 1) and may only occur in gated mode.
 *  2. Region boundaries release in broadcast order on every MC: normal
 *     flushes are per-MC non-decreasing in region id, and regions commit
 *     (flush-ID advance) densely in id order.
 *  3. WPQ occupancy never exceeds capacity, except for the §IV-D
 *     deadlock fallback, and then only for the awaited region's stores.
 *  4. Recovery never reads a byte younger than the last persisted
 *     boundary: after the crash drain, no PM word's last writer may
 *     belong to a region the owning MC did not commit.
 *
 * Zero-cost when disabled: every hook sits behind a null-pointer check
 * in the memory controller (`McConfig::oracle == nullptr`, the default).
 * Violations are collected, not thrown, so a fuzzing campaign can record
 * them alongside differential-check failures; tests assert `ok()`.
 *
 * The oracle also timestamps the events it observes (boundary edges,
 * WPQ drain steps, commits). Crash-consistency fuzzing mines these as
 * adversarial power-failure points — the cycles at which the protocol
 * is mid-handshake are exactly the ones worth crashing at.
 */

#ifndef LWSP_MEM_ORACLE_HH
#define LWSP_MEM_ORACLE_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "mem/persist.hh"

namespace lwsp {
namespace mem {

class LrpoOracle
{
  public:
    /**
     * @param num_mcs memory-controller count (for the peer-ACK census)
     * @param gated true when the WPQ is region-gated (LightWSP); the
     *        ordering invariants only apply to gated operation
     * @param tree_acks true when ACKs aggregate on a tree fabric
     *        (Noc::isTree()): MCs then see BdryAllAcked root
     *        announcements instead of per-peer bdry-ACKs, and
     *        invariant 1 checks against those
     */
    explicit LrpoOracle(unsigned num_mcs = 2, bool gated = true,
                        bool tree_acks = false)
        : numMcs_(num_mcs), gated_(gated), treeAcks_(tree_acks)
    {
    }

    // ---- Protocol event hooks (called by MemController) ------------------
    /** Boundary broadcast for @p region delivered at MC @p mc. */
    void onBdryArrival(McId mc, RegionId region, Tick now);

    /** Peer @p from's bdry-ACK for @p region received at MC @p mc. */
    void onBdryAck(McId mc, RegionId region, McId from);

    /** Tree root announced the completed bdry-ACK round at MC @p mc. */
    void onBdryAllAcked(McId mc, RegionId region);

    /** Entry accepted into MC @p mc's WPQ (occupancy is post-insert). */
    void onAccept(McId mc, const PersistEntry &e, std::size_t occupancy,
                  std::size_t capacity, bool fallback_active, Tick now);

    /** Per-cycle WPQ occupancy sample (every MC tick while enabled). */
    void onWpqSample(McId mc, std::size_t occupancy, std::size_t capacity,
                     bool fallback_active, Tick now);

    /**
     * PM-affecting release at MC @p mc. @p kind mirrors the flush trace
     * hook: 0 = normal flush, 1 = undo-logged fallback flush, 2 = write
     * absorbed into an undo pre-image (PM untouched), 3 = crash-drain
     * undo restore.
     */
    void onFlush(McId mc, int kind, Addr addr, std::uint64_t value,
                 RegionId region, Tick now);

    /** MC @p mc advanced its persistent flush-ID past @p region. */
    void onCommit(McId mc, RegionId region, Tick now);

    /**
     * MC @p mc finished the §IV-F crash drain; regions < @p drain_cursor
     * are its committed prefix. Verifies invariant 4 for its addresses.
     * With @p detected_unrecoverable the machine itself reported the PM
     * image as damaged beyond sound truncation (fault injection); the
     * oracle hunts *silent* corruption, so invariant 4 is skipped — the
     * hardware already refused to recover from this image.
     */
    void onCrashFinish(McId mc, RegionId drain_cursor,
                       bool detected_unrecoverable = false);

    // ---- Results ---------------------------------------------------------
    bool ok() const { return violations_.empty(); }
    const std::vector<std::string> &violations() const
    {
        return violations_;
    }
    std::string firstViolation() const
    {
        return violations_.empty() ? std::string() : violations_.front();
    }

    /** Total invariant evaluations (proves the checkers are live). */
    std::uint64_t checksRun() const { return checksRun_; }

    // ---- Event timestamps (adversarial crash-point mining) ---------------
    const std::vector<Tick> &boundaryTicks() const { return bdryTicks_; }
    const std::vector<Tick> &flushTicks() const { return flushTicks_; }
    const std::vector<Tick> &commitTicks() const { return commitTicks_; }

    /** Highest region MC @p mc has committed (0 when none). */
    RegionId
    lastCommit(McId mc) const
    {
        auto it = mcs_.find(mc);
        return it == mcs_.end() ? 0 : it->second.lastCommit;
    }

  private:
    void violate(Tick now, const std::string &what);

    struct PerMc
    {
        std::set<RegionId> arrived;
        /**
         * Flat fabric: which peers have bdry-ACKed each region. A set of
         * MC ids, not a shift mask — `1u << from` was UB past 32 MCs and
         * silently aliased wider fabrics.
         */
        std::map<RegionId, std::set<McId>> acks;
        /** Tree fabric: regions whose BdryAllAcked announcement landed. */
        std::set<RegionId> allAcked;
        RegionId lastNormalFlush = 0;
        RegionId lastCommit = 0;
    };

    PerMc &mcState(McId mc);

    /** Last PM write per address: who put the current value there. */
    struct LastWrite
    {
        McId mc = 0;
        RegionId region = 0;
        int kind = 0;
    };

    unsigned numMcs_;
    bool gated_;
    bool treeAcks_;

    std::map<McId, PerMc> mcs_;
    std::unordered_map<Addr, LastWrite> lastWriter_;

    std::vector<std::string> violations_;
    std::uint64_t checksRun_ = 0;

    // Bounded event-tick records (enough resolution for small fuzz
    // workloads; capped so long runs cannot grow without bound).
    static constexpr std::size_t maxTicksRecorded = 65536;
    std::vector<Tick> bdryTicks_;
    std::vector<Tick> flushTicks_;
    std::vector<Tick> commitTicks_;
};

} // namespace mem
} // namespace lwsp

#endif // LWSP_MEM_ORACLE_HH
