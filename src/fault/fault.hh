/**
 * @file
 * Seeded hardware fault injection for the LightWSP machine model.
 *
 * The paper's safety argument (§IV) assumes perfect hardware: boundary
 * broadcasts always arrive, the battery-backed WPQ never loses a bit,
 * and checkpointed registers read back intact. This layer makes each of
 * those assumptions falsifiable. A `FaultConfig` selects fault axes and
 * a `FaultInjector` (created only when `enabled`) rolls seeded,
 * reproducible outcomes for them:
 *
 *  - NoC boundary-broadcast loss / delay / duplication, rolled per
 *    delivery attempt on each fabric link (probabilistic, in permille)
 *    or pinned to the first broadcast at/after a given tick. On the
 *    flat fabric a link is one router->MC path; on a tree fabric the
 *    roll happens per tree link, so one bad high link near the root
 *    loses the whole subtree below it at once (noc/noc.hh);
 *  - WPQ entry damage at crash time: ECC-detected bit flips and torn
 *    (partial-granule) writes, optionally pinned to a checkpoint-area
 *    entry;
 *  - PM media read errors (poisoned words) in the checkpoint area,
 *    surfacing during recovery;
 *  - a silent (ECC-escaping) bit flip in a persisted register slot,
 *    catchable only by the hardened checkpoint checksum;
 *  - MC stalls absorbed during the §IV-F crash drain.
 *
 * Zero-cost-when-off discipline (same pattern as LrpoOracle and
 * TraceSink): components hold a `FaultInjector *` that is null unless
 * faults are enabled, and every hook site is guarded by that pointer.
 * With the injector armed but all knobs at their defaults, timing and
 * traces stay bit-identical to a build without the layer.
 *
 * Configs round-trip through a compact `k=v,k=v` spec string so fault
 * points embed in `lwsp-fuzz:v1:` reproducers and CLI flags.
 */

#ifndef LWSP_FAULT_FAULT_HH
#define LWSP_FAULT_FAULT_HH

#include <cstdint>
#include <string>

#include "common/random.hh"
#include "common/types.hh"

namespace lwsp {
namespace fault {

/**
 * One fault scenario. Defaults mean "no fault"; `toString()` emits only
 * non-default keys in a canonical order, so specs round-trip exactly.
 */
struct FaultConfig
{
    /** Master switch: the System creates a FaultInjector iff true. */
    bool enabled = false;
    /**
     * Use the hardened checkpoint format: PC-slot stores carry a 32-bit
     * checksum over the thread's register slots in their upper half, and
     * recovery verifies it. Off by default so golden traces and CSVs
     * stay bit-identical to the unhardened machine.
     */
    bool hardenedCkpt = false;
    /** Injector RNG seed; 0 derives one from the system seed. */
    std::uint64_t seed = 0;

    // --- NoC boundary-broadcast faults (per per-MC delivery attempt) ---
    /** Permille chance a broadcast copy is dropped on the link. */
    unsigned bcastLossPm = 0;
    /** Permille chance a broadcast copy is delayed. */
    unsigned bcastDelayPm = 0;
    /** Extra cycles added to a delayed copy. */
    Tick bcastDelayCycles = 120;
    /** Permille chance a broadcast copy is duplicated. */
    unsigned bcastDupPm = 0;
    /**
     * Pinned loss: drop every per-MC copy of the first boundary
     * broadcast issued at or after this tick (maxTick = disabled).
     */
    Tick bcastLossPinTick = maxTick;

    // --- Battery-backed WPQ damage, applied once at crash time ---
    /** Flip one bit in one random WPQ entry (ECC detects it). */
    bool wpqBitFlip = false;
    /** Tear one random WPQ entry (partial granule; ECC detects it). */
    bool wpqTear = false;
    /** Pin the damage to a checkpoint-area WPQ entry if one exists. */
    bool ckptEntryDamage = false;

    // --- PM media errors, applied once at crash time ---
    /** Poison this many checkpoint-area words (read errors at recovery). */
    unsigned pmPoisonWords = 0;
    /** Silently flip one bit of a persisted register slot (no poison). */
    bool silentCkptFlip = false;

    // --- Memory-controller drain stalls ---
    /** Quiescence iterations one MC stalls for during the §IV-F drain. */
    unsigned mcStallIters = 0;

    /** True if any fault axis (not just enabled/hardenedCkpt) is set. */
    bool anyArmed() const;

    /** Canonical `k=v,k=v` spec (empty when nothing differs from default). */
    std::string toString() const;
    /** Parse a spec produced by toString(); @p err explains failures. */
    static bool parse(const std::string &s, FaultConfig &out,
                      std::string &err);
};

/** Outcome of one broadcast-copy delivery roll. */
enum class BcastFate : std::uint8_t { Deliver, Drop, Delay, Duplicate };

/**
 * Seeded fault oracle plus broadcast-fate counts. Pure decision logic —
 * the NoC, MCs and System own the mechanics of acting on each decision.
 */
class FaultInjector
{
  public:
    /**
     * @param cfg the scenario (copied)
     * @param fallback_seed used when cfg.seed == 0, so campaigns get a
     *        distinct stream per case without spelling a seed
     */
    FaultInjector(const FaultConfig &cfg, std::uint64_t fallback_seed)
        : cfg_(cfg),
          rng_(cfg.seed ? cfg.seed : (fallback_seed ^ 0xfa17a17ull))
    {
    }

    const FaultConfig &config() const { return cfg_; }
    Rng &rng() { return rng_; }

    /**
     * Should the whole broadcast issued at @p now be dropped (every
     * per-MC copy)? Latches: fires for at most one broadcast.
     */
    bool
    pinnedBcastDrop(Tick now)
    {
        if (pinConsumed_ || now < cfg_.bcastLossPinTick)
            return false;
        pinConsumed_ = true;
        return true;
    }

    /** Roll the fate of one per-MC broadcast copy. */
    BcastFate
    bcastFate()
    {
        if (cfg_.bcastLossPm == 0 && cfg_.bcastDelayPm == 0 &&
            cfg_.bcastDupPm == 0)
            return BcastFate::Deliver;
        std::uint64_t roll = rng_.below(1000);
        if (roll < cfg_.bcastLossPm)
            return BcastFate::Drop;
        roll -= cfg_.bcastLossPm;
        if (roll < cfg_.bcastDelayPm)
            return BcastFate::Delay;
        roll -= cfg_.bcastDelayPm;
        if (roll < cfg_.bcastDupPm)
            return BcastFate::Duplicate;
        return BcastFate::Deliver;
    }

    Tick bcastDelayCycles() const { return cfg_.bcastDelayCycles; }

    // Broadcast-copy fates the injector decided. What follows from them
    // is counted once, where it happens: retries and copies lost at the
    // crash by the Noc, crash-time damage by the System's CrashReport.
    std::uint64_t bcastDrops = 0;
    std::uint64_t bcastDelays = 0;
    std::uint64_t bcastDups = 0;

  private:
    FaultConfig cfg_;
    Rng rng_;
    bool pinConsumed_ = false;
};

} // namespace fault
} // namespace lwsp

#endif // LWSP_FAULT_FAULT_HH
