/**
 * @file
 * The top-level clock driver, with two interchangeable engines.
 *
 * Owns no components (they are owned by the System being simulated);
 * holds raw registration pointers plus the event engine's wake ticks.
 *
 * Engines (results are bit-identical, asserted by test_engine):
 *
 *  - Event (default): discrete-event scheduling over one array of wake
 *    ticks, one entry per component in registration order: the cycle
 *    it next wants to tick. A cycle walks the array in order, ticks
 *    every component whose entry is due and re-arms it from its
 *    post-tick nextActiveTick(). External mutations re-arm through
 *    Clocked::rearm() -> touch(), a single store. A due flag, set by
 *    any wake tick stored for the next cycle to execute, keeps busy
 *    stretches from scanning the array: only while it is clear does
 *    nextEventTick() take the array's minimum, the target of a clock
 *    jump. Idle components cost one compare per executed cycle.
 *
 *  - Cycle: the reference — tick every component every cycle. It reads
 *    no nextActiveTick() self-report and skips nothing, so it shares
 *    none of the scheduling code it checks. Kept selectable
 *    (--engine=cycle) as the ground truth for A/B verification.
 *
 * The linear nextActiveTick() scan backs a debug cross-check, armed by
 * LWSP_VERIFY_WAKEUPS=1 in the environment when the Simulator is built
 * (unset, empty or 0 is off): every time the event engine would skip
 * cycles it asserts its next wakeup is never later than the full rescan
 * — an early wake tick is just a spurious no-op wakeup, but a late one
 * is a missed event, i.e. a component changed state without re-arming.
 */

#ifndef LWSP_SIM_SIMULATOR_HH
#define LWSP_SIM_SIMULATOR_HH

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/clocked.hh"

namespace lwsp {

/** Which clock driver advances the components. */
enum class SimEngine : std::uint8_t
{
    Event,  ///< wake-tick array (default)
    Cycle,  ///< reference loop: tick everyone every cycle
};

/** SimEngine names, indexed by the enum (the --engine spelling). */
inline constexpr const char *simEngineNames[] = {"event", "cycle"};

constexpr const char *
simEngineName(SimEngine e)
{
    return simEngineNames[static_cast<std::size_t>(e)];
}

namespace detail {
inline std::atomic<SimEngine> processEngine{SimEngine::Event};
} // namespace detail

/**
 * The process-wide engine, SimEngine::Event unless the `--engine` flag
 * (harness::engineFlag) changed it. It is SystemConfig::engine's
 * initializer, so every config built after flag parsing honours it.
 */
inline SimEngine
defaultSimEngine()
{
    return detail::processEngine.load(std::memory_order_relaxed);
}

inline void
setDefaultSimEngine(SimEngine e)
{
    detail::processEngine.store(e, std::memory_order_relaxed);
}

class Simulator
{
  public:
    Simulator() = default;

    /** Select the engine; call before the first executeCycle(). */
    void setEngine(SimEngine e) { engine_ = e; }

    /** Register a component; same-cycle ticks follow registration order. */
    void
    add(Clocked *component)
    {
        LWSP_ASSERT(component != nullptr, "null component");
        component->sim_ = this;
        component->schedIdx_ = static_cast<std::uint32_t>(wake_.size());
        components_.push_back(component);
        // Due at the current cycle: every component runs its first
        // tick, matching the cycle engine's unconditional cycle 0.
        wake_.push_back(now_);
        mayBeDue_ = true;
    }

    /** Current cycle (the next cycle to execute). */
    Tick now() const { return now_; }

    /**
     * Earliest cycle >= now() at which any component might act. Event
     * engine: now() while the due flag is set, else the minimum wake
     * tick. Cycle engine: always now(), since the reference trusts no
     * self-report.
     */
    Tick
    nextEventTick() const
    {
        if (engine_ == SimEngine::Cycle || mayBeDue_)
            return now_;
        Tick next = maxTick;
        for (Tick w : wake_)
            next = std::min(next, w);
        next = std::max(next, now_);
        // A wakeup EARLIER than the component's self-report is legal:
        // the component wakes, no-ops (nextActiveTick contract) and
        // re-arms — e.g. a state change that postponed work without
        // rearm(). One LATER than the self-report is a missed wakeup:
        // some external mutation advanced the component's schedule
        // without rearm().
        if (verify_ && next > nextActiveTick()) {
            std::uint32_t bad = 0;
            for (std::uint32_t i = 0;
                 i < static_cast<std::uint32_t>(components_.size()); ++i) {
                const Clocked *c = components_[i];
                if (wake_[i] > std::max(c->nextActiveTick(now_), now_))
                    bad = i;
            }
            LWSP_ASSERT(false,
                        "missed wakeup: component ", bad, " wakeup ",
                        wake_[bad], " is past its self-reported ",
                        components_[bad]->nextActiveTick(now_),
                        " at cycle ", now_,
                        " — state changed without rearm()");
        }
        return next;
    }

    /**
     * Execute one cycle. Event engine: tick exactly the due components
     * in registration order, re-arming each afterwards; a component
     * touched mid-cycle by an already-ticked peer joins this cycle iff
     * its index is still ahead of the tick in progress (see touch()).
     * Cycle engine: tick everyone.
     */
    void
    executeCycle()
    {
        const Tick t = now_;
        if (engine_ == SimEngine::Cycle) {
            for (auto *c : components_)
                c->tick(t);
            ++now_;
            return;
        }
        inCycle_ = true;
        mayBeDue_ = false;
        for (curIdx_ = 0; curIdx_ < wake_.size(); ++curIdx_) {
            if (wake_[curIdx_] > t)
                continue;
            Clocked *c = components_[curIdx_];
            c->tick(t);
            // Self-touches during the tick are folded into this
            // re-arm; the contract guarantees it is strictly past t.
            Tick next = c->nextActiveTick(t + 1);
            LWSP_ASSERT(next > t, "component re-armed in the past");
            wake_[curIdx_] = next;
            if (next == t + 1)
                mayBeDue_ = true;
        }
        inCycle_ = false;
        ++now_;
    }

    /**
     * Jump the clock to @p target without ticking anything. Only legal
     * when every component is provably inert over the skipped window
     * (target <= nextEventTick()).
     */
    void
    advanceTo(Tick target)
    {
        LWSP_ASSERT(target >= now_, "advanceTo into the past");
        now_ = target;
    }

    /**
     * Linear minimum over every component's nextActiveTick(): the event
     * engine's cross-check oracle, on neither engine's hot path.
     */
    Tick
    nextActiveTick() const
    {
        Tick next = maxTick;
        for (const auto *c : components_) {
            next = std::min(next, c->nextActiveTick(now_));
            if (next <= now_)
                return now_;
        }
        return std::max(next, now_);
    }

    /**
     * Re-arm @p c after an external mutation (Clocked::rearm()).
     *
     * Cycle-position rules keep the event engine bit-identical to
     * ticking everyone in registration order:
     *  - outside a cycle, re-evaluate from the current cycle;
     *  - mid-cycle, a component *ahead* of the tick in progress may
     *    still join this cycle (the cycle engine would tick it after
     *    the mutating peer), or leave it if its work moved later;
     *  - a component at or *behind* the tick in progress re-evaluates
     *    from the next cycle: the cycle engine already ran (or provably
     *    no-op'd) its slot this cycle before the mutation happened.
     * The touch stores the wake tick, and one due by the next cycle to
     * execute sets the due flag (mid-cycle, one at now() is ticked by
     * the walk in progress and leaves the flag set harmlessly). A
     * postponing touch leaves the flag as it was: if it goes stale, the
     * next cycle ticks nothing and clears it.
     */
    void
    touch(Clocked &c)
    {
        if (engine_ != SimEngine::Event)
            return;
        std::uint32_t idx = c.schedIdx_;
        Tick base = now_;
        if (inCycle_) {
            if (idx == curIdx_)
                return;  // own tick: the post-tick re-arm covers it
            if (idx < curIdx_)
                base = now_ + 1;
        }
        const Tick n = std::max(c.nextActiveTick(base), base);
        wake_[idx] = n;
        if (n <= now_ + (inCycle_ ? 1 : 0))
            mayBeDue_ = true;
    }

  private:
    Tick now_ = 0;
    std::vector<Clocked *> components_;
    std::vector<Tick> wake_;  ///< registration index -> next wake tick
    SimEngine engine_ = SimEngine::Event;
    /** The wake-ticks-vs-rescan cross-check (event engine only). */
    bool verify_ = envSwitch("LWSP_VERIFY_WAKEUPS");
    bool inCycle_ = false;
    bool mayBeDue_ = false;   ///< some wake tick may be <= the next cycle
    std::uint32_t curIdx_ = 0;
};

inline void
Clocked::rearm()
{
    if (sim_ != nullptr)
        sim_->touch(*this);
}

} // namespace lwsp

#endif // LWSP_SIM_SIMULATOR_HH
