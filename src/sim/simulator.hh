/**
 * @file
 * The top-level clock driver, with two interchangeable engines.
 *
 * Owns no components (they are owned by the System being simulated); holds
 * raw registration pointers plus a wakeup heap with one slot per component.
 *
 * Engines (results are bit-identical, asserted by test_engine):
 *
 *  - Event (default): discrete-event scheduling. Each component's slot in
 *    the wakeup heap is keyed by its own nextActiveTick(); executing a
 *    cycle pops and ticks exactly the due components (registration order
 *    within the cycle, via the heap's (tick, index) key) and re-arms each
 *    from its post-tick self-report. External mutations re-arm through
 *    Clocked::rearm() -> touch(). Idle components cost zero per skipped
 *    cycle, and the per-cycle linear scan over all components is gone
 *    from the hot path entirely.
 *
 *  - Cycle: the reference — tick every component every cycle. It reads
 *    no nextActiveTick() self-report and skips nothing, so it shares
 *    none of the scheduling code it checks. Kept selectable
 *    (--engine=cycle) as the ground truth for A/B verification.
 *
 * The linear nextActiveTick() scan backs a debug cross-check
 * (LWSP_VERIFY_WAKEUPS=1, or SystemConfig::verifyWakeups): every time
 * the event engine consults the heap it asserts the heap minimum is
 * never later than the full rescan — an early key is just a spurious
 * no-op wakeup, but a late key is a missed event, i.e. a component
 * changed state without re-arming.
 */

#ifndef LWSP_SIM_SIMULATOR_HH
#define LWSP_SIM_SIMULATOR_HH

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "sim/clocked.hh"
#include "sim/event_queue.hh"

namespace lwsp {

/** Which clock driver advances the components. */
enum class SimEngine : std::uint8_t
{
    Event,  ///< discrete-event wakeup heap (default)
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

class Simulator : public Scheduler
{
  public:
    Simulator() = default;

    /** Select the engine; call before the first executeCycle(). */
    void setEngine(SimEngine e) { engine_ = e; }

    /** Enable the heap-vs-rescan cross-check (event engine only). */
    void
    setVerifyWakeups(bool v)
    {
        verify_ = v || std::getenv("LWSP_VERIFY_WAKEUPS") != nullptr;
    }

    /** Register a component; same-cycle ticks follow registration order. */
    void
    add(Clocked *component)
    {
        LWSP_ASSERT(component != nullptr, "null component");
        component->sched_ = this;
        // Armed at the current cycle: every component runs its first
        // tick, matching the cycle engine's unconditional cycle 0.
        component->schedIdx_ = queue_.add(now_);
        components_.push_back(component);
    }

    /** Current cycle (the next cycle to execute). */
    Tick now() const { return now_; }

    /**
     * Earliest cycle >= now() at which any component might act. Event
     * engine: O(1) heap minimum. Cycle engine: always now(), since the
     * reference trusts no self-report.
     */
    Tick
    nextEventTick() const
    {
        if (engine_ == SimEngine::Cycle)
            return now_;
        Tick next =
            queue_.empty() ? maxTick : std::max(now_, queue_.topTick());
        // A heap key EARLIER than the component's self-report is legal:
        // the component wakes, no-ops (nextActiveTick contract) and
        // re-arms — e.g. the conservative arm-at-registration, or a
        // state change that postponed work without rearm(). A key LATER
        // than the self-report is a missed wakeup: some external
        // mutation advanced the component's schedule without rearm().
        if (verify_ && next > nextActiveTick()) {
            std::uint32_t bad = 0;
            for (std::uint32_t i = 0;
                 i < static_cast<std::uint32_t>(components_.size()); ++i) {
                const Clocked *c = components_[i];
                if (queue_.keyOf(i) >
                    std::max(c->nextActiveTick(now_), now_))
                    bad = i;
            }
            LWSP_ASSERT(false,
                        "missed wakeup: component ", bad, " heap key ",
                        queue_.keyOf(bad), " is past its self-reported ",
                        components_[bad]->nextActiveTick(now_),
                        " at cycle ", now_,
                        " — state changed without rearm()");
        }
        return next;
    }

    /**
     * Execute one cycle. Event engine: tick exactly the due components,
     * re-arming each afterwards; a component touched mid-cycle by an
     * already-ticked peer joins this cycle iff its slot index is still
     * ahead of the tick in progress (see touch()). Cycle engine: tick
     * everyone.
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
        while (!queue_.empty() && queue_.topTick() <= t) {
            curIdx_ = queue_.topIndex();
            Clocked *c = components_[curIdx_];
            c->tick(t);
            // Self-touches during the tick are folded into this re-arm;
            // the contract guarantees the result is strictly past t.
            Tick next = c->nextActiveTick(t + 1);
            LWSP_ASSERT(next > t, "component re-armed in the past");
            queue_.set(curIdx_, next);
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

    // ---- Scheduler --------------------------------------------------------
    /**
     * Re-arm @p c after an external mutation (Clocked::rearm()).
     *
     * Cycle-position rules keep the event engine bit-identical to
     * ticking everyone in registration order:
     *  - outside a cycle, re-evaluate from the current cycle;
     *  - mid-cycle, a component *ahead* of the tick in progress may
     *    still join this cycle (the cycle engine would tick it after
     *    the mutating peer);
     *  - a component at or *behind* the tick in progress re-evaluates
     *    from the next cycle: the cycle engine already ran (or provably
     *    no-op'd) its slot this cycle before the mutation happened.
     */
    void
    touch(Clocked &c) override
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
        queue_.set(idx, std::max(c.nextActiveTick(base), base));
    }

  private:
    Tick now_ = 0;
    std::vector<Clocked *> components_;
    EventQueue queue_;
    SimEngine engine_ = SimEngine::Event;
    bool verify_ = false;
    bool inCycle_ = false;
    std::uint32_t curIdx_ = 0;
};

} // namespace lwsp

#endif // LWSP_SIM_SIMULATOR_HH
