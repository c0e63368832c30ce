/**
 * @file
 * The top-level clock driver, with two interchangeable engines.
 *
 * Owns no components (they are owned by the System being simulated);
 * holds raw registration pointers plus the event engine's two lanes.
 *
 * Engines (results are bit-identical, asserted by test_engine):
 *
 *  - Event (default): discrete-event scheduling over two lanes.
 *     - Due lane: a dense bitset, one bit per component in registration
 *       order, of the components due this cycle, plus a second bitset
 *       collecting those due next cycle. A component busy every cycle
 *       lives here and never touches the heap.
 *     - Sleeper lane: an indexed heap (EventQueue) keyed by the cycle
 *       each sleeping component next wants to tick.
 *    A cycle first lets the sleepers due now join the due bitset (a walk
 *    of the heap's due prefix; nothing is popped), then ticks the due
 *    components in registration order with count-trailing-zeros and
 *    re-arms each from its post-tick nextActiveTick(): due next cycle
 *    joins the next bitset, a later cycle keys the heap. External
 *    mutations re-arm through Clocked::rearm() -> touch(). Idle
 *    components cost nothing per skipped cycle.
 *
 *  - Cycle: the reference — tick every component every cycle. It reads
 *    no nextActiveTick() self-report and skips nothing, so it shares
 *    none of the scheduling code it checks. Kept selectable
 *    (--engine=cycle) as the ground truth for A/B verification.
 *
 * The linear nextActiveTick() scan backs a debug cross-check
 * (LWSP_VERIFY_WAKEUPS=1, or SystemConfig::verifyWakeups): every time
 * the event engine would skip cycles it asserts its next wakeup is
 * never later than the full rescan — an early key is just a spurious
 * no-op wakeup, but a late key is a missed event, i.e. a component
 * changed state without re-arming.
 */

#ifndef LWSP_SIM_SIMULATOR_HH
#define LWSP_SIM_SIMULATOR_HH

#include <algorithm>
#include <atomic>
#include <bit>
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
    Event,  ///< due bitset + sleeper heap (default)
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

    /** Enable the lanes-vs-rescan cross-check (event engine only). */
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
        component->sim_ = this;
        // Due at the current cycle: every component runs its first
        // tick, matching the cycle engine's unconditional cycle 0.
        component->schedIdx_ = queue_.add(maxTick);
        components_.push_back(component);
        due_.resize((components_.size() + 63) / 64);
        next_.resize(due_.size());
        due_[component->schedIdx_ / 64] |= bitOf(component->schedIdx_);
    }

    /** Current cycle (the next cycle to execute). */
    Tick now() const { return now_; }

    /**
     * Earliest cycle >= now() at which any component might act. Event
     * engine: now() while the due bitset is non-empty, else the heap
     * minimum. Cycle engine: always now(), since the reference trusts
     * no self-report.
     */
    Tick
    nextEventTick() const
    {
        if (engine_ == SimEngine::Cycle || anyDue())
            return now_;
        Tick next =
            queue_.empty() ? maxTick : std::max(now_, queue_.topTick());
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
                if (wakeOf(i) > std::max(c->nextActiveTick(now_), now_))
                    bad = i;
            }
            LWSP_ASSERT(false,
                        "missed wakeup: component ", bad, " wakeup ",
                        wakeOf(bad), " is past its self-reported ",
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
        // Sleepers due now join the bitset but keep their heap key
        // until their post-tick re-arm moves them.
        queue_.forEachDue(t, [this](std::uint32_t i) {
            due_[i / 64] |= bitOf(i);
        });
        // Bits behind the cursor are clear and touch() only sets bits
        // ahead of it, so the lowest set bit is always the next tick.
        for (std::size_t w = 0; w < due_.size(); ++w) {
            while (due_[w] != 0) {
                curIdx_ = static_cast<std::uint32_t>(
                    w * 64 + std::countr_zero(due_[w]));
                due_[w] &= due_[w] - 1;
                Clocked *c = components_[curIdx_];
                c->tick(t);
                // Self-touches during the tick are folded into this
                // re-arm; the contract guarantees it is strictly past t.
                // The walk cleared the due bit and no touch set the next
                // one, so only the new lane needs writing.
                Tick next = c->nextActiveTick(t + 1);
                LWSP_ASSERT(next > t, "component re-armed in the past");
                const bool busy = next == t + 1;
                if (busy)
                    next_[w] |= bitOf(curIdx_);
                queue_.set(curIdx_, busy ? maxTick : next);
            }
        }
        inCycle_ = false;
        due_.swap(next_);
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
     * place() then moves it to the lane its next tick calls for.
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
        place(idx, std::max(c.nextActiveTick(base), base));
    }

  private:
    static constexpr std::uint64_t
    bitOf(std::uint32_t idx)
    {
        return std::uint64_t{1} << (idx % 64);
    }

    bool
    anyDue() const
    {
        return std::any_of(due_.begin(), due_.end(),
                           [](std::uint64_t w) { return w != 0; });
    }

    /** Cycle component @p idx next ticks at as the lanes hold it
     *  (outside a cycle): now() in the due bitset, else its heap key. */
    Tick
    wakeOf(std::uint32_t idx) const
    {
        return (due_[idx / 64] & bitOf(idx)) != 0 ? now_
                                                  : queue_.keyOf(idx);
    }

    /**
     * touch()'s lane move: put component @p idx, wherever it is, in the
     * lane for its next tick @p n >= now(), and clear it from the others:
     *  - n == now(): the due bitset. A woken sleeper keeps its due heap
     *    key until its post-tick re-arm, which re-keys it anyway;
     *  - n == now() + 1 mid-cycle: the next-cycle bitset;
     *  - otherwise: a heap key at n.
     * A lane member's heap key is parked at maxTick.
     */
    void
    place(std::uint32_t idx, Tick n)
    {
        std::uint64_t &due = due_[idx / 64];
        std::uint64_t &next = next_[idx / 64];
        const std::uint64_t bit = bitOf(idx);
        Tick key = maxTick;
        if (n == now_) {
            due |= bit;
            next &= ~bit;
            if (queue_.keyOf(idx) <= now_)
                return;
        } else if (n == now_ + 1 && inCycle_) {
            due &= ~bit;
            next |= bit;
        } else {
            due &= ~bit;
            next &= ~bit;
            key = n;
        }
        queue_.set(idx, key);
    }

    Tick now_ = 0;
    std::vector<Clocked *> components_;
    std::vector<std::uint64_t> due_;   ///< due lane, this cycle
    std::vector<std::uint64_t> next_;  ///< due lane, next cycle
    EventQueue queue_;                 ///< sleeper lane
    SimEngine engine_ = SimEngine::Event;
    bool verify_ = false;
    bool inCycle_ = false;
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
