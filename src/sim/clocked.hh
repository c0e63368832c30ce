/**
 * @file
 * Clocked component interface.
 *
 * LightWSP's queues (store buffer, front-end buffer, persist path, WPQ, NoC
 * links) are tightly coupled with back-pressure flowing the whole way from
 * the memory controller to the core pipeline, so every component models one
 * cycle of work in tick(). Under the reference cycle engine the
 * Simulator calls tick() on everyone every cycle; under the event-driven
 * engine each component self-schedules via nextActiveTick() and is woken
 * early by rearm() whenever an external method changes its state.
 */

#ifndef LWSP_SIM_CLOCKED_HH
#define LWSP_SIM_CLOCKED_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace lwsp {

class Simulator;

/** A component advanced once per core clock cycle (when active). */
class Clocked
{
  public:
    explicit Clocked(std::string name) : name_(std::move(name)) {}
    virtual ~Clocked() = default;

    Clocked(const Clocked &) = delete;
    Clocked &operator=(const Clocked &) = delete;

    /** Advance one cycle. @p now is the cycle being executed. */
    virtual void tick(Tick now) = 0;

    /**
     * Earliest cycle >= @p now at which tick() might do anything — change
     * state or account a statistic. Components that can prove they are
     * quiescent until a known cycle (a delay-line head still in flight, a
     * drain-interval timer, a ROB head completing later) return that
     * cycle; maxTick means "inert until externally stimulated". The
     * default (always @p now) is safe for any component.
     *
     * Contract: between @p now and the returned tick, skipping this
     * component's tick() calls entirely must be behaviour-preserving,
     * provided no external method (message delivery, queue insertion,
     * thread assignment) is invoked on it in that window. Every external
     * entry point must therefore end with rearm(), which tells the
     * event-driven Simulator to re-evaluate this component's wakeup; the
     * scheduler relies on the pair (nextActiveTick contract + rearm on
     * every external mutation) to skip dead cycles with bit-identical
     * results.
     */
    virtual Tick
    nextActiveTick(Tick now) const
    {
        return now;
    }

    /** Instance name for logging/statistics. */
    const std::string &name() const { return name_; }

  protected:
    /**
     * Notify the Simulator that external state changed and the cached
     * wakeup time may be stale (Simulator::touch). Cheap no-op under
     * the cycle engine (and before registration). Call at the end of
     * every externally-invoked mutating method. Defined after Simulator
     * in sim/simulator.hh, which every component header includes.
     */
    void rearm();

  private:
    friend class Simulator;
    Simulator *sim_ = nullptr;     ///< set at Simulator::add()
    std::uint32_t schedIdx_ = 0;   ///< registration index (wake-tick slot)

    std::string name_;
};

} // namespace lwsp

#endif // LWSP_SIM_CLOCKED_HH
