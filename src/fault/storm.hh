/**
 * @file
 * Failure-storm schedules: sequences of power failures aimed at the
 * machinery that is supposed to survive power failures.
 *
 * WSP's §IV-F argument is that power may fail at *any* instant —
 * including while the crash drain or the recovery run is itself
 * executing. A `FailureSchedule` spells out such an adversarial
 * sequence as ordered events, each naming the phase the next failure
 * lands in:
 *
 *  - `Drain`   — power fails again after N quiescence iterations of the
 *                in-progress §IV-F drain. The battery-backed WPQ and MC
 *                protocol registers survive, so the next drain resumes
 *                where this one stopped (System::runWithFailureStorm).
 *  - `Recovery`— power fails during the recovery preamble, after the
 *                image was read but before execution resumes. PM is
 *                untouched, so the next recovery attempt re-validates
 *                the *same* image: System::recoverChecked must be
 *                idempotent — same verdict, same successor state.
 *  - `Exec`    — the recovered machine runs for N cycles and then loses
 *                power again, drain and all. (Crashing a pmtx program
 *                here with small N lands mid-undo-replay: the rollback
 *                itself must be crash-consistent.)
 *
 * Schedules ride fuzz replay specs as a `storm=` token, so the string
 * form is colon- and comma-free: events joined by '+', each `d<N>`,
 * `r`, or `x<N>` (e.g. "d1+r+x1500+d0"). `toString()` is canonical and
 * `parse(toString())` is the identity, the same fixpoint contract as
 * `FaultConfig` specs.
 */

#ifndef LWSP_FAULT_STORM_HH
#define LWSP_FAULT_STORM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace lwsp {
namespace fault {

/** Which phase of the crash/recover cycle the next failure lands in. */
enum class FailurePhase : std::uint8_t
{
    Drain,     ///< interrupt the §IV-F drain after `at` quiescence iters
    Recovery,  ///< re-enter recovery on the same image (`at` unused)
    Exec,      ///< run the recovered machine `at` cycles, then fail again
};

const char *failurePhaseName(FailurePhase p);

/** One failure in a storm. */
struct FailureEvent
{
    FailurePhase phase = FailurePhase::Exec;
    /** Drain: quiescence iterations; Exec: cycles after power-on. */
    std::uint64_t at = 0;

    bool operator==(const FailureEvent &o) const
    {
        return phase == o.phase && at == o.at;
    }
};

/**
 * An ordered failure schedule. Leading Drain events interrupt the drain
 * of the *initial* crash; Drain events after an Exec event interrupt
 * that failure's drain. The schedule is finite, so every storm
 * terminates: once it is exhausted the final recovered machine runs to
 * completion and is checked against the crash-free golden state.
 * core::walkLifetime (core/lifetime.hh) is the one walker.
 */
struct FailureSchedule
{
    std::vector<FailureEvent> events;

    bool empty() const { return events.empty(); }
    std::size_t size() const { return events.size(); }

    bool operator==(const FailureSchedule &o) const
    {
        return events == o.events;
    }

    /**
     * Interrupt budgets of the run of Drain events starting at index
     * @p first, in order (empty if events[first] is not a Drain): what
     * the drain of the failure before @p first takes, as
     * System::runWithFailureStorm's argument.
     */
    std::vector<unsigned> drainsFrom(std::size_t first) const;

    /** Canonical '+'-joined form ("d1+r+x1500"); "" when empty. */
    std::string toString() const;

    /**
     * Parse a schedule produced by toString(). Accepts the empty string
     * (empty schedule). @p err explains failures.
     */
    static bool parse(const std::string &s, FailureSchedule &out,
                      std::string &err);

    /**
     * Seeded random schedule of @p n events: ~30% drain interrupts
     * (0..3 iterations), ~20% recovery re-entries, the rest exec
     * failures with gaps uniform in [1, max_exec_gap]. Deterministic in
     * (seed, n, max_exec_gap), so campaign reproducer specs regenerate
     * the exact storm.
     */
    static FailureSchedule random(std::uint64_t seed, unsigned n,
                                  Tick max_exec_gap);
};

} // namespace fault
} // namespace lwsp

#endif // LWSP_FAULT_STORM_HH
