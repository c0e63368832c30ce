/**
 * @file
 * One crash/recover lifetime: a machine that has just lost power,
 * walked through the rest of a fault::FailureSchedule (DESIGN §15).
 * Fuzz campaigns, the recovery matrix, fig22 and `lwsp_cli crash
 * --storm` all walk their storms here.
 */

#ifndef LWSP_CORE_LIFETIME_HH
#define LWSP_CORE_LIFETIME_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hh"
#include "fault/storm.hh"

namespace lwsp {
namespace core {

/** Where a lifetime's callers plug in. Every hook is optional. */
struct LifetimeHooks
{
    /** Before each recovery, with the crashed machine it reads. */
    std::function<void(const System &crashed)> beforeRecovery;
    /**
     * After every recoverChecked(), re-entries included. @p interrupted:
     * an `r` event kills this preamble, so recovery runs again.
     */
    std::function<void(const RecoveryResult &, bool interrupted)>
        afterRecover;
    /**
     * After each run segment of a recovered machine. A non-empty return
     * fails the lifetime with that message.
     */
    std::function<std::string(const System &, const RunResult &)>
        afterSegment;
};

/** How a lifetime ended. */
struct Lifetime
{
    /** The last booted machine; null after an unrecoverable verdict or
     *  a verdict change. */
    std::unique_ptr<System> sys;
    RunResult last;  ///< sys's last run segment
    RecoveryOutcome verdict = RecoveryOutcome::Recovered;
    std::string detail;  ///< the last verdict's reason
    /** Non-empty: a re-entry changed the verdict, or a hook failed. */
    std::string error;

    unsigned boots = 0;      ///< recoverChecked() calls, re-entries included
    unsigned reentries = 0;  ///< `r` events that fired
    unsigned execFailures = 0;     ///< recovered runs that lost power
    unsigned drainInterrupts = 0;  ///< `d` events that fired

    /** Power failures that fired, the initial one included. */
    unsigned failures() const
    {
        return 1 + drainInterrupts + reentries + execFailures;
    }
};

/**
 * Walk @p storm from @p crashed, whose own drain already took the
 * leading interrupts (`runWithFailureStorm(at, storm.drainsFrom(0))`).
 * Every boot is System::recoverChecked(@p cfg, @p prog, @p threads,
 * image, @p lock_addrs) and is stamped with the failures fired so far.
 *
 * Events are taken in order. An `r` after a boot kills that preamble
 * and recovers again from the same image; a changed verdict fails the
 * lifetime. Any other event runs the booted machine `at` cycles into
 * the next power failure (a `d` after an `r` has no drain left to
 * interrupt, so it counts as an exec failure), and the `d` events right
 * after it interrupt that failure's drain. Once the schedule is
 * exhausted the last boot runs to completion. The walk stops at the
 * first unrecoverable verdict, at the first error, or at the first run
 * that does not lose power: a run that completes before its failure
 * lands leaves the rest of the schedule unfired, and a last run that
 * did not complete is the caller's to judge (`last.completed`).
 */
Lifetime walkLifetime(const System &crashed,
                      const fault::FailureSchedule &storm,
                      const SystemConfig &cfg,
                      const compiler::CompiledProgram &prog,
                      unsigned threads, const std::vector<Addr> &lock_addrs,
                      const LifetimeHooks &hooks = {});

} // namespace core
} // namespace lwsp

#endif // LWSP_CORE_LIFETIME_HH
