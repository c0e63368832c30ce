#include "core/lifetime.hh"

#include "common/logging.hh"

namespace lwsp {
namespace core {

Lifetime
walkLifetime(const System &crashed, const fault::FailureSchedule &storm,
             const SystemConfig &cfg, const compiler::CompiledProgram &prog,
             unsigned threads, const std::vector<Addr> &lock_addrs,
             const LifetimeHooks &hooks)
{
    LWSP_ASSERT(crashed.crashed(), "lifetime walk from a machine that "
                                   "did not lose power");
    const auto &events = storm.events;
    Lifetime lt;
    std::size_t next = storm.drainsFrom(0).size();
    lt.drainInterrupts = static_cast<unsigned>(next);

    // Loop head: *cur has just lost power, and its PM image is the one
    // to recover from.
    const System *cur = &crashed;
    while (true) {
        if (hooks.beforeRecovery)
            hooks.beforeRecovery(*cur);
        // recoverChecked never writes PM, so a preamble killed by an `r`
        // event re-validates the same image: the verdict must not move.
        RecoveryResult rec;
        for (unsigned attempt = 0;; ++attempt) {
            bool interrupted =
                next < events.size() &&
                events[next].phase == fault::FailurePhase::Recovery;
            RecoveryResult r = System::recoverChecked(
                cfg, prog, threads, cur->pmImage(), lock_addrs,
                &cur->crashReport());
            ++lt.boots;
            if (hooks.afterRecover)
                hooks.afterRecover(r, interrupted);
            if (attempt > 0 && r.outcome != rec.outcome) {
                lt.error = std::string("recovery re-entry changed "
                                       "verdict: ") +
                           recoveryOutcomeName(rec.outcome) + " -> " +
                           recoveryOutcomeName(r.outcome);
                lt.sys.reset();
                return lt;
            }
            rec = std::move(r);
            if (!interrupted)
                break;
            ++next;
            ++lt.reentries;
        }
        lt.verdict = rec.outcome;
        lt.detail = std::move(rec.detail);
        // Every use of *cur is done: this may destroy the machine it
        // points into.
        lt.sys = std::move(rec.sys);
        cur = nullptr;
        if (!lt.sys)
            return lt;  // DetectedUnrecoverable
        lt.sys->setRecoveryLineage(lt.verdict, lt.failures());

        std::vector<unsigned> drains;
        if (next < events.size()) {
            Tick gap = events[next++].at;
            drains = storm.drainsFrom(next);
            lt.last = lt.sys->runWithFailureStorm(gap, drains);
        } else {
            lt.last = lt.sys->run();
        }
        if (hooks.afterSegment) {
            if (auto e = hooks.afterSegment(*lt.sys, lt.last); !e.empty()) {
                lt.error = std::move(e);
                return lt;
            }
        }
        // A run that did not lose power ends the lifetime: the last
        // run, or one that completed before its failure landed.
        if (lt.last.completed || !lt.sys->crashed())
            return lt;
        ++lt.execFailures;
        next += drains.size();
        lt.drainInterrupts += static_cast<unsigned>(drains.size());
        cur = lt.sys.get();
    }
}

} // namespace core
} // namespace lwsp
