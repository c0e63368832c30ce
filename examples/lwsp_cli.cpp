/**
 * @file
 * Command-line front end to the library — the tool a downstream user
 * reaches for first:
 *
 *   lwsp_cli list                       # the paper-app workload roster
 *   lwsp_cli compile <app|file.lir>     # dump compiled LightIR + stats
 *   lwsp_cli run <app> [scheme]         # simulate and print run stats
 *   lwsp_cli crash <app> <fraction>     # crash + recover + verify
 *
 * `run` writes a binary event trace under `--trace-out` (inspect it
 * with lwsp_trace) and the component stat registry under
 * `--stats-json`; both commands print stats bit-identical under either
 * `--engine`. Under `--faults SPEC` (fault/fault.hh, e.g.
 * `seed=7,loss=100`) the machine runs with the hardware fault layer
 * armed and hardened checkpoints; `crash` then recovers through
 * System::recoverChecked and prints the recovery verdict and the crash
 * drain's fault report; exit status 3 means the injected fault was
 * detected but unrecoverable. Under `--storm SCHED` (fault/storm.hh,
 * e.g. `d1+r+x1500`) `crash` puts the machine through a whole failure
 * storm — drains interrupted mid-quiescence, recovery preambles killed
 * and re-entered, recovered executions crashed again — checking each
 * power-on's verdict for idempotence; its `--stats-json` registry
 * includes the system.recoveryOutcome / system.failuresSurvived
 * lineage counters.
 *
 * `<file.lir>` is the textual LightIR format (see ir/text_io.hh). The
 * static WSP-invariant check of a program is `lwsp_verify`. Any bad
 * argument prints the full usage.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>

#include "common/flags.hh"
#include "compiler/compiler.hh"
#include "core/lifetime.hh"
#include "core/system.hh"
#include "fault/storm.hh"
#include "harness/runner.hh"
#include "ir/text_io.hh"
#include "trace/export.hh"
#include "workloads/generator.hh"

using namespace lwsp;

namespace {

/** Arm @p cfg's fault layer with @p faults, hardened checkpoints on. */
void
armFaults(core::SystemConfig &cfg, const fault::FaultConfig &faults)
{
    cfg.faults = faults;
    cfg.faults.enabled = true;
    cfg.faults.hardenedCkpt = true;
}

/** Write @p sys's stat registry to @p path as JSON; false if it cannot. */
bool
writeStatsJson(const core::System &sys, const std::string &path)
{
    stats::Registry reg;
    sys.registerStats(reg);
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "cannot write stats to %s\n", path.c_str());
        return false;
    }
    reg.dumpJson(os);
    std::printf("stats         %zu groups -> %s\n", reg.numGroups(),
                path.c_str());
    return true;
}

int
cmdList()
{
    std::printf("%-12s %-9s %8s %12s %10s\n", "app", "suite", "threads",
                "footprint", "pattern");
    for (const auto &p : workloads::paperProfiles()) {
        const char *pat =
            p.phases[0].pattern == workloads::PhaseSpec::Pattern::Random
                ? "random"
            : p.phases[0].pattern ==
                      workloads::PhaseSpec::Pattern::Pointer
                ? "pointer"
                : "sequential";
        std::printf("%-12s %-9s %8u %10zuKB %10s\n", p.name.c_str(),
                    p.suite.c_str(), p.threads, p.footprintBytes / 1024,
                    pat);
    }
    return 0;
}

int
cmdCompile(const std::string &what)
{
    auto m = workloads::loadModule(what);
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(m));
    ir::printModule(*prog.module, std::cout);
    std::fprintf(stderr,
                 "\n; boundaries=%zu ckpt-stores=%zu pruned=%zu "
                 "insts %zu -> %zu (fixpoint %zu iters, %zu loops "
                 "unrolled)\n",
                 prog.stats.boundaries, prog.stats.checkpointStores,
                 prog.stats.prunedCheckpoints, prog.stats.inputInsts,
                 prog.stats.outputInsts, prog.stats.fixpointIterations,
                 prog.stats.unrolledLoops);
    for (const auto &site : prog.sites) {
        if (site.recipes.empty())
            continue;
        std::fprintf(stderr, "; site %u recipes:", site.id);
        for (const auto &r : site.recipes)
            std::fprintf(stderr, " r%u=const(%lld)", r.reg,
                         static_cast<long long>(r.imm));
        std::fprintf(stderr, "\n");
    }
    return 0;
}

void
printRunStats(const std::string &scheme_name, unsigned threads,
              const core::RunResult &r)
{
    std::printf("scheme        %s\n", scheme_name.c_str());
    std::printf("threads       %u\n", threads);
    std::printf("cycles        %llu\n",
                static_cast<unsigned long long>(r.cycles));
    std::printf("instructions  %llu (IPC %.2f)\n",
                static_cast<unsigned long long>(r.instsRetired), r.ipc);
    std::printf("stores        %llu\n",
                static_cast<unsigned long long>(r.storesRetired));
    std::printf("regions       %llu (avg %.1f insts, %.1f stores)\n",
                static_cast<unsigned long long>(r.boundaries),
                r.avgRegionInsts, r.avgRegionStores);
    std::printf("l1 miss rate  %.2f%%\n", 100.0 * r.l1MissRate());
    std::printf("wpq flushed   %llu entries (max occupancy %zu, "
                "%llu fallback)\n",
                static_cast<unsigned long long>(r.wpqFlushedEntries),
                r.maxWpqOccupancy,
                static_cast<unsigned long long>(r.wpqFallbackFlushes));
    std::printf("stall cycles  boundary=%llu sbFull=%llu febFull=%llu "
                "lock=%llu\n",
                static_cast<unsigned long long>(r.boundaryWaitCycles),
                static_cast<unsigned long long>(r.sbFullCycles),
                static_cast<unsigned long long>(r.febFullCycles),
                static_cast<unsigned long long>(r.lockBlockedCycles));
}

/** What the command line asked for (each command reads its part). */
struct Args
{
    std::string app;
    core::Scheme scheme = core::Scheme::LightWsp;
    double fraction = 0;
    std::string traceOut;
    std::string statsJson;
    std::optional<fault::FaultConfig> faults;
    fault::FailureSchedule storm;
};

int
cmdRun(const Args &a)
{
    harness::RunSpec spec;
    spec.workload = a.app;
    spec.scheme = a.scheme;
    const std::string scheme_name = core::schemeName(a.scheme);
    const std::string &trace_out = a.traceOut;

    if (trace_out.empty() && a.statsJson.empty() && !a.faults) {
        harness::Runner runner;
        auto o = runner.run(spec);
        printRunStats(scheme_name, o.threads, o.result);
        if (spec.scheme != core::Scheme::Baseline) {
            double slow = runner.slowdownVsBaseline(spec);
            std::printf("slowdown      %.3fx vs baseline\n", slow);
        }
        return 0;
    }

    // Telemetry wants the live System (its sink and stat registry),
    // which the memoizing Runner doesn't expose — build the point the
    // way Runner does and drive it directly, so the printed numbers
    // match a plain `run`.
    harness::PreparedPoint pt = harness::preparePoint(spec);
    if (!trace_out.empty())
        pt.cfg.traceEnabled = true;
    if (a.faults)
        armFaults(pt.cfg, *a.faults);

    core::System sys(pt.cfg, pt.prog, pt.threads);
    auto r = sys.run();
    printRunStats(scheme_name, pt.threads, r);

    if (const auto *inj = sys.faultInjector()) {
        std::printf("faults        %s\n",
                    inj->config().toString().c_str());
        std::printf("bcast faults  drops=%llu delays=%llu dups=%llu "
                    "retries=%llu\n",
                    static_cast<unsigned long long>(inj->bcastDrops),
                    static_cast<unsigned long long>(inj->bcastDelays),
                    static_cast<unsigned long long>(inj->bcastDups),
                    static_cast<unsigned long long>(
                        sys.nocNet().counters().bcastRetries));
    }

    if (!trace_out.empty()) {
        const auto *sink = sys.traceSink();
        auto events = sink->snapshot();
        if (!trace::writeBinaryFile(trace_out, events)) {
            std::fprintf(stderr, "cannot write trace to %s\n",
                         trace_out.c_str());
            return 1;
        }
        std::printf("trace         %zu events -> %s%s\n", events.size(),
                    trace_out.c_str(),
                    sink->wrapped() ? " (ring wrapped; oldest dropped)"
                                    : "");
    }
    if (!a.statsJson.empty() && !writeStatsJson(sys, a.statsJson))
        return 1;
    return 0;
}

int
cmdCrash(const Args &a)
{
    const fault::FailureSchedule &storm = a.storm;
    const auto &profile = workloads::profileByName(a.app);
    auto w = workloads::generate(profile);
    auto lock_addrs = w.lockAddrs;
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));

    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.applySchemeDefaults();

    core::System golden(cfg, prog, profile.threads);
    auto gr = golden.run();

    // Faults arm the victim only; recovery runs on correct hardware but
    // keeps the hardened checkpoint format so it can verify checksums.
    core::SystemConfig vcfg = cfg;
    core::SystemConfig rcfg = cfg;
    if (a.faults) {
        armFaults(vcfg, *a.faults);
        rcfg.faults.hardenedCkpt = true;
    }

    core::System victim(vcfg, prog, profile.threads);
    auto vr = victim.runWithFailureStorm(
        static_cast<Tick>(a.fraction * static_cast<double>(gr.cycles)),
        storm.drainsFrom(0));
    if (vr.completed) {
        std::printf("program finished before the failure point\n");
        return 0;
    }
    std::printf("crashed at cycle %llu; recovering...\n",
                static_cast<unsigned long long>(vr.cycles));
    const core::CrashReport &cr = victim.crashReport();
    if (cr.faultsArmed) {
        std::printf("crash report  wpqDamaged=%u poisoned=%u "
                    "silentFlips=%u stalls=%u retries=%llu "
                    "lostAtCrash=%llu\n",
                    cr.wpqDamaged, cr.poisonedWords, cr.silentFlips,
                    cr.stallsInjected,
                    static_cast<unsigned long long>(cr.bcastRetries),
                    static_cast<unsigned long long>(cr.bcastLostAtCrash));
        if (cr.corruptBarrier != invalidRegion)
            std::printf("crash report  corrupt barrier at region %llu%s\n",
                        static_cast<unsigned long long>(cr.corruptBarrier),
                        cr.truncationHazard ? " (truncation hazard)" : "");
    }

    core::LifetimeHooks hooks;
    hooks.afterRecover = [](const core::RecoveryResult &r,
                            bool interrupted) {
        if (interrupted)
            std::printf("storm         recovery re-entered\n");
        else
            std::printf("verdict       %s%s%s\n",
                        core::recoveryOutcomeName(r.outcome),
                        r.detail.empty() ? "" : ": ", r.detail.c_str());
    };
    hooks.afterSegment = [](const core::System &sys,
                            const core::RunResult &r) {
        if (sys.crashed())
            std::printf("crashed again at cycle %llu; recovering...\n",
                        static_cast<unsigned long long>(r.cycles));
        return std::string();
    };
    core::Lifetime lt = core::walkLifetime(victim, storm, rcfg, prog,
                                           profile.threads, lock_addrs,
                                           hooks);
    if (!lt.error.empty()) {
        std::printf("storm         %s\n", lt.error.c_str());
        return 1;
    }
    if (!lt.sys)
        return 3;
    // Fewer failures fired than scheduled: a run beat its `x` event.
    if (lt.failures() <= storm.size())
        std::printf("storm         finished before the next failure "
                    "landed\n");
    const core::RunResult &rr = lt.last;
    const auto &sys = lt.sys;

    bool ok = rr.completed &&
              workloads::diffAppState(sys->pmImage(), golden.pmImage(),
                                      profile.threads,
                                      profile.footprintBytes)
                  .empty();
    if (!storm.empty())
        std::printf("storm         survived %u power failures (%s)\n",
                    sys->failuresSurvived(), storm.toString().c_str());
    std::printf("recovery %s: application state %s the crash-free run\n",
                rr.completed ? "completed" : "DID NOT COMPLETE",
                ok ? "matches" : "DIFFERS from");

    if (!a.statsJson.empty() && !writeStatsJson(*sys, a.statsJson))
        return 1;
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    Args a;
    const cli::Flag app =
        cli::text("<app>", "", "a paper-app workload (see list)", a.app);
    const cli::Flag engine = harness::engineFlag();
    const cli::Flag stats = cli::text(
        "--stats-json", "FILE", "write the stat registry as JSON",
        a.statsJson);
    const cli::Flag faults{
        "--faults", "SPEC", "arm the fault layer (e.g. seed=7,loss=100)",
        [&](std::string_view v, std::string &why) {
            return fault::FaultConfig::parse(std::string(v),
                                             a.faults.emplace(), why);
        }};
    const cli::Command commands[] = {
        {"list", "the paper-app workload roster", {}, cmdList},
        {"compile", "dump compiled LightIR + stats",
         {cli::text("<app|file.lir>", "", "an app or a LightIR text file",
                    a.app)},
         [&] { return cmdCompile(a.app); }},
        {"run", "simulate and print run stats",
         {app,
          cli::choice("[scheme]",
                      cli::joinNames(core::schemeNames) + " (default lightwsp)",
                      core::schemeNames, a.scheme),
          cli::traceOut(a.traceOut), stats, faults, engine},
         [&] { return cmdRun(a); }},
        {"crash", "crash + recover + verify against a crash-free run",
         {app,
          cli::fraction("<fraction>", "crash point, a share of the "
                                      "crash-free run's cycles",
                        a.fraction),
          faults, engine,
          {"--storm", "SCHED", "the failures after the crash (d1+r+x1500)",
           [&](std::string_view v, std::string &why) {
               return fault::FailureSchedule::parse(std::string(v),
                                                    a.storm, why);
           }},
          stats},
         [&] { return cmdCrash(a); }},
    };
    const cli::Command &cmd = cli::parseOrExit(argc, argv, commands);
    try {
        return cmd.run();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
