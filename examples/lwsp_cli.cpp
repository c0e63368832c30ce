/**
 * @file
 * Command-line front end to the library — the tool a downstream user
 * reaches for first:
 *
 *   lwsp_cli list                       # the paper-app workload roster
 *   lwsp_cli compile <app|file.lir>     # dump compiled LightIR + stats
 *   lwsp_cli verify <app|file.lir>      # static WSP-invariant check
 *   lwsp_cli run <app> [scheme]         # simulate and print run stats
 *   lwsp_cli crash <app> <fraction>     # crash + recover + verify
 *
 * `run` also accepts `--trace-out FILE` (binary event trace; inspect
 * with lwsp_trace, convert to Perfetto JSON with `lwsp_trace convert`)
 * and `--stats-json FILE` (full component stat registry as JSON).
 *
 * `run` and `crash` accept `--engine event|cycle` to pick the
 * simulator core (discrete-event wakeup heap vs the legacy
 * tick-everyone loop); printed stats are bit-identical either way.
 *
 * `run` and `crash` accept `--faults SPEC` (fault/fault.hh k=v,k=v
 * string, e.g. `seed=7,loss=100` or `ckpt=1`): the machine runs with
 * the hardware fault layer armed and hardened checkpoints. `crash`
 * then recovers through System::recoverChecked and prints the
 * recovery verdict and the crash drain's fault report; exit status 3
 * means the injected fault was detected but unrecoverable.
 *
 * `crash` also accepts `--storm SCHED` (fault/storm.hh '+'-joined
 * schedule, e.g. `d1+r+x1500`): instead of a single clean failure the
 * machine is put through the whole failure storm — drains interrupted
 * mid-quiescence, recovery preambles killed and re-entered, recovered
 * executions crashed again — with each power-on's verdict checked for
 * idempotence. `--stats-json FILE` dumps the surviving system's stat
 * registry (including the system.recoveryOutcome /
 * system.failuresSurvived lineage counters) after the post-recovery
 * run.
 *
 * Schemes: baseline psp-ideal lightwsp naive-sfence ppa capri cwsp.
 * `<file.lir>` is the textual LightIR format (see ir/text_io.hh).
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/wsp_checker.hh"
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

int
usage()
{
    std::fprintf(stderr,
                 "usage: lwsp_cli list\n"
                 "       lwsp_cli compile <app|file.lir>\n"
                 "       lwsp_cli verify <app|file.lir>\n"
                 "       lwsp_cli run <app> [scheme] [--trace-out FILE]"
                 " [--stats-json FILE] [--faults SPEC]"
                 " [--engine event|cycle]\n"
                 "       lwsp_cli crash <app> <fraction 0..1>"
                 " [--faults SPEC] [--engine event|cycle]\n"
                 "                      [--storm SCHED]"
                 " [--stats-json FILE]\n");
    return 2;
}

/** Parse a --faults spec into @p cfg (arming the layer), or die. */
void
applyFaultSpec(core::SystemConfig &cfg, const std::string &spec)
{
    std::string err;
    if (!fault::FaultConfig::parse(spec, cfg.faults, err))
        fatal("bad --faults spec: ", err);
    cfg.faults.enabled = true;
    cfg.faults.hardenedCkpt = true;
}

SimEngine
engineFromName(const std::string &name)
{
    SimEngine e = SimEngine::Event;
    if (!parseSimEngine(name, e))
        fatal("unknown engine '", name, "' (want event|cycle)");
    return e;
}

core::Scheme
schemeFromName(const std::string &name)
{
    for (core::Scheme s :
         {core::Scheme::Baseline, core::Scheme::PspIdeal,
          core::Scheme::LightWsp, core::Scheme::NaiveSfence,
          core::Scheme::Ppa, core::Scheme::Capri, core::Scheme::Cwsp}) {
        if (name == core::schemeName(s))
            return s;
    }
    fatal("unknown scheme '", name, "'");
}

std::unique_ptr<ir::Module>
loadModule(const std::string &what)
{
    if (what.size() > 4 &&
        what.substr(what.size() - 4) == ".lir") {
        std::ifstream in(what);
        if (!in)
            fatal("cannot open ", what);
        std::stringstream ss;
        ss << in.rdbuf();
        return ir::parseModule(ss.str());
    }
    return workloads::generateByName(what).module;
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
cmdVerify(const std::string &what)
{
    auto m = loadModule(what);
    compiler::CompilerConfig cfg;
    compiler::LightWspCompiler comp(cfg);
    auto prog = comp.compile(std::move(m));
    analysis::CheckReport rep = analysis::checkCompiledProgram(prog, cfg);
    std::printf("%s: %s\n", what.c_str(), rep.describe().c_str());
    return rep.ok() ? 0 : 1;
}

int
cmdCompile(const std::string &what)
{
    auto m = loadModule(what);
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

int
cmdRun(const std::string &app, const std::string &scheme_name,
       const std::string &trace_out, const std::string &stats_json,
       const std::string &faults_spec, const std::string &engine_name)
{
    harness::RunSpec spec;
    spec.workload = app;
    spec.scheme = schemeFromName(scheme_name);
    if (!engine_name.empty())
        spec.engine = engineFromName(engine_name);

    if (trace_out.empty() && stats_json.empty() && faults_spec.empty()) {
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
    // which the memoizing Runner doesn't expose — drive one directly,
    // mirroring Runner::runUncached's warmup setup so the printed
    // numbers match a plain `run`.
    const auto &profile = workloads::profileByName(app);
    auto w = workloads::generate(profile);
    core::SystemConfig cfg = harness::makeConfig(profile, spec);
    cfg.warmupInsts =
        w.estimatedInstsPerThread * profile.threads * 35 / 100;
    if (!trace_out.empty())
        cfg.traceEnabled = true;
    if (!faults_spec.empty())
        applyFaultSpec(cfg, faults_spec);
    compiler::CompiledProgram prog =
        harness::prepareProgram(std::move(w), spec);

    core::System sys(cfg, prog, profile.threads);
    auto r = sys.run();
    printRunStats(scheme_name, profile.threads, r);

    if (const auto *inj = sys.faultInjector()) {
        std::printf("faults        %s\n",
                    inj->config().toString().c_str());
        std::printf("bcast faults  drops=%llu delays=%llu dups=%llu "
                    "retries=%llu\n",
                    static_cast<unsigned long long>(inj->bcastDrops),
                    static_cast<unsigned long long>(inj->bcastDelays),
                    static_cast<unsigned long long>(inj->bcastDups),
                    static_cast<unsigned long long>(inj->bcastRetries));
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
    if (!stats_json.empty()) {
        stats::Registry reg;
        sys.registerStats(reg);
        std::ofstream os(stats_json);
        if (!os) {
            std::fprintf(stderr, "cannot write stats to %s\n",
                         stats_json.c_str());
            return 1;
        }
        reg.dumpJson(os);
        std::printf("stats         %zu groups -> %s\n", reg.numGroups(),
                    stats_json.c_str());
    }
    return 0;
}

int
cmdCrash(const std::string &app, double fraction,
         const std::string &faults_spec, const std::string &engine_name,
         const std::string &storm_spec, const std::string &stats_json)
{
    fault::FailureSchedule storm;
    if (!storm_spec.empty()) {
        std::string err;
        if (!fault::FailureSchedule::parse(storm_spec, storm, err))
            fatal("bad --storm schedule: ", err);
    }

    const auto &profile = workloads::profileByName(app);
    auto w = workloads::generate(profile);
    auto lock_addrs = w.lockAddrs;
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));

    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    if (!engine_name.empty())
        cfg.engine = engineFromName(engine_name);
    cfg.applySchemeDefaults();

    core::System golden(cfg, prog, profile.threads);
    auto gr = golden.run();

    // Faults arm the victim only; recovery runs on correct hardware but
    // keeps the hardened checkpoint format so it can verify checksums.
    core::SystemConfig vcfg = cfg;
    core::SystemConfig rcfg = cfg;
    if (!faults_spec.empty()) {
        applyFaultSpec(vcfg, faults_spec);
        rcfg.faults.hardenedCkpt = true;
    }

    core::System victim(vcfg, prog, profile.threads);
    auto vr = victim.runWithFailureStorm(
        static_cast<Tick>(fraction * static_cast<double>(gr.cycles)),
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

    Addr lo = workloads::Workload::heapBase;
    Addr hi = lo + static_cast<Addr>(profile.threads) *
                       profile.footprintBytes;
    bool ok = rr.completed &&
              sys->pmImage().diffInRange(golden.pmImage(), lo, hi).empty();
    if (!storm.empty())
        std::printf("storm         survived %u power failures (%s)\n",
                    sys->failuresSurvived(), storm.toString().c_str());
    std::printf("recovery %s: application state %s the crash-free run\n",
                rr.completed ? "completed" : "DID NOT COMPLETE",
                ok ? "matches" : "DIFFERS from");

    if (!stats_json.empty()) {
        stats::Registry reg;
        sys->registerStats(reg);
        std::ofstream os(stats_json);
        if (!os) {
            std::fprintf(stderr, "cannot write stats to %s\n",
                         stats_json.c_str());
            return 1;
        }
        reg.dumpJson(os);
        std::printf("stats         %zu groups -> %s\n", reg.numGroups(),
                    stats_json.c_str());
    }
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    setLogQuiet(true);
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];
    try {
        if (cmd == "list")
            return cmdList();
        if (cmd == "compile" && argc == 3)
            return cmdCompile(argv[2]);
        if (cmd == "verify" && argc == 3)
            return cmdVerify(argv[2]);
        if (cmd == "run" && argc >= 3) {
            std::string scheme = "lightwsp", trace_out, stats_json;
            std::string faults, engine;
            int i = 3;
            if (i < argc && argv[i][0] != '-')
                scheme = argv[i++];
            for (; i < argc; ++i) {
                std::string a = argv[i];
                if (a == "--trace-out" && i + 1 < argc)
                    trace_out = argv[++i];
                else if (a == "--stats-json" && i + 1 < argc)
                    stats_json = argv[++i];
                else if (a == "--faults" && i + 1 < argc)
                    faults = argv[++i];
                else if (a == "--engine" && i + 1 < argc)
                    engine = argv[++i];
                else
                    return usage();
            }
            return cmdRun(argv[2], scheme, trace_out, stats_json, faults,
                          engine);
        }
        if (cmd == "crash" && argc >= 4) {
            std::string faults, engine, storm, stats_json;
            for (int i = 4; i < argc; ++i) {
                std::string a = argv[i];
                if (a == "--faults" && i + 1 < argc)
                    faults = argv[++i];
                else if (a == "--engine" && i + 1 < argc)
                    engine = argv[++i];
                else if (a == "--storm" && i + 1 < argc)
                    storm = argv[++i];
                else if (a == "--stats-json" && i + 1 < argc)
                    stats_json = argv[++i];
                else
                    return usage();
            }
            return cmdCrash(argv[2], std::atof(argv[3]), faults, engine,
                            storm, stats_json);
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return usage();
}
