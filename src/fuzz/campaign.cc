#include "fuzz/campaign.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "analysis/wsp_checker.hh"
#include "common/parse.hh"
#include "common/random.hh"
#include "compiler/compiler.hh"
#include "core/lifetime.hh"
#include "core/system.hh"
#include "fuzz/random_program.hh"
#include "fuzz/random_workload.hh"
#include "workloads/generator.hh"

namespace lwsp {
namespace fuzz {

// ---- Spec strings ----------------------------------------------------------

namespace {

constexpr std::string_view specPrefix = "lwsp-fuzz:v1:";

constexpr const char *sourceNames[] = {"wl", "ir", "pds", "serve"};
constexpr const char *modeNames[] = {"campaign", "single", "dbl-rec",
                                     "dbl-drain", "storm"};

using spec::Print;

// Print predicates: a key is spelled (and accepted) only where it acts.
template <CaseSpec::Source S>
bool
fromSource(const CaseSpec &c)
{
    return c.source == S;
}

template <CrashMode M>
bool
inMode(const CaseSpec &c)
{
    return c.mode == M;
}

bool
crashes(const CaseSpec &c)
{
    return c.mode != CrashMode::None;
}

bool
offLightWsp(const CaseSpec &c)
{
    return (c.source == CaseSpec::Source::Pds ||
            c.source == CaseSpec::Source::Serve) &&
           c.scheme != pds::PdsScheme::LightWsp;
}

/** `scheme=` is spelled, and accepted, only off lightwsp on pds/serve. */
constexpr spec::Field<CaseSpec>
schemeField()
{
    auto f = spec::word<&CaseSpec::scheme, pds::pdsSchemeNames>("scheme");
    f.print = Print::When;
    f.when = offLightWsp;
    return f;
}

constexpr spec::Field<CaseSpec> caseFields[] = {
    spec::word<&CaseSpec::source, sourceNames>(nullptr),
    spec::number<&CaseSpec::seed>("seed"),
    spec::number<&CaseSpec::shrink>("shrink"),
    spec::nested<&CaseSpec::pds>("pds", Print::When,
                                 fromSource<CaseSpec::Source::Pds>),
    spec::nested<&CaseSpec::serve>("serve", Print::When,
                                   fromSource<CaseSpec::Source::Serve>),
    schemeField(),
    spec::word<&CaseSpec::mode, modeNames>("mode", Print::UnlessDefault),
    spec::number<&CaseSpec::crashAt>("crash", Print::When, crashes),
    spec::number<&CaseSpec::crashAt2>("crash2", Print::When,
                                      inMode<CrashMode::DoubleRecovery>),
    spec::number<&CaseSpec::drainIters>("drain", Print::When,
                                        inMode<CrashMode::DoubleDrain>),
    spec::nested<&CaseSpec::storm>("storm"),
    spec::flag<&CaseSpec::fault>("fault"),
    spec::nested<&CaseSpec::faults>("faults"),
    spec::number<&CaseSpec::mcs, 1>("mcs", Print::UnlessDefault),
    spec::nested<&CaseSpec::topo>("topo"),
};

} // namespace

std::string
CaseSpec::toString() const
{
    return std::string(specPrefix) + spec::print(*this, ':', caseFields);
}

bool
CaseSpec::parse(const std::string &s, CaseSpec &out, std::string &err)
{
    if (!s.starts_with(specPrefix)) {
        err = "spec must start with '" + std::string(specPrefix) + "'";
        return false;
    }
    return spec::parse(std::string_view(s).substr(specPrefix.size()), ':',
                       "fuzz", caseFields, nullptr, out, err);
}

// ---- Case construction -----------------------------------------------------

namespace {

struct CaseBuild
{
    compiler::CompiledProgram prog;
    compiler::CompilerConfig ccfg;
    core::SystemConfig cfg;
    unsigned threads = 1;
    std::size_t footprint = 0;
    std::vector<Addr> lockAddrs;
    std::string summary;

    /** Pds- or serve-sourced case: arm the structure-specific oracles. */
    bool isPds = false;
    /**
     * The pmtx undo-log build: a rollback legitimately leaves its undo
     * area and exec-level served counter unlike golden, so the structure
     * walk alone judges its final states.
     */
    bool pmtx = false;
    /** Post-shrink structure program (what the oracles replay). */
    pds::PdsSpec pdsSpec;
    std::vector<pds::PdsOp> pdsOps;
    /**
     * The crash-prefix oracle is sound only for converged compiles under
     * LightWSP itself: non-convergence hands regions to the runtime
     * WPQ-overflow fallback, which breaks region-prefix durability.
     */
    bool pdsPrefixOk = false;
};

/** The `mcs=N [topo=treeR] wpq=W thr=T [strict]` tail of a summary. */
std::string
machineSummary(const core::SystemConfig &cfg,
               const compiler::CompilerConfig &ccfg)
{
    std::string s = " mcs=" + std::to_string(cfg.numMcs);
    if (cfg.topology.isTree())
        s += " topo=" + cfg.topology.toString();
    return s + " wpq=" + std::to_string(cfg.mc.wpqEntries) +
           " thr=" + std::to_string(ccfg.storeThreshold) +
           (cfg.mc.strictFlushAcks ? " strict" : "");
}

/**
 * Derive the system + compiler configuration from the seed. The draw is
 * independent of the shrink level so a shrunk reproducer still runs the
 * same hardware shape it failed on. Ranges follow what the crash-stress
 * suite has proven safe (tiny gated WPQs, strict commit, 1-4 MCs);
 * the spec's mcs=/topo= overrides reach past them for the scale-out
 * shapes (test_fuzz pins a 65-MC tree campaign through this path).
 * They apply on top of the draw, which keeps its rng stream, so pinning
 * the shape never perturbs the rest of the case.
 */
CaseBuild
buildCase(const CaseSpec &spec, const CampaignOptions &opt)
{
    CaseBuild out;
    Rng rng(spec.seed ^ 0x66757a7a2d636667ull); // "fuzz-cfg"
    static const unsigned mcChoices[] = {1, 2, 2, 4};
    std::string srcSummary;
    if (spec.source == CaseSpec::Source::Pds ||
        spec.source == CaseSpec::Source::Serve) {
        // Shrink ladder: halve the op tape (pds) / request stream
        // (serve) — the structure geometry is part of the bug surface,
        // so it stays fixed.
        if (spec.source == CaseSpec::Source::Serve) {
            serve::ServeSpec ss = spec.serve;
            for (unsigned i = 0; i < spec.shrink; ++i)
                ss.numRequests = std::max(8u, ss.numRequests / 2);
            serve::ServeWorkload wl = serve::buildWorkload(ss);
            out.pdsSpec = wl.pdsSpec;
            out.pdsOps = std::move(wl.ops);
            srcSummary = "serve " + ss.toString() + " -> ";
        } else {
            out.pdsSpec = spec.pds;
            for (unsigned i = 0; i < spec.shrink; ++i)
                out.pdsSpec.numOps = std::max(8u, out.pdsSpec.numOps / 2);
            out.pdsOps = pds::generateTape(out.pdsSpec);
        }

        // The scheme's recovery-mode machine (1 core, scheme defaults
        // applied), with the shape drawn over it. WPQs no smaller than
        // 16: the prefix oracle needs converged compiles, and thresholds
        // below 4 stop converging.
        out.cfg = pds::makePdsConfig(spec.scheme, pds::PdsRunMode::Recovery);
        out.cfg.numMcs = mcChoices[rng.below(4)];
        static const unsigned wpqChoices[] = {16, 64};
        out.cfg.mc.wpqEntries = wpqChoices[rng.below(2)];
        out.cfg.mc.strictFlushAcks = rng.chance(0.25);
        out.ccfg.storeThreshold = static_cast<unsigned>(
            out.cfg.mc.wpqEntries / (rng.chance(0.5) ? 2 : 4));
        out.prog = pds::preparePdsProgram(out.pdsSpec, out.pdsOps,
                                          spec.scheme,
                                          pds::PdsRunMode::Recovery,
                                          out.ccfg.storeThreshold);
        const pds::PdsModel model(out.pdsSpec, out.pdsOps);
        out.footprint = model.params().footprintBytes;
        out.isPds = true;
        out.pmtx = spec.scheme == pds::PdsScheme::Pmtx;
        out.pdsPrefixOk = spec.scheme == pds::PdsScheme::LightWsp &&
                          out.prog.stats.thresholdConverged;
        srcSummary += "pds:" + model.spec().toString() +
                      " footprint=" + std::to_string(out.footprint);
        if (spec.scheme != pds::PdsScheme::LightWsp)
            srcSummary += std::string(" scheme=") +
                          pds::pdsSchemeName(spec.scheme);
    } else {
        FuzzProgram src = (spec.source == CaseSpec::Source::Workload)
                              ? randomWorkloadProgram(spec.seed, spec.shrink)
                              : randomIrProgram(spec.seed, spec.shrink);
        out.cfg.numMcs = mcChoices[rng.below(4)];
        static const unsigned wpqChoices[] = {4, 8, 8, 64};
        out.cfg.mc.wpqEntries = wpqChoices[rng.below(4)];
        if (out.cfg.mc.wpqEntries <= 8)
            out.cfg.core.febEntries = 8;
        out.cfg.mc.strictFlushAcks = rng.chance(0.25);
        bool oversubscribe = src.threads > 1 && rng.chance(0.3);
        out.cfg.numCores = oversubscribe ? std::max(1u, src.threads / 2)
                                         : std::min(4u, src.threads);
        if (oversubscribe)
            out.cfg.ctxQuantum = 1500;
        out.cfg.applySchemeDefaults();
        static const unsigned thrChoices[] = {4, 8, 16, 32};
        out.ccfg.storeThreshold = thrChoices[rng.below(4)];
        out.prog = compiler::LightWspCompiler(out.ccfg).compile(
            std::move(src.module));
        out.threads = src.threads;
        out.footprint = src.footprintBytes;
        out.lockAddrs = src.lockAddrs;
        srcSummary = src.summary;
    }

    out.cfg.maxCycles = 30'000'000;
    // pmtx orders its persists with its own fences on an ungated
    // machine, outside the region protocol the LRPO oracles model.
    out.cfg.oraclesEnabled = opt.oracles && !out.pmtx;
    if (spec.mcs != 0)
        out.cfg.numMcs = spec.mcs;
    out.cfg.topology = spec.topo;
    out.summary = srcSummary + machineSummary(out.cfg, out.ccfg);
    return out;
}

/** Golden state + event mine for one build. */
struct Golden
{
    std::unique_ptr<core::System> sys;
    Tick cycles = 0;
    std::string error;  ///< nonempty: the golden run itself failed
};

Golden
runGolden(const CaseBuild &bc, std::uint64_t &checks, unsigned &runs)
{
    Golden g;
    g.sys = std::make_unique<core::System>(bc.cfg, bc.prog, bc.threads);
    ++runs;
    auto r = g.sys->run();
    g.cycles = r.cycles;
    if (auto *o = g.sys->oracle()) {
        checks += o->checksRun();
        if (!o->ok()) {
            g.error = "golden run tripped oracle: " + o->firstViolation();
            return g;
        }
    }
    if (!r.completed) {
        g.error = "golden run did not complete (live-lock?)";
        return g;
    }
    if (bc.isPds) {
        // Structure-walk the clean final state: a mismatch here is an
        // emission/model bug, not a crash-consistency one — report it
        // before any power failures muddy the water.
        if (auto msg = pds::checkSemantics(bc.pdsSpec, bc.pdsOps,
                                           g.sys->execImage());
            !msg.empty()) {
            g.error = "golden " + msg;
        }
    }
    return g;
}

/** Harvest a finished system's oracle; returns a violation or "". */
std::string
harvestOracle(const core::System &sys, const char *what,
              std::uint64_t &checks)
{
    const auto *o = sys.oracle();
    if (!o)
        return {};
    checks += o->checksRun();
    if (!o->ok())
        return std::string(what) + " tripped oracle: " +
               o->firstViolation();
    return {};
}

/**
 * The failure schedule a crash mode lowers to: every mode is one
 * initial failure at crashAt followed by a (possibly empty) storm.
 */
fault::FailureSchedule
scheduleOf(const CaseSpec &pt)
{
    switch (pt.mode) {
      case CrashMode::DoubleRecovery:
        return {{{fault::FailurePhase::Exec, pt.crashAt2}}};
      case CrashMode::DoubleDrain:
        return {{{fault::FailurePhase::Drain, pt.drainIters}}};
      case CrashMode::Storm:
        return pt.storm;
      default:
        return {};
    }
}

/**
 * Checks injection points of one build against its golden run. A point
 * has two halves: crash() power-fails a victim at pt.crashAt, and
 * lifetime() walks the rest of pt's failure schedule from that victim
 * and judges the final state. Campaign points run both; matrix mode
 * crashes one victim and walks every point's lifetime from it. Each
 * half returns "" on pass, else the failure.
 */
struct PointChecker
{
    const CaseBuild &bc;
    const core::System &golden;
    std::uint64_t &checks;
    unsigned &runs;
    CampaignResult &tally;

    /**
     * Terminal-state check: golden-diff (except pmtx) plus, for pds
     * cases, the structure-walk oracle over the final image.
     */
    std::string
    finalCheck(const core::System &sys, const char *what) const
    {
        if (!bc.pmtx) {
            if (auto d = workloads::diffAppState(sys.pmImage(),
                                                 golden.pmImage(),
                                                 bc.threads, bc.footprint);
                !d.empty())
                return std::string(what) + ": " + d;
        }
        if (bc.isPds) {
            if (auto msg = pds::checkSemantics(bc.pdsSpec, bc.pdsOps,
                                               sys.execImage());
                !msg.empty()) {
                return std::string(what) + " " + msg;
            }
        }
        return {};
    }

    /**
     * Run a victim into its power failure at pt.crashAt, through the
     * schedule's leading drain interrupts. @p victim is left null when
     * the victim finished first (its final state is checked instead).
     */
    std::string
    crash(const CaseSpec &pt, std::unique_ptr<core::System> &victim,
          CampaignResult *capture = nullptr) const
    {
        // The fault knob models a hardware bug in the victim machine
        // only; recovery always runs on correct hardware. Injected
        // *hardware* faults (pt.faults) likewise arm only the victim.
        core::SystemConfig vcfg = bc.cfg;
        vcfg.mc.faultReleaseEarly = pt.fault;
        bool hw_faults = pt.faults.anyArmed();
        if (hw_faults) {
            vcfg.faults = pt.faults;
            vcfg.faults.enabled = true;
            vcfg.faults.hardenedCkpt = true;
            if (vcfg.faults.seed == 0)
                vcfg.faults.seed = pt.seed;
        }
        if (capture)
            vcfg.traceEnabled = true;

        victim = std::make_unique<core::System>(vcfg, bc.prog, bc.threads);
        ++runs;
        core::RunResult vr = victim->runWithFailureStorm(
            pt.crashAt, scheduleOf(pt).drainsFrom(0));
        if (capture) {
            if (const auto *sink = victim->traceSink())
                capture->victimTrace = sink->snapshot();
            if (const auto *o = victim->oracle()) {
                for (unsigned m = 0; m < vcfg.numMcs; ++m)
                    capture->victimLastCommit.push_back(o->lastCommit(m));
            }
        }

        if (auto e = harvestOracle(*victim, "victim", checks); !e.empty())
            return e;
        if (vr.completed) {
            std::string e = finalCheck(*victim, "uncrashed victim");
            victim.reset();
            return e;
        }
        if (bc.pdsPrefixOk && !pt.fault && !hw_faults) {
            // Gated LightWSP + converged compile: the crash image must
            // be a program-order prefix of the recorded store stream.
            if (auto msg = pds::checkCrashPrefix(bc.pdsSpec, bc.pdsOps,
                                                 victim->pmImage());
                !msg.empty()) {
                return "victim " + msg;
            }
        }
        return {};
    }

    /**
     * Walk pt's failure schedule from @p victim and check where it ends.
     * Recovery keeps just the hardened checkpoint format of a
     * fault-armed victim, so it can decode what the victim persisted.
     * @p recovered receives the last run's length when it passes.
     */
    std::string
    lifetime(const core::System &victim, const CaseSpec &pt,
             Tick *recovered = nullptr) const
    {
        bool hw_faults = pt.faults.anyArmed();
        core::SystemConfig rcfg = bc.cfg;
        rcfg.faults.hardenedCkpt = hw_faults;

        core::LifetimeHooks hooks;
        hooks.afterRecover = [this](const core::RecoveryResult &r, bool) {
            switch (r.outcome) {
              case core::RecoveryOutcome::Recovered:
                ++tally.recoveredExact;
                break;
              case core::RecoveryOutcome::RecoveredDegraded:
                ++tally.recoveredDegraded;
                break;
              case core::RecoveryOutcome::DetectedUnrecoverable:
                ++tally.detectedUnrecoverable;
                break;
            }
        };
        hooks.afterSegment = [this](const core::System &sys,
                                    const core::RunResult &) {
            ++runs;
            return harvestOracle(sys, "recovery", checks);
        };
        core::Lifetime lt =
            core::walkLifetime(victim, scheduleOf(pt), rcfg, bc.prog,
                               bc.threads, bc.lockAddrs, hooks);
        if (!lt.error.empty())
            return lt.error;
        if (lt.verdict == core::RecoveryOutcome::DetectedUnrecoverable) {
            // The hardening contract allows giving up, never lying: a
            // reported-unrecoverable image passes (unhealed poison from
            // the first fault can also survive into a later image).
            // Sanity-check the claim — refusal without any armed fault
            // is a regression.
            if (!hw_faults && !pt.fault)
                return "fault-free image classified unrecoverable: " +
                       lt.detail;
            return {};
        }
        if (!lt.last.completed)
            return "recovery did not complete";
        if (recovered)
            *recovered = lt.last.cycles;
        tally.failuresSurvived =
            std::max(tally.failuresSurvived, lt.failures());
        return finalCheck(*lt.sys, "recovered");
    }

    /** Both halves: one whole injection point. */
    std::string
    point(const CaseSpec &pt, CampaignResult *capture = nullptr) const
    {
        std::unique_ptr<core::System> victim;
        std::string e = crash(pt, victim, capture);
        if (!e.empty() || !victim)
            return e;
        return lifetime(*victim, pt);
    }
};

/**
 * Mine adversarial crash cycles from the golden run's oracle event
 * timeline: spread samples over boundary broadcasts, WPQ drain steps
 * and commit advances (with jitter, so failures land on message edges,
 * not just on them), plus the endpoints and random filler up to
 * @p want points.
 */
std::vector<Tick>
minePoints(const core::System &golden, Tick cycles, unsigned want,
           Rng &rng)
{
    std::vector<Tick> pts;
    auto sample = [&](const std::vector<Tick> &v, unsigned k) {
        for (unsigned i = 0; i < k && !v.empty(); ++i) {
            Tick t = v[(v.size() * i) / k];
            std::uint64_t jitter = rng.below(5); // t-2 .. t+2
            t = (t + jitter >= 2) ? t + jitter - 2 : 0;
            pts.push_back(t);
        }
    };
    if (const auto *o = golden.oracle()) {
        unsigned per = want / 3 + 1;
        sample(o->boundaryTicks(), per);
        sample(o->flushTicks(), per);
        sample(o->commitTicks(), per);
    }
    pts.push_back(0);
    if (cycles > 32)
        pts.push_back(cycles - cycles / 32); // just before the finish
    while (pts.size() < want)
        pts.push_back(rng.below(std::max<Tick>(cycles, 1)));

    for (auto &t : pts)
        t = std::min(t, cycles > 0 ? cycles - 1 : 0);
    std::sort(pts.begin(), pts.end());
    pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
    return pts;
}

/**
 * Minimize a failing point: climb the program-shrink ladder (rescaling
 * the crash cycle by the golden-duration ratio), then take the smallest
 * failing crash cycle from a halving ladder. Every probe re-runs the
 * full victim/recovery check, so the returned spec is failing by
 * construction; if nothing smaller fails, the original is returned.
 * Probes always run with the invariant oracles live.
 */
CaseSpec
shrinkFailure(CaseSpec failing, Tick golden_cycles, CampaignOptions opt,
              std::uint64_t &checks, unsigned &runs, bool &shrunk)
{
    shrunk = false;
    opt.oracles = true;
    CampaignResult scratch;  // shrink probes don't count verdict tallies

    // Phase 0 (storm cases): minimize the failure schedule before the
    // program — drop events one at a time while the case still fails,
    // then halve exec gaps. A schedule that empties entirely reduces the
    // case to a plain single failure.
    if (failing.mode == CrashMode::Storm && !failing.storm.empty()) {
        CaseBuild bc = buildCase(failing, opt);
        Golden g = runGolden(bc, checks, runs);
        if (g.error.empty()) {
            const PointChecker chk{bc, *g.sys, checks, runs, scratch};
            bool changed = true;
            while (changed && !failing.storm.empty()) {
                changed = false;
                for (std::size_t i = 0; i < failing.storm.events.size();
                     ++i) {
                    CaseSpec probe = failing;
                    probe.storm.events.erase(
                        probe.storm.events.begin() +
                        static_cast<std::ptrdiff_t>(i));
                    if (!chk.point(probe).empty()) {
                        failing = probe;
                        shrunk = true;
                        changed = true;
                        break;
                    }
                }
            }
            changed = true;
            while (changed) {
                changed = false;
                for (std::size_t i = 0; i < failing.storm.events.size();
                     ++i) {
                    if (failing.storm.events[i].phase !=
                            fault::FailurePhase::Exec ||
                        failing.storm.events[i].at <= 1) {
                        continue;
                    }
                    CaseSpec probe = failing;
                    probe.storm.events[i].at /= 2;
                    if (!chk.point(probe).empty()) {
                        failing = probe;
                        shrunk = true;
                        changed = true;
                    }
                }
            }
        }
    }

    // Phase 1: smaller program at the same relative position.
    for (unsigned level = failing.shrink + 1; level <= maxShrinkLevel;
         ++level) {
        CaseSpec cand = failing;
        cand.shrink = level;
        CaseBuild bc = buildCase(cand, opt);
        Golden g = runGolden(bc, checks, runs);
        if (!g.error.empty())
            break;
        const PointChecker chk{bc, *g.sys, checks, runs, scratch};
        Tick scaled = golden_cycles
                          ? (failing.crashAt * g.cycles) / golden_cycles
                          : failing.crashAt;
        bool found = false;
        for (Tick t : {scaled, scaled / 2, scaled + scaled / 2}) {
            CaseSpec probe = cand;
            probe.crashAt = std::min(t, g.cycles ? g.cycles - 1 : 0);
            if (probe.mode == CrashMode::DoubleRecovery)
                probe.crashAt2 = probe.crashAt;
            if (!chk.point(probe).empty()) {
                failing = probe;
                golden_cycles = g.cycles;
                found = true;
                shrunk = true;
                break;
            }
        }
        if (!found)
            break;
    }

    // Phase 2: earliest failing crash cycle on a halving ladder.
    {
        CaseBuild bc = buildCase(failing, opt);
        Golden g = runGolden(bc, checks, runs);
        if (g.error.empty()) {
            const PointChecker chk{bc, *g.sys, checks, runs, scratch};
            std::vector<Tick> ladder = {0, 1};
            for (Tick t = failing.crashAt / 16; t < failing.crashAt;
                 t *= 2) {
                if (t > 1)
                    ladder.push_back(t);
                if (t == 0)
                    break;
            }
            for (Tick t : ladder) {
                if (t >= failing.crashAt)
                    continue;
                CaseSpec probe = failing;
                probe.crashAt = t;
                if (probe.mode == CrashMode::DoubleRecovery)
                    probe.crashAt2 = t;
                if (!chk.point(probe).empty()) {
                    failing = probe;
                    shrunk = true;
                    break;
                }
            }
        }
    }
    return failing;
}

} // namespace

// ---- Campaign driver -------------------------------------------------------

CampaignResult
runCampaign(const CaseSpec &spec, const CampaignOptions &opt)
{
    CampaignResult res;

    CaseBuild bc = buildCase(spec, opt);
    Golden g = runGolden(bc, res.oracleChecks, res.runsExecuted);
    res.goldenCycles = g.cycles;
    auto fail = [&](const std::string &err, const CaseSpec &pt,
                    bool shrink) {
        res.passed = false;
        res.failure = err + " [" + bc.summary + "]";
        res.reproducer = pt;
        if (shrink && opt.shrinkOnFailure) {
            res.reproducer =
                shrinkFailure(pt, g.cycles, opt, res.oracleChecks,
                              res.runsExecuted, res.shrunk);
        }
        return res;
    };
    if (!g.error.empty())
        return fail(g.error, spec, false);
    const PointChecker chk{bc, *g.sys, res.oracleChecks, res.runsExecuted,
                           res};

    // Replay path: one exact injection.
    if (spec.mode != CrashMode::None) {
        ++res.pointsTried;
        std::string err =
            chk.point(spec, opt.captureTrace ? &res : nullptr);
        return err.empty() ? res : fail(err, spec, false);
    }

    if (opt.recoveryStep != 0) {
        // Matrix mode. Every point's storm is a single x<t>, with no
        // drain interrupts ahead of it, so all points share one victim.
        CaseSpec pt = spec;
        pt.mode = CrashMode::Storm;
        pt.crashAt = g.cycles * 6 / 10;
        std::unique_ptr<core::System> victim;
        std::string err = chk.crash(pt, victim);
        if (err.empty() && !victim)
            err = "victim completed before the crash point";
        // The reference walk's crash-free length R bounds the sweep.
        // Engine fast-forward can land a point's failure past the end
        // of its run; that point is clean either way.
        if (err.empty())
            err = chk.lifetime(*victim, pt, &res.recoveryCycles);
        for (Tick t = 0; err.empty() && t < res.recoveryCycles;
             t += opt.recoveryStep) {
            ++res.pointsTried;
            pt.storm = {{{fault::FailurePhase::Exec, t}}};
            err = chk.lifetime(*victim, pt);
        }
        return err.empty() ? res : fail(err, pt, true);
    }

    // Full campaign: mined single crashes, then double variants.
    Rng rng(spec.seed ^ 0x706f696e7473ull); // "points"
    std::vector<Tick> pts =
        minePoints(*g.sys, g.cycles, opt.minCrashPoints, rng);

    std::vector<CaseSpec> injections;
    for (Tick t : pts) {
        CaseSpec pt = spec;
        pt.mode = CrashMode::Single;
        pt.crashAt = t;
        injections.push_back(pt);
    }
    if (opt.doubleCrash) {
        for (std::size_t i = 0; i < pts.size(); i += 3) {
            CaseSpec pt = spec;
            pt.mode = CrashMode::DoubleRecovery;
            pt.crashAt = pts[i];
            pt.crashAt2 =
                pts[(i + pts.size() / 2) % pts.size()];
            injections.push_back(pt);
        }
        for (std::size_t i = 1; i < pts.size(); i += 4) {
            CaseSpec pt = spec;
            pt.mode = CrashMode::DoubleDrain;
            pt.crashAt = pts[i];
            pt.drainIters = static_cast<unsigned>(rng.below(3));
            injections.push_back(pt);
        }
    }
    if (opt.stormCrash) {
        // Every second mined point also runs under a seeded storm; the
        // schedule is a pure function of (campaign seed, point index),
        // so a reproducer spec regenerates the exact storm via its
        // storm= token.
        for (std::size_t i = 0; i < pts.size(); i += 2) {
            CaseSpec pt = spec;
            pt.mode = CrashMode::Storm;
            pt.crashAt = pts[i];
            pt.storm = fault::FailureSchedule::random(
                spec.seed * 1000003 + i,
                2 + static_cast<unsigned>(i % 3),
                g.cycles / 6 + 1);
            injections.push_back(pt);
        }
    }

    for (const CaseSpec &pt : injections) {
        ++res.pointsTried;
        if (std::string err = chk.point(pt); !err.empty())
            return fail(err, pt, true);
    }
    return res;
}

std::vector<CaseSpec>
recoveryMatrixCases()
{
    // Case seed 1 draws the matrix machine for every structure row:
    // 2 MCs, 64-entry WPQs, store threshold 32, relaxed commit ACKs.
    // Small transactions put several commit edges and undo replays
    // inside the crash window (pmtx rows).
    CaseSpec hash;
    hash.source = CaseSpec::Source::Pds;
    hash.seed = 1;
    hash.pds.kind = pds::Kind::Hash;
    hash.pds.sizeClass = 0;
    hash.pds.numOps = 24;
    hash.pds.mix = 0;
    hash.pds.seed = 5;
    hash.pds.opsPerTx = 2;

    CaseSpec serve;
    serve.source = CaseSpec::Source::Serve;
    serve.seed = 1;
    serve.serve.profile = serve::Profile::Varnish;
    serve.serve.sizeClass = 0;
    serve.serve.numRequests = 16;
    serve.serve.seed = 3;
    serve.serve.opsPerTx = 2;

    std::vector<CaseSpec> cases;
    auto everyScheme = [&cases](CaseSpec c) {
        for (auto s : pds::allSchemes) {
            c.scheme = s;
            cases.push_back(c);
        }
    };
    for (auto k : {pds::Kind::Log, pds::Kind::Hash, pds::Kind::Alloc}) {
        CaseSpec c = hash;
        c.pds.kind = k;
        everyScheme(c);
    }
    everyScheme(serve);
    // The only row with locks and inter-thread interleaving: a
    // two-thread workload program with a locked read-modify-write phase.
    CaseSpec wl;
    wl.seed = 2;
    wl.shrink = 1;
    cases.push_back(wl);
    // Scale-out rows: the hash sweep on a 16-MC machine, flat and on a
    // radix-4 aggregation tree, where boundary broadcasts descend a
    // hierarchy and ACKs aggregate at interior nodes.
    hash.mcs = 16;
    cases.push_back(hash);
    hash.topo.kind = noc::TopologyConfig::Kind::Tree;
    cases.push_back(hash);
    return cases;
}

StaticCheckResult
staticCheck(const CaseSpec &spec)
{
    CampaignOptions opt;
    opt.oracles = false;
    CaseBuild bc = buildCase(spec, opt);
    StaticCheckResult out;
    out.summary = bc.summary;
    if (bc.pmtx)
        return out;  // run uncompiled: no partition to check
    analysis::CheckReport rep =
        analysis::checkCompiledProgram(bc.prog, bc.ccfg);
    out.ok = rep.ok();
    out.report = rep.describe();
    return out;
}

} // namespace fuzz
} // namespace lwsp
