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

constexpr spec::Field<CaseSpec> caseFields[] = {
    spec::word<&CaseSpec::source, sourceNames>(nullptr),
    spec::number<&CaseSpec::seed>("seed"),
    spec::number<&CaseSpec::shrink>("shrink"),
    spec::nested<&CaseSpec::pds>("pds", Print::When,
                                 fromSource<CaseSpec::Source::Pds>),
    spec::nested<&CaseSpec::serve>("serve", Print::When,
                                   fromSource<CaseSpec::Source::Serve>),
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
    /** Post-shrink structure program (what the oracles replay). */
    pds::PdsSpec pdsSpec;
    std::vector<pds::PdsOp> pdsOps;
    /**
     * The crash-prefix oracle is sound only for converged compiles on
     * the gated scheme: non-convergence hands regions to the runtime
     * WPQ-overflow fallback, which breaks region-prefix durability.
     */
    bool pdsPrefixOk = false;
};

/**
 * The hardware/compiler shape shared by the structure-program sources
 * (pds and serve): gated LightWSP, 1 core, WPQs big enough for the
 * prefix oracle's convergence requirement.
 */
void
drawStructureConfig(std::uint64_t seed, bool oracles,
                    core::SystemConfig &cfg,
                    compiler::CompilerConfig &ccfg)
{
    Rng rng(seed ^ 0x66757a7a2d636667ull); // "fuzz-cfg"
    cfg.scheme = core::Scheme::LightWsp;
    static const unsigned mcChoices[] = {1, 2, 2, 4};
    cfg.numMcs = mcChoices[rng.below(4)];
    // WPQs no smaller than 16: the prefix oracle needs converged
    // compiles, and thresholds below 4 stop converging.
    static const unsigned wpqChoices[] = {16, 64};
    cfg.mc.wpqEntries = wpqChoices[rng.below(2)];
    cfg.mc.strictFlushAcks = rng.chance(0.25);
    cfg.numCores = 1;
    cfg.maxCycles = 30'000'000;
    cfg.oraclesEnabled = oracles;
    cfg.applySchemeDefaults();
    ccfg.storeThreshold = static_cast<unsigned>(
        cfg.mc.wpqEntries / (rng.chance(0.5) ? 2 : 4));
}

/**
 * Apply the spec's machine-shape overrides (mcs=/topo= tokens) on top
 * of the seed draw. The draw itself is untouched — same rng stream, so
 * pinning the shape never perturbs the rest of the case. Scheme
 * defaults are not re-derived: System's constructor syncs mc.numMcs /
 * mc.treeAcks from the top-level fields itself.
 */
void
applyMachineOverrides(const CaseSpec &spec, core::SystemConfig &cfg)
{
    if (spec.mcs != 0)
        cfg.numMcs = spec.mcs;
    cfg.topology = spec.topo;
}

/** The `mcs=N [topo=treeR]` tail every case summary carries. */
std::string
shapeSummary(const core::SystemConfig &cfg)
{
    std::string s = " mcs=" + std::to_string(cfg.numMcs);
    if (cfg.topology.isTree())
        s += " topo=" + cfg.topology.toString();
    return s;
}

/**
 * Derive the system + compiler configuration from the seed. The draw is
 * independent of the shrink level so a shrunk reproducer still runs the
 * same hardware shape it failed on. Ranges follow what the crash-stress
 * suite has proven safe (tiny gated WPQs, strict commit, 1-4 MCs);
 * the spec's mcs=/topo= overrides reach past them for the scale-out
 * shapes (test_fuzz pins a 65-MC tree campaign through this path).
 */
CaseBuild
buildCase(const CaseSpec &spec, bool oracles)
{
    if (spec.source == CaseSpec::Source::Pds ||
        spec.source == CaseSpec::Source::Serve) {
        // Shrink ladder: halve the op tape (pds) / request stream
        // (serve) — the structure geometry is part of the bug surface,
        // so it stays fixed.
        pds::PdsSpec ps;
        std::vector<pds::PdsOp> ops;
        std::string srcSummary;
        if (spec.source == CaseSpec::Source::Serve) {
            serve::ServeSpec ss = spec.serve;
            for (unsigned i = 0; i < spec.shrink; ++i)
                ss.numRequests = std::max(8u, ss.numRequests / 2);
            serve::ServeWorkload wl = serve::buildWorkload(ss);
            ps = wl.pdsSpec;
            ops = std::move(wl.ops);
            srcSummary = "serve " + ss.toString() + " -> ";
        } else {
            ps = spec.pds;
            for (unsigned i = 0; i < spec.shrink; ++i)
                ps.numOps = std::max(8u, ps.numOps / 2);
            ops = pds::generateTape(ps);
        }
        pds::PdsProgram pp = pds::buildPdsProgram(ps, ops, /*pmtx=*/false);

        core::SystemConfig cfg;
        compiler::CompilerConfig ccfg;
        drawStructureConfig(spec.seed, oracles, cfg, ccfg);
        applyMachineOverrides(spec, cfg);
        compiler::LightWspCompiler comp(ccfg);

        CaseBuild out;
        out.ccfg = ccfg;
        out.prog = comp.compile(std::move(pp.module));
        out.cfg = cfg;
        out.threads = 1;
        out.footprint = pp.params.footprintBytes;
        out.isPds = true;
        out.pdsSpec = ps;
        out.pdsOps = std::move(ops);
        out.pdsPrefixOk = out.prog.stats.thresholdConverged;
        out.summary = srcSummary + pp.summary + shapeSummary(cfg) +
                      " wpq=" + std::to_string(cfg.mc.wpqEntries) +
                      " thr=" + std::to_string(ccfg.storeThreshold) +
                      (cfg.mc.strictFlushAcks ? " strict" : "");
        return out;
    }

    FuzzProgram src = (spec.source == CaseSpec::Source::Workload)
                          ? randomWorkloadProgram(spec.seed, spec.shrink)
                          : randomIrProgram(spec.seed, spec.shrink);

    Rng rng(spec.seed ^ 0x66757a7a2d636667ull); // "fuzz-cfg"
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    static const unsigned mcChoices[] = {1, 2, 2, 4};
    cfg.numMcs = mcChoices[rng.below(4)];
    static const unsigned wpqChoices[] = {4, 8, 8, 64};
    cfg.mc.wpqEntries = wpqChoices[rng.below(4)];
    if (cfg.mc.wpqEntries <= 8)
        cfg.core.febEntries = 8;
    cfg.mc.strictFlushAcks = rng.chance(0.25);
    bool oversubscribe = src.threads > 1 && rng.chance(0.3);
    cfg.numCores = oversubscribe ? std::max(1u, src.threads / 2)
                                 : std::min(4u, src.threads);
    if (oversubscribe)
        cfg.ctxQuantum = 1500;
    cfg.maxCycles = 30'000'000;
    cfg.oraclesEnabled = oracles;
    cfg.applySchemeDefaults();
    applyMachineOverrides(spec, cfg);

    compiler::CompilerConfig ccfg;
    static const unsigned thrChoices[] = {4, 8, 16, 32};
    ccfg.storeThreshold = thrChoices[rng.below(4)];
    compiler::LightWspCompiler comp(ccfg);

    CaseBuild out;
    out.ccfg = ccfg;
    out.prog = comp.compile(std::move(src.module));
    out.cfg = cfg;
    out.threads = src.threads;
    out.footprint = src.footprintBytes;
    out.lockAddrs = src.lockAddrs;
    out.summary = src.summary + shapeSummary(cfg) +
                  " wpq=" + std::to_string(cfg.mc.wpqEntries) + " thr=" +
                  std::to_string(ccfg.storeThreshold) +
                  (cfg.mc.strictFlushAcks ? " strict" : "");
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

/** Execute one injection point. @return "" on pass, else the failure. */
std::string
checkPoint(const CaseBuild &bc, const core::System &golden,
           const CaseSpec &pt, std::uint64_t &checks, unsigned &runs,
           CampaignResult &tally, CampaignResult *capture = nullptr)
{
    // The fault knob models a hardware bug in the victim machine only;
    // recovery always runs on correct hardware. Injected *hardware*
    // faults (pt.faults) likewise arm only the victim; recovery keeps
    // just the hardened checkpoint format so it can decode and verify
    // what the hardened victim persisted.
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
    core::SystemConfig rcfg = bc.cfg;
    rcfg.faults.hardenedCkpt = hw_faults;
    if (capture)
        vcfg.traceEnabled = true;

    const fault::FailureSchedule storm = scheduleOf(pt);
    core::System victim(vcfg, bc.prog, bc.threads);
    ++runs;
    core::RunResult vr =
        victim.runWithFailureStorm(pt.crashAt, storm.drainsFrom(0));
    if (capture) {
        if (const auto *sink = victim.traceSink())
            capture->victimTrace = sink->snapshot();
        if (const auto *o = victim.oracle()) {
            for (unsigned m = 0; m < vcfg.numMcs; ++m)
                capture->victimLastCommit.push_back(o->lastCommit(m));
        }
    }
    // Terminal-state check: golden-diff plus, for pds cases, the
    // structure-walk oracle over the final image.
    auto finalCheck = [&](const core::System &sys,
                          const char *what) -> std::string {
        if (auto d = workloads::diffAppState(sys.pmImage(), golden.pmImage(),
                                             bc.threads, bc.footprint);
            !d.empty())
            return std::string(what) + ": " + d;
        if (bc.isPds) {
            if (auto msg = pds::checkSemantics(bc.pdsSpec, bc.pdsOps,
                                               sys.execImage());
                !msg.empty()) {
                return std::string(what) + " " + msg;
            }
        }
        return {};
    };

    if (auto e = harvestOracle(victim, "victim", checks); !e.empty())
        return e;
    if (vr.completed)
        return finalCheck(victim, "uncrashed victim");

    if (bc.isPds && bc.pdsPrefixOk && !pt.fault && !hw_faults) {
        // Gated LightWSP + converged compile: the crash image must be a
        // program-order prefix of the recorded store stream.
        if (auto msg = pds::checkCrashPrefix(bc.pdsSpec, bc.pdsOps,
                                             victim.pmImage());
            !msg.empty()) {
            return "victim " + msg;
        }
    }

    core::LifetimeHooks hooks;
    hooks.afterRecover = [&tally](const core::RecoveryResult &r, bool) {
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
    hooks.afterSegment = [&](const core::System &sys,
                             const core::RunResult &) {
        ++runs;
        return harvestOracle(sys, "recovery", checks);
    };
    core::Lifetime lt = core::walkLifetime(victim, storm, rcfg, bc.prog,
                                           bc.threads, bc.lockAddrs,
                                           hooks);
    if (!lt.error.empty())
        return lt.error;
    if (lt.verdict == core::RecoveryOutcome::DetectedUnrecoverable) {
        // The hardening contract allows giving up, never lying: a
        // reported-unrecoverable image passes (unhealed poison from the
        // first fault can also survive into a later image). Sanity-check
        // the claim — refusal without any armed fault is a regression.
        if (!hw_faults && !pt.fault)
            return "fault-free image classified unrecoverable: " +
                   lt.detail;
        return {};
    }
    if (!lt.last.completed)
        return "recovery did not complete";
    tally.failuresSurvived =
        std::max(tally.failuresSurvived, lt.failures());
    return finalCheck(*lt.sys, "recovered");
}

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
 */
CaseSpec
shrinkFailure(CaseSpec failing, Tick golden_cycles,
              std::uint64_t &checks, unsigned &runs, bool &shrunk)
{
    shrunk = false;
    CampaignResult scratch;  // shrink probes don't count verdict tallies

    // Phase 0 (storm cases): minimize the failure schedule before the
    // program — drop events one at a time while the case still fails,
    // then halve exec gaps. A schedule that empties entirely reduces the
    // case to a plain single failure.
    if (failing.mode == CrashMode::Storm && !failing.storm.empty()) {
        CaseBuild bc = buildCase(failing, true);
        Golden g = runGolden(bc, checks, runs);
        if (g.error.empty()) {
            bool changed = true;
            while (changed && !failing.storm.empty()) {
                changed = false;
                for (std::size_t i = 0; i < failing.storm.events.size();
                     ++i) {
                    CaseSpec probe = failing;
                    probe.storm.events.erase(
                        probe.storm.events.begin() +
                        static_cast<std::ptrdiff_t>(i));
                    if (!checkPoint(bc, *g.sys, probe, checks, runs,
                                    scratch)
                             .empty()) {
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
                    if (!checkPoint(bc, *g.sys, probe, checks, runs,
                                    scratch)
                             .empty()) {
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
        CaseBuild bc = buildCase(cand, true);
        Golden g = runGolden(bc, checks, runs);
        if (!g.error.empty())
            break;
        Tick scaled = golden_cycles
                          ? (failing.crashAt * g.cycles) / golden_cycles
                          : failing.crashAt;
        bool found = false;
        for (Tick t : {scaled, scaled / 2, scaled + scaled / 2}) {
            CaseSpec probe = cand;
            probe.crashAt = std::min(t, g.cycles ? g.cycles - 1 : 0);
            if (probe.mode == CrashMode::DoubleRecovery)
                probe.crashAt2 = probe.crashAt;
            if (!checkPoint(bc, *g.sys, probe, checks, runs, scratch)
                     .empty()) {
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
        CaseBuild bc = buildCase(failing, true);
        Golden g = runGolden(bc, checks, runs);
        if (g.error.empty()) {
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
                if (!checkPoint(bc, *g.sys, probe, checks, runs,
                                scratch)
                         .empty()) {
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

    CaseBuild bc = buildCase(spec, opt.oracles);
    Golden g = runGolden(bc, res.oracleChecks, res.runsExecuted);
    res.goldenCycles = g.cycles;
    if (!g.error.empty()) {
        res.passed = false;
        res.failure = g.error + " [" + bc.summary + "]";
        res.reproducer = spec;
        return res;
    }

    // Replay path: one exact injection.
    if (spec.mode != CrashMode::None) {
        ++res.pointsTried;
        std::string err =
            checkPoint(bc, *g.sys, spec, res.oracleChecks,
                       res.runsExecuted, res,
                       opt.captureTrace ? &res : nullptr);
        if (!err.empty()) {
            res.passed = false;
            res.failure = err + " [" + bc.summary + "]";
            res.reproducer = spec;
        }
        return res;
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
        std::string err = checkPoint(bc, *g.sys, pt, res.oracleChecks,
                                     res.runsExecuted, res);
        if (err.empty())
            continue;
        res.passed = false;
        res.failure = err + " [" + bc.summary + "]";
        res.reproducer = pt;
        if (opt.shrinkOnFailure) {
            res.reproducer =
                shrinkFailure(pt, g.cycles, res.oracleChecks,
                              res.runsExecuted, res.shrunk);
        }
        return res;
    }
    return res;
}

StaticCheckResult
staticCheck(const CaseSpec &spec)
{
    CaseBuild bc = buildCase(spec, /*oracles=*/false);
    analysis::CheckReport rep =
        analysis::checkCompiledProgram(bc.prog, bc.ccfg);
    StaticCheckResult out;
    out.ok = rep.ok();
    out.summary = bc.summary;
    out.report = rep.describe();
    return out;
}

} // namespace fuzz
} // namespace lwsp
