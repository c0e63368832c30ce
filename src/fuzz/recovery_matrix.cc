#include "fuzz/recovery_matrix.hh"

#include <memory>
#include <utility>

#include "compiler/compiler.hh"
#include "core/lifetime.hh"
#include "fuzz/random_workload.hh"
#include "workloads/generator.hh"

namespace lwsp {
namespace fuzz {

namespace {

/** Everything one case needs to run: binary, machine, oracles. */
struct MatrixBuild
{
    compiler::CompiledProgram prog;
    core::SystemConfig cfg;
    unsigned threads = 1;
    std::vector<Addr> lockAddrs;

    bool isPds = false;      ///< structure oracle vs golden-image diff
    pds::PdsSpec pdsSpec;
    std::vector<pds::PdsOp> pdsOps;
    std::size_t footprint = 0;  ///< builtin golden-diff bytes per thread
};

/**
 * Pin the case's MC count / fabric topology on top of the defaults.
 * Deliberately does NOT re-run applySchemeDefaults (its Capri/cWSP
 * branches re-multiply drain intervals); System's constructor derives
 * mc.numMcs / mc.treeAcks from the top-level fields itself.
 */
void
applyShape(const MatrixCase &c, core::SystemConfig &cfg)
{
    if (c.numMcs != 0)
        cfg.numMcs = c.numMcs;
    cfg.topology = c.topology;
}

MatrixBuild
build(const MatrixCase &c, const MatrixOptions &opt)
{
    MatrixBuild b;
    if (c.source == MatrixCase::Source::Builtin) {
        // A multi-threaded workload program under plain gated LightWSP —
        // the only row with locks and inter-thread interleaving. Shrink
        // level 1 keeps the recovered run short enough for per-cycle
        // crashes.
        FuzzProgram src = randomWorkloadProgram(c.wlSeed, /*shrink=*/1);
        b.cfg.scheme = core::Scheme::LightWsp;
        b.cfg.numMcs = 2;
        b.cfg.mc.wpqEntries = 16;
        b.cfg.numCores = std::min(4u, src.threads);
        b.cfg.maxCycles = 30'000'000;
        b.cfg.applySchemeDefaults();
        applyShape(c, b.cfg);
        b.cfg.engine = opt.engine;
        compiler::CompilerConfig ccfg;
        ccfg.storeThreshold = 8;
        compiler::LightWspCompiler comp(ccfg);
        b.prog = comp.compile(std::move(src.module));
        b.threads = src.threads;
        b.lockAddrs = src.lockAddrs;
        b.footprint = src.footprintBytes;
        return b;
    }

    if (c.source == MatrixCase::Source::Serve) {
        serve::ServeWorkload wl = serve::buildWorkload(c.serve);
        b.pdsSpec = wl.pdsSpec;
        b.pdsOps = std::move(wl.ops);
    } else {
        b.pdsSpec = c.pds;
        b.pdsOps = pds::generateTape(c.pds);
    }
    b.prog = pds::preparePdsProgram(b.pdsSpec, b.pdsOps, c.scheme,
                                    pds::PdsRunMode::Recovery);
    b.cfg = pds::makePdsConfig(c.scheme, pds::PdsRunMode::Recovery);
    applyShape(c, b.cfg);
    // Tight hang backstop: matrix cases are tiny (tens of ops), so a run
    // that needs anywhere near this many cycles is live-locked.
    b.cfg.maxCycles = 30'000'000;
    b.cfg.engine = opt.engine;
    b.threads = 1;
    b.isPds = true;
    return b;
}

} // namespace

std::vector<MatrixCase>
recoveryMatrixCases()
{
    std::vector<MatrixCase> cases;
    constexpr pds::Kind kinds[] = {pds::Kind::Log, pds::Kind::Hash,
                                   pds::Kind::Alloc};
    for (auto k : kinds) {
        for (auto s : pds::allSchemes) {
            MatrixCase c;
            c.source = MatrixCase::Source::Pds;
            c.scheme = s;
            c.pds.kind = k;
            c.pds.sizeClass = 0;
            c.pds.numOps = 24;
            c.pds.mix = 0;
            c.pds.seed = 5;
            // Small transactions put several commit edges and undo
            // replays inside the crash window (pmtx rows only).
            c.pds.opsPerTx = 2;
            c.name = std::string(pds::kindName(k)) + "/" +
                     pds::pdsSchemeName(s);
            cases.push_back(c);
        }
    }
    for (auto s : pds::allSchemes) {
        MatrixCase c;
        c.source = MatrixCase::Source::Serve;
        c.scheme = s;
        c.serve.profile = serve::Profile::Varnish;
        c.serve.sizeClass = 0;
        c.serve.numRequests = 16;
        c.serve.seed = 3;
        c.serve.opsPerTx = 2;
        c.name = std::string("serve/") + pds::pdsSchemeName(s);
        cases.push_back(c);
    }
    MatrixCase c;
    c.source = MatrixCase::Source::Builtin;
    c.wlSeed = 2;
    c.name = "builtin/lightwsp";
    cases.push_back(c);
    // Scale-out rows: the same hash-table sweep on a sharded 16-MC
    // machine, once on the flat fabric and once on the radix-4
    // aggregation tree — recovery re-entrancy must hold when boundary
    // broadcasts descend a hierarchy and ACKs aggregate at interior
    // nodes (ISSUE: 64-MC broadcast-mask overflow regression family).
    for (bool tree : {false, true}) {
        MatrixCase sc;
        sc.source = MatrixCase::Source::Pds;
        sc.scheme = pds::PdsScheme::LightWsp;
        sc.pds.kind = pds::Kind::Hash;
        sc.pds.sizeClass = 0;
        sc.pds.numOps = 24;
        sc.pds.mix = 0;
        sc.pds.seed = 5;
        sc.pds.opsPerTx = 2;
        sc.numMcs = 16;
        if (tree)
            sc.topology.kind = noc::TopologyConfig::Kind::Tree;
        sc.name = std::string("hash16/") +
                  (tree ? "lightwsp-tree4" : "lightwsp-flat");
        cases.push_back(sc);
    }
    return cases;
}

MatrixCaseResult
runRecoveryMatrixCase(const MatrixCase &c, const MatrixOptions &opt)
{
    MatrixCaseResult res;
    res.name = c.name;
    auto fail = [&res](std::string why) {
        res.passed = false;
        res.failure = std::move(why) + " [" + res.name + "]";
        return res;
    };

    MatrixBuild b = build(c, opt);

    auto finalCheck = [&b](const core::System &sys,
                           const core::System &golden,
                           const char *what) -> std::string {
        if (b.isPds) {
            auto msg =
                pds::checkSemantics(b.pdsSpec, b.pdsOps, sys.execImage());
            if (!msg.empty())
                return std::string(what) + " " + msg;
            return {};
        }
        auto d = workloads::diffAppState(sys.pmImage(), golden.pmImage(),
                                         b.threads, b.footprint);
        return d.empty() ? d : std::string(what) + ": " + d;
    };

    core::System golden(b.cfg, b.prog, b.threads);
    ++res.runsExecuted;
    auto gr = golden.run();
    if (!gr.completed)
        return fail("golden run did not complete");
    res.goldenCycles = gr.cycles;
    if (auto e = finalCheck(golden, golden, "golden"); !e.empty())
        return fail(e);

    core::System victim(b.cfg, b.prog, b.threads);
    ++res.runsExecuted;
    auto vr = victim.runWithPowerFailure(gr.cycles * 6 / 10);
    if (vr.completed)
        return fail("victim completed before the crash point");

    // Walks a storm from the victim; "" when it ends golden-equal.
    core::LifetimeHooks hooks;
    hooks.afterRecover = [&res](const core::RecoveryResult &r, bool) {
        if (r.outcome == core::RecoveryOutcome::Recovered)
            ++res.recoveredExact;
        else if (r.outcome == core::RecoveryOutcome::RecoveredDegraded)
            ++res.recoveredDegraded;
    };
    hooks.afterSegment = [&res](const core::System &,
                                const core::RunResult &) {
        ++res.runsExecuted;
        return std::string();
    };
    auto walk = [&](const fault::FailureSchedule &storm,
                    core::Lifetime &lt) -> std::string {
        lt = core::walkLifetime(victim, storm, b.cfg, b.prog, b.threads,
                                b.lockAddrs, hooks);
        if (!lt.error.empty())
            return lt.error;
        if (lt.verdict == core::RecoveryOutcome::DetectedUnrecoverable)
            return "fault-free image classified unrecoverable: " +
                   lt.detail;
        if (!lt.last.completed)
            return "recovered run did not complete (possible hang)";
        return finalCheck(*lt.sys, golden, "recovered");
    };

    // Reference recovered run: its crash-free length R bounds the sweep.
    core::Lifetime ref;
    if (auto e = walk({}, ref); !e.empty())
        return fail(e);
    res.recoveryCycles = ref.last.cycles;

    // Crash the recovery run at every stride-th cycle of [0, R). Engine
    // fast-forward can land the completion check past t; the run is
    // clean either way.
    Tick step = opt.step ? opt.step : 1;
    for (Tick t = 0; t < res.recoveryCycles; t += step) {
        ++res.pointsTried;
        core::Lifetime lt;
        if (auto e = walk({{{fault::FailurePhase::Exec, t}}}, lt);
            !e.empty())
            return fail(e + " at t=" + std::to_string(t));
    }
    return res;
}

} // namespace fuzz
} // namespace lwsp
