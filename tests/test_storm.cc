/**
 * @file
 * Failure-storm resilience tests: the re-entrancy contracts behind
 * System::runWithFailureStorm and the storm fuzz mode.
 *
 *  - FailureSchedule string form round-trips (it rides fuzz replay
 *    specs, so print -> parse -> print must be a fixpoint).
 *  - A drain interrupted at any quiescence boundary is invisible: the
 *    post-drain PM image is bit-identical to an uninterrupted drain's.
 *  - recoverChecked is idempotent — a recovery preamble killed by a
 *    second failure re-validates the same image to the same verdict.
 *  - A failure landing exactly on a checkpoint-epoch commit tick (mined
 *    from the golden run's LRPO oracle) still recovers exactly.
 *  - pmtx: crashing the recovered machine mid-undo-replay leaves the
 *    rollback itself recoverable (absolute old-values, so replaying a
 *    replayed prefix is idempotent).
 *  - Storm lifetimes (core::walkLifetime) are engine-independent: the
 *    event-driven and cycle-stepped cores produce bit-identical
 *    lifetimes, and the walker counts exactly the failures that fired.
 *  - One reduced crash-at-every-Nth-cycle-of-recovery matrix case and a
 *    small seeded storm campaign run clean end to end.
 */

#include <gtest/gtest.h>

#include "core/lifetime.hh"
#include "core/system.hh"
#include "fault/storm.hh"
#include "fuzz/campaign.hh"
#include "pds/pds.hh"

using namespace lwsp;

namespace {

pds::PdsSpec
smallSpec(pds::Kind k)
{
    pds::PdsSpec spec;
    spec.kind = k;
    spec.sizeClass = 0;
    spec.numOps = 24;
    spec.mix = 0;
    spec.seed = 5;
    spec.opsPerTx = 2;
    return spec;
}

struct Built
{
    pds::PdsSpec spec;
    std::vector<pds::PdsOp> ops;
    core::SystemConfig cfg;
    compiler::CompiledProgram prog;
};

Built
build(pds::PdsScheme scheme, const pds::PdsSpec &spec)
{
    Built b{spec, pds::generateTape(spec),
            pds::makePdsConfig(scheme, pds::PdsRunMode::Recovery), {}};
    b.prog = pds::preparePdsProgram(spec, b.ops, scheme,
                                    pds::PdsRunMode::Recovery);
    return b;
}

/** A storm lifetime: each run's cycle count, golden first, and its end. */
struct Walked
{
    std::vector<Tick> segs;
    core::Lifetime lt;
};

/**
 * Crash a fresh machine halfway through the golden run, then walk the
 * rest of @p sched; the lifetime must finish with the tape's semantics.
 * The finished machine refers to b.prog.
 */
Walked
walkFromMidRun(const Built &b, const char *sched)
{
    fault::FailureSchedule storm;
    std::string err;
    EXPECT_TRUE(fault::FailureSchedule::parse(sched, storm, err)) << err;
    core::System golden(b.cfg, b.prog, 1);
    Walked w{{golden.run().cycles}, {}};

    core::System victim(b.cfg, b.prog, 1);
    auto vr = victim.runWithFailureStorm(w.segs[0] / 2,
                                         storm.drainsFrom(0));
    EXPECT_FALSE(vr.completed) << sched;
    w.segs.push_back(vr.cycles);
    core::LifetimeHooks hooks;
    hooks.afterSegment = [&w](const core::System &,
                              const core::RunResult &r) {
        w.segs.push_back(r.cycles);
        return std::string();
    };
    w.lt = core::walkLifetime(victim, storm, b.cfg, b.prog, 1, {}, hooks);
    EXPECT_TRUE(w.lt.error.empty()) << sched << ": " << w.lt.error;
    EXPECT_TRUE(w.lt.last.completed) << sched << ": " << w.lt.detail;
    if (w.lt.sys) {
        EXPECT_EQ(
            pds::checkSemantics(b.spec, b.ops, w.lt.sys->execImage()), "")
            << sched;
    }
    return w;
}

} // namespace

TEST(FailureSchedule, RoundTripIsFixpoint)
{
    for (const char *s :
         {"", "r", "d0", "d3", "x1500", "d1+r+x1500+d0", "r+r+x1",
          "x10+x20+d2+r"}) {
        fault::FailureSchedule sched;
        std::string err;
        ASSERT_TRUE(fault::FailureSchedule::parse(s, sched, err))
            << s << ": " << err;
        EXPECT_EQ(sched.toString(), s);
        fault::FailureSchedule again;
        ASSERT_TRUE(
            fault::FailureSchedule::parse(sched.toString(), again, err));
        EXPECT_EQ(again, sched);
    }
}

TEST(FailureSchedule, RejectsMalformed)
{
    fault::FailureSchedule sched;
    std::string err;
    for (const char *s : {"q", "d", "x", "d1+", "+r", "x-3", "r5", "dx1",
                          "x18446744073709551616"})
        EXPECT_FALSE(fault::FailureSchedule::parse(s, sched, err)) << s;
}

TEST(FailureSchedule, RandomIsDeterministic)
{
    auto a = fault::FailureSchedule::random(42, 4, 1000);
    auto b = fault::FailureSchedule::random(42, 4, 1000);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 4u);
    // The exec-gap cap is honoured.
    for (const auto &e : a.events) {
        if (e.phase == fault::FailurePhase::Exec) {
            EXPECT_GE(e.at, 1u);
            EXPECT_LE(e.at, 1000u);
        }
    }
    EXPECT_NE(fault::FailureSchedule::random(43, 4, 1000), a);
}

TEST(FuzzSpec, StormRoundTrips)
{
    fuzz::CaseSpec spec;
    spec.source = fuzz::CaseSpec::Source::Workload;
    spec.seed = 7;
    spec.shrink = 2;
    spec.mode = fuzz::CrashMode::Storm;
    spec.crashAt = 1234;
    std::string err;
    ASSERT_TRUE(
        fault::FailureSchedule::parse("d1+r+x1500+d0", spec.storm, err));

    std::string s = spec.toString();
    EXPECT_NE(s.find(":mode=storm:"), std::string::npos) << s;
    EXPECT_NE(s.find(":storm=d1+r+x1500+d0"), std::string::npos) << s;

    fuzz::CaseSpec parsed;
    ASSERT_TRUE(fuzz::CaseSpec::parse(s, parsed, err)) << err;
    EXPECT_EQ(parsed.mode, fuzz::CrashMode::Storm);
    EXPECT_EQ(parsed.crashAt, 1234u);
    EXPECT_EQ(parsed.storm, spec.storm);
    EXPECT_EQ(parsed.toString(), s);
}

// A §IV-F drain interrupted after any number of quiescence iterations —
// including zero — must leave the same PM image as a clean drain: the
// battery-backed WPQ survives, the resumed drain finishes the job, and
// the interrupted progress is invisible.
TEST(Storm, DrainInterruptsAreInvisible)
{
    auto b = build(pds::PdsScheme::LightWsp, smallSpec(pds::Kind::Log));
    core::System golden(b.cfg, b.prog, 1);
    auto gres = golden.run();
    ASSERT_TRUE(gres.completed);
    Tick at = gres.cycles / 2;

    core::System clean(b.cfg, b.prog, 1);
    ASSERT_FALSE(clean.runWithPowerFailure(at).completed);

    for (std::vector<unsigned> iters :
         {std::vector<unsigned>{0}, {1}, {2, 0}, {1, 1, 1}}) {
        core::System stormy(b.cfg, b.prog, 1);
        ASSERT_FALSE(stormy.runWithFailureStorm(at, iters).completed);
        EXPECT_TRUE(stormy.pmImage()
                        .diffInRange(clean.pmImage(), 0, ~Addr(0))
                        .empty())
            << iters.size() << " drain interrupts changed the image";
    }
}

// The same invisibility contract on a sharded 8-MC machine, flat and
// tree fabric: interrupting the quiescence loop while broadcasts/ACK
// aggregates are mid-flight on many controllers (or mid-descent through
// interior tree nodes) must not perturb the drained image.
TEST(Storm, DrainInterruptsAreInvisibleAt8Mcs)
{
    for (bool tree : {false, true}) {
        auto b = build(pds::PdsScheme::LightWsp,
                       smallSpec(pds::Kind::Log));
        b.cfg.numMcs = 8;
        if (tree)
            b.cfg.topology.kind = noc::TopologyConfig::Kind::Tree;
        core::System golden(b.cfg, b.prog, 1);
        auto gres = golden.run();
        ASSERT_TRUE(gres.completed);
        Tick at = gres.cycles / 2;

        core::System clean(b.cfg, b.prog, 1);
        ASSERT_FALSE(clean.runWithPowerFailure(at).completed);

        for (std::vector<unsigned> iters :
             {std::vector<unsigned>{0}, {1}, {2, 0}, {1, 1, 1}}) {
            core::System stormy(b.cfg, b.prog, 1);
            ASSERT_FALSE(stormy.runWithFailureStorm(at, iters)
                             .completed);
            EXPECT_TRUE(stormy.pmImage()
                            .diffInRange(clean.pmImage(), 0, ~Addr(0))
                            .empty())
                << (tree ? "tree" : "flat") << " fabric: "
                << iters.size() << " drain interrupts changed the image";
        }
    }
}

TEST(Storm, RecoveryReentryIsIdempotent)
{
    auto b = build(pds::PdsScheme::Capri, smallSpec(pds::Kind::Hash));
    core::System golden(b.cfg, b.prog, 1);
    auto gres = golden.run();
    ASSERT_TRUE(gres.completed);

    core::System victim(b.cfg, b.prog, 1);
    ASSERT_FALSE(victim.runWithPowerFailure(gres.cycles / 2).completed);

    auto first = core::System::recoverChecked(
        b.cfg, b.prog, 1, victim.pmImage(), {}, &victim.crashReport());
    auto second = core::System::recoverChecked(
        b.cfg, b.prog, 1, victim.pmImage(), {}, &victim.crashReport());
    EXPECT_EQ(first.outcome, second.outcome);
    ASSERT_NE(first.outcome, core::RecoveryOutcome::DetectedUnrecoverable);

    // Both recovered machines replay to the same end state.
    auto r1 = first.sys->run();
    auto r2 = second.sys->run();
    ASSERT_TRUE(r1.completed);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_TRUE(first.sys->pmImage()
                    .diffInRange(second.sys->pmImage(), 0, ~Addr(0))
                    .empty());
}

// Crash exactly on checkpoint-epoch commit ticks mined from the golden
// run's LRPO oracle — the cycle the commit advance becomes visible is
// the sharpest edge of the protocol.
TEST(Storm, FailureExactlyAtCommitTick)
{
    auto b = build(pds::PdsScheme::LightWsp, smallSpec(pds::Kind::Log));
    b.cfg.oraclesEnabled = true;
    core::System golden(b.cfg, b.prog, 1);
    auto gres = golden.run();
    ASSERT_TRUE(gres.completed);
    ASSERT_NE(golden.oracle(), nullptr);
    auto commits = golden.oracle()->commitTicks();
    ASSERT_FALSE(commits.empty());

    unsigned tried = 0;
    for (std::size_t i = 0; i < commits.size() && tried < 6;
         i += std::max<std::size_t>(1, commits.size() / 6), ++tried) {
        Tick t = std::min(commits[i], gres.cycles - 1);
        core::System victim(b.cfg, b.prog, 1);
        if (victim.runWithPowerFailure(t).completed)
            continue;
        auto rec = core::System::recoverChecked(
            b.cfg, b.prog, 1, victim.pmImage(), {},
            &victim.crashReport());
        ASSERT_NE(rec.outcome,
                  core::RecoveryOutcome::DetectedUnrecoverable)
            << "commit-tick crash at " << t << ": " << rec.detail;
        ASSERT_TRUE(rec.sys->run().completed);
        EXPECT_EQ(
            pds::checkSemantics(b.spec, b.ops, rec.sys->execImage()), "")
            << "commit-tick crash at " << t;
    }
    EXPECT_GT(tried, 0u);
}

// pmtx rollback is itself crash-consistent: kill the recovered machine
// a handful of cycles after power-on — mid-undo-replay — and recover
// again. Undo entries hold absolute old values, so replaying an
// already-replayed prefix is idempotent.
TEST(Storm, PmtxCrashMidUndoReplay)
{
    auto b = build(pds::PdsScheme::Pmtx, smallSpec(pds::Kind::Hash));
    core::System golden(b.cfg, b.prog, 1);
    auto gres = golden.run();
    ASSERT_TRUE(gres.completed);

    core::System victim(b.cfg, b.prog, 1);
    ASSERT_FALSE(victim.runWithPowerFailure(gres.cycles * 6 / 10)
                     .completed);

    for (Tick mid : {Tick(1), Tick(3), Tick(7), Tick(15), Tick(40)}) {
        // A lifetime whose recovered run completes inside `mid` cycles
        // simply never loses power again.
        auto lt = core::walkLifetime(
            victim, {{{fault::FailurePhase::Exec, mid}}}, b.cfg, b.prog, 1,
            {});
        ASSERT_TRUE(lt.error.empty()) << lt.error;
        ASSERT_NE(lt.sys, nullptr)
            << "mid-undo-replay crash at +" << mid << ": " << lt.detail;
        ASSERT_TRUE(lt.last.completed);
        EXPECT_EQ(
            pds::checkSemantics(b.spec, b.ops, lt.sys->execImage()), "")
            << "mid-undo-replay crash at +" << mid;
    }
}

// The discrete-event and cycle-stepped cores must agree on an entire
// storm lifetime, boot for boot and bit for bit.
TEST(Storm, EngineABBitIdentity)
{
    auto b = build(pds::PdsScheme::LightWsp, smallSpec(pds::Kind::Alloc));
    b.cfg.engine = SimEngine::Event;
    Walked ev = walkFromMidRun(b, "d1+r+x200+d0+x90");
    b.cfg.engine = SimEngine::Cycle;
    Walked cy = walkFromMidRun(b, "d1+r+x200+d0+x90");
    EXPECT_EQ(ev.segs, cy.segs);
    ASSERT_TRUE(ev.lt.sys && cy.lt.sys);
    EXPECT_TRUE(ev.lt.sys->pmImage()
                    .diffInRange(cy.lt.sys->pmImage(), 0, ~Addr(0))
                    .empty());
}

// The walker counts failures that fired: a failure scheduled past the
// end of the run it would cut does not count, and neither do the drain
// interrupts that would have followed it.
TEST(Storm, LifetimeCountsEveryFiredFailure)
{
    auto b = build(pds::PdsScheme::LightWsp, smallSpec(pds::Kind::Alloc));

    // Every failure lands: initial + d1 + x200 + d1.
    core::Lifetime all = walkFromMidRun(b, "d1+x200+d1").lt;
    ASSERT_NE(all.sys, nullptr);
    EXPECT_EQ(all.failures(), 4u);
    EXPECT_EQ(all.boots, 2u);
    EXPECT_EQ(all.reentries, 0u);
    EXPECT_EQ(all.execFailures, 1u);
    EXPECT_EQ(all.drainInterrupts, 2u);
    EXPECT_EQ(all.sys->failuresSurvived(), 4u);

    // The recovered run finishes long before its exec failure: only the
    // initial failure and its drain interrupt fired.
    core::Lifetime cut = walkFromMidRun(b, "d1+x100000000+d1").lt;
    ASSERT_NE(cut.sys, nullptr);
    EXPECT_EQ(cut.failures(), 2u);
    EXPECT_EQ(cut.boots, 1u);
    EXPECT_EQ(cut.execFailures, 0u);
    EXPECT_EQ(cut.drainInterrupts, 1u);
    EXPECT_EQ(cut.sys->failuresSurvived(), 2u);
}

// One reduced crash-at-every-Nth-cycle-of-recovery matrix case; the
// exhaustive step-1 sweep over all 23 cases (incl. the 16-MC flat/tree
// scale-out rows) is `fuzz_crash --recovery-matrix` (tier-2 storm job /
// bench_all.sh --storm).
TEST(Storm, ReducedRecoveryMatrixCase)
{
    auto cases = fuzz::recoveryMatrixCases();
    ASSERT_GE(cases.size(), 21u);
    fuzz::CampaignOptions opt;
    opt.recoveryStep = 37;
    opt.oracles = false;
    auto res = fuzz::runCampaign(cases[0], opt);
    EXPECT_TRUE(res.passed) << cases[0].toString() << ": " << res.failure;
    EXPECT_GT(res.pointsTried, 0u);
    EXPECT_GT(res.recoveredExact + res.recoveredDegraded, 0u);
}

TEST(Storm, SeededCampaignSurvives)
{
    fuzz::CaseSpec spec;
    spec.source = fuzz::CaseSpec::Source::Workload;
    spec.seed = 3;
    spec.shrink = 2;
    fuzz::CampaignOptions opt;
    opt.minCrashPoints = 4;
    opt.doubleCrash = false;
    opt.stormCrash = true;
    auto res = fuzz::runCampaign(spec, opt);
    EXPECT_TRUE(res.passed)
        << res.failure << " repro: " << res.reproducer.toString();
    EXPECT_GE(res.failuresSurvived, 2u);
}
