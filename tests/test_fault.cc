/**
 * @file
 * Hardware fault-injection subsystem tests.
 *
 * Covers the three contracts the fault layer makes:
 *
 *  1. Zero cost when off: with the layer disabled — and with it armed
 *     but every axis at its default — cycles, stats and event traces
 *     are bit-identical to the unhardened machine; the hardened
 *     checkpoint format changes persisted word *values* only, never
 *     timing.
 *  2. Hardening works: lost/pinned-lost broadcasts converge through
 *     the ack/retry protocol; checkpoint-area WPQ damage degrades to
 *     the previous persisted epoch; an MC stall is absorbed by the
 *     drain; a double failure during the retry window still recovers.
 *  3. Never silent: poisoned PC slots, unmaskable poisoned register
 *     slots and silent (ECC-escaping) register flips are *detected* —
 *     classified DetectedUnrecoverable — and every recovery that does
 *     complete reproduces the golden application state exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "compiler/compiler.hh"
#include "core/system.hh"
#include "fault/fault.hh"
#include "fuzz/campaign.hh"
#include "noc/noc.hh"
#include "result_eq.hh"
#include "workloads/generator.hh"

using namespace lwsp;

namespace {

workloads::WorkloadProfile
tinyProfile(unsigned threads)
{
    workloads::WorkloadProfile p;
    p.name = "tiny-fault";
    p.suite = "TEST";
    p.threads = threads;
    p.footprintBytes = 32 * 1024;
    p.hotBytes = 8 * 1024;
    p.locality = 0.7;
    p.branchMissRate = 0.0;
    workloads::PhaseSpec ph;
    ph.loads = 2;
    ph.stores = 2;
    ph.alus = 4;
    ph.trip = 64;
    ph.reps = 2;
    ph.pattern = workloads::PhaseSpec::Pattern::Random;
    p.phases.push_back(ph);
    return p;
}

core::SystemConfig
testConfig(unsigned threads)
{
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.numCores = std::min(8u, threads);
    cfg.maxCycles = 30'000'000;
    cfg.oraclesEnabled = true;
    cfg.applySchemeDefaults();
    return cfg;
}

struct Built
{
    compiler::CompiledProgram prog;
    std::vector<Addr> lockAddrs;
    std::size_t footprint = 0;
    unsigned threads = 0;
};

Built
build(unsigned threads)
{
    setLogQuiet(true);
    auto prof = tinyProfile(threads);
    auto w = workloads::generate(prof);
    Built b;
    b.lockAddrs = w.lockAddrs;
    b.footprint = prof.footprintBytes;
    b.threads = threads;
    compiler::LightWspCompiler comp;
    b.prog = comp.compile(std::move(w.module));
    return b;
}

void
expectAppStateEqual(const mem::MemImage &got, const mem::MemImage &want,
                    const Built &b, const std::string &what)
{
    auto d = workloads::diffAppState(got, want, b.threads, b.footprint);
    EXPECT_TRUE(d.empty()) << what << ": " << d;
}

void
expectOracleClean(const core::System &sys, const std::string &what)
{
    ASSERT_NE(sys.oracle(), nullptr) << what;
    EXPECT_TRUE(sys.oracle()->ok())
        << what << ": " << sys.oracle()->firstViolation();
}

/** Mid-run boundary-broadcast ticks mined from a golden run's oracle. */
std::vector<Tick>
boundaryTicks(const Built &b, const core::SystemConfig &cfg)
{
    core::System golden(cfg, b.prog, b.threads);
    golden.run();
    const auto *o = golden.oracle();
    return o ? o->boundaryTicks() : std::vector<Tick>{};
}

} // namespace

// ---- Spec round-trips ------------------------------------------------------

TEST(FaultSpec, ToStringParseRoundTripsEveryAxis)
{
    const char *specs[] = {
        "seed=7,loss=150",
        "seed=7,delay=200,delayc=240,dup=100",
        "seed=7,losspin=1500",
        "seed=7,flip=1,tear=1",
        "seed=7,ckpt=1,stall=2",
        "seed=7,poison=2,silent=1",
        "loss=1000",
        "",
    };
    for (const char *s : specs) {
        fault::FaultConfig fc;
        std::string err;
        ASSERT_TRUE(fault::FaultConfig::parse(s, fc, err))
            << s << ": " << err;
        EXPECT_EQ(fc.toString(), s);
        // Parse the canonical form again: fixpoint.
        fault::FaultConfig fc2;
        ASSERT_TRUE(fault::FaultConfig::parse(fc.toString(), fc2, err));
        EXPECT_EQ(fc2.toString(), fc.toString());
    }
    EXPECT_FALSE(fault::FaultConfig().anyArmed());
    fault::FaultConfig armed;
    armed.wpqBitFlip = true;
    EXPECT_TRUE(armed.anyArmed());
}

TEST(FaultSpec, ParseRejectsGarbage)
{
    fault::FaultConfig fc;
    std::string err;
    for (const char *bad :
         {"loss", "loss=", "loss=abc", "loss=1001", "dup=2000",
          "unknown=1", "=5", "loss=100,,ckpt", "loss=4294967396",
          "loss=-1", "seed=7x", "flip=+1"}) {
        EXPECT_FALSE(fault::FaultConfig::parse(bad, fc, err)) << bad;
        EXPECT_FALSE(err.empty()) << bad;
    }
    // Strict grammar: a trailing separator, a flag other than 0/1 and a
    // repeated key are errors naming the bad token.
    for (auto [bad, tok] : {std::pair{"loss=5,", "loss=5,"},
                            {"flip=7", "flip=7"},
                            {"loss=1,loss=2", "loss=2"}}) {
        EXPECT_FALSE(fault::FaultConfig::parse(bad, fc, err)) << bad;
        EXPECT_NE(err.find(tok), std::string::npos) << bad << ": " << err;
    }
}

TEST(FaultSpec, CaseSpecCarriesFaultsThroughReplayString)
{
    fuzz::CaseSpec spec;
    spec.seed = 42;
    spec.mode = fuzz::CrashMode::Single;
    spec.crashAt = 1234;
    spec.faults.seed = 42;
    spec.faults.bcastLossPm = 150;
    spec.faults.pmPoisonWords = 2;

    std::string s = spec.toString();
    EXPECT_NE(s.find("faults=seed=42,loss=150,poison=2"),
              std::string::npos)
        << s;

    fuzz::CaseSpec back;
    std::string err;
    ASSERT_TRUE(fuzz::CaseSpec::parse(s, back, err)) << err;
    EXPECT_EQ(back.toString(), s);
    EXPECT_EQ(back.faults.bcastLossPm, 150u);
    EXPECT_EQ(back.faults.pmPoisonWords, 2u);
    EXPECT_EQ(back.faults.seed, 42u);
}

// ---- Zero-overhead A/B -----------------------------------------------------

TEST(FaultAB, ArmedButInertIsBitIdentical)
{
    Built b = build(4);
    auto run = [&](bool enabled, bool hardened) {
        core::SystemConfig cfg = testConfig(4);
        cfg.traceEnabled = true;
        cfg.faults.enabled = enabled;
        cfg.faults.hardenedCkpt = hardened;
        core::System sys(cfg, b.prog, b.threads);
        auto r = sys.run();
        return std::make_tuple(r, sys.traceSink()->snapshot(),
                               mem::MemImage(sys.execImage()));
    };

    auto [r_off, ev_off, img_off] = run(false, false);
    auto [r_inert, ev_inert, img_inert] = run(true, false);
    auto [r_hard, ev_hard, img_hard] = run(true, true);

    // Armed-but-inert: everything identical, trace included.
    expectResultEq(r_inert, r_off, "armed but inert");
    ASSERT_EQ(ev_inert.size(), ev_off.size());
    for (std::size_t i = 0; i < ev_off.size(); ++i) {
        const auto &a = ev_off[i];
        const auto &c = ev_inert[i];
        ASSERT_TRUE(a.tick == c.tick && a.type == c.type &&
                    a.unit == c.unit && a.thread == c.thread &&
                    a.region == c.region && a.addr == c.addr &&
                    a.value == c.value && a.aux == c.aux)
            << "event " << i << " differs";
    }
    EXPECT_TRUE(img_inert.diffInRange(img_off, 0, ~0ull).empty());

    // Hardened checkpoints: timing untouched; only PC-slot word values
    // (checksum in the upper half) may differ.
    expectResultEq(r_hard, r_off, "hardened checkpoints");
    ASSERT_EQ(ev_hard.size(), ev_off.size());
    for (std::size_t i = 0; i < ev_off.size(); ++i) {
        EXPECT_EQ(ev_hard[i].tick, ev_off[i].tick) << "event " << i;
        EXPECT_EQ(ev_hard[i].type, ev_off[i].type) << "event " << i;
    }
    Addr heap = workloads::Workload::heapBase;
    EXPECT_TRUE(img_hard
                    .diffInRange(img_off, heap,
                                 heap + static_cast<Addr>(b.threads) *
                                            b.footprint)
                    .empty());
}

// ---- Broadcast loss / retry ------------------------------------------------

TEST(FaultNoc, LostBroadcastsRetryAndConverge)
{
    Built b = build(4);
    core::SystemConfig cfg = testConfig(4);
    core::System clean(cfg, b.prog, b.threads);
    auto cr = clean.run();
    ASSERT_TRUE(cr.completed);

    core::SystemConfig fcfg = cfg;
    fcfg.traceEnabled = true;
    fcfg.faults.enabled = true;
    fcfg.faults.seed = 7;
    fcfg.faults.bcastLossPm = 300;
    core::System faulty(fcfg, b.prog, b.threads);
    auto fr = faulty.run();

    ASSERT_TRUE(fr.completed) << "lossy run must still converge";
    const auto *inj = faulty.faultInjector();
    ASSERT_NE(inj, nullptr);
    EXPECT_GT(inj->bcastDrops, 0u);
    EXPECT_GT(faulty.nocNet().counters().bcastRetries, 0u);
    expectOracleClean(faulty, "lossy run");
    expectAppStateEqual(faulty.execImage(), clean.execImage(), b,
                        "lossy run");

    // Retries are visible in the trace (Perfetto visualisation hook).
    auto events = faulty.traceSink()->snapshot();
    EXPECT_TRUE(std::any_of(events.begin(), events.end(),
                            [](const trace::Event &e) {
                                return e.type ==
                                       trace::EventType::BcastRetry;
                            }));
}

namespace {

/** Bare McEndpoint that records every delivered message. */
struct CapturingEndpoint : mem::McEndpoint
{
    std::vector<mem::McMsg> got;
    void receive(const mem::McMsg &msg, Tick) override
    {
        got.push_back(msg);
    }
};

} // namespace

// Audit of the retry path's message rebuild: a copy re-sent after the
// timeout must be field-for-field identical to the original broadcast —
// same type, region, sender and bcastId. The router stores the original
// McMsg in its pending entry and re-sends it verbatim; this pins that
// contract on both fabrics (a reconstruction bug would surface as a
// mismatched field at whichever MC only ever saw the retried copy).
TEST(FaultNoc, RetriedCopyEqualsOriginalFieldForField)
{
    for (bool tree : {false, true}) {
        noc::TopologyConfig topo;
        if (tree) {
            topo.kind = noc::TopologyConfig::Kind::Tree;
            topo.radix = 2;
        }
        constexpr unsigned kMcs = 4;
        constexpr Tick kHop = 5;
        noc::Noc net(kMcs, kHop, topo);
        fault::FaultConfig fc;
        fc.enabled = true;
        fc.seed = 1;
        fc.bcastLossPinTick = 0;  // drop every copy of the broadcast
        fault::FaultInjector inj(fc, 1);
        net.setFaultInjector(&inj);

        std::vector<CapturingEndpoint> eps(kMcs);
        std::vector<mem::McEndpoint *> ptrs;
        for (auto &e : eps)
            ptrs.push_back(&e);
        net.attach(ptrs);

        const RegionId region = 42;
        net.broadcastBoundary(region, 0);
        EXPECT_EQ(inj.bcastDrops, tree ? 2u : kMcs)
            << "pinned drop must kill the initial descent per link";

        for (Tick t = 1; t <= 4096; ++t)
            net.tick(t);

        EXPECT_GT(net.counters().bcastRetries, 0u);
        for (unsigned mc = 0; mc < kMcs; ++mc) {
            ASSERT_EQ(eps[mc].got.size(), 1u)
                << (tree ? "tree" : "flat") << " MC " << mc
                << ": want exactly one delivery";
            const mem::McMsg &m = eps[mc].got[0];
            EXPECT_EQ(m.type, mem::McMsg::Type::BdryArrival);
            EXPECT_EQ(m.region, region);
            EXPECT_EQ(m.from, McId(0));
            EXPECT_EQ(m.bcastId, 1u)
                << "retried copy must carry the original bcastId";
        }
    }
}

TEST(FaultNoc, PinnedLossConvergesViaRetry)
{
    Built b = build(2);
    core::SystemConfig cfg = testConfig(2);
    core::System clean(cfg, b.prog, b.threads);
    auto cr = clean.run();
    ASSERT_TRUE(cr.completed);

    core::SystemConfig fcfg = cfg;
    fcfg.faults.enabled = true;
    fcfg.faults.seed = 3;
    fcfg.faults.bcastLossPinTick = cr.cycles / 2;
    core::System faulty(fcfg, b.prog, b.threads);
    auto fr = faulty.run();

    ASSERT_TRUE(fr.completed);
    const auto *inj = faulty.faultInjector();
    EXPECT_GT(inj->bcastDrops, 0u) << "pin should have fired";
    EXPECT_GT(faulty.nocNet().counters().bcastRetries, 0u);
    expectOracleClean(faulty, "pinned-loss run");
    expectAppStateEqual(faulty.execImage(), clean.execImage(), b,
                        "pinned-loss run");
}

// ---- Crash-time hardware damage --------------------------------------------

TEST(FaultCrash, CkptDamageFallsBackOneEpochAndConverges)
{
    Built b = build(4);
    core::SystemConfig cfg = testConfig(4);
    core::System golden(cfg, b.prog, b.threads);
    auto gr = golden.run();
    ASSERT_TRUE(gr.completed);
    auto ticks = boundaryTicks(b, cfg);
    ASSERT_FALSE(ticks.empty());

    core::SystemConfig rcfg = cfg;
    rcfg.faults.hardenedCkpt = true;

    bool damaged_once = false;
    unsigned degraded = 0;
    // Crash right after mid-run boundary broadcasts so the PC-store of
    // the just-ended region is likely still queued in a WPQ.
    for (std::size_t i = ticks.size() / 4;
         i < ticks.size() && degraded < 2; i += ticks.size() / 8 + 1) {
        core::SystemConfig vcfg = cfg;
        vcfg.faults.enabled = true;
        vcfg.faults.hardenedCkpt = true;
        vcfg.faults.seed = 11 + static_cast<std::uint64_t>(i);
        vcfg.faults.ckptEntryDamage = true;
        core::System victim(vcfg, b.prog, b.threads);
        auto vr = victim.runWithPowerFailure(ticks[i] + 1);
        if (vr.completed)
            continue;
        expectOracleClean(victim, "ckpt-damage victim");
        const auto &rep = victim.crashReport();
        auto res = core::System::recoverChecked(rcfg, b.prog, b.threads,
                                                victim.pmImage(),
                                                b.lockAddrs, &rep);
        if (rep.wpqDamaged > 0) {
            damaged_once = true;
            if (rep.truncationHazard) {
                EXPECT_EQ(res.outcome,
                          core::RecoveryOutcome::DetectedUnrecoverable);
                continue;
            }
            ASSERT_NE(rep.corruptBarrier, invalidRegion);
            EXPECT_EQ(res.outcome,
                      core::RecoveryOutcome::RecoveredDegraded);
        }
        if (res.outcome == core::RecoveryOutcome::DetectedUnrecoverable)
            continue;
        if (res.outcome == core::RecoveryOutcome::RecoveredDegraded)
            ++degraded;
        auto rr = res.sys->run();
        ASSERT_TRUE(rr.completed);
        expectOracleClean(*res.sys, "ckpt-damage recovery");
        expectAppStateEqual(res.sys->pmImage(), golden.pmImage(), b,
                            "ckpt-damage recovery");
    }
    EXPECT_TRUE(damaged_once)
        << "no crash point caught a checkpoint entry in a WPQ";
    EXPECT_GT(degraded, 0u)
        << "expected at least one fall-back to an older epoch";
}

TEST(FaultCrash, McStallIsAbsorbedByTheDrain)
{
    Built b = build(2);
    core::SystemConfig cfg = testConfig(2);
    core::System golden(cfg, b.prog, b.threads);
    auto gr = golden.run();
    ASSERT_TRUE(gr.completed);

    core::SystemConfig vcfg = cfg;
    vcfg.faults.enabled = true;
    vcfg.faults.seed = 5;
    vcfg.faults.mcStallIters = 3;
    core::System victim(vcfg, b.prog, b.threads);
    auto vr = victim.runWithPowerFailure(gr.cycles / 2);
    ASSERT_FALSE(vr.completed);
    ASSERT_TRUE(victim.crashed());
    EXPECT_EQ(victim.crashReport().stallsInjected, 3u);
    expectOracleClean(victim, "stalled victim");

    auto res = core::System::recoverChecked(cfg, b.prog, b.threads,
                                            victim.pmImage(),
                                            b.lockAddrs,
                                            &victim.crashReport());
    ASSERT_EQ(res.outcome, core::RecoveryOutcome::Recovered)
        << res.detail;
    auto rr = res.sys->run();
    ASSERT_TRUE(rr.completed);
    expectAppStateEqual(res.sys->pmImage(), golden.pmImage(), b,
                        "stall recovery");
}

TEST(FaultCrash, DoubleFailureDuringRetryWindowStaysSound)
{
    Built b = build(4);
    core::SystemConfig cfg = testConfig(4);
    core::System golden(cfg, b.prog, b.threads);
    auto gr = golden.run();
    ASSERT_TRUE(gr.completed);
    auto ticks = boundaryTicks(b, cfg);
    ASSERT_FALSE(ticks.empty());
    Tick pin = ticks[ticks.size() / 2];

    // Pin-drop a mid-run broadcast, then cut power inside its retry
    // window (timeout is 8 hops = 160 cycles at default latency) with a
    // second failure interrupting the drain itself. The router is not
    // battery-backed: the copies are gone, the drain truncates at that
    // region, recovery degrades to the older epoch — and still matches
    // golden after re-execution.
    core::SystemConfig vcfg = cfg;
    vcfg.faults.enabled = true;
    vcfg.faults.hardenedCkpt = true;
    vcfg.faults.seed = 9;
    vcfg.faults.bcastLossPinTick = pin;
    core::System victim(vcfg, b.prog, b.threads);
    auto vr = victim.runWithFailureStorm(pin + 60, {1});
    ASSERT_FALSE(vr.completed);
    ASSERT_TRUE(victim.crashed());
    expectOracleClean(victim, "retry-window victim");

    const auto &rep = victim.crashReport();
    core::SystemConfig rcfg = cfg;
    rcfg.faults.hardenedCkpt = true;
    auto res = core::System::recoverChecked(rcfg, b.prog, b.threads,
                                            victim.pmImage(),
                                            b.lockAddrs, &rep);
    ASSERT_NE(res.outcome, core::RecoveryOutcome::DetectedUnrecoverable)
        << res.detail;
    if (rep.bcastLostAtCrash > 0) {
        EXPECT_EQ(res.outcome,
                  core::RecoveryOutcome::RecoveredDegraded);
    }
    auto rr = res.sys->run();
    ASSERT_TRUE(rr.completed);
    expectOracleClean(*res.sys, "retry-window recovery");
    expectAppStateEqual(res.sys->pmImage(), golden.pmImage(), b,
                        "retry-window recovery");
}

// ---- Recovery-time validation ----------------------------------------------

namespace {

/** Crash mid-run with hardened checkpoints; out_t = a thread resumed at
 *  a real boundary site. Returns the victim system (kept alive by the
 *  caller via unique_ptr) or null if no thread has a real site. */
std::unique_ptr<core::System>
crashedVictim(const Built &b, const core::SystemConfig &cfg,
              ThreadId &out_t)
{
    core::SystemConfig vcfg = cfg;
    vcfg.faults.enabled = true;
    vcfg.faults.hardenedCkpt = true;
    auto victim =
        std::make_unique<core::System>(vcfg, b.prog, b.threads);
    core::System probe(cfg, b.prog, b.threads);
    auto pr = probe.run();
    auto vr = victim->runWithPowerFailure(pr.cycles / 2);
    if (vr.completed)
        return nullptr;
    for (ThreadId t = 0; t < b.threads; ++t) {
        std::uint32_t site = cpu::ckptSiteOf(
            victim->pmImage().read(b.prog.layout.pcSlot(t)));
        if (site != static_cast<std::uint32_t>(core::noSiteSentinel) &&
            site != cpu::haltSite) {
            out_t = t;
            return victim;
        }
    }
    return nullptr;
}

} // namespace

TEST(FaultRecovery, PoisonedPcSlotIsUnrecoverable)
{
    Built b = build(4);
    core::SystemConfig cfg = testConfig(4);
    ThreadId t = 0;
    auto victim = crashedVictim(b, cfg, t);
    ASSERT_NE(victim, nullptr);

    mem::MemImage pm = victim->pmImage();
    pm.poison(b.prog.layout.pcSlot(t));
    core::SystemConfig rcfg = cfg;
    rcfg.faults.hardenedCkpt = true;
    auto res = core::System::recoverChecked(rcfg, b.prog, b.threads, pm,
                                            b.lockAddrs);
    EXPECT_EQ(res.outcome, core::RecoveryOutcome::DetectedUnrecoverable);
    EXPECT_EQ(res.sys, nullptr);
    EXPECT_NE(res.detail.find("PC slot"), std::string::npos)
        << res.detail;
}

TEST(FaultRecovery, PoisonedRegisterSlotsClassifyByRecipe)
{
    Built b = build(4);
    core::SystemConfig cfg = testConfig(4);
    ThreadId t = 0;
    auto victim = crashedVictim(b, cfg, t);
    ASSERT_NE(victim, nullptr);
    core::SystemConfig rcfg = cfg;
    rcfg.faults.hardenedCkpt = true;

    std::uint32_t site = cpu::ckptSiteOf(
        victim->pmImage().read(b.prog.layout.pcSlot(t)));
    const auto &recipes = b.prog.site(site).recipes;

    // An unmasked register slot (no recipe covers it) must refuse.
    ir::Reg uncovered = ir::numGprs;
    for (ir::Reg r = 0; r < ir::numGprs; ++r) {
        bool covered = std::any_of(
            recipes.begin(), recipes.end(),
            [r](const compiler::CkptRecipe &rc) { return rc.reg == r; });
        if (!covered) {
            uncovered = r;
            break;
        }
    }
    ASSERT_LT(uncovered, ir::numGprs);
    {
        mem::MemImage pm = victim->pmImage();
        pm.poison(b.prog.layout.regSlot(t, uncovered));
        auto res = core::System::recoverChecked(rcfg, b.prog, b.threads,
                                                pm, b.lockAddrs);
        EXPECT_EQ(res.outcome,
                  core::RecoveryOutcome::DetectedUnrecoverable);
        EXPECT_NE(res.detail.find("no masking recipe"),
                  std::string::npos)
            << res.detail;
    }

    // A Const-recipe register is reconstructed without reading its
    // slot: poison there is masked and recovery merely degrades.
    auto it = std::find_if(recipes.begin(), recipes.end(),
                           [](const compiler::CkptRecipe &rc) {
                               return rc.kind ==
                                      compiler::CkptRecipe::Kind::Const;
                           });
    if (it == recipes.end())
        GTEST_SKIP() << "site " << site << " has no Const recipe";
    {
        mem::MemImage pm = victim->pmImage();
        pm.poison(b.prog.layout.regSlot(t, it->reg));
        auto res = core::System::recoverChecked(rcfg, b.prog, b.threads,
                                                pm, b.lockAddrs);
        ASSERT_EQ(res.outcome,
                  core::RecoveryOutcome::RecoveredDegraded)
            << res.detail;
        EXPECT_EQ(res.maskedPoisonRegs, 1u);
        ASSERT_NE(res.sys, nullptr);
        EXPECT_TRUE(res.sys->run().completed);
    }
}

TEST(FaultRecovery, SilentRegisterFlipCaughtByHardenedChecksum)
{
    Built b = build(4);
    core::SystemConfig cfg = testConfig(4);
    ThreadId t = 0;
    auto victim = crashedVictim(b, cfg, t);
    ASSERT_NE(victim, nullptr);
    core::SystemConfig rcfg = cfg;
    rcfg.faults.hardenedCkpt = true;

    // Sanity: the undamaged image recovers.
    auto clean = core::System::recoverChecked(
        rcfg, b.prog, b.threads, victim->pmImage(), b.lockAddrs);
    ASSERT_EQ(clean.outcome, core::RecoveryOutcome::Recovered)
        << clean.detail;

    // Flip one bit in a register slot — no poison flag, no ECC: only
    // the checksum in the hardened PC-slot word can catch this.
    mem::MemImage pm = victim->pmImage();
    Addr slot = b.prog.layout.regSlot(t, 3);
    pm.write(slot, pm.read(slot) ^ (1ull << 17));
    auto res = core::System::recoverChecked(rcfg, b.prog, b.threads, pm,
                                            b.lockAddrs);
    EXPECT_EQ(res.outcome, core::RecoveryOutcome::DetectedUnrecoverable);
    EXPECT_NE(res.detail.find("checksum"), std::string::npos)
        << res.detail;
}

TEST(FaultRecovery, InjectedSilentFlipIsDetectedEndToEnd)
{
    Built b = build(4);
    core::SystemConfig cfg = testConfig(4);
    core::System probe(cfg, b.prog, b.threads);
    auto pr = probe.run();

    core::SystemConfig vcfg = cfg;
    vcfg.faults.enabled = true;
    vcfg.faults.hardenedCkpt = true;
    vcfg.faults.seed = 21;
    vcfg.faults.silentCkptFlip = true;
    core::System victim(vcfg, b.prog, b.threads);
    auto vr = victim.runWithPowerFailure(pr.cycles / 2);
    ASSERT_FALSE(vr.completed);
    if (victim.crashReport().silentFlips == 0)
        GTEST_SKIP() << "no thread had a live checkpoint at the crash";

    core::SystemConfig rcfg = cfg;
    rcfg.faults.hardenedCkpt = true;
    auto res = core::System::recoverChecked(rcfg, b.prog, b.threads,
                                            victim.pmImage(),
                                            b.lockAddrs,
                                            &victim.crashReport());
    EXPECT_EQ(res.outcome, core::RecoveryOutcome::DetectedUnrecoverable)
        << res.detail;
}

// ---- Campaign integration --------------------------------------------------

TEST(FaultFuzz, FaultArmedCampaignNeverSilentlyCorrupts)
{
    fuzz::CampaignOptions opt;
    opt.minCrashPoints = 4;
    fuzz::CaseSpec spec;
    spec.seed = 13;
    spec.faults.seed = 13;
    spec.faults.ckptEntryDamage = true;
    spec.faults.pmPoisonWords = 1;
    auto res = fuzz::runCampaign(spec, opt);
    EXPECT_TRUE(res.passed) << res.failure;
    EXPECT_GT(res.pointsTried, 0u);
    EXPECT_GT(res.recoveredExact + res.recoveredDegraded +
                  res.detectedUnrecoverable,
              0u);
}
