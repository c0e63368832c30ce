/**
 * @file
 * Crash-injection sweeps: the system's flagship correctness property.
 *
 * For a grid of power-failure cycles spanning the whole execution, we
 * (1) cut power, (2) run the §IV-F drain protocol, (3) recover a fresh
 * system from the post-crash PM image and run it to completion, and
 * (4) require the recovered application state to equal a golden
 * crash-free run's. Workloads are confluent (final state independent of
 * interleaving), so the equality is exact. Double-crash variants inject
 * a second failure into the recovery run itself.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "compiler/compiler.hh"
#include "core/lifetime.hh"
#include "core/system.hh"
#include "workloads/generator.hh"

using namespace lwsp;

namespace {

struct CrashCase
{
    const char *name;
    unsigned threads;
    bool locked;          ///< add a lock-protected shared RMW phase
    bool randomPattern;
    unsigned trip;
};

workloads::Workload
buildWorkload(const CrashCase &c)
{
    workloads::WorkloadProfile p;
    p.name = c.name;
    p.suite = "TEST";
    p.threads = c.threads;
    p.footprintBytes = 32 * 1024;
    p.hotBytes = 8 * 1024;
    p.locality = 0.7;
    p.branchMissRate = 0.0;

    workloads::PhaseSpec ph;
    ph.pattern = c.randomPattern
                     ? workloads::PhaseSpec::Pattern::Random
                     : workloads::PhaseSpec::Pattern::Sequential;
    ph.loads = 2;
    ph.stores = 2;
    ph.alus = 4;
    ph.trip = c.trip;
    ph.reps = 2;
    p.phases.push_back(ph);

    if (c.locked) {
        workloads::PhaseSpec txn;
        txn.pattern = workloads::PhaseSpec::Pattern::Random;
        txn.loads = 1;
        txn.stores = 1;
        txn.alus = 2;
        txn.trip = c.trip / 2;
        txn.reps = 1;
        txn.lockedRmw = true;
        p.phases.push_back(txn);
    }
    return workloads::generate(p);
}

core::SystemConfig
testConfig(unsigned threads)
{
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.numCores = std::min(8u, threads);
    cfg.maxCycles = 30'000'000;
    cfg.oraclesEnabled = true;  // LRPO invariants checked on every run
    cfg.applySchemeDefaults();
    return cfg;
}

/** Require a clean oracle verdict (and that the oracle exists at all). */
void
expectOracleClean(const core::System &sys, const std::string &what)
{
    ASSERT_TRUE(sys.oracle() != nullptr) << what << ": oracle missing";
    EXPECT_TRUE(sys.oracle()->ok())
        << what << ": " << sys.oracle()->firstViolation();
}

/** App-visible state: per-thread partitions + the shared page. */
void
expectAppStateEqual(const mem::MemImage &got, const mem::MemImage &want,
                    unsigned threads, std::size_t footprint,
                    const std::string &what)
{
    Addr heap_lo = workloads::Workload::heapBase;
    Addr heap_hi = heap_lo + static_cast<Addr>(threads) * footprint;
    auto heap_diffs = got.diffInRange(want, heap_lo, heap_hi);
    EXPECT_TRUE(heap_diffs.empty())
        << what << ": heap differs at 0x" << std::hex
        << (heap_diffs.empty() ? 0 : heap_diffs[0]);

    Addr sh = workloads::Workload::sharedBase;
    auto shared_diffs = got.diffInRange(want, sh, sh + 4096);
    EXPECT_TRUE(shared_diffs.empty())
        << what << ": shared page differs at 0x" << std::hex
        << (shared_diffs.empty() ? 0 : shared_diffs[0]);
}

class CrashSweep
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
  protected:
    static const CrashCase &
    caseAt(int idx)
    {
        static const CrashCase cases[] = {
            {"st-seq", 1, false, false, 96},
            {"st-rand", 1, false, true, 96},
            {"mt-plain", 4, false, true, 48},
            {"mt-locked", 4, true, false, 48},
        };
        return cases[idx];
    }
};

} // namespace

TEST_P(CrashSweep, RecoveryReproducesGoldenState)
{
    setLogQuiet(true);
    const CrashCase &c = caseAt(std::get<0>(GetParam()));
    double fraction = std::get<1>(GetParam());

    compiler::LightWspCompiler comp;

    // Golden run.
    auto wg = buildWorkload(c);
    auto lock_addrs = wg.lockAddrs;
    auto prog = comp.compile(std::move(wg.module));
    core::SystemConfig cfg = testConfig(c.threads);

    core::System golden(cfg, prog, c.threads);
    auto gr = golden.run();
    ASSERT_TRUE(gr.completed);
    expectOracleClean(golden, "golden");

    // Crash run at the chosen fraction of the golden duration.
    Tick fail_at = static_cast<Tick>(fraction * gr.cycles);
    core::System victim(cfg, prog, c.threads);
    auto vr = victim.runWithPowerFailure(fail_at);
    if (vr.completed) {
        // Finished before the failure point: nothing to recover.
        expectAppStateEqual(victim.pmImage(), golden.pmImage(),
                            c.threads, 32 * 1024, "no-crash");
        return;
    }
    ASSERT_TRUE(victim.crashed());
    expectOracleClean(victim, "victim");

    // Recover and run to completion.
    auto recovered = core::System::recover(cfg, prog, c.threads,
                                           victim.pmImage(), lock_addrs);
    auto rr = recovered->run();
    ASSERT_TRUE(rr.completed) << "recovery run did not finish";
    expectOracleClean(*recovered, "recovery");

    expectAppStateEqual(recovered->pmImage(), golden.pmImage(), c.threads,
                        32 * 1024, "recovered");
}

namespace {

using CrashParam = std::tuple<int, double>;

std::string
crashCaseName(const ::testing::TestParamInfo<CrashParam> &info)
{
    static const char *names[] = {"StSeq", "StRand", "MtPlain",
                                  "MtLocked"};
    int pct = static_cast<int>(std::get<1>(info.param) * 100);
    return std::string(names[std::get<0>(info.param)]) + "At" +
           std::to_string(pct);
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrashSweep,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(0.02, 0.1, 0.25, 0.4, 0.55, 0.7,
                                         0.85, 0.97)),
    crashCaseName);

TEST(CrashRecovery, DoubleCrashStillRecovers)
{
    setLogQuiet(true);
    const CrashCase c{"mt-locked2", 4, true, false, 48};
    compiler::LightWspCompiler comp;

    auto wg = buildWorkload(c);
    auto lock_addrs = wg.lockAddrs;
    auto prog = comp.compile(std::move(wg.module));
    core::SystemConfig cfg = testConfig(c.threads);

    core::System golden(cfg, prog, c.threads);
    auto gr = golden.run();
    ASSERT_TRUE(gr.completed);

    core::System victim(cfg, prog, c.threads);
    auto vr = victim.runWithPowerFailure(gr.cycles / 3);
    ASSERT_FALSE(vr.completed);

    auto lt = core::walkLifetime(
        victim, {{{fault::FailurePhase::Exec, gr.cycles / 3}}}, cfg, prog,
        c.threads, lock_addrs);
    ASSERT_TRUE(lt.error.empty()) << lt.error;
    ASSERT_NE(lt.sys, nullptr) << lt.detail;
    ASSERT_TRUE(lt.last.completed);
    expectAppStateEqual(lt.sys->pmImage(), golden.pmImage(), c.threads,
                        32 * 1024,
                        lt.execFailures ? "double-crash" : "single-crash");
}

/**
 * Second power failure while the §IV-F drain itself is running: the
 * battery-backed WPQ and MC registers survive, so the resumed drain
 * must finish the job and recovery must be indistinguishable from a
 * single failure at the same cycle. Swept over how far the first drain
 * got before the lights went out again (0 = before any flush/ACK
 * iteration), with the LRPO oracles armed throughout.
 */
TEST(CrashRecovery, DoubleFailureDuringDrainRecovers)
{
    setLogQuiet(true);
    const CrashCase c{"mt-drain2", 4, true, false, 48};
    compiler::LightWspCompiler comp;

    auto wg = buildWorkload(c);
    auto lock_addrs = wg.lockAddrs;
    auto prog = comp.compile(std::move(wg.module));
    core::SystemConfig cfg = testConfig(c.threads);

    core::System golden(cfg, prog, c.threads);
    auto gr = golden.run();
    ASSERT_TRUE(gr.completed);
    expectOracleClean(golden, "golden");

    const double fracs[] = {0.15, 0.45, 0.75};
    const unsigned drain_iters[] = {0, 1, 2, 5};
    for (double f : fracs) {
        Tick fail_at = static_cast<Tick>(f * gr.cycles);

        // Reference: a single failure at the same cycle.
        core::System single(cfg, prog, c.threads);
        auto sr = single.runWithPowerFailure(fail_at);
        if (sr.completed)
            continue;  // finished before the failure point

        for (unsigned iters : drain_iters) {
            SCOPED_TRACE("f=" + std::to_string(f) +
                         " drain_iters=" + std::to_string(iters));
            core::System victim(cfg, prog, c.threads);
            auto vr = victim.runWithFailureStorm(fail_at, {iters});
            ASSERT_FALSE(vr.completed);
            ASSERT_TRUE(victim.crashed());
            expectOracleClean(victim, "double-failure victim");

            // The interrupted drain must be invisible: the post-crash
            // PM image matches the single-failure image exactly.
            auto diffs = victim.pmImage().diffInRange(
                single.pmImage(), 0, ~static_cast<Addr>(0));
            EXPECT_TRUE(diffs.empty())
                << "double-failure PM image diverges from "
                   "single-failure at 0x"
                << std::hex << (diffs.empty() ? 0 : diffs[0]);

            auto rec = core::System::recover(
                cfg, prog, c.threads, victim.pmImage(), lock_addrs);
            auto rr = rec->run();
            ASSERT_TRUE(rr.completed);
            expectOracleClean(*rec, "post-double-failure recovery");
            expectAppStateEqual(rec->pmImage(), golden.pmImage(),
                                c.threads, 32 * 1024, "double-drain");
        }
    }
}

TEST(CrashRecovery, CrashAtCycleZeroRestartsCleanly)
{
    setLogQuiet(true);
    const CrashCase c{"st-zero", 1, false, false, 64};
    compiler::LightWspCompiler comp;

    auto wg = buildWorkload(c);
    auto prog = comp.compile(std::move(wg.module));
    core::SystemConfig cfg = testConfig(1);

    core::System golden(cfg, prog, 1);
    auto gr = golden.run();
    ASSERT_TRUE(gr.completed);

    core::System victim(cfg, prog, 1);
    auto vr = victim.runWithPowerFailure(0);
    ASSERT_FALSE(vr.completed);

    auto recovered =
        core::System::recover(cfg, prog, 1, victim.pmImage(), {});
    auto rr = recovered->run();
    ASSERT_TRUE(rr.completed);
    expectAppStateEqual(recovered->pmImage(), golden.pmImage(), 1,
                        32 * 1024, "from-zero");
}
