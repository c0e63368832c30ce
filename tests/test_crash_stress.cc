/**
 * @file
 * Adversarial crash-recovery stress: tiny WPQs force the deadlock
 * fallback (undo-logged overflow, §IV-D) onto the hot path, and the
 * strict flush-ACK commit mode is swept as well. Recovery must still
 * reproduce the golden state from every crash point.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "compiler/compiler.hh"
#include "core/system.hh"
#include "harness/sweep.hh"
#include "workloads/generator.hh"

using namespace lwsp;

namespace {

/**
 * Stress seed from the LWSP_TEST_SEED environment variable (0 = the
 * fixed default workload). Every failure message carries the active
 * seed, so a CI hit reproduces with
 * `LWSP_TEST_SEED=<n> ./test_crash_stress`.
 */
std::uint64_t
testSeed()
{
    const char *env = std::getenv("LWSP_TEST_SEED");
    return env ? std::strtoull(env, nullptr, 10) : 0;
}

workloads::Workload
stressWorkload(unsigned threads)
{
    workloads::WorkloadProfile p;
    p.name = "stress";
    p.suite = "TEST";
    p.threads = threads;
    p.footprintBytes = 32 * 1024;
    p.hotBytes = 8 * 1024;
    p.locality = 0.5;
    p.branchMissRate = 0.0;
    workloads::PhaseSpec ph;
    ph.pattern = workloads::PhaseSpec::Pattern::Random;
    ph.loads = 1;
    ph.stores = 3;  // store-dense: WPQ pressure
    ph.alus = 2;
    ph.trip = 64;
    ph.reps = 2;
    ph.lockedRmw = threads > 1;

    // A nonzero seed perturbs the workload shape while keeping the
    // store-dense character (and hence the WPQ pressure) intact.
    if (std::uint64_t seed = testSeed()) {
        Rng rng(seed ^ 0x73747265737373ull /* "stresss" */);
        p.footprintBytes = (16u << rng.below(2)) * 1024;
        p.hotBytes = p.footprintBytes / 4;
        p.locality = 0.25 + 0.125 * rng.below(5);
        ph.loads = 1 + static_cast<unsigned>(rng.below(2));
        ph.stores = 2 + static_cast<unsigned>(rng.below(3));
        ph.trip = 32 + 16 * static_cast<unsigned>(rng.below(5));
        static const workloads::PhaseSpec::Pattern pats[] = {
            workloads::PhaseSpec::Pattern::Random,
            workloads::PhaseSpec::Pattern::Sequential,
            workloads::PhaseSpec::Pattern::Random,
        };
        ph.pattern = pats[rng.below(3)];
    }
    p.phases.push_back(ph);
    return workloads::generate(p);
}

void
crashSweep(core::SystemConfig cfg, unsigned threads, unsigned threshold,
           bool expect_fallback)
{
    SCOPED_TRACE("LWSP_TEST_SEED=" + std::to_string(testSeed()));
    setLogQuiet(true);
    cfg.oraclesEnabled = true;  // LRPO invariants live on every run
    auto w = stressWorkload(threads);
    auto lock_addrs = w.lockAddrs;
    std::size_t footprint = w.profile.footprintBytes;

    compiler::CompilerConfig ccfg;
    ccfg.storeThreshold = threshold;
    compiler::LightWspCompiler comp(ccfg);
    auto prog = comp.compile(std::move(w.module));

    core::System golden(cfg, prog, threads);
    auto gr = golden.run();
    ASSERT_TRUE(gr.completed);
    ASSERT_TRUE(golden.oracle() != nullptr);
    EXPECT_TRUE(golden.oracle()->ok())
        << golden.oracle()->firstViolation();
    if (expect_fallback) {
        EXPECT_GT(gr.wpqFallbackFlushes + gr.wpqOverflowEvents, 0u)
            << "stress config did not exercise the fallback";
    }

    // Each crash fraction is an independent (victim, recovery) pair, so
    // they fan out across worker threads. gtest assertions are not
    // thread-safe; workers record failures as strings checked after the
    // join.
    const std::vector<double> fracs = {0.05, 0.2,  0.35, 0.5,
                                       0.65, 0.8,  0.95};
    std::vector<std::string> errors(fracs.size());
    harness::parallelFor(0, fracs.size(), [&](std::size_t i) {
        double f = fracs[i];
        core::System victim(cfg, prog, threads);
        auto vr =
            victim.runWithPowerFailure(static_cast<Tick>(f * gr.cycles));
        if (vr.completed)
            return;
        if (victim.oracle() && !victim.oracle()->ok()) {
            errors[i] = "victim oracle at f=" + std::to_string(f) +
                        ": " + victim.oracle()->firstViolation();
            return;
        }
        auto rec = core::System::recover(cfg, prog, threads,
                                         victim.pmImage(), lock_addrs);
        auto rr = rec->run();
        if (!rr.completed) {
            errors[i] = "recovery stuck at f=" + std::to_string(f);
            return;
        }
        if (rec->oracle() && !rec->oracle()->ok()) {
            errors[i] = "recovery oracle at f=" + std::to_string(f) +
                        ": " + rec->oracle()->firstViolation();
            return;
        }

        if (auto d = workloads::diffAppState(rec->pmImage(),
                                             golden.pmImage(), threads,
                                             footprint);
            !d.empty())
            errors[i] = "at f=" + std::to_string(f) + ": " + d;
    });
    for (std::size_t i = 0; i < fracs.size(); ++i)
        EXPECT_TRUE(errors[i].empty()) << errors[i];
}

} // namespace

TEST(CrashStress, TinyWpqSingleThread)
{
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.numCores = 1;
    cfg.mc.wpqEntries = 8;
    cfg.core.febEntries = 8;
    cfg.maxCycles = 50'000'000;
    cfg.applySchemeDefaults();
    crashSweep(cfg, 1, /*threshold=*/4, /*expect_fallback=*/false);
}

TEST(CrashStress, TinyWpqFourThreadsForcesFallback)
{
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.numCores = 4;
    cfg.mc.wpqEntries = 8;
    cfg.core.febEntries = 8;
    cfg.maxCycles = 50'000'000;
    cfg.applySchemeDefaults();
    crashSweep(cfg, 4, /*threshold=*/4, /*expect_fallback=*/true);
}

TEST(CrashStress, StrictFlushAckMode)
{
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.numCores = 4;
    cfg.mc.strictFlushAcks = true;
    cfg.maxCycles = 50'000'000;
    cfg.applySchemeDefaults();
    cfg.mc.strictFlushAcks = true;
    crashSweep(cfg, 4, /*threshold=*/16, /*expect_fallback=*/false);
}

TEST(CrashStress, SingleMcConfiguration)
{
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.numCores = 4;
    cfg.numMcs = 1;
    cfg.maxCycles = 50'000'000;
    cfg.applySchemeDefaults();
    crashSweep(cfg, 4, /*threshold=*/16, /*expect_fallback=*/false);
}

TEST(CrashStress, FourMcConfiguration)
{
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.numCores = 4;
    cfg.numMcs = 4;
    cfg.maxCycles = 50'000'000;
    cfg.applySchemeDefaults();
    crashSweep(cfg, 4, /*threshold=*/16, /*expect_fallback=*/false);
}

TEST(CrashStress, OversubscribedThreads)
{
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.numCores = 2;  // 6 threads on 2 cores: context switching
    cfg.ctxQuantum = 1500;
    cfg.maxCycles = 50'000'000;
    cfg.applySchemeDefaults();
    crashSweep(cfg, 6, /*threshold=*/16, /*expect_fallback=*/false);
}
