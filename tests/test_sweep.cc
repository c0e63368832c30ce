/**
 * @file
 * The parallel sweep engine's two contracts:
 *
 *  1. "parallel == serial, bit for bit": a SweepExecutor at any job
 *     count returns the same RunOutcome per spec (every counter, not
 *     just cycles) as a jobs=1 executor over a fresh Runner.
 *  2. The event engine's clock jumps are invisible: a System run under
 *     it matches the cycle engine, which ticks every component every
 *     cycle, on every statistic, across schemes, warmup, and
 *     oversubscribed threads (where context-switch timing caps the
 *     jump).
 *
 * Plus the Runner memo: repeated runs of one spec hand back the cached
 * outcome, SweepExecutor::slowdowns agrees with the scalar
 * slowdownVsBaseline path, and the runPoints entry for bench-defined
 * points keeps the same contracts (input order, key dedup, telemetry,
 * job-count-independent reports).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "core/system.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "workloads/generator.hh"
#include "workloads/profile.hh"

#include "result_eq.hh"

using namespace lwsp;

namespace {

void
expectOutcomeEq(const harness::RunOutcome &a, const harness::RunOutcome &b,
                const std::string &what)
{
    expectResultEq(a.result, b.result, what);
    EXPECT_EQ(a.threads, b.threads) << what;
    EXPECT_EQ(a.compileStats.outputInsts, b.compileStats.outputInsts)
        << what;
    EXPECT_EQ(a.compileStats.boundaries, b.compileStats.boundaries) << what;
    EXPECT_EQ(a.compileStats.checkpointStores,
              b.compileStats.checkpointStores)
        << what;
}

/** The mixed spec list both executors sweep: several schemes, the
 *  Baseline among them, and a sensitivity override over two fast paper
 *  apps. */
std::vector<harness::RunSpec>
mixedSpecs()
{
    std::vector<harness::RunSpec> specs;
    for (const char *app : {"is", "xz"}) {
        for (core::Scheme s : {core::Scheme::Baseline, core::Scheme::LightWsp,
                               core::Scheme::Capri, core::Scheme::Ppa}) {
            harness::RunSpec spec;
            spec.workload = app;
            spec.scheme = s;
            specs.push_back(spec);
        }
        harness::RunSpec wpq;
        wpq.workload = app;
        wpq.scheme = core::Scheme::LightWsp;
        wpq.wpqEntries = 16;
        specs.push_back(wpq);
    }
    return specs;
}

/** Store-dense scratch profile (not in the paper registry) so the
 *  engine A/B tests control threads/cores/warmup directly. */
workloads::WorkloadProfile
scratchProfile(unsigned threads)
{
    workloads::WorkloadProfile p;
    p.name = "sweep-scratch";
    p.suite = "TEST";
    p.threads = threads;
    p.footprintBytes = 64 * 1024;
    p.hotBytes = 16 * 1024;
    p.locality = 0.6;
    p.branchMissRate = 0.01;
    workloads::PhaseSpec ph;
    ph.pattern = workloads::PhaseSpec::Pattern::Random;
    ph.loads = 2;
    ph.stores = 2;
    ph.alus = 3;
    ph.trip = 96;
    ph.reps = 3;
    ph.lockedRmw = threads > 1;
    p.phases.push_back(ph);
    return p;
}

core::RunResult
runDirect(const workloads::WorkloadProfile &profile, core::Scheme scheme,
          unsigned threads, unsigned cores, SimEngine engine,
          std::uint64_t warmup_insts)
{
    auto w = workloads::generate(profile);
    harness::RunSpec spec;
    spec.workload = profile.name;
    spec.scheme = scheme;
    core::SystemConfig cfg = harness::makeConfig(profile, spec);
    cfg.numCores = cores;
    cfg.engine = engine;
    cfg.warmupInsts = warmup_insts;
    auto prog = harness::prepareProgram(std::move(w), spec);
    core::System sys(cfg, prog, threads);
    return sys.run();
}

/** One runPoints sweep over the scratch profile, as a bench runs it. */
struct PointSweep
{
    std::vector<harness::RunRecord> records;  ///< as returned, input order
    std::vector<harness::RunRecord> retained; ///< exec.runRecords()
    harness::SweepStats stats;
    std::uint64_t reportedCycles = 0;         ///< sum the callbacks gave
    std::string report;                       ///< run-report JSON text
};

/** Six points cycling three schemes, so every key repeats once. */
constexpr core::Scheme kPointSchemes[] = {
    core::Scheme::Baseline, core::Scheme::Capri, core::Scheme::LightWsp};

PointSweep
sweepPoints(unsigned jobs)
{
    auto profile = scratchProfile(1);
    std::vector<std::uint64_t> reported(6);
    harness::SweepExecutor exec(jobs);
    PointSweep out;
    out.records = exec.runPoints(6, [&](std::size_t i) {
        harness::RunSpec spec;
        spec.workload = profile.name;
        spec.scheme = kPointSchemes[i % 3];
        auto cfg = harness::makeConfig(profile, spec);
        auto prog =
            harness::prepareProgram(workloads::generate(profile), spec);
        core::System sys(cfg, prog, 1);
        auto res = sys.run();
        std::string scheme = core::schemeName(spec.scheme);
        // Report more cycles than the record holds, as a point running
        // several simulations does.
        reported[i] = 2 * res.cycles + i;
        return harness::PointRun{
            {profile.name + "/" + scheme, profile.name, scheme,
             {res, prog.stats}},
            reported[i]};
    });
    out.retained = exec.runRecords();
    out.stats = exec.lastStats();
    for (auto c : reported)
        out.reportedCycles += c;

    std::string path = testing::TempDir() + "lwsp_points_report.json";
    harness::writeRunReports(path, "test", exec.runRecords(),
                             exec.totalStats());
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    out.report = ss.str();
    std::remove(path.c_str());
    return out;
}

} // namespace

TEST(Sweep, ParallelMatchesSerialBitForBit)
{
    setLogQuiet(true);
    auto specs = mixedSpecs();

    harness::Runner serial_runner;
    harness::SweepExecutor serial(1);
    auto serial_out = serial.runAll(serial_runner, specs);

    harness::Runner parallel_runner;
    harness::SweepExecutor parallel(4);
    auto parallel_out = parallel.runAll(parallel_runner, specs);

    ASSERT_EQ(serial_out.size(), specs.size());
    ASSERT_EQ(parallel_out.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
        expectOutcomeEq(serial_out[i], parallel_out[i],
                        "spec " + harness::specKey(specs[i]));

    EXPECT_EQ(serial.totalStats().simulatedCycles,
              parallel.totalStats().simulatedCycles);
    EXPECT_EQ(serial.totalStats().points, parallel.totalStats().points);
}

TEST(Sweep, SlowdownsMatchScalarPath)
{
    setLogQuiet(true);
    auto specs = mixedSpecs();

    // The scalar path reads the sweep's own memo, so every run below is
    // a hit; cross-runner determinism is ParallelMatchesSerialBitForBit's.
    harness::Runner runner;
    harness::SweepExecutor exec(3);
    auto slow = exec.slowdowns(runner, specs);

    ASSERT_EQ(slow.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_DOUBLE_EQ(slow[i], runner.slowdownVsBaseline(specs[i]))
            << harness::specKey(specs[i]);
    }
}

TEST(Sweep, MemoReturnsIdenticalOutcome)
{
    setLogQuiet(true);
    harness::RunSpec spec;
    spec.workload = "is";
    spec.scheme = core::Scheme::LightWsp;

    harness::Runner runner;
    auto first = runner.run(spec);

    // Spelling out any field's default (Table I, or the value an unset
    // optional derives to) keeps the key, so the memo hands back the
    // same outcome.
    using Edit = std::pair<const char *, void (*)(harness::RunSpec &)>;
    const Edit defaults[] = {
        {"wpqEntries", [](harness::RunSpec &s) { s.wpqEntries = 64; }},
        {"storeThreshold",
         [](harness::RunSpec &s) { s.storeThreshold = 32; }},
        {"persistPathGBps",
         [](harness::RunSpec &s) { s.persistPathGBps = 4.0; }},
        {"threads",
         [](harness::RunSpec &s) {
             s.threads = workloads::profileByName("is").threads;
         }},
        {"pmReadCycles", [](harness::RunSpec &s) { s.pmReadCycles = 350; }},
        {"pmWriteCycles",
         [](harness::RunSpec &s) { s.pmWriteCycles = 180; }},
        {"extraPathLatency",
         [](harness::RunSpec &s) { s.extraPathLatency = 0; }},
        {"drainInterval", [](harness::RunSpec &s) { s.drainInterval = 1; }},
        {"strictFlushAcks",
         [](harness::RunSpec &s) { s.strictFlushAcks = false; }},
        {"numMcs", [](harness::RunSpec &s) { s.numMcs = 2; }},
        {"topology", [](harness::RunSpec &s) { s.topology = {}; }},
    };
    harness::RunSpec explicit_spec = spec;
    for (const auto &[field, edit] : defaults) {
        harness::RunSpec one = spec;
        edit(one);
        EXPECT_EQ(harness::specKey(one), harness::specKey(spec)) << field;
        edit(explicit_spec);
    }
    EXPECT_EQ(harness::specKey(explicit_spec), harness::specKey(spec));
    auto again = runner.run(explicit_spec);
    expectOutcomeEq(first, again, "memoized rerun");

    // Any other value gives a key of its own, so the memo never returns
    // one point's outcome for another.
    const Edit changes[] = {
        {"workload", [](harness::RunSpec &s) { s.workload = "xz"; }},
        {"scheme",
         [](harness::RunSpec &s) { s.scheme = core::Scheme::Capri; }},
        {"wpqEntries", [](harness::RunSpec &s) { s.wpqEntries = 16; }},
        {"storeThreshold",
         [](harness::RunSpec &s) { s.storeThreshold = 8; }},
        {"victimPolicy",
         [](harness::RunSpec &s) {
             s.victimPolicy = mem::VictimPolicy::Half;
         }},
        {"persistPathGBps",
         [](harness::RunSpec &s) { s.persistPathGBps = 2.0; }},
        {"threads", [](harness::RunSpec &s) { s.threads = 3; }},
        {"pmReadCycles", [](harness::RunSpec &s) { s.pmReadCycles = 400; }},
        {"pmWriteCycles",
         [](harness::RunSpec &s) { s.pmWriteCycles = 200; }},
        {"extraPathLatency",
         [](harness::RunSpec &s) { s.extraPathLatency = 10; }},
        {"drainInterval", [](harness::RunSpec &s) { s.drainInterval = 2; }},
        {"strictFlushAcks",
         [](harness::RunSpec &s) { s.strictFlushAcks = true; }},
        {"numMcs", [](harness::RunSpec &s) { s.numMcs = 4; }},
        {"topology",
         [](harness::RunSpec &s) {
             s.topology.kind = noc::TopologyConfig::Kind::Tree;
         }},
    };
    std::set<std::string> keys{harness::specKey(spec)};
    for (const auto &[field, edit] : changes) {
        harness::RunSpec one = spec;
        edit(one);
        EXPECT_TRUE(keys.insert(harness::specKey(one)).second) << field;
    }
}

TEST(Sweep, EngineJumpsAreInvisibleAcrossSchemes)
{
    setLogQuiet(true);
    auto profile = scratchProfile(1);
    for (core::Scheme s :
         {core::Scheme::Baseline, core::Scheme::Capri,
          core::Scheme::LightWsp}) {
        auto cycle = runDirect(profile, s, 1, 1, SimEngine::Cycle, 0);
        auto event = runDirect(profile, s, 1, 1, SimEngine::Event, 0);
        ASSERT_TRUE(cycle.completed);
        expectResultEq(cycle, event,
                       std::string("scheme ") + core::schemeName(s));
    }
}

TEST(Sweep, EngineJumpsAreInvisibleWithWarmup)
{
    setLogQuiet(true);
    auto profile = scratchProfile(4);
    auto cycle = runDirect(profile, core::Scheme::LightWsp, 4, 4,
                           SimEngine::Cycle, /*warmup_insts=*/2000);
    auto event = runDirect(profile, core::Scheme::LightWsp, 4, 4,
                           SimEngine::Event, /*warmup_insts=*/2000);
    ASSERT_TRUE(cycle.completed);
    expectResultEq(cycle, event, "4t with warmup");
}

TEST(Sweep, EngineJumpsAreInvisibleWhenOversubscribed)
{
    setLogQuiet(true);
    // 6 threads on 2 cores: the scheduler's quantum decides when each
    // core switches threads, so the event engine's jump must stop at
    // every schedule check to keep context switches on identical cycles.
    auto profile = scratchProfile(6);
    auto cycle = runDirect(profile, core::Scheme::LightWsp, 6, 2,
                           SimEngine::Cycle, 0);
    auto event = runDirect(profile, core::Scheme::LightWsp, 6, 2,
                           SimEngine::Event, 0);
    ASSERT_TRUE(cycle.completed);
    expectResultEq(cycle, event, "6 threads on 2 cores");
}

TEST(Sweep, ParallelForCoversAllIndicesAndRethrows)
{
    std::vector<int> hits(64, 0);
    harness::parallelFor(4, hits.size(),
                         [&](std::size_t i) { hits[i] = 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << i;

    EXPECT_THROW(
        harness::parallelFor(3, 8,
                             [&](std::size_t i) {
                                 if (i == 5)
                                     throw std::runtime_error("boom");
                             }),
        std::runtime_error);
}

TEST(Sweep, RunPointsKeepsInputOrderAndDedupsByKey)
{
    setLogQuiet(true);
    PointSweep sw = sweepPoints(4);
    ASSERT_EQ(sw.records.size(), 6u);
    for (std::size_t i = 0; i < sw.records.size(); ++i) {
        EXPECT_EQ(sw.records[i].scheme,
                  core::schemeName(kPointSchemes[i % 3]))
            << i;
        expectResultEq(sw.records[i].outcome.result,
                       sw.records[i % 3].outcome.result,
                       "repeat of point " + std::to_string(i % 3));
    }
    ASSERT_EQ(sw.retained.size(), 3u);
    for (std::size_t i = 0; i < sw.retained.size(); ++i)
        EXPECT_EQ(sw.retained[i].key, sw.records[i].key) << i;

    EXPECT_EQ(sw.stats.points, 6u);
    EXPECT_EQ(sw.stats.jobs, 4u);
    EXPECT_EQ(sw.stats.simulatedCycles, sw.reportedCycles);
}

TEST(Sweep, RunPointsParallelMatchesSerial)
{
    setLogQuiet(true);
    PointSweep serial = sweepPoints(1);
    PointSweep parallel = sweepPoints(4);
    ASSERT_EQ(serial.records.size(), parallel.records.size());
    for (std::size_t i = 0; i < serial.records.size(); ++i) {
        EXPECT_EQ(serial.records[i].key, parallel.records[i].key);
        expectOutcomeEq(serial.records[i].outcome,
                        parallel.records[i].outcome,
                        "point " + std::to_string(i));
    }
    EXPECT_EQ(serial.stats.simulatedCycles,
              parallel.stats.simulatedCycles);

    // The reports differ only in the header's jobs and wall_seconds.
    std::regex header("\"jobs\":[0-9]+,\"wall_seconds\":[-+.0-9e]+");
    ASSERT_TRUE(std::regex_search(serial.report, header));
    EXPECT_EQ(std::regex_replace(serial.report, header, ""),
              std::regex_replace(parallel.report, header, ""));
}
