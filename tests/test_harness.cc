/**
 * @file
 * Harness tests: result tables (geomeans, suite grouping, CSV), run-spec
 * configuration plumbing, baseline caching, the cycle-cap error, the
 * persistence-efficiency formula, and the baselines' analytic models.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "baselines/baselines.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "noc/noc.hh"

using namespace lwsp;
using namespace lwsp::harness;

TEST(ResultTable, GeomeansPerSuiteAndOverall)
{
    ResultTable t("test");
    t.addColumn("a");
    t.addRow("w1", "S1", {2.0});
    t.addRow("w2", "S1", {8.0});
    t.addRow("w3", "S2", {1.0});
    EXPECT_NEAR(t.suiteGeomean("S1", 0), 4.0, 1e-12);
    EXPECT_NEAR(t.overallGeomean(0), std::cbrt(16.0), 1e-12);
    auto suites = t.suites();
    ASSERT_EQ(suites.size(), 2u);
    EXPECT_EQ(suites[0], "S1");
}

TEST(ResultTable, PrintContainsGeomeanRows)
{
    ResultTable t("My Table");
    t.addColumn("x");
    t.addRow("w1", "S1", {1.5});
    t.addRow("w2", "S2", {2.5});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("My Table"), std::string::npos);
    EXPECT_NE(s.find("geomean"), std::string::npos);
    EXPECT_NE(s.find("geomean(all)"), std::string::npos);
    EXPECT_NE(s.find("w1"), std::string::npos);
}

TEST(ResultTable, CsvFormat)
{
    ResultTable t("t");
    t.addColumn("col1");
    t.addColumn("col2");
    t.addRow("app", "SUITE", {1.25, 2.5});
    std::ostringstream os;
    t.writeCsv(os);
    EXPECT_EQ(os.str(),
              "workload,suite,col1,col2\napp,SUITE,1.25,2.5\n");

    // Named key headers, a text column, and columns shown in one view
    // only. The zero in `retries` would panic a geomean, so print()
    // finishing proves CSV-only columns stay out of them.
    ResultTable m("m");
    m.nameKeyColumns("name", "topology");
    m.addColumn("fault", Shown::CsvOnly);
    m.addColumn("cycles");
    m.addColumn("retries", Shown::CsvOnly);
    m.addColumn("pct", Shown::ConsoleOnly);
    m.addRow("a", "flat", {"loss100", 4.0, 0, 50.0});
    m.addRow("b", "flat", {"none", 16.0, std::uint64_t{3}, 12.5});
    std::ostringstream csv;
    m.writeCsv(csv);
    EXPECT_EQ(csv.str(), "name,topology,fault,cycles,retries\n"
                         "a,flat,loss100,4,0\n"
                         "b,flat,none,16,3\n");

    std::ostringstream console;
    m.print(console);
    const std::string s = console.str();
    EXPECT_NE(s.find("workload      suite"), std::string::npos);
    EXPECT_NE(s.find("pct"), std::string::npos);
    for (const char *hidden : {"retries", "fault", "loss100", "name"})
        EXPECT_EQ(s.find(hidden), std::string::npos) << hidden;
    EXPECT_NE(s.find("geomean(all)  -                  8.000        25.000"),
              std::string::npos)
        << s;
    EXPECT_THROW(m.addRow("c", "flat", {1.0, "text", 1.0, 1.0}),
                 PanicError);
}

TEST(ResultTable, RowWidthMismatchPanics)
{
    ResultTable t("t");
    t.addColumn("only");
    EXPECT_THROW(t.addRow("w", "s", {1.0, 2.0}), PanicError);
}

TEST(RunSpecConfig, OverridesPropagate)
{
    const auto &p = workloads::profileByName("xz");
    RunSpec spec;
    spec.workload = "xz";
    spec.scheme = core::Scheme::LightWsp;
    spec.wpqEntries = 128;
    spec.persistPathGBps = 2.0;
    spec.victimPolicy = mem::VictimPolicy::Half;
    spec.pmReadCycles = 500;
    auto cfg = makeConfig(p, spec);
    EXPECT_EQ(cfg.mc.wpqEntries, 128u);
    EXPECT_EQ(cfg.core.febEntries, 128u);  // FEB tracks WPQ (§IV-E)
    EXPECT_EQ(cfg.core.pathCyclesPerEntry, 8u);  // 2 GB/s
    EXPECT_EQ(cfg.victimPolicy, mem::VictimPolicy::Half);
    EXPECT_EQ(cfg.mc.pmReadCycles, 500u);
    EXPECT_EQ(cfg.core.branchMissRate, p.branchMissRate);
}

TEST(RunSpecConfig, ThresholdDefaultsToHalfWpq)
{
    auto w = workloads::generate(workloads::profileByName("hmmer"));
    RunSpec spec;
    spec.workload = "hmmer";
    spec.scheme = core::Scheme::LightWsp;
    spec.wpqEntries = 128;
    auto prog = prepareProgram(std::move(w), spec);
    // Threshold 64: no region may exceed 63 persist entries.
    EXPECT_GT(prog.stats.boundaries, 0u);
}

TEST(Runner, BaselineIsCachedAcrossCalls)
{
    setLogQuiet(true);
    Runner runner;
    RunSpec spec;
    spec.workload = "ep";
    spec.scheme = core::Scheme::LightWsp;
    double a = runner.slowdownVsBaseline(spec);
    double b = runner.slowdownVsBaseline(spec);
    EXPECT_DOUBLE_EQ(a, b);  // deterministic + cached baseline
}

TEST(Runner, CycleCapIsAnErrorNamingTheSpec)
{
    setLogQuiet(true);
    const RunSpec spec{.workload = "is"};
    PreparedPoint pt = preparePoint(spec);
    pt.cfg.maxCycles = 4000;
    core::System sys(pt.cfg, pt.prog, pt.threads);
    try {
        runToCompletion(sys, spec);
        FAIL() << "a run stopped by the cycle cap returned a result";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find(specKey(spec)),
                  std::string::npos)
            << e.what();
    }

    // The same point under its own cap completes and returns normally.
    PreparedPoint full = preparePoint(spec);
    core::System ok(full.cfg, full.prog, full.threads);
    EXPECT_TRUE(runToCompletion(ok, spec).completed);
}

TEST(Efficiency, BoundsAndDirection)
{
    core::SystemConfig cfg;
    cfg.applySchemeDefaults();

    core::RunResult no_waits;
    no_waits.boundaries = 100;
    no_waits.storesRetired = 1000;
    no_waits.wpqFlushedEntries = 1200;
    EXPECT_NEAR(persistenceEfficiency(no_waits, cfg), 100.0, 1e-9);

    core::RunResult waits = no_waits;
    waits.boundaryWaitCycles = 5000;
    double e = persistenceEfficiency(waits, cfg);
    EXPECT_LT(e, 100.0);
    EXPECT_GE(e, 0.0);

    core::RunResult drowned = no_waits;
    drowned.boundaryWaitCycles = 1u << 30;
    EXPECT_DOUBLE_EQ(persistenceEfficiency(drowned, cfg), 0.0);

    core::RunResult no_regions;
    EXPECT_DOUBLE_EQ(persistenceEfficiency(no_regions, cfg), 100.0);
}

TEST(Baselines, HardwareCostMatchesPaper)
{
    core::SystemConfig cfg;
    cfg.applySchemeDefaults();
    EXPECT_DOUBLE_EQ(
        baselines::hardwareCost(core::Scheme::LightWsp, cfg).bytesPerCore,
        0.5);
    EXPECT_DOUBLE_EQ(
        baselines::hardwareCost(core::Scheme::Ppa, cfg).bytesPerCore,
        337.0);
    EXPECT_DOUBLE_EQ(
        baselines::hardwareCost(core::Scheme::Capri, cfg).bytesPerCore,
        54.0 * 1024);
    EXPECT_EQ(
        baselines::hardwareCost(core::Scheme::Baseline, cfg).bytesPerCore,
        0.0);
}

TEST(Baselines, CamLatencyCalibration)
{
    // Paper §V-G2: 64 entries x 8B => 0.99 ns = 2 cycles at 2 GHz.
    EXPECT_NEAR(baselines::camSearchLatencyNs(64, 8), 0.99, 1e-9);
    EXPECT_EQ(baselines::camSearchLatencyCycles(64, 8), 2u);
    // Monotone in entry count.
    EXPECT_LT(baselines::camSearchLatencyNs(32, 8),
              baselines::camSearchLatencyNs(128, 8));
}

TEST(Noc, HopLatencyAndDelivery)
{
    using namespace lwsp::mem;
    struct Sink : McEndpoint
    {
        std::vector<std::pair<Tick, McMsg>> got;
        Tick *now;
        void
        receive(const McMsg &m, Tick t) override
        {
            got.emplace_back(t, m);
            (void)now;
        }
    };
    noc::Noc net(2, 7);
    Sink s0, s1;
    net.attach({&s0, &s1});

    McMsg msg;
    msg.type = McMsg::Type::BdryAck;
    msg.region = 3;
    msg.from = 0;
    net.ackRound(0, msg, 10);  // MC 0's only peer is MC 1
    for (Tick t = 10; t < 30; ++t)
        net.tick(t);
    ASSERT_EQ(s1.got.size(), 1u);
    EXPECT_GE(s1.got[0].first, 17u);  // 10 + hop 7
    EXPECT_EQ(s1.got[0].second.region, 3u);

    net.broadcastBoundary(9, 40);
    net.deliverAllNow(41);  // battery-backed crash delivery
    ASSERT_EQ(s0.got.size(), 1u);
    EXPECT_EQ(s0.got[0].second.type, McMsg::Type::BdryArrival);
    EXPECT_EQ(net.counters().boundariesBroadcast, 1u);
    EXPECT_GE(net.counters().messagesSent, 3u);
}
