/**
 * @file
 * System-level invariants: address interleaving, scheme configuration,
 * persist-order monotonicity across MCs (WPQ-trace verified), stale
 * loads, warmup resets, every component's counter table, context
 * switching with more threads than cores, and cross-scheme sanity
 * orderings.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <type_traits>

#include "common/stats.hh"
#include "compiler/compiler.hh"
#include "core/system.hh"
#include "harness/runner.hh"
#include "trace/sink.hh"
#include "workloads/generator.hh"

using namespace lwsp;
using namespace lwsp::core;

namespace {

workloads::WorkloadProfile
tiny(unsigned threads = 1, bool locked = false)
{
    workloads::WorkloadProfile p;
    p.name = "tiny";
    p.suite = "TEST";
    p.threads = threads;
    p.footprintBytes = 64 * 1024;
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
    ph.lockedRmw = locked;
    p.phases.push_back(ph);
    return p;
}

/** Does every row of @p c read zero (a distribution: no samples)? */
template <typename C>
bool
countersZero(const C &c)
{
    for (const stats::Counter<C> &row : C::fields()) {
        bool zero = std::visit(
            [&c](auto m) {
                if constexpr (std::is_same_v<decltype(m),
                                             std::uint64_t C::*>)
                    return c.*m == 0;
                else
                    return (c.*m).summary().count() == 0;
            },
            row.member);
        if (!zero)
            return false;
    }
    return true;
}

/**
 * A finished 4-core LightWSP run without buffer snooping, and with tiny
 * caches, so that stale loads occur; plus its stat registry.
 */
struct CounterRig
{
    compiler::CompiledProgram prog;
    System sys;
    stats::Registry reg;

    static compiler::CompiledProgram
    compile()
    {
        setLogQuiet(true);
        compiler::LightWspCompiler comp;
        return comp.compile(std::move(workloads::generate(tiny(4)).module));
    }

    static SystemConfig
    config()
    {
        SystemConfig cfg;
        cfg.scheme = Scheme::LightWsp;
        cfg.numCores = 4;
        cfg.applySchemeDefaults();
        cfg.victimPolicy = mem::VictimPolicy::None;
        // Caches small enough that a stored line is soon refetched
        // from its MC while still on the persist path.
        cfg.l1d = {1024, 2, 4};
        cfg.l2 = {4096, 4, 12};
        return cfg;
    }

    CounterRig() : prog(compile()), sys(config(), prog, 4)
    {
        EXPECT_TRUE(sys.run().completed);
        sys.registerStats(reg);
    }

    /**
     * @p component's counter table against its registry group @p group:
     * row names are unique and registered, the run left some counter
     * non-default, and resetStats() zeroes every row, as the registry
     * then reads too.
     */
    template <typename X>
    void
    expectTable(X &component, const std::string &group)
    {
        using C = std::remove_cvref_t<decltype(component.counters())>;
        const stats::StatGroup &g = reg.group(group);
        std::vector<std::string> keys;
        std::set<std::string> names;
        for (const stats::Counter<C> &row : C::fields()) {
            EXPECT_TRUE(names.insert(row.name).second) << row.name;
            keys.push_back(std::string(row.name) +
                           (row.member.index() == 1 ? ".count" : ""));
            EXPECT_NO_THROW(g.value(keys.back())) << group;
        }
        EXPECT_FALSE(countersZero(component.counters()))
            << group << ": the run left every counter at zero";
        component.resetStats();
        EXPECT_TRUE(countersZero(component.counters())) << group;
        for (const std::string &key : keys)
            EXPECT_EQ(g.value(key), 0.0) << group << "." << key;
    }
};

} // namespace

TEST(CounterTables, Core)
{
    CounterRig rig;
    rig.expectTable(rig.sys.coreAt(0), "core0");
}

TEST(CounterTables, Cache)
{
    CounterRig rig;
    rig.expectTable(rig.sys.mcAt(1).dramCache(), "mc1.dramcache");
}

TEST(CounterTables, Wpq)
{
    CounterRig rig;
    rig.expectTable(rig.sys.mcAt(0).wpqMutable(), "mc0.wpq");
}

TEST(CounterTables, MemController)
{
    CounterRig rig;
    rig.expectTable(rig.sys.mcAt(1), "mc1");
}

TEST(CounterTables, Noc)
{
    CounterRig rig;
    rig.expectTable(rig.sys.nocNet(), "noc");
}

TEST(CounterTables, System)
{
    CounterRig rig;
    // The warmup reset spares the NoC and nothing else.
    std::uint64_t msgs = rig.sys.nocNet().counters().messagesSent;
    rig.expectTable(rig.sys, "system");
    EXPECT_TRUE(countersZero(rig.sys.coreAt(3).counters()));
    EXPECT_TRUE(countersZero(rig.sys.mcAt(0).counters()));
    EXPECT_TRUE(countersZero(rig.sys.mcAt(0).wpq().counters()));
    EXPECT_TRUE(countersZero(rig.sys.mcAt(0).dramCache().counters()));
    EXPECT_EQ(rig.sys.nocNet().counters().messagesSent, msgs);
    EXPECT_GT(msgs, 0u);
}

TEST(System, McInterleavingByCacheline)
{
    setLogQuiet(true);
    auto w = workloads::generate(tiny());
    auto prog = compiler::makeUncompiled(std::move(w.module));
    SystemConfig cfg;
    cfg.scheme = Scheme::Baseline;
    cfg.applySchemeDefaults();
    System sys(cfg, prog, 1);
    EXPECT_EQ(sys.mcForAddr(0x0000), 0u);
    EXPECT_EQ(sys.mcForAddr(0x0040), 1u);
    EXPECT_EQ(sys.mcForAddr(0x0080), 0u);
    EXPECT_EQ(sys.mcForAddr(0x0038), 0u);  // same line as 0x0000
}

TEST(System, SchemeDefaultsAreConsistent)
{
    for (Scheme s : {Scheme::Baseline, Scheme::PspIdeal, Scheme::LightWsp,
                     Scheme::NaiveSfence, Scheme::Ppa, Scheme::Capri,
                     Scheme::Cwsp}) {
        SystemConfig cfg;
        cfg.scheme = s;
        cfg.applySchemeDefaults();
        EXPECT_EQ(cfg.core.persistPathEnabled, schemeHasPersistPath(s));
        if (s == Scheme::LightWsp || s == Scheme::NaiveSfence) {
            EXPECT_EQ(cfg.mc.gatingEnabled, s == Scheme::LightWsp);
        }
        if (s == Scheme::PspIdeal) {
            EXPECT_FALSE(cfg.mc.dramCacheEnabled);
        }
        if (s == Scheme::Capri) {
            EXPECT_DOUBLE_EQ(cfg.core.trafficAmplification, 8.0);
        }
    }

    // makeConfig derives each scheme exactly once: Capri's drain
    // interval is 4x Table I's, cWSP's interval 3x and burst 2x.
    const mem::McConfig table1;
    const auto &profile = workloads::profileByName("is");
    auto mc = [&](Scheme s) {
        return harness::makeConfig(profile, {.scheme = s}).mc;
    };
    EXPECT_EQ(mc(Scheme::LightWsp).drainInterval, table1.drainInterval);
    EXPECT_EQ(mc(Scheme::Capri).drainInterval, 4 * table1.drainInterval);
    EXPECT_EQ(mc(Scheme::Capri).drainBurst, table1.drainBurst);
    EXPECT_EQ(mc(Scheme::Cwsp).drainInterval, 3 * table1.drainInterval);
    EXPECT_EQ(mc(Scheme::Cwsp).drainBurst, 2 * table1.drainBurst);
}

TEST(System, FlushOrderMonotoneInRegionIdPerMc)
{
    setLogQuiet(true);
    auto w = workloads::generate(tiny(4));
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));
    SystemConfig cfg;
    cfg.scheme = Scheme::LightWsp;
    cfg.numCores = 4;
    cfg.applySchemeDefaults();
    cfg.traceEnabled = true;
    cfg.traceMask = trace::categoryBit(trace::Category::Wpq);
    System sys(cfg, prog, 4);
    auto r = sys.run();
    ASSERT_TRUE(r.completed);

    // Normal (non-fallback) flushes must never go backwards in region id
    // on any single MC — the WAW-ordering invariant of §IV-B.
    const trace::TraceSink &sink = *sys.traceSink();
    ASSERT_FALSE(sink.wrapped());
    std::vector<RegionId> last(2, 0);
    bool violated = false;
    for (const trace::Event &e : sink.snapshot()) {
        if (e.type != trace::EventType::WpqRelease ||
            trace::releaseKind(e.aux) != 0)
            continue;  // normal flushes only
        RegionId &prev = last.at(static_cast<std::size_t>(e.unit));
        if (e.region < prev)
            violated = true;
        prev = std::max(prev, e.region);
    }
    EXPECT_FALSE(violated);
    EXPECT_GT(r.wpqFlushedEntries, 0u);
}

TEST(System, StaleLoadsOnlyWithoutSnooping)
{
    setLogQuiet(true);
    auto run_policy = [&](mem::VictimPolicy v) {
        auto w = workloads::generate(tiny(4));
        compiler::LightWspCompiler comp;
        auto prog = comp.compile(std::move(w.module));
        SystemConfig cfg;
        cfg.scheme = Scheme::LightWsp;
        cfg.numCores = 4;
        cfg.applySchemeDefaults();
        cfg.victimPolicy = v;
        System sys(cfg, prog, 4);
        auto r = sys.run();
        EXPECT_TRUE(r.completed);
        return r;
    };
    auto with_snoop = run_policy(mem::VictimPolicy::Full);
    EXPECT_EQ(with_snoop.staleLoads, 0u);
    auto without = run_policy(mem::VictimPolicy::None);
    // Stale loads may or may not occur on this small run, but the
    // snooping configuration must never report any.
    (void)without;
}

TEST(System, WarmupResetsStatistics)
{
    setLogQuiet(true);
    auto mk = [] {
        auto w = workloads::generate(tiny());
        compiler::LightWspCompiler comp;
        return comp.compile(std::move(w.module));
    };
    auto prog_cold = mk();
    SystemConfig cold;
    cold.scheme = Scheme::LightWsp;
    cold.applySchemeDefaults();
    System sys_cold(cold, prog_cold, 1);
    auto r_cold = sys_cold.run();

    auto prog_warm = mk();
    SystemConfig warm = cold;
    warm.warmupInsts = r_cold.instsRetired / 2;
    System sys_warm(warm, prog_warm, 1);
    auto r_warm = sys_warm.run();

    EXPECT_LT(r_warm.instsRetired, r_cold.instsRetired);
    EXPECT_LT(r_warm.cycles, r_cold.cycles);
    EXPECT_TRUE(r_warm.completed);
}

TEST(System, MoreThreadsThanCoresContextSwitch)
{
    setLogQuiet(true);
    auto w = workloads::generate(tiny(8, true));
    auto lock_addrs = w.lockAddrs;
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));
    SystemConfig cfg;
    cfg.scheme = Scheme::LightWsp;
    cfg.numCores = 2;  // 8 threads on 2 cores
    cfg.ctxQuantum = 2000;
    cfg.applySchemeDefaults();
    System sys(cfg, prog, 8);
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    // All threads finished and every store persisted.
    auto diffs = sys.pmImage().diff(sys.execImage());
    EXPECT_TRUE(diffs.empty());
}

TEST(System, PmNeverAheadOfExecDuringRun)
{
    // Sample mid-run: any value in PM must be one the execution image
    // has already produced for that address (redo semantics: PM holds a
    // prefix, never speculation beyond execution). We check the final
    // states of a staged run instead of every cycle for speed.
    setLogQuiet(true);
    auto w = workloads::generate(tiny());
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));
    SystemConfig cfg;
    cfg.scheme = Scheme::LightWsp;
    cfg.applySchemeDefaults();
    System sys(cfg, prog, 1);
    auto r = sys.run();
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(sys.pmImage().diff(sys.execImage()).empty());
}

TEST(System, SlowdownOrderingAcrossSchemes)
{
    setLogQuiet(true);
    harness::Runner runner;
    harness::RunSpec spec;
    spec.workload = "lbm";

    spec.scheme = Scheme::LightWsp;
    double lwsp = runner.slowdownVsBaseline(spec);
    spec.scheme = Scheme::Capri;
    double capri = runner.slowdownVsBaseline(spec);
    spec.scheme = Scheme::NaiveSfence;
    double sfence = runner.slowdownVsBaseline(spec);
    spec.scheme = Scheme::PspIdeal;
    double psp = runner.slowdownVsBaseline(spec);

    // The paper's qualitative ordering for a memory-intensive app.
    EXPECT_GT(lwsp, 1.0);
    EXPECT_LT(lwsp, 1.5);
    EXPECT_GT(capri, lwsp);
    EXPECT_GT(sfence, lwsp);
    EXPECT_GT(psp, 1.5);  // no DRAM cache hurts badly here
}

TEST(System, StatRegistryCoversEveryComponent)
{
    setLogQuiet(true);
    auto w = workloads::generate(tiny());
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));
    SystemConfig cfg;
    cfg.scheme = Scheme::LightWsp;
    cfg.applySchemeDefaults();
    System sys(cfg, prog, 1);
    sys.run();
    stats::Registry reg;
    sys.registerStats(reg);
    std::ostringstream os;
    reg.dumpJson(os);
    std::string s = os.str();
    // {"group":{...,"stat":v,...},...}: the stat must sit inside its
    // group's object.
    auto has = [&s](const std::string &group, const std::string &stat) {
        std::size_t at = s.find('"' + group + "\":{");
        if (at == std::string::npos)
            return false;
        int depth = 0;
        for (std::size_t i = s.find('{', at); i < s.size(); ++i) {
            if (s[i] == '{')
                ++depth;
            else if (s[i] == '}' && --depth == 0)
                return s.substr(at, i - at).find('"' + stat + "\":") !=
                       std::string::npos;
        }
        return false;
    };
    EXPECT_TRUE(has("core0", "instsRetired"));
    EXPECT_TRUE(has("core0.l1d", "hits"));
    EXPECT_TRUE(has("l2", "misses"));
    EXPECT_TRUE(has("mc0", "flushedEntries"));
    EXPECT_TRUE(has("mc1", "flushId"));
    EXPECT_TRUE(has("noc", "boundariesBroadcast"));
    // RunResult reads these two; the registry once lacked them.
    EXPECT_TRUE(has("noc", "bcastRetries"));
    EXPECT_TRUE(has("system", "staleExtraMisses"));
}

TEST(System, WpqSizeSensitivityDirection)
{
    setLogQuiet(true);
    harness::Runner runner;
    harness::RunSpec big;
    big.workload = "rb";
    big.scheme = Scheme::LightWsp;
    big.wpqEntries = 256;
    harness::RunSpec small = big;
    small.wpqEntries = 64;
    // Larger WPQ never hurts (paper Fig. 11).
    EXPECT_LE(runner.slowdownVsBaseline(big),
              runner.slowdownVsBaseline(small) * 1.05);
}
