/**
 * @file
 * Timing-core tests against a scripted MemPort: dependence-tracked
 * completion, store-buffer and FEB back-pressure, boundary stall
 * policies and the persist-path launch/egress pipeline.
 */

#include <gtest/gtest.h>

#include "compiler/compiler.hh"
#include "cpu/core.hh"
#include "sim/simulator.hh"

using namespace lwsp;
using namespace lwsp::ir;
using namespace lwsp::cpu;

namespace {

/** Scriptable memory port. */
class TestPort : public MemPort
{
  public:
    Tick loadLat = 4;
    bool acceptPersists = true;
    bool durable = true;
    std::vector<mem::PersistEntry> accepted;
    std::vector<RegionId> broadcasts;

    Tick
    loadLatency(CoreId, Addr, Tick) override
    {
        return loadLat;
    }
    bool storeAccess(CoreId, Addr, Tick) override { return true; }
    bool
    tryPersistAccept(const mem::PersistEntry &e, Tick) override
    {
        if (!acceptPersists)
            return false;
        accepted.push_back(e);
        return true;
    }
    void
    broadcastBoundary(RegionId r, Tick) override
    {
        broadcasts.push_back(r);
    }
    bool regionDurable(CoreId, RegionId) override { return durable; }
    bool persistsDrained(CoreId) override { return durable; }
};

struct Rig
{
    compiler::CompiledProgram prog;
    mem::MemImage mem;
    LockTable locks;
    RegionAllocator alloc;
    TestPort port;
    CoreConfig cfg;
    std::unique_ptr<ThreadContext> tc;
    std::unique_ptr<Core> core;
    Tick now = 0;

    explicit Rig(std::unique_ptr<Module> m, CoreConfig c = {})
        : prog(compiler::makeUncompiled(std::move(m))), cfg(c)
    {
        cfg.branchMissRate = 0.0;
        core = std::make_unique<Core>(0, cfg, port);
        tc = std::make_unique<ThreadContext>(prog, 0, mem, locks, alloc);
        tc->reset(0);
        core->setThread(tc.get());
    }

    /** Tick until the thread halts and the core drains (bounded). */
    Tick
    runToDrain(Tick limit = 100000)
    {
        while ((!tc->halted() || !core->drained()) && now < limit)
            core->tick(now++);
        EXPECT_TRUE(tc->halted());
        EXPECT_TRUE(core->drained());
        return now;
    }
};

std::unique_ptr<Module>
storesModule(unsigned n)
{
    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    BasicBlock &b = f.addBlock();
    b.append(Instruction::movi(1, 0x4000));
    for (unsigned i = 0; i < n; ++i)
        b.append(
            Instruction::store(1, static_cast<std::int64_t>(i) * 8, 1));
    b.append(Instruction::simple(Opcode::Halt));
    return m;
}

} // namespace

TEST(CoreTiming, ExecutesAndDrains)
{
    Rig rig(storesModule(10));
    rig.runToDrain();
    // movi + 10 st + halt; halt's PC store counts as a store.
    EXPECT_EQ(rig.core->counters().instsRetired, 12u);
    EXPECT_EQ(rig.core->counters().storesRetired, 11u);
    // Every persist-path entry was delivered.
    EXPECT_EQ(rig.port.accepted.size(), 11u);
    // Halt's implicit boundary broadcast the final region.
    EXPECT_EQ(rig.port.broadcasts.size(), 1u);
}

TEST(CoreTiming, PersistPathDisabledSendsNothing)
{
    CoreConfig cfg;
    cfg.persistPathEnabled = false;
    Rig rig(storesModule(5), cfg);
    rig.runToDrain();
    EXPECT_TRUE(rig.port.accepted.empty());
}

TEST(CoreTiming, PathBandwidthPacesLaunches)
{
    CoreConfig slow;
    slow.pathCyclesPerEntry = 16;
    CoreConfig fast;
    fast.pathCyclesPerEntry = 1;

    Rig a(storesModule(32), slow);
    Tick t_slow = a.runToDrain();
    Rig b(storesModule(32), fast);
    Tick t_fast = b.runToDrain();
    EXPECT_GT(t_slow, t_fast + 32 * 10);
}

TEST(CoreTiming, BlockedWpqBacksUpToRetirement)
{
    CoreConfig cfg;
    cfg.febEntries = 4;
    cfg.sbEntries = 4;
    Rig rig(storesModule(30), cfg);
    rig.port.acceptPersists = false;
    for (Tick t = 0; t < 2000; ++t)
        rig.core->tick(rig.now++);
    // Everything is wedged behind the refusing WPQ.
    EXPECT_GT(rig.core->counters().pathBlockedCycles, 0u);
    EXPECT_GT(rig.core->counters().febFullCycles, 0u);
    EXPECT_GT(rig.core->counters().sbFullCycles, 0u);
    EXPECT_FALSE(rig.core->drained());
    // Un-wedge and finish.
    rig.port.acceptPersists = true;
    rig.runToDrain();
}

TEST(CoreTiming, FebCamSeesInFlightLines)
{
    CoreConfig cfg;
    Rig rig(storesModule(8), cfg);
    rig.port.acceptPersists = false;
    for (Tick t = 0; t < 200; ++t)
        rig.core->tick(rig.now++);
    EXPECT_TRUE(rig.core->febContainsLine(0x4000));
    EXPECT_FALSE(rig.core->febContainsLine(0x8000));
    EXPECT_NE(rig.core->febMinRegion(), invalidRegion);
    rig.port.acceptPersists = true;
    rig.runToDrain();
    EXPECT_FALSE(rig.core->febContainsLine(0x4000));
}

TEST(CoreTiming, LoadLatencyGatesDependents)
{
    auto mk = [] {
        auto m = std::make_unique<Module>();
        Function &f = m->addFunction("main");
        BasicBlock &b = f.addBlock();
        b.append(Instruction::movi(1, 0x4000));
        // A chain of 16 dependent loads.
        for (int i = 0; i < 16; ++i) {
            b.append(Instruction::load(2, 1, 0));
            b.append(Instruction::alu(Opcode::Add, 1, 1, 2));
        }
        b.append(Instruction::simple(Opcode::Halt));
        return m;
    };
    CoreConfig cfg;
    Rig fast(mk(), cfg);
    fast.port.loadLat = 4;
    Tick t_fast = fast.runToDrain();

    Rig slow(mk(), cfg);
    slow.port.loadLat = 200;
    Tick t_slow = slow.runToDrain();
    EXPECT_GT(t_slow, t_fast + 16 * 150);
}

TEST(CoreTiming, StallUntilDurableWaitsAtBoundaries)
{
    // Compile so real Boundary instructions exist.
    auto m = storesModule(12);
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(m));

    mem::MemImage memi;
    LockTable locks;
    RegionAllocator alloc;
    TestPort port;
    port.durable = false;

    CoreConfig cfg;
    cfg.boundaryPolicy = CoreConfig::BoundaryPolicy::StallUntilDurable;
    cfg.branchMissRate = 0.0;
    Core core(0, cfg, port);
    ThreadContext tc(prog, 0, memi, locks, alloc);
    tc.reset(0);
    core.setThread(&tc);

    Tick now = 0;
    for (; now < 3000; ++now)
        core.tick(now);
    EXPECT_GT(core.counters().boundaryWaitCycles, 1000u);
    EXPECT_FALSE(tc.halted() && core.drained());

    port.durable = true;
    while ((!tc.halted() || !core.drained()) && now < 100000)
        core.tick(now++);
    EXPECT_TRUE(tc.halted());
}

TEST(CoreTiming, HwImplicitRegionsWaitEveryNStores)
{
    TestPort port;
    CoreConfig cfg;
    cfg.boundaryPolicy = CoreConfig::BoundaryPolicy::HwImplicit;
    cfg.hwRegionStores = 4;
    cfg.branchMissRate = 0.0;
    auto prog = compiler::makeUncompiled(storesModule(16));
    mem::MemImage memi;
    LockTable locks;
    RegionAllocator alloc;
    Core core(0, cfg, port);
    ThreadContext tc(prog, 0, memi, locks, alloc);
    tc.reset(0);
    core.setThread(&tc);
    Tick now = 0;
    while ((!tc.halted() || !core.drained()) && now < 100000)
        core.tick(now++);
    // 16 data stores / 4 per region = 4 implicit boundaries.
    EXPECT_GE(core.counters().boundariesRetired, 4u);
}

TEST(CoreTiming, RegionStatsSampled)
{
    auto m = storesModule(40);
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(m));
    mem::MemImage memi;
    LockTable locks;
    RegionAllocator alloc;
    TestPort port;
    CoreConfig cfg;
    cfg.branchMissRate = 0.0;
    Core core(0, cfg, port);
    ThreadContext tc(prog, 0, memi, locks, alloc);
    tc.reset(0);
    core.setThread(&tc);
    Tick now = 0;
    while ((!tc.halted() || !core.drained()) && now < 100000)
        core.tick(now++);
    EXPECT_GT(core.counters().regionInsts.summary().count(), 0u);
    EXPECT_GT(core.counters().regionStores.summary().mean(), 0.0);
}

TEST(CoreTiming, ContextSwitchClearsState)
{
    Rig rig(storesModule(4));
    rig.core->applyContextSwitch(100, 500);
    // Dispatch is blocked for the penalty window.
    for (Tick t = 100; t < 600; ++t)
        rig.core->tick(t);
    EXPECT_EQ(rig.core->counters().instsRetired, 0u);
}

TEST(CoreTiming, ResetStatsZeroesCounters)
{
    Rig rig(storesModule(6));
    rig.runToDrain();
    EXPECT_GT(rig.core->counters().instsRetired, 0u);
    rig.core->resetStats();
    EXPECT_EQ(rig.core->counters().instsRetired, 0u);
    EXPECT_EQ(rig.core->counters().storesRetired, 0u);
    EXPECT_EQ(rig.core->counters().regionInsts.summary().count(), 0u);
}
