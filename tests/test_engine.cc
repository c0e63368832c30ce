/**
 * @file
 * Engine equivalence: the discrete-event scheduler (SimEngine::Event)
 * must be bit-identical to the reference cycle-stepped loop
 * (SimEngine::Cycle). "Bit-identical" means every RunResult counter,
 * every dumped stat line, every registered-stat JSON byte, every trace
 * event and both memory images — across clean runs, oversubscribed
 * scheduling, crash drains (single and double failure), hardware fault
 * injection and fuzzer-generated programs.
 *
 * A separate test runs the event engine with LWSP_VERIFY_WAKEUPS=1, which
 * asserts whenever the engine would skip cycles that its next wakeup
 * is never later than a full linear rescan — the "nobody changed state
 * without rearm()" cross-check. Another pins that the cycle engine
 * reads no self-report: it ticks every component every cycle.
 *
 * The Scheduler tests drive a bare Simulator with scripted components
 * and compare the exact (component, cycle) tick log against a
 * hand-written one: busy and sleeping re-arms, the touch() rules
 * between cycles and mid-cycle, a postponement that leaves the due flag
 * stale, more than 64 components, and the verify cross-check.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "compiler/compiler.hh"
#include "core/system.hh"
#include "fuzz/random_program.hh"
#include "fuzz/random_workload.hh"
#include "harness/runner.hh"
#include "pds/pds.hh"
#include "workloads/generator.hh"
#include "workloads/profile.hh"

#include "result_eq.hh"

using namespace lwsp;

namespace {

/** Everything observable about one System run, captured for diffing. */
struct EngineRun
{
    core::RunResult result;
    std::string statsJson;       ///< stat-registry JSON
    std::vector<trace::Event> events;
    mem::MemImage pm;
    mem::MemImage exec;
    bool crashed = false;
    core::CrashReport crash;
};

/**
 * Run @p prog once under @p engine. fail_at > 0 crashes at that cycle
 * (via runWithPowerFailure, or runWithFailureStorm with one drain
 * interrupt when drain_iters >= 0).
 */
EngineRun
execute(core::SystemConfig cfg, const compiler::CompiledProgram &prog,
        unsigned threads, SimEngine engine, Tick fail_at = 0,
        int drain_iters = -1)
{
    cfg.engine = engine;
    core::System sys(cfg, prog, threads);
    EngineRun out;
    if (fail_at == 0)
        out.result = sys.run();
    else if (drain_iters < 0)
        out.result = sys.runWithPowerFailure(fail_at);
    else
        out.result = sys.runWithFailureStorm(
            fail_at, {static_cast<unsigned>(drain_iters)});

    {
        stats::Registry reg;
        sys.registerStats(reg);
        std::ostringstream js;
        reg.dumpJson(js);
        out.statsJson = js.str();
    }
    if (const auto *sink = sys.traceSink())
        out.events = sink->snapshot();
    out.pm = sys.pmImage().clone();
    out.exec = sys.execImage().clone();
    out.crashed = sys.crashed();
    out.crash = sys.crashReport();
    return out;
}

bool
sameEvent(const trace::Event &a, const trace::Event &b)
{
    return a.tick == b.tick && a.type == b.type && a.unit == b.unit &&
           a.thread == b.thread && a.region == b.region &&
           a.addr == b.addr && a.value == b.value && a.aux == b.aux;
}

void
expectRunsEq(const EngineRun &ev, const EngineRun &cy,
             const std::string &what)
{
    expectResultEq(ev.result, cy.result, what);
    EXPECT_EQ(ev.statsJson, cy.statsJson)
        << what << ": stat-registry JSON differs";
    EXPECT_TRUE(ev.pm.diff(cy.pm).empty()) << what << ": PM image differs";
    EXPECT_TRUE(ev.exec.diff(cy.exec).empty())
        << what << ": exec image differs";
    EXPECT_EQ(ev.crashed, cy.crashed) << what;

    ASSERT_EQ(ev.events.size(), cy.events.size())
        << what << ": trace event counts differ";
    for (std::size_t i = 0; i < ev.events.size(); ++i) {
        if (!sameEvent(ev.events[i], cy.events[i])) {
            ADD_FAILURE() << what << ": trace event " << i << " differs "
                          << "(tick " << ev.events[i].tick << " vs "
                          << cy.events[i].tick << ")";
            break;
        }
    }

    EXPECT_EQ(ev.crash.faultsArmed, cy.crash.faultsArmed) << what;
    EXPECT_EQ(ev.crash.corruptBarrier, cy.crash.corruptBarrier) << what;
    EXPECT_EQ(ev.crash.truncationHazard, cy.crash.truncationHazard) << what;
    EXPECT_EQ(ev.crash.wpqDamaged, cy.crash.wpqDamaged) << what;
    EXPECT_EQ(ev.crash.poisonedWords, cy.crash.poisonedWords) << what;
    EXPECT_EQ(ev.crash.silentFlips, cy.crash.silentFlips) << what;
    EXPECT_EQ(ev.crash.stallsInjected, cy.crash.stallsInjected) << what;
    EXPECT_EQ(ev.crash.bcastRetries, cy.crash.bcastRetries) << what;
    EXPECT_EQ(ev.crash.bcastLostAtCrash, cy.crash.bcastLostAtCrash) << what;
}

/** Config + compiled program for a paper app under @p scheme. */
struct Prepared
{
    core::SystemConfig cfg;
    compiler::CompiledProgram prog;
    unsigned threads;
    std::vector<Addr> lockAddrs;
};

Prepared
prepare(const std::string &app, core::Scheme scheme)
{
    const auto &profile = workloads::profileByName(app);
    auto w = workloads::generate(profile);
    auto lock_addrs = w.lockAddrs;
    harness::RunSpec spec;
    spec.workload = app;
    spec.scheme = scheme;
    Prepared p{harness::makeConfig(profile, spec),
               harness::prepareProgram(std::move(w), spec),
               profile.threads,
               lock_addrs};
    return p;
}

/** Store-dense scratch profile so the oversubscription test controls
 *  threads/cores directly (6 threads on 2 cores → multi-queued path). */
workloads::WorkloadProfile
scratchProfile(unsigned threads)
{
    workloads::WorkloadProfile p;
    p.name = "engine-scratch";
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

} // namespace

// ---- Clean runs ------------------------------------------------------------

TEST(Engine, BuiltinWorkloadsEverySchemeMatch)
{
    setLogQuiet(true);
    for (core::Scheme s :
         {core::Scheme::Baseline, core::Scheme::PspIdeal,
          core::Scheme::LightWsp, core::Scheme::NaiveSfence,
          core::Scheme::Ppa, core::Scheme::Capri, core::Scheme::Cwsp}) {
        auto p = prepare("is", s);
        auto ev = execute(p.cfg, p.prog, p.threads, SimEngine::Event);
        auto cy = execute(p.cfg, p.prog, p.threads, SimEngine::Cycle);
        expectRunsEq(ev, cy, std::string("is/") + core::schemeName(s));
    }
    for (core::Scheme s : {core::Scheme::LightWsp, core::Scheme::Capri}) {
        auto p = prepare("xz", s);
        auto ev = execute(p.cfg, p.prog, p.threads, SimEngine::Event);
        auto cy = execute(p.cfg, p.prog, p.threads, SimEngine::Cycle);
        expectRunsEq(ev, cy, std::string("xz/") + core::schemeName(s));
    }
}

TEST(Engine, OversubscribedSchedulingMatches)
{
    setLogQuiet(true);
    auto profile = scratchProfile(6);
    auto w = workloads::generate(profile);
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.numCores = 2;  // 6 threads on 2 cores: context-switch timing
    cfg.applySchemeDefaults();
    auto ev = execute(cfg, prog, 6, SimEngine::Event);
    auto cy = execute(cfg, prog, 6, SimEngine::Cycle);
    expectRunsEq(ev, cy, "6 threads on 2 cores");
}

TEST(Engine, TraceEventsMatch)
{
    setLogQuiet(true);
    auto p = prepare("is", core::Scheme::LightWsp);
    p.cfg.traceEnabled = true;
    auto ev = execute(p.cfg, p.prog, p.threads, SimEngine::Event);
    auto cy = execute(p.cfg, p.prog, p.threads, SimEngine::Cycle);
    EXPECT_FALSE(ev.events.empty());
    expectRunsEq(ev, cy, "is/lightwsp traced");
}

// ---- Fuzzer-generated programs ---------------------------------------------

TEST(Engine, SeededFuzzWorkloadsMatch)
{
    setLogQuiet(true);
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
        auto fp = fuzz::randomWorkloadProgram(seed, /*shrink=*/0);
        compiler::LightWspCompiler comp;
        auto prog = comp.compile(std::move(fp.module));
        core::SystemConfig cfg;
        cfg.scheme = core::Scheme::LightWsp;
        cfg.applySchemeDefaults();
        auto ev = execute(cfg, prog, fp.threads, SimEngine::Event);
        auto cy = execute(cfg, prog, fp.threads, SimEngine::Cycle);
        expectRunsEq(ev, cy, "fuzz-workload seed " + std::to_string(seed));
    }
}

TEST(Engine, SeededFuzzIrProgramsMatch)
{
    setLogQuiet(true);
    for (std::uint64_t seed : {5ull, 17ull}) {
        auto fp = fuzz::randomIrProgram(seed, /*shrink=*/0);
        compiler::LightWspCompiler comp;
        auto prog = comp.compile(std::move(fp.module));
        core::SystemConfig cfg;
        cfg.scheme = core::Scheme::LightWsp;
        cfg.applySchemeDefaults();
        auto ev = execute(cfg, prog, fp.threads, SimEngine::Event);
        auto cy = execute(cfg, prog, fp.threads, SimEngine::Cycle);
        expectRunsEq(ev, cy, "fuzz-ir seed " + std::to_string(seed));
    }
}

// ---- Crash drains and fault injection --------------------------------------

TEST(Engine, CrashDrainMatches)
{
    setLogQuiet(true);
    auto p = prepare("is", core::Scheme::LightWsp);
    auto golden = execute(p.cfg, p.prog, p.threads, SimEngine::Event);
    ASSERT_TRUE(golden.result.completed);
    Tick fail_at = golden.result.cycles / 3;

    auto ev = execute(p.cfg, p.prog, p.threads, SimEngine::Event,
                      fail_at);
    auto cy = execute(p.cfg, p.prog, p.threads, SimEngine::Cycle,
                      fail_at);
    ASSERT_TRUE(ev.crashed);
    expectRunsEq(ev, cy, "is crash at 1/3");

    // Identical post-crash PM images must recover identically.
    auto rec = core::System::recoverChecked(p.cfg, p.prog, p.threads,
                                            ev.pm, p.lockAddrs);
    ASSERT_EQ(rec.outcome, core::RecoveryOutcome::Recovered) << rec.detail;
    auto rr = rec.sys->run();
    EXPECT_TRUE(rr.completed);
}

TEST(Engine, DoubleFailureDuringDrainMatches)
{
    setLogQuiet(true);
    auto p = prepare("is", core::Scheme::LightWsp);
    auto golden = execute(p.cfg, p.prog, p.threads, SimEngine::Cycle);
    ASSERT_TRUE(golden.result.completed);
    Tick fail_at = golden.result.cycles / 2;

    auto ev = execute(p.cfg, p.prog, p.threads, SimEngine::Event,
                      fail_at, /*drain_iters=*/2);
    auto cy = execute(p.cfg, p.prog, p.threads, SimEngine::Cycle,
                      fail_at, /*drain_iters=*/2);
    ASSERT_TRUE(ev.crashed);
    expectRunsEq(ev, cy, "is double failure at 1/2");
}

TEST(Engine, FaultInjectionMatches)
{
    setLogQuiet(true);
    auto p = prepare("is", core::Scheme::LightWsp);
    auto golden = execute(p.cfg, p.prog, p.threads, SimEngine::Event);
    ASSERT_TRUE(golden.result.completed);
    Tick fail_at = golden.result.cycles / 3;

    // Broadcast loss/delay exercise the NoC retry timers (the fault
    // paths with their own re-arm points); WPQ damage and PM poison
    // exercise the crash-time injection hooks.
    core::SystemConfig cfg = p.cfg;
    cfg.faults.enabled = true;
    cfg.faults.hardenedCkpt = true;
    cfg.faults.seed = 7;
    cfg.faults.bcastLossPm = 50;
    cfg.faults.bcastDelayPm = 50;
    cfg.faults.wpqBitFlip = true;
    cfg.faults.pmPoisonWords = 2;

    auto ev = execute(cfg, p.prog, p.threads, SimEngine::Event,
                      fail_at);
    auto cy = execute(cfg, p.prog, p.threads, SimEngine::Cycle,
                      fail_at);
    ASSERT_TRUE(ev.crashed);
    EXPECT_TRUE(ev.crash.faultsArmed);
    expectRunsEq(ev, cy, "is faulted crash at 1/3");
}

// ---- Scheduler self-check and harness plumbing -----------------------------

namespace {

/** Sets an environment variable for one scope, restoring the old value. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        ::setenv(name, value, 1);
    }
    ~ScopedEnv()
    {
        if (saved_)
            ::setenv(name_, saved_->c_str(), 1);
        else
            ::unsetenv(name_);
    }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
    std::optional<std::string> saved_;
};

} // namespace

TEST(Engine, VerifyWakeupsCrossCheckPasses)
{
    setLogQuiet(true);
    // The cross-check asserts next-wakeup <= linear-rescan before every
    // jump; a missing rearm() aborts the run.
    ScopedEnv verify("LWSP_VERIFY_WAKEUPS", "1");
    auto p = prepare("is", core::Scheme::LightWsp);
    auto ev = execute(p.cfg, p.prog, p.threads, SimEngine::Event);
    EXPECT_TRUE(ev.result.completed);

    auto profile = scratchProfile(6);
    auto w = workloads::generate(profile);
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.numCores = 2;
    cfg.applySchemeDefaults();
    auto sv = execute(cfg, prog, 6, SimEngine::Event);
    EXPECT_TRUE(sv.result.completed);
}

namespace {

/** A component whose self-report says it never acts again. */
class NeverDue : public Clocked
{
  public:
    NeverDue() : Clocked("never-due") {}
    void tick(Tick) override { ++ticks; }
    Tick nextActiveTick(Tick) const override { return maxTick; }

    unsigned ticks = 0;
};

} // namespace

TEST(Engine, CycleReferenceNeverSkips)
{
    // The reference trusts no nextActiveTick() self-report: a component
    // that claims to be idle forever still ticks every cycle, and the
    // clock never jumps past the current cycle.
    NeverDue idle;
    Simulator sim;
    sim.setEngine(SimEngine::Cycle);
    sim.add(&idle);
    for (unsigned n = 1; n <= 5; ++n) {
        EXPECT_EQ(sim.nextEventTick(), sim.now());
        sim.executeCycle();
        EXPECT_EQ(idle.ticks, n);
    }
}

namespace {

/** (component id, cycle) of every tick, in execution order. */
using TickLog = std::vector<std::pair<int, Tick>>;

/**
 * A component that wants to tick at the cycles in `due`, plus once per
 * poke() still pending. Each tick is logged; `actions[t]` runs at the
 * end of its tick at cycle t, to mutate peers mid-cycle.
 */
class Scripted : public Clocked
{
  public:
    Scripted(int id, TickLog &log, std::set<Tick> due = {})
        : Clocked("scripted"), due(std::move(due)), id_(id), log_(log)
    {
    }

    void
    tick(Tick now) override
    {
        log_.emplace_back(id_, now);
        if (pending_ > 0)
            --pending_;
        if (auto it = actions.find(now); it != actions.end())
            it->second();
    }

    Tick
    nextActiveTick(Tick now) const override
    {
        if (pending_ > 0)
            return now;
        auto it = due.lower_bound(now);
        return it == due.end() ? maxTick : *it;
    }

    /** External mutation: one tick's more work, re-armed. */
    void
    poke()
    {
        ++pending_;
        rearm();
    }

    /** The same mutation without rearm(): a wakeup the engine misses. */
    void pokeUnarmed() { ++pending_; }

    /** Move the scripted tick at @p from to @p to, re-armed. */
    void
    postpone(Tick from, Tick to)
    {
        due.erase(from);
        due.insert(to);
        rearm();
    }

    std::set<Tick> due;
    std::map<Tick, std::function<void()>> actions;

  private:
    int id_;
    TickLog &log_;
    unsigned pending_ = 0;
};

/** Drive @p sim to cycle @p end as System::advance does: execute a
 *  due cycle, jump an idle stretch. */
void
runUntil(Simulator &sim, Tick end)
{
    while (sim.now() < end) {
        Tick next = std::min(sim.nextEventTick(), end);
        if (next > sim.now())
            sim.advanceTo(next);
        else
            sim.executeCycle();
    }
}

} // namespace

TEST(Scheduler, BusySleepingBusy)
{
    // Every component ticks at cycle 0; afterwards only when due. A runs
    // every cycle, sleeps over 3..5 while B wakes once, then runs again.
    TickLog log;
    Scripted a(0, log, {1, 2, 6, 7});
    Scripted b(1, log, {3});
    Simulator sim;
    sim.add(&a);
    sim.add(&b);
    runUntil(sim, 4);
    EXPECT_EQ(sim.nextEventTick(), 6u);
    runUntil(sim, 20);
    EXPECT_EQ(log, (TickLog{{0, 0}, {1, 0}, {0, 1}, {0, 2}, {1, 3},
                            {0, 6}, {0, 7}}));
    EXPECT_EQ(sim.nextEventTick(), maxTick);
}

TEST(Scheduler, MidCycleTouchAheadJoinsBehindWaits)
{
    // P (index 1) pokes both neighbours during its tick at cycle 5. Y is
    // ahead of P, so the cycle engine would tick it after P this cycle;
    // X is behind, its slot already passed, so it ticks next cycle.
    TickLog log;
    Scripted x(0, log);
    Scripted p(1, log, {5});
    Scripted y(2, log);
    p.actions[5] = [&] {
        x.poke();
        y.poke();
    };
    Simulator sim;
    for (Scripted *c : {&x, &p, &y})
        sim.add(c);
    runUntil(sim, 20);
    EXPECT_EQ(log, (TickLog{{0, 0}, {1, 0}, {2, 0}, {1, 5}, {2, 5},
                            {0, 6}}));
}

TEST(Scheduler, TouchPostponesComponentDueThisCycle)
{
    // At cycle 5 both Q1 (busy, re-armed every cycle) and Q2 (a sleeper
    // since cycle 0) are due. P ticks first and moves their work later:
    // Q1 to the next cycle, Q2 to cycle 8. Neither may tick at 5.
    TickLog log;
    Scripted p(0, log, {5});
    Scripted q1(1, log, {3, 4, 5});
    Scripted q2(2, log, {5});
    p.actions[5] = [&] {
        q1.postpone(5, 6);
        q2.postpone(5, 8);
    };
    Simulator sim;
    for (Scripted *c : {&p, &q1, &q2})
        sim.add(c);
    runUntil(sim, 20);
    EXPECT_EQ(log, (TickLog{{0, 0}, {1, 0}, {2, 0}, {1, 3}, {1, 4},
                            {0, 5}, {1, 6}, {2, 8}}));
}

TEST(Scheduler, PokeBetweenCyclesWakesSleeperNow)
{
    // After cycle 3 everyone sleeps and the clock jumps to 10. Pokes
    // made there, outside any cycle, are due at now() — B's as much as
    // A's, though B is poked first and sits later in registration order.
    TickLog log;
    Scripted a(0, log);
    Scripted b(1, log, {3});
    Simulator sim;
    sim.add(&a);
    sim.add(&b);
    runUntil(sim, 10);
    EXPECT_EQ(sim.now(), 10u);
    b.poke();
    a.poke();
    EXPECT_EQ(sim.nextEventTick(), 10u);
    runUntil(sim, 20);
    EXPECT_EQ(log, (TickLog{{0, 0}, {1, 0}, {1, 3}, {0, 10}, {1, 10}}));
    EXPECT_EQ(sim.nextEventTick(), maxTick);
}

TEST(Scheduler, PostponingTheOnlyNextCycleWakeIsHarmless)
{
    // At cycle 4 Q ticks and re-arms for 5, the only wake due next
    // cycle. P, ticking after it, postpones that work to 9. The due
    // flag set by Q's re-arm is now stale: cycle 5 ticks nobody, and
    // from then on the clock jumps straight to 9.
    TickLog log;
    Scripted q(0, log, {4, 5});
    Scripted p(1, log, {4});
    p.actions[4] = [&] { q.postpone(5, 9); };
    Simulator sim;
    sim.add(&q);
    sim.add(&p);
    runUntil(sim, 6);
    EXPECT_EQ(sim.nextEventTick(), 9u);
    runUntil(sim, 20);
    EXPECT_EQ(log, (TickLog{{0, 0}, {1, 0}, {0, 4}, {1, 4}, {0, 9}}));
}

TEST(Scheduler, SeventyComponents)
{
    // 70 components, more than one 64-bit word's worth. Component 69 is
    // busy over 1..3. At cycle 2, 5 pokes 65 (ahead, 60 slots on) and
    // 66 pokes 6 (behind, 60 slots back).
    constexpr int n = 70;
    TickLog log;
    std::vector<std::unique_ptr<Scripted>> cs;
    for (int i = 0; i < n; ++i)
        cs.push_back(std::make_unique<Scripted>(i, log));
    cs[5]->due = {2};
    cs[66]->due = {2};
    cs[69]->due = {1, 2, 3};
    cs[5]->actions[2] = [&] { cs[65]->poke(); };
    cs[66]->actions[2] = [&] { cs[6]->poke(); };
    Simulator sim;
    for (auto &c : cs)
        sim.add(c.get());
    runUntil(sim, 20);

    TickLog want;
    for (int i = 0; i < n; ++i)
        want.emplace_back(i, 0);
    want.insert(want.end(), {{69, 1},
                             {5, 2}, {65, 2}, {66, 2}, {69, 2},
                             {6, 3}, {69, 3}});
    EXPECT_EQ(log, want);
}

TEST(Scheduler, VerifyCatchesUnarmedMutationFromABusyPeer)
{
    // B works every cycle through 3; at cycle 2 its tick hands A, asleep
    // since cycle 0, one tick of work. Re-armed, A ticks at 3 (it is
    // behind B). Unarmed, the engine would never tick A again: once B
    // sleeps too, the verify rescan must catch the missed wakeup.
    ScopedEnv verify("LWSP_VERIFY_WAKEUPS", "1");
    for (bool armed : {true, false}) {
        TickLog log;
        Scripted a(0, log);
        Scripted b(1, log, {1, 2, 3});
        b.actions[2] = [&] {
            if (armed)
                a.poke();
            else
                a.pokeUnarmed();
        };
        Simulator sim;
        sim.add(&a);
        sim.add(&b);
        if (armed) {
            runUntil(sim, 20);
            EXPECT_EQ(log, (TickLog{{0, 0}, {1, 0}, {1, 1}, {1, 2},
                                    {0, 3}, {1, 3}}));
            continue;
        }
        try {
            runUntil(sim, 20);
            FAIL() << "unarmed mutation went unnoticed";
        } catch (const PanicError &e) {
            EXPECT_NE(std::string(e.what()).find("missed wakeup: "
                                                 "component 0"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(sim.now(), 4u);
    }
}

TEST(Scheduler, VerifyOffWhenVariableIsZero)
{
    // LWSP_VERIFY_WAKEUPS=0 means off, as LWSP_VERIFY_EACH=0 does: the
    // same unarmed mutation goes unnoticed, and A never ticks again.
    for (const char *off : {"0", ""}) {
        ScopedEnv verify("LWSP_VERIFY_WAKEUPS", off);
        TickLog log;
        Scripted a(0, log);
        Scripted b(1, log, {1, 2, 3});
        b.actions[2] = [&] { a.pokeUnarmed(); };
        Simulator sim;
        sim.add(&a);
        sim.add(&b);
        EXPECT_NO_THROW(runUntil(sim, 20)) << "'" << off << "'";
        EXPECT_EQ(log, (TickLog{{0, 0}, {1, 0}, {1, 1}, {1, 2}, {1, 3}}));
    }
}

/** Sets the process engine for one scope, restoring the old one. */
class ProcessEngine
{
  public:
    explicit ProcessEngine(SimEngine e) : saved_(defaultSimEngine())
    {
        setDefaultSimEngine(e);
    }
    ~ProcessEngine() { setDefaultSimEngine(saved_); }
    ProcessEngine(const ProcessEngine &) = delete;
    ProcessEngine &operator=(const ProcessEngine &) = delete;

  private:
    SimEngine saved_;
};

TEST(Engine, RunnerMemoKeysEnginesSeparately)
{
    setLogQuiet(true);
    harness::RunSpec spec;
    spec.workload = "is";
    spec.scheme = core::Scheme::LightWsp;
    // Distinct memo keys (no cross-engine cache hits masquerading as
    // equivalence), identical results through the Runner path.
    harness::Runner runner;
    std::string keys[2];
    harness::RunOutcome out[2];
    for (SimEngine e : {SimEngine::Event, SimEngine::Cycle}) {
        ProcessEngine engine(e);
        keys[e == SimEngine::Cycle] = harness::specKey(spec);
        out[e == SimEngine::Cycle] = runner.run(spec);
    }
    EXPECT_NE(keys[0], keys[1]);
    expectResultEq(out[0].result, out[1].result, "runner is/lightwsp");
    EXPECT_EQ(out[0].threads, out[1].threads);
}

TEST(Engine, ProcessDefaultReachesEveryBuilder)
{
    setLogQuiet(true);
    ProcessEngine engine(SimEngine::Cycle);
    harness::PreparedPoint pt = harness::preparePoint({.workload = "is"});
    const std::pair<const char *, core::SystemConfig> configs[] = {
        {"preparePoint", pt.cfg},
        {"makePdsConfig", pds::makePdsConfig(pds::PdsScheme::LightWsp,
                                             pds::PdsRunMode::Perf)},
        {"SystemConfig{}", {}},
    };
    for (const auto &[builder, cfg] : configs) {
        core::System sys(cfg, pt.prog, 1);
        EXPECT_EQ(sys.config().engine, SimEngine::Cycle) << builder;
    }
}
