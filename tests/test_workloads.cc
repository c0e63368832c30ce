/**
 * @file
 * Workload-generator tests: all 38 paper profiles produce valid,
 * deterministic, runnable programs with the advertised structure.
 */

#include <gtest/gtest.h>

#include "compiler/compiler.hh"
#include "cpu/lock_table.hh"
#include "cpu/thread_context.hh"
#include "ir/text_io.hh"
#include "ir/verifier.hh"
#include "workloads/generator.hh"

using namespace lwsp;
using namespace lwsp::workloads;

TEST(Workloads, PaperAppRoster)
{
    // Fig. 7 lists 39 per-app rows (lbm appears in both CPU2006 and
    // CPU2017); the paper's "38 applications" counts it once.
    EXPECT_EQ(paperProfiles().size(), 39u);
    std::map<std::string, unsigned> suite_counts;
    for (const auto &p : paperProfiles())
        ++suite_counts[p.suite];
    EXPECT_EQ(suite_counts["CPU2006"], 8u);
    EXPECT_EQ(suite_counts["CPU2017"], 7u);
    EXPECT_EQ(suite_counts["STAMP"], 4u);
    EXPECT_EQ(suite_counts["NPB"], 7u);
    EXPECT_EQ(suite_counts["SPLASH3"], 10u);
    EXPECT_EQ(suite_counts["WHISPER"], 3u);
}

TEST(Workloads, LookupByName)
{
    EXPECT_EQ(profileByName("lbm").suite, "CPU2006");
    EXPECT_EQ(profileByName("tpcc").threads, 8u);
    EXPECT_THROW(profileByName("not-an-app"), FatalError);
}

TEST(Workloads, MemoryIntensiveNamesResolve)
{
    for (const auto &name : memoryIntensiveNames())
        EXPECT_NO_THROW(profileByName(name));
}

TEST(Workloads, EveryProfileGeneratesValidModule)
{
    for (const auto &p : paperProfiles()) {
        Workload w = generate(p);
        EXPECT_TRUE(ir::verifyModule(*w.module).empty()) << p.name;
        EXPECT_GT(w.estimatedInstsPerThread, 1000u) << p.name;
        bool locked = false;
        for (const auto &ph : p.phases)
            locked = locked || ph.lockedRmw;
        EXPECT_EQ(!w.lockAddrs.empty(), locked) << p.name;
    }
}

TEST(Workloads, GenerationIsDeterministic)
{
    auto a = generate(profileByName("xz"));
    auto b = generate(profileByName("xz"));
    EXPECT_EQ(ir::moduleToString(*a.module),
              ir::moduleToString(*b.module));
}

TEST(Workloads, EveryProfileCompiles)
{
    for (const auto &p : paperProfiles()) {
        Workload w = generate(p);
        compiler::LightWspCompiler comp;
        auto prog = comp.compile(std::move(w.module));
        EXPECT_GT(prog.stats.boundaries, 0u) << p.name;
        EXPECT_TRUE(ir::verifyModule(*prog.module).empty()) << p.name;
    }
}

TEST(Workloads, FunctionalRunMatchesEstimate)
{
    // Execute a single-threaded profile functionally and compare the
    // actual dynamic instruction count to the generator's estimate.
    Workload w = generate(profileByName("hmmer"));
    auto prog = compiler::makeUncompiled(std::move(w.module));
    mem::MemImage mem;
    cpu::LockTable locks;
    cpu::RegionAllocator alloc;
    cpu::ThreadContext tc(prog, 0, mem, locks, alloc);
    tc.reset(0);
    cpu::ExecRecord rec;
    std::uint64_t guard = 0;
    while (!tc.halted()) {
        ASSERT_EQ(tc.step(rec), cpu::StepStatus::Ok);
        ASSERT_LT(++guard, 10'000'000u);
    }
    double actual = static_cast<double>(tc.instsExecuted());
    double est = static_cast<double>(w.estimatedInstsPerThread);
    EXPECT_GT(actual, est * 0.5);
    EXPECT_LT(actual, est * 2.0);
}

TEST(Workloads, StoreDensityTracksProfile)
{
    // A store-heavy profile must execute a larger store fraction than a
    // compute-heavy one.
    auto density = [](const char *name) {
        Workload w = generate(profileByName(name));
        auto prog = compiler::makeUncompiled(std::move(w.module));
        mem::MemImage mem;
        cpu::LockTable locks;
        cpu::RegionAllocator alloc;
        cpu::ThreadContext tc(prog, 0, mem, locks, alloc);
        tc.reset(0);
        cpu::ExecRecord rec;
        std::uint64_t stores = 0, insts = 0, guard = 0;
        while (!tc.halted() && ++guard < 5'000'000) {
            if (tc.step(rec) == cpu::StepStatus::Ok) {
                ++insts;
                stores += rec.isStore;
            }
        }
        return static_cast<double>(stores) / static_cast<double>(insts);
    };
    EXPECT_GT(density("lbm"), density("namd") * 1.5);
}

TEST(Workloads, PartitionsAreDisjointAcrossThreads)
{
    // Two threads of an MT profile must write disjoint heap partitions.
    const auto &p = profileByName("is");
    Workload w = generate(p);
    auto prog = compiler::makeUncompiled(std::move(w.module));
    mem::MemImage mem;
    cpu::LockTable locks;
    cpu::RegionAllocator alloc;

    auto heap_writes = [&](ThreadId tid) {
        cpu::ThreadContext tc(prog, tid, mem, locks, alloc);
        tc.reset(0);
        cpu::ExecRecord rec;
        std::set<Addr> addrs;
        std::uint64_t guard = 0;
        while (!tc.halted() && ++guard < 5'000'000) {
            if (tc.step(rec) == cpu::StepStatus::Ok && rec.isStore &&
                rec.addr >= Workload::heapBase &&
                rec.addr < Workload::sharedBase) {
                addrs.insert(rec.addr);
            }
        }
        return addrs;
    };
    auto a0 = heap_writes(0);
    auto a1 = heap_writes(1);
    for (Addr a : a0)
        EXPECT_EQ(a1.count(a), 0u) << std::hex << a;
}

TEST(Workloads, DiffAppStateCoversHeapAndSharedPageOnly)
{
    // Two threads of 4 KB each: heap [heapBase, heapBase + 8 KB).
    const unsigned threads = 2;
    const std::size_t footprint = 4096;
    const Addr heap = Workload::heapBase;
    const Addr shared = Workload::sharedBase;

    mem::MemImage golden;
    golden.write(heap + 8, 1);
    golden.write(shared + 16, 2);
    EXPECT_EQ(diffAppState(golden.clone(), golden, threads, footprint), "");

    // One shared-page word (a lock word, say) is application state.
    mem::MemImage lock = golden.clone();
    lock.write(shared + 4088, 7);
    EXPECT_EQ(diffAppState(lock, golden, threads, footprint),
              "shared page differs from golden at 0x600000000ff8");

    // So is the last word of the second thread's partition.
    mem::MemImage last = golden.clone();
    last.write(heap + threads * footprint - 8, 3);
    EXPECT_EQ(diffAppState(last, golden, threads, footprint),
              "heap differs from golden at 0x10001ff8 (1 words)");

    // Words just past both ranges (checkpoint storage, stacks) are not.
    mem::MemImage outside = golden.clone();
    outside.write(heap - 8, 4);
    outside.write(heap + threads * footprint, 5);
    outside.write(shared - 8, 6);
    outside.write(shared + 4096, 7);
    EXPECT_EQ(diffAppState(outside, golden, threads, footprint), "");
}
