/**
 * @file
 * LightWSP compiler tests: liveness, constant propagation, boundary
 * insertion, threshold enforcement (property-tested over randomized
 * programs), block splitting, unrolling semantics and checkpoint
 * pruning recipes.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "compiler/compiler.hh"
#include "compiler/constprop.hh"
#include "compiler/liveness.hh"
#include "compiler/passes.hh"
#include "cpu/lock_table.hh"
#include "cpu/thread_context.hh"
#include "ir/verifier.hh"
#include "mem/mem_image.hh"

using namespace lwsp;
using namespace lwsp::ir;
using namespace lwsp::compiler;

namespace {

/** r1 = 10; r2 = r1 + 1; store r2; halt — a tiny straightline program. */
std::unique_ptr<Module>
straightline()
{
    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    BasicBlock &b = f.addBlock();
    b.append(Instruction::movi(1, 0x4000));
    b.append(Instruction::movi(2, 10));
    b.append(Instruction::aluImm(Opcode::AddI, 3, 2, 1));
    b.append(Instruction::store(1, 0, 3));
    b.append(Instruction::simple(Opcode::Halt));
    return m;
}

/** Generate a random but valid store-heavy module. */
std::unique_ptr<Module>
randomModule(std::uint64_t seed, unsigned blocks, unsigned insts_per_block)
{
    Rng rng(seed);
    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    for (unsigned b = 0; b < blocks; ++b)
        f.addBlock();
    for (unsigned b = 0; b < blocks; ++b) {
        BasicBlock &bb = f.block(b);
        bb.append(Instruction::movi(1, 0x8000));
        for (unsigned i = 0; i < insts_per_block; ++i) {
            switch (rng.below(4)) {
              case 0:
                bb.append(Instruction::store(
                    1, static_cast<std::int64_t>(rng.below(64)) * 8, 2));
                break;
              case 1:
                bb.append(Instruction::load(
                    3, 1, static_cast<std::int64_t>(rng.below(64)) * 8));
                break;
              default:
                bb.append(Instruction::aluImm(
                    Opcode::AddI, static_cast<Reg>(2 + rng.below(10)),
                    static_cast<Reg>(2 + rng.below(10)),
                    static_cast<std::int64_t>(rng.below(100))));
            }
        }
        // Forward-only edges keep the CFG loop-free; the last block halts.
        if (b + 1 < blocks) {
            BlockId target =
                static_cast<BlockId>(b + 1 + rng.below(blocks - b - 1));
            if (rng.chance(0.5) && target + 1 < blocks) {
                bb.append(Instruction::branch(Opcode::Blt, 2, 3, target,
                                              b + 1));
            } else {
                bb.append(Instruction::jmp(target));
            }
        } else {
            bb.append(Instruction::simple(Opcode::Halt));
        }
    }
    verifyModuleOrDie(*m);
    return m;
}

/** Run @p prog single-threaded functionally; return the final memory. */
mem::MemImage
runFunctionally(const CompiledProgram &prog, std::uint64_t max_steps = 2e6)
{
    mem::MemImage mem;
    for (const auto &[a, v] : prog.module->initialData())
        mem.write(a, v);
    cpu::LockTable locks;
    cpu::RegionAllocator alloc;
    cpu::ThreadContext tc(prog, 0, mem, locks, alloc);
    tc.reset(0);
    cpu::ExecRecord rec;
    std::uint64_t steps = 0;
    while (!tc.halted()) {
        auto st = tc.step(rec);
        LWSP_ASSERT(st != cpu::StepStatus::Blocked, "unexpected block");
        LWSP_ASSERT(++steps < max_steps, "functional run diverged");
    }
    return mem;
}

} // namespace

// ---- Liveness ---------------------------------------------------------

TEST(Liveness, StraightlineUsesAndDefs)
{
    auto m = straightline();
    ModuleLiveness live(*m);
    // Before the store, r1 and r3 are live.
    RegMask before_store = live.liveBefore(0, 0, 3);
    EXPECT_TRUE(before_store & regBit(1));
    EXPECT_TRUE(before_store & regBit(3));
    // r2 is dead after its use by the AddI.
    EXPECT_FALSE(before_store & regBit(2));
    // Nothing is live after the halt.
    EXPECT_EQ(live.liveOut(0, 0), 0u);
}

TEST(Liveness, CallUsesCalleeSummary)
{
    auto m = std::make_unique<Module>();
    Function &callee = m->addFunction("callee");
    {
        BasicBlock &b = callee.addBlock();
        b.append(Instruction::store(5, 0, 6));  // uses r5, r6
        b.append(Instruction::simple(Opcode::Ret));
    }
    Function &main = m->addFunction("main");
    {
        BasicBlock &b = main.addBlock();
        b.append(Instruction::call(callee.id()));
        b.append(Instruction::simple(Opcode::Halt));
    }
    ModuleLiveness live(*m);
    EXPECT_TRUE(live.funcUse(callee.id()) & regBit(5));
    EXPECT_TRUE(live.funcUse(callee.id()) & regBit(6));
    // The call site makes r5/r6 live-in to main.
    EXPECT_TRUE(live.liveIn(main.id(), 0) & regBit(5));
    // And the stack pointer is always implicated by calls.
    EXPECT_TRUE(live.liveIn(main.id(), 0) & regBit(spReg));
}

TEST(Liveness, FuncLiveOutFlowsFromCallers)
{
    auto m = std::make_unique<Module>();
    Function &callee = m->addFunction("callee");
    {
        BasicBlock &b = callee.addBlock();
        b.append(Instruction::movi(4, 42));
        b.append(Instruction::simple(Opcode::Ret));
    }
    Function &main = m->addFunction("main");
    {
        BasicBlock &b = main.addBlock();
        b.append(Instruction::call(callee.id()));
        b.append(Instruction::store(4, 0, 4));  // consumes callee's r4
        b.append(Instruction::simple(Opcode::Halt));
    }
    ModuleLiveness live(*m);
    EXPECT_TRUE(live.funcLiveOut(callee.id()) & regBit(4));
    // r4 is therefore live at the callee's Ret.
    EXPECT_TRUE(live.liveBefore(callee.id(), 0, 1) & regBit(4));
}

// ---- Constant propagation ---------------------------------------------

TEST(ConstProp, FoldsArithmetic)
{
    auto m = straightline();
    ModuleLiveness live(*m);
    ConstProp consts(*m, live);
    auto st = consts.stateBefore(0, 0, 3);  // before the store
    EXPECT_TRUE(st[1].isConst());
    EXPECT_EQ(st[1].constant, 0x4000);
    EXPECT_TRUE(st[3].isConst());
    EXPECT_EQ(st[3].constant, 11);
}

TEST(ConstProp, LoadsAndCallsKill)
{
    auto m = std::make_unique<Module>();
    Function &callee = m->addFunction("callee");
    {
        BasicBlock &b = callee.addBlock();
        b.append(Instruction::movi(2, 5));
        b.append(Instruction::simple(Opcode::Ret));
    }
    Function &main = m->addFunction("main");
    {
        BasicBlock &b = main.addBlock();
        b.append(Instruction::movi(1, 7));
        b.append(Instruction::movi(2, 9));
        b.append(Instruction::load(3, 1, 0));
        b.append(Instruction::call(callee.id()));
        b.append(Instruction::simple(Opcode::Halt));
    }
    ModuleLiveness live(*m);
    ConstProp consts(*m, live);
    auto end = consts.stateBefore(main.id(), 0, 4);
    EXPECT_TRUE(end[1].isConst());   // untouched by the call
    EXPECT_FALSE(end[2].isConst());  // clobbered by callee
    EXPECT_FALSE(end[3].isConst());  // load result
}

TEST(ConstProp, MeetOfDifferingConstsIsNonConst)
{
    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    BasicBlock &b0 = f.addBlock();
    BasicBlock &b1 = f.addBlock();
    BasicBlock &b2 = f.addBlock();
    BasicBlock &b3 = f.addBlock();
    b0.append(Instruction::branch(Opcode::Beq, 1, 2, b1.id(), b2.id()));
    b1.append(Instruction::movi(5, 10));
    b1.append(Instruction::jmp(b3.id()));
    b2.append(Instruction::movi(5, 20));
    b2.append(Instruction::jmp(b3.id()));
    b3.append(Instruction::simple(Opcode::Halt));
    ModuleLiveness live(*m);
    ConstProp consts(*m, live);
    EXPECT_FALSE(consts.blockIn(0, 3)[5].isConst());
}

// ---- Boundary insertion -----------------------------------------------

TEST(Boundaries, EntryExitCallSyncLoop)
{
    auto m = std::make_unique<Module>();
    Function &callee = m->addFunction("callee");
    {
        BasicBlock &b = callee.addBlock();
        b.append(Instruction::simple(Opcode::Ret));
    }
    Function &f = m->addFunction("main");
    BasicBlock &b0 = f.addBlock();
    BasicBlock &b1 = f.addBlock();
    BasicBlock &b2 = f.addBlock();
    b0.append(Instruction::jmp(b1.id()));
    b1.append(Instruction::store(1, 0, 2));
    b1.append(Instruction::simple(Opcode::Fence));
    b1.append(Instruction::call(callee.id()));
    b1.append(Instruction::branch(Opcode::Blt, 3, 4, b1.id(), b2.id()));
    b2.append(Instruction::simple(Opcode::Halt));

    insertInitialBoundaries(f);

    // Function entry boundary.
    EXPECT_EQ(f.block(0).insts().front().op, Opcode::Boundary);
    // Loop header (b1, storeful loop) boundary at its top.
    EXPECT_EQ(f.block(1).insts().front().op, Opcode::Boundary);

    // Fence gets boundaries before and after; the call before and after.
    const auto &insts = f.block(1).insts();
    for (std::size_t i = 0; i < insts.size(); ++i) {
        if (insts[i].op == Opcode::Fence || insts[i].op == Opcode::Call) {
            EXPECT_EQ(insts[i - 1].op, Opcode::Boundary)
                << "missing pre-boundary at " << i;
            EXPECT_EQ(insts[i + 1].op, Opcode::Boundary)
                << "missing post-boundary at " << i;
        }
    }
    // Halt is preceded by a function-exit boundary.
    const auto &exit_insts = f.block(2).insts();
    ASSERT_GE(exit_insts.size(), 2u);
    EXPECT_EQ(exit_insts[exit_insts.size() - 2].op, Opcode::Boundary);
}

TEST(Boundaries, StoreFreeLoopGetsNoHeaderBoundary)
{
    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    BasicBlock &b0 = f.addBlock();
    BasicBlock &b1 = f.addBlock();
    b0.append(Instruction::aluImm(Opcode::AddI, 3, 3, 1));
    b0.append(Instruction::branch(Opcode::Blt, 3, 4, b0.id(), b1.id()));
    b1.append(Instruction::simple(Opcode::Halt));
    insertInitialBoundaries(f);
    // Entry boundary exists, but no *second* boundary for the loop.
    unsigned boundaries = 0;
    for (const auto &i : f.block(0).insts())
        boundaries += (i.op == Opcode::Boundary);
    EXPECT_EQ(boundaries, 1u);  // function entry only
}

// ---- Threshold enforcement (property test) -----------------------------

class ThresholdProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ThresholdProperty, NoPathExceedsBudget)
{
    auto m = randomModule(GetParam(), 6, 40);
    CompilerConfig cfg;
    cfg.storeThreshold = 16;
    Function &f = m->function(0);
    insertInitialBoundaries(f);
    enforceStoreThreshold(f, cfg);
    EXPECT_FALSE(hasThresholdViolation(f, cfg));
    EXPECT_LE(computeStoreCounts(f).worst, cfg.storeThreshold - 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThresholdProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

TEST(Threshold, CombineRemovesOnlyRedundantSplits)
{
    auto m = randomModule(99, 5, 30);
    CompilerConfig cfg;
    cfg.storeThreshold = 8;
    Function &f = m->function(0);
    insertInitialBoundaries(f);
    enforceStoreThreshold(f, cfg);
    // Make combining meaningful: a larger threshold lets splits merge.
    CompilerConfig relaxed = cfg;
    relaxed.storeThreshold = 32;
    std::size_t removed = combineRegions(f, relaxed);
    EXPECT_FALSE(hasThresholdViolation(f, relaxed));
    (void)removed;  // zero removals are legal; the invariant is above
}

// ---- Block splitting ----------------------------------------------------

TEST(Splitting, BoundariesBecomePenultimate)
{
    auto m = randomModule(7, 4, 30);
    CompilerConfig cfg;
    cfg.storeThreshold = 8;
    Function &f = m->function(0);
    insertInitialBoundaries(f);
    enforceStoreThreshold(f, cfg);
    splitBlocksAtBoundaries(f);
    verifyModuleOrDie(*m);
    for (BlockId b = 0; b < f.numBlocks(); ++b) {
        const auto &insts = f.block(b).insts();
        for (std::size_t i = 0; i < insts.size(); ++i) {
            if (insts[i].op == Opcode::Boundary) {
                EXPECT_EQ(i + 2, insts.size())
                    << "boundary not penultimate in block " << b;
            }
        }
    }
}

// ---- Unrolling -----------------------------------------------------------

TEST(Unroll, PreservesSemantics)
{
    // A counted loop writing a recurrence into memory.
    auto build = [](bool unroll) {
        auto m = std::make_unique<Module>();
        Function &f = m->addFunction("main");
        BasicBlock &b0 = f.addBlock();
        BasicBlock &b1 = f.addBlock();
        BasicBlock &b2 = f.addBlock();
        b0.append(Instruction::movi(1, 0x9000));
        b0.append(Instruction::movi(3, 0));
        b0.append(Instruction::movi(7, 24));
        b0.append(Instruction::movi(13, 1));
        b0.append(Instruction::jmp(b1.id()));
        b1.append(Instruction::aluImm(Opcode::MulI, 13, 13, 3));
        b1.append(Instruction::aluImm(Opcode::AddI, 13, 13, 1));
        b1.append(Instruction::alu(Opcode::Shl, 8, 3, 13));
        b1.append(Instruction::store(1, 0, 13));
        b1.append(Instruction::aluImm(Opcode::AddI, 1, 1, 8));
        b1.append(Instruction::aluImm(Opcode::AddI, 3, 3, 1));
        b1.append(Instruction::branch(Opcode::Blt, 3, 7, b1.id(),
                                      b2.id()));
        b2.append(Instruction::simple(Opcode::Halt));
        f.loopTripCounts()[b1.id()] = 24;

        CompilerConfig cfg;
        cfg.unrollLoops = unroll;
        if (unroll) {
            EXPECT_EQ(unrollLoops(f, cfg), 1u);
            verifyModuleOrDie(*m);
        }
        return compiler::makeUncompiled(std::move(m));
    };

    auto plain = build(false);
    auto unrolled = build(true);
    auto mem_plain = runFunctionally(plain);
    auto mem_unrolled = runFunctionally(unrolled);
    EXPECT_TRUE(mem_plain.diff(mem_unrolled).empty());
    // And the unrolled version has more blocks.
    EXPECT_GT(unrolled.module->function(0).numBlocks(),
              plain.module->function(0).numBlocks());
}

TEST(Unroll, FactorDividesKnownTripCount)
{
    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    BasicBlock &b0 = f.addBlock();
    BasicBlock &b1 = f.addBlock();
    BasicBlock &b2 = f.addBlock();
    b0.append(Instruction::jmp(b1.id()));
    b1.append(Instruction::store(1, 0, 2));
    b1.append(Instruction::aluImm(Opcode::AddI, 3, 3, 1));
    b1.append(Instruction::branch(Opcode::Blt, 3, 7, b1.id(), b2.id()));
    b2.append(Instruction::simple(Opcode::Halt));
    f.loopTripCounts()[b1.id()] = 9;  // factor must divide 9 -> 3

    CompilerConfig cfg;
    EXPECT_EQ(unrollLoops(f, cfg), 1u);
    // Header + 2 copies (factor 3) -> blocks grew by 2.
    EXPECT_EQ(f.numBlocks(), 5u);
}

// ---- Full pipeline -------------------------------------------------------

TEST(Pipeline, CompilePreservesSemantics)
{
    // Compiled binaries add checkpoint/boundary stores to PM slots, so we
    // compare only the application's heap range.
    auto mk = [] {
        auto m = randomModule(4242, 6, 36);
        return m;
    };
    auto base = compiler::makeUncompiled(mk());
    LightWspCompiler comp;
    auto compiled = comp.compile(mk());

    auto mem_base = runFunctionally(base);
    auto mem_comp = runFunctionally(compiled);
    EXPECT_TRUE(
        mem_base.diffInRange(mem_comp, 0x8000, 0x8000 + 64 * 8).empty());
}

TEST(Pipeline, StatsAreConsistent)
{
    LightWspCompiler comp;
    auto prog = comp.compile(randomModule(777, 6, 36));
    EXPECT_GT(prog.stats.boundaries, 0u);
    EXPECT_EQ(prog.stats.boundaries, prog.sites.size());
    EXPECT_GE(prog.stats.outputInsts, prog.stats.inputInsts);
    // Every site id indexes its own slot and the instruction matches.
    for (std::uint32_t i = 0; i < prog.sites.size(); ++i) {
        const auto &site = prog.sites[i];
        EXPECT_EQ(site.id, i);
        const auto &inst = prog.module->function(site.func)
                               .block(site.block)
                               .insts()[site.instIndex];
        EXPECT_EQ(inst.op, Opcode::Boundary);
        EXPECT_EQ(inst.imm, static_cast<std::int64_t>(i));
    }
}

TEST(Pipeline, ConstRecipesMatchRuntimeValues)
{
    // Compile a program whose loop-invariant constants get pruned, then
    // check each recipe's constant against a functional execution.
    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    BasicBlock &b0 = f.addBlock();
    BasicBlock &b1 = f.addBlock();
    BasicBlock &b2 = f.addBlock();
    b0.append(Instruction::movi(1, 0x6000));
    b0.append(Instruction::movi(5, 1234));   // loop-invariant const
    b0.append(Instruction::movi(3, 0));
    b0.append(Instruction::movi(7, 8));
    b0.append(Instruction::jmp(b1.id()));
    b1.append(Instruction::alu(Opcode::Add, 4, 5, 3));
    b1.append(Instruction::store(1, 0, 4));
    b1.append(Instruction::aluImm(Opcode::AddI, 3, 3, 1));
    b1.append(Instruction::branch(Opcode::Blt, 3, 7, b1.id(), b2.id()));
    b2.append(Instruction::simple(Opcode::Halt));

    LightWspCompiler comp;
    auto prog = comp.compile(std::move(m));
    EXPECT_GT(prog.stats.prunedCheckpoints, 0u);

    bool found_r5 = false;
    for (const auto &site : prog.sites) {
        for (const auto &rec : site.recipes) {
            if (rec.reg == 5) {
                EXPECT_EQ(rec.kind, CkptRecipe::Kind::Const);
                EXPECT_EQ(rec.imm, 1234);
                found_r5 = true;
            }
        }
    }
    EXPECT_TRUE(found_r5) << "r5's pruned checkpoint has no recipe";
}

TEST(Pipeline, CwspModeOmitsCheckpointStores)
{
    CompilerConfig cfg;
    cfg.insertCheckpointStores = false;
    LightWspCompiler comp(cfg);
    auto prog = comp.compile(randomModule(31, 5, 30));
    for (FuncId fi = 0; fi < prog.module->numFunctions(); ++fi) {
        const Function &fn = prog.module->function(fi);
        for (BlockId b = 0; b < fn.numBlocks(); ++b) {
            for (const auto &inst : fn.block(b).insts())
                EXPECT_NE(inst.op, Opcode::CkptStore);
        }
    }
    EXPECT_GT(prog.stats.boundaries, 0u);
}
