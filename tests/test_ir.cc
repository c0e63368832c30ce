/**
 * @file
 * LightIR structural tests: instruction constructors, opcode naming,
 * text round-tripping, the verifier, and PC encoding.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>

#include "compiler/compiler.hh"
#include "compiler/passes.hh"
#include "cpu/thread_context.hh"
#include "fuzz/random_program.hh"
#include "fuzz/random_workload.hh"
#include "ir/program.hh"
#include "ir/text_io.hh"
#include "ir/verifier.hh"
#include "workloads/generator.hh"

using namespace lwsp;
using namespace lwsp::ir;

namespace {

/** Build a two-function module exercising every operand shape. */
std::unique_ptr<Module>
richModule()
{
    auto m = std::make_unique<Module>();
    Function &helper = m->addFunction("helper");
    {
        BasicBlock &b = helper.addBlock();
        b.append(Instruction::aluImm(Opcode::AddI, 3, 3, -8));
        b.append(Instruction::simple(Opcode::Ret));
    }
    Function &main = m->addFunction("main");
    {
        BasicBlock &b0 = main.addBlock();
        BasicBlock &b1 = main.addBlock();
        BasicBlock &b2 = main.addBlock();
        b0.append(Instruction::movi(1, 0x1000));
        b0.append(Instruction::movi(2, 7));
        b0.append(Instruction::alu(Opcode::Add, 3, 1, 2));
        b0.append(Instruction::alu(Opcode::Fma, 4, 3, 2));
        b0.append(Instruction::load(5, 1, 8));
        b0.append(Instruction::store(1, 16, 5));
        b0.append(Instruction::atomicAdd(1, 24, 2));
        b0.append(Instruction::lockOp(Opcode::LockAcq, 1, 0));
        b0.append(Instruction::lockOp(Opcode::LockRel, 1, 0));
        b0.append(Instruction::simple(Opcode::Fence));
        b0.append(Instruction::call(helper.id()));
        b0.append(Instruction::branch(Opcode::Blt, 3, 2, b1.id(),
                                      b2.id()));
        b1.append(Instruction::jmp(b2.id()));
        b2.append(Instruction::simple(Opcode::Halt));
    }
    m->initialData().emplace_back(0x2000, 99);
    return m;
}

/**
 * One instruction of every opcode, with varied registers in every
 * field, negative offsets and every boundary kind, laid out so that it
 * verifies and runs straight through: main's block 0 calls @helper (a
 * bare ret), then a chain of branches and a jmp reach the halt.
 */
std::unique_ptr<Module>
everyOpcodeModule()
{
    auto m = std::make_unique<Module>();
    Function &main = m->addFunction("main");
    Function &helper = m->addFunction("helper");
    helper.addBlock().append(Instruction::simple(Opcode::Ret));
    for (int i = 0; i < 6; ++i)
        main.addBlock();
    BasicBlock &b = main.block(0);
    b.append(Instruction::movi(14, 0x10000));
    b.append(Instruction::movi(1, -5));
    b.append(Instruction::aluImm(Opcode::Mov, 2, 1, 0));
    const Opcode alus[] = {Opcode::Add, Opcode::Sub, Opcode::Mul,
                           Opcode::Div, Opcode::And, Opcode::Or,
                           Opcode::Xor, Opcode::Shl, Opcode::Shr,
                           Opcode::Fma};
    Reg r = 3;
    for (Opcode op : alus) {
        b.append(Instruction::alu(op, r, static_cast<Reg>(r - 1),
                                  static_cast<Reg>(r - 2)));
        ++r;
    }
    b.append(Instruction::aluImm(Opcode::AddI, 4, 5, -3));
    b.append(Instruction::aluImm(Opcode::MulI, 5, 6, 9));
    b.append(Instruction::load(7, 14, -8));
    b.append(Instruction::store(14, -16, 8));
    b.append(Instruction::call(helper.id()));
    b.append(Instruction::simple(Opcode::Fence));
    b.append(Instruction::atomicAdd(14, 24, 9));
    b.append(Instruction::lockOp(Opcode::LockAcq, 14, -64));
    b.append(Instruction::lockOp(Opcode::LockRel, 14, -64));
    for (unsigned k = 0; k < numBoundaryKinds; ++k) {
        Instruction bd = Instruction::simple(Opcode::Boundary);
        bd.rd = static_cast<Reg>(k);
        bd.imm = 40 + k;
        b.append(bd);
    }
    b.append(Instruction::ckptStore(11));
    b.append(Instruction::simple(Opcode::Nop));
    const Opcode branches[] = {Opcode::Beq, Opcode::Bne, Opcode::Blt,
                               Opcode::Bge};
    for (BlockId i = 0; i < 4; ++i)
        main.block(i).append(Instruction::branch(
            branches[i], static_cast<Reg>(12 + i), 1, i + 1, i + 1));
    main.block(4).append(Instruction::jmp(5));
    main.block(5).append(Instruction::simple(Opcode::Halt));
    return m;
}

} // namespace

TEST(Opcode, NameRoundTrip)
{
    for (int i = 0; i <= static_cast<int>(Opcode::Nop); ++i) {
        Opcode op = static_cast<Opcode>(i);
        bool ok = false;
        Opcode back = opcodeFromName(opcodeName(op), ok);
        EXPECT_TRUE(ok) << opcodeName(op);
        EXPECT_EQ(back, op);
    }
    bool ok = true;
    opcodeFromName("not-an-op", ok);
    EXPECT_FALSE(ok);
}

TEST(Opcode, Classification)
{
    EXPECT_TRUE(writesReg(Opcode::Load));
    EXPECT_FALSE(writesReg(Opcode::Store));
    EXPECT_TRUE(isTerminator(Opcode::Halt));
    EXPECT_FALSE(isTerminator(Opcode::Call));
    EXPECT_TRUE(isConditionalBranch(Opcode::Bge));
    EXPECT_FALSE(isConditionalBranch(Opcode::Jmp));
    EXPECT_TRUE(opInfo(Opcode::CkptStore).has(PersistEntry));
    EXPECT_TRUE(opInfo(Opcode::LockRel).has(PersistEntry));
    EXPECT_FALSE(opInfo(Opcode::Boundary).has(PersistEntry));
    EXPECT_TRUE(isSynchronization(Opcode::LockAcq));
    EXPECT_FALSE(isSynchronization(Opcode::Store));
    EXPECT_EQ(executeLatency(Opcode::Div), 12u);
    EXPECT_EQ(executeLatency(Opcode::Mul), 3u);
    EXPECT_EQ(executeLatency(Opcode::Add), 1u);
}

TEST(Opcode, CoreReadSetsMatchLiveness)
{
    // The core's dependence tracking (ExecRecord::srcRegs) and compiler
    // liveness agree on what every opcode reads; they differ only by
    // what a callee (Call) or a caller (Ret) reads beyond it.
    auto prog = compiler::makeUncompiled(everyOpcodeModule());
    const Module &m = *prog.module;
    compiler::ModuleLiveness live(m);
    // The instructions in run order: main's, with @helper's ret right
    // after the call.
    std::vector<std::pair<FuncId, Instruction>> order;
    const Function &main = m.function(0);
    for (BlockId b = 0; b < main.numBlocks(); ++b) {
        for (const Instruction &inst : main.block(b).insts()) {
            order.emplace_back(0, inst);
            if (inst.op == Opcode::Call)
                order.emplace_back(
                    inst.callee,
                    m.function(inst.callee).block(0).insts()[0]);
        }
    }
    mem::MemImage memory;
    cpu::LockTable locks;
    cpu::RegionAllocator regions;
    cpu::ThreadContext tc(prog, 0, memory, locks, regions);
    tc.reset(0);
    std::set<Opcode> seen;
    for (const auto &[f, inst] : order) {
        cpu::ExecRecord rec;
        ASSERT_EQ(tc.step(rec), cpu::StepStatus::Ok);
        ASSERT_EQ(rec.op, inst.op);
        RegMask beyond = inst.op == Opcode::Call
                             ? live.funcUse(inst.callee)
                         : inst.op == Opcode::Ret ? live.funcLiveOut(f)
                                                  : 0;
        EXPECT_EQ(live.instUse(f, inst), rec.srcRegs | beyond)
            << opcodeName(inst.op);
        seen.insert(inst.op);
    }
    EXPECT_TRUE(tc.halted());
    EXPECT_EQ(seen.size(), numOpcodes);
}

TEST(Program, SuccessorsFollowTerminators)
{
    auto m = richModule();
    const Function &main = m->function(m->findFunction("main"));
    auto succs0 = main.block(0).successors();
    ASSERT_EQ(succs0.size(), 2u);
    EXPECT_EQ(succs0[0], 1u);
    EXPECT_EQ(succs0[1], 2u);
    EXPECT_EQ(main.block(1).successors(), std::vector<BlockId>{2});
    EXPECT_TRUE(main.block(2).successors().empty());
}

TEST(Program, FindFunction)
{
    auto m = richModule();
    EXPECT_NE(m->findFunction("main"), invalidFunc);
    EXPECT_EQ(m->findFunction("nonexistent"), invalidFunc);
}

TEST(TextIo, RoundTripPreservesSemantics)
{
    auto m = richModule();
    std::string text = moduleToString(*m);
    auto parsed = parseModule(text);
    // The round-tripped module prints identically.
    EXPECT_EQ(moduleToString(*parsed), text);
    EXPECT_TRUE(verifyModule(*parsed).empty());
    EXPECT_EQ(parsed->initialData().size(), 1u);
    EXPECT_EQ(parsed->initialData()[0].first, 0x2000u);
}

TEST(TextIo, NegativeOffsetsRoundTrip)
{
    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    BasicBlock &b = f.addBlock();
    b.append(Instruction::load(1, 15, -16));
    b.append(Instruction::store(15, -8, 1));
    b.append(Instruction::simple(Opcode::Halt));
    auto parsed = parseModule(moduleToString(*m));
    EXPECT_EQ(parsed->function(0).block(0).insts()[0].imm, -16);
    EXPECT_EQ(parsed->function(0).block(0).insts()[1].imm, -8);
}

TEST(TextIo, ParseErrorsAreFatal)
{
    EXPECT_THROW(parseModule("func main\n"), FatalError);   // missing @
    EXPECT_THROW(parseModule("block 0:\n"), FatalError);     // no function
    EXPECT_THROW(parseModule("func @m\nblock 0:\n  bogus\n"),
                 FatalError);
    EXPECT_THROW(parseModule("func @m\nblock 0:\n  call @nope\n"),
                 FatalError);
    EXPECT_THROW(parseModule("func @m\nblock 0:\n  movi r99, 1\n"),
                 FatalError);
    // Registers, immediates, memory operands, block refs and block ids
    // are whole tokens, and a block id may not skip past the next new
    // block.
    for (const char *bad :
         {"block 0:\n  movi rx, 1\n", "block 0:\n  movi r1x, 1\n",
          "block 0:\n  movi r1, 12abc\n", "block 0:\n  jmp b1x\n",
          "block 0:\n  addi r1, r2, 9223372036854775808\n",
          "block 0:\n  load r2, r1, 8\n", "block 0:\n  store r1 8 r2\n",
          "block 0:\n  load r2, [r1-8]\n", "block 0x1:\n",
          "block 2:\n"}) {
        EXPECT_THROW(parseModule(std::string("func @m\n") + bad),
                     FatalError)
            << bad;
    }
    // A repeated function name would make '@name' ambiguous.
    EXPECT_THROW(parseModule("func @m\nblock 0:\n  call @m\n  halt\n"
                             "func @m\nblock 0:\n  ret\n"),
                 FatalError);
    // A file that parses but does not verify (block 0 has no
    // terminator) is the user's error too, not a simulator bug.
    const std::string path = ::testing::TempDir() + "no_terminator.lir";
    std::ofstream(path) << "func @m\nblock 0:\n  movi r1, 1\n";
    EXPECT_THROW(workloads::loadModule(path), FatalError);
    std::remove(path.c_str());
}

TEST(TextIo, NumbersParseInFullRange)
{
    auto m = parseModule("func @m\nblock 0:\n  movi r1, 0x10\n"
                         "  movi r2, -9223372036854775808\n  halt\n"
                         "data 0x1000 18446744073709551615\n");
    const auto &insts = m->function(0).block(0).insts();
    EXPECT_EQ(insts[0].imm, 16);
    EXPECT_EQ(insts[1].imm, INT64_MIN);
    // A data word prints unsigned, so it must parse back the same way.
    EXPECT_EQ(m->initialData()[0].second, ~0ull);
    EXPECT_EQ(moduleToString(*parseModule(moduleToString(*m))),
              moduleToString(*m));
}

TEST(TextIo, EveryOpcodePrintsAsRecorded)
{
    // The bytes the per-opcode printer produced before the instruction
    // table existed; printing the parsed text must give them back.
    auto m = everyOpcodeModule();
    ASSERT_TRUE(verifyModule(*m).empty());
    const std::string want = R"(func @main
block 0:
    movi r14, 65536
    movi r1, -5
    mov r2, r1
    add r3, r2, r1
    sub r4, r3, r2
    mul r5, r4, r3
    div r6, r5, r4
    and r7, r6, r5
    or r8, r7, r6
    xor r9, r8, r7
    shl r10, r9, r8
    shr r11, r10, r9
    fma r12, r11, r10
    addi r4, r5, -3
    muli r5, r6, 9
    load r7, [r14+-8]
    store [r14+-16], r8
    call @helper
    fence
    atomicadd [r14+24], r9
    lockacq [r14+-64]
    lockrel [r14+-64]
    boundary func-entry, 40
    boundary func-exit, 41
    boundary call-before, 42
    boundary call-after, 43
    boundary loop-header, 44
    boundary sync, 45
    boundary split, 46
    ckptstore r11
    nop
    beq r12, r1, b1, b1
block 1:
    bne r13, r1, b2, b2
block 2:
    blt r14, r1, b3, b3
block 3:
    bge r15, r1, b4, b4
block 4:
    jmp b5
block 5:
    halt
func @helper
block 0:
    ret
)";
    const std::string text = moduleToString(*m);
    EXPECT_EQ(text, want);
    EXPECT_EQ(moduleToString(*parseModule(text)), text);
}

TEST(TextIo, TripCountMetadataRoundTrips)
{
    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    BasicBlock &b0 = f.addBlock();
    b0.append(Instruction::simple(Opcode::Halt));
    f.loopTripCounts()[0] = 96;
    auto parsed = parseModule(moduleToString(*m));
    EXPECT_EQ(parsed->function(0).loopTripCounts().at(0), 96u);
}

TEST(Verifier, AcceptsValidModule)
{
    auto m = richModule();
    EXPECT_TRUE(verifyModule(*m).empty());
}

TEST(Verifier, CatchesMissingTerminator)
{
    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    BasicBlock &b = f.addBlock();
    b.append(Instruction::movi(1, 1));
    auto problems = verifyModule(*m);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("terminator"), std::string::npos);
}

TEST(Verifier, CatchesMidBlockTerminator)
{
    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    BasicBlock &b = f.addBlock();
    b.append(Instruction::simple(Opcode::Halt));
    b.append(Instruction::movi(1, 1));
    b.append(Instruction::simple(Opcode::Halt));
    EXPECT_FALSE(verifyModule(*m).empty());
}

TEST(Verifier, CatchesBadBranchTarget)
{
    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    BasicBlock &b = f.addBlock();
    b.append(Instruction::jmp(42));
    EXPECT_FALSE(verifyModule(*m).empty());
    EXPECT_THROW(verifyModuleOrDie(*m), PanicError);
}

TEST(Verifier, CatchesEmptyModuleAndEmptyBlock)
{
    Module empty;
    EXPECT_FALSE(verifyModule(empty).empty());

    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    f.addBlock();  // empty block
    EXPECT_FALSE(verifyModule(*m).empty());
}

TEST(TextIo, BoundaryKindAndSiteRoundTrip)
{
    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    BasicBlock &b = f.addBlock();
    Instruction bd = Instruction::simple(Opcode::Boundary);
    bd.rd = static_cast<Reg>(BoundaryKind::LoopHeader);
    bd.imm = 37;
    b.append(bd);
    b.append(Instruction::simple(Opcode::Halt));

    std::string text = moduleToString(*m);
    EXPECT_NE(text.find("boundary loop-header, 37"), std::string::npos);
    auto parsed = parseModule(text);
    const Instruction &got = parsed->function(0).block(0).insts()[0];
    EXPECT_EQ(got.rd, static_cast<Reg>(BoundaryKind::LoopHeader));
    EXPECT_EQ(got.imm, 37);
    EXPECT_EQ(moduleToString(*parsed), text);
}

TEST(TextIo, BoundaryLegacyFormsParse)
{
    // Bare and kind-only forms stay parseable (hand-written modules).
    auto m1 = parseModule("func @m\nblock 0:\n  boundary\n  halt\n");
    EXPECT_EQ(m1->function(0).block(0).insts()[0].rd,
              static_cast<Reg>(BoundaryKind::FuncEntry));
    EXPECT_EQ(m1->function(0).block(0).insts()[0].imm, 0);
    auto m2 = parseModule("func @m\nblock 0:\n  boundary sync\n  halt\n");
    EXPECT_EQ(m2->function(0).block(0).insts()[0].rd,
              static_cast<Reg>(BoundaryKind::Sync));
    // Unknown kinds and over-long forms are rejected.
    EXPECT_THROW(parseModule("func @m\nblock 0:\n  boundary bogus\n"),
                 FatalError);
    EXPECT_THROW(
        parseModule("func @m\nblock 0:\n  boundary sync, 1, 2\n"),
        FatalError);
}

TEST(Verifier, CatchesInvalidBoundaryKind)
{
    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    BasicBlock &b = f.addBlock();
    Instruction bd = Instruction::simple(Opcode::Boundary);
    bd.rd = numBoundaryKinds;  // first invalid raw kind
    b.append(bd);
    b.append(Instruction::simple(Opcode::Halt));
    auto problems = verifyModule(*m);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems[0].find("boundary kind"), std::string::npos);
}

TEST(Opcode, BoundaryKindNameRoundTrip)
{
    for (unsigned k = 0; k < numBoundaryKinds; ++k) {
        const char *name = boundaryKindName(static_cast<BoundaryKind>(k));
        bool ok = false;
        EXPECT_EQ(static_cast<unsigned>(boundaryKindFromName(name, ok)),
                  k);
        EXPECT_TRUE(ok);
    }
    bool ok = true;
    boundaryKindFromName("no-such-kind", ok);
    EXPECT_FALSE(ok);
    EXPECT_FALSE(isValidBoundaryKind(numBoundaryKinds));
    EXPECT_TRUE(isValidBoundaryKind(0));
}

namespace {

/**
 * print -> parse -> print must be a fixpoint, and the recovery site
 * table re-derived from the reparsed module must match the original
 * bit for bit (ids, locations, kinds, recipes) — the text form carries
 * everything recovery needs.
 */
void
expectCompiledRoundTrip(std::unique_ptr<Module> m,
                        const compiler::CompilerConfig &ccfg)
{
    compiler::LightWspCompiler comp(ccfg);
    compiler::CompiledProgram prog = comp.compile(std::move(m));

    std::string text = moduleToString(*prog.module);
    auto parsed = parseModule(text);
    ASSERT_EQ(moduleToString(*parsed), text);

    auto recipes = compiler::computeConstRecipes(*parsed);
    auto sites = compiler::assignBoundarySites(*parsed, recipes);
    ASSERT_EQ(sites.size(), prog.sites.size());
    for (std::size_t i = 0; i < sites.size(); ++i) {
        const auto &a = prog.sites[i];
        const auto &b = sites[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.func, b.func);
        EXPECT_EQ(a.block, b.block);
        EXPECT_EQ(a.instIndex, b.instIndex);
        EXPECT_EQ(static_cast<unsigned>(a.kind),
                  static_cast<unsigned>(b.kind));
        ASSERT_EQ(a.recipes.size(), b.recipes.size());
        for (std::size_t r = 0; r < a.recipes.size(); ++r) {
            EXPECT_EQ(a.recipes[r].reg, b.recipes[r].reg);
            EXPECT_EQ(static_cast<unsigned>(a.recipes[r].kind),
                      static_cast<unsigned>(b.recipes[r].kind));
            EXPECT_EQ(a.recipes[r].imm, b.recipes[r].imm);
            EXPECT_EQ(a.recipes[r].src, b.recipes[r].src);
        }
    }
}

} // namespace

TEST(TextIo, CompiledWorkloadsRoundTrip)
{
    for (const auto &profile : workloads::paperProfiles()) {
        SCOPED_TRACE(profile.name);
        expectCompiledRoundTrip(workloads::generate(profile).module,
                                compiler::CompilerConfig{});
    }
}

TEST(TextIo, CompiledFuzzProgramsRoundTrip)
{
    static const unsigned thresholds[] = {4, 8, 16, 32};
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        fuzz::FuzzProgram src =
            (seed % 2 == 0) ? fuzz::randomIrProgram(seed, 0)
                            : fuzz::randomWorkloadProgram(seed, 0);
        compiler::CompilerConfig ccfg;
        ccfg.storeThreshold = thresholds[seed % 4];
        expectCompiledRoundTrip(std::move(src.module), ccfg);
    }
}

TEST(PcEncoding, RoundTrip)
{
    cpu::ProgramCounter pc{3, 17, 255};
    auto decoded = cpu::decodePc(cpu::encodePc(pc));
    EXPECT_TRUE(decoded == pc);

    cpu::ProgramCounter big{200, 100000, 500000};
    EXPECT_TRUE(cpu::decodePc(cpu::encodePc(big)) == big);
}
