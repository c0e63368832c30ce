#include "generator.hh"

#include <fstream>
#include <sstream>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "ir/text_io.hh"
#include "ir/verifier.hh"

namespace lwsp {
namespace workloads {

using namespace ir;

namespace {

/*
 * Register convention inside generated code:
 *   r0  thread id (read-only)       r8  offset temp / RMW scratch
 *   r1  partition base (read-only)  r9  sequential pointer
 *   r2  shared base (read-only)     r10 load destination
 *   r3  loop counter                r11 effective address
 *   r4  LCG state                   r12 store value
 *   r5  hot byte-mask (8B aligned)  r13 accumulator
 *   r6  full byte-mask (8B aligned) r14 shift constant (13)
 *   r7  trip bound                  r15 stack pointer (reserved)
 */
constexpr Reg rTid = 0, rBase = 1, rShared = 2, rCtr = 3, rLcg = 4,
              rHotMask = 5, rFullMask = 6, rTrip = 7, rTmp = 8, rSeq = 9,
              rLoad = 10, rAddr = 11, rVal = 12, rAcc = 13, rShift = 14;

/** Emit one address computation into @p body; result in rAddr.
 *  @p seq_slot is the access's index within the iteration (sequential
 *  pattern: the first access advances the pointer, later ones address
 *  fixed line offsets from it, so the per-iteration advance stays a
 *  power of two and revisits line up exactly across footprint wraps). */
void
emitAddress(std::vector<Instruction> &body, PhaseSpec::Pattern pattern,
            bool hot, unsigned stride, unsigned seq_slot)
{
    Reg mask = hot ? rHotMask : rFullMask;
    switch (pattern) {
      case PhaseSpec::Pattern::Sequential: {
        if (seq_slot == 0) {
            body.push_back(Instruction::aluImm(
                Opcode::AddI, rSeq, rSeq,
                static_cast<std::int64_t>(stride)));
            body.push_back(Instruction::alu(Opcode::And, rSeq, rSeq,
                                            rFullMask));
        }
        std::int64_t off =
            static_cast<std::int64_t>(seq_slot) * cachelineBytes;
        body.push_back(Instruction::aluImm(Opcode::AddI, rTmp, rSeq,
                                           off));
        body.push_back(Instruction::alu(Opcode::And, rTmp, rTmp, mask));
        body.push_back(Instruction::alu(Opcode::Add, rAddr, rBase,
                                        rTmp));
        break;
      }
      case PhaseSpec::Pattern::Random:
        body.push_back(Instruction::aluImm(Opcode::MulI, rLcg, rLcg,
                                           1103515245));
        body.push_back(Instruction::aluImm(Opcode::AddI, rLcg, rLcg,
                                           12345));
        body.push_back(Instruction::alu(Opcode::Shr, rTmp, rLcg, rShift));
        body.push_back(Instruction::alu(Opcode::And, rTmp, rTmp, mask));
        body.push_back(Instruction::alu(Opcode::Add, rAddr, rBase, rTmp));
        break;
      case PhaseSpec::Pattern::Pointer:
        // The next address depends on the previous load: a serialized
        // chase that exposes memory latency.
        body.push_back(Instruction::aluImm(Opcode::MulI, rLcg, rLcg, 5));
        body.push_back(Instruction::alu(Opcode::Add, rLcg, rLcg, rLoad));
        body.push_back(Instruction::aluImm(Opcode::AddI, rLcg, rLcg,
                                           12345));
        body.push_back(Instruction::alu(Opcode::Shr, rTmp, rLcg, rShift));
        body.push_back(Instruction::alu(Opcode::And, rTmp, rTmp, mask));
        body.push_back(Instruction::alu(Opcode::Add, rAddr, rBase, rTmp));
        break;
    }
}

/** Build one phase function; returns its FuncId. */
FuncId
buildPhase(Module &m, const WorkloadProfile &p, const PhaseSpec &spec,
           unsigned phase_index)
{
    Function &fn =
        m.addFunction("phase" + std::to_string(phase_index));
    BasicBlock &entry = fn.addBlock();   // b0: setup
    BasicBlock &loop = fn.addBlock();    // b1: single-block counted loop
    BasicBlock &exit = fn.addBlock();    // b2: ret

    auto aligned_mask = [](std::size_t bytes) {
        return static_cast<std::int64_t>((bytes - 1) & ~7ull);
    };

    entry.append(Instruction::movi(rCtr, 0));
    // The LCG state and the streaming pointer deliberately carry over
    // from the previous invocation (r4/r9 are live-in): repeated phase
    // calls then cover fresh parts of the footprint instead of
    // re-touching the first call's lines.
    entry.append(Instruction::aluImm(Opcode::MulI, rLcg, rLcg, 40503));
    entry.append(Instruction::alu(Opcode::Add, rLcg, rLcg, rTid));
    entry.append(Instruction::aluImm(Opcode::AddI, rLcg, rLcg,
                                     12345 + phase_index * 977));
    entry.append(Instruction::movi(rHotMask, aligned_mask(p.hotBytes)));
    entry.append(Instruction::movi(rFullMask,
                                   aligned_mask(p.footprintBytes)));
    entry.append(Instruction::movi(rTrip, spec.trip));
    entry.append(Instruction::movi(rAcc, 0));
    entry.append(Instruction::movi(rLoad, 1));
    entry.append(Instruction::movi(rShift, 13));
    entry.append(Instruction::jmp(loop.id()));

    // Loop body: loads first, then stores; the locality split assigns the
    // leading accesses to the hot subset.
    std::vector<Instruction> body;
    unsigned accesses = spec.loads + spec.stores;
    unsigned hot_accesses = static_cast<unsigned>(
        p.locality * static_cast<double>(accesses) + 0.5);

    unsigned slot = 0;
    for (unsigned i = 0; i < spec.loads; ++i, ++slot) {
        emitAddress(body, spec.pattern, slot < hot_accesses,
                    spec.seqStrideBytes, slot);
        body.push_back(Instruction::load(rLoad, rAddr, 0));
        body.push_back(Instruction::alu(Opcode::Add, rAcc, rAcc, rLoad));
    }
    for (unsigned i = 0; i < spec.stores; ++i, ++slot) {
        emitAddress(body, spec.pattern, slot < hot_accesses,
                    spec.seqStrideBytes, slot);
        body.push_back(Instruction::alu(Opcode::Add, rVal, rAcc, rCtr));
        body.push_back(Instruction::store(rAddr, 0, rVal));
    }

    // ALU filler to hit the profile's compute density.
    for (unsigned i = 0; i < spec.alus; ++i) {
        if (i % 4 == 3) {
            body.push_back(Instruction::alu(Opcode::Fma, rAcc, rVal,
                                            rCtr));
        } else {
            body.push_back(
                Instruction::aluImm(Opcode::AddI, rAcc, rAcc, 7));
        }
    }

    bool has_sync = spec.lockedRmw || spec.atomicUpdate;
    if (!has_sync) {
        body.push_back(Instruction::aluImm(Opcode::AddI, rCtr, rCtr, 1));
        for (const auto &inst : body)
            loop.append(inst);
        loop.append(Instruction::branch(Opcode::Blt, rCtr, rTrip,
                                        loop.id(), exit.id()));
        fn.loopTripCounts()[loop.id()] = spec.trip;
        exit.append(Instruction::simple(Opcode::Ret));
        return fn.id();
    }

    // Synchronizing phases: an outer transaction loop around an inner
    // single-block compute loop of syncEvery iterations. The inner loop
    // stays unrollable (so regions span several iterations) and the
    // critical section runs once per outer trip — the structure of a
    // real STAMP/WHISPER transaction. The outer counter reuses r5; sync
    // phases therefore address every access through the full-footprint
    // mask (locality is set by the footprint itself).
    BasicBlock &cs_block = fn.addBlock();    // b3: CS + outer latch
    BasicBlock &outer_head = fn.addBlock();  // b4: inner-counter reset

    unsigned every = std::max(1u, spec.syncEvery);
    unsigned outer_trips = std::max(1u, spec.trip / every);

    // Repurpose entry constants: r5 = outer counter, r7 = inner bound.
    auto &entry_insts = fn.block(0).insts();
    for (auto &inst : entry_insts) {
        if (inst.op == Opcode::Movi && inst.rd == rHotMask)
            inst.imm = static_cast<std::int64_t>(outer_trips);
        if (inst.op == Opcode::Movi && inst.rd == rTrip)
            inst.imm = static_cast<std::int64_t>(every);
    }
    entry_insts.back().target = outer_head.id();  // entry jmp -> b4
    outer_head.append(Instruction::movi(rCtr, 0));
    outer_head.append(Instruction::jmp(loop.id()));

    // The hot-mask register is gone: redirect hot accesses to the full
    // mask so the body stays well-formed.
    for (auto &inst : body) {
        if (inst.op == Opcode::And && inst.rs2 == rHotMask)
            inst.rs2 = rFullMask;
    }

    body.push_back(Instruction::aluImm(Opcode::AddI, rCtr, rCtr, 1));
    for (const auto &inst : body)
        loop.append(inst);
    loop.append(Instruction::branch(Opcode::Blt, rCtr, rTrip, loop.id(),
                                    cs_block.id()));
    fn.loopTripCounts()[loop.id()] = every;

    if (spec.lockedRmw) {
        // A transaction-sized critical section: a batch of commutative
        // increments over distinct shared cells (final sums independent
        // of interleaving), so the boundary stores the compiler adds
        // around the lock operations are amortized over real CS work.
        cs_block.append(Instruction::lockOp(Opcode::LockAcq, rShared, 0));
        for (unsigned cell = 0; cell < spec.csCells; ++cell) {
            std::int64_t off = 8 + 8 * static_cast<std::int64_t>(cell);
            cs_block.append(Instruction::load(rTmp, rShared, off));
            cs_block.append(
                Instruction::aluImm(Opcode::AddI, rTmp, rTmp, 1));
            cs_block.append(Instruction::store(rShared, off, rTmp));
            // Private work interleaved inside the transaction.
            cs_block.append(
                Instruction::aluImm(Opcode::AddI, rAcc, rAcc, 3));
            cs_block.append(
                Instruction::aluImm(Opcode::AddI, rAcc, rAcc, 5));
        }
        cs_block.append(Instruction::lockOp(Opcode::LockRel, rShared, 0));
    }
    if (spec.atomicUpdate) {
        // The atomic's cell must stay disjoint from every lockedRmw CS
        // cell (offsets 8..8*csCells): an unlocked AtomicAdd landing
        // between a CS's load and store of the same cell would be
        // overwritten, making the final sum interleaving-dependent and
        // breaking the generator's confluence contract. Offset 56 is
        // the last granule of the CS cells' cache line, clear of any
        // csCells <= 6 (enforced below).
        cs_block.append(Instruction::movi(rTmp, 1));
        cs_block.append(Instruction::atomicAdd(rShared, 56, rTmp));
    }
    cs_block.append(Instruction::aluImm(Opcode::AddI, rHotMask, rHotMask,
                                        -1));
    cs_block.append(Instruction::movi(rVal, 0));
    cs_block.append(Instruction::branch(Opcode::Bne, rHotMask, rVal,
                                        outer_head.id(), exit.id()));

    exit.append(Instruction::simple(Opcode::Ret));
    return fn.id();
}

} // namespace

Workload
generate(const WorkloadProfile &profile)
{
    LWSP_ASSERT(isPowerOf2(profile.footprintBytes) &&
                    isPowerOf2(profile.hotBytes),
                "footprint/hot sizes must be powers of two");
    for (const PhaseSpec &spec : profile.phases) {
        LWSP_ASSERT(!spec.lockedRmw || spec.csCells <= 6,
                    "csCells > 6 would overlap the shared atomic cell");
    }

    Workload w;
    w.profile = profile;
    w.module = std::make_unique<Module>();
    Module &m = *w.module;

    Function &main = m.addFunction("main");
    BasicBlock &b0 = main.addBlock();

    // Partition base: heapBase + tid * footprint (disjoint per thread).
    b0.append(Instruction::aluImm(
        Opcode::MulI, rBase, rTid,
        static_cast<std::int64_t>(profile.footprintBytes)));
    b0.append(Instruction::aluImm(
        Opcode::AddI, rBase, rBase,
        static_cast<std::int64_t>(Workload::heapBase)));
    b0.append(Instruction::movi(
        rShared, static_cast<std::int64_t>(Workload::sharedBase)));

    bool uses_lock = false;
    for (std::size_t i = 0; i < profile.phases.size(); ++i) {
        const PhaseSpec &spec = profile.phases[i];
        FuncId phase =
            buildPhase(m, profile, spec, static_cast<unsigned>(i));
        for (unsigned rep = 0; rep < spec.reps; ++rep)
            b0.append(Instruction::call(phase));
        uses_lock = uses_lock || spec.lockedRmw;

        // Rough dynamic-instruction estimate for warmup sizing.
        std::uint64_t body =
            10 + 6ull * (spec.loads + spec.stores) + spec.alus +
            ((spec.lockedRmw || spec.atomicUpdate)
                 ? (2 + 5ull * spec.csCells) / spec.syncEvery + 4
                 : 0);
        w.estimatedInstsPerThread +=
            static_cast<std::uint64_t>(spec.trip) * spec.reps * body;
    }
    b0.append(Instruction::simple(Opcode::Halt));

    if (uses_lock)
        w.lockAddrs.push_back(Workload::sharedBase);

    verifyModuleOrDie(m);
    return w;
}

Workload
generateByName(const std::string &name)
{
    return generate(profileByName(name));
}

std::unique_ptr<ir::Module>
loadModule(const std::string &what)
{
    if (what.size() > 4 && what.ends_with(".lir")) {
        std::ifstream in(what);
        if (!in)
            fatal("cannot open '", what, "'");
        std::stringstream ss;
        ss << in.rdbuf();
        // A hand-written file is outside input: its faults are the
        // user's, reported as errors rather than as simulator bugs.
        auto m = ir::parseModule(ss.str());
        auto problems = ir::verifyModule(*m);
        if (!problems.empty())
            fatal("'", what, "': ", problems.front());
        return m;
    }
    return generateByName(what).module;
}

std::string
diffAppState(const mem::MemImage &got, const mem::MemImage &want,
             unsigned threads, std::size_t footprint)
{
    std::ostringstream os;
    const Addr heap = Workload::heapBase;
    auto diffs = got.diffInRange(
        want, heap, heap + static_cast<Addr>(threads) * footprint);
    if (!diffs.empty()) {
        os << "heap differs from golden at 0x" << std::hex << diffs[0]
           << " (" << std::dec << diffs.size() << " words)";
        return os.str();
    }
    const Addr shared = Workload::sharedBase;
    diffs = got.diffInRange(want, shared, shared + 4096);
    if (!diffs.empty())
        os << "shared page differs from golden at 0x" << std::hex
           << diffs[0];
    return os.str();
}

} // namespace workloads
} // namespace lwsp
