#include "thread_context.hh"

namespace lwsp {
namespace cpu {

using namespace ir;

ThreadContext::ThreadContext(const compiler::CompiledProgram &program,
                             ThreadId tid, mem::MemImage &memory,
                             LockTable &locks, RegionAllocator &regions)
    : program_(program), tid_(tid), mem_(memory), locks_(locks),
      regions_(regions)
{
}

void
ThreadContext::reset(FuncId entry_func)
{
    pc_ = {entry_func, 0, 0};
    regs_.fill(0);
    // Spawn convention: r0 carries the thread id, r15 the stack pointer.
    regs_[0] = tid_;
    regs_[spReg] = stackBase + static_cast<Addr>(tid_) * stackStride;
    region_ = regions_.alloc();
    halted_ = false;
    instsExecuted_ = 0;
}

bool
ThreadContext::wouldBlock() const
{
    if (halted_)
        return false;
    const Instruction &inst = currentInst();
    if (inst.op != Opcode::LockAcq)
        return false;
    Addr addr = (regs_[inst.rs1] + static_cast<std::uint64_t>(inst.imm)) &
                ~7ull;
    return locks_.held(addr) && !locks_.heldBy(addr, tid_);
}

const Instruction &
ThreadContext::currentInst() const
{
    const Function &fn = program_.module->function(pc_.func);
    const BasicBlock &bb = fn.block(pc_.block);
    LWSP_ASSERT(pc_.idx < bb.insts().size(), "PC past end of block");
    return bb.insts()[pc_.idx];
}

void
ThreadContext::advance()
{
    ++pc_.idx;
}

ExecRecord
ThreadContext::baseRecord(const Instruction &inst) const
{
    ExecRecord rec;
    rec.op = inst.op;
    rec.thread = tid_;
    rec.region = region_;
    rec.srcRegs = readRegs(inst);
    rec.aluLatency = executeLatency(inst.op);
    return rec;
}

StepStatus
ThreadContext::step(ExecRecord &rec)
{
    if (halted_)
        return StepStatus::Halted;

    const Instruction &inst = currentInst();
    rec = baseRecord(inst);

    auto rs1 = [&] { return regs_[inst.rs1]; };
    auto rs2 = [&] { return regs_[inst.rs2]; };
    auto setRd = [&](std::uint64_t v) {
        regs_[inst.rd] = v;
        rec.dstReg = inst.rd;
    };

    switch (inst.op) {
      case Opcode::Movi:
        setRd(static_cast<std::uint64_t>(inst.imm));
        advance();
        break;
      case Opcode::Mov:
        setRd(rs1());
        advance();
        break;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Shl:
      case Opcode::Shr: {
        std::uint64_t a = rs1(), b = rs2(), v = 0;
        switch (inst.op) {
          case Opcode::Add: v = a + b; break;
          case Opcode::Sub: v = a - b; break;
          case Opcode::Mul: v = a * b; break;
          case Opcode::Div: v = b ? a / b : 0; break;
          case Opcode::And: v = a & b; break;
          case Opcode::Or:  v = a | b; break;
          case Opcode::Xor: v = a ^ b; break;
          case Opcode::Shl: v = a << (b & 63); break;
          case Opcode::Shr: v = a >> (b & 63); break;
          default: break;
        }
        setRd(v);
        advance();
        break;
      }
      case Opcode::AddI:
        setRd(rs1() + static_cast<std::uint64_t>(inst.imm));
        advance();
        break;
      case Opcode::MulI:
        setRd(rs1() * static_cast<std::uint64_t>(inst.imm));
        advance();
        break;
      case Opcode::Fma:
        setRd(rs1() * rs2() + regs_[inst.rd]);
        advance();
        break;
      case Opcode::Load: {
        Addr addr = rs1() + static_cast<std::uint64_t>(inst.imm);
        setRd(mem_.read(addr & ~7ull));
        rec.isLoad = true;
        rec.addr = addr & ~7ull;
        advance();
        break;
      }
      case Opcode::Store: {
        Addr addr = (rs1() + static_cast<std::uint64_t>(inst.imm)) & ~7ull;
        mem_.write(addr, rs2());
        rec.isStore = true;
        rec.addr = addr;
        rec.value = rs2();
        advance();
        break;
      }
      // Synchronization operations are *fused boundaries* (§III-D): the
      // thread ends its current region (broadcast rides behind the sync
      // op's own store on the FIFO path) and allocates a fresh ID at the
      // synchronization point itself, so the dense region-ID sequence
      // reflects the coherence order of racing atomics and lock
      // hand-offs. The sync op's store is tagged with the *new* region.
      case Opcode::AtomicAdd: {
        Addr addr = (rs1() + static_cast<std::uint64_t>(inst.imm)) & ~7ull;
        std::uint64_t v = mem_.read(addr) + rs2();
        mem_.write(addr, v);
        rec.isBoundary = true;
        rec.broadcastRegion = region_;
        region_ = regions_.alloc();
        rec.region = region_;
        rec.nextRegion = region_;
        rec.isLoad = true;
        rec.isStore = true;
        rec.addr = addr;
        rec.value = v;
        advance();
        break;
      }
      case Opcode::LockAcq: {
        Addr addr = (rs1() + static_cast<std::uint64_t>(inst.imm)) & ~7ull;
        if (!locks_.tryAcquire(addr, tid_))
            return StepStatus::Blocked;
        mem_.write(addr, static_cast<std::uint64_t>(tid_) + 1);
        rec.isBoundary = true;
        rec.broadcastRegion = region_;
        region_ = regions_.alloc();
        rec.region = region_;
        rec.nextRegion = region_;
        rec.isStore = true;
        rec.addr = addr;
        rec.value = static_cast<std::uint64_t>(tid_) + 1;
        advance();
        break;
      }
      case Opcode::LockRel: {
        Addr addr = (rs1() + static_cast<std::uint64_t>(inst.imm)) & ~7ull;
        locks_.release(addr, tid_);
        mem_.write(addr, 0);
        rec.isBoundary = true;
        rec.broadcastRegion = region_;
        region_ = regions_.alloc();
        rec.region = region_;
        rec.nextRegion = region_;
        rec.isStore = true;
        rec.addr = addr;
        rec.value = 0;
        advance();
        break;
      }
      case Opcode::Fence: {
        // No data store: ride the broadcast on a scratch-slot marker so
        // FIFO ordering with earlier stores is preserved.
        Addr slot = program_.layout.pcSlot(tid_) + 16;
        mem_.write(slot, 0);
        rec.isBoundary = true;
        rec.broadcastRegion = region_;
        region_ = regions_.alloc();
        rec.region = region_;
        rec.nextRegion = region_;
        rec.isStore = true;
        rec.addr = slot;
        rec.value = 0;
        advance();
        break;
      }
      case Opcode::Jmp:
        pc_.block = inst.target;
        pc_.idx = 0;
        break;
      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge: {
        bool taken = false;
        switch (inst.op) {
          case Opcode::Beq: taken = rs1() == rs2(); break;
          case Opcode::Bne: taken = rs1() != rs2(); break;
          case Opcode::Blt: taken = rs1() < rs2(); break;
          case Opcode::Bge: taken = rs1() >= rs2(); break;
          default: break;
        }
        rec.isBranch = true;
        pc_.block = taken ? inst.target : inst.fallthru;
        pc_.idx = 0;
        break;
      }
      case Opcode::Call: {
        // Push the return address into persisted stack memory.
        ProgramCounter ret = pc_;
        ++ret.idx;
        std::uint64_t sp = regs_[spReg] - 8;
        regs_[spReg] = sp;
        mem_.write(sp, encodePc(ret));
        rec.isStore = true;
        rec.addr = sp;
        rec.value = encodePc(ret);
        rec.dstReg = spReg;
        pc_ = {inst.callee, 0, 0};
        break;
      }
      case Opcode::Ret: {
        std::uint64_t sp = regs_[spReg];
        std::uint64_t word = mem_.read(sp);
        regs_[spReg] = sp + 8;
        rec.isLoad = true;
        rec.addr = sp;
        rec.dstReg = spReg;
        pc_ = decodePc(word);
        break;
      }
      case Opcode::Boundary: {
        // The PC-checkpointing store ending the current region; the
        // timing core broadcasts the region ID when this exits the
        // persist path. A fresh ID is taken immediately (§IV-B).
        std::uint32_t site = static_cast<std::uint32_t>(inst.imm);
        Addr slot = program_.layout.pcSlot(tid_);
        std::uint64_t word = site;
        if (hardenedCkpt_) {
            word = packCkptWord(
                site, ckptChecksum(mem_, program_.layout, tid_));
        }
        mem_.write(slot, word);
        rec.isStore = true;
        rec.isBoundary = true;
        rec.addr = slot;
        rec.value = word;
        rec.site = site;
        rec.region = region_;           // the boundary PC-store is the
        rec.broadcastRegion = region_;  // ended region's last store
        region_ = regions_.alloc();
        rec.nextRegion = region_;
        advance();
        break;
      }
      case Opcode::CkptStore: {
        Addr slot = program_.layout.regSlot(tid_, inst.rs1);
        mem_.write(slot, rs1());
        rec.isStore = true;
        rec.addr = slot;
        rec.value = rs1();
        advance();
        break;
      }
      case Opcode::Halt: {
        // Implicit final boundary: broadcast the current region so the
        // dense region-ID sequence never stalls peer WPQs (§IV-B), and
        // stamp the PC slot with the halt sentinel.
        Addr slot = program_.layout.pcSlot(tid_);
        mem_.write(slot, haltSite);
        rec.isStore = true;
        rec.isBoundary = true;
        rec.addr = slot;
        rec.value = haltSite;
        rec.site = haltSite;
        rec.region = region_;
        rec.broadcastRegion = region_;
        rec.isHalt = true;
        halted_ = true;
        break;
      }
      case Opcode::Nop:
        advance();
        break;
    }

    ++instsExecuted_;
    return StepStatus::Ok;
}

void
ThreadContext::recoverAt(std::uint32_t site_id, const mem::MemImage &pm)
{
    LWSP_ASSERT(site_id != haltSite, "recoverAt() on a halted thread");
    const compiler::BoundarySite &site = program_.site(site_id);

    // Resume immediately after the boundary instruction.
    pc_ = {site.func, site.block, site.instIndex + 1};

    // Restore registers from their PM checkpoint slots, then apply the
    // pruning recipes recorded for this boundary.
    for (Reg r = 0; r < numGprs; ++r)
        regs_[r] = pm.read(program_.layout.regSlot(tid_, r));
    for (const auto &recipe : site.recipes) {
        switch (recipe.kind) {
          case compiler::CkptRecipe::Kind::Const:
            regs_[recipe.reg] = static_cast<std::uint64_t>(recipe.imm);
            break;
          case compiler::CkptRecipe::Kind::AddSlot:
            regs_[recipe.reg] =
                pm.read(program_.layout.regSlot(tid_, recipe.src)) +
                static_cast<std::uint64_t>(recipe.imm);
            break;
        }
    }

    region_ = regions_.alloc();
    halted_ = false;
}

} // namespace cpu
} // namespace lwsp
