/**
 * @file
 * LightIR program structure: Instruction, BasicBlock, Function, Module.
 *
 * Blocks are stored by index inside their function; branch targets and the
 * implicit fallthrough of conditional branches reference block indices.
 * A conditional branch falls through to the block stored in its `fallthru`
 * field (kept explicit so block order can be permuted safely).
 */

#ifndef LWSP_IR_PROGRAM_HH
#define LWSP_IR_PROGRAM_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "ir/opcode.hh"

namespace lwsp {
namespace ir {

/** Index of a basic block within its function. */
using BlockId = std::uint32_t;
/** Index of a function within its module. */
using FuncId = std::uint32_t;
/** An architectural register number in [0, numGprs). */
using Reg = std::uint8_t;

constexpr BlockId invalidBlock = ~0u;
constexpr FuncId invalidFunc = ~0u;

/** Bitmask over the 16 architectural registers. */
using RegMask = std::uint32_t;

/** Stack-pointer register reserved by the Call/Ret convention. */
constexpr Reg spReg = 15;

constexpr RegMask
regBit(Reg r)
{
    return 1u << r;
}

/**
 * One LightIR instruction. A single POD covers every opcode; unused fields
 * are zero. See Opcode documentation for per-opcode operand meaning.
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    Reg rd = 0;       ///< destination register
    Reg rs1 = 0;      ///< first source (also address base for memory ops)
    Reg rs2 = 0;      ///< second source (also store value)
    std::int64_t imm = 0;   ///< immediate / address offset
    BlockId target = invalidBlock;   ///< branch target
    BlockId fallthru = invalidBlock; ///< conditional-branch fallthrough
    FuncId callee = invalidFunc;     ///< call target

    static Instruction
    movi(Reg rd, std::int64_t imm)
    {
        Instruction i;
        i.op = Opcode::Movi;
        i.rd = rd;
        i.imm = imm;
        return i;
    }

    static Instruction
    alu(Opcode op, Reg rd, Reg rs1, Reg rs2)
    {
        LWSP_ASSERT(writesReg(op), "alu() with non-writing opcode");
        Instruction i;
        i.op = op;
        i.rd = rd;
        i.rs1 = rs1;
        i.rs2 = rs2;
        return i;
    }

    static Instruction
    aluImm(Opcode op, Reg rd, Reg rs1, std::int64_t imm)
    {
        Instruction i;
        i.op = op;
        i.rd = rd;
        i.rs1 = rs1;
        i.imm = imm;
        return i;
    }

    static Instruction
    load(Reg rd, Reg base, std::int64_t offset)
    {
        Instruction i;
        i.op = Opcode::Load;
        i.rd = rd;
        i.rs1 = base;
        i.imm = offset;
        return i;
    }

    static Instruction
    store(Reg base, std::int64_t offset, Reg value)
    {
        Instruction i;
        i.op = Opcode::Store;
        i.rs1 = base;
        i.imm = offset;
        i.rs2 = value;
        return i;
    }

    static Instruction
    jmp(BlockId target)
    {
        Instruction i;
        i.op = Opcode::Jmp;
        i.target = target;
        return i;
    }

    static Instruction
    branch(Opcode op, Reg rs1, Reg rs2, BlockId target, BlockId fallthru)
    {
        LWSP_ASSERT(isConditionalBranch(op), "branch() with non-branch");
        Instruction i;
        i.op = op;
        i.rs1 = rs1;
        i.rs2 = rs2;
        i.target = target;
        i.fallthru = fallthru;
        return i;
    }

    static Instruction
    call(FuncId callee)
    {
        Instruction i;
        i.op = Opcode::Call;
        i.callee = callee;
        return i;
    }

    static Instruction
    simple(Opcode op)
    {
        Instruction i;
        i.op = op;
        return i;
    }

    static Instruction
    atomicAdd(Reg base, std::int64_t offset, Reg value)
    {
        Instruction i;
        i.op = Opcode::AtomicAdd;
        i.rs1 = base;
        i.imm = offset;
        i.rs2 = value;
        return i;
    }

    static Instruction
    lockOp(Opcode op, Reg base, std::int64_t offset)
    {
        LWSP_ASSERT(op == Opcode::LockAcq || op == Opcode::LockRel,
                    "lockOp() with non-lock opcode");
        Instruction i;
        i.op = op;
        i.rs1 = base;
        i.imm = offset;
        return i;
    }

    static Instruction
    ckptStore(Reg reg)
    {
        Instruction i;
        i.op = Opcode::CkptStore;
        i.rs1 = reg;
        return i;
    }
};

/**
 * Registers @p inst reads by itself, from its instruction-table row: the
 * register operands, rd when the row reads it (Fma) and sp for Call/Ret.
 * What a callee or a caller reads beyond that is liveness's business.
 */
inline RegMask
readRegs(const Instruction &inst)
{
    // Branch-free: the interpreter calls this for every instruction, and
    // a branch on the row's bits would mispredict as the opcode changes.
    const OpInfo &row = opInfo(inst.op);
    auto all = [](bool on) { return RegMask{0} - on; };
    return (regBit(inst.rs1) & all(row.readsRs1)) |
           (regBit(inst.rs2) & all(row.readsRs2)) |
           (regBit(inst.rd) & all(row.has(ReadsRd))) |
           (regBit(spReg) & all(row.has(TouchesSp)));
}

/** A straight-line sequence of instructions ending in one terminator. */
class BasicBlock
{
  public:
    explicit BasicBlock(BlockId id) : id_(id) {}

    BlockId id() const { return id_; }
    std::vector<Instruction> &insts() { return insts_; }
    const std::vector<Instruction> &insts() const { return insts_; }

    void append(Instruction inst) { insts_.push_back(inst); }

    /** The terminator (last instruction); panics if the block is empty. */
    const Instruction &
    terminator() const
    {
        LWSP_ASSERT(!insts_.empty(), "terminator() of empty block");
        return insts_.back();
    }

    bool
    hasTerminator() const
    {
        return !insts_.empty() && isTerminator(insts_.back().op);
    }

    /** Successor block ids implied by the terminator. */
    std::vector<BlockId>
    successors() const
    {
        std::vector<BlockId> out;
        if (!hasTerminator())
            return out;
        const Instruction &t = terminator();
        if (t.op == Opcode::Jmp) {
            out.push_back(t.target);
        } else if (isConditionalBranch(t.op)) {
            out.push_back(t.target);
            if (t.fallthru != t.target)
                out.push_back(t.fallthru);
        }
        // Ret/Halt: no intra-function successors.
        return out;
    }

  private:
    BlockId id_;
    std::vector<Instruction> insts_;
};

/**
 * A function: blocks indexed by BlockId with block 0 as entry, plus
 * generator-provided metadata (loop trip counts for the unrolling pass).
 */
class Function
{
  public:
    Function(FuncId id, std::string name) : id_(id), name_(std::move(name)) {}

    FuncId id() const { return id_; }
    const std::string &name() const { return name_; }

    BasicBlock &
    addBlock()
    {
        blocks_.push_back(
            std::make_unique<BasicBlock>(static_cast<BlockId>(
                blocks_.size())));
        return *blocks_.back();
    }

    BasicBlock &
    block(BlockId id)
    {
        LWSP_ASSERT(id < blocks_.size(), "bad block id ", id);
        return *blocks_[id];
    }

    const BasicBlock &
    block(BlockId id) const
    {
        LWSP_ASSERT(id < blocks_.size(), "bad block id ", id);
        return *blocks_[id];
    }

    std::size_t numBlocks() const { return blocks_.size(); }

    /**
     * Known trip count for the loop headed at @p header, if the workload
     * generator recorded one (enables non-speculative unrolling).
     */
    std::map<BlockId, std::uint64_t> &loopTripCounts()
    {
        return loop_trip_counts_;
    }
    const std::map<BlockId, std::uint64_t> &loopTripCounts() const
    {
        return loop_trip_counts_;
    }

    /** Total static instruction count across all blocks. */
    std::size_t
    instCount() const
    {
        std::size_t n = 0;
        for (const auto &b : blocks_)
            n += b->insts().size();
        return n;
    }

  private:
    FuncId id_;
    std::string name_;
    std::vector<std::unique_ptr<BasicBlock>> blocks_;
    std::map<BlockId, std::uint64_t> loop_trip_counts_;
};

/** A whole program: functions (function 0 is the entry) + initial data. */
class Module
{
  public:
    Module() = default;

    Function &
    addFunction(const std::string &name)
    {
        functions_.push_back(std::make_unique<Function>(
            static_cast<FuncId>(functions_.size()), name));
        return *functions_.back();
    }

    Function &
    function(FuncId id)
    {
        LWSP_ASSERT(id < functions_.size(), "bad function id ", id);
        return *functions_[id];
    }

    const Function &
    function(FuncId id) const
    {
        LWSP_ASSERT(id < functions_.size(), "bad function id ", id);
        return *functions_[id];
    }

    /** Find a function by name; returns invalidFunc when absent. */
    FuncId
    findFunction(const std::string &name) const
    {
        for (const auto &f : functions_) {
            if (f->name() == name)
                return f->id();
        }
        return invalidFunc;
    }

    std::size_t numFunctions() const { return functions_.size(); }

    /** Initial (addr, value) memory contents loaded before execution. */
    std::vector<std::pair<Addr, std::uint64_t>> &initialData()
    {
        return initial_data_;
    }
    const std::vector<std::pair<Addr, std::uint64_t>> &initialData() const
    {
        return initial_data_;
    }

    std::size_t
    instCount() const
    {
        std::size_t n = 0;
        for (const auto &f : functions_)
            n += f->instCount();
        return n;
    }

  private:
    std::vector<std::unique_ptr<Function>> functions_;
    std::vector<std::pair<Addr, std::uint64_t>> initial_data_;
};

} // namespace ir
} // namespace lwsp

#endif // LWSP_IR_PROGRAM_HH
