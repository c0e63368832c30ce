/**
 * @file
 * LightIR opcode set.
 *
 * LightIR is a small RISC-like register machine standing in for post-RA
 * LLVM MIR: 16 physical general-purpose registers, explicit loads/stores,
 * branches between basic blocks, calls, and the synchronization operations
 * (fence / atomic / lock) at which the LightWSP compiler must place region
 * boundaries (paper §III-D). Two opcodes exist only as compiler output:
 * Boundary (the PC-checkpointing store delimiting a region) and CkptStore
 * (a live-out register checkpoint store).
 *
 * The instruction set is declared once, as one OpInfo row per opcode:
 * mnemonic, operand list, flags and latency class. The predicates below,
 * the text printer and parser, the verifier, compiler liveness and the
 * core's read sets all read that row.
 */

#ifndef LWSP_IR_OPCODE_HH
#define LWSP_IR_OPCODE_HH

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <span>

namespace lwsp {
namespace ir {

/** Number of architectural general-purpose registers. */
constexpr unsigned numGprs = 16;

enum class Opcode : std::uint8_t
{
    // Data movement / arithmetic.
    Movi,   ///< rd = imm
    Mov,    ///< rd = rs1
    Add,    ///< rd = rs1 + rs2
    Sub,    ///< rd = rs1 - rs2
    Mul,    ///< rd = rs1 * rs2
    Div,    ///< rd = rs1 / rs2 (0 divisor yields 0)
    And,    ///< rd = rs1 & rs2
    Or,     ///< rd = rs1 | rs2
    Xor,    ///< rd = rs1 ^ rs2
    Shl,    ///< rd = rs1 << (rs2 & 63)
    Shr,    ///< rd = rs1 >> (rs2 & 63)
    AddI,   ///< rd = rs1 + imm
    MulI,   ///< rd = rs1 * imm
    Fma,    ///< rd = rs1 * rs2 + rd (models an FP pipe latency class)

    // Memory.
    Load,   ///< rd = mem[rs1 + imm]
    Store,  ///< mem[rs1 + imm] = rs2

    // Control flow (terminators, except Call).
    Jmp,    ///< goto block(target)
    Beq,    ///< if (rs1 == rs2) goto block(target) else fallthrough
    Bne,    ///< if (rs1 != rs2) goto block(target) else fallthrough
    Blt,    ///< if (rs1 <  rs2) goto block(target) else fallthrough (unsigned)
    Bge,    ///< if (rs1 >= rs2) goto block(target) else fallthrough (unsigned)
    Call,   ///< call function(callee); not a terminator
    Ret,    ///< return to caller
    Halt,   ///< terminate the thread's program

    // Synchronization (compiler places region boundaries at these).
    Fence,      ///< full memory fence
    AtomicAdd,  ///< mem[rs1 + imm] += rs2, atomically
    LockAcq,    ///< acquire lock at address rs1 + imm (blocks if held)
    LockRel,    ///< release lock at address rs1 + imm

    // Compiler-inserted persistence instructions.
    Boundary,   ///< region end: PC-checkpointing store + region-ID bump
    CkptStore,  ///< checkpoint register rs1 to its slot in PM

    Nop,
};

/** Number of opcodes (rows of the instruction table). */
constexpr unsigned numOpcodes = static_cast<unsigned>(Opcode::Nop) + 1;

/** One operand of an instruction's text form. */
enum class Operand : std::uint8_t
{
    Rd,        ///< "rN": the destination register
    Rs1,       ///< "rN": the first source register
    Rs2,       ///< "rN": the second source register
    Imm,       ///< a signed immediate (Boundary: the site id)
    Mem,       ///< "[rN+imm]": base register rs1 plus offset imm
    Target,    ///< "bN": the branch target block
    Fallthru,  ///< "bN": the conditional branch's fallthrough block
    Callee,    ///< "@name": the called function
    Kind,      ///< a BoundaryKind name, carried in rd
};

/** An opcode's properties: bit flags of OpInfo::flags. */
enum OpFlag : std::uint8_t
{
    WritesRd = 1u << 0,      ///< writes its destination register
    ReadsRd = 1u << 1,       ///< also reads rd (Fma's accumulator)
    TouchesSp = 1u << 2,     ///< reads and writes sp (Call/Ret)
    Terminator = 1u << 3,    ///< ends a basic block
    CondBranch = 1u << 4,    ///< conditional branch (has a fallthrough)
    Sync = 1u << 5,          ///< synchronization operation (§III-D)
    /** Puts an entry on the persist path at run time: a data store, an
     *  atomic, a lock-word store, a checkpoint store or Call's
     *  return-address push. Boundary PC-stores are counted apart, in
     *  the store threshold's reserved slot. */
    PersistEntry = 1u << 6,
};

/**
 * One row of the instruction table: everything the printer, parser,
 * verifier, liveness and the core's dependence tracking know about an
 * opcode. Execution semantics live in ThreadContext::step and
 * constprop; the static checker (src/analysis) keeps its own cases.
 */
struct OpInfo
{
    static constexpr unsigned maxOperands = 4;

    constexpr OpInfo(Opcode o, const char *mnemonic,
                     std::initializer_list<Operand> form, unsigned f,
                     unsigned lat)
        : op(o), name(mnemonic), flags(static_cast<std::uint8_t>(f)),
          latency(static_cast<std::uint8_t>(lat))
    {
        for (Operand x : form) {
            operands[numOperands++] = x;
            readsRs1 |= x == Operand::Rs1 || x == Operand::Mem;
            readsRs2 |= x == Operand::Rs2;
        }
    }

    constexpr bool has(OpFlag f) const { return (flags & f) != 0; }

    constexpr std::span<const Operand>
    form() const
    {
        return {operands, numOperands};
    }

    Opcode op;
    const char *name;                  ///< the mnemonic
    Operand operands[maxOperands]{};   ///< the text form, in order
    std::uint8_t numOperands = 0;
    std::uint8_t flags;                ///< OpFlag bits
    /** Execution latency class in cycles (loads get theirs from the
     *  memory system). */
    std::uint8_t latency;
    bool readsRs1 = false;  ///< derived: an Rs1 or Mem operand
    bool readsRs2 = false;  ///< derived: an Rs2 operand
};

namespace detail {

using enum Operand;

inline constexpr OpInfo opTable[] = {
    // {op, mnemonic, operands in text order, flags, latency}
    {Opcode::Movi, "movi", {Rd, Imm}, WritesRd, 1},
    {Opcode::Mov, "mov", {Rd, Rs1}, WritesRd, 1},
    {Opcode::Add, "add", {Rd, Rs1, Rs2}, WritesRd, 1},
    {Opcode::Sub, "sub", {Rd, Rs1, Rs2}, WritesRd, 1},
    {Opcode::Mul, "mul", {Rd, Rs1, Rs2}, WritesRd, 3},
    {Opcode::Div, "div", {Rd, Rs1, Rs2}, WritesRd, 12},
    {Opcode::And, "and", {Rd, Rs1, Rs2}, WritesRd, 1},
    {Opcode::Or, "or", {Rd, Rs1, Rs2}, WritesRd, 1},
    {Opcode::Xor, "xor", {Rd, Rs1, Rs2}, WritesRd, 1},
    {Opcode::Shl, "shl", {Rd, Rs1, Rs2}, WritesRd, 1},
    {Opcode::Shr, "shr", {Rd, Rs1, Rs2}, WritesRd, 1},
    {Opcode::AddI, "addi", {Rd, Rs1, Imm}, WritesRd, 1},
    {Opcode::MulI, "muli", {Rd, Rs1, Imm}, WritesRd, 3},
    {Opcode::Fma, "fma", {Rd, Rs1, Rs2}, WritesRd | ReadsRd, 4},
    {Opcode::Load, "load", {Rd, Mem}, WritesRd, 1},
    {Opcode::Store, "store", {Mem, Rs2}, PersistEntry, 1},
    {Opcode::Jmp, "jmp", {Target}, Terminator, 1},
    {Opcode::Beq, "beq", {Rs1, Rs2, Target, Fallthru},
     Terminator | CondBranch, 1},
    {Opcode::Bne, "bne", {Rs1, Rs2, Target, Fallthru},
     Terminator | CondBranch, 1},
    {Opcode::Blt, "blt", {Rs1, Rs2, Target, Fallthru},
     Terminator | CondBranch, 1},
    {Opcode::Bge, "bge", {Rs1, Rs2, Target, Fallthru},
     Terminator | CondBranch, 1},
    {Opcode::Call, "call", {Callee}, TouchesSp | PersistEntry, 1},
    {Opcode::Ret, "ret", {}, TouchesSp | Terminator, 1},
    {Opcode::Halt, "halt", {}, Terminator, 1},
    {Opcode::Fence, "fence", {}, Sync, 1},
    {Opcode::AtomicAdd, "atomicadd", {Mem, Rs2}, Sync | PersistEntry, 1},
    {Opcode::LockAcq, "lockacq", {Mem}, Sync | PersistEntry, 1},
    {Opcode::LockRel, "lockrel", {Mem}, Sync | PersistEntry, 1},
    {Opcode::Boundary, "boundary", {Kind, Imm}, 0, 1},
    {Opcode::CkptStore, "ckptstore", {Rs1}, PersistEntry, 1},
    {Opcode::Nop, "nop", {}, 0, 1},
};

static_assert(std::size(opTable) == numOpcodes,
              "one instruction-table row per Opcode");
static_assert([] {
    for (unsigned i = 0; i < numOpcodes; ++i) {
        if (opTable[i].op != static_cast<Opcode>(i))
            return false;
    }
    return true;
}(), "instruction-table rows follow the Opcode enum's order");

} // namespace detail

/** The instruction-table row of @p op. */
constexpr const OpInfo &
opInfo(Opcode op)
{
    return detail::opTable[static_cast<std::size_t>(op)];
}

/** @return true if @p op writes a destination register. */
constexpr bool writesReg(Opcode op) { return opInfo(op).has(WritesRd); }

/** @return true if @p op ends a basic block. */
constexpr bool isTerminator(Opcode op) { return opInfo(op).has(Terminator); }

/** @return true if @p op is a conditional branch (has a fallthrough). */
constexpr bool
isConditionalBranch(Opcode op)
{
    return opInfo(op).has(CondBranch);
}

/** @return true if @p op is a synchronization operation (§III-D). */
constexpr bool isSynchronization(Opcode op) { return opInfo(op).has(Sync); }

/** Execution latency class in cycles for the timing model. */
constexpr unsigned executeLatency(Opcode op) { return opInfo(op).latency; }

/** Stable mnemonic for printing/parsing. */
constexpr const char *opcodeName(Opcode op) { return opInfo(op).name; }

/** Parse a mnemonic; returns Nop and sets @p ok false on failure. */
Opcode opcodeFromName(const char *mnemonic, bool &ok);

/**
 * Why a Boundary instruction exists (§III-D placement policy). The kind
 * rides in the instruction's rd field, so it is serialized with the
 * module and validated by the verifier; Split boundaries are the only
 * region-combining merge candidates.
 */
enum class BoundaryKind : std::uint8_t
{
    FuncEntry = 0,
    FuncExit,
    CallBefore,
    CallAfter,
    LoopHeader,
    Sync,
    Split,
};

/** Number of valid BoundaryKind values (raw kinds must be below this). */
constexpr unsigned numBoundaryKinds = 7;

/** @return true if @p raw (a Boundary's rd field) names a valid kind. */
constexpr bool
isValidBoundaryKind(std::uint8_t raw)
{
    return raw < numBoundaryKinds;
}

/** Stable name for printing/parsing (e.g. "func-entry"). */
const char *boundaryKindName(BoundaryKind k);

/** Parse a kind name; sets @p ok false on failure. */
BoundaryKind boundaryKindFromName(const char *name, bool &ok);

} // namespace ir
} // namespace lwsp

#endif // LWSP_IR_OPCODE_HH
