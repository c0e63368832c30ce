/**
 * @file
 * Interprocedural register liveness over LightIR.
 *
 * LightWSP checkpoints live-out registers at each region boundary, so the
 * compiler needs per-program-point liveness of the 16 architectural
 * registers. Calls are handled with function summaries computed to a
 * fixpoint:
 *  - funcUse(f): registers f may read before writing (live-in of entry);
 *  - funcDef(f): registers f (or its callees) may write;
 *  - funcLiveOut(f): registers live after any callsite of f (what a Ret
 *    must preserve).
 * r15 is the stack pointer by convention: Call/Ret implicitly use and
 * define it (return addresses live in persisted stack memory).
 */

#ifndef LWSP_COMPILER_LIVENESS_HH
#define LWSP_COMPILER_LIVENESS_HH

#include <cstdint>
#include <vector>

#include "ir/program.hh"

namespace lwsp {
namespace compiler {

using ir::RegMask;
using ir::regBit;
using ir::spReg;

constexpr RegMask allRegs = (1u << ir::numGprs) - 1;

class ModuleLiveness
{
  public:
    /** Runs the whole-module fixpoint immediately. */
    explicit ModuleLiveness(const ir::Module &m);

    RegMask liveIn(ir::FuncId f, ir::BlockId b) const
    {
        return liveIn_.at(f).at(b);
    }
    RegMask liveOut(ir::FuncId f, ir::BlockId b) const
    {
        return liveOut_.at(f).at(b);
    }

    /**
     * Registers live immediately before instruction @p inst_index of block
     * @p b (backward walk from the block's live-out).
     */
    RegMask liveBefore(ir::FuncId f, ir::BlockId b,
                       std::size_t inst_index) const;

    /** Registers live immediately after instruction @p inst_index. */
    RegMask liveAfter(ir::FuncId f, ir::BlockId b,
                      std::size_t inst_index) const;

    RegMask funcUse(ir::FuncId f) const { return funcUse_.at(f); }
    RegMask funcDef(ir::FuncId f) const { return funcDef_.at(f); }
    RegMask funcLiveOut(ir::FuncId f) const { return funcLiveOut_.at(f); }

    /** Per-instruction operand masks given the current summaries. */
    RegMask instUse(ir::FuncId f, const ir::Instruction &inst) const;
    RegMask instDef(const ir::Instruction &inst) const;

  private:
    void recompute();

    const ir::Module &module_;
    std::vector<std::vector<RegMask>> liveIn_;
    std::vector<std::vector<RegMask>> liveOut_;
    std::vector<RegMask> funcUse_;
    std::vector<RegMask> funcDef_;
    std::vector<RegMask> funcLiveOut_;
};

} // namespace compiler
} // namespace lwsp

#endif // LWSP_COMPILER_LIVENESS_HH
