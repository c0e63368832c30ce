#include "liveness.hh"

#include "ir/cfg.hh"

namespace lwsp {
namespace compiler {

using namespace ir;

ModuleLiveness::ModuleLiveness(const Module &m)
    : module_(m), liveIn_(m.numFunctions()), liveOut_(m.numFunctions()),
      funcUse_(m.numFunctions(), 0), funcDef_(m.numFunctions(), 0),
      funcLiveOut_(m.numFunctions(), 0)
{
    for (FuncId f = 0; f < m.numFunctions(); ++f) {
        liveIn_[f].assign(m.function(f).numBlocks(), 0);
        liveOut_[f].assign(m.function(f).numBlocks(), 0);
    }
    recompute();
}

RegMask
ModuleLiveness::instUse(FuncId f, const Instruction &inst) const
{
    RegMask use = readRegs(inst);
    if (inst.op == Opcode::Call)
        use |= funcUse_.at(inst.callee);
    else if (inst.op == Opcode::Ret)
        use |= funcLiveOut_.at(f);
    return use;
}

RegMask
ModuleLiveness::instDef(const Instruction &inst) const
{
    const OpInfo &row = opInfo(inst.op);
    RegMask def = (row.has(WritesRd) ? regBit(inst.rd) : 0) |
                  (row.has(TouchesSp) ? regBit(spReg) : 0);
    if (inst.op == Opcode::Call)
        def |= funcDef_.at(inst.callee);
    return def;
}

void
ModuleLiveness::recompute()
{
    bool module_changed = true;
    while (module_changed) {
        module_changed = false;

        for (FuncId f = 0; f < module_.numFunctions(); ++f) {
            const Function &fn = module_.function(f);
            Cfg cfg(fn);

            // Intra-function backward fixpoint using current summaries.
            bool changed = true;
            while (changed) {
                changed = false;
                const auto &rpo = cfg.reversePostOrder();
                for (auto it = rpo.rbegin(); it != rpo.rend(); ++it) {
                    BlockId b = *it;
                    RegMask out = 0;
                    for (BlockId s : cfg.successors(b))
                        out |= liveIn_[f][s];
                    RegMask in = out;
                    const auto &insts = fn.block(b).insts();
                    for (auto ri = insts.rbegin(); ri != insts.rend();
                         ++ri) {
                        in &= ~instDef(*ri);
                        in |= instUse(f, *ri);
                    }
                    if (out != liveOut_[f][b] || in != liveIn_[f][b]) {
                        liveOut_[f][b] = out;
                        liveIn_[f][b] = in;
                        changed = true;
                        module_changed = true;
                    }
                }
            }

            // Update summaries from the fresh intra-function results.
            RegMask new_use = funcUse_[f] | liveIn_[f][0];
            RegMask new_def = funcDef_[f];
            for (BlockId b = 0; b < fn.numBlocks(); ++b) {
                for (const auto &inst : fn.block(b).insts())
                    new_def |= instDef(inst);
            }
            if (new_use != funcUse_[f] || new_def != funcDef_[f]) {
                funcUse_[f] = new_use;
                funcDef_[f] = new_def;
                module_changed = true;
            }

            // Accumulate callee live-out contributions at each callsite.
            for (BlockId b = 0; b < fn.numBlocks(); ++b) {
                const auto &insts = fn.block(b).insts();
                for (std::size_t i = 0; i < insts.size(); ++i) {
                    if (insts[i].op != Opcode::Call)
                        continue;
                    RegMask after = liveAfter(f, b, i);
                    FuncId callee = insts[i].callee;
                    RegMask merged = funcLiveOut_[callee] | after;
                    if (merged != funcLiveOut_[callee]) {
                        funcLiveOut_[callee] = merged;
                        module_changed = true;
                    }
                }
            }
        }
    }
}

RegMask
ModuleLiveness::liveAfter(FuncId f, BlockId b, std::size_t inst_index) const
{
    const Function &fn = module_.function(f);
    const auto &insts = fn.block(b).insts();
    LWSP_ASSERT(inst_index < insts.size(), "liveAfter: bad index");
    RegMask live = liveOut_[f][b];
    for (std::size_t i = insts.size(); i-- > inst_index + 1;) {
        live &= ~instDef(insts[i]);
        live |= instUse(f, insts[i]);
    }
    return live;
}

RegMask
ModuleLiveness::liveBefore(FuncId f, BlockId b,
                           std::size_t inst_index) const
{
    const Function &fn = module_.function(f);
    const auto &insts = fn.block(b).insts();
    LWSP_ASSERT(inst_index < insts.size(), "liveBefore: bad index");
    RegMask live = liveAfter(f, b, inst_index);
    live &= ~instDef(insts[inst_index]);
    live |= instUse(f, insts[inst_index]);
    return live;
}

} // namespace compiler
} // namespace lwsp
