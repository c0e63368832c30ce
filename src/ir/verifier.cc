#include "verifier.hh"

#include <sstream>

namespace lwsp {
namespace ir {

namespace {

void
checkReg(Reg r, const std::string &where, std::vector<std::string> &out)
{
    if (r >= numGprs) {
        std::ostringstream os;
        os << where << ": register r" << static_cast<unsigned>(r)
           << " out of range";
        out.push_back(os.str());
    }
}

} // namespace

std::vector<std::string>
verifyModule(const Module &m)
{
    std::vector<std::string> problems;

    if (m.numFunctions() == 0) {
        problems.push_back("module has no functions");
        return problems;
    }

    for (FuncId f = 0; f < m.numFunctions(); ++f) {
        const Function &fn = m.function(f);
        if (fn.numBlocks() == 0) {
            problems.push_back("function @" + fn.name() + " has no blocks");
            continue;
        }
        for (BlockId b = 0; b < fn.numBlocks(); ++b) {
            const BasicBlock &bb = fn.block(b);
            std::ostringstream loc;
            loc << '@' << fn.name() << " block " << b;
            const std::string where = loc.str();

            if (bb.insts().empty()) {
                problems.push_back(where + ": empty block");
                continue;
            }
            if (!isTerminator(bb.terminator().op)) {
                problems.push_back(where + ": missing terminator");
            }
            for (std::size_t i = 0; i < bb.insts().size(); ++i) {
                const Instruction &inst = bb.insts()[i];
                bool last = (i + 1 == bb.insts().size());
                if (isTerminator(inst.op) && !last) {
                    problems.push_back(where +
                                       ": terminator before end of block");
                }
                for (Operand x : opInfo(inst.op).form()) {
                    switch (x) {
                      case Operand::Rd:
                        checkReg(inst.rd, where, problems);
                        break;
                      case Operand::Rs1:
                      case Operand::Mem:
                        checkReg(inst.rs1, where, problems);
                        break;
                      case Operand::Rs2:
                        checkReg(inst.rs2, where, problems);
                        break;
                      case Operand::Imm:
                        break;
                      case Operand::Target:
                        if (inst.target >= fn.numBlocks())
                            problems.push_back(
                                where + ": branch target out of range");
                        break;
                      case Operand::Fallthru:
                        if (inst.fallthru >= fn.numBlocks())
                            problems.push_back(
                                where + ": fallthrough out of range");
                        break;
                      case Operand::Callee:
                        if (inst.callee >= m.numFunctions())
                            problems.push_back(where +
                                               ": callee out of range");
                        break;
                      case Operand::Kind:
                        if (!isValidBoundaryKind(inst.rd))
                            problems.push_back(
                                where + ": invalid boundary kind " +
                                std::to_string(inst.rd));
                        break;
                    }
                }
            }
        }
    }
    return problems;
}

void
verifyModuleOrDie(const Module &m)
{
    auto problems = verifyModule(m);
    if (!problems.empty())
        panic("invalid module: ", problems.front(), " (and ",
              problems.size() - 1, " more)");
}

} // namespace ir
} // namespace lwsp
