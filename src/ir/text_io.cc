#include "text_io.hh"

#include <cctype>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/parse.hh"

namespace lwsp {
namespace ir {

std::string
formatInstruction(const Module &m, const Instruction &inst)
{
    std::ostringstream os;
    const OpInfo &row = opInfo(inst.op);
    os << row.name;
    auto reg = [&](Reg r) { os << 'r' << static_cast<unsigned>(r); };
    const char *sep = " ";
    for (Operand x : row.form()) {
        os << sep;
        sep = ", ";
        switch (x) {
          case Operand::Rd: reg(inst.rd); break;
          case Operand::Rs1: reg(inst.rs1); break;
          case Operand::Rs2: reg(inst.rs2); break;
          case Operand::Imm: os << inst.imm; break;
          case Operand::Mem:
            // Always emit '+' (even for negative offsets, "[r2+-8]") so
            // the parser can split on it unconditionally.
            os << '[';
            reg(inst.rs1);
            os << '+' << inst.imm << ']';
            break;
          case Operand::Target: os << 'b' << inst.target; break;
          case Operand::Fallthru: os << 'b' << inst.fallthru; break;
          case Operand::Callee:
            os << '@' << m.function(inst.callee).name();
            break;
          case Operand::Kind:
            // A Boundary's kind (rd) and site id (imm) are recovery
            // metadata: dropping them in the text form would change what
            // the program means.
            os << boundaryKindName(static_cast<BoundaryKind>(inst.rd));
            break;
        }
    }
    return os.str();
}

void
printModule(const Module &m, std::ostream &os)
{
    for (FuncId f = 0; f < m.numFunctions(); ++f) {
        const Function &fn = m.function(f);
        os << "func @" << fn.name() << '\n';
        for (const auto &[header, trips] : fn.loopTripCounts())
            os << "  trip b" << header << ' ' << trips << '\n';
        for (BlockId b = 0; b < fn.numBlocks(); ++b) {
            os << "block " << b << ":\n";
            for (const auto &inst : fn.block(b).insts())
                os << "    " << formatInstruction(m, inst) << '\n';
        }
    }
    for (const auto &[addr, value] : m.initialData())
        os << "data 0x" << std::hex << addr << std::dec << ' ' << value
           << '\n';
}

std::string
moduleToString(const Module &m)
{
    std::ostringstream os;
    printModule(m, os);
    return os.str();
}

namespace {

/** Splits a line into tokens at whitespace, ',' and ':'; a memory
 *  operand "[r2+8]" stays one token. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : line.substr(0, line.find(';'))) {
        if (std::isspace(static_cast<unsigned char>(c)) || c == ',' ||
            c == ':') {
            if (!cur.empty())
                out.push_back(std::move(cur));
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (!cur.empty())
        out.push_back(std::move(cur));
    return out;
}

struct PendingCall
{
    FuncId func;
    BlockId block;
    std::size_t inst_index;
    std::string callee_name;
    int line_no;
};

[[noreturn]] void
parseError(int line_no, const std::string &msg)
{
    fatal("IR parse error at line ", line_no, ": ", msg);
}

/**
 * A whole token as a number: an optional '-' (when @p negative_ok), then
 * decimal digits or 0x and hex digits. Returns its two's-complement bits;
 * a negative value reaches down to INT64_MIN.
 */
std::uint64_t
parseNumber(const std::string &tok, int line_no, bool negative_ok)
{
    std::string_view digits = tok;
    const bool neg = negative_ok && digits.starts_with('-');
    if (neg)
        digits.remove_prefix(1);
    const bool hex = digits.starts_with("0x");
    std::uint64_t mag = 0;
    if (!parseUnsigned(digits.substr(hex ? 2 : 0), mag, hex ? 16 : 10) ||
        (neg && mag > 1ull << 63))
        parseError(line_no, "expected number, got '" + tok + "'");
    return neg ? 0 - mag : mag;
}

std::int64_t
parseImm(const std::string &tok, int line_no)
{
    std::uint64_t v = parseNumber(tok, line_no, true);
    if (!tok.starts_with('-') &&
        v > static_cast<std::uint64_t>(INT64_MAX))
        parseError(line_no, "immediate out of range: " + tok);
    return static_cast<std::int64_t>(v);
}

Reg
parseReg(const std::string &tok, int line_no)
{
    unsigned v = 0;
    if (!tok.starts_with('r') ||
        !parseUnsigned(std::string_view(tok).substr(1), v))
        parseError(line_no, "expected register, got '" + tok + "'");
    if (v >= numGprs)
        parseError(line_no, "register out of range: " + tok);
    return static_cast<Reg>(v);
}

/** A memory operand "[rN+imm]" into @p inst's rs1 and imm. */
void
parseMem(const std::string &tok, int line_no, Instruction &inst)
{
    const std::size_t plus = tok.find('+');
    if (!tok.starts_with('[') || !tok.ends_with(']') ||
        plus == std::string::npos)
        parseError(line_no, "expected '[rN+imm]', got '" + tok + "'");
    inst.rs1 = parseReg(tok.substr(1, plus - 1), line_no);
    inst.imm = parseImm(tok.substr(plus + 1, tok.size() - plus - 2),
                        line_no);
}

BlockId
parseBlockRef(const std::string &tok, int line_no)
{
    BlockId b = 0;
    if (!tok.starts_with('b') ||
        !parseUnsigned(std::string_view(tok).substr(1), b))
        parseError(line_no, "expected block ref, got '" + tok + "'");
    return b;
}

} // namespace

std::unique_ptr<Module>
parseModule(const std::string &text)
{
    auto m = std::make_unique<Module>();
    Function *fn = nullptr;
    BasicBlock *bb = nullptr;
    std::vector<PendingCall> pending_calls;

    std::istringstream in(text);
    std::string line;
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        auto toks = tokenize(line);
        if (toks.empty())
            continue;

        if (toks[0] == "func") {
            if (toks.size() != 2 || toks[1].empty() || toks[1][0] != '@')
                parseError(line_no, "expected 'func @name'");
            if (m->findFunction(toks[1].substr(1)) != invalidFunc)
                parseError(line_no, "function " + toks[1] + " repeats");
            fn = &m->addFunction(toks[1].substr(1));
            bb = nullptr;
            continue;
        }
        if (toks[0] == "trip") {
            if (!fn || toks.size() != 3)
                parseError(line_no, "expected 'trip bN count'");
            fn->loopTripCounts()[parseBlockRef(toks[1], line_no)] =
                parseNumber(toks[2], line_no, false);
            continue;
        }
        if (toks[0] == "block") {
            if (!fn)
                parseError(line_no, "block outside function");
            BlockId want = 0;
            if (toks.size() != 2 || !parseUnsigned(toks[1], want))
                parseError(line_no, "expected 'block N:'");
            // Blocks are numbered densely: the next new one, or one to
            // reopen.
            if (want > fn->numBlocks())
                parseError(line_no, "block " + toks[1] + " skips block " +
                                        std::to_string(fn->numBlocks()));
            bb = want == fn->numBlocks() ? &fn->addBlock()
                                         : &fn->block(want);
            continue;
        }
        if (toks[0] == "data") {
            if (toks.size() != 3)
                parseError(line_no, "expected 'data addr value'");
            m->initialData().emplace_back(
                parseNumber(toks[1], line_no, false),
                parseNumber(toks[2], line_no, true));
            continue;
        }

        if (!bb)
            parseError(line_no, "instruction outside block");

        bool ok = false;
        Opcode op = opcodeFromName(toks[0].c_str(), ok);
        if (!ok)
            parseError(line_no, "unknown opcode '" + toks[0] + "'");

        const OpInfo &row = opInfo(op);
        Instruction inst;
        inst.op = op;
        // One token per operand. Boundary's operands may be left off for
        // hand-written and legacy modules ("boundary" is func-entry at
        // site 0); printModule always emits both.
        const std::size_t have = toks.size() - 1;
        if (have != row.numOperands &&
            !(op == Opcode::Boundary && have < row.numOperands))
            parseError(line_no, "wrong operand count for " + toks[0]);
        for (std::size_t i = 0; i < have; ++i) {
            const std::string &tok = toks[i + 1];
            switch (row.operands[i]) {
              case Operand::Rd: inst.rd = parseReg(tok, line_no); break;
              case Operand::Rs1: inst.rs1 = parseReg(tok, line_no); break;
              case Operand::Rs2: inst.rs2 = parseReg(tok, line_no); break;
              case Operand::Imm: inst.imm = parseImm(tok, line_no); break;
              case Operand::Mem: parseMem(tok, line_no, inst); break;
              case Operand::Target:
                inst.target = parseBlockRef(tok, line_no);
                break;
              case Operand::Fallthru:
                inst.fallthru = parseBlockRef(tok, line_no);
                break;
              case Operand::Callee:
                // Resolved once every function is known.
                if (!tok.starts_with('@'))
                    parseError(line_no, "expected '@callee'");
                pending_calls.push_back({fn->id(), bb->id(),
                                         bb->insts().size(), tok.substr(1),
                                         line_no});
                break;
              case Operand::Kind: {
                // Unknown kind names are rejected rather than defaulted:
                // a module claiming a kind we do not have is corrupt.
                bool kind_ok = false;
                BoundaryKind k = boundaryKindFromName(tok.c_str(), kind_ok);
                if (!kind_ok)
                    parseError(line_no,
                               "unknown boundary kind '" + tok + "'");
                inst.rd = static_cast<Reg>(k);
                break;
              }
            }
        }
        bb->append(inst);
    }

    // Resolve forward-referenced call targets.
    for (const auto &pc : pending_calls) {
        FuncId callee = m->findFunction(pc.callee_name);
        if (callee == invalidFunc)
            parseError(pc.line_no, "unknown callee '@" + pc.callee_name +
                                       "'");
        m->function(pc.func).block(pc.block).insts()[pc.inst_index].callee =
            callee;
    }
    return m;
}

} // namespace ir
} // namespace lwsp
