#include "opcode.hh"

#include <cstring>

namespace lwsp {
namespace ir {

Opcode
opcodeFromName(const char *mnemonic, bool &ok)
{
    for (const OpInfo &row : detail::opTable) {
        if (std::strcmp(row.name, mnemonic) == 0) {
            ok = true;
            return row.op;
        }
    }
    ok = false;
    return Opcode::Nop;
}

namespace {

constexpr const char *kindNames[numBoundaryKinds] = {
    "func-entry", "func-exit", "call-before", "call-after",
    "loop-header", "sync",     "split",
};

} // namespace

const char *
boundaryKindName(BoundaryKind k)
{
    auto raw = static_cast<std::uint8_t>(k);
    return isValidBoundaryKind(raw) ? kindNames[raw] : "<bad-kind>";
}

BoundaryKind
boundaryKindFromName(const char *name, bool &ok)
{
    for (unsigned i = 0; i < numBoundaryKinds; ++i) {
        if (std::strcmp(kindNames[i], name) == 0) {
            ok = true;
            return static_cast<BoundaryKind>(i);
        }
    }
    ok = false;
    return BoundaryKind::Split;
}

} // namespace ir
} // namespace lwsp
