/**
 * @file
 * Structural validity checks for LightIR modules.
 */

#ifndef LWSP_IR_VERIFIER_HH
#define LWSP_IR_VERIFIER_HH

#include <string>
#include <vector>

#include "ir/program.hh"

namespace lwsp {
namespace ir {

/**
 * Check module well-formedness:
 *  - every block ends in exactly one terminator, with none mid-block;
 *  - every operand its instruction-table row names is in range:
 *    registers < numGprs, branch targets and fallthroughs existing
 *    blocks, callees existing functions, Boundary kinds valid ones;
 *  - the module has an entry function whose entry block exists.
 *
 * @return list of human-readable problems (empty means valid)
 */
std::vector<std::string> verifyModule(const Module &m);

/** verifyModule + panic on the first problem (for tests/tools). */
void verifyModuleOrDie(const Module &m);

} // namespace ir
} // namespace lwsp

#endif // LWSP_IR_VERIFIER_HH
