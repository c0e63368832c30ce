/**
 * @file
 * Human-readable text form of LightIR modules: printing and parsing.
 *
 * The format is line-based. Example:
 * @code
 *   func @main
 *   block 0:
 *     movi r1, 4096
 *     movi r2, 7
 *     store [r1+0], r2
 *     beq r1, r2, b2, b1
 *   block 1:
 *     call @helper
 *     halt
 *   block 2:
 *     halt
 *   func @helper
 *   block 0:
 *     ret
 *   data 0x1000 42
 * @endcode
 * Comments start with ';' and run to end of line. Each instruction's
 * operands follow its instruction-table row (ir/opcode.hh). Registers
 * (rN), numbers (decimal, or 0x and hex digits, with an optional '-'),
 * block refs (bN) and block ids are read as whole tokens, and a block id
 * names an existing block or the next new one.
 */

#ifndef LWSP_IR_TEXT_IO_HH
#define LWSP_IR_TEXT_IO_HH

#include <iosfwd>
#include <memory>
#include <string>

#include "ir/program.hh"

namespace lwsp {
namespace ir {

/** Print one instruction in canonical text form (no trailing newline). */
std::string formatInstruction(const Module &m, const Instruction &inst);

/** Print a whole module to @p os. */
void printModule(const Module &m, std::ostream &os);

/** Convenience: module to string. */
std::string moduleToString(const Module &m);

/**
 * Parse a module from text. Throws FatalError with a line-numbered message
 * on malformed input. Does not verify: verifyModule() checks what parses.
 */
std::unique_ptr<Module> parseModule(const std::string &text);

} // namespace ir
} // namespace lwsp

#endif // LWSP_IR_TEXT_IO_HH
