/**
 * @file
 * The interface between functional execution and the timing model.
 *
 * The interpreter executes instructions functionally (in program order,
 * at dispatch) and hands the timing core one ExecRecord per instruction:
 * operand registers for dependence tracking, latency class, memory
 * address, persist-path payload and region tag. The timing model never
 * needs to recompute values.
 */

#ifndef LWSP_CPU_EXEC_RECORD_HH
#define LWSP_CPU_EXEC_RECORD_HH

#include <cstdint>

#include "common/types.hh"
#include "compiler/liveness.hh"
#include "ir/opcode.hh"

namespace lwsp {
namespace cpu {

/** Boundary-site sentinel written to the PC slot when a thread halts. */
constexpr std::uint32_t haltSite = 0xffff'ffffu;

struct ExecRecord
{
    ir::Opcode op = ir::Opcode::Nop;

    compiler::RegMask srcRegs = 0;  ///< registers read (ir::readRegs)
    int dstReg = -1;                ///< register written, -1 if none
    unsigned aluLatency = 1;

    bool isLoad = false;
    bool isStore = false;          ///< produces a persist-path entry too
    Addr addr = 0;
    std::uint64_t value = 0;       ///< store payload

    RegionId region = invalidRegion;  ///< tag for persist-path stores
    ThreadId thread = 0;

    bool isBoundary = false;       ///< PC-checkpointing region end
    /** Region broadcast at path exit (see PersistEntry::broadcastRegion). */
    RegionId broadcastRegion = invalidRegion;
    /** Region entered after this boundary (invalid at halt); trace-only. */
    RegionId nextRegion = invalidRegion;
    std::uint32_t site = 0;        ///< boundary site id (or haltSite)

    bool isBranch = false;
    bool isHalt = false;
};

/** Outcome of one interpreter step. */
enum class StepStatus : std::uint8_t
{
    Ok,       ///< record produced
    Blocked,  ///< waiting on a lock; retry later
    Halted,   ///< thread finished earlier; no record
};

/**
 * The HW-managed global region-ID counter (paper §IV-B): IDs are dense,
 * and each allocated ID is broadcast exactly once — at the owning
 * thread's next boundary, or by the implicit final boundary at Halt.
 */
class RegionAllocator
{
  public:
    RegionId alloc() { return next_++; }
    RegionId peek() const { return next_; }

  private:
    RegionId next_ = 1;
};

} // namespace cpu
} // namespace lwsp

#endif // LWSP_CPU_EXEC_RECORD_HH
