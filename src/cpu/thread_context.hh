/**
 * @file
 * Functional interpreter for one software thread.
 *
 * Executes LightIR in program order over the shared execution memory
 * image, producing one ExecRecord per instruction for the timing core.
 * The calling convention materializes return addresses in (persisted)
 * stack memory via the r15 stack pointer, so a thread's continuation is
 * fully described by PC + registers + memory — exactly what LightWSP's
 * checkpoints capture.
 */

#ifndef LWSP_CPU_THREAD_CONTEXT_HH
#define LWSP_CPU_THREAD_CONTEXT_HH

#include <array>
#include <cstdint>

#include "compiler/compiled_program.hh"
#include "cpu/exec_record.hh"
#include "cpu/lock_table.hh"
#include "ir/program.hh"
#include "mem/mem_image.hh"

namespace lwsp {
namespace cpu {

/** A static program location. */
struct ProgramCounter
{
    ir::FuncId func = 0;
    ir::BlockId block = 0;
    std::uint32_t idx = 0;

    bool
    operator==(const ProgramCounter &o) const
    {
        return func == o.func && block == o.block && idx == o.idx;
    }
};

/** Pack a ProgramCounter into a 64-bit stack word (Call return address). */
constexpr std::uint64_t
encodePc(const ProgramCounter &pc)
{
    return (static_cast<std::uint64_t>(pc.func) << 40) |
           (static_cast<std::uint64_t>(pc.block) << 20) |
           static_cast<std::uint64_t>(pc.idx);
}

constexpr ProgramCounter
decodePc(std::uint64_t word)
{
    ProgramCounter pc;
    pc.func = static_cast<ir::FuncId>(word >> 40);
    pc.block = static_cast<ir::BlockId>((word >> 20) & 0xfffffu);
    pc.idx = static_cast<std::uint32_t>(word & 0xfffffu);
    return pc;
}

// ---- Hardened checkpoint format (fault-tolerant recovery) --------------
//
// In the baseline format a PC-slot store carries the bare 32-bit
// boundary site id. The hardened format (FaultConfig::hardenedCkpt)
// packs a 32-bit checksum over the thread's register checkpoint slots
// into the upper half of the same 64-bit store, so recovery can detect
// register-slot corruption (bit flips that escape ECC) before trusting
// the checkpoint. Region commits are all-entries-atomic, so the register
// slots a recovering thread reads are exactly the values this checksum
// covered when the newest committed boundary retired. Sentinel words
// (the no-site and halt markers) are stored raw; decoding always takes
// the low 32 bits, which both formats agree on for sentinels.

/** Checksum the register checkpoint slots of @p tid as stored in @p img. */
inline std::uint32_t
ckptChecksum(const mem::MemImage &img,
             const compiler::CheckpointLayout &layout, ThreadId tid)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (ir::Reg r = 0; r < ir::numGprs; ++r) {
        h ^= img.read(layout.regSlot(tid, r));
        h *= 0xff51afd7ed558ccdull;
        h ^= h >> 33;
    }
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

constexpr std::uint64_t
packCkptWord(std::uint32_t site, std::uint32_t sum)
{
    return static_cast<std::uint64_t>(site) |
           (static_cast<std::uint64_t>(sum) << 32);
}

/** Boundary site id of a PC-slot word (either checkpoint format). */
constexpr std::uint32_t
ckptSiteOf(std::uint64_t word)
{
    return static_cast<std::uint32_t>(word);
}

/** Stored checksum of a hardened PC-slot word. */
constexpr std::uint32_t
ckptSumOf(std::uint64_t word)
{
    return static_cast<std::uint32_t>(word >> 32);
}

class ThreadContext
{
  public:
    /** Per-thread stack region base (stacks grow downwards). */
    static constexpr Addr stackBase = 0x7800'0000'0000ull;
    static constexpr Addr stackStride = 64 * 1024;

    /**
     * @param program compiled (or original) module to run
     * @param layout checkpoint-storage layout (slot addresses)
     * @param tid this thread's id
     * @param memory shared functional execution image
     * @param locks shared lock table
     * @param regions the global region-ID counter
     */
    ThreadContext(const compiler::CompiledProgram &program, ThreadId tid,
                  mem::MemImage &memory, LockTable &locks,
                  RegionAllocator &regions);

    /** Reset to the entry of @p entry_func with a fresh stack. */
    void reset(ir::FuncId entry_func);

    /**
     * Execute one instruction. On Ok, @p rec describes it; Blocked means
     * a lock is contended (no state change) and Halted means done.
     */
    StepStatus step(ExecRecord &rec);

    bool halted() const { return halted_; }

    /**
     * @return true if the next instruction is a lock acquire that would
     * block right now — the scheduler uses this to avoid swapping a
     * runnable thread out for a waiter that cannot make progress.
     */
    bool wouldBlock() const;
    ThreadId tid() const { return tid_; }
    RegionId currentRegion() const { return region_; }
    const ProgramCounter &pc() const { return pc_; }
    std::uint64_t reg(ir::Reg r) const { return regs_.at(r); }
    std::uint64_t instsExecuted() const { return instsExecuted_; }

    /**
     * Power-failure recovery (paper §IV-F): reposition the thread just
     * after boundary @p site_id, restore registers from the checkpoint
     * slots in @p pm (applying the site's pruning recipes), and take a
     * fresh region ID.
     */
    void recoverAt(std::uint32_t site_id, const mem::MemImage &pm);

    /** Recovery of a thread whose PC slot says it already halted. */
    void markHalted() { halted_ = true; }

    /**
     * Switch boundary PC-stores to the hardened checkpoint format
     * (site | checksum << 32). Off by default: the bare format keeps
     * traces and timing bit-identical to the unhardened machine.
     */
    void setHardenedCkpt(bool on) { hardenedCkpt_ = on; }

  private:
    const ir::Instruction &currentInst() const;
    void advance();                       ///< pc to next inst (same block)
    ExecRecord baseRecord(const ir::Instruction &inst) const;

    const compiler::CompiledProgram &program_;
    ThreadId tid_;
    mem::MemImage &mem_;
    LockTable &locks_;
    RegionAllocator &regions_;

    ProgramCounter pc_;
    std::array<std::uint64_t, ir::numGprs> regs_{};
    RegionId region_ = invalidRegion;
    bool halted_ = true;
    bool hardenedCkpt_ = false;

    std::uint64_t instsExecuted_ = 0;
};

} // namespace cpu
} // namespace lwsp

#endif // LWSP_CPU_THREAD_CONTEXT_HH
