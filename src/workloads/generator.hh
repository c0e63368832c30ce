/**
 * @file
 * Turns a WorkloadProfile into a deterministic LightIR program.
 *
 * Program shape: every thread runs function @main with its thread id in
 * r0, computes its private partition base, then calls one function per
 * phase. Each phase is a single-block counted loop (so the compiler's
 * unrolling and loop-header boundary machinery is exercised) issuing the
 * profile's loads/stores/ALU mix over sequential, hashed-random or
 * load-dependent (pointer-chase) addresses, split between a hot subset
 * and the full footprint per the locality knob. Multi-threaded profiles
 * add lock-protected or atomic read-modify-writes on shared cells; all
 * cross-thread effects are commutative, so the final memory state is
 * independent of interleaving (confluent) — the property the
 * crash-recovery equivalence tests rely on.
 */

#ifndef LWSP_WORKLOADS_GENERATOR_HH
#define LWSP_WORKLOADS_GENERATOR_HH

#include <memory>
#include <vector>

#include "ir/program.hh"
#include "mem/mem_image.hh"
#include "workloads/profile.hh"

namespace lwsp {
namespace workloads {

struct Workload
{
    std::unique_ptr<ir::Module> module;
    WorkloadProfile profile;
    std::vector<Addr> lockAddrs;  ///< for post-crash lock reconstruction
    /** Approximate dynamic instructions per thread (warmup sizing). */
    std::uint64_t estimatedInstsPerThread = 0;

    static constexpr Addr heapBase = 0x1000'0000ull;
    static constexpr Addr sharedBase = 0x6000'0000'0000ull;
};

/**
 * Compare the application state of two PM images of a @p threads-thread
 * workload with @p footprint bytes per thread: the heap partitions
 * [heapBase, heapBase + threads x footprint), then the 4 KB shared page
 * at sharedBase (lock words, shared counters). Checkpoint storage and
 * stacks are ignored; their final contents may legitimately differ
 * across thread interleavings.
 * @return "" when the states match, else the first difference, e.g.
 *         "heap differs from golden at 0x10000008 (1 words)".
 */
std::string diffAppState(const mem::MemImage &got,
                         const mem::MemImage &want, unsigned threads,
                         std::size_t footprint);

/** Generate the program for @p profile. Deterministic. */
Workload generate(const WorkloadProfile &profile);

/** Convenience: generate by paper-app name. */
Workload generateByName(const std::string &name);

/**
 * The module a command line names: a LightIR text file when @p what
 * ends in `.lir` (ir/text_io.hh), else the paper app of that name.
 * fatal() when the file cannot be read, does not parse or verify, or
 * no app has that name.
 */
std::unique_ptr<ir::Module> loadModule(const std::string &what);

} // namespace workloads
} // namespace lwsp

#endif // LWSP_WORKLOADS_GENERATOR_HH
