/**
 * @file
 * Tunables of the LightWSP compiler (paper §IV-A).
 */

#ifndef LWSP_COMPILER_CONFIG_HH
#define LWSP_COMPILER_CONFIG_HH

#include <cstdint>

namespace lwsp {
namespace compiler {

/** Upper bound on the loop-unroll factor. */
constexpr unsigned maxUnrollFactor = 4;

/**
 * Iteration cap for the combining/repartitioning fixpoint that breaks
 * the circular dependence between boundary placement and checkpoint
 * insertion.
 */
constexpr unsigned maxFixpointIterations = 8;

struct CompilerConfig
{
    /**
     * Maximum persist-path entries (data stores + checkpoint stores + the
     * boundary PC-store) any region may produce. The paper's default is
     * half the WPQ size: 32 for the 64-entry WPQ.
     */
    unsigned storeThreshold = 32;

    /** Enable region-size extension via (speculative) loop unrolling. */
    bool unrollLoops = true;

    /** Enable checkpoint pruning (reconstructable live-outs, §IV-A). */
    bool pruneCheckpoints = true;

    /**
     * Insert live-out checkpoint stores at boundaries. Disabled by the
     * cWSP baseline model, whose idempotent regions recover by
     * re-execution instead of register restoration.
     */
    bool insertCheckpointStores = true;
};

} // namespace compiler
} // namespace lwsp

#endif // LWSP_COMPILER_CONFIG_HH
