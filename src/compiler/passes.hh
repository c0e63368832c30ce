/**
 * @file
 * The individual LightWSP compiler passes (paper §IV-A). They are exposed
 * separately so tests can exercise each in isolation; LightWspCompiler
 * chains them in the published order:
 *
 *   unroll loops -> initial boundary insertion ->
 *   [ threshold enforcement -> region combining -> checkpoint insertion ]*
 *   -> block splitting -> checkpoint pruning -> boundary-site assignment
 *
 * The bracketed fixpoint breaks the circular dependence between boundary
 * placement and checkpoint-store insertion described in the paper.
 *
 * Boundary instructions carry their BoundaryKind in the (otherwise unused)
 * rd field and, after site assignment, their site id in imm.
 */

#ifndef LWSP_COMPILER_PASSES_HH
#define LWSP_COMPILER_PASSES_HH

#include <cstdint>
#include <map>
#include <vector>

#include "compiler/compiled_program.hh"
#include "compiler/config.hh"
#include "compiler/liveness.hh"
#include "ir/program.hh"

namespace lwsp {
namespace compiler {

/** Make a Boundary instruction of the given kind. */
inline ir::Instruction
makeBoundary(BoundaryKind kind)
{
    ir::Instruction i;
    i.op = ir::Opcode::Boundary;
    i.rd = static_cast<ir::Reg>(kind);
    return i;
}

/**
 * Read the kind back from a Boundary instruction. The kind rides in rd
 * (an ir::Reg), so a corrupted or hand-built instruction can carry any
 * byte — validate instead of silently truncating into the enum.
 */
inline BoundaryKind
boundaryKind(const ir::Instruction &inst)
{
    LWSP_ASSERT(inst.op == ir::Opcode::Boundary, "not a boundary");
    LWSP_ASSERT(ir::isValidBoundaryKind(inst.rd),
                "invalid boundary kind ", unsigned(inst.rd));
    return static_cast<BoundaryKind>(inst.rd);
}

/**
 * @return true if @p inst produces a persist-path entry at run time (its
 * row's PersistEntry flag). Boundary PC-stores are accounted separately
 * via the threshold's reserved slot.
 */
inline bool
isPersistEntry(const ir::Instruction &inst)
{
    return ir::opInfo(inst.op).has(ir::PersistEntry);
}

/**
 * Region-size extension (paper "Region Size Extension"): speculatively
 * unroll single-block self-loops, duplicating body and exit condition, so
 * each trip crosses the loop-header boundary once per @c factor iterations.
 *
 * @return number of loops unrolled
 */
std::size_t unrollLoops(ir::Function &fn, const CompilerConfig &cfg);

/**
 * Initial region boundary insertion: function entry/exit, callsites
 * (before and after), headers of loops containing persist entries, and
 * after every synchronization operation (§III-D).
 */
void insertInitialBoundaries(ir::Function &fn);

/**
 * Result of the store-count dataflow over one function: the maximum number
 * of persist entries accumulated since the last boundary, per block.
 */
struct StoreCountResult
{
    std::vector<unsigned> in;   ///< max count entering each block
    std::vector<unsigned> out;  ///< max count leaving each block
    unsigned worst = 0;         ///< max count observed anywhere
};

/**
 * Compute the max-over-paths persist-entry count between boundaries.
 * Converges because every loop containing persist entries has a header
 * boundary (which resets the count); a malformed input violating that
 * premise is detected and panics instead of iterating forever.
 *
 * @param entry_in persist entries already in flight when control enters
 *     the function: 1 for any function reached by Call (the caller's
 *     return-address push lands in the region that crosses into the
 *     callee until its FuncEntry boundary fires), 0 for the program
 *     entry function.
 */
StoreCountResult computeStoreCounts(const ir::Function &fn,
                                    unsigned entry_in = 0);

/**
 * Enforce the per-region store cap by inserting Split boundaries wherever
 * the running count would exceed cfg.storeThreshold - 1 (one slot is
 * reserved for the region's own boundary PC-store).
 *
 * @param entry_in see computeStoreCounts()
 * @return number of Split boundaries inserted
 */
std::size_t enforceStoreThreshold(ir::Function &fn,
                                  const CompilerConfig &cfg,
                                  unsigned entry_in = 0);

/**
 * Region combining: traverse blocks in topological order and remove Split
 * boundaries whose removal keeps every region under the threshold.
 *
 * @param entry_in see computeStoreCounts()
 * @return number of boundaries removed
 */
std::size_t combineRegions(ir::Function &fn, const CompilerConfig &cfg,
                           unsigned entry_in = 0);

/**
 * Split blocks so each Boundary is the penultimate instruction of its
 * block (immediately before the terminator), giving regions that start at
 * block entry as the paper requires.
 */
void splitBlocksAtBoundaries(ir::Function &fn);

/** @return true if any boundary-free path exceeds the threshold. */
bool hasThresholdViolation(const ir::Function &fn,
                           const CompilerConfig &cfg,
                           unsigned entry_in = 0);

/** Remove every CkptStore (used between fixpoint iterations). */
void stripCheckpointStores(ir::Function &fn);

/**
 * Insert checkpoint stores: at each boundary, every register that is both
 * live after the boundary and "dirty" (modified since its last checkpoint)
 * is stored to its PM slot just before the boundary. Uses a forward dirty
 * dataflow; boundaries reset dirtiness (checkpointed-or-provably-dead).
 *
 * Checkpoint pruning (§IV-A) is folded in when @p prune_constants is set:
 * registers whose value is a provable compile-time constant at the
 * boundary are skipped — sound at every later resume site too, because a
 * constant register stays constant until redefined, and the recipe pass
 * re-derives it at each such site.
 *
 * @param pruned_out incremented by the number of stores elided
 * @return number of CkptStore instructions inserted
 */
std::size_t insertCheckpoints(ir::Module &m, bool prune_constants,
                              std::size_t *pruned_out = nullptr);

/**
 * Post-split recipe computation: for every boundary block, attach a
 * Const recipe for each live-after register whose value is a provable
 * constant there. Recovery applies recipes after slot restoration, so a
 * recipe that merely duplicates a fresh slot is harmless; one that covers
 * a pruned (stale) slot is essential.
 */
std::map<std::pair<ir::FuncId, ir::BlockId>, std::vector<CkptRecipe>>
computeConstRecipes(const ir::Module &m);

/**
 * Assign sequential site ids to every Boundary (written into imm) and
 * build the site table, attaching any recipes gathered by pruning.
 */
std::vector<BoundarySite>
assignBoundarySites(ir::Module &m,
                    const std::map<std::pair<ir::FuncId, ir::BlockId>,
                                   std::vector<CkptRecipe>> &recipes);

} // namespace compiler
} // namespace lwsp

#endif // LWSP_COMPILER_PASSES_HH
