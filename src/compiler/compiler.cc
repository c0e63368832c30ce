#include "compiler.hh"

#include <algorithm>
#include <string>

#include "analysis/wsp_checker.hh"
#include "compiler/passes.hh"
#include "ir/verifier.hh"

namespace lwsp {
namespace compiler {

using namespace ir;

namespace {

/**
 * The verify-each hook: with LWSP_VERIFY_EACH=1 in the environment, the
 * static WSP-invariant checker (src/analysis) runs after each pipeline
 * stage and panics naming the offending pass on the first violation, so
 * existing drivers (benches, the fuzzer, CI) audit every compile without
 * a recompile. Purely observational — never changes the output.
 */
bool
envVerifyEach()
{
    static const bool on = envSwitch("LWSP_VERIFY_EACH");
    return on;
}

/**
 * Which functions are entered through a Call (and therefore start with
 * the caller's return-address push already in the open region)? The
 * entry function is reached by reset, not by Call, so its seed is 0
 * unless something also calls it.
 */
std::vector<unsigned>
entrySeeds(const Module &m)
{
    std::vector<unsigned> seed(m.numFunctions(), 0);
    for (FuncId f = 0; f < m.numFunctions(); ++f) {
        const Function &fn = m.function(f);
        for (BlockId b = 0; b < fn.numBlocks(); ++b) {
            for (const auto &inst : fn.block(b).insts()) {
                if (inst.op == Opcode::Call &&
                    inst.callee < m.numFunctions())
                    seed[inst.callee] = 1;
            }
        }
    }
    return seed;
}

/** Run the static checker after @p pass and die naming it on failure. */
void
verifyStage(const Module &m, const CompilerConfig &cfg,
            const analysis::CheckOptions &opt,
            const std::vector<BoundarySite> *sites, const char *pass)
{
    analysis::CheckReport rep = analysis::checkModule(m, cfg, opt, sites);
    if (!rep.ok()) {
        panic("verify-each: WSP invariants violated after pass '", pass,
              "':\n", rep.describe());
    }
}

} // namespace

CompiledProgram
LightWspCompiler::compile(std::unique_ptr<Module> input) const
{
    LWSP_ASSERT(input, "compile(nullptr)");
    verifyModuleOrDie(*input);

    const bool veach = envVerifyEach();
    analysis::CheckOptions vopt;  // staged: obligations arm as passes run
    vopt.checkStoreBound = false;
    vopt.checkCoverage = false;
    vopt.sitesAssigned = false;
    vopt.postSplitShape = false;

    CompiledProgram out;
    out.stats.inputInsts = input->instCount();
    out.module = std::move(input);
    Module &m = *out.module;

    for (FuncId f = 0; f < m.numFunctions(); ++f)
        out.stats.unrolledLoops += unrollLoops(m.function(f), cfg_);
    if (veach)
        verifyStage(m, cfg_, vopt, nullptr, "unroll-loops");

    for (FuncId f = 0; f < m.numFunctions(); ++f)
        insertInitialBoundaries(m.function(f));
    if (veach)
        verifyStage(m, cfg_, vopt, nullptr, "insert-initial-boundaries");

    // The store bound is a *path* property: a callee is entered with the
    // caller's return-address push already charged to the open region
    // (the call-before boundary closes the caller's region, then the
    // Call pushes), so every function reached by Call counts from 1,
    // not 0. Unrolling and boundary insertion never change the call
    // graph, so the seeds are stable from here on.
    const std::vector<unsigned> seeds = entrySeeds(m);

    // First enforce the cap on the raw program, then break the
    // boundary/checkpoint circular dependence: each iteration re-derives
    // the checkpoint stores for the current boundaries and, if they push
    // a region over the threshold, splits *with the checkpoint stores in
    // place* (they count as persist entries) before re-deriving.
    for (FuncId f = 0; f < m.numFunctions(); ++f)
        enforceStoreThreshold(m.function(f), cfg_, seeds[f]);
    for (FuncId f = 0; f < m.numFunctions(); ++f)
        combineRegions(m.function(f), cfg_, seeds[f]);
    if (veach) {
        vopt.checkStoreBound = true;  // cap enforced from here on
        verifyStage(m, cfg_, vopt, nullptr, "enforce-store-threshold");
    }

    // The loop must exit on a state whose checkpoints were derived for
    // the *final* boundary placement: a boundary inserted after the last
    // insertCheckpoints() has no stores for the registers dirtied on its
    // incoming paths, and a crash that persists its region but not the
    // next recovers one region stale (torn checkpoint). Hence the exit
    // paths below break after insertion, never after enforcement.
    unsigned prev_worst = ~0u;
    for (unsigned iter = 0; iter < maxFixpointIterations; ++iter) {
        ++out.stats.fixpointIterations;
        for (FuncId f = 0; f < m.numFunctions(); ++f)
            stripCheckpointStores(m.function(f));

        if (cfg_.insertCheckpointStores) {
            out.stats.prunedCheckpoints = 0;
            out.stats.checkpointStores = insertCheckpoints(
                m, cfg_.pruneCheckpoints, &out.stats.prunedCheckpoints);
        }

        unsigned worst = 0;
        for (FuncId f = 0; f < m.numFunctions(); ++f) {
            worst = std::max(
                worst, computeStoreCounts(m.function(f), seeds[f]).worst);
        }
        const unsigned budget =
            cfg_.storeThreshold > 1 ? cfg_.storeThreshold - 1 : 1;
        if (worst <= budget)
            break;

        // A region can be irreducibly over-threshold: splitting ahead of
        // a loop header's checkpoint run just moves the run to the new
        // boundary on the next derivation. Once splitting stops helping
        // (or the budget runs out), keep the sound checkpoint placement
        // and let the runtime WPQ-overflow fallback absorb the residue.
        if (worst >= prev_worst ||
            iter + 1 == maxFixpointIterations) {
            out.stats.thresholdConverged = false;
            warn("region threshold fixpoint did not converge (worst ",
                 worst, " >= threshold ", cfg_.storeThreshold,
                 "); runtime WPQ-overflow fallback will cover the "
                 "residue");
            break;
        }
        prev_worst = worst;

        for (FuncId f = 0; f < m.numFunctions(); ++f)
            enforceStoreThreshold(m.function(f), cfg_, seeds[f]);
    }
    if (veach) {
        vopt.checkCoverage = cfg_.insertCheckpointStores;
        vopt.waiveStoreBound = !out.stats.thresholdConverged;
        verifyStage(m, cfg_, vopt, nullptr, "checkpoint-fixpoint");
    }

    for (FuncId f = 0; f < m.numFunctions(); ++f)
        splitBlocksAtBoundaries(m.function(f));
    if (veach) {
        vopt.postSplitShape = true;
        verifyStage(m, cfg_, vopt, nullptr, "split-blocks-at-boundaries");
    }

    std::map<std::pair<FuncId, BlockId>, std::vector<CkptRecipe>> recipes;
    if (cfg_.insertCheckpointStores)
        recipes = computeConstRecipes(m);

    out.sites = assignBoundarySites(m, recipes);
    out.stats.boundaries = out.sites.size();
    out.stats.outputInsts = m.instCount();

    verifyModuleOrDie(m);
    if (veach) {
        analysis::CheckReport rep =
            analysis::checkCompiledProgram(out, cfg_);
        if (!rep.ok()) {
            panic("verify-each: WSP invariants violated after pass "
                  "'assign-boundary-sites':\n", rep.describe());
        }
    }
    return out;
}

CompiledProgram
makeUncompiled(std::unique_ptr<Module> m)
{
    LWSP_ASSERT(m, "makeUncompiled(nullptr)");
    verifyModuleOrDie(*m);
    CompiledProgram out;
    out.stats.inputInsts = m->instCount();
    out.stats.outputInsts = out.stats.inputInsts;
    out.module = std::move(m);
    return out;
}

} // namespace compiler
} // namespace lwsp
