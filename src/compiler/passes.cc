#include "passes.hh"

#include <algorithm>

#include "compiler/constprop.hh"
#include "ir/cfg.hh"

namespace lwsp {
namespace compiler {

using namespace ir;

namespace {

unsigned
persistEntriesInBlock(const BasicBlock &bb)
{
    unsigned n = 0;
    for (const auto &inst : bb.insts()) {
        if (isPersistEntry(inst))
            ++n;
    }
    return n;
}

} // namespace

std::size_t
unrollLoops(Function &fn, const CompilerConfig &cfg)
{
    if (!cfg.unrollLoops)
        return 0;

    std::size_t unrolled = 0;
    const std::size_t original_blocks = fn.numBlocks();
    for (BlockId b = 0; b < original_blocks; ++b) {
        BasicBlock &header = fn.block(b);
        if (!header.hasTerminator())
            continue;
        const Instruction &term = header.terminator();
        // Single-block self-loop: conditional branch whose taken edge
        // returns to the header itself.
        if (!isConditionalBranch(term.op) || term.target != b ||
            term.fallthru == b) {
            continue;
        }

        unsigned stores = persistEntriesInBlock(header);
        unsigned budget = cfg.storeThreshold > 1 ? cfg.storeThreshold - 1
                                                 : 1;
        unsigned factor = maxUnrollFactor;
        if (stores > 0)
            factor = std::min<unsigned>(factor,
                                        std::max(1u, budget / stores));
        // Honour exact trip counts when the generator recorded one: pick
        // a factor dividing the count so no mid-copy exits fire.
        auto trip = fn.loopTripCounts().find(b);
        if (trip != fn.loopTripCounts().end()) {
            while (factor > 1 && trip->second % factor != 0)
                --factor;
        }
        if (factor < 2)
            continue;

        // Copy the body factor-1 times; each copy keeps the exit check
        // (speculative unrolling) and the last copy carries the back edge.
        std::vector<Instruction> body(header.insts().begin(),
                                      header.insts().end() - 1);
        Instruction exit_branch = term;

        std::vector<BlockId> copies;
        for (unsigned k = 1; k < factor; ++k)
            copies.push_back(fn.addBlock().id());

        // Header's continue edge now targets the first copy.
        fn.block(b).insts().back().target = copies.front();

        for (unsigned k = 0; k < copies.size(); ++k) {
            BasicBlock &copy = fn.block(copies[k]);
            for (const auto &inst : body)
                copy.append(inst);
            Instruction br = exit_branch;
            br.target = (k + 1 < copies.size()) ? copies[k + 1] : b;
            copy.append(br);
        }
        ++unrolled;
    }
    return unrolled;
}

void
insertInitialBoundaries(Function &fn)
{
    // Loop headers first (needs loop analysis on the untouched CFG).
    Cfg cfg(fn);
    DominatorTree dt(cfg);
    auto loops = findNaturalLoops(cfg, dt);

    for (const auto &loop : loops) {
        bool has_persist = false;
        for (BlockId b : loop.blocks) {
            if (persistEntriesInBlock(fn.block(b)) > 0) {
                has_persist = true;
                break;
            }
        }
        if (!has_persist)
            continue;
        auto &insts = fn.block(loop.header).insts();
        // Avoid doubling up if the header already starts with a boundary.
        if (!insts.empty() && insts.front().op == Opcode::Boundary)
            continue;
        insts.insert(insts.begin(), makeBoundary(BoundaryKind::LoopHeader));
    }

    // Function entry.
    {
        auto &insts = fn.block(0).insts();
        if (insts.empty() || insts.front().op != Opcode::Boundary) {
            insts.insert(insts.begin(),
                         makeBoundary(BoundaryKind::FuncEntry));
        }
    }

    // Callsites, synchronization operations and function exits.
    for (BlockId b = 0; b < fn.numBlocks(); ++b) {
        auto &insts = fn.block(b).insts();
        for (std::size_t i = 0; i < insts.size(); ++i) {
            Opcode op = insts[i].op;
            if (op == Opcode::Call) {
                // Boundary before and after the call.
                insts.insert(insts.begin() + i,
                             makeBoundary(BoundaryKind::CallBefore));
                ++i;  // now at the Call
                insts.insert(insts.begin() + i + 1,
                             makeBoundary(BoundaryKind::CallAfter));
                ++i;  // skip the inserted after-boundary
            } else if (isSynchronization(op)) {
                // Boundaries before AND after the sync op (§III-D). Sync
                // ops are fused region ends: they broadcast the current
                // region and tag their own store with a freshly allocated
                // ID (coherence-ordering racing atomics), but they write
                // no PC checkpoint. The before-boundary makes the region
                // the sync op terminates empty, so that missing recovery
                // point is unobservable; the after-boundary's PC store is
                // tagged with the sync op's region, keeping "resume past
                // the sync" atomic with the sync store's persistence.
                insts.insert(insts.begin() + i,
                             makeBoundary(BoundaryKind::Sync));
                ++i;  // back at the sync op
                insts.insert(insts.begin() + i + 1,
                             makeBoundary(BoundaryKind::Sync));
                ++i;
            } else if (op == Opcode::Ret || op == Opcode::Halt) {
                if (i == 0 || insts[i - 1].op != Opcode::Boundary) {
                    insts.insert(insts.begin() + i,
                                 makeBoundary(BoundaryKind::FuncExit));
                    ++i;
                }
            }
        }
    }
}

StoreCountResult
computeStoreCounts(const Function &fn, unsigned entry_in)
{
    StoreCountResult r;
    r.in.assign(fn.numBlocks(), 0);
    r.out.assign(fn.numBlocks(), 0);

    Cfg cfg(fn);
    const auto &rpo = cfg.reversePostOrder();

    // Monotone max-dataflow: it converges iff every cycle containing a
    // persist entry also contains a boundary (which resets the count).
    // A malformed input — e.g. a storeful loop whose header boundary was
    // stripped — breaks that premise and grows counts without bound, so
    // cap the passes and fail loudly instead of hanging.
    const unsigned max_passes =
        2 * static_cast<unsigned>(fn.numBlocks()) + 16;
    bool changed = true;
    unsigned passes = 0;
    while (changed) {
        changed = false;
        if (++passes > max_passes) {
            panic("store-count dataflow failed to converge after ",
                  max_passes, " passes over ", fn.numBlocks(),
                  " blocks: a cycle containing persist entries has no "
                  "boundary to reset the count (storeful loop missing "
                  "its header boundary?)");
        }
        for (BlockId b : rpo) {
            unsigned in = (b == 0) ? entry_in : 0;
            for (BlockId p : cfg.predecessors(b)) {
                if (cfg.reachable(p))
                    in = std::max(in, r.out[p]);
            }
            unsigned cnt = in;
            for (const auto &inst : fn.block(b).insts()) {
                if (inst.op == Opcode::Boundary) {
                    cnt = 0;
                } else if (isPersistEntry(inst)) {
                    ++cnt;
                }
                r.worst = std::max(r.worst, cnt);
            }
            if (in != r.in[b] || cnt != r.out[b]) {
                r.in[b] = in;
                r.out[b] = cnt;
                changed = true;
            }
        }
    }
    return r;
}

std::size_t
enforceStoreThreshold(Function &fn, const CompilerConfig &cfg,
                      unsigned entry_in)
{
    const unsigned budget =
        cfg.storeThreshold > 1 ? cfg.storeThreshold - 1 : 1;
    std::size_t inserted = 0;

    // Every round that loops again has inserted at least one Split, and
    // each persist entry needs at most one Split in front of it — so a
    // round count beyond that bound means the dataflow is feeding us
    // nonsense and we must not spin.
    std::size_t total_entries = 0;
    for (BlockId b = 0; b < fn.numBlocks(); ++b)
        total_entries += persistEntriesInBlock(fn.block(b));
    const std::size_t max_rounds = total_entries + fn.numBlocks() + 8;
    std::size_t rounds = 0;

    // Repeat until no block overflows: each pass recomputes the dataflow
    // and inserts at most one boundary per offending block.
    bool again = true;
    while (again) {
        again = false;
        if (++rounds > max_rounds) {
            panic("store-threshold enforcement failed to converge after ",
                  max_rounds, " rounds (", inserted, " splits inserted, ",
                  total_entries, " persist entries): malformed region "
                  "structure");
        }
        StoreCountResult counts = computeStoreCounts(fn, entry_in);
        for (BlockId b = 0; b < fn.numBlocks(); ++b) {
            auto &insts = fn.block(b).insts();
            unsigned cnt = counts.in[b];
            for (std::size_t i = 0; i < insts.size(); ++i) {
                if (insts[i].op == Opcode::Boundary) {
                    cnt = 0;
                    continue;
                }
                if (!isPersistEntry(insts[i]))
                    continue;
                if (cnt + 1 > budget) {
                    insts.insert(insts.begin() + i,
                                 makeBoundary(BoundaryKind::Split));
                    ++inserted;
                    again = true;
                    break;  // indices shifted; redo this block next pass
                }
                ++cnt;
            }
        }
    }
    return inserted;
}

bool
hasThresholdViolation(const Function &fn, const CompilerConfig &cfg,
                      unsigned entry_in)
{
    const unsigned budget =
        cfg.storeThreshold > 1 ? cfg.storeThreshold - 1 : 1;
    return computeStoreCounts(fn, entry_in).worst > budget;
}

std::size_t
combineRegions(Function &fn, const CompilerConfig &cfg,
               unsigned entry_in)
{
    std::size_t removed = 0;
    Cfg cfg_graph(fn);
    // Topological-ish order: reverse post-order visits a region's blocks
    // before its successors' on reducible CFGs.
    for (BlockId b : cfg_graph.reversePostOrder()) {
        auto &insts = fn.block(b).insts();
        for (std::size_t i = 0; i < insts.size();) {
            if (insts[i].op != Opcode::Boundary ||
                boundaryKind(insts[i]) != BoundaryKind::Split) {
                ++i;
                continue;
            }
            Instruction saved = insts[i];
            insts.erase(insts.begin() + i);
            if (hasThresholdViolation(fn, cfg, entry_in)) {
                insts.insert(insts.begin() + i, saved);
                ++i;
            } else {
                ++removed;
            }
        }
    }
    return removed;
}

void
splitBlocksAtBoundaries(Function &fn)
{
    bool changed = true;
    while (changed) {
        changed = false;
        for (BlockId b = 0; b < fn.numBlocks(); ++b) {
            auto &insts = fn.block(b).insts();
            for (std::size_t i = 0; i + 2 < insts.size(); ++i) {
                if (insts[i].op != Opcode::Boundary)
                    continue;
                // Tail [i+1 .. end) moves to a fresh block; this block
                // keeps the boundary and jumps to the continuation.
                BasicBlock &cont = fn.addBlock();
                for (std::size_t j = i + 1; j < insts.size(); ++j)
                    cont.append(insts[j]);
                auto &head = fn.block(b).insts();  // addBlock may realloc
                head.resize(i + 1);
                head.push_back(Instruction::jmp(cont.id()));
                changed = true;
                break;
            }
        }
    }
}

void
stripCheckpointStores(Function &fn)
{
    for (BlockId b = 0; b < fn.numBlocks(); ++b) {
        auto &insts = fn.block(b).insts();
        insts.erase(std::remove_if(insts.begin(), insts.end(),
                                   [](const Instruction &i) {
                                       return i.op == Opcode::CkptStore;
                                   }),
                    insts.end());
    }
}

std::size_t
insertCheckpoints(Module &m, bool prune_constants,
                  std::size_t *pruned_out)
{
    ModuleLiveness live(m);
    ConstProp consts(m, live);
    std::size_t inserted = 0;
    std::size_t pruned = 0;

    for (FuncId f = 0; f < m.numFunctions(); ++f) {
        Function &fn = m.function(f);
        Cfg cfg(fn);

        // Forward "slot-stale" dataflow: a register is stale while its
        // checkpoint slot may not hold its current value, and only an
        // actual CkptStore cleans it. A boundary that prunes a constant
        // covers *that site* with a recovery recipe but writes nothing
        // to the slot, so the register must stay stale: a later site
        // where the constness has been lost (a join of differently-
        // valued paths, a call-site merge) has neither recipe nor
        // current slot unless it stores the register itself.
        std::vector<RegMask> dirty_out(fn.numBlocks(), 0);
        std::vector<RegMask> dirty_in(fn.numBlocks(), 0);

        auto constMask = [&](const ConstProp::State &st) {
            RegMask mk = 0;
            for (Reg r = 0; r < numGprs; ++r)
                if (st[r].isConst())
                    mk |= regBit(r);
            return mk;
        };

        auto transfer = [&](BlockId b, RegMask in) {
            RegMask d = in;
            ConstProp::State cstate = consts.blockIn(f, b);
            const auto &insts = fn.block(b).insts();
            for (std::size_t i = 0; i < insts.size(); ++i) {
                const Instruction &inst = insts[i];
                if (inst.op == Opcode::Boundary) {
                    RegMask stored = d & live.liveAfter(f, b, i);
                    if (prune_constants)
                        stored &= ~constMask(cstate);
                    d &= ~stored;
                } else {
                    // A Call dirties all its callee defines: the callee
                    // checkpoints what it dirties, but may prune its
                    // live-outs into recipes at its *own* sites, so
                    // their slots can come back stale. Call and Ret
                    // also redefine sp.
                    d |= live.instDef(inst);
                }
                consts.transfer(inst, cstate);
            }
            return d;
        };

        // Nothing is current on function entry. The entry function
        // starts with hardware-initialized registers (r0 = thread id,
        // r15 = stack pointer) over zeroed slots; a callee inherits
        // whatever the caller left stale — in particular a caller
        // register pruned as a constant at every caller site has never
        // been materialized to its slot at all.
        const RegMask entry_seed = allRegs;

        bool changed = true;
        while (changed) {
            changed = false;
            for (BlockId b : cfg.reversePostOrder()) {
                RegMask in = (b == 0) ? entry_seed : 0;
                for (BlockId p : cfg.predecessors(b)) {
                    if (cfg.reachable(p))
                        in |= dirty_out[p];
                }
                RegMask out = transfer(b, in);
                if (in != dirty_in[b] || out != dirty_out[b]) {
                    dirty_in[b] = in;
                    dirty_out[b] = out;
                    changed = true;
                }
            }
        }

        // Insert CkptStores immediately before each boundary for every
        // register that is live after it and dirty at it — except
        // provable constants, which recovery reconstructs from recipes.
        for (BlockId b = 0; b < fn.numBlocks(); ++b) {
            auto &insts = fn.block(b).insts();
            RegMask d = dirty_in[b];
            ConstProp::State cstate = consts.blockIn(f, b);
            for (std::size_t i = 0; i < insts.size(); ++i) {
                const Instruction inst = insts[i];
                if (inst.op == Opcode::Boundary) {
                    RegMask want = d & live.liveAfter(f, b, i);
                    for (Reg r = 0; r < numGprs; ++r) {
                        if (!(want & regBit(r)))
                            continue;
                        if (prune_constants && cstate[r].isConst()) {
                            // Recipe covers this site; the slot stays
                            // stale for downstream sites.
                            ++pruned;
                            continue;
                        }
                        insts.insert(insts.begin() + i,
                                     Instruction::ckptStore(r));
                        ++i;
                        ++inserted;
                        d &= ~regBit(r);
                    }
                } else {
                    d |= live.instDef(inst);
                }
                consts.transfer(inst, cstate);
            }
        }
    }
    if (pruned_out)
        *pruned_out += pruned;
    return inserted;
}

std::map<std::pair<FuncId, BlockId>, std::vector<CkptRecipe>>
computeConstRecipes(const Module &m)
{
    ModuleLiveness live(m);
    ConstProp consts(m, live);
    std::map<std::pair<FuncId, BlockId>, std::vector<CkptRecipe>> out;

    for (FuncId f = 0; f < m.numFunctions(); ++f) {
        const Function &fn = m.function(f);
        for (BlockId b = 0; b < fn.numBlocks(); ++b) {
            const auto &insts = fn.block(b).insts();
            for (std::size_t i = 0; i < insts.size(); ++i) {
                if (insts[i].op != Opcode::Boundary)
                    continue;
                ConstProp::State st = consts.stateBefore(f, b, i);
                RegMask live_after = live.liveAfter(f, b, i);
                std::vector<CkptRecipe> recipes;
                for (Reg r = 0; r < numGprs; ++r) {
                    if ((live_after & regBit(r)) && st[r].isConst()) {
                        CkptRecipe recipe;
                        recipe.reg = r;
                        recipe.kind = CkptRecipe::Kind::Const;
                        recipe.imm = st[r].constant;
                        recipes.push_back(recipe);
                    }
                }
                if (!recipes.empty())
                    out[{f, b}] = std::move(recipes);
            }
        }
    }
    return out;
}

std::vector<BoundarySite>
assignBoundarySites(Module &m,
                    const std::map<std::pair<FuncId, BlockId>,
                                   std::vector<CkptRecipe>> &recipes)
{
    std::vector<BoundarySite> sites;
    for (FuncId f = 0; f < m.numFunctions(); ++f) {
        Function &fn = m.function(f);
        for (BlockId b = 0; b < fn.numBlocks(); ++b) {
            auto &insts = fn.block(b).insts();
            for (std::size_t i = 0; i < insts.size(); ++i) {
                if (insts[i].op != Opcode::Boundary)
                    continue;
                BoundarySite site;
                site.id = static_cast<std::uint32_t>(sites.size());
                site.func = f;
                site.block = b;
                site.instIndex = static_cast<std::uint32_t>(i);
                site.kind = boundaryKind(insts[i]);
                auto it = recipes.find({f, b});
                if (it != recipes.end())
                    site.recipes = it->second;
                insts[i].imm = static_cast<std::int64_t>(site.id);
                sites.push_back(std::move(site));
            }
        }
    }
    return sites;
}

} // namespace compiler
} // namespace lwsp
