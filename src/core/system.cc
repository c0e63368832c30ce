#include "system.hh"

#include <algorithm>
#include <iterator>
#include <string_view>
#include <type_traits>

#include "common/parse.hh"

namespace lwsp {
namespace core {

const char *
schemeName(Scheme s)
{
    return spec::enumName(schemeNames, s);
}

const char *
recoveryOutcomeName(RecoveryOutcome o)
{
    switch (o) {
      case RecoveryOutcome::Recovered: return "recovered";
      case RecoveryOutcome::RecoveredDegraded: return "recovered-degraded";
      case RecoveryOutcome::DetectedUnrecoverable:
        return "detected-unrecoverable";
    }
    return "<bad>";
}

namespace {

/** Pipeline flush of a context switch, virtualizing the region ID
 *  (§IV-C). */
constexpr Tick ctxSwitchPenalty = 400;

/** Reject numMcs == 0 before the Noc member is built (it asserts). */
unsigned
checkedNumMcs(unsigned num_mcs)
{
    if (num_mcs < 1)
        fatal("SystemConfig::numMcs must be >= 1 (got 0): every address "
              "needs an owning memory controller");
    return num_mcs;
}

} // namespace

System::System(const SystemConfig &cfg,
               const compiler::CompiledProgram &program,
               unsigned num_threads)
    : cfg_(cfg), program_(program),
      noc_(checkedNumMcs(cfg.numMcs), nocHopLatency, cfg.topology)
{
    LWSP_ASSERT(num_threads >= 1, "need at least one thread");

    // Initial data into both images; PC slots start at the no-site
    // sentinel so recovery can tell "never persisted a boundary" from
    // boundary site 0.
    for (const auto &[addr, value] : program.module->initialData()) {
        execMem_.write(addr, value);
        pm_.write(addr, value);
    }
    for (ThreadId t = 0; t < num_threads; ++t) {
        execMem_.write(program.layout.pcSlot(t), noSiteSentinel);
        pm_.write(program.layout.pcSlot(t), noSiteSentinel);
    }

    if (cfg_.oraclesEnabled) {
        oracle_ = std::make_unique<mem::LrpoOracle>(
            cfg_.numMcs, cfg_.mc.gatingEnabled, noc_.isTree());
        cfg_.mc.oracle = oracle_.get();
    }

    if (cfg_.traceEnabled) {
        traceSink_ = std::make_unique<trace::TraceSink>(
            cfg_.traceBufferEvents, cfg_.traceMask);
        cfg_.mc.sink = traceSink_.get();
        cfg_.core.sink = traceSink_.get();
    }

    if (cfg_.faults.enabled) {
        faultInjector_ = std::make_unique<fault::FaultInjector>(
            cfg_.faults, cfg_.seed);
        noc_.setFaultInjector(faultInjector_.get());
        noc_.setTraceSink(traceSink_.get());
    }

    std::vector<mem::McEndpoint *> endpoints;
    for (McId m = 0; m < cfg_.numMcs; ++m) {
        mcs_.push_back(std::make_unique<mem::MemController>(
            m, cfg_.mc, pm_, noc_));
        endpoints.push_back(mcs_.back().get());
    }
    noc_.attach(std::move(endpoints));

    l2_ = std::make_unique<mem::Cache>("l2", cfg_.l2);

    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        l1d_.push_back(std::make_unique<mem::Cache>(
            "core" + std::to_string(c) + ".l1d", cfg_.l1d));
        cores_.push_back(
            std::make_unique<cpu::Core>(c, cfg_.core, *this));
        // Buffer snooping (§IV-G): dirty L1 victims whose line still
        // sits in this core's front-end buffer cannot be evicted.
        cpu::Core *core = cores_.back().get();
        l1d_.back()->setEvictionFilter(
            cfg_.victimPolicy,
            [core](Addr line) { return !core->febContainsLine(line); });
    }

    for (ThreadId t = 0; t < num_threads; ++t) {
        threads_.push_back(std::make_unique<cpu::ThreadContext>(
            program_, t, execMem_, locks_, regionAlloc_));
        threads_.back()->setHardenedCkpt(cfg_.faults.hardenedCkpt);
        threads_.back()->reset(0);
        // Each thread's first region opens at cycle 0 on its home core;
        // later begins are emitted at boundary retirement.
        trace::emitIf(
            traceSink_.get(),
            {0, trace::EventType::RegionBegin,
             static_cast<std::int32_t>(t % cfg_.numCores), t,
             threads_.back()->currentRegion(), 0, 0, 0});
    }

    runQueues_.resize(cfg_.numCores);
    runIndex_.assign(cfg_.numCores, 0);
    for (ThreadId t = 0; t < num_threads; ++t)
        runQueues_[t % cfg_.numCores].push_back(t);
    for (const auto &q : runQueues_)
        multiQueued_ = multiQueued_ || q.size() >= 2;
    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        if (!runQueues_[c].empty())
            cores_[c]->setThread(threads_[runQueues_[c][0]].get());
    }

    sim_.setEngine(cfg_.engine);
    for (auto &core : cores_)
        sim_.add(core.get());
    sim_.add(&noc_);
    for (auto &mc : mcs_)
        sim_.add(mc.get());
}

McId
System::mcForAddr(Addr addr) const
{
    // Line interleave: consecutive cachelines round-robin across the
    // controllers. numMcs >= 1 is enforced at construction, so the
    // modulo is safe and total: every address maps to exactly one
    // controller for ANY MC count, including non-powers-of-two (asserted
    // over numMcs in {3, 5, 6, 64} by test_topo's seeded cross-check),
    // which simply shard lines unequally-but-completely.
    return static_cast<McId>((addr / cachelineBytes) % cfg_.numMcs);
}

bool
System::done() const
{
    for (const auto &t : threads_) {
        if (!t->halted())
            return false;
    }
    for (const auto &c : cores_) {
        if (!c->drained())
            return false;
    }
    for (const auto &m : mcs_) {
        if (!m->wpq().empty())
            return false;
    }
    return true;
}

void
System::scheduleThreads(Tick now)
{
    if (now < nextScheduleCheck_)
        return;
    nextScheduleCheck_ = now + 256;

    for (CoreId c = 0; c < cfg_.numCores; ++c) {
        auto &queue = runQueues_[c];
        if (queue.size() < 2)
            continue;
        cpu::Core &core = *cores_[c];
        cpu::ThreadContext *cur = core.thread();

        bool quantum_over = (now % cfg_.ctxQuantum) < 256;
        bool should_switch = cur == nullptr || cur->halted() ||
                             core.lockBlocked() || quantum_over;
        if (!should_switch)
            continue;

        // Next runnable (non-halted) thread in round-robin order; skip
        // past the current thread so a blocked lock-waiter can never
        // shadow the runnable lock holder behind it in the queue.
        for (std::size_t step = 1; step <= queue.size(); ++step) {
            std::size_t idx = (runIndex_[c] + step) % queue.size();
            cpu::ThreadContext *cand = threads_[queue[idx]].get();
            if (cand->halted() || cand == cur || cand->wouldBlock())
                continue;
            trace::emitIf(
                traceSink_.get(),
                {now, trace::EventType::CtxSwitch,
                 static_cast<std::int32_t>(c), cand->tid(), invalidRegion,
                 0, 0, cur ? cur->tid() : ~0ull});
            core.setThread(cand);
            runIndex_[c] = idx;
            // Context-switch penalty: virtualizing the region ID and
            // flushing the pipeline (§IV-C).
            core.applyContextSwitch(now, ctxSwitchPenalty);
            break;
        }
    }
}

void
System::maybeEndWarmup()
{
    if (warmupDone_ || cfg_.warmupInsts == 0)
        return;
    std::uint64_t insts = 0;
    for (const auto &c : cores_)
        insts += c->counters().instsRetired;
    if (insts < cfg_.warmupInsts)
        return;
    warmupDone_ = true;
    warmupCycles_ = sim_.now();
    resetStats();
}

void
System::resetStats()
{
    // The NoC keeps counting through warmup: resetting it here would
    // change every fabric count in the reference outputs.
    for (auto &c : cores_)
        c->resetStats();
    for (auto &l1 : l1d_)
        l1->resetStats();
    l2_->resetStats();
    for (auto &mc : mcs_) {
        mc->resetStats();
        mc->wpqMutable().resetStats();
        mc->dramCache().resetStats();
    }
    counters_ = {};
}

/**
 * Advance the simulation until done() or cycle @p limit: one loop for
 * both engines.
 *
 * Each pass makes the scheduling and warmup decisions for the current
 * cycle, then either executes it or jumps the clock to the next cycle at
 * which anything can act: Simulator::nextEventTick() under the event
 * engine, bounded by @p limit and, whenever a core is oversubscribed, by
 * the next schedule check (so context switches land on identical
 * cycles). The cycle engine's nextEventTick() is always now(), so it
 * never jumps and ticks every component every cycle. done(), warmup
 * progress and scheduling decisions are all pure functions of component
 * state, which is frozen across a skipped window — and every external
 * mutation re-arms its target — so the two engines are bit-identical
 * (asserted by test_engine).
 */
bool
System::advance(Tick limit)
{
    while (sim_.now() < limit) {
        if (done())
            return true;
        scheduleThreads(sim_.now());
        maybeEndWarmup();
        Tick target = std::min(sim_.nextEventTick(), limit);
        if (multiQueued_)
            target = std::min(target, nextScheduleCheck_);
        if (target > sim_.now()) {
            sim_.advanceTo(target);
            continue;
        }
        sim_.executeCycle();
        if (watchArmed_ && execMem_.read(watchAddr_) != watchFrom_) {
            watchServed_ = true;
            watchTick_ = sim_.now();
            return false;
        }
    }
    return false;
}

RunResult
System::run()
{
    if (advance(cfg_.maxCycles))
        return collectResult(true);
    warn("run() hit the cycle cap (possible live-lock)");
    return collectResult(false);
}

RunResult
System::runWithPowerFailure(Tick fail_at)
{
    return runWithFailureStorm(fail_at, {});
}

RunResult
System::runWithFailureStorm(Tick fail_at,
                            const std::vector<unsigned> &drain_interrupts)
{
    if (advance(fail_at))
        return collectResult(true);
    // Each interrupted drain loses power after its iteration budget; the
    // battery-backed WPQ and MC registers survive, so the next drain
    // picks up exactly where the previous one stopped — the paper's
    // argument for why repeated failures are no worse than one.
    for (unsigned iters : drain_interrupts)
        executeCrashDrain(sim_.now(), static_cast<int>(iters));
    executeCrashDrain(sim_.now());
    return collectResult(false);
}

ServeProbe
System::runUntilWordChanges(Addr addr, std::uint64_t from)
{
    watchArmed_ = true;
    watchAddr_ = addr;
    watchFrom_ = from;
    watchServed_ = false;
    watchTick_ = 0;
    bool completed = advance(cfg_.maxCycles);
    watchArmed_ = false;
    ServeProbe probe;
    probe.served = watchServed_;
    probe.serveTick = watchTick_;
    probe.result = collectResult(completed);
    return probe;
}

void
System::executeCrashDrain(Tick now, int interrupt_after)
{
    // A completed drain is terminal: further storm failures against the
    // same dead machine change nothing (MCs are quiescent, faults were
    // injected, crashFinish() ran). Without this guard a re-entry would
    // re-run injectPostDrainFaults() and double-count media damage.
    if (drainFinished_)
        return;
    crashed_ = true;
    trace::emitIf(
        traceSink_.get(),
        {now, trace::EventType::PowerFailure, -1, 0, invalidRegion, 0, 0,
         interrupt_after >= 0 ? static_cast<std::uint64_t>(interrupt_after)
                              : 0});
    // Step 1: in-flight MC-to-MC ACKs are guaranteed delivery by the
    // MC-resident battery; everything on core persist paths dies.
    noc_.deliverAllNow(now);
    // Crash-time hardware faults land now, once — on a double failure
    // the second drain resumes against the already-damaged state.
    if (faultInjector_ && !crashFaultsInjected_) {
        crashFaultsInjected_ = true;
        injectCrashFaults(now);
    }
    // Steps 2-5: iterate flush/ACK exchange to quiescence.
    bool progress = true;
    int iters = 0;
    while (progress) {
        if (interrupt_after >= 0 && iters >= interrupt_after)
            return;  // power lost again mid-drain; no crashFinish()
        progress = false;
        for (auto &mc : mcs_)
            progress = mc->crashStep(now) || progress;
        noc_.deliverAllNow(now);
        ++iters;
    }
    // Step 6: discard unpersisted entries (rolling back any undo-logged
    // fallback overflow of a region that never became ready).
    drainFinished_ = true;
    for (auto &mc : mcs_)
        mc->crashFinish(now);
    // PM media faults (poison, silent flips) surface against the final
    // post-drain image: that is what recovery will read.
    if (faultInjector_) {
        injectPostDrainFaults(now);
        crashReport_.bcastRetries = noc_.counters().bcastRetries;
        crashReport_.bcastLostAtCrash = noc_.bcastLostAtCrash();
    }
    trace::emitIf(
        traceSink_.get(),
        {now, trace::EventType::CrashDrainEnd, -1, 0, invalidRegion, 0, 0,
         static_cast<std::uint64_t>(iters)});
}

/**
 * Crash-time faults that live in the battery-backed hardware itself:
 * WPQ entry damage (bit flips / torn writes, optionally pinned to a
 * checkpoint-area entry) and MC drain stalls. Damage is ECC-detected,
 * so the drain computes a global corruption barrier — the lowest
 * damaged region across all MCs — and truncates there; if some MC has
 * already normally flushed (or committed) a region at/above the
 * barrier, truncation would leave a partial region in PM, and the image
 * is flagged detected-unrecoverable instead.
 */
void
System::injectCrashFaults(Tick now)
{
    fault::FaultInjector &inj = *faultInjector_;
    const fault::FaultConfig &fc = inj.config();
    crashReport_.faultsArmed = true;

    // --- WPQ entry damage -------------------------------------------------
    std::vector<int> kinds;  // 1 = bit flip, 2 = torn write
    if (fc.wpqBitFlip)
        kinds.push_back(1);
    if (fc.wpqTear)
        kinds.push_back(2);
    if (fc.ckptEntryDamage && kinds.empty())
        kinds.push_back(1);

    Addr ckpt_lo = program_.layout.base;
    Addr ckpt_hi = ckpt_lo + static_cast<Addr>(threads_.size()) *
                                 program_.layout.threadStride;
    for (int kind : kinds) {
        std::vector<std::pair<McId, std::size_t>> cands;
        for (McId m = 0; m < mcs_.size(); ++m) {
            mem::Wpq &w = mcs_[m]->wpqMutable();
            for (std::size_t i = 0; i < w.size(); ++i) {
                const mem::PersistEntry &e = w.entryAt(i);
                if (e.ecc != 0)
                    continue;  // one fault per entry
                bool in_ckpt = e.addr >= ckpt_lo && e.addr < ckpt_hi;
                if (!fc.ckptEntryDamage || in_ckpt)
                    cands.emplace_back(m, i);
            }
        }
        if (cands.empty())
            continue;  // nothing to damage (queue empty at this cycle)
        auto [m, i] = cands[inj.rng().below(cands.size())];
        mem::PersistEntry &e = mcs_[m]->wpqMutable().entryAt(i);
        if (kind == 2) {
            e.value &= 0xffff'ffffull;  // upper half of the granule lost
            e.ecc = 2;
        } else {
            e.value ^= 1ull << inj.rng().below(64);
            e.ecc = 1;
        }
        ++crashReport_.wpqDamaged;
        trace::emitIf(
            traceSink_.get(),
            {now, trace::EventType::FaultInjected,
             static_cast<std::int32_t>(m), e.thread, e.region, e.addr,
             static_cast<std::uint64_t>(kind), i});
    }

    // --- Corruption barrier ----------------------------------------------
    RegionId barrier = invalidRegion;
    for (auto &mc : mcs_)
        barrier = std::min(barrier, mc->minDamagedRegion());
    if (barrier != invalidRegion) {
        bool hazard = false;
        for (auto &mc : mcs_)
            hazard = hazard || mc->truncationHazard(barrier);
        for (auto &mc : mcs_)
            mc->setCorruptBarrier(barrier, hazard);
        crashReport_.corruptBarrier = barrier;
        crashReport_.truncationHazard = hazard;
    }

    // --- MC stall during the drain ---------------------------------------
    if (fc.mcStallIters > 0) {
        McId m = static_cast<McId>(inj.rng().below(mcs_.size()));
        mcs_[m]->setCrashStall(fc.mcStallIters);
        crashReport_.stallsInjected += fc.mcStallIters;
        trace::emitIf(
            traceSink_.get(),
            {now, trace::EventType::FaultInjected,
             static_cast<std::int32_t>(m), 0, invalidRegion, 0, 3,
             fc.mcStallIters});
    }
}

/**
 * PM media faults surfacing at recovery time: poisoned (read-error)
 * words in the checkpoint area, and a silent bit flip in a persisted
 * register slot that only the hardened checkpoint checksum can catch.
 * Applied to the post-drain image — exactly what recovery reads.
 */
void
System::injectPostDrainFaults(Tick now)
{
    fault::FaultInjector &inj = *faultInjector_;
    const fault::FaultConfig &fc = inj.config();

    if (fc.pmPoisonWords > 0) {
        std::vector<Addr> cands;
        for (ThreadId t = 0; t < threads_.size(); ++t) {
            cands.push_back(program_.layout.pcSlot(t));
            for (ir::Reg r = 0; r < ir::numGprs; ++r)
                cands.push_back(program_.layout.regSlot(t, r));
        }
        for (unsigned k = 0; k < fc.pmPoisonWords && !cands.empty(); ++k) {
            std::size_t i = inj.rng().below(cands.size());
            Addr a = cands[i];
            cands.erase(cands.begin() + static_cast<std::ptrdiff_t>(i));
            // The device lost the word: scramble the data, then flag it.
            pm_.write(a, pm_.read(a) ^ 0xdead'beef'0bad'c0deull);
            pm_.poison(a);
            ++crashReport_.poisonedWords;
            trace::emitIf(
                traceSink_.get(),
                {now, trace::EventType::FaultInjected, -1, 0,
                 invalidRegion, a, 4, 0});
        }
    }

    if (fc.silentCkptFlip) {
        std::vector<ThreadId> live;
        for (ThreadId t = 0; t < threads_.size(); ++t) {
            std::uint32_t site =
                cpu::ckptSiteOf(pm_.read(program_.layout.pcSlot(t)));
            if (site != static_cast<std::uint32_t>(noSiteSentinel) &&
                site != cpu::haltSite)
                live.push_back(t);
        }
        if (!live.empty()) {
            ThreadId t = live[inj.rng().below(live.size())];
            ir::Reg r =
                static_cast<ir::Reg>(inj.rng().below(ir::numGprs));
            Addr a = program_.layout.regSlot(t, r);
            pm_.write(a, pm_.read(a) ^ (1ull << inj.rng().below(64)));
            ++crashReport_.silentFlips;
            trace::emitIf(
                traceSink_.get(),
                {now, trace::EventType::FaultInjected, -1, t,
                 invalidRegion, a, 5, r});
        }
    }
}

std::unique_ptr<System>
System::recover(const SystemConfig &cfg,
                const compiler::CompiledProgram &program,
                unsigned num_threads, const mem::MemImage &pm_state,
                const std::vector<Addr> &lock_addrs)
{
    auto sys = std::make_unique<System>(cfg, program, num_threads);

    // Adopt the post-crash PM image as both execution and PM state.
    sys->execMem_ = pm_state;
    sys->pm_ = pm_state;

    // Restart the dense region-ID sequence: the construction-time thread
    // resets consumed IDs that will never be broadcast, which would gate
    // the WPQs forever. Every ID allocated below belongs to a live
    // thread and is broadcast at its next boundary.
    sys->regionAlloc_ = cpu::RegionAllocator();

    // Reposition every thread at its latest persisted boundary. Under
    // the hardened checkpoint format the PC-slot word carries a checksum
    // in its upper half; the site id is always the low 32 bits (sentinel
    // words are stored raw and fit in 32 bits, so both formats agree).
    for (ThreadId t = 0; t < num_threads; ++t) {
        std::uint64_t word = pm_state.read(program.layout.pcSlot(t));
        std::uint64_t site =
            cfg.faults.hardenedCkpt
                ? static_cast<std::uint64_t>(cpu::ckptSiteOf(word))
                : word;
        cpu::ThreadContext &tc = *sys->threads_[t];
        if (site == noSiteSentinel) {
            tc.reset(0);  // no boundary persisted: restart from scratch
        } else if (site == cpu::haltSite) {
            tc.markHalted();
        } else {
            tc.recoverAt(static_cast<std::uint32_t>(site), pm_state);
        }
    }

    // Rebuild lock ownership from the persisted lock words: a nonzero
    // word means the owning thread resumed inside its critical section.
    for (Addr lock : lock_addrs) {
        std::uint64_t v = pm_state.read(lock);
        if (v != 0)
            sys->locks_.restore(lock, static_cast<ThreadId>(v - 1));
    }
    if (sys->traceSink_) {
        // The construction-time RegionBegin events described thread
        // positions that were just overwritten; restart the trace at
        // the recovered image.
        sys->traceSink_->clear();
        trace::emitIf(
            sys->traceSink_.get(),
            {0, trace::EventType::Recovery, -1, 0, invalidRegion, 0, 0,
             num_threads});
        for (ThreadId t = 0; t < num_threads; ++t) {
            if (sys->threads_[t]->halted())
                continue;
            trace::emitIf(
                sys->traceSink_.get(),
                {0, trace::EventType::RegionBegin,
                 static_cast<std::int32_t>(t % cfg.numCores), t,
                 sys->threads_[t]->currentRegion(), 0, 0, 0});
        }
    }
    sys->recovered_ = true;
    sys->failuresSurvived_ = 1;  // recoverChecked()/storms overwrite
    return sys;
}

RecoveryResult
System::recoverChecked(const SystemConfig &cfg,
                       const compiler::CompiledProgram &program,
                       unsigned num_threads,
                       const mem::MemImage &pm_state,
                       const std::vector<Addr> &lock_addrs,
                       const CrashReport *victim_report)
{
    RecoveryResult res;
    auto refuse = [&res](std::string why) {
        res.outcome = RecoveryOutcome::DetectedUnrecoverable;
        res.detail = std::move(why);
        res.sys.reset();
        return std::move(res);
    };

    // The crash drain's own findings come first: truncating the WPQ at
    // a corruption barrier after part of the barrier's epoch already
    // reached PM leaves a torn image no replay can repair.
    if (victim_report && victim_report->truncationHazard)
        return refuse("WPQ corruption barrier intersects flushed state");
    // Both a WPQ corruption barrier and broadcast copies lost at the
    // crash truncate the drain before the newest epoch: sound, but the
    // image is older than perfect hardware would have left.
    bool degraded = victim_report &&
                    (victim_report->corruptBarrier != invalidRegion ||
                     victim_report->bcastLostAtCrash > 0);

    const compiler::CheckpointLayout &layout = program.layout;
    for (ThreadId t = 0; t < num_threads; ++t) {
        Addr pc_slot = layout.pcSlot(t);
        if (pm_state.isPoisoned(pc_slot))
            return refuse("PM read error on thread " + std::to_string(t) +
                          " PC slot");
        std::uint64_t word = pm_state.read(pc_slot);
        std::uint32_t site = cpu::ckptSiteOf(word);
        if (site == static_cast<std::uint32_t>(noSiteSentinel) ||
            site == cpu::haltSite)
            continue;  // no checkpoint to validate
        if (site >= program.sites.size())
            return refuse("thread " + std::to_string(t) +
                          " PC slot names invalid boundary site " +
                          std::to_string(site));

        // A poisoned register slot is survivable only if this site's
        // pruning recipes reconstruct the register without reading it.
        bool any_poison = false;
        for (ir::Reg r = 0; r < ir::numGprs; ++r) {
            if (!pm_state.isPoisoned(layout.regSlot(t, r)))
                continue;
            any_poison = true;
            bool masked = false;
            for (const auto &recipe : program.site(site).recipes) {
                if (recipe.reg != r)
                    continue;
                if (recipe.kind == compiler::CkptRecipe::Kind::Const) {
                    masked = true;
                } else if (recipe.kind ==
                               compiler::CkptRecipe::Kind::AddSlot &&
                           recipe.src != r &&
                           !pm_state.isPoisoned(
                               layout.regSlot(t, recipe.src))) {
                    masked = true;
                }
                break;
            }
            if (!masked)
                return refuse("PM read error on thread " +
                              std::to_string(t) + " r" +
                              std::to_string(r) +
                              " checkpoint slot (no masking recipe)");
            ++res.maskedPoisonRegs;
        }

        // Hardened format: the checksum covers the raw slot words, so it
        // is only meaningful when every slot read back intact.
        if (cfg.faults.hardenedCkpt && !any_poison &&
            cpu::ckptSumOf(word) != cpu::ckptChecksum(pm_state, layout, t))
            return refuse("thread " + std::to_string(t) +
                          " register checkpoint checksum mismatch");
    }

    for (Addr lock : lock_addrs) {
        if (pm_state.isPoisoned(lock))
            return refuse("PM read error on lock word");
    }

    res.sys = recover(cfg, program, num_threads, pm_state, lock_addrs);
    degraded = degraded || res.maskedPoisonRegs > 0;
    res.outcome = degraded ? RecoveryOutcome::RecoveredDegraded
                           : RecoveryOutcome::Recovered;
    if (degraded)
        res.detail = "resumed from an older persisted epoch";
    // Default lineage: one failure survived. walkLifetime(), which
    // chains crash/recover rounds, overwrites the running total.
    res.sys->setRecoveryLineage(res.outcome, 1);
    trace::emitIf(
        res.sys->traceSink_.get(),
        {0, trace::EventType::RecoveryVerdict, -1, 0, invalidRegion, 0,
         static_cast<std::uint64_t>(res.outcome), res.maskedPoisonRegs});
    return res;
}

// ---- MemPort ---------------------------------------------------------------

Tick
System::loadLatency(CoreId core_id, Addr addr, Tick now)
{
    mem::Cache &l1 = *l1d_.at(core_id);
    Tick lat = l1.latency();
    auto r1 = l1.access(addr, false);
    if (r1.blocked) {
        // Zero-victim snoop conflict on the fill: wait out the front-end
        // buffer, then force the fill through.
        lat += cfg_.core.pathLatency + 2 * cfg_.mc.drainInterval;
        l1.setEvictionFilter(mem::VictimPolicy::None, nullptr);
        r1 = l1.access(addr, false);
        cpu::Core *core = cores_.at(core_id).get();
        l1.setEvictionFilter(cfg_.victimPolicy, [core](Addr line) {
            return !core->febContainsLine(line);
        });
    }
    if (r1.evictedDirty) {
        trace::emitIf(
            traceSink_.get(),
            {now, trace::EventType::CacheWriteback,
             static_cast<std::int32_t>(core_id), 0, invalidRegion,
             r1.evictedLine, 0, 0});
    }
    if (r1.hit)
        return lat;

    lat += l2_->latency();
    auto r2 = l2_->access(addr, false);
    if (r2.evictedDirty) {
        trace::emitIf(
            traceSink_.get(),
            {now, trace::EventType::CacheWriteback, -1, 0, invalidRegion,
             r2.evictedLine, 0, 0});
    }
    if (r2.hit)
        return lat;

    auto mc_res = mcs_.at(mcForAddr(addr))->serveLoadMiss(addr, now);
    lat += mc_res.latency;

    // Stale-load accounting (§IV-G, Fig. 6/14): without buffer snooping,
    // a fill whose line still has an unpersisted copy on some persist
    // path returns stale data and must be refetched once the store
    // lands — an extra miss and an extra PM round trip.
    if (cfg_.victimPolicy == mem::VictimPolicy::None &&
        schemeHasPersistPath(cfg_.scheme) && cfg_.mc.gatingEnabled) {
        Addr line = alignDown(addr, cachelineBytes);
        for (const auto &core : cores_) {
            if (core->febContainsLine(line)) {
                ++counters_.staleLoads;
                ++counters_.staleExtraMisses;
                lat += cfg_.mc.pmReadCycles;
                break;
            }
        }
    }
    return lat;
}

bool
System::storeAccess(CoreId core_id, Addr addr, Tick now)
{
    auto res = l1d_.at(core_id)->access(addr, true);
    if (res.blocked)
        return false;
    if (res.evictedDirty) {
        trace::emitIf(
            traceSink_.get(),
            {now, trace::EventType::CacheWriteback,
             static_cast<std::int32_t>(core_id), 0, invalidRegion,
             res.evictedLine, 0, 0});
    }
    // Ideal PSP runs PM as main memory: store lines that miss the cache
    // hierarchy reach the PM device directly and steal read bandwidth —
    // the write-interference half of forfeiting the DRAM cache.
    if (cfg_.scheme == Scheme::PspIdeal && !res.hit)
        mcs_.at(mcForAddr(addr))->pmWriteTraffic(now);
    return true;
}

bool
System::tryPersistAccept(const mem::PersistEntry &e, Tick now)
{
    mem::MemController &mc = *mcs_.at(mcForAddr(e.addr));
    if (!mc.canAccept(e))
        return false;
    mc.accept(e, now);
    return true;
}

void
System::broadcastBoundary(RegionId region, Tick now)
{
    noc_.broadcastBoundary(region, now);
}

bool
System::regionDurable(CoreId core_id, RegionId region)
{
    // With the WPQ running as a plain FIFO (ungated schemes), region
    // durability reduces to this core's persists having drained.
    if (!cfg_.mc.gatingEnabled)
        return persistsDrained(core_id);
    const cpu::Core &core = *cores_.at(core_id);
    if (!core.febEmpty() && core.febMinRegion() <= region)
        return false;
    for (const auto &mc : mcs_) {
        if (mc->drainCursor() <= region)
            return false;
    }
    return true;
}

bool
System::persistsDrained(CoreId core_id)
{
    const cpu::Core &core = *cores_.at(core_id);
    if (!core.febEmpty())
        return false;
    cpu::ThreadContext *t = cores_.at(core_id)->thread();
    if (t == nullptr)
        return true;
    ThreadId tid = t->tid();
    for (const auto &mc : mcs_) {
        bool found = false;
        mc->wpq().forEach([&](const mem::PersistEntry &e) {
            found = found || e.thread == tid;
        });
        if (found)
            return false;
    }
    return true;
}

void
System::registerStats(stats::Registry &registry) const
{
    for (const auto &c : cores_)
        registry.group(c->name()).addCounters(c->counters());
    auto cacheStats = [&registry](const mem::Cache &cache) {
        registry.group(cache.name()).addCounters(cache.counters());
    };
    for (const auto &l1 : l1d_)
        cacheStats(*l1);
    cacheStats(*l2_);
    for (const auto &mp : mcs_) {
        const mem::MemController *mc = mp.get();
        stats::StatGroup &g = registry.group(mc->name());
        g.addCounters(mc->counters());
        // The persistent flush-ID register (committed prefix + 1).
        g.addFunc("flushId",
                  [mc] { return static_cast<double>(mc->flushId()); });
        cacheStats(mc->dramCache());
        registry.group(mc->name() + ".wpq").addCounters(mc->wpq().counters());
    }
    registry.group(noc_.name()).addCounters(noc_.counters());

    stats::StatGroup &sg = registry.group("system");
    sg.addCounters(counters_);
    auto derived = [&sg](const char *name, auto value) {
        sg.addFunc(name, [value] { return static_cast<double>(value()); });
    };
    // Simulated cycles since the end of warmup.
    derived("cycles", [this] { return now() - warmupCycles_; });
    // 1 if the crash-drain protocol executed.
    derived("crashed", [this] { return crashed_; });
    // Telemetry events accepted by the sink.
    derived("traceEvents", [this] {
        return traceSink_ ? traceSink_->emitted() : 0;
    });
    // 0 fresh boot, 1 recovered, 2 degraded, 3 unrecoverable.
    derived("recoveryOutcome", [this] {
        return recovered_ ? 1 + static_cast<int>(bootOutcome_) : 0;
    });
    // Power failures survived by the recovered state.
    derived("failuresSurvived", [this] { return failuresSurvived_; });
}

std::span<const ResultField>
resultFields()
{
    using enum Reduce;
    using R = RunResult;
    static constexpr ResultField fields[] = {
        {"cycles", &R::cycles, Sum, {"system", "cycles"}},
        {"completed", &R::completed, Given},
        {"insts_retired", &R::instsRetired, Sum, {"core#", "instsRetired"}},
        {"stores_retired", &R::storesRetired, Sum,
         {"core#", "storesRetired"}},
        {"boundaries", &R::boundaries, Sum, {"core#", "boundariesRetired"}},
        {"ipc", &R::ipc, Ratio, {"core#", "instsRetired"},
         {"system", "cycles"}},
        {"boundary_wait_cycles", &R::boundaryWaitCycles, Sum,
         {"core#", "boundaryWaitCycles"}},
        {"sb_full_cycles", &R::sbFullCycles, Sum, {"core#", "sbFullCycles"}},
        {"feb_full_cycles", &R::febFullCycles, Sum,
         {"core#", "febFullCycles"}},
        {"snoop_blocked_cycles", &R::snoopBlockedCycles, Sum,
         {"core#", "snoopBlockedCycles"}},
        {"lock_blocked_cycles", &R::lockBlockedCycles, Sum,
         {"core#", "lockBlockedCycles"}},
        {"l1_hits", &R::l1Hits, Sum, {"core#.l1d", "hits"}},
        // A stale fill's refetch (§IV-G) is one more L1 miss.
        {"l1_misses", &R::l1Misses, Sum, {"core#.l1d", "misses"},
         {"system", "staleExtraMisses"}},
        {"stale_loads", &R::staleLoads, Sum, {"system", "staleLoads"}},
        {"buffer_conflicts", &R::bufferConflicts, Sum,
         {"core#.l1d", "bufferConflicts"}},
        {"diverted_victims", &R::divertedVictims, Sum,
         {"core#.l1d", "divertedVictims"}},
        {"wpq_load_hits", &R::wpqLoadHits, Sum, {"mc#", "wpqLoadHits"}},
        {"wpq_flushed_entries", &R::wpqFlushedEntries, Sum,
         {"mc#", "flushedEntries"}},
        {"wpq_fallback_flushes", &R::wpqFallbackFlushes, Sum,
         {"mc#", "fallbackFlushes"}},
        {"wpq_overflow_events", &R::wpqOverflowEvents, Sum,
         {"mc#", "overflowEvents"}},
        {"max_wpq_occupancy", &R::maxWpqOccupancy, Max,
         {"mc#", "maxWpqOccupancy"}},
        {"regions_committed", &R::regionsCommitted, Max,
         {"mc#", "regionsCommitted"}},
        {"noc_messages", &R::nocMessages, Sum, {"noc", "messagesSent"}},
        {"bcast_retries", &R::bcastRetries, Sum, {"noc", "bcastRetries"}},
        {"bcast_latency_avg", &R::bcastLatencyAvg, Ratio,
         {"mc#", "bcastLatency.sum"}, {"mc#", "bcastLatency.count"}},
        {"bcast_latency_max", &R::bcastLatencyMax, Max,
         {"mc#", "bcastLatency.max"}},
        {"avg_region_insts", &R::avgRegionInsts, Ratio,
         {"core#", "regionInsts.sum"}, {"core#", "regionInsts.count"}},
        {"avg_region_stores", &R::avgRegionStores, Ratio,
         {"core#", "regionStores.sum"}, {"core#", "regionStores.count"}},
    };
    // Every member is eight bytes (`completed` pads to eight), so a
    // member added without an entry here fails the build.
    static_assert(std::size(fields) * 8 == sizeof(RunResult),
                  "RunResult changed: give every member a field entry");
    return fields;
}

namespace {

/** Does registry group @p name match @p pattern ('#': an index)? */
bool
groupMatches(std::string_view pattern, std::string_view name)
{
    std::size_t hash = pattern.find('#');
    if (hash == std::string_view::npos)
        return pattern == name;
    std::string_view head = pattern.substr(0, hash);
    std::string_view tail = pattern.substr(hash + 1);
    if (name.size() <= head.size() + tail.size() ||
        !name.starts_with(head) || !name.ends_with(tail))
        return false;
    std::string_view index =
        name.substr(head.size(), name.size() - head.size() - tail.size());
    return std::all_of(index.begin(), index.end(),
                       [](char c) { return c >= '0' && c <= '9'; });
}

/** Sum (or max) of @p ref over its groups, in registration order. */
double
reduceStat(const stats::Registry &reg, const StatRef &ref, bool take_max)
{
    double v = 0;
    for (const auto &g : reg.groups()) {
        if (ref.group && groupMatches(ref.group, g->name())) {
            double x = g->value(ref.stat);
            v = take_max ? std::max(v, x) : v + x;
        }
    }
    return v;
}

} // namespace

RunResult
System::collectResult(bool completed)
{
    stats::Registry reg;
    registerStats(reg);
    auto sum = [&reg](const StatRef &s) { return reduceStat(reg, s, false); };
    RunResult r;
    for (const ResultField &f : resultFields()) {
        double v = completed;
        if (f.reduce == Reduce::Sum) {
            v = sum(f.a) + sum(f.b);
        } else if (f.reduce == Reduce::Max) {
            v = reduceStat(reg, f.a, true);
        } else if (f.reduce == Reduce::Ratio) {
            double den = sum(f.b);
            v = den != 0 ? sum(f.a) / den : 0;
        }
        std::visit(
            [&](auto m) {
                r.*m = static_cast<std::remove_cvref_t<decltype(r.*m)>>(v);
            },
            f.member);
    }
    return r;
}

} // namespace core
} // namespace lwsp
