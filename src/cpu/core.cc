#include "core.hh"

#include <string>

#include "trace/sink.hh"

namespace lwsp {
namespace cpu {

namespace {

// Table I pipeline: 4-wide issue and commit over a 224-entry ROB, and
// the front-end refill after a branch misprediction.
constexpr unsigned issueWidth = 4;
constexpr unsigned commitWidth = 4;
constexpr unsigned robEntries = 224;
constexpr Tick branchMissPenalty = 14;

} // namespace

Core::Core(CoreId id, const CoreConfig &cfg, MemPort &port)
    : Clocked("core" + std::to_string(id)), id_(id), cfg_(cfg),
      port_(port), rng_(cfg.rngSeed + id * 0x9e37u)
{
}

bool
Core::febContainsLine(Addr line) const
{
    for (const auto &fe : feb_) {
        if (alignDown(fe.entry.addr, cachelineBytes) == line)
            return true;
    }
    return false;
}

RegionId
Core::febMinRegion() const
{
    RegionId min = invalidRegion;
    for (const auto &fe : feb_) {
        if (fe.entry.region < min)
            min = fe.entry.region;
    }
    return min;
}

void
Core::persistEgress(Tick now)
{
    if (feb_.empty())
        return;
    FebEntry &head = feb_.front();
    if (!head.launched || now < head.arriveAt)
        return;
    if (!port_.tryPersistAccept(head.entry, now)) {
        ++counters_.pathBlockedCycles;
        return;
    }
    // Boundary broadcasts happen here, after every earlier granule of the
    // FIFO path has been accepted — the ordering LRPO relies on.
    if (head.entry.isBoundary) {
        port_.broadcastBoundary(head.entry.broadcastRegion, now);
        trace::emitIf(
            cfg_.sink,
            {now, trace::EventType::BoundaryBcastSend,
             static_cast<std::int32_t>(id_), head.entry.thread,
             head.entry.broadcastRegion, head.entry.addr,
             head.entry.value, 0});
    }
    feb_.pop_front();
    LWSP_ASSERT(launchedCount_ > 0, "egress of unlaunched entry");
    --launchedCount_;
}

void
Core::persistLaunch(Tick now)
{
    if (launchedCount_ >= feb_.size() || now < nextLaunch_)
        return;
    FebEntry &fe = feb_[launchedCount_];
    fe.launched = true;
    fe.arriveAt = now + cfg_.pathLatency;
    ++launchedCount_;
    auto slot = static_cast<Tick>(
        static_cast<double>(cfg_.pathCyclesPerEntry) *
        cfg_.trafficAmplification);
    nextLaunch_ = now + (slot ? slot : 1);
}

void
Core::drainStoreBuffer(Tick now)
{
    if (sb_.empty())
        return;
    const ExecRecord &rec = sb_.front();

    // Regular path: write-allocate into L1. A zero-victim snoop conflict
    // blocks the store until the FEB entry drains.
    if (!port_.storeAccess(id_, rec.addr, now)) {
        ++counters_.snoopBlockedCycles;
        return;
    }

    if (cfg_.persistPathEnabled) {
        if (feb_.size() >= cfg_.febEntries) {
            ++counters_.febFullCycles;
            return;
        }
        FebEntry fe;
        fe.entry.addr = rec.addr;
        fe.entry.value = rec.value;
        fe.entry.region = rec.region;
        fe.entry.thread = rec.thread;
        fe.entry.isBoundary = rec.isBoundary;
        fe.entry.broadcastRegion = rec.broadcastRegion;
        fe.entry.site = rec.site;
        feb_.push_back(fe);
    }
    sb_.pop_front();
}

void
Core::retire(Tick now)
{
    for (unsigned n = 0; n < commitWidth; ++n) {
        if (waitingDurable_) {
            bool durable =
                (cfg_.boundaryPolicy ==
                 CoreConfig::BoundaryPolicy::StallUntilDurable)
                    ? port_.regionDurable(id_, durableRegion_)
                    : port_.persistsDrained(id_);
            if (!durable) {
                ++counters_.boundaryWaitCycles;
                return;
            }
            waitingDurable_ = false;
        }
        if (rob_.empty() || rob_.front().ready > now)
            return;

        const ExecRecord &rec = rob_.front().rec;
        if (rec.isStore) {
            if (sb_.size() >= cfg_.sbEntries) {
                ++counters_.sbFullCycles;
                return;
            }
            sb_.push_back(rec);
            ++counters_.storesRetired;
            ++storesSinceBoundary_;
            if (cfg_.serveMarkAddr != 0 && rec.addr == cfg_.serveMarkAddr) {
                trace::emitIf(
                    cfg_.sink,
                    {now, trace::EventType::ServeMark,
                     static_cast<std::int32_t>(id_), rec.thread, rec.region,
                     rec.addr, rec.value, counters_.boundaryWaitCycles});
            }
        }

        ++counters_.instsRetired;
        ++instsSinceBoundary_;

        if (rec.isBoundary) {
            ++counters_.boundariesRetired;
            counters_.regionInsts.sample(
                static_cast<double>(instsSinceBoundary_));
            counters_.regionStores.sample(
                static_cast<double>(storesSinceBoundary_));
            trace::emitIf(
                cfg_.sink,
                {now, trace::EventType::RegionClose,
                 static_cast<std::int32_t>(id_), rec.thread,
                 rec.broadcastRegion, rec.addr, rec.value,
                 instsSinceBoundary_});
            if (rec.nextRegion != invalidRegion) {
                trace::emitIf(
                    cfg_.sink,
                    {now, trace::EventType::RegionBegin,
                     static_cast<std::int32_t>(id_), rec.thread,
                     rec.nextRegion, 0, 0, 0});
            }
            instsSinceBoundary_ = 0;
            storesSinceBoundary_ = 0;
            if (cfg_.boundaryPolicy ==
                CoreConfig::BoundaryPolicy::StallUntilDurable) {
                waitingDurable_ = true;
                durableRegion_ = rec.region;
            }
        } else if (rec.op == ir::Opcode::CkptStore) {
            trace::emitIf(
                cfg_.sink,
                {now, trace::EventType::CheckpointStore,
                 static_cast<std::int32_t>(id_), rec.thread, rec.region,
                 rec.addr, rec.value, 0});
        }

        if (cfg_.boundaryPolicy == CoreConfig::BoundaryPolicy::HwImplicit &&
            rec.isStore) {
            if (++hwStoreCount_ >= cfg_.hwRegionStores) {
                hwStoreCount_ = 0;
                waitingDurable_ = true;
                ++counters_.boundariesRetired;
                counters_.regionInsts.sample(
                    static_cast<double>(instsSinceBoundary_));
                counters_.regionStores.sample(
                    static_cast<double>(storesSinceBoundary_));
                instsSinceBoundary_ = 0;
                storesSinceBoundary_ = 0;
            }
        }

        rob_.pop_front();
    }
}

void
Core::dispatch(Tick now)
{
    lockBlocked_ = false;
    if (thread_ == nullptr || thread_->halted())
        return;
    if (now < dispatchBlockedUntil_)
        return;
    // Persist barriers (naive sfence / PPA+Capri region ends) stall the
    // whole pipeline, not just retirement.
    if (waitingDurable_)
        return;

    for (unsigned n = 0; n < issueWidth; ++n) {
        if (rob_.size() >= robEntries) {
            ++counters_.robFullCycles;
            return;
        }

        ExecRecord rec;
        StepStatus status = thread_->step(rec);
        if (status == StepStatus::Blocked) {
            lockBlocked_ = true;
            ++counters_.lockBlockedCycles;
            return;
        }
        if (status == StepStatus::Halted)
            return;

        Tick issue_at = now;
        for (ir::Reg r = 0; r < ir::numGprs; ++r) {
            if (rec.srcRegs & compiler::regBit(r))
                issue_at = std::max(issue_at, regReady_[r]);
        }

        Tick done;
        if (rec.isLoad) {
            done = issue_at + port_.loadLatency(id_, rec.addr, now);
        } else if (rec.isStore) {
            done = issue_at + 1;  // address/data ready
        } else {
            done = issue_at + rec.aluLatency;
        }

        if (rec.dstReg >= 0)
            regReady_[static_cast<std::size_t>(rec.dstReg)] = done;

        if (rec.isBranch && rng_.chance(cfg_.branchMissRate)) {
            ++counters_.branchMisses;
            dispatchBlockedUntil_ = done + branchMissPenalty;
        }

        rob_.push_back({done, rec});

        if (rec.isHalt || now < dispatchBlockedUntil_)
            return;
    }
}

void
Core::tick(Tick now)
{
    persistEgress(now);
    persistLaunch(now);
    drainStoreBuffer(now);
    retire(now);
    dispatch(now);
}

Tick
Core::nextActiveTick(Tick now) const
{
    // Stages that mutate state or account a stall statistic on every
    // cycle pin the core to "active now": a non-empty store buffer
    // retries (or counts snoop/FEB-full stalls) each cycle, and a
    // durability wait counts boundaryWaitCycles each cycle.
    if (waitingDurable_ || !sb_.empty())
        return now;

    Tick next = maxTick;
    if (!feb_.empty()) {
        // Egress acts (or counts pathBlockedCycles) once the launched
        // head arrives; launch acts at the next bandwidth slot.
        if (feb_.front().launched)
            next = std::min(next, std::max(now, feb_.front().arriveAt));
        if (launchedCount_ < feb_.size())
            next = std::min(next, std::max(now, nextLaunch_));
    }
    // Retirement acts when the ROB head's completion time is reached.
    if (!rob_.empty())
        next = std::min(next, std::max(now, rob_.front().ready));
    // Dispatch acts once any flush/context-switch penalty expires. A
    // lock-blocked thread re-steps (and counts lockBlockedCycles) every
    // cycle, which this covers: dispatchBlockedUntil_ <= now then.
    if (thread_ != nullptr && !thread_->halted())
        next = std::min(next, std::max(now, dispatchBlockedUntil_));
    return next;
}

} // namespace cpu
} // namespace lwsp
