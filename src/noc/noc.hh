/**
 * @file
 * On-chip / on-rack network for the LRPO control plane.
 *
 * Carries boundary broadcasts (router -> every MC) and the bdry-ACK /
 * flush-ACK exchanges between MCs, each with a fixed hop latency. Per the
 * paper (§IV-B), MC-to-MC ACKs ride battery-backed links: on power failure
 * `deliverAllNow()` drains them so in-flight ACKs still reach their
 * targets, while anything a core had in flight simply dies with the core.
 *
 * The Noc is the only module that knows the fabric's shape. Its send
 * API is two calls: the router's `broadcastBoundary`, and an MC's
 * `ackRound`, which hands one ACK round to whichever fabric is built.
 * Every message reaches an MC through one port (`deliver`), so an MC
 * only ever sees BdryArrival, a peer's BdryAck/FlushAck, or a root
 * announcement it reads as every peer's ACK at once.
 *
 * Two fabrics (see topology.hh), sharing one array of links into MCs
 * and switch stages (`downLinks_`):
 *
 *  - Flat (default, the paper's machine): a dedicated router->MC link per
 *    MC; an ACK round is one unicast per peer (O(MCs^2) messages per
 *    region).
 *
 *  - Tree (radix r): boundary broadcasts descend a complete r-ary tree
 *    of switch stages, one hop latency per level; ACKs ascend it, each
 *    interior node forwarding one combined ACK once every child subtree
 *    has reported, and the root announcing the completed round back down
 *    as `BdryAllAcked` / `FlushAllAcked` (O(MCs) messages per region).
 *    The ACK/announce plane is battery-backed control traffic and is
 *    always reliable, exactly like flat-mode ACK unicasts; only boundary
 *    broadcasts roll fault fates, and they roll them **per tree link**,
 *    so one bad high link can lose a whole subtree at once.
 *
 * Broadcast reliability: the paper assumes the router-to-MC links never
 * lose a boundary broadcast. When the fault layer is armed we drop that
 * assumption, and the router runs an ack/retry protocol instead of
 * fire-and-forget: each broadcast copy carries a `bcastId`, delivery is
 * observed per MC (a link-level ack, folded into the retry timeout
 * rather than modelled as a separate message), and copies still
 * undelivered when the timeout expires are re-sent with exponential
 * backoff. Retries re-send the *original stored message* (never a
 * reconstruction) and, in tree mode, re-descend only into subtrees that
 * still contain undelivered MCs — a modelling shortcut for the real
 * switch's pruned multicast state; copies it would otherwise deliver
 * twice are filtered at the MC port by `bcastId` dedup anyway. With the
 * injector armed but all probabilities zero, every copy is delivered
 * before its deadline and the pending entry is erased on arrival —
 * timing and traces are bit-identical to the fire-and-forget path.
 * Armed or not, a broadcast takes one path: arming only stamps the
 * `bcastId` and files the pending entry first, and every copy leaves
 * through `sendCopy`, which rolls a fate only for a stamped copy.
 *
 * Delivery tracking uses a size-checked DynBitset shared by the retry
 * path and `deliverAllNow` — the old single-`uint64_t` mask made
 * `1ull << mc` undefined behaviour at 64+ MCs and silently aliased
 * delivery above 64 (see common/bitset.hh).
 */

#ifndef LWSP_NOC_NOC_HH
#define LWSP_NOC_NOC_HH

#include <algorithm>
#include <array>
#include <memory>
#include <utility>
#include <vector>

#include "common/bitset.hh"
#include "common/stats.hh"
#include "fault/fault.hh"
#include "mem/persist.hh"
#include "noc/topology.hh"
#include "sim/delay_line.hh"
#include "sim/simulator.hh"
#include "trace/sink.hh"

namespace lwsp {
namespace noc {

class Noc : public Clocked
{
  public:
    Noc(unsigned num_mcs, Tick hop_latency, TopologyConfig topo = {})
        : Clocked("noc"), hopLatency_(hop_latency), numMcs_(num_mcs),
          retryTimeout_(8 * (hop_latency ? hop_latency : 1))
    {
        LWSP_ASSERT(num_mcs >= 1, "Noc needs at least one MC");
        // A single MC has no fabric to aggregate over: degrade to flat.
        if (topo.isTree() && num_mcs > 1) {
            shape_ = std::make_unique<TreeShape>(num_mcs, topo.radix);
            downLinks_.resize(shape_->numNodes());
            upLinks_.resize(shape_->numNodes());
            aggSlots_.resize(shape_->numNodes());
        } else {
            downLinks_.resize(num_mcs);
        }
    }

    /** Register MC endpoints after construction (index = McId). */
    void
    attach(std::vector<mem::McEndpoint *> endpoints)
    {
        LWSP_ASSERT(endpoints.size() == numMcs_,
                    "endpoint count mismatch");
        endpoints_ = std::move(endpoints);
    }

    /** Arm fault injection (null = perfect links, fire-and-forget). */
    void setFaultInjector(fault::FaultInjector *f) { faults_ = f; }
    void setTraceSink(trace::TraceSink *s) { sink_ = s; }

    unsigned numMcs() const { return numMcs_; }
    bool isTree() const { return shape_ != nullptr; }

    /**
     * MC @p from's bdry-ACK or flush-ACK round for @p msg. Flat: one
     * unicast per peer, in ascending MC order. Tree: one ACK onto the
     * MC's leaf uplink; interior nodes aggregate it on the way up and
     * the root announces the completed round to every MC.
     */
    void
    ackRound(McId from, const mem::McMsg &msg, Tick now)
    {
        LWSP_ASSERT(from < numMcs_, "bad MC id");
        if (numMcs_ == 1)
            return;  // no peers: nothing sent, nothing to re-arm
        if (isTree()) {
            push(upLinks_[from], now, hopLatency_, msg);
            ++counters_.messagesSent;
        } else {
            for (McId mc = 0; mc < numMcs_; ++mc) {
                if (mc != from)
                    push(downLinks_[mc], now, hopLatency_, msg);
            }
            counters_.messagesSent += numMcs_ - 1;
        }
        rearm();
    }

    /** Router broadcast of a region boundary to every MC. */
    void
    broadcastBoundary(RegionId region, Tick now)
    {
        mem::McMsg msg;
        msg.type = mem::McMsg::Type::BdryArrival;
        msg.region = region;
        bool pin_drop = false;
        if (faults_ != nullptr) {
            // The pending entry exists before the copies leave: tree
            // forwarding consults it to prune delivered subtrees.
            msg.bcastId = nextBcastId_++;
            PendingBcast &pb = pending_.emplace_back();
            pb.msg = msg;
            pb.pending.reset(numMcs_);
            pb.pending.setAll();
            pb.deadline = now + retryTimeout_;
            pin_drop = faults_->pinnedBcastDrop(now);
        }
        if (isTree()) {
            forwardDown(shape_->root(), msg, now, pin_drop);
        } else {
            for (McId mc = 0; mc < numMcs_; ++mc)
                sendCopy(downLinks_[mc], msg, now, pin_drop);
        }
        ++counters_.boundariesBroadcast;
        rearm();
    }

    void
    tick(Tick now) override
    {
        for (unsigned n = 0; n < downLinks_.size(); ++n) {
            while (downLinks_[n].headReady(now))
                handleDownAt(n, downLinks_[n].pop(), now);
        }
        for (unsigned n = 0; n < upLinks_.size(); ++n) {
            while (upLinks_[n].headReady(now))
                aggregateAt(shape_->parent(n), n, upLinks_[n].pop(), now);
        }
        recomputeHeadTick();
        if (faults_ != nullptr && !pending_.empty())
            retryExpired(now);
    }

    /**
     * O(1) in the links: the earliest link head is kept up to date by
     * push() and recomputeHeadTick(). Only fault mode has pending
     * broadcasts whose retry deadlines need a scan.
     */
    Tick
    nextActiveTick(Tick now) const override
    {
        Tick next = std::max(now, headTick_);  // maxTick when all empty
        if (faults_ != nullptr)
            next = std::min(next, nextRetryTick(now));
        return next;
    }

    /**
     * nextActiveTick() by a full rescan of every link head, as it was
     * computed before the head tick was cached: the test oracle for it.
     */
    Tick
    nextActiveTickByRescan(Tick now) const
    {
        Tick next = maxTick;
        for (const auto *links : {&downLinks_, &upLinks_}) {
            for (const auto &link : *links) {
                if (!link.empty())
                    next = std::min(next,
                                    std::max(now, link.headReadyTick()));
            }
        }
        return std::min(next, nextRetryTick(now));
    }

    /**
     * Power failure: the MC-resident battery guarantees in-flight control
     * messages reach their targets (paper §IV-B/F step 1). The router
     * itself is NOT battery-backed: broadcast copies a faulty link
     * dropped and the router had not yet retried are lost for good — the
     * crash drain then stops before the first region whose boundary is
     * missing at some MC, and recovery degrades to that older epoch.
     * On a tree, in-flight copies at interior stages are forwarded
     * reliably the rest of the way down (battery), and the ACK plane
     * drains to quiescence (aggregations may complete mid-drain).
     */
    void
    deliverAllNow(Tick now)
    {
        // A tree drains to quiescence; a flat fabric takes one pass, so
        // an ACK pushed to an MC the pass already emptied waits for the
        // drain loop's next call (the storm benches' drain-interrupt
        // budgets count those calls).
        bool again;
        do {
            again = false;
            for (unsigned n = 0; n < downLinks_.size(); ++n) {
                while (!downLinks_[n].empty()) {
                    handleDownAt(n, downLinks_[n].pop(), now,
                                 /*reliable=*/true);
                    again = true;
                }
            }
            for (unsigned n = 0; n < upLinks_.size(); ++n) {
                while (!upLinks_[n].empty()) {
                    aggregateAt(shape_->parent(n), n, upLinks_[n].pop(),
                                now);
                    again = true;
                }
            }
        } while (again && isTree());
        recomputeHeadTick();
        if (faults_ != nullptr) {
            for (const auto &pb : pending_) {
                if (pb.pending.any())
                    ++bcastLostAtCrash_;
            }
            pending_.clear();
        }
    }

    /** The fabric's counters: exactly what resetStats() zeroes. */
    struct Counters
    {
        std::uint64_t messagesSent = 0;         ///< control plane
        std::uint64_t boundariesBroadcast = 0;
        std::uint64_t bcastRetries = 0;         ///< rounds (lossy links)

        static constexpr auto
        fields()
        {
            using C = Counters;
            return std::to_array<stats::Counter<C>>({
                {"messagesSent", &C::messagesSent},
                {"boundariesBroadcast", &C::boundariesBroadcast},
                {"bcastRetries", &C::bcastRetries},
            });
        }
    };

    const Counters &counters() const { return counters_; }

    /** Zero the counters (not at the end of warmup: System::resetStats). */
    void resetStats() { counters_ = {}; }

    /**
     * Broadcasts still undelivered somewhere when the crash drain began,
     * so lost for good: a CrashReport field, not a registry stat.
     */
    std::uint64_t bcastLostAtCrash() const { return bcastLostAtCrash_; }

  private:
    /**
     * Every push onto a link goes through here. A push onto an empty
     * link makes it the new head; onto a busy one it queues behind the
     * head. Either way min'ing the link's head into headTick_ keeps it
     * exact until the next pop.
     */
    void
    push(DelayLine<mem::McMsg> &line, Tick now, Tick latency,
         const mem::McMsg &msg)
    {
        line.push(now, latency, msg);
        headTick_ = std::min(headTick_, line.headReadyTick());
    }

    /** Re-derive headTick_ after pops: one scan per tick, not per push. */
    void
    recomputeHeadTick()
    {
        headTick_ = maxTick;
        for (const auto *links : {&downLinks_, &upLinks_}) {
            for (const auto &link : *links) {
                if (!link.empty())
                    headTick_ = std::min(headTick_, link.headReadyTick());
            }
        }
    }

    /** Earliest retry deadline of a pending broadcast (fault mode). */
    Tick
    nextRetryTick(Tick now) const
    {
        Tick next = maxTick;
        for (const auto &pb : pending_) {
            if (pb.pending.any())
                next = std::min(next, std::max(now, pb.deadline));
        }
        return next;
    }

    /** One not-yet-everywhere-delivered broadcast (fault mode only). */
    struct PendingBcast
    {
        mem::McMsg msg;       ///< original message, re-sent verbatim
        DynBitset pending;    ///< bit per MC still undelivered
        Tick deadline = 0;
        unsigned attempts = 0;
    };

    /**
     * Send one broadcast copy down @p line. A fault-armed copy
     * (bcastId != 0) rolls the injector's fate, unless @p reliable
     * (battery-backed forwarding in the crash drain); anything else —
     * a fault-null broadcast, a root announcement — is one plain push.
     */
    void
    sendCopy(DelayLine<mem::McMsg> &line, const mem::McMsg &msg, Tick now,
             bool pin_drop, bool reliable = false)
    {
        ++counters_.messagesSent;
        if (msg.bcastId == 0 || reliable) {
            push(line, now, hopLatency_, msg);
            return;
        }
        fault::BcastFate fate =
            pin_drop ? fault::BcastFate::Drop : faults_->bcastFate();
        switch (fate) {
          case fault::BcastFate::Deliver:
            push(line, now, hopLatency_, msg);
            break;
          case fault::BcastFate::Drop:
            ++faults_->bcastDrops;
            break;
          case fault::BcastFate::Delay:
            ++faults_->bcastDelays;
            push(line, now, hopLatency_ + faults_->bcastDelayCycles(), msg);
            break;
          case fault::BcastFate::Duplicate:
            ++faults_->bcastDups;
            push(line, now, hopLatency_, msg);
            push(line, now, hopLatency_, msg);
            break;
        }
    }

    const PendingBcast *
    findPending(std::uint64_t id) const
    {
        for (const auto &pb : pending_) {
            if (pb.msg.bcastId == id)
                return &pb;
        }
        return nullptr;
    }

    /**
     * Tree: send @p msg down every child link of @p node. A fault-armed
     * broadcast skips subtrees with no undelivered MC left.
     */
    void
    forwardDown(unsigned node, const mem::McMsg &msg, Tick now,
                bool pin_drop, bool reliable = false)
    {
        const PendingBcast *pb =
            msg.bcastId != 0 ? findPending(msg.bcastId) : nullptr;
        for (unsigned c : shape_->children(node)) {
            if (msg.bcastId != 0 &&
                (pb == nullptr ||
                 !pb->pending.intersects(shape_->leavesUnder(c))))
                continue;  // every MC below already has a copy
            sendCopy(downLinks_[c], msg, now, pin_drop, reliable);
        }
    }

    /**
     * A message surfaced at the end of node @p node's downlink: an MC's
     * port (node ids below numMcs_ on either fabric), or a tree switch
     * stage that forwards it on.
     */
    void
    handleDownAt(unsigned node, const mem::McMsg &msg, Tick now,
                 bool reliable = false)
    {
        if (node < numMcs_)
            deliver(static_cast<McId>(node), msg, now);
        else
            forwardDown(node, msg, now, /*pin_drop=*/false, reliable);
    }

    /** MC @p mc's port: filter a duplicate broadcast copy, else receive. */
    void
    deliver(McId mc, const mem::McMsg &msg, Tick now)
    {
        if (msg.bcastId != 0 && !markDelivered(msg.bcastId, mc))
            return;  // this MC already has a copy
        endpoints_.at(mc)->receive(msg, now);
    }

    /**
     * Tree: an ACK from child @p child arrived at interior node
     * @p node. Once every child subtree has reported for this
     * (type, region), forward one combined ACK up — or, at the root,
     * announce the completed round to every MC.
     */
    void
    aggregateAt(unsigned node, unsigned child, const mem::McMsg &msg,
                Tick now)
    {
        LWSP_ASSERT(node != TreeShape::invalidNode, "ack above the root");
        const auto &kids = shape_->children(node);
        AggSlots &agg = aggSlots_[node];
        std::size_t s = 0;
        while (s < agg.live && (agg.slots[s].type != msg.type ||
                                agg.slots[s].region != msg.region))
            ++s;
        if (s == agg.live) {
            // A new (type, region) round: reuse a retired slot if any.
            if (s == agg.slots.size())
                agg.slots.emplace_back();
            agg.slots[s].type = msg.type;
            agg.slots[s].region = msg.region;
            agg.slots[s].heard.reset(kids.size());
            ++agg.live;
        }
        DynBitset &heard = agg.slots[s].heard;
        for (std::size_t i = 0; i < kids.size(); ++i) {
            if (kids[i] == child) {
                heard.set(i);
                break;
            }
        }
        if (heard.count() != kids.size())
            return;
        // Retire the slot: the last live one takes its place.
        std::swap(agg.slots[s], agg.slots[agg.live - 1]);
        --agg.live;
        if (node == shape_->root()) {
            mem::McMsg ann;
            ann.type = (msg.type == mem::McMsg::Type::BdryAck)
                           ? mem::McMsg::Type::BdryAllAcked
                           : mem::McMsg::Type::FlushAllAcked;
            ann.region = msg.region;
            forwardDown(node, ann, now, /*pin_drop=*/false);
            return;
        }
        push(upLinks_[node], now, hopLatency_, msg);
        ++counters_.messagesSent;
    }

    /** @return true on first delivery to @p mc, false for a duplicate. */
    bool
    markDelivered(std::uint64_t id, McId mc)
    {
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
            if (it->msg.bcastId != id)
                continue;
            if (!it->pending.test(mc))
                return false;  // this MC already got a copy
            it->pending.clear(mc);
            if (it->pending.none())
                pending_.erase(it);
            return true;
        }
        // The broadcast is complete everywhere: a late duplicate.
        return false;
    }

    /** Re-send undelivered copies whose retry deadline has passed. */
    void
    retryExpired(Tick now)
    {
        for (auto &pb : pending_) {
            if (pb.pending.none() || now < pb.deadline)
                continue;
            ++pb.attempts;
            ++counters_.bcastRetries;
            if (isTree()) {
                forwardDown(shape_->root(), pb.msg, now, false);
            } else {
                for (McId mc = 0; mc < numMcs_; ++mc) {
                    if (pb.pending.test(mc))
                        sendCopy(downLinks_[mc], pb.msg, now, false);
                }
            }
            // Exponential backoff, capped so deadlines stay sane.
            unsigned shift = std::min(pb.attempts, 6u);
            pb.deadline = now + (retryTimeout_ << shift);
            trace::emitIf(
                sink_, {now, trace::EventType::BcastRetry, -1, 0,
                        pb.msg.region, 0, pb.msg.bcastId, pb.attempts});
        }
    }

    Tick hopLatency_;
    unsigned numMcs_;
    std::vector<mem::McEndpoint *> endpoints_;
    Counters counters_;

    /**
     * Earliest ready tick over every link head (maxTick when all are
     * empty). Exact between ticks: push() lowers it, tick() and
     * deliverAllNow() recompute it after they pop.
     */
    Tick headTick_ = maxTick;

    /**
     * The link into node n, indexed by n. Flat: the router's link to
     * MC n. Tree: the link from parent(n) down to n (root unused).
     */
    std::vector<DelayLine<mem::McMsg>> downLinks_;

    // Tree-mode fabric (null/empty on a flat fabric).
    std::unique_ptr<TreeShape> shape_;
    /** Link from node n up to parent(n), indexed by n (root unused). */
    std::vector<DelayLine<mem::McMsg>> upLinks_;
    /**
     * One ACK round an interior node is aggregating: the children heard
     * from so far for (type, region). Setting a child's bit twice is a
     * no-op, so a repeated ACK from one subtree never completes a round.
     */
    struct AggSlot
    {
        mem::McMsg::Type type = mem::McMsg::Type::BdryAck;
        RegionId region = 0;
        DynBitset heard;
    };
    /**
     * A node's open rounds: slots [0, live) are live, the rest retired
     * and kept for reuse. A handful of regions are in flight at once,
     * so a linear search beats any keyed container.
     */
    struct AggSlots
    {
        std::vector<AggSlot> slots;
        std::size_t live = 0;
    };
    std::vector<AggSlots> aggSlots_;  ///< by node id (leaves unused)

    // Fault-mode state (empty/unused when faults_ is null).
    fault::FaultInjector *faults_ = nullptr;
    trace::TraceSink *sink_ = nullptr;
    Tick retryTimeout_;
    std::uint64_t nextBcastId_ = 1;
    std::uint64_t bcastLostAtCrash_ = 0;
    std::vector<PendingBcast> pending_;
};

} // namespace noc
} // namespace lwsp

#endif // LWSP_NOC_NOC_HH
