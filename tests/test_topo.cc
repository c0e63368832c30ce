/**
 * @file
 * Scale-out machine-model tests: DynBitset, tree-topology geometry,
 * the >= 64-MC broadcast-mask regression, sharded address interleaving
 * and flat-vs-tree protocol equivalence.
 *
 * The headline regression here is historical: broadcast delivery used
 * to be tracked in one `uint64_t` mask, making `1ull << mc` undefined
 * behaviour at 64+ MCs and silently aliasing delivery above 64 (the
 * `inboxes_.size() >= 64 ? ~0ull` branch could both under- and
 * over-count `bcastLostAtCrash`). These tests run a 65-MC fault-armed
 * NoC — one past the word boundary — on both fabrics and assert
 * exactly-once delivery and exact lost-at-crash accounting.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/bitset.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "core/system.hh"
#include "fault/fault.hh"
#include "noc/noc.hh"
#include "noc/topology.hh"
#include "pds/pds.hh"

using namespace lwsp;

// ---- DynBitset -------------------------------------------------------------

TEST(DynBitset, WordBoundarySizes)
{
    for (unsigned n : {1u, 63u, 64u, 65u, 128u, 130u}) {
        DynBitset b(n);
        EXPECT_EQ(b.size(), n);
        EXPECT_TRUE(b.none());
        EXPECT_EQ(b.count(), 0u);

        b.set(0);
        b.set(n - 1);
        EXPECT_TRUE(b.test(0));
        EXPECT_TRUE(b.test(n - 1));
        EXPECT_EQ(b.count(), n == 1 ? 1u : 2u);
        EXPECT_TRUE(b.any());

        b.setAll();
        EXPECT_EQ(b.count(), n);
        for (unsigned i = 0; i < n; ++i)
            EXPECT_TRUE(b.test(i)) << "bit " << i << " of " << n;

        b.clear(n - 1);
        EXPECT_EQ(b.count(), n - 1);
        EXPECT_FALSE(b.test(n - 1));
    }
}

TEST(DynBitset, ContainsAllAndIntersects)
{
    DynBitset all(65), some(65), other(65);
    all.setAll();
    some.set(0);
    some.set(64);
    other.set(33);
    EXPECT_TRUE(all.containsAll(some));
    EXPECT_FALSE(some.containsAll(all));
    EXPECT_TRUE(some.intersects(all));
    EXPECT_FALSE(some.intersects(other));
    EXPECT_TRUE(some.intersects(some));
    DynBitset empty(65);
    EXPECT_TRUE(some.containsAll(empty));
    EXPECT_FALSE(some.intersects(empty));
}

// ---- TopologyConfig spec tokens --------------------------------------------

TEST(Topology, ConfigRoundTripsAndRejects)
{
    for (const char *s : {"flat", "tree2", "tree4", "tree16", "tree1024"}) {
        noc::TopologyConfig tc;
        ASSERT_TRUE(noc::TopologyConfig::parse(s, tc)) << s;
        EXPECT_EQ(tc.toString(), s);
        noc::TopologyConfig again;
        ASSERT_TRUE(noc::TopologyConfig::parse(tc.toString(), again));
        EXPECT_EQ(again, tc);
    }
    noc::TopologyConfig tc;
    for (const char *bad :
         {"", "tree", "tree0", "tree1", "tree1025", "treex", "tree4x",
          "flat2", "ring4"})
        EXPECT_FALSE(noc::TopologyConfig::parse(bad, tc)) << bad;
    EXPECT_EQ(noc::TopologyConfig{}.toString(), "flat");
    EXPECT_FALSE(noc::TopologyConfig{}.isTree());
}

// ---- TreeShape geometry ----------------------------------------------------

TEST(Topology, TreeShapeInvariants)
{
    for (unsigned n : {2u, 3u, 4u, 5u, 8u, 16u, 64u, 65u}) {
        for (unsigned radix : {2u, 3u, 4u, 8u}) {
            noc::TreeShape shape(n, radix);
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " radix=" + std::to_string(radix));
            EXPECT_EQ(shape.numLeaves(), n);
            EXPECT_GE(shape.numNodes(), n);
            EXPECT_EQ(shape.root(), shape.numNodes() - 1);
            EXPECT_EQ(shape.depth(shape.root()), 0u);
            EXPECT_EQ(shape.parent(shape.root()),
                      noc::TreeShape::invalidNode);

            // Every non-root node has a larger-id parent that lists it
            // as a child exactly once; interior fan-out respects radix.
            std::vector<unsigned> child_count(shape.numNodes(), 0);
            for (unsigned node = 0; node + 1 < shape.numNodes();
                 ++node) {
                unsigned p = shape.parent(node);
                ASSERT_NE(p, noc::TreeShape::invalidNode) << node;
                EXPECT_GT(p, node);
                unsigned seen = 0;
                for (unsigned c : shape.children(p))
                    seen += (c == node);
                EXPECT_EQ(seen, 1u) << node;
                ++child_count[p];
            }
            for (unsigned node = 0; node < shape.numNodes(); ++node) {
                EXPECT_LE(shape.children(node).size(), radix);
                if (shape.isLeaf(node))
                    EXPECT_TRUE(shape.children(node).empty());
                else
                    EXPECT_FALSE(shape.children(node).empty());
                EXPECT_EQ(child_count[node],
                          shape.children(node).size());
            }

            // Leaf coverage: a leaf covers itself, an interior node the
            // disjoint union of its children, the root everything.
            EXPECT_EQ(shape.leavesUnder(shape.root()).count(), n);
            for (unsigned node = 0; node < shape.numNodes(); ++node) {
                const DynBitset &cover = shape.leavesUnder(node);
                if (shape.isLeaf(node)) {
                    EXPECT_EQ(cover.count(), 1u);
                    EXPECT_TRUE(cover.test(node));
                    continue;
                }
                unsigned sum = 0;
                for (unsigned c : shape.children(node)) {
                    EXPECT_TRUE(
                        cover.containsAll(shape.leavesUnder(c)));
                    sum += shape.leavesUnder(c).count();
                }
                EXPECT_EQ(cover.count(), sum)
                    << "overlapping subtrees under node " << node;
            }

            // Depth is bounded by ceil(log_radix(n)).
            unsigned levels = 0;
            for (unsigned width = n; width > 1;
                 width = (width + radix - 1) / radix)
                ++levels;
            for (unsigned leaf = 0; leaf < n; ++leaf)
                EXPECT_LE(shape.depth(leaf), levels);
        }
    }
}

// ---- The 65-MC broadcast-mask regression -----------------------------------

namespace {

struct CountingEndpoint : mem::McEndpoint
{
    std::vector<mem::McMsg> got;
    void receive(const mem::McMsg &msg, Tick) override
    {
        got.push_back(msg);
    }
};

struct NocRig
{
    noc::Noc net;
    fault::FaultInjector inj;
    std::vector<CountingEndpoint> eps;

    NocRig(unsigned num_mcs, noc::TopologyConfig topo,
           const fault::FaultConfig &fc)
        : net(num_mcs, /*hop=*/5, topo), inj(fc, 1), eps(num_mcs)
    {
        net.setFaultInjector(&inj);
        std::vector<mem::McEndpoint *> ptrs;
        for (auto &e : eps)
            ptrs.push_back(&e);
        net.attach(ptrs);
    }

    /** Tick until every MC saw @p want broadcasts (or the cap). */
    bool
    converge(unsigned want, Tick cap)
    {
        for (Tick t = 1; t <= cap; ++t) {
            net.tick(t);
            bool done = true;
            for (const auto &e : eps)
                done = done && e.got.size() >= want;
            if (done)
                return true;
        }
        return false;
    }
};

} // namespace

// 65 MCs — one past the uint64_t word boundary that broke the original
// single-word pendingMask — with lossy links: the ack/retry protocol
// must converge to exactly-once delivery at EVERY MC, including #64.
TEST(MaskRegression, LossyBroadcastsDeliverExactlyOnceAt65Mcs)
{
    for (const char *topo_tok : {"flat", "tree4"}) {
        noc::TopologyConfig topo;
        ASSERT_TRUE(noc::TopologyConfig::parse(topo_tok, topo));
        fault::FaultConfig fc;
        fc.enabled = true;
        fc.seed = 7;
        fc.bcastLossPm = 100;
        NocRig rig(65, topo, fc);

        rig.net.broadcastBoundary(11, 0);
        ASSERT_TRUE(rig.converge(1, 200000))
            << topo_tok << ": retries never converged";
        EXPECT_GT(rig.inj.bcastDrops, 0u)
            << topo_tok << ": loss axis never fired (weak test)";

        for (unsigned mc = 0; mc < 65; ++mc) {
            ASSERT_EQ(rig.eps[mc].got.size(), 1u)
                << topo_tok << " MC " << mc
                << ": want exactly one delivery";
            EXPECT_EQ(rig.eps[mc].got[0].region, RegionId(11));
        }
        // The pending entry is fully erased: a crash now loses nothing.
        rig.net.deliverAllNow(300000);
        EXPECT_EQ(rig.net.bcastLostAtCrash(), 0u) << topo_tok;
    }
}

// Crash-time accounting at 65 MCs: a pin-dropped broadcast (copies gone,
// no retry yet) counts as exactly one lost broadcast — not 0 and not 65,
// which is what the saturated `~0ull` mask used to make possible — while
// a fully delivered one counts zero.
TEST(MaskRegression, BcastLostAtCrashIsExactAt65Mcs)
{
    for (const char *topo_tok : {"flat", "tree4"}) {
        noc::TopologyConfig topo;
        ASSERT_TRUE(noc::TopologyConfig::parse(topo_tok, topo));
        fault::FaultConfig fc;
        fc.enabled = true;
        fc.seed = 3;
        fc.bcastLossPinTick = 0;  // first broadcast: every copy dropped
        NocRig rig(65, topo, fc);

        rig.net.broadcastBoundary(1, 0);  // pinned: lost in flight
        rig.net.broadcastBoundary(2, 0);  // delivered normally
        ASSERT_TRUE(rig.converge(1, 30)) << topo_tok;

        rig.net.deliverAllNow(31);  // power failure before the retry
        EXPECT_EQ(rig.net.bcastLostAtCrash(), 1u)
            << topo_tok << ": want exactly the pinned broadcast lost";
        for (unsigned mc = 0; mc < 65; ++mc) {
            ASSERT_EQ(rig.eps[mc].got.size(), 1u)
                << topo_tok << " MC " << mc;
            EXPECT_EQ(rig.eps[mc].got[0].region, RegionId(2));
        }
    }
}

// Fault-null fast path at 65 MCs: no injector, no pending entries, one
// copy per MC on both fabrics.
TEST(MaskRegression, FaultFreeBroadcastAt65Mcs)
{
    for (const char *topo_tok : {"flat", "tree4"}) {
        noc::TopologyConfig topo;
        ASSERT_TRUE(noc::TopologyConfig::parse(topo_tok, topo));
        noc::Noc net(65, 5, topo);
        std::vector<CountingEndpoint> eps(65);
        std::vector<mem::McEndpoint *> ptrs;
        for (auto &e : eps)
            ptrs.push_back(&e);
        net.attach(ptrs);

        net.broadcastBoundary(9, 0);
        for (Tick t = 1; t <= 64; ++t)
            net.tick(t);
        for (unsigned mc = 0; mc < 65; ++mc)
            EXPECT_EQ(eps[mc].got.size(), 1u) << topo_tok << " " << mc;
        EXPECT_EQ(net.counters().boundariesBroadcast, 1u);
    }
}

// ---- NoC wakeups: the cached head tick ------------------------------------

namespace {

/** Answers every boundary with its ACK, as an MC does: pushes mid-tick. */
struct AckingEndpoint : mem::McEndpoint
{
    noc::Noc *net = nullptr;
    McId id = 0;

    void
    receive(const mem::McMsg &msg, Tick now) override
    {
        if (msg.type != mem::McMsg::Type::BdryArrival)
            return;
        mem::McMsg ack;
        ack.type = mem::McMsg::Type::BdryAck;
        ack.region = msg.region;
        ack.from = id;
        if (net->isTree())
            net->ackUp(id, ack, now);
        else
            net->sendToPeers(id, ack, now);
    }
};

} // namespace

// Noc::nextActiveTick reads a cached earliest link head instead of
// rescanning every link. The scheduler's LWSP_VERIFY_WAKEUPS check only
// catches a heap key later than the self-report, not a self-report that
// is itself late, so this seeded walk compares the cached answer with a
// full rescan after every call that can push or pop, on both fabrics, at
// 4, 8 and 64 MCs, with perfect and with lossy (retrying) broadcasts.
TEST(NocWakeup, CachedHeadMatchesRescan)
{
    for (const char *topo_tok : {"flat", "tree4"}) {
        for (unsigned mcs : {4u, 8u, 64u}) {
            for (bool lossy : {false, true}) {
                noc::TopologyConfig topo;
                ASSERT_TRUE(noc::TopologyConfig::parse(topo_tok, topo));
                noc::Noc net(mcs, 5, topo);
                fault::FaultConfig fc;
                fc.enabled = true;
                fc.seed = 11;
                fc.bcastLossPm = 100;
                fault::FaultInjector inj(fc, 1);
                if (lossy)
                    net.setFaultInjector(&inj);
                std::vector<AckingEndpoint> eps(mcs);
                std::vector<mem::McEndpoint *> ptrs;
                for (McId i = 0; i < mcs; ++i) {
                    eps[i].net = &net;
                    eps[i].id = i;
                    ptrs.push_back(&eps[i]);
                }
                net.attach(ptrs);

                Rng rng(mcs * 31 + (lossy ? 7 : 0) + topo.radix);
                Tick now = 0;
                RegionId region = 1;
                unsigned calls = 0, crashes = 0;
                auto check = [&](const char *what) {
                    ++calls;
                    ASSERT_EQ(net.nextActiveTick(now),
                              net.nextActiveTickByRescan(now))
                        << topo_tok << "/" << mcs
                        << (lossy ? "/loss100" : "") << " after " << what
                        << " (call " << calls << ") at " << now;
                };
                check("construction");
                for (unsigned step = 0; step < 3000; ++step) {
                    mem::McMsg msg;
                    msg.type = rng.below(2) ? mem::McMsg::Type::BdryAck
                                            : mem::McMsg::Type::FlushAck;
                    msg.region = 1 + rng.below(region);
                    msg.from = static_cast<McId>(rng.below(mcs));
                    switch (rng.below(8)) {
                      case 0:
                        if (net.isTree()) {
                            net.ackUp(msg.from, msg, now);
                            check("ackUp");
                        } else {
                            net.send(static_cast<McId>(rng.below(mcs)),
                                     msg, now);
                            check("send");
                        }
                        break;
                      case 1:
                        if (net.isTree()) {
                            net.ackUp(msg.from, msg, now);
                            check("ackUp");
                        } else {
                            net.sendToPeers(msg.from, msg, now);
                            check("sendToPeers");
                        }
                        break;
                      case 2:
                        net.broadcastBoundary(region++, now);
                        check("broadcastBoundary");
                        break;
                      case 7:
                        if (rng.below(16) == 0) {
                            net.deliverAllNow(now);
                            ++crashes;
                            check("deliverAllNow");
                            break;
                        }
                        [[fallthrough]];
                      default:
                        now += rng.below(7);
                        net.tick(now);
                        check("tick");
                        break;
                    }
                    if (HasFatalFailure())
                        return;
                }
                EXPECT_GT(crashes, 0u) << "walk never drained (weak test)";
                if (lossy) {
                    EXPECT_GT(inj.bcastDrops, 0u)
                        << "loss axis never fired (weak test)";
                }
            }
        }
    }
}

// ---- Sharded address interleaving ------------------------------------------

namespace {

struct PdsBuilt
{
    pds::PdsSpec spec;
    std::vector<pds::PdsOp> ops;
    core::SystemConfig cfg;
    compiler::CompiledProgram prog;
};

PdsBuilt
buildPds(unsigned num_mcs, noc::TopologyConfig topo)
{
    pds::PdsSpec spec;
    spec.kind = pds::Kind::Log;
    spec.sizeClass = 0;
    spec.numOps = 24;
    spec.mix = 0;
    spec.seed = 5;
    spec.opsPerTx = 2;
    PdsBuilt b{spec, pds::generateTape(spec),
               pds::makePdsConfig(pds::PdsScheme::LightWsp,
                                  pds::PdsRunMode::Recovery),
               {}};
    b.prog = pds::preparePdsProgram(spec, b.ops, pds::PdsScheme::LightWsp,
                                    pds::PdsRunMode::Recovery);
    b.cfg.numMcs = num_mcs;
    b.cfg.topology = topo;
    return b;
}

} // namespace

// Seeded cross-check of System::mcForAddr against the line interleave,
// for the awkward MC counts: non-powers-of-two 3/5/6 (where a
// power-of-two mask shortcut would silently misroute) and 64 (the mask
// word boundary). Every address must land on a valid controller and
// consecutive lines must cover all of them.
TEST(Sharding, McForAddrMatchesPolicyAtAwkwardCounts)
{
    for (unsigned n : {3u, 5u, 6u, 64u}) {
        PdsBuilt b = buildPds(n, {});
        core::System sys(b.cfg, b.prog, 1);

        Rng rng(0x5eed0000u + n);
        std::map<McId, unsigned> hits;
        for (unsigned i = 0; i < 4096; ++i) {
            Addr addr = rng.next();
            McId want = static_cast<McId>((addr / cachelineBytes) % n);
            McId got = sys.mcForAddr(addr);
            ASSERT_LT(got, n);
            ASSERT_EQ(got, want) << "n=" << n << " addr=" << addr;
            ++hits[got];
        }
        // A consecutive-line sweep touches every controller.
        for (Addr a = 0; a < static_cast<Addr>(n) * cachelineBytes;
             a += cachelineBytes)
            ++hits[sys.mcForAddr(a)];
        EXPECT_EQ(hits.size(), n)
            << "n=" << n << ": some controller never addressed";
    }
}

TEST(Sharding, ZeroMcsIsRejected)
{
    PdsBuilt b = buildPds(2, {});
    b.cfg.numMcs = 0;
    EXPECT_THROW(core::System(b.cfg, b.prog, 1), FatalError);
}

// ---- Flat-vs-tree protocol equivalence -------------------------------------

// The fabric is a transport, not a semantic actor: the same program on
// the same sharded 16-MC machine must reach the identical final PM
// image whether boundary rounds ride flat all-to-all ACKs or the
// aggregation tree — and the tree must do it with fewer control
// messages (O(MCs) vs O(MCs^2) per region).
TEST(TreeFabric, FlatAndTreeReachIdenticalFinalState)
{
    PdsBuilt flat = buildPds(16, {});
    noc::TopologyConfig tree4;
    ASSERT_TRUE(noc::TopologyConfig::parse("tree4", tree4));
    PdsBuilt tree = buildPds(16, tree4);

    core::System fsys(flat.cfg, flat.prog, 1);
    auto fr = fsys.run();
    ASSERT_TRUE(fr.completed);

    core::System tsys(tree.cfg, tree.prog, 1);
    auto tr = tsys.run();
    ASSERT_TRUE(tr.completed);

    EXPECT_EQ(fr.instsRetired, tr.instsRetired);
    EXPECT_EQ(fr.boundaries, tr.boundaries);
    EXPECT_TRUE(
        fsys.pmImage().diffInRange(tsys.pmImage(), 0, ~Addr(0)).empty())
        << "fabric changed the final PM image";

    ASSERT_GT(fr.nocMessages, 0u);
    ASSERT_GT(tr.nocMessages, 0u);
    EXPECT_LT(tr.nocMessages, fr.nocMessages)
        << "tree aggregation should shrink control traffic at 16 MCs";
}

// Tree-fabric runs are engine-independent: the discrete-event scheduler
// (driven by Noc::nextActiveTick over the tree's link arrays) and the
// cycle-stepped loop must agree bit for bit.
TEST(TreeFabric, EngineABBitIdentityOnTree)
{
    noc::TopologyConfig tree4;
    ASSERT_TRUE(noc::TopologyConfig::parse("tree4", tree4));
    auto runWith = [&](SimEngine engine, mem::MemImage &img) {
        PdsBuilt b = buildPds(8, tree4);
        b.cfg.engine = engine;
        core::System sys(b.cfg, b.prog, 1);
        auto r = sys.run();
        EXPECT_TRUE(r.completed);
        img = sys.pmImage();
        return r.cycles;
    };
    mem::MemImage event_img, cycle_img;
    Tick event_cycles = runWith(SimEngine::Event, event_img);
    Tick cycle_cycles = runWith(SimEngine::Cycle, cycle_img);
    EXPECT_EQ(event_cycles, cycle_cycles);
    EXPECT_TRUE(event_img.diffInRange(cycle_img, 0, ~Addr(0)).empty());
}

// Crash/recover on the tree fabric at 16 MCs: the §IV-F drain pulls
// in-flight tree traffic to quiescence, and the recovered machine
// replays to the golden application state.
TEST(TreeFabric, CrashRecoveryAt16McsTree)
{
    noc::TopologyConfig tree4;
    ASSERT_TRUE(noc::TopologyConfig::parse("tree4", tree4));
    PdsBuilt b = buildPds(16, tree4);

    core::System golden(b.cfg, b.prog, 1);
    auto gr = golden.run();
    ASSERT_TRUE(gr.completed);

    for (unsigned num : {3u, 5u, 7u}) {
        core::System victim(b.cfg, b.prog, 1);
        auto vr = victim.runWithPowerFailure(gr.cycles * num / 8);
        ASSERT_FALSE(vr.completed);
        auto res = core::System::recoverChecked(
            b.cfg, b.prog, 1, victim.pmImage(), {},
            &victim.crashReport());
        ASSERT_NE(res.outcome,
                  core::RecoveryOutcome::DetectedUnrecoverable)
            << res.detail;
        ASSERT_TRUE(res.sys->run().completed);
        EXPECT_EQ(
            pds::checkSemantics(b.spec, b.ops, res.sys->execImage()), "")
            << "crash at " << num << "/8";
    }
}
