/**
 * @file
 * Scale-out machine-model tests: DynBitset, tree-topology geometry,
 * the >= 64-MC broadcast-mask regression, the NoC's cached wakeups and
 * ACK-round census, sharded address interleaving, flat-vs-tree protocol
 * equivalence and the 8-MC fabric's pinned figures.
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

#include <algorithm>
#include <deque>
#include <map>
#include <string>
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

// ---- NoC wakeups and the ACK plane's census -------------------------------

namespace {

/**
 * Every ACK round the walk below hands to Noc::ackRound, checked against
 * what the MCs receive. Flat: a round owes each peer one unicast, in
 * send order, no sooner than a hop after it was sent (unless the crash
 * drain delivers it early), and nothing to its sender. Tree: MCs see
 * only root announcements, and finish() checks that every MC got the
 * same number per (type, region), no more than the rounds the
 * least-active MC sent, and at least one when every MC sent one.
 */
struct AckCensus
{
    using Type = mem::McMsg::Type;
    using Key = std::pair<Type, RegionId>;

    noc::Noc &net;
    bool tree;
    unsigned mcs;
    Tick hop;
    bool draining = false;  ///< inside the walk's deliverAllNow
    /** Flat: (round, send tick) still owed to each MC, oldest first. */
    std::vector<std::deque<std::pair<mem::McMsg, Tick>>> owed;
    /** Tree: rounds sent and announcements received, per MC. */
    std::map<Key, std::vector<unsigned>> sent, announced;
    unsigned errors = 0;
    std::string firstError;

    AckCensus(noc::Noc &n, bool is_tree, unsigned num_mcs, Tick hop_latency)
        : net(n), tree(is_tree), mcs(num_mcs), hop(hop_latency),
          owed(num_mcs)
    {
    }

    void
    fail(const std::string &what)
    {
        if (errors++ == 0)
            firstError = what;
    }

    std::vector<unsigned> &
    perMc(std::map<Key, std::vector<unsigned>> &m, Key k)
    {
        auto &v = m[k];
        v.resize(mcs);
        return v;
    }

    void
    round(McId from, const mem::McMsg &msg, Tick now)
    {
        if (tree) {
            ++perMc(sent, {msg.type, msg.region})[from];
        } else {
            for (McId mc = 0; mc < mcs; ++mc) {
                if (mc != from)
                    owed[mc].emplace_back(msg, now);
            }
        }
        net.ackRound(from, msg, now);
    }

    void
    received(McId at, const mem::McMsg &msg, Tick now)
    {
        auto where = [&] {
            return "mc" + std::to_string(at) + " at " + std::to_string(now) +
                   ": region " + std::to_string(msg.region);
        };
        if (tree) {
            if (msg.type == Type::BdryAllAcked)
                ++perMc(announced, {Type::BdryAck, msg.region})[at];
            else if (msg.type == Type::FlushAllAcked)
                ++perMc(announced, {Type::FlushAck, msg.region})[at];
            else
                fail(where() + ": a peer ACK on a tree");
            return;
        }
        if (owed[at].empty())
            return fail(where() + ": an ACK nobody sent it");
        auto [want, sent_at] = owed[at].front();
        owed[at].pop_front();
        if (msg.type != want.type || msg.region != want.region ||
            msg.from != want.from)
            fail(where() + ": ACKs out of send order");
        else if (!draining && now < sent_at + hop)
            fail(where() + ": arrived before its hop");
    }

    /** After the fabric has drained: every owed ACK arrived. */
    void
    finish()
    {
        for (McId mc = 0; mc < mcs; ++mc) {
            if (!owed[mc].empty())
                fail("mc" + std::to_string(mc) + " never got " +
                     std::to_string(owed[mc].size()) + " ACK(s)");
        }
        for (auto &[key, got] : announced) {
            if (!sent.count(key))
                fail("an announcement for a round nobody sent");
        }
        for (auto &[key, by_mc] : sent) {
            const unsigned least =
                *std::min_element(by_mc.begin(), by_mc.end());
            const auto &got = perMc(announced, key);
            const std::string what = "region " + std::to_string(key.second);
            if (static_cast<unsigned>(std::count(got.begin(), got.end(),
                                                 got[0])) != mcs)
                fail(what + ": MCs got different announcement counts");
            else if (got[0] > least || (least > 0 && got[0] == 0))
                fail(what + ": " + std::to_string(got[0]) +
                     " announcements for " + std::to_string(least) +
                     " rounds from the least-active MC");
        }
    }
};

/** Answers every boundary with its ACK round, as an MC does: mid-tick. */
struct AckingEndpoint : mem::McEndpoint
{
    AckCensus *census = nullptr;
    McId id = 0;

    void
    receive(const mem::McMsg &msg, Tick now) override
    {
        if (msg.type != mem::McMsg::Type::BdryArrival)
            return census->received(id, msg, now);
        mem::McMsg ack;
        ack.type = mem::McMsg::Type::BdryAck;
        ack.region = msg.region;
        ack.from = id;
        census->round(id, ack, now);
    }
};

} // namespace

// Noc::nextActiveTick reads a cached earliest link head instead of
// rescanning every link. The scheduler's LWSP_VERIFY_WAKEUPS check only
// catches a heap key later than the self-report, not a self-report that
// is itself late, so this seeded walk compares the cached answer with a
// full rescan after every call that can push or pop, on both fabrics, at
// 4, 8 and 64 MCs, with perfect and with lossy (retrying) broadcasts.
// The same walk takes the ACK plane's census (AckCensus).
TEST(NocWakeup, CachedHeadMatchesRescan)
{
    constexpr Tick kHop = 5;
    for (const char *topo_tok : {"flat", "tree4"}) {
        for (unsigned mcs : {4u, 8u, 64u}) {
            for (bool lossy : {false, true}) {
                noc::TopologyConfig topo;
                ASSERT_TRUE(noc::TopologyConfig::parse(topo_tok, topo));
                noc::Noc net(mcs, kHop, topo);
                fault::FaultConfig fc;
                fc.enabled = true;
                fc.seed = 11;
                fc.bcastLossPm = 100;
                fault::FaultInjector inj(fc, 1);
                if (lossy)
                    net.setFaultInjector(&inj);
                AckCensus census(net, topo.isTree(), mcs, kHop);
                std::vector<AckingEndpoint> eps(mcs);
                std::vector<mem::McEndpoint *> ptrs;
                for (McId i = 0; i < mcs; ++i) {
                    eps[i].census = &census;
                    eps[i].id = i;
                    ptrs.push_back(&eps[i]);
                }
                net.attach(ptrs);

                Rng rng(mcs * 31 + (lossy ? 7 : 0) + topo.radix);
                Tick now = 0;
                RegionId region = 1;
                unsigned calls = 0, crashes = 0;
                const std::string point = std::string(topo_tok) + "/" +
                                          std::to_string(mcs) +
                                          (lossy ? "/loss100" : "");
                auto check = [&](const char *what) {
                    ++calls;
                    ASSERT_EQ(net.nextActiveTick(now),
                              net.nextActiveTickByRescan(now))
                        << point << " after " << what << " (call "
                        << calls << ") at " << now;
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
                      case 1:
                        census.round(msg.from, msg, now);
                        check("ackRound");
                        break;
                      case 2:
                        net.broadcastBoundary(region++, now);
                        check("broadcastBoundary");
                        break;
                      case 7:
                        if (rng.below(16) == 0) {
                            census.draining = true;
                            net.deliverAllNow(now);
                            census.draining = false;
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
                // Drain what is still in flight; a flat drain is one
                // pass, so repeat until the fabric is empty.
                census.draining = true;
                do {
                    net.deliverAllNow(now);
                } while (net.nextActiveTick(now) != maxTick);
                census.finish();
                EXPECT_EQ(census.errors, 0u)
                    << point << ": " << census.firstError;
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

// ---- The fabric's exact numbers --------------------------------------------

// Every fabric figure a run reports, pinned on one small pds point at 8
// MCs: flat and radix-4 tree, fault-free and with 10% per-copy
// broadcast loss. fig23's CSV pins the same figures at bench scale in
// CI; these pins keep them in tier-1, so a change to the NoC or to the
// MC's ACK path cannot move a cycle or a message count silently.
TEST(FabricPins, EightMcsFlatAndTreeWithAndWithoutLoss)
{
    struct Pin
    {
        const char *topo;
        bool lossy;
        Tick cycles;
        std::uint64_t nocMessages;
        std::uint64_t bcastRetries;
        double bcastLatencyMax;
        std::uint64_t regionsCommitted;
    };
    const Pin pins[] = {
        {"flat", false, 3040, 15120, 0, 20, 123},
        {"flat", true, 3534, 15235, 79, 1140, 124},
        {"tree4", false, 3120, 6236, 0, 80, 118},
        {"tree4", true, 13228, 6437, 99, 10160, 118},
    };
    for (const Pin &p : pins) {
        noc::TopologyConfig topo;
        ASSERT_TRUE(noc::TopologyConfig::parse(p.topo, topo));
        PdsBuilt b = buildPds(8, topo);
        if (p.lossy) {
            b.cfg.faults.enabled = true;
            b.cfg.faults.seed = 23;
            b.cfg.faults.bcastLossPm = 100;
        }
        core::System sys(b.cfg, b.prog, 1);
        auto r = sys.run();
        const std::string what =
            std::string(p.topo) + (p.lossy ? "/loss100" : "");
        ASSERT_TRUE(r.completed) << what;
        EXPECT_EQ(r.cycles, p.cycles) << what;
        EXPECT_EQ(r.nocMessages, p.nocMessages) << what;
        EXPECT_EQ(r.bcastRetries, p.bcastRetries) << what;
        EXPECT_EQ(r.bcastLatencyMax, p.bcastLatencyMax) << what;
        EXPECT_EQ(r.regionsCommitted, p.regionsCommitted) << what;
    }
}
