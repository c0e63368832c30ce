/**
 * @file
 * LRPO protocol tests on scripted memory controllers: region-ordered
 * flushing across two MCs, bdry/flush-ACK exchanges, flush-ID advance,
 * deadlock fallback with undo, and the crash-drain consistency rules.
 * The fallback, crash-drain and region-ring cases also run on 4 MCs
 * under a radix-2 tree, where rounds complete by root announcement.
 */

#include <gtest/gtest.h>

#include "mem/mem_controller.hh"
#include "mem/mem_image.hh"
#include "noc/noc.hh"
#include "noc/topology.hh"
#include "trace/sink.hh"

using namespace lwsp;
using namespace lwsp::mem;

namespace {

/** A fabric the protocol runs on: its MC count and topology. */
struct Fabric
{
    const char *name;
    unsigned numMcs;
    noc::TopologyConfig topo;
};

/**
 * The two fabrics every fallback and crash-drain case runs on: the
 * paper's flat 2-MC machine, and 4 MCs on a radix-2 tree, where ACKs
 * climb two switch stages and rounds complete by root announcement.
 */
const Fabric kFabrics[] = {
    {"flat", 2, {}},
    {"tree2", 4, {noc::TopologyConfig::Kind::Tree, 2}},
};

struct Rig
{
    MemImage pm;
    noc::Noc net;
    std::vector<std::unique_ptr<MemController>> mcs;
    Tick now = 0;

    explicit Rig(McConfig cfg = {}, unsigned num_mcs = 2,
                 noc::TopologyConfig topo = {})
        : net(num_mcs, /*hop=*/5, topo)
    {
        std::vector<McEndpoint *> eps;
        for (McId i = 0; i < num_mcs; ++i) {
            mcs.push_back(
                std::make_unique<MemController>(i, cfg, pm, net));
            eps.push_back(mcs.back().get());
        }
        net.attach(std::move(eps));
    }

    Rig(McConfig cfg, const Fabric &f) : Rig(cfg, f.numMcs, f.topo) {}

    void
    tick(unsigned cycles = 1)
    {
        for (unsigned i = 0; i < cycles; ++i) {
            for (auto &mc : mcs)
                mc->tick(now);
            net.tick(now);
            ++now;
        }
    }

    PersistEntry
    store(Addr addr, std::uint64_t value, RegionId region)
    {
        PersistEntry e;
        e.addr = addr;
        e.value = value;
        e.region = region;
        return e;
    }

    void
    accept(McId mc, const PersistEntry &e)
    {
        ASSERT_TRUE(mcs[mc]->canAccept(e));
        mcs[mc]->accept(e, now);
    }

    void
    crash()
    {
        net.deliverAllNow(now);
        bool progress = true;
        while (progress) {
            progress = false;
            for (auto &mc : mcs)
                progress = mc->crashStep(now) || progress;
            net.deliverAllNow(now);
        }
        for (auto &mc : mcs)
            mc->crashFinish();
    }
};

} // namespace

TEST(McProtocol, EntryNotFlushedBeforeBoundary)
{
    Rig rig;
    rig.accept(0, rig.store(0x1000, 42, 1));
    rig.tick(100);
    EXPECT_EQ(rig.pm.read(0x1000), 0u);  // gated: boundary never arrived
    EXPECT_EQ(rig.mcs[0]->counters().flushedEntries, 0u);
}

TEST(McProtocol, FlushAfterBoundaryBroadcastAndAcks)
{
    Rig rig;
    rig.accept(0, rig.store(0x1000, 42, 1));
    rig.net.broadcastBoundary(1, rig.now);
    rig.tick(50);
    EXPECT_EQ(rig.pm.read(0x1000), 42u);
    EXPECT_EQ(rig.mcs[0]->flushId(), 2u);
    EXPECT_EQ(rig.mcs[1]->flushId(), 2u);
    EXPECT_EQ(rig.mcs[0]->counters().regionsCommitted, 1u);
}

TEST(McProtocol, YoungerRegionWaitsForOlder)
{
    Rig rig;
    // Region 2's entry arrives first (NUMA inversion), region 1's later.
    rig.accept(0, rig.store(0x2000, 22, 2));
    rig.net.broadcastBoundary(2, rig.now);
    rig.tick(50);
    // Region 1 hasn't even arrived: nothing of region 2 may flush.
    EXPECT_EQ(rig.pm.read(0x2000), 0u);

    rig.accept(0, rig.store(0x1000, 11, 1));
    rig.net.broadcastBoundary(1, rig.now);
    rig.tick(80);
    EXPECT_EQ(rig.pm.read(0x1000), 11u);
    EXPECT_EQ(rig.pm.read(0x2000), 22u);
}

TEST(McProtocol, SameAddressCrossRegionOrder)
{
    Rig rig;
    // WAW: region 2 overwrites region 1's value; arrival order inverted.
    rig.accept(0, rig.store(0x3000, 200, 2));
    rig.accept(0, rig.store(0x3000, 100, 1));
    rig.net.broadcastBoundary(1, rig.now);
    rig.net.broadcastBoundary(2, rig.now);
    rig.tick(80);
    EXPECT_EQ(rig.pm.read(0x3000), 200u);  // younger region's value wins
}

TEST(McProtocol, EmptyRegionsCommitWithoutEntries)
{
    Rig rig;
    for (RegionId r = 1; r <= 5; ++r)
        rig.net.broadcastBoundary(r, rig.now);
    rig.tick(80);
    EXPECT_EQ(rig.mcs[0]->flushId(), 6u);
    EXPECT_EQ(rig.mcs[1]->flushId(), 6u);
}

TEST(McProtocol, EntriesSpreadAcrossMcsBothFlush)
{
    Rig rig;
    rig.accept(0, rig.store(0x1000, 1, 1));   // line 0x1000 -> MC0
    rig.accept(1, rig.store(0x1040, 2, 1));   // next line -> MC1
    rig.net.broadcastBoundary(1, rig.now);
    rig.tick(80);
    EXPECT_EQ(rig.pm.read(0x1000), 1u);
    EXPECT_EQ(rig.pm.read(0x1040), 2u);
}

TEST(McProtocol, CrashDiscardsUnbroadcastRegion)
{
    for (const Fabric &f : kFabrics) {
        SCOPED_TRACE(f.name);
        Rig rig({}, f);
        rig.accept(0, rig.store(0x1000, 11, 1));
        rig.net.broadcastBoundary(1, rig.now);
        rig.tick(50);
        rig.accept(0, rig.store(0x2000, 22, 2));  // boundary 2 never sent
        rig.crash();
        EXPECT_EQ(rig.pm.read(0x1000), 11u);
        EXPECT_EQ(rig.pm.read(0x2000), 0u);
    }
}

TEST(McProtocol, CrashCompletesInFlightAckedRegion)
{
    for (const Fabric &f : kFabrics) {
        SCOPED_TRACE(f.name);
        Rig rig({}, f);
        rig.accept(0, rig.store(0x1000, 11, 1));
        rig.net.broadcastBoundary(1, rig.now);
        // Crash immediately: the broadcast + ACKs are in flight but
        // battery delivery must still commit region 1.
        rig.crash();
        EXPECT_EQ(rig.pm.read(0x1000), 11u);
    }
}

TEST(McProtocol, DeadlockFallbackMakesProgress)
{
    for (const Fabric &f : kFabrics) {
        SCOPED_TRACE(f.name);
        McConfig cfg;
        cfg.wpqEntries = 4;
        Rig rig(cfg, f);
        // Fill the WPQ with region-2 entries while region 1's boundary
        // never arrives: the fallback must undo-log-flush the oldest
        // present region so the (blocked) paths can move again.
        for (unsigned i = 0; i < 4; ++i)
            rig.accept(0, rig.store(0x1000 + 128 * i, i + 1, 2));
        EXPECT_TRUE(rig.mcs[0]->wpq().full());
        rig.tick(40);
        EXPECT_TRUE(rig.mcs[0]->inFallback());
        EXPECT_GT(rig.mcs[0]->counters().fallbackFlushes, 0u);
        EXPECT_FALSE(rig.mcs[0]->wpq().full());  // room was made
    }
}

TEST(McProtocol, FallbackRolledBackOnCrash)
{
    for (const Fabric &f : kFabrics) {
        SCOPED_TRACE(f.name);
        McConfig cfg;
        cfg.wpqEntries = 2;
        Rig rig(cfg, f);
        rig.pm.write(0x1000, 7);  // pre-image
        rig.accept(0, rig.store(0x1000, 99, 2));
        rig.accept(0, rig.store(0x1080, 98, 2));
        rig.tick(40);  // fallback flushes region 2 with undo logging
        EXPECT_GT(rig.mcs[0]->counters().fallbackFlushes, 0u);
        EXPECT_EQ(rig.pm.read(0x1000), 99u);  // speculatively in PM
        rig.crash();  // region 2 never became ready
        EXPECT_EQ(rig.pm.read(0x1000), 7u);   // rolled back to pre-image
        EXPECT_EQ(rig.pm.read(0x1080), 0u);
    }
}

TEST(McProtocol, FallbackKeptWhenRegionCommits)
{
    for (const Fabric &f : kFabrics) {
        SCOPED_TRACE(f.name);
        McConfig cfg;
        cfg.wpqEntries = 2;
        Rig rig(cfg, f);
        rig.accept(0, rig.store(0x1000, 99, 1));
        rig.accept(0, rig.store(0x1080, 98, 1));
        rig.tick(40);  // fallback may flush region 1 early
        rig.net.broadcastBoundary(1, rig.now);
        rig.tick(80);
        rig.crash();
        EXPECT_EQ(rig.pm.read(0x1000), 99u);  // committed, undo dropped
        EXPECT_EQ(rig.pm.read(0x1080), 98u);
    }
}

TEST(McProtocol, LateOlderWriteAbsorbedIntoFallbackPreImage)
{
    for (const Fabric &f : kFabrics) {
        SCOPED_TRACE(f.name);
        McConfig cfg;
        cfg.wpqEntries = 2;
        Rig rig(cfg, f);
        // Region 5's write to X fallback-flushes; region 1's write to X
        // arrives later. PM must keep region 5's value, and a crash
        // that commits only region 1 must expose region 1's value.
        rig.accept(0, rig.store(0x1000, 55, 5));
        rig.accept(0, rig.store(0x1080, 54, 5));
        rig.tick(40);  // fallback writes X=55
        EXPECT_EQ(rig.pm.read(0x1000), 55u);

        rig.accept(0, rig.store(0x1000, 11, 1));
        rig.net.broadcastBoundary(1, rig.now);
        rig.tick(80);  // region 1 commits; its X write is absorbed
        EXPECT_EQ(rig.pm.read(0x1000), 55u);  // younger value stays in PM

        rig.crash();  // region 5 never committed
        EXPECT_EQ(rig.pm.read(0x1000), 11u);  // region 1's value restored
    }
}

TEST(McProtocol, CapacityOneWpqFlushesAndFallsBack)
{
    for (const Fabric &f : kFabrics) {
        SCOPED_TRACE(f.name);
        McConfig cfg;
        cfg.wpqEntries = 1;
        Rig rig(cfg, f);
        // Normal path with the minimal queue: one entry, boundary, flush.
        rig.accept(0, rig.store(0x1000, 11, 1));
        EXPECT_TRUE(rig.mcs[0]->wpq().full());
        rig.net.broadcastBoundary(1, rig.now);
        rig.tick(50);
        EXPECT_EQ(rig.pm.read(0x1000), 11u);
        EXPECT_TRUE(rig.mcs[0]->wpq().empty());

        // A single unboundaried entry saturates the queue: the §IV-D
        // fallback must still make room.
        rig.accept(0, rig.store(0x2000, 22, 3));
        EXPECT_TRUE(rig.mcs[0]->wpq().full());
        rig.tick(40);
        EXPECT_GT(rig.mcs[0]->counters().fallbackFlushes, 0u);
        EXPECT_FALSE(rig.mcs[0]->wpq().full());

        rig.crash();  // region 3 never committed: undo must restore
        EXPECT_EQ(rig.pm.read(0x2000), 0u);
        EXPECT_EQ(rig.pm.read(0x1000), 11u);
    }
}

TEST(McProtocol, CrashDrainWithEmptyQueue)
{
    for (const Fabric &f : kFabrics) {
        SCOPED_TRACE(f.name);
        Rig rig({}, f);
        // Crash with nothing ever accepted: the drain must terminate
        // immediately and leave PM untouched.
        rig.crash();
        EXPECT_EQ(rig.mcs[0]->counters().flushedEntries, 0u);

        // Boundary-only traffic (empty regions) then crash: the battery
        // drain still commits the broadcast prefix without any PM
        // writes.
        Rig rig2({}, f);
        for (RegionId r = 1; r <= 3; ++r)
            rig2.net.broadcastBoundary(r, rig2.now);
        rig2.crash();
        EXPECT_GE(rig2.mcs[0]->flushId(), 4u);
        EXPECT_EQ(rig2.mcs[0]->counters().flushedEntries, 0u);
    }
}

TEST(McProtocol, RegionStoresExactlyWpqCapacity)
{
    McConfig cfg;
    cfg.wpqEntries = 4;
    Rig rig(cfg);
    // A region whose store count equals the queue capacity fills the
    // WPQ completely but never overflows: once its boundary arrives it
    // drains in order with no fallback.
    for (unsigned i = 0; i < 4; ++i)
        rig.accept(0, rig.store(0x1000 + 128 * i, i + 1, 1));
    EXPECT_TRUE(rig.mcs[0]->wpq().full());
    rig.net.broadcastBoundary(1, rig.now);
    // Land the broadcast before the next MC tick: a full queue whose
    // awaited boundary is still in flight is exactly the §IV-D overflow
    // condition, which is not what this test is about.
    rig.net.deliverAllNow(rig.now);
    rig.tick(100);
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(rig.pm.read(0x1000 + 128 * i), i + 1);
    EXPECT_EQ(rig.mcs[0]->counters().fallbackFlushes, 0u);
    EXPECT_TRUE(rig.mcs[0]->wpq().empty());
    EXPECT_EQ(rig.mcs[0]->counters().regionsCommitted, 1u);
}

TEST(McProtocol, UngatedModeDrainsFifo)
{
    McConfig cfg;
    cfg.gatingEnabled = false;
    Rig rig(cfg);
    rig.accept(0, rig.store(0x1000, 1, 7));  // arbitrary region ids
    rig.accept(0, rig.store(0x1080, 2, 3));
    rig.tick(20);
    EXPECT_EQ(rig.pm.read(0x1000), 1u);
    EXPECT_EQ(rig.pm.read(0x1080), 2u);
}

TEST(McProtocol, LoadMissPathAndWpqHit)
{
    Rig rig;
    // DRAM-cache miss then PM read; WPQ hit adds the flush-wait penalty.
    auto miss = rig.mcs[0]->serveLoadMiss(0x5000, rig.now);
    EXPECT_FALSE(miss.wpqHit);
    EXPECT_GE(miss.latency, static_cast<Tick>(350));

    rig.accept(0, rig.store(0x6000, 9, 1));
    auto hit = rig.mcs[0]->serveLoadMiss(0x6000, rig.now);
    EXPECT_TRUE(hit.wpqHit);
    EXPECT_GT(hit.latency, miss.latency);
    EXPECT_EQ(rig.mcs[0]->counters().wpqLoadHits, 1u);
}

TEST(McProtocol, DramCacheHitIsCheap)
{
    Rig rig;
    auto first = rig.mcs[0]->serveLoadMiss(0x7000, rig.now);
    rig.now += 1000;
    auto second = rig.mcs[0]->serveLoadMiss(0x7000, rig.now);
    EXPECT_TRUE(second.dramCacheHit);
    EXPECT_LT(second.latency, first.latency);
}

TEST(McProtocol, SingleMcNeedsNoPeerAcks)
{
    Rig rig(McConfig{}, /*num_mcs=*/1);
    rig.accept(0, rig.store(0x1000, 5, 1));
    rig.net.broadcastBoundary(1, rig.now);
    rig.tick(40);
    EXPECT_EQ(rig.pm.read(0x1000), 5u);
    EXPECT_EQ(rig.mcs[0]->flushId(), 2u);
}

TEST(McProtocol, StrictModeStillCorrect)
{
    McConfig cfg;
    cfg.strictFlushAcks = true;
    Rig rig(cfg);
    for (RegionId r = 1; r <= 3; ++r) {
        rig.accept(0, rig.store(0x1000 + r * 128, r, r));
        rig.net.broadcastBoundary(r, rig.now);
    }
    rig.tick(300);
    for (RegionId r = 1; r <= 3; ++r)
        EXPECT_EQ(rig.pm.read(0x1000 + r * 128), r);
    EXPECT_EQ(rig.mcs[0]->flushId(), 4u);
}

// In strict mode the drain cursor waits on a region until its flush-ACK
// round is complete, and by then the commit has cleared the region's
// state, so the MC finishes the committed region a second time: a
// second WpqDrainDone and a second flush-ACK round (a known defect kept
// for output identity). Those stale re-finishes used to leave one map
// entry behind per region. The region ring must stay bounded by the
// regions in flight however many regions commit, on either fabric.
TEST(McProtocol, RegionRingStaysBounded)
{
    constexpr RegionId kRegions = 200;
    struct Want
    {
        unsigned drainDone;     ///< WpqDrainDone events per region
        std::size_t liveSlots;  ///< each MC's live ring slots at the end
        std::size_t peak;       ///< most live slots any MC ever held
    };
    // One WpqDrainDone per MC plus each MC's stale re-finish. The tree's
    // slower rounds keep up to 11 regions in flight at 40-cycle spacing.
    const Want wants[] = {{4, 0, 1}, {8, 0, 11}};
    for (std::size_t i = 0; i < std::size(kFabrics); ++i) {
        const Fabric &f = kFabrics[i];
        const Want &want = wants[i];
        SCOPED_TRACE(f.name);
        trace::TraceSink sink(1 << 14,
                              trace::categoryBit(trace::Category::Wpq));
        McConfig cfg;
        cfg.strictFlushAcks = true;
        cfg.sink = &sink;
        Rig rig(cfg, f);
        std::size_t peak = 0;
        for (RegionId r = 1; r <= kRegions; ++r) {
            rig.accept(r % f.numMcs, rig.store(0x1000 + r * 64, r, r));
            rig.net.broadcastBoundary(r, rig.now);
            for (unsigned c = 0; c < 40; ++c) {
                rig.tick();
                for (const auto &mc : rig.mcs)
                    peak = std::max(peak, mc->liveRegionSlots());
            }
        }
        rig.tick(5000);
        ASSERT_FALSE(sink.wrapped());
        std::vector<unsigned> drain_done(kRegions + 1);
        for (const trace::Event &e : sink.snapshot()) {
            if (e.type == trace::EventType::WpqDrainDone)
                ++drain_done.at(e.region);
        }
        for (RegionId r = 1; r <= kRegions; ++r)
            EXPECT_EQ(drain_done[r], want.drainDone) << "region " << r;
        for (const auto &mc : rig.mcs) {
            EXPECT_EQ(mc->flushId(), kRegions + 1);
            EXPECT_EQ(mc->drainCursor(), kRegions + 1);
            EXPECT_EQ(mc->liveRegionSlots(), want.liveSlots);
        }
        EXPECT_EQ(peak, want.peak) << "the ring grew with the regions";
    }
}

TEST(McProtocol, WpqTraceSeesFlushKinds)
{
    trace::TraceSink sink(64, trace::categoryBit(trace::Category::Wpq));
    McConfig cfg;
    cfg.sink = &sink;
    Rig rig(cfg);
    rig.accept(0, rig.store(0x1000, 1, 1));
    rig.net.broadcastBoundary(1, rig.now);
    rig.tick(50);
    ASSERT_FALSE(sink.wrapped());
    std::vector<int> kinds;
    for (const trace::Event &e : sink.snapshot()) {
        if (e.type == trace::EventType::WpqRelease)
            kinds.push_back(trace::releaseKind(e.aux));
    }
    ASSERT_EQ(kinds.size(), 1u);
    EXPECT_EQ(kinds[0], 0);  // normal flush
}
