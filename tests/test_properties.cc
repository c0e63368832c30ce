/**
 * @file
 * Property tests cross-checking the compiler's dataflow analyses against
 * brute-force oracles on randomized CFGs, randomized persist-order
 * properties on the protocol, and a print/parse fixpoint over random
 * specs of every spec grammar.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/random.hh"
#include "compiler/liveness.hh"
#include "fuzz/campaign.hh"
#include "ir/cfg.hh"
#include "ir/verifier.hh"
#include "mem/mem_controller.hh"
#include "mem/mem_image.hh"
#include "noc/noc.hh"
#include "trace/sink.hh"

using namespace lwsp;
using namespace lwsp::ir;
using namespace lwsp::compiler;

namespace {

/** Random single-function module: straightline blocks + random edges. */
std::unique_ptr<Module>
randomCfg(std::uint64_t seed, unsigned blocks)
{
    Rng rng(seed);
    auto m = std::make_unique<Module>();
    Function &f = m->addFunction("main");
    for (unsigned b = 0; b < blocks; ++b)
        f.addBlock();
    for (unsigned b = 0; b < blocks; ++b) {
        BasicBlock &bb = f.block(b);
        // A few register ops with random operands (r1..r7).
        unsigned n = 1 + rng.below(4);
        for (unsigned i = 0; i < n; ++i) {
            Reg rd = static_cast<Reg>(1 + rng.below(7));
            Reg rs1 = static_cast<Reg>(1 + rng.below(7));
            Reg rs2 = static_cast<Reg>(1 + rng.below(7));
            switch (rng.below(3)) {
              case 0:
                bb.append(Instruction::movi(rd, 7));
                break;
              case 1:
                bb.append(Instruction::alu(Opcode::Add, rd, rs1, rs2));
                break;
              default:
                bb.append(Instruction::aluImm(Opcode::AddI, rd, rs1, 1));
            }
        }
        if (b + 1 < blocks) {
            BlockId t1 = static_cast<BlockId>(rng.below(blocks));
            bb.append(Instruction::branch(Opcode::Blt, 1, 2, t1, b + 1));
        } else {
            bb.append(Instruction::simple(Opcode::Halt));
        }
    }
    verifyModuleOrDie(*m);
    return m;
}

/** Oracle: is @p a on every path from entry to @p b? (path enumeration
 *  with visited-set DFS over at most `blocks` length). */
bool
dominatesOracle(const Cfg &cfg, BlockId a, BlockId b)
{
    if (!cfg.reachable(b))
        return false;
    if (a == b)
        return true;
    // BFS from entry avoiding `a`: if we can reach b, a does NOT
    // dominate b.
    std::set<BlockId> seen;
    std::vector<BlockId> work{0};
    if (0 == a)
        return true;  // entry dominates everything reachable
    seen.insert(0);
    while (!work.empty()) {
        BlockId cur = work.back();
        work.pop_back();
        if (cur == b)
            return false;
        for (BlockId s : cfg.successors(cur)) {
            if (s != a && !seen.count(s)) {
                seen.insert(s);
                work.push_back(s);
            }
        }
    }
    return true;
}

/** Oracle liveness: reg r live at entry of block b iff some path reads
 *  it before writing it. */
bool
liveInOracle(const Function &fn, const Cfg &cfg,
             const ModuleLiveness &live, BlockId b0, Reg r)
{
    // DFS over (block) with "not yet defined" state; within a block scan
    // instructions in order.
    std::set<BlockId> visited;
    std::vector<BlockId> work{b0};
    while (!work.empty()) {
        BlockId b = work.back();
        work.pop_back();
        if (visited.count(b))
            continue;
        visited.insert(b);
        bool defined = false;
        for (const auto &inst : fn.block(b).insts()) {
            if (live.instUse(0, inst) & regBit(r))
                return true;
            if (live.instDef(inst) & regBit(r)) {
                defined = true;
                break;
            }
        }
        if (!defined) {
            for (BlockId s : cfg.successors(b))
                work.push_back(s);
        }
    }
    return false;
}

} // namespace

class DominatorOracle : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DominatorOracle, MatchesBruteForce)
{
    auto m = randomCfg(GetParam(), 8);
    Cfg cfg(m->function(0));
    DominatorTree dt(cfg);
    for (BlockId a = 0; a < cfg.numBlocks(); ++a) {
        for (BlockId b = 0; b < cfg.numBlocks(); ++b) {
            if (!cfg.reachable(a) || !cfg.reachable(b))
                continue;
            EXPECT_EQ(dt.dominates(a, b), dominatesOracle(cfg, a, b))
                << "seed=" << GetParam() << " a=" << a << " b=" << b;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DominatorOracle,
                         ::testing::Range<std::uint64_t>(100, 120));

class LivenessOracle : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LivenessOracle, MatchesBruteForce)
{
    auto m = randomCfg(GetParam(), 6);
    const Function &fn = m->function(0);
    Cfg cfg(fn);
    ModuleLiveness live(*m);
    for (BlockId b = 0; b < fn.numBlocks(); ++b) {
        if (!cfg.reachable(b))
            continue;
        for (Reg r = 1; r <= 7; ++r) {
            bool oracle = liveInOracle(fn, cfg, live, b, r);
            bool analysed = (live.liveIn(0, b) & regBit(r)) != 0;
            EXPECT_EQ(analysed, oracle)
                << "seed=" << GetParam() << " block=" << b << " r"
                << static_cast<int>(r);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LivenessOracle,
                         ::testing::Range<std::uint64_t>(200, 220));

// ---- Randomized protocol persist-order property -------------------------

class PersistOrderProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PersistOrderProperty, RegionOrderHoldsUnderRandomArrival)
{
    // Randomly interleave the arrival of stores from R regions at two
    // MCs and randomly time boundary broadcasts; the per-address final
    // values must always equal the highest-region write, and no address
    // may ever hold a lower-region value after a higher-region one was
    // flushed.
    Rng rng(GetParam());
    mem::MemImage pm;
    noc::Noc net(2, 1 + rng.below(20));
    trace::TraceSink sink(1u << 12,
                          trace::categoryBit(trace::Category::Wpq));
    mem::McConfig cfg;
    cfg.sink = &sink;
    std::vector<std::unique_ptr<mem::MemController>> mcs;
    std::vector<mem::McEndpoint *> eps;
    for (McId i = 0; i < 2; ++i) {
        mcs.push_back(
            std::make_unique<mem::MemController>(i, cfg, pm, net));
        eps.push_back(mcs.back().get());
    }
    net.attach(std::move(eps));

    constexpr unsigned regions = 6;
    constexpr Addr addr0 = 0x8000;  // shared hot address (MC0)

    // Build the event list: each region has 2-4 stores (one to the hot
    // address) and one boundary.
    struct Ev
    {
        bool boundary;
        mem::PersistEntry e;
        RegionId r;
    };
    std::vector<Ev> events;
    for (RegionId r = 1; r <= regions; ++r) {
        unsigned stores = 2 + rng.below(3);
        for (unsigned s = 0; s < stores; ++s) {
            mem::PersistEntry e;
            e.region = r;
            e.value = r * 100 + s;
            e.addr = (s == 0) ? addr0
                              : 0x9000 + r * 0x100 + s * 8;
            events.push_back({false, e, r});
        }
        events.push_back({true, {}, r});
    }
    // Shuffle with the constraint that a region's boundary comes after
    // its own stores (FIFO persist path per core): do random adjacent
    // swaps that respect it.
    for (unsigned k = 0; k < 400; ++k) {
        std::size_t i = rng.below(events.size() - 1);
        auto &a = events[i];
        auto &b = events[i + 1];
        bool same_region = a.r == b.r;
        bool a_bdry_before_store = a.boundary && !b.boundary;
        if (same_region && !a_bdry_before_store)
            continue;  // keep store->boundary order within a region
        if (same_region)
            continue;
        std::swap(a, b);
    }

    Tick now = 0;
    auto tick_all = [&](unsigned n) {
        for (unsigned i = 0; i < n; ++i) {
            for (auto &mc : mcs)
                mc->tick(now);
            net.tick(now);
            ++now;
        }
    };

    for (const auto &ev : events) {
        if (ev.boundary) {
            net.broadcastBoundary(ev.r, now);
        } else {
            McId mc = static_cast<McId>((ev.e.addr / 64) % 2);
            unsigned guard = 0;
            while (!mcs[mc]->canAccept(ev.e)) {
                tick_all(50);
                ASSERT_LT(++guard, 100u) << "WPQ never made room";
            }
            mcs[mc]->accept(ev.e, now);
        }
        tick_all(1 + rng.below(5));
    }
    tick_all(2000);

    // Track the hot address: once a region r value is in PM, no r' < r
    // value may appear later.
    ASSERT_FALSE(sink.wrapped());
    RegionId hot_max = 0;
    bool violated = false;
    for (const trace::Event &e : sink.snapshot()) {
        if (e.type != trace::EventType::WpqRelease || e.addr != addr0)
            continue;
        if (e.region < hot_max)
            violated = true;
        hot_max = std::max(hot_max, e.region);
    }
    EXPECT_FALSE(violated) << "hot-address persist order inverted";
    EXPECT_EQ(pm.read(addr0), regions * 100 + 0u);
    for (auto &mc : mcs)
        EXPECT_TRUE(mc->wpq().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistOrderProperty,
                         ::testing::Range<std::uint64_t>(300, 316));

// ---- Spec grammars: print -> parse -> print is a fixpoint ------------------

namespace {

/** parse(toString(x)) succeeds and prints back as toString(x). */
template <typename T>
::testing::AssertionResult
reprints(const T &x)
{
    std::string s = x.toString(), err;
    T back;
    bool ok;
    if constexpr (requires { T::parse(s, back); })
        ok = T::parse(s, back);
    else
        ok = T::parse(s, back, err);
    if (!ok)
        return ::testing::AssertionFailure()
               << "'" << s << "' rejected: " << err;
    if (back.toString() != s)
        return ::testing::AssertionFailure()
               << "'" << s << "' reprints as '" << back.toString() << "'";
    return ::testing::AssertionSuccess();
}

/** A tick-sized value of random magnitude. */
std::uint64_t
anyTick(Rng &rng)
{
    return rng.next() >> rng.below(64);
}

pds::PdsSpec
randomPds(Rng &rng)
{
    pds::PdsSpec p;
    p.kind = static_cast<pds::Kind>(rng.below(3));
    p.sizeClass = static_cast<unsigned>(rng.below(3));
    p.numOps = static_cast<unsigned>(rng.range(1, 100000));
    p.mix = static_cast<unsigned>(rng.below(3));
    p.seed = rng.next();
    p.opsPerTx = 1u << rng.below(7);
    p.broken = static_cast<unsigned>(rng.below(3));
    return p;
}

serve::ServeSpec
randomServe(Rng &rng)
{
    serve::ServeSpec s;
    s.profile = static_cast<serve::Profile>(rng.below(2));
    s.sizeClass = static_cast<unsigned>(rng.below(3));
    s.numRequests = static_cast<unsigned>(rng.range(1, 50000));
    s.meanIa = static_cast<unsigned>(rng.range(1, 10'000'000));
    s.burst = static_cast<unsigned>(rng.below(3));
    s.seed = rng.next();
    s.opsPerTx = 1u << rng.below(7);
    return s;
}

fault::FaultConfig
randomFaults(Rng &rng)
{
    fault::FaultConfig f;
    auto pm = [&] { return static_cast<unsigned>(rng.range(0, 1000)); };
    auto some = [&] { return rng.chance(0.5); };
    if (some())
        f.seed = rng.next();
    if (some())
        f.bcastLossPm = pm();
    if (some())
        f.bcastDelayPm = pm();
    if (some())
        f.bcastDelayCycles = anyTick(rng);
    if (some())
        f.bcastDupPm = pm();
    if (some())
        f.bcastLossPinTick = anyTick(rng);
    f.wpqBitFlip = some();
    f.wpqTear = some();
    f.ckptEntryDamage = some();
    if (some())
        f.pmPoisonWords = static_cast<unsigned>(rng.below(1u << 20));
    f.silentCkptFlip = some();
    if (some())
        f.mcStallIters = static_cast<unsigned>(rng.below(1u << 20));
    return f;
}

fault::FailureSchedule
randomStorm(Rng &rng)
{
    fault::FailureSchedule s;
    for (auto n = rng.below(6); n > 0; --n) {
        fault::FailureEvent e;
        e.phase = static_cast<fault::FailurePhase>(rng.below(3));
        if (e.phase != fault::FailurePhase::Recovery)
            e.at = anyTick(rng);
        s.events.push_back(e);
    }
    return s;
}

noc::TopologyConfig
randomTopo(Rng &rng)
{
    noc::TopologyConfig t;
    if (rng.chance(0.5)) {
        t.kind = noc::TopologyConfig::Kind::Tree;
        t.radix = static_cast<unsigned>(rng.range(2, 1024));
    }
    return t;
}

} // namespace

TEST(SpecGrammarProperty, PrintParsePrintIsFixpoint)
{
    constexpr unsigned perGrammar = 600;
    Rng rng(0x5bec);
    for (unsigned i = 0; i < perGrammar; ++i) {
        EXPECT_TRUE(reprints(randomPds(rng)));
        EXPECT_TRUE(reprints(randomServe(rng)));
        EXPECT_TRUE(reprints(randomFaults(rng)));
        EXPECT_TRUE(reprints(randomStorm(rng)));
        EXPECT_TRUE(reprints(randomTopo(rng)));

        // Cycle every source x mode pair; every nested axis is drawn.
        fuzz::CaseSpec c;
        c.source = static_cast<fuzz::CaseSpec::Source>(i % 4);
        c.mode = static_cast<fuzz::CrashMode>(i / 4 % 5);
        c.seed = rng.next();
        c.shrink = static_cast<unsigned>(rng.below(16));
        c.pds = randomPds(rng);
        c.serve = randomServe(rng);
        c.crashAt = anyTick(rng);
        c.crashAt2 = anyTick(rng);
        c.drainIters = static_cast<unsigned>(rng.below(8));
        c.storm = randomStorm(rng);
        c.fault = rng.chance(0.5);
        c.faults = randomFaults(rng);
        c.mcs = rng.chance(0.5) ? 0u
                                : static_cast<unsigned>(rng.range(1, 256));
        c.topo = randomTopo(rng);
        EXPECT_TRUE(reprints(c));
    }
}
