/**
 * @file
 * Persistent-data-structure library tests: spec/IR round-trips, shadow
 * equivalence of the emitted programs against PdsModel, crash-recovery
 * matrices across every scheme (including the pmtx software-transaction
 * baseline), seeded-bug negatives proving the semantic oracles have
 * teeth, engine A/B identity and static-checker coverage of the pmtx
 * artifacts.
 */

#include <gtest/gtest.h>

#include <utility>

#include "analysis/wsp_checker.hh"
#include "common/logging.hh"
#include "core/system.hh"
#include "ir/text_io.hh"
#include "ir/verifier.hh"
#include "pds/pds.hh"

using namespace lwsp;
using pds::Kind;
using pds::PdsScheme;
using pds::PdsSpec;

namespace {

PdsSpec
smallSpec(Kind k, unsigned ops = 48)
{
    PdsSpec s;
    s.kind = k;
    s.sizeClass = 0;
    s.numOps = ops;
    s.mix = 0;
    s.seed = 7;
    return s;
}

/** Materialize a heap window as words (MemImage::diffInRange shares an
 *  internal diff cap with out-of-range addresses — never use it as an
 *  equality oracle across images whose non-heap state differs). */
std::vector<std::uint64_t>
heapWords(const mem::MemImage &img, Addr lo, Addr hi)
{
    std::vector<std::uint64_t> out;
    out.reserve((hi - lo) / 8);
    for (Addr a = lo; a < hi; a += 8)
        out.push_back(img.read(a));
    return out;
}

} // namespace

// ---------------------------------------------------------------------------
// Spec and module round-trips.

TEST(PdsSpec, ToStringParseFixpoint)
{
    const char *texts[] = {
        "log,sz=0,ops=48,mix=1,pseed=3",
        "hash,sz=1,ops=128,mix=0,pseed=1",
        "alloc,sz=2,ops=200,mix=2,pseed=9,tx=8",
        "hash,sz=0,ops=16,mix=2,pseed=5,tx=1,broken=2",
    };
    for (const char *t : texts) {
        PdsSpec s;
        std::string err;
        ASSERT_TRUE(PdsSpec::parse(t, s, err)) << t << ": " << err;
        EXPECT_EQ(s.toString(), t);
        PdsSpec s2;
        ASSERT_TRUE(PdsSpec::parse(s.toString(), s2, err));
        EXPECT_EQ(s2.toString(), s.toString());
    }

    PdsSpec bad;
    std::string err;
    EXPECT_FALSE(PdsSpec::parse("hash,sz=3,ops=1,mix=0,pseed=1", bad, err));
    EXPECT_FALSE(PdsSpec::parse("tree,sz=1,ops=1,mix=0,pseed=1", bad, err));
    EXPECT_FALSE(PdsSpec::parse("hash,sz=1,ops=8,mix=0,pseed=1,tx=3",
                                bad, err));
    // Numbers are strict: no trailing text, no sign, nothing that would
    // narrow or wrap.
    for (const char *t :
         {"hash,sz=1,ops=12x,mix=0,pseed=-1", "hash,sz=1,ops=12x",
          "hash,pseed=-1", "hash,pseed=", "hash,pseed=+3",
          "hash,ops=4294967297", "hash,pseed=18446744073709551616"}) {
        EXPECT_FALSE(PdsSpec::parse(t, bad, err)) << t;
        EXPECT_FALSE(err.empty()) << t;
    }
    // Strict grammar: a repeated key or a trailing separator is an error
    // naming the bad token.
    for (auto [t, tok] :
         {std::pair{"hash,sz=1,sz=2", "sz=2"},
          {"hash,sz=1,ops=12,mix=0,pseed=1,", "pseed=1,"}}) {
        EXPECT_FALSE(PdsSpec::parse(t, bad, err)) << t;
        EXPECT_NE(err.find(tok), std::string::npos) << t << ": " << err;
    }
}

TEST(PdsBuilder, ModuleTextRoundTrip)
{
    setLogQuiet(true);
    for (Kind k : {Kind::Log, Kind::Hash, Kind::Alloc}) {
        for (bool pmtx : {false, true}) {
            SCOPED_TRACE(std::string(pds::kindName(k)) +
                         (pmtx ? "/pmtx" : "/plain"));
            PdsSpec spec = smallSpec(k);
            auto prog =
                pds::buildPdsProgram(spec, pds::generateTape(spec), pmtx);
            std::string text = ir::moduleToString(*prog.module);
            auto back = ir::parseModule(text);
            ir::verifyModuleOrDie(*back);
            EXPECT_EQ(ir::moduleToString(*back), text);
        }
    }
}

// ---------------------------------------------------------------------------
// Tapes: the seeded draw is pinned, and the shared replay step rejects
// every infeasible op whichever producer lowered it.

TEST(PdsTape, GeneratedTapesArePinned)
{
    // FNV-1a over the tape words (op | a<<8, v per op). A shifted draw
    // changes every generated program, so every pds reference output.
    struct Pin { const char *spec; std::uint64_t hash; };
    const Pin pins[] = {
        {"log,sz=1,ops=192,mix=0,pseed=7", 0x02262086c360b1d4ull},
        {"hash,sz=1,ops=192,mix=0,pseed=7", 0xa9f191a6e2177b12ull},
        {"alloc,sz=1,ops=192,mix=0,pseed=7", 0x13e765eb75f0d7feull},
        {"log,sz=2,ops=160,mix=2,pseed=9", 0x11fc172227f7a797ull},
        {"hash,sz=2,ops=160,mix=2,pseed=9", 0xbb51ae3959681161ull},
        {"alloc,sz=2,ops=160,mix=2,pseed=9", 0x0fb270884ca61fffull},
    };
    for (const Pin &pin : pins) {
        PdsSpec spec;
        std::string err;
        ASSERT_TRUE(PdsSpec::parse(pin.spec, spec, err)) << err;
        pds::PdsModel model(spec, pds::generateTape(spec));
        ASSERT_EQ(model.tape().size(), 2u * spec.numOps) << pin.spec;
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (std::uint64_t word : model.tape()) {
            h ^= word;
            h *= 0x100000001b3ull;
        }
        EXPECT_EQ(h, pin.hash) << pin.spec;
    }
}

TEST(PdsTape, InfeasibleTapesAreRejected)
{
    setLogQuiet(true);
    using pds::PdsOp;
    auto replay = [](Kind k, std::vector<PdsOp> ops) {
        pds::PdsModel model(smallSpec(k), ops);
    };
    auto repeat = [](std::vector<PdsOp> ops, std::size_t n, PdsOp op) {
        ops.insert(ops.end(), n, op);
        return ops;
    };
    // sz=0 geometry: 4 log segments of 8 slots, a 24-node hash pool,
    // 16 allocator blocks and handles.
    std::vector<PdsOp> fullPool;
    for (std::uint64_t k = 1; k <= 24; ++k)
        fullPool.push_back({pds::pdsHashInsert, k, k});
    std::vector<PdsOp> allAllocated;
    for (std::uint64_t h = 0; h < 16; ++h)
        allAllocated.push_back({pds::pdsAllocAlloc, h, h});
    const PdsOp append{pds::pdsLogAppend, 0, 1};

    // The feasible edges replay cleanly.
    EXPECT_NO_THROW(replay(Kind::Log, repeat({}, 32, append)));
    EXPECT_NO_THROW(replay(Kind::Hash, fullPool));
    EXPECT_NO_THROW(replay(Kind::Alloc, allAllocated));

    EXPECT_THROW(replay(Kind::Hash, {}), PanicError);
    EXPECT_THROW(replay(Kind::Log, {{2, 0, 0}}), PanicError);
    EXPECT_THROW(replay(Kind::Hash, {{4, 1, 0}}), PanicError);
    EXPECT_THROW(replay(Kind::Alloc, {{2, 0, 0}}), PanicError);
    EXPECT_THROW(replay(Kind::Log, {{pds::pdsLogTrim, 1u << 24, 0}}),
                 PanicError);
    EXPECT_THROW(replay(Kind::Hash, {{pds::pdsHashInsert, 0, 1}}),
                 PanicError);
    EXPECT_THROW(replay(Kind::Hash, {{pds::pdsHashInsert, 5, 1},
                                     {pds::pdsHashInsert, 5, 2}}),
                 PanicError);
    EXPECT_THROW(replay(Kind::Hash,
                        repeat(fullPool, 1, {pds::pdsHashInsert, 25, 1})),
                 PanicError);
    EXPECT_THROW(replay(Kind::Alloc, {{pds::pdsAllocAlloc, 3, 1},
                                      {pds::pdsAllocAlloc, 3, 2}}),
                 PanicError);
    EXPECT_THROW(replay(Kind::Alloc,
                        repeat(allAllocated, 1, {pds::pdsAllocAlloc, 0, 1})),
                 PanicError);
    EXPECT_THROW(replay(Kind::Alloc, {{pds::pdsAllocAlloc, 16, 1}}),
                 PanicError);
    EXPECT_THROW(replay(Kind::Alloc, {{pds::pdsAllocFree, 3, 0}}),
                 PanicError);
    EXPECT_THROW(replay(Kind::Log, repeat({}, 33, append)), PanicError);
}

// ---------------------------------------------------------------------------
// Shadow equivalence: the emitted program and PdsModel are the same
// machine. A clean run's final memory must agree with the model replay
// at every address the model knows about, and the structure walk must
// come back clean.

TEST(PdsShadow, CleanRunMatchesModelAllSchemes)
{
    setLogQuiet(true);
    for (Kind k : {Kind::Log, Kind::Hash, Kind::Alloc}) {
        PdsSpec spec = smallSpec(k, 96);
        auto ops = pds::generateTape(spec);
        pds::PdsModel model(spec, ops);
        for (unsigned i = 0; i < spec.numOps; ++i)
            model.step();
        ASSERT_EQ(model.opsApplied(), spec.numOps);
        const pds::PdsParams &p = model.params();

        for (PdsScheme s : pds::allSchemes) {
            SCOPED_TRACE(std::string(pds::kindName(k)) + "/" +
                         pds::pdsSchemeName(s));
            auto prog = pds::preparePdsProgram(spec, ops, s,
                                               pds::PdsRunMode::Perf);
            auto cfg = pds::makePdsConfig(s, pds::PdsRunMode::Perf);
            core::System sys(cfg, prog, 1);
            auto r = sys.run();
            ASSERT_TRUE(r.completed);

            const mem::MemImage &img = sys.execImage();
            // Every word below the undo area must match the shadow
            // (the undo area's content is scheme-history, not state).
            for (Addr a = p.base; a < p.undoBase; a += 8) {
                ASSERT_EQ(img.read(a), model.read(a))
                    << "word mismatch at +0x" << std::hex << (a - p.base);
            }
            EXPECT_EQ(pds::checkSemantics(spec, ops, img), "");
        }
    }
}

// ---------------------------------------------------------------------------
// Crash/recovery matrix: every structure under every scheme, power cut
// across the whole execution, recovered run must land in the golden
// state with the structure walk clean; LightWSP victims additionally
// satisfy the store-stream prefix oracle.

namespace {

void
crashMatrixFor(PdsScheme s)
{
    setLogQuiet(true);
    const auto mode = pds::PdsRunMode::Recovery;
    for (Kind k : {Kind::Log, Kind::Hash, Kind::Alloc}) {
        PdsSpec spec = smallSpec(k);
        auto ops = pds::generateTape(spec);
        auto prog = pds::preparePdsProgram(spec, ops, s, mode, 16);
        auto cfg = pds::makePdsConfig(s, mode);
        const pds::PdsParams p = pds::PdsModel(spec, ops).params();

        core::System golden(cfg, prog, 1);
        auto gr = golden.run();
        ASSERT_TRUE(gr.completed);
        auto want = heapWords(golden.execImage(), p.base, p.undoBase);

        bool sawOpenTx = false;
        const double fracs[] = {0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95};
        for (double f : fracs) {
            SCOPED_TRACE(std::string(pds::kindName(k)) + "/" +
                         pds::pdsSchemeName(s) + " f=" +
                         std::to_string(f));
            core::System victim(cfg, prog, 1);
            auto vr = victim.runWithPowerFailure(
                static_cast<Tick>(f * gr.cycles));
            if (vr.completed)
                continue;
            ASSERT_TRUE(victim.crashed());

            if (s == PdsScheme::LightWsp) {
                EXPECT_EQ(
                    pds::checkCrashPrefix(spec, ops, victim.pmImage()), "");
            }
            if (s == PdsScheme::Pmtx &&
                victim.pmImage().read(p.undoCount) != 0) {
                sawOpenTx = true;
            }

            auto rec = core::System::recover(cfg, prog, 1,
                                             victim.pmImage(), {});
            auto rr = rec->run();
            ASSERT_TRUE(rr.completed);

            auto got = heapWords(rec->execImage(), p.base, p.undoBase);
            if (s == PdsScheme::Pmtx) {
                // The served counter is exec-level and monotonic: ops
                // replayed after a rollback re-serve, so it legally
                // overshoots the golden count. Everything else matches.
                std::size_t servedIdx = (p.served - p.base) / 8;
                EXPECT_GE(got[servedIdx], want[servedIdx]);
                got[servedIdx] = want[servedIdx];
            }
            EXPECT_EQ(got, want);
            EXPECT_EQ(pds::checkSemantics(spec, ops, rec->execImage()), "");
        }
        if (s == PdsScheme::Pmtx) {
            // The sweep must actually exercise the rollback path.
            EXPECT_TRUE(sawOpenTx)
                << pds::kindName(k)
                << ": no crash landed inside an open transaction";
        }
    }
}

} // namespace

TEST(PdsCrash, LightWspMatrix) { crashMatrixFor(PdsScheme::LightWsp); }
TEST(PdsCrash, CapriMatrix) { crashMatrixFor(PdsScheme::Capri); }
TEST(PdsCrash, PpaMatrix) { crashMatrixFor(PdsScheme::Ppa); }
TEST(PdsCrash, CwspMatrix) { crashMatrixFor(PdsScheme::Cwsp); }
TEST(PdsCrash, PmtxMatrix) { crashMatrixFor(PdsScheme::Pmtx); }

// ---------------------------------------------------------------------------
// Seeded-bug negatives: the oracles must catch the planted defects, or
// a green fuzz campaign means nothing.

TEST(PdsOracle, SemanticWalkCatchesBrokenVariants)
{
    setLogQuiet(true);
    struct Neg { Kind k; unsigned ops; unsigned mix; };
    // Parameters chosen so the planted bug actually fires: the log bug
    // needs a reclaim pass that keeps a live entry, the hash bug needs
    // one insert, the alloc bug needs a free that is not re-allocated
    // through the same handle later.
    const Neg negs[] = {
        {Kind::Log, 96, 2}, {Kind::Hash, 48, 0}, {Kind::Alloc, 48, 0}};
    for (const Neg &n : negs) {
        SCOPED_TRACE(pds::kindName(n.k));
        PdsSpec spec = smallSpec(n.k, n.ops);
        spec.mix = n.mix;
        spec.broken = 2;
        auto ops = pds::generateTape(spec);
        auto prog = pds::preparePdsProgram(spec, ops, PdsScheme::LightWsp,
                                           pds::PdsRunMode::Perf);
        auto cfg =
            pds::makePdsConfig(PdsScheme::LightWsp, pds::PdsRunMode::Perf);
        core::System sys(cfg, prog, 1);
        ASSERT_TRUE(sys.run().completed);
        std::string verdict =
            pds::checkSemantics(spec, ops, sys.execImage());
        EXPECT_NE(verdict, "") << "broken=2 variant passed the walk";
    }
}

// A log tape that never trims keeps the trim cursor at 0, below the
// first appended id (1): the walk must accept its clean final image.
TEST(PdsOracle, SemanticWalkAcceptsUntrimmedLog)
{
    setLogQuiet(true);
    PdsSpec spec = smallSpec(Kind::Log, 12);
    spec.seed = 1;
    auto ops = pds::generateTape(spec);
    for (const auto &op : ops)
        ASSERT_EQ(op.op, pds::pdsLogAppend) << "tape trims; pick another";
    auto prog = pds::preparePdsProgram(spec, ops, PdsScheme::LightWsp,
                                       pds::PdsRunMode::Perf);
    auto cfg = pds::makePdsConfig(PdsScheme::LightWsp, pds::PdsRunMode::Perf);
    core::System sys(cfg, prog, 1);
    ASSERT_TRUE(sys.run().completed);
    EXPECT_EQ(pds::checkSemantics(spec, ops, sys.execImage()), "");
}

TEST(PdsOracle, PrefixOracleCatchesEarlyOpsDoneCommit)
{
    setLogQuiet(true);
    // broken=1 commits the op counter before the op's own stores. With a
    // small store threshold the two end up in different regions, so some
    // crash images claim an op whose stores never landed.
    unsigned caught = 0;
    for (Kind k : {Kind::Log, Kind::Hash, Kind::Alloc}) {
        PdsSpec spec = smallSpec(k);
        spec.broken = 1;
        auto ops = pds::generateTape(spec);
        auto prog = pds::preparePdsProgram(spec, ops, PdsScheme::LightWsp,
                                           pds::PdsRunMode::Perf, 8);
        ASSERT_TRUE(prog.stats.thresholdConverged);
        auto cfg =
            pds::makePdsConfig(PdsScheme::LightWsp, pds::PdsRunMode::Perf);
        core::System golden(cfg, prog, 1);
        auto gr = golden.run();
        ASSERT_TRUE(gr.completed);
        for (unsigned i = 1; i < 64; ++i) {
            core::System victim(cfg, prog, 1);
            auto vr =
                victim.runWithPowerFailure(gr.cycles * i / 64);
            if (vr.completed)
                continue;
            if (pds::checkCrashPrefix(spec, ops, victim.pmImage()) != "")
                ++caught;
        }
    }
    EXPECT_GE(caught, 3u)
        << "ordering bug slipped past the prefix oracle";
}

// ---------------------------------------------------------------------------
// Engine A/B: the event-driven and cycle-stepped schedulers must agree
// bit-for-bit on the pds programs, crash runs included.

TEST(PdsEngine, EventAndCycleBitIdentical)
{
    setLogQuiet(true);
    for (Kind k : {Kind::Log, Kind::Hash, Kind::Alloc}) {
        SCOPED_TRACE(pds::kindName(k));
        PdsSpec spec = smallSpec(k);
        auto ops = pds::generateTape(spec);
        auto prog = pds::preparePdsProgram(spec, ops, PdsScheme::LightWsp,
                                           pds::PdsRunMode::Perf);
        auto cfg =
            pds::makePdsConfig(PdsScheme::LightWsp, pds::PdsRunMode::Perf);

        cfg.engine = SimEngine::Event;
        core::System ev(cfg, prog, 1);
        auto er = ev.run();
        ASSERT_TRUE(er.completed);

        cfg.engine = SimEngine::Cycle;
        core::System cy(cfg, prog, 1);
        auto cr = cy.run();
        ASSERT_TRUE(cr.completed);

        EXPECT_EQ(er.cycles, cr.cycles);
        const pds::PdsParams p = pds::PdsModel(spec, ops).params();
        EXPECT_EQ(heapWords(ev.execImage(), p.base,
                            p.base + p.footprintBytes),
                  heapWords(cy.execImage(), p.base,
                            p.base + p.footprintBytes));
    }
}

// ---------------------------------------------------------------------------
// Recovery-latency probe: the serve watch must fire on a recovered
// system, and never before an op actually lands.

TEST(PdsRecoveryProbe, WatchFiresOnFirstServedOp)
{
    setLogQuiet(true);
    PdsSpec spec = smallSpec(Kind::Hash);
    auto ops = pds::generateTape(spec);
    auto prog = pds::preparePdsProgram(spec, ops, PdsScheme::LightWsp,
                                       pds::PdsRunMode::Recovery);
    auto cfg =
        pds::makePdsConfig(PdsScheme::LightWsp, pds::PdsRunMode::Recovery);
    const Addr served = pds::pdsGeometry(spec).served;

    core::System golden(cfg, prog, 1);
    auto gr = golden.run();
    ASSERT_TRUE(gr.completed);

    core::System victim(cfg, prog, 1);
    auto vr = victim.runWithPowerFailure(gr.cycles / 2);
    ASSERT_FALSE(vr.completed);

    auto rec = core::System::recover(cfg, prog, 1, victim.pmImage(), {});
    std::uint64_t servedAtBoot = rec->execImage().read(served);
    auto probe = rec->runUntilWordChanges(served, servedAtBoot);
    ASSERT_TRUE(probe.served);
    EXPECT_GT(probe.serveTick, 0u);
    EXPECT_GT(rec->execImage().read(served), servedAtBoot);
    // The probe stops the run mid-flight; the remainder must still
    // complete from there.
    auto rr = rec->run();
    ASSERT_TRUE(rr.completed);
    EXPECT_EQ(pds::checkSemantics(spec, ops, rec->execImage()), "");
}

// ---------------------------------------------------------------------------
// Static-checker coverage of the pmtx artifacts: compile the undo-log
// build through the LightWSP pipeline and discharge every obligation
// (or record the declared store-bound waiver) — no silent skip.

TEST(PdsStatic, PmtxArtifactsDischargeOrWaive)
{
    setLogQuiet(true);
    for (Kind k : {Kind::Log, Kind::Hash, Kind::Alloc}) {
        SCOPED_TRACE(pds::kindName(k));
        PdsSpec spec = smallSpec(k);
        auto built = pds::buildPdsProgram(spec, pds::generateTape(spec),
                                          /*pmtx=*/true);
        compiler::CompilerConfig ccfg;
        compiler::LightWspCompiler comp(ccfg);
        auto prog = comp.compile(std::move(built.module));
        auto report = analysis::checkCompiledProgram(prog, ccfg);
        EXPECT_GT(report.boundariesSeen, 0u);
        if (!report.ok()) {
            // Only the declared threshold-nonconvergence waiver is an
            // acceptable residue; anything else is a real finding.
            ASSERT_FALSE(prog.stats.thresholdConverged)
                << report.describe();
            for (const auto &v : report.violations)
                EXPECT_EQ(v.obligation, analysis::Obligation::StoreBound)
                    << v.describe();
        }
    }

    // The plain builds must discharge everything outright.
    for (Kind k : {Kind::Log, Kind::Hash, Kind::Alloc}) {
        SCOPED_TRACE(std::string(pds::kindName(k)) + "/plain");
        PdsSpec spec = smallSpec(k);
        auto built = pds::buildPdsProgram(spec, pds::generateTape(spec),
                                          /*pmtx=*/false);
        compiler::CompilerConfig ccfg;
        compiler::LightWspCompiler comp(ccfg);
        auto prog = comp.compile(std::move(built.module));
        auto report = analysis::checkCompiledProgram(prog, ccfg);
        EXPECT_TRUE(report.ok()) << report.describe();
    }
}
