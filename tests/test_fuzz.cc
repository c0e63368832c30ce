/**
 * @file
 * Fuzzer self-tests: spec-string round-trips, clean campaigns on both
 * program sources, and the fault-injection path — a deliberately broken
 * release ordering must be caught by an oracle, shrunk, and reproduced
 * exactly from the reported spec string, in a mined campaign and in the
 * recovery-matrix mode alike.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "common/logging.hh"
#include "fuzz/campaign.hh"

using namespace lwsp;
using namespace lwsp::fuzz;

namespace {

CaseSpec
parseOk(const std::string &s)
{
    CaseSpec spec;
    std::string err;
    EXPECT_TRUE(CaseSpec::parse(s, spec, err)) << s << ": " << err;
    return spec;
}

} // namespace

TEST(FuzzSpec, RoundTripsCampaignSpec)
{
    CaseSpec spec;
    spec.source = CaseSpec::Source::Ir;
    spec.seed = 12345;
    spec.shrink = 3;
    CaseSpec back = parseOk(spec.toString());
    EXPECT_EQ(back.toString(), spec.toString());
    EXPECT_EQ(back.source, CaseSpec::Source::Ir);
    EXPECT_EQ(back.seed, 12345u);
    EXPECT_EQ(back.shrink, 3u);
    EXPECT_EQ(back.mode, CrashMode::None);
    EXPECT_FALSE(back.fault);
}

TEST(FuzzSpec, RoundTripsEveryCrashMode)
{
    CaseSpec spec;
    spec.source = CaseSpec::Source::Workload;
    spec.seed = 7;
    spec.fault = true;

    spec.mode = CrashMode::Single;
    spec.crashAt = 4242;
    CaseSpec single = parseOk(spec.toString());
    EXPECT_EQ(single.mode, CrashMode::Single);
    EXPECT_EQ(single.crashAt, 4242u);
    EXPECT_TRUE(single.fault);

    spec.mode = CrashMode::DoubleRecovery;
    spec.crashAt2 = 99;
    CaseSpec dblrec = parseOk(spec.toString());
    EXPECT_EQ(dblrec.mode, CrashMode::DoubleRecovery);
    EXPECT_EQ(dblrec.crashAt2, 99u);

    spec.mode = CrashMode::DoubleDrain;
    spec.drainIters = 2;
    CaseSpec dbldrain = parseOk(spec.toString());
    EXPECT_EQ(dbldrain.mode, CrashMode::DoubleDrain);
    EXPECT_EQ(dbldrain.drainIters, 2u);
}

TEST(FuzzSpec, RejectsMalformedSpecs)
{
    CaseSpec spec;
    std::string err;
    EXPECT_FALSE(CaseSpec::parse("", spec, err));
    EXPECT_FALSE(CaseSpec::parse("lwsp-fuzz:v2:wl:seed=1", spec, err));
    EXPECT_FALSE(CaseSpec::parse("lwsp-fuzz:v1:xx:seed=1", spec, err));
    EXPECT_FALSE(
        CaseSpec::parse("lwsp-fuzz:v1:wl:seed=1:bogus=3", spec, err));
    EXPECT_FALSE(err.empty());
    // Numbers are strict: trailing text, signs and values too large for
    // the field are errors, not silently truncated or narrowed.
    for (const char *s :
         {"lwsp-fuzz:v1:wl:seed=7x", "lwsp-fuzz:v1:wl:seed=-1",
          "lwsp-fuzz:v1:wl:seed= 7",
          "lwsp-fuzz:v1:pds:seed=9:mcs=4294967297",
          "lwsp-fuzz:v1:wl:seed=1:drain=4294967296",
          "lwsp-fuzz:v1:wl:seed=1:crash=12x"}) {
        EXPECT_FALSE(CaseSpec::parse(s, spec, err)) << s;
        EXPECT_FALSE(err.empty()) << s;
    }
    // The grammar is strict: a repeated key, a flag other than 0/1 and an
    // empty token are errors naming the bad token, and so is a key that
    // would have no effect on the parsed case (crash without a mode, pds
    // on a wl case), since the replay would run a different case.
    for (auto [s, tok] : {
             std::pair{"lwsp-fuzz:v1:wl:seed=3:seed=4", "seed=4"},
             {"lwsp-fuzz:v1:wl:seed=3:fault=abc", "fault=abc"},
             {"lwsp-fuzz:v1:wl:seed=3:fault=", "fault="},
             {"lwsp-fuzz:v1:wl::seed=3", "wl::seed=3"},
             {"lwsp-fuzz:v1:wl:seed=3:", "wl:seed=3:"},
             {"lwsp-fuzz:v1:wl:seed=3:crash=9", "crash=9"},
             {"lwsp-fuzz:v1:wl:seed=3:pds=log,sz=0", "pds=log,sz=0"},
             {"lwsp-fuzz:v1:wl:seed=3:mode=single:crash=1:drain=2",
              "drain=2"},
             {"lwsp-fuzz:v1:wl:seed=3:mode=single:crash=1:crash2=2",
              "crash2=2"},
             {"lwsp-fuzz:v1:pds:seed=3:serve=varnish", "serve=varnish"}}) {
        EXPECT_FALSE(CaseSpec::parse(s, spec, err)) << s;
        EXPECT_NE(err.find(tok), std::string::npos) << s << ": " << err;
    }
}

TEST(FuzzSpec, RoundTripsMachineShapeTokens)
{
    CaseSpec spec;
    spec.source = CaseSpec::Source::Pds;
    spec.seed = 9;

    // Default shape: no mcs=/topo= tokens, so pre-scale-out specs and
    // their reproducers are unchanged byte-for-byte.
    std::string plain = spec.toString();
    EXPECT_EQ(plain.find(":mcs="), std::string::npos) << plain;
    EXPECT_EQ(plain.find(":topo="), std::string::npos) << plain;

    spec.mcs = 65;
    spec.topo.kind = noc::TopologyConfig::Kind::Tree;
    spec.topo.radix = 4;
    std::string s = spec.toString();
    EXPECT_NE(s.find(":mcs=65"), std::string::npos) << s;
    EXPECT_NE(s.find(":topo=tree4"), std::string::npos) << s;
    CaseSpec back = parseOk(s);
    EXPECT_EQ(back.mcs, 65u);
    EXPECT_TRUE(back.topo.isTree());
    EXPECT_EQ(back.topo.radix, 4u);
    EXPECT_EQ(back.toString(), s);

    std::string err;
    EXPECT_FALSE(
        CaseSpec::parse("lwsp-fuzz:v1:pds:seed=9:mcs=0", back, err));
    EXPECT_FALSE(
        CaseSpec::parse("lwsp-fuzz:v1:pds:seed=9:topo=ring4", back, err));
}

// scheme= rides pds and serve specs only, and only off the default, so
// every lightwsp spec string is unchanged byte for byte.
TEST(FuzzSpec, SchemeTokenOnStructureCasesOnly)
{
    CaseSpec spec;
    spec.source = CaseSpec::Source::Pds;
    std::string plain = spec.toString();
    EXPECT_EQ(plain.find(":scheme="), std::string::npos) << plain;

    for (auto source : {CaseSpec::Source::Pds, CaseSpec::Source::Serve}) {
        for (auto scheme : {pds::PdsScheme::Capri, pds::PdsScheme::Pmtx}) {
            spec.source = source;
            spec.scheme = scheme;
            std::string s = spec.toString();
            EXPECT_NE(s.find(std::string(":scheme=") +
                             pds::pdsSchemeName(scheme)),
                      std::string::npos)
                << s;
            CaseSpec back = parseOk(s);
            EXPECT_EQ(back.scheme, scheme) << s;
            EXPECT_EQ(back.toString(), s);
            // pmtx runs uncompiled: no partition for the checker to fail.
            EXPECT_TRUE(staticCheck(back).ok) << s;
        }
    }

    std::string err;
    for (const char *s : {"lwsp-fuzz:v1:wl:seed=1:scheme=capri",
                          "lwsp-fuzz:v1:ir:seed=1:scheme=pmtx",
                          "lwsp-fuzz:v1:pds:seed=1:scheme=bogus"}) {
        EXPECT_FALSE(CaseSpec::parse(s, spec, err)) << s;
        EXPECT_NE(err.find("scheme="), std::string::npos) << s << ": " << err;
    }
}

// The scale-out path end-to-end: a pds crash campaign pinned to a
// 65-MC radix-4 tree (past the old uint64_t delivery-mask boundary)
// must mine, crash, recover and oracle-check cleanly through exactly
// the spec machinery a reproducer would use.
TEST(FuzzCampaign, PdsCampaignPassesOn65McTree)
{
    setLogQuiet(true);
    CaseSpec spec;
    spec.source = CaseSpec::Source::Pds;
    spec.seed = 1;
    spec.mcs = 65;
    spec.topo.kind = noc::TopologyConfig::Kind::Tree;
    spec.topo.radix = 4;
    auto res = runCampaign(spec);
    EXPECT_TRUE(res.passed) << res.failure;
    EXPECT_GE(res.pointsTried, 4u);
    EXPECT_GT(res.oracleChecks, 0u);
}

TEST(FuzzCampaign, WorkloadCampaignPassesCleanly)
{
    setLogQuiet(true);
    CaseSpec spec;
    spec.source = CaseSpec::Source::Workload;
    spec.seed = 1;
    auto res = runCampaign(spec);
    EXPECT_TRUE(res.passed) << res.failure;
    EXPECT_GE(res.pointsTried, 8u);
    EXPECT_GT(res.runsExecuted, res.pointsTried);  // golden + recoveries
    EXPECT_GT(res.oracleChecks, 0u);
}

TEST(FuzzCampaign, IrCampaignPassesCleanly)
{
    setLogQuiet(true);
    CaseSpec spec;
    spec.source = CaseSpec::Source::Ir;
    spec.seed = 1;
    auto res = runCampaign(spec);
    EXPECT_TRUE(res.passed) << res.failure;
    EXPECT_GE(res.pointsTried, 8u);
    EXPECT_GT(res.oracleChecks, 0u);
}

TEST(FuzzCampaign, FaultInjectionIsCaughtShrunkAndReplayable)
{
    setLogQuiet(true);
    CaseSpec spec;
    spec.source = CaseSpec::Source::Workload;
    spec.seed = 1;
    spec.fault = true;  // MC releases WPQ entries ahead of the boundary

    auto res = runCampaign(spec);
    ASSERT_FALSE(res.passed)
        << "early-release fault escaped every oracle";
    EXPECT_NE(res.failure.find("oracle"), std::string::npos)
        << "fault was not caught by an invariant oracle: "
        << res.failure;

    // The reproducer pins a concrete injection and keeps the fault knob.
    ASSERT_NE(res.reproducer.mode, CrashMode::None);
    EXPECT_TRUE(res.reproducer.fault);

    // Replaying the reported spec string reproduces the failure...
    CaseSpec replay = parseOk(res.reproducer.toString());
    auto rep = runCampaign(replay);
    EXPECT_FALSE(rep.passed) << "reproducer did not reproduce";

    // ...and the same injection without the fault knob is clean,
    // pinning the failure on the fault rather than the crash point.
    replay.fault = false;
    auto clean = runCampaign(replay);
    EXPECT_TRUE(clean.passed) << clean.failure;
}

// Every crash mode lowers to one failure schedule and one recover path:
// dbl-drain is storm d<N> and dbl-rec is storm x<T>, point for point.
TEST(FuzzCampaign, CrashModesAreSchedules)
{
    setLogQuiet(true);
    const std::string base = "lwsp-fuzz:v1:wl:seed=3:shrink=1:";
    auto expectSame = [&](const std::string &mode,
                          const std::string &storm) {
        auto a = runCampaign(parseOk(base + mode));
        auto b = runCampaign(parseOk(base + storm));
        EXPECT_TRUE(a.passed) << mode << ": " << a.failure;
        EXPECT_EQ(a.passed, b.passed) << mode;
        EXPECT_EQ(a.runsExecuted, b.runsExecuted) << mode;
        EXPECT_EQ(a.oracleChecks, b.oracleChecks) << mode;
        EXPECT_EQ(a.recoveredExact, b.recoveredExact) << mode;
        EXPECT_EQ(a.recoveredDegraded, b.recoveredDegraded) << mode;
        EXPECT_EQ(a.detectedUnrecoverable, b.detectedUnrecoverable)
            << mode;
        EXPECT_EQ(a.failuresSurvived, b.failuresSurvived) << mode;
        return a;
    };
    for (unsigned n : {0u, 1u, 3u}) {
        auto r = expectSame(
            "mode=dbl-drain:crash=5000:drain=" + std::to_string(n),
            "mode=storm:crash=5000:storm=d" + std::to_string(n));
        EXPECT_EQ(r.failuresSurvived, 2u);
    }
    // The second failure lands: golden, victim and two recovered runs.
    auto landed = expectSame("mode=dbl-rec:crash=5000:crash2=800",
                             "mode=storm:crash=5000:storm=x800");
    EXPECT_EQ(landed.runsExecuted, 4u);
    EXPECT_EQ(landed.failuresSurvived, 2u);
    // The recovered run finishes first: the second failure never fires.
    auto early = expectSame("mode=dbl-rec:crash=5000:crash2=100000000",
                            "mode=storm:crash=5000:storm=x100000000");
    EXPECT_EQ(early.runsExecuted, 3u);
    EXPECT_EQ(early.failuresSurvived, 1u);
}

// A recovery-matrix failure is a campaign failure like any other: the
// planted early-release fault in a small pds case fails the matrix, and
// the reported spec, scheme included, replays to the same verdict.
TEST(FuzzCampaign, MatrixFailureIsShrunkAndReplayable)
{
    setLogQuiet(true);
    CaseSpec spec;
    spec.source = CaseSpec::Source::Pds;
    spec.scheme = pds::PdsScheme::Capri;
    spec.pds.kind = pds::Kind::Log;
    spec.pds.sizeClass = 0;
    spec.pds.numOps = 24;
    spec.fault = true;
    CampaignOptions opt;
    opt.recoveryStep = 97;

    auto res = runCampaign(spec, opt);
    ASSERT_FALSE(res.passed) << "early-release fault escaped the matrix";
    EXPECT_EQ(res.reproducer.mode, CrashMode::Storm);
    EXPECT_EQ(res.reproducer.scheme, pds::PdsScheme::Capri);
    EXPECT_TRUE(res.reproducer.fault);

    CaseSpec replay = parseOk(res.reproducer.toString());
    EXPECT_EQ(replay.toString(), res.reproducer.toString());
    auto rep = runCampaign(replay);
    EXPECT_FALSE(rep.passed) << "reproducer did not reproduce";
}

// Campaigns honour the clock engine, and the two engines agree: the same
// small seed gives the same counts under both, in a mined storm campaign
// and in matrix mode.
TEST(FuzzCampaign, EnginesGiveIdenticalCounts)
{
    setLogQuiet(true);
    CaseSpec wl = parseOk("lwsp-fuzz:v1:wl:seed=3:shrink=1");
    CampaignOptions mined;
    mined.minCrashPoints = 4;
    mined.stormCrash = true;
    CampaignOptions matrix;
    matrix.recoveryStep = 211;
    matrix.oracles = false;
    CaseSpec pmtx = recoveryMatrixCases()[4];
    ASSERT_EQ(pmtx.scheme, pds::PdsScheme::Pmtx);

    for (auto [spec, opt] : {std::pair{wl, mined}, {pmtx, matrix}}) {
        CampaignResult r[2];
        for (SimEngine e : {SimEngine::Event, SimEngine::Cycle}) {
            const SimEngine saved = defaultSimEngine();
            setDefaultSimEngine(e);
            r[e == SimEngine::Cycle] = runCampaign(spec, opt);
            setDefaultSimEngine(saved);
        }
        const std::string what = spec.toString();
        EXPECT_TRUE(r[0].passed) << what << ": " << r[0].failure;
        EXPECT_EQ(r[0].passed, r[1].passed) << what;
        EXPECT_EQ(r[0].pointsTried, r[1].pointsTried) << what;
        EXPECT_EQ(r[0].runsExecuted, r[1].runsExecuted) << what;
        EXPECT_EQ(r[0].oracleChecks, r[1].oracleChecks) << what;
        EXPECT_EQ(r[0].goldenCycles, r[1].goldenCycles) << what;
        EXPECT_EQ(r[0].recoveryCycles, r[1].recoveryCycles) << what;
        EXPECT_EQ(r[0].recoveredExact, r[1].recoveredExact) << what;
        EXPECT_EQ(r[0].recoveredDegraded, r[1].recoveredDegraded) << what;
        EXPECT_EQ(r[0].detectedUnrecoverable, r[1].detectedUnrecoverable)
            << what;
        EXPECT_EQ(r[0].failuresSurvived, r[1].failuresSurvived) << what;
        EXPECT_GT(r[0].pointsTried, 0u) << what;
    }
}
