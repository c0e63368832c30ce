/**
 * @file
 * Serve-subsystem tests: deterministic samplers (Zipf keys, Poisson +
 * burst arrivals), spec round-trips, request-compiler feasibility, the
 * Lindley latency fold on hand-computed values, and an end-to-end
 * traced run whose ServeMarks must cover the whole op tape.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "core/system.hh"
#include "pds/pds.hh"
#include "serve/serve.hh"
#include "trace/events.hh"

using namespace lwsp;

TEST(ServeZipf, DeterministicAcrossInstances)
{
    serve::ZipfSampler a(64), b(64);
    Rng ra(42), rb(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.sample(ra), b.sample(rb));
}

TEST(ServeZipf, RankFrequencyMonotone)
{
    serve::ZipfSampler z(64);
    Rng rng(7);
    std::map<std::uint64_t, unsigned> count;
    constexpr unsigned draws = 20000;
    for (unsigned i = 0; i < draws; ++i) {
        std::uint64_t k = z.sample(rng);
        ASSERT_GE(k, 1u);
        ASSERT_LE(k, 64u);
        ++count[k];
    }
    // s=1 Zipf: expected counts scale as 1/rank, so widely spaced ranks
    // must order strictly even with sampling noise.
    EXPECT_GT(count[1], count[8]);
    EXPECT_GT(count[8], count[32]);
    // Rank 1 draws ~1/H(64) ~ 21% of the mass.
    EXPECT_GT(count[1], draws / 8);
}

TEST(ServeDetLog, MatchesStdLog)
{
    for (double x : {1e-6, 1e-3, 0.1, 0.5, 0.999, 1.0, 1.5, 2.0, 777.0,
                     1e9}) {
        double want = std::log(x);
        double got = serve::detLog(x);
        EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::fabs(want)))
            << "x=" << x;
    }
}

TEST(ServeArrivals, MeanRateWithinTolerance)
{
    serve::ServeSpec spec;
    spec.numRequests = 5000;
    spec.meanIa = 2000;
    spec.burst = 0;
    spec.seed = 3;
    auto arr = serve::arrivalTimes(spec);
    ASSERT_EQ(arr.size(), 5000u);
    for (std::size_t i = 1; i < arr.size(); ++i)
        EXPECT_GE(arr[i], arr[i - 1]);
    double meanIa =
        static_cast<double>(arr.back()) / static_cast<double>(arr.size());
    // Exponential with mean 2000 over 5000 draws: the sample mean sits
    // within a few percent; 10% tolerance leaves seed-luck headroom.
    EXPECT_NEAR(meanIa, 2000.0, 200.0);
}

TEST(ServeArrivals, ReproducibleAndBurstSensitive)
{
    serve::ServeSpec spec;
    spec.numRequests = 800;
    spec.meanIa = 1000;
    spec.seed = 11;

    spec.burst = 2;
    auto a = serve::arrivalTimes(spec);
    auto b = serve::arrivalTimes(spec);
    EXPECT_EQ(a, b);  // burst placement is fully seed-determined

    spec.burst = 0;
    auto plain = serve::arrivalTimes(spec);
    EXPECT_NE(a, plain);
    // Bursts only ever speed arrivals up, so the bursty tape finishes
    // strictly earlier.
    EXPECT_LT(a.back(), plain.back());

    spec.burst = 2;
    spec.seed = 12;
    EXPECT_NE(serve::arrivalTimes(spec), a);
}

TEST(ServeSpec, RoundTripsThroughString)
{
    serve::ServeSpec spec;
    spec.profile = serve::Profile::Horde;
    spec.sizeClass = 2;
    spec.numRequests = 96;
    spec.meanIa = 750;
    spec.burst = 1;
    spec.seed = 99;
    spec.opsPerTx = 8;
    std::string s = spec.toString();
    serve::ServeSpec back;
    std::string err;
    ASSERT_TRUE(serve::ServeSpec::parse(s, back, err)) << err;
    EXPECT_EQ(back.toString(), s);
    EXPECT_EQ(back.profile, serve::Profile::Horde);
    EXPECT_EQ(back.numRequests, 96u);
    EXPECT_EQ(back.burst, 1u);
    EXPECT_EQ(back.opsPerTx, 8u);

    serve::ServeSpec bad;
    EXPECT_FALSE(serve::ServeSpec::parse("squid,sz=1", bad, err));
    EXPECT_FALSE(serve::ServeSpec::parse("varnish,burst=9", bad, err));
    EXPECT_FALSE(serve::ServeSpec::parse("varnish,tx=3", bad, err));
    // Numbers are strict: garbage is an error, not 0 or a wrapped value.
    for (const char *t : {"varnish,sseed=abc", "varnish,sseed=",
                          "varnish,reqs=96x", "varnish,ia=-5",
                          "varnish,reqs=4294967393"})
        EXPECT_FALSE(serve::ServeSpec::parse(t, bad, err)) << t;
    // Strict grammar: a repeated key or a trailing separator is an error
    // naming the bad token.
    for (auto [t, tok] : {std::pair{"varnish,sz=1,sz=2", "sz=2"},
                          {"varnish,reqs=10,", "reqs=10,"}}) {
        EXPECT_FALSE(serve::ServeSpec::parse(t, bad, err)) << t;
        EXPECT_NE(err.find(tok), std::string::npos) << t << ": " << err;
    }
}

TEST(ServeWorkload, LoweringIsFeasibleAndCoversRequests)
{
    for (auto prof : {serve::Profile::Varnish, serve::Profile::Horde}) {
        serve::ServeSpec spec;
        spec.profile = prof;
        spec.numRequests = 300;
        spec.seed = 5;
        serve::ServeWorkload wl = serve::buildWorkload(spec);

        ASSERT_EQ(wl.requests.size(), 300u);
        ASSERT_EQ(wl.opEnd.size(), 300u);
        EXPECT_EQ(wl.opEnd.back(), wl.ops.size());
        EXPECT_EQ(wl.pdsSpec.numOps, wl.ops.size());
        unsigned prev = 0;
        for (unsigned e : wl.opEnd) {
            EXPECT_GT(e, prev);  // every request costs >= 1 op
            prev = e;
        }
        for (const auto &op : wl.ops)
            EXPECT_LE(op.a, 0xffffffull);  // tape-packing key bound
        // The model replays the tape and asserts every pds feasibility
        // invariant; constructing it IS the check.
        pds::PdsModel model(wl.pdsSpec, wl.ops);
        EXPECT_EQ(model.spec().numOps, wl.ops.size());

        // Determinism: the tape is independent of rate/burst knobs.
        serve::ServeSpec rateChanged = spec;
        rateChanged.meanIa = 1;
        rateChanged.burst = 2;
        serve::ServeWorkload wl2 = serve::buildWorkload(rateChanged);
        ASSERT_EQ(wl2.ops.size(), wl.ops.size());
        for (std::size_t i = 0; i < wl.ops.size(); ++i) {
            EXPECT_EQ(wl2.ops[i].op, wl.ops[i].op);
            EXPECT_EQ(wl2.ops[i].a, wl.ops[i].a);
            EXPECT_EQ(wl2.ops[i].v, wl.ops[i].v);
        }
    }
}

TEST(ServeLatency, LindleyFoldHandComputed)
{
    // 4 requests, 1 op each, constant 10-cycle service.
    serve::ServeWorkload wl;
    wl.requests.resize(4);
    wl.ops.resize(4);
    wl.opEnd = {1, 2, 3, 4};
    serve::OpMarks marks;
    marks.completion = {10, 20, 30, 40};
    marks.stallCum = {0, 2, 2, 7};
    marks.wpqOcc = {0, 3, 1, 5};

    //   r0: start max(0,0)=0,   W=10,  lat 10
    //   r1: start max(10,5)=10, W=20,  lat 15   <- queueing delay
    //   r2: start max(20,25)=25,W=35,  lat 10
    //   r3: start max(35,100)=100, W=110, lat 10
    auto rep = serve::LatencyRecorder::fold(wl, marks, {0, 5, 25, 100});
    EXPECT_EQ(rep.requests, 4u);
    EXPECT_DOUBLE_EQ(rep.p50, 10.0);   // nearest-rank 2 of {10,10,10,15}
    EXPECT_DOUBLE_EQ(rep.p99, 15.0);
    EXPECT_DOUBLE_EQ(rep.p999, 15.0);
    EXPECT_DOUBLE_EQ(rep.max, 15.0);
    EXPECT_DOUBLE_EQ(rep.mean, 11.25);
    // The p99 request is r1: 2 stall cycles in its service window
    // (stallCum 0 -> 2), WPQ occupancy 3 at its completing mark.
    EXPECT_DOUBLE_EQ(rep.stallAtP99, 2.0);
    EXPECT_EQ(rep.wpqOccAtP99, 3u);
}

namespace {

serve::OpMarks
runAndMark(const serve::ServeWorkload &wl, pds::PdsScheme scheme)
{
    auto cfg = pds::makePdsConfig(scheme, pds::PdsRunMode::Perf);
    cfg.traceEnabled = true;
    cfg.traceMask = trace::categoryBit(trace::Category::Serve) |
                    trace::categoryBit(trace::Category::Wpq);
    cfg.traceBufferEvents = std::size_t(1) << 16;
    cfg.core.serveMarkAddr =
        pds::PdsModel(wl.pdsSpec, wl.ops).params().served;
    auto prog =
        pds::preparePdsProgram(wl.pdsSpec, wl.ops, scheme,
                               pds::PdsRunMode::Perf);
    core::System sys(cfg, prog, 1);
    auto res = sys.run();
    EXPECT_TRUE(res.completed);
    EXPECT_EQ(pds::checkSemantics(wl.pdsSpec, wl.ops, sys.execImage()),
              "");
    return serve::LatencyRecorder::extractMarks(
        wl, sys.traceSink()->snapshot());
}

} // namespace

TEST(ServeEndToEnd, MarksCoverTapeAndPmtxIsSlower)
{
    serve::ServeSpec spec;
    spec.profile = serve::Profile::Horde;
    spec.numRequests = 48;
    spec.seed = 21;
    serve::ServeWorkload wl = serve::buildWorkload(spec);

    serve::OpMarks light = runAndMark(wl, pds::PdsScheme::LightWsp);
    ASSERT_EQ(light.completion.size(), wl.ops.size());
    for (std::size_t i = 1; i < light.completion.size(); ++i)
        EXPECT_GT(light.completion[i], light.completion[i - 1]);

    // The same tape under the software undo-log baseline must take
    // longer end to end (every tx pays fence/log overhead).
    serve::OpMarks pmtx = runAndMark(wl, pds::PdsScheme::Pmtx);
    ASSERT_EQ(pmtx.completion.size(), wl.ops.size());
    EXPECT_GT(pmtx.completion.back(), light.completion.back());

    // Fold under a saturating arrival pattern (everything arrives
    // almost immediately, so latency is dominated by cumulative service
    // time): pmtx's slower tape must show heavier mean and p99. At open
    // load the ordering can flip for tiny tapes — a single lightwsp
    // boundary stall landing on an arrival cluster — which is exactly
    // why fig21 runs 1200 requests; here we pin the saturated case.
    serve::ServeSpec sat = spec;
    sat.meanIa = 1;
    auto arr = serve::arrivalTimes(sat);
    auto lr = serve::LatencyRecorder::fold(wl, light, arr);
    auto pr = serve::LatencyRecorder::fold(wl, pmtx, arr);
    EXPECT_GT(pr.p99, lr.p99);
    EXPECT_GT(pr.mean, lr.mean);
}
