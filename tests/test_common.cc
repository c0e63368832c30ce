/**
 * @file
 * Unit tests for the common substrate: RNG determinism, statistics,
 * integer math, logging and unit conversions.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/flags.hh"
#include "common/intmath.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"

using namespace lwsp;

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowStaysInRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 20000; ++i) {
        auto v = r.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo = saw_lo || v == 3;
        saw_hi = saw_hi || v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceZeroAndOne)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(IntMath, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOf2(1));
    EXPECT_TRUE(isPowerOf2(64));
    EXPECT_TRUE(isPowerOf2(1ull << 40));
    EXPECT_FALSE(isPowerOf2(0));
    EXPECT_FALSE(isPowerOf2(3));
    EXPECT_FALSE(isPowerOf2(96));
}

TEST(IntMath, Log2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(64), 6u);
    EXPECT_EQ(floorLog2(65), 6u);
    EXPECT_EQ(ceilLog2(64), 6u);
    EXPECT_EQ(ceilLog2(65), 7u);
    EXPECT_THROW(floorLog2(0), PanicError);
}

TEST(IntMath, Alignment)
{
    EXPECT_EQ(alignDown(0x12345, 64), 0x12340u);
    EXPECT_EQ(alignUp(0x12345, 64), 0x12380u);
    EXPECT_EQ(alignDown(0x100, 64), 0x100u);
    EXPECT_EQ(alignUp(0x100, 64), 0x100u);
    EXPECT_EQ(divCeil(10, 3), 4u);
    EXPECT_EQ(divCeil(9, 3), 3u);
}

TEST(Types, NsToCycles)
{
    EXPECT_EQ(nsToCycles(20.0), 40u);   // 20 ns @ 2 GHz
    EXPECT_EQ(nsToCycles(0.99), 2u);    // CAM search rounds up
    EXPECT_EQ(nsToCycles(175.0), 350u); // PM read
}

TEST(Types, BandwidthToCycles)
{
    // 8B at 4 GB/s = 2 ns = 4 cycles at 2 GHz.
    EXPECT_EQ(bandwidthToCyclesPerGranule(4.0), 4u);
    EXPECT_EQ(bandwidthToCyclesPerGranule(2.0), 8u);
    EXPECT_EQ(bandwidthToCyclesPerGranule(1.0), 16u);
    EXPECT_GE(bandwidthToCyclesPerGranule(1000.0), 1u);  // floor of 1
}

TEST(Logging, PanicAndFatalThrow)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
    EXPECT_THROW(fatal("bad config"), FatalError);
    try {
        panic("value=", 7);
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("value=7"),
                  std::string::npos);
    }
}

TEST(Logging, QuietModeCountsSuppressedWarnings)
{
    std::uint64_t before = suppressedWarnings();
    setLogQuiet(true);
    warn("hidden ", 1);
    warn("hidden ", 2);
    inform("status is not a warning");
    setLogQuiet(false);
    EXPECT_EQ(suppressedWarnings(), before + 2);
    warn("printed, so not counted");
    EXPECT_EQ(suppressedWarnings(), before + 2);
}

TEST(Stats, AverageTracksMinMaxMean)
{
    stats::Average a;
    a.sample(2);
    a.sample(8);
    a.sample(5);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 8.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Stats, DistributionBuckets)
{
    stats::Distribution d(0, 100, 10);
    d.sample(-5);
    d.sample(5);
    d.sample(15);
    d.sample(95);
    d.sample(150);
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.buckets()[0], 1u);
    EXPECT_EQ(d.buckets()[1], 1u);
    EXPECT_EQ(d.buckets()[9], 1u);
    EXPECT_EQ(d.summary().count(), 5u);
    d.reset();
    EXPECT_EQ(d.summary().count(), 0u);
}

TEST(Stats, GeomeanKnownValues)
{
    EXPECT_NEAR(stats::geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(stats::geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
    EXPECT_THROW(stats::geomean({}), PanicError);
    EXPECT_THROW(stats::geomean({1.0, -1.0}), PanicError);
}

namespace {

/** A two-row counter table, declared the way a component declares one. */
struct DemoCounters
{
    std::uint64_t flushes = 0;
    stats::Distribution occupancy{0, 4, 2};

    static constexpr auto
    fields()
    {
        using C = DemoCounters;
        return std::to_array<stats::Counter<C>>({
            {"flushes", &C::flushes},
            {"occupancy", &C::occupancy},
        });
    }
};

/** A member without a row: its table misses eight bytes. */
struct MissingRow
{
    std::uint64_t counted = 0;
    std::uint64_t forgotten = 0;

    static constexpr auto
    fields()
    {
        return std::to_array<stats::Counter<MissingRow>>({
            {"counted", &MissingRow::counted},
        });
    }
};

static_assert(stats::counterBytes(DemoCounters::fields()) ==
              sizeof(DemoCounters));
static_assert(stats::counterBytes(MissingRow::fields()) + 8 ==
              sizeof(MissingRow));

} // namespace

TEST(Stats, StatGroupDumpAndLookup)
{
    DemoCounters c;
    stats::StatGroup g("mc0");
    g.addCounters(c);
    // Registered values are read at dump time, not at registration.
    c.flushes = 7;
    c.occupancy.sample(1);
    c.occupancy.sample(3);
    EXPECT_DOUBLE_EQ(g.value("flushes"), 7.0);
    EXPECT_DOUBLE_EQ(g.funcValue("flushes"), 7.0);
    EXPECT_DOUBLE_EQ(g.value("occupancy.count"), 2.0);
    EXPECT_DOUBLE_EQ(g.value("occupancy.sum"), 4.0);
    EXPECT_DOUBLE_EQ(g.value("occupancy.max"), 3.0);
    EXPECT_THROW(g.value("nope"), PanicError);
    EXPECT_THROW(g.value("occupancy.p50"), PanicError);

    // Distributions first, then values, each in name order.
    std::ostringstream os;
    g.dumpJson(os);
    EXPECT_EQ(os.str(), "{\"occupancy\":{\"mean\":2,\"min\":1,\"max\":3,"
                        "\"count\":2,\"underflow\":0,\"overflow\":0,"
                        "\"buckets\":[1,1]},\"flushes\":7}");

    c = {};
    EXPECT_DOUBLE_EQ(g.value("flushes"), 0.0);
    EXPECT_DOUBLE_EQ(g.value("occupancy.count"), 0.0);
}

TEST(Stats, RegistryDumpsGroupsInCreationOrder)
{
    stats::Registry reg;
    reg.group("b").addFunc("x", [] { return 1.5; });
    reg.group("a").addFunc("y", [] { return 2.0; });
    reg.group("b").addFunc("w", [] { return 0.0; });
    EXPECT_EQ(reg.numGroups(), 2u);
    std::ostringstream os;
    reg.dumpJson(os);
    EXPECT_EQ(os.str(), "{\"b\":{\"w\":0,\"x\":1.5},\"a\":{\"y\":2}}");
}

TEST(Stats, PercentilesNearestRank)
{
    stats::Percentiles p;
    // 1..100: nearest-rank pX is exactly X for this population.
    for (int i = 1; i <= 100; ++i)
        p.sample(i);
    EXPECT_DOUBLE_EQ(p.p50(), 50.0);
    EXPECT_DOUBLE_EQ(p.p90(), 90.0);
    EXPECT_DOUBLE_EQ(p.p99(), 99.0);
    EXPECT_DOUBLE_EQ(p.p999(), 100.0); // ceil(0.999*100)=100
    EXPECT_DOUBLE_EQ(p.max(), 100.0);
    EXPECT_DOUBLE_EQ(p.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(p.percentile(1.0), 100.0);
    EXPECT_EQ(p.count(), 100u);
    EXPECT_NEAR(p.mean(), 50.5, 1e-12);
}

TEST(Stats, PercentilesInsertionOrderIrrelevant)
{
    stats::Percentiles fwd, rev;
    for (int i = 0; i < 1000; ++i)
        fwd.sample(i);
    for (int i = 999; i >= 0; --i)
        rev.sample(i);
    EXPECT_DOUBLE_EQ(fwd.p50(), rev.p50());
    EXPECT_DOUBLE_EQ(fwd.p99(), rev.p99());
    EXPECT_DOUBLE_EQ(fwd.p999(), rev.p999());
    EXPECT_DOUBLE_EQ(fwd.max(), rev.max());
}

TEST(Stats, PercentilesEmptyAndSampleAfterQuery)
{
    stats::Percentiles p;
    EXPECT_DOUBLE_EQ(p.p50(), 0.0);
    EXPECT_DOUBLE_EQ(p.max(), 0.0);
    EXPECT_EQ(p.count(), 0u);

    p.sample(10);
    EXPECT_DOUBLE_EQ(p.p50(), 10.0); // triggers the lazy sort
    p.sample(1);                     // must invalidate sorted state
    EXPECT_DOUBLE_EQ(p.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(p.max(), 10.0);
    p.reset();
    EXPECT_EQ(p.count(), 0u);
    EXPECT_DOUBLE_EQ(p.p99(), 0.0);
}

TEST(Stats, PercentilesHeavyTailPopulation)
{
    // 989 fast samples + 11 slow ones: under nearest-rank, the p99
    // sample (rank ceil(0.99*1000) = 990) is the first slow one.
    stats::Percentiles p;
    for (int i = 0; i < 989; ++i)
        p.sample(100);
    for (int i = 0; i < 11; ++i)
        p.sample(10000 + i);
    EXPECT_DOUBLE_EQ(p.p50(), 100.0);
    EXPECT_DOUBLE_EQ(p.p99(), 10000.0);
    EXPECT_DOUBLE_EQ(p.p999(), 10009.0);
    EXPECT_DOUBLE_EQ(p.max(), 10010.0);
}

// ---------------------------------------------------------------------
// The command-line flag table (common/flags.hh).

namespace {

constexpr const char *modeNames[] = {"wl", "ir", "pds"};

/** A tool exercising every flag kind, bound to its own fields. */
struct FlagTool
{
    std::string target;
    std::string out;
    unsigned jobs = 0;
    std::uint64_t seed = 1;
    double fraction = 0;
    bool quick = false;
    unsigned mode = 0;
    std::vector<std::string> categories;
    cli::Command cmd{
        nullptr,
        "",
        {cli::text("<target>", "", "what to run", target),
         cli::fraction("[fraction]", "crash point", fraction),
         cli::text("--out", "FILE", "where to write", out),
         cli::number("--jobs", "N", "worker threads", jobs),
         cli::number("--seed", "S", "first seed", seed,
                           std::uint64_t{1}),
         cli::toggle("--quick", "smoke mode", quick),
         cli::choice("--mode", "program source", modeNames, mode),
         {"--category", "C", "keep category C",
          [this](std::string_view v, std::string &) {
              categories.emplace_back(v);
              return true;
          },
          /*repeats=*/true}}};

    FlagTool() = default;
    FlagTool(const FlagTool &) = delete;

    bool
    parse(std::vector<std::string_view> args, std::string &err)
    {
        return cli::parse(args, cmd, err);
    }
};

} // namespace

TEST(Flags, ParsesEveryKind)
{
    FlagTool t;
    std::string err;
    ASSERT_TRUE(t.parse({"app", "--jobs", "4", "0.25", "--quick", "--mode",
                         "pds", "--seed", "18446744073709551615", "--out",
                         "f.csv"},
                        err))
        << err;
    EXPECT_EQ(t.target, "app");
    EXPECT_EQ(t.jobs, 4u);
    EXPECT_DOUBLE_EQ(t.fraction, 0.25);
    EXPECT_TRUE(t.quick);
    EXPECT_EQ(t.mode, 2u);
    EXPECT_EQ(t.seed, ~std::uint64_t{0});
    EXPECT_EQ(t.out, "f.csv");
}

TEST(Flags, NumbersAndFractionsAreStrict)
{
    for (const char *bad : {"x", "", "-1", "+1", " 1", "1 ", "1x", "0x10",
                            "4294967296"}) {
        FlagTool t;
        std::string err;
        EXPECT_FALSE(t.parse({"app", "--jobs", bad}, err)) << bad;
        EXPECT_NE(err.find("--jobs: bad value"), std::string::npos) << err;
        EXPECT_EQ(t.jobs, 0u);
    }
    for (const char *bad : {"abc", "", "1.5", "+0.5", "0.5x", " 0.5",
                            "nan", "inf", "1e9"}) {
        FlagTool t;
        std::string err;
        EXPECT_FALSE(t.parse({"app", bad}, err)) << bad;
        EXPECT_NE(err.find("[fraction]: bad value"), std::string::npos)
            << err;
    }
    for (const char *good : {"0", "1", "0.6", ".5", "5e-1"}) {
        FlagTool t;
        std::string err;
        EXPECT_TRUE(t.parse({"app", good}, err)) << good << ": " << err;
    }
    double d = 0.5;
    EXPECT_FALSE(parseFraction("-0", d));
    EXPECT_FALSE(parseFraction("-0.5", d));
    EXPECT_EQ(d, 0.5);
    FlagTool t;
    std::string err;
    EXPECT_FALSE(t.parse({"app", "--seed", "0"}, err));
    EXPECT_NE(err.find("want >= 1"), std::string::npos) << err;
    EXPECT_FALSE(t.parse({"app", "--mode", "storm"}, err));
    EXPECT_NE(err.find("want wl|ir|pds"), std::string::npos) << err;
}

TEST(Flags, RejectsMissingUnknownRepeatedAndStray)
{
    struct Case
    {
        std::vector<std::string_view> args;
        const char *error;
    };
    const Case cases[] = {
        {{"app", "--jobs"}, "--jobs needs a value N"},
        {{"app", "--out", ""},
         "--out: bad value '' (want a non-empty value)"},
        {{"app", "--bogus"}, "unknown flag '--bogus'"},
        {{"app", "--jobs", "1", "--jobs", "2"}, "--jobs given twice"},
        {{"app", "--quick", "--quick"}, "--quick given twice"},
        {{"app", "0.5", "extra"}, "unexpected argument 'extra'"},
        {{"--quick"}, "missing <target>"},
        {{}, "missing <target>"},
    };
    for (const Case &c : cases) {
        FlagTool t;
        std::string err;
        EXPECT_FALSE(t.parse(c.args, err)) << c.error;
        EXPECT_EQ(err, c.error);
    }
}

TEST(Flags, RepeatableFlagCollectsEveryValue)
{
    FlagTool t;
    std::string err;
    ASSERT_TRUE(t.parse({"--category", "wpq", "app", "--category", "power"},
                        err))
        << err;
    EXPECT_EQ(t.categories, (std::vector<std::string>{"wpq", "power"}));
}

TEST(Flags, UsageListsEveryDeclaredFlag)
{
    FlagTool t;
    const cli::Command cmds[] = {
        {"run", "run one point", t.cmd.flags},
        {"list", "list the apps", {}},
    };
    std::string text = cli::usage("tool", cmds);
    EXPECT_EQ(text.rfind("usage: tool run <target> [fraction] [--out FILE]",
                         0),
              0u)
        << text;
    EXPECT_NE(text.find("\n       tool list\n"), std::string::npos) << text;
    EXPECT_NE(text.find("[--category C]..."), std::string::npos) << text;
    for (const auto &f : t.cmd.flags) {
        std::string line = std::string(f.name);
        if (f.name[0] == '-' && !f.metavar.empty())
            line += " " + f.metavar;
        EXPECT_NE(text.find("\n  " + line + " "), std::string::npos)
            << line << " missing from:\n"
            << text;
        EXPECT_NE(text.find(f.help), std::string::npos) << f.help;
    }
    EXPECT_NE(text.find("  run "), std::string::npos) << text;
    EXPECT_NE(text.find("\n  -h, --help "), std::string::npos) << text;
}

