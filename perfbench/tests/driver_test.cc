/**
 * @file
 * Tests of the benchmark driver's own logic: percentile and tail
 * selection, reference-row matching, digest stability and seed plumbing.
 */

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "measure.hh"
#include "reference.hh"
#include "spans.hh"
#include "suites.hh"

using namespace perfbench;

namespace {

std::vector<double>
iota(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i > 0; --i)  // unsorted on purpose
        v.push_back(static_cast<double>(i));
    return v;
}

/** Index of the point named @p name in @p suite. */
std::size_t
pointIndex(const Suite &suite, const std::string &name)
{
    for (std::size_t i = 0; i < suite.size(); ++i) {
        if (suite.pointName(i) == name)
            return i;
    }
    ADD_FAILURE() << "no point " << name;
    return 0;
}

const char *const kServeRow = "flat/8/serve/varnish";

} // namespace

TEST(Measure, TailLeavesTenBeyond)
{
    Tail t = tailPercentile(iota(72), 10);
    EXPECT_EQ(t.n, 72u);
    EXPECT_EQ(t.rank, 62u);
    EXPECT_EQ(t.value, 62);
    EXPECT_NEAR(t.percentile, 100.0 * 62 / 72, 1e-12);
    // Exactly ten samples lie beyond the reported one.
    std::vector<double> v = iota(72);
    EXPECT_EQ(std::count_if(v.begin(), v.end(),
                            [&](double x) { return x > t.value; }),
              10);

    // The reported sample agrees with stats::Percentiles at its percentile.
    lwsp::stats::Percentiles p;
    for (double x : v)
        p.sample(x);
    EXPECT_EQ(p.percentile(0.86), t.value);  // ceil(61.92) = rank 62

    Tail small = tailPercentile(iota(11), 10);
    EXPECT_EQ(small.rank, 1u);
    EXPECT_EQ(small.value, 1);
    Tail tiny = tailPercentile(iota(4), 10);  // too few: clamp to rank 1
    EXPECT_EQ(tiny.rank, 1u);
    EXPECT_EQ(tailPercentile({}, 10).n, 0u);
}

TEST(Measure, TailWithNoneBeyondIsTheSlowestPoint)
{
    // What point_s_tail reports: the slowest of 9 points, p100 of n=9.
    Tail t = tailPercentile(iota(9), 0);
    EXPECT_EQ(t.rank, 9u);
    EXPECT_EQ(t.value, 9);
    EXPECT_EQ(t.percentile, 100.0);
    EXPECT_EQ(t.n, 9u);
}

TEST(Measure, GaugeRescalesToReferenceSpeed)
{
    EXPECT_GT(gaugeSeconds(), 0.0);
    // A host at the reference speed keeps its seconds; one twice as slow
    // (a gauge lap twice as long) has them halved.
    EXPECT_DOUBLE_EQ(atReferenceSpeed(1.5, kGaugeRefSeconds), 1.5);
    EXPECT_DOUBLE_EQ(atReferenceSpeed(1.5, 2 * kGaugeRefSeconds), 0.75);
    EXPECT_DOUBLE_EQ(atReferenceSpeed(1.5, 0.0), 1.5);  // no reading
}

TEST(Measure, DigestIsChainable)
{
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ull);
    EXPECT_NE(fnv1a("a"), fnv1a("b"));
    EXPECT_NE(fnv1a("b", fnv1a("a")), fnv1a("a", fnv1a("b")));
    EXPECT_EQ(hex64(0xabc), "0x0000000000000abc");
}

TEST(Spans, SelfTimeSubtractsChildren)
{
    SpanRecorder &rec = recorder();
    rec.enable(true);
    std::size_t from = rec.size();
    {
        Span outer("outer");
        Span inner("inner");
    }
    rec.enable(false);
    auto self = rec.selfSeconds(from, rec.size());
    const auto &r = rec.records();
    double outer = (r[from].endNs - r[from].startNs) * 1e-9;
    double inner = (r[from + 1].endNs - r[from + 1].startNs) * 1e-9;
    EXPECT_EQ(r[from + 1].parent, static_cast<int>(from));
    EXPECT_NEAR(self["outer"], outer - inner, 1e-12);
    EXPECT_NEAR(self["inner"], inner, 1e-12);

    std::size_t before = rec.size();
    { Span off("off"); }  // recording disabled: nothing kept
    EXPECT_EQ(rec.size(), before);
}

TEST(Reference, RowAndCellMatching)
{
    ReferenceTable t = ReferenceTable::parse(
        "t.csv", "name,a,b\nx,1,2.5\ny,3,0.1234567891\n");
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.checkRow("x,1,2.5"), "");
    EXPECT_NE(t.checkRow("x,1,2.50"), "");  // text, not value, must match
    EXPECT_NE(t.checkRow("z,1,2.5"), "");
    EXPECT_EQ(t.checkCell("y", "b", csvNumber(0.12345678912)), "");
    EXPECT_NE(t.checkCell("y", "b", csvNumber(0.1234567895)), "");
    EXPECT_NE(t.checkCell("y", "c", "3"), "");
    EXPECT_EQ(csvNumber(17), "17");
    EXPECT_EQ(csvNumber(1.0 / 3), "0.3333333333");
}

TEST(Reference, CommittedRowMatchesAndPerturbedRowFails)
{
    namespace fs = std::filesystem;
    auto suite = makeSuite("scaleout");
    Options opt;
    opt.resultsDir = PERFBENCH_RESULTS_DIR;
    suite->setup(opt);
    std::size_t i = pointIndex(*suite, kServeRow);
    EXPECT_EQ(suite->run(i, nullptr).error, "");

    // The same reference with the row's cycles column changed by one.
    std::ifstream in(std::string(PERFBENCH_RESULTS_DIR) +
                     "/fig23_scaleout.csv");
    std::ostringstream text;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(std::string(kServeRow) + ",", 0) == 0) {
            auto cells = splitCsv(line);
            cells[5] = std::to_string(std::stoull(cells[5]) + 1);
            line.clear();
            for (std::size_t c = 0; c < cells.size(); ++c)
                line += (c ? "," : "") + cells[c];
        }
        text << line << '\n';
    }
    fs::path dir = fs::current_path() / "perfbench_test_results";
    fs::create_directories(dir);
    std::ofstream(dir / "fig23_scaleout.csv") << text.str();

    opt.resultsDir = dir.string();
    suite->setup(opt);
    std::string err = suite->run(i, nullptr).error;
    EXPECT_NE(err.find(kServeRow), std::string::npos) << err;
    fs::remove_all(dir);
}

TEST(Suites, DigestStableAcrossRuns)
{
    Options opt;
    opt.resultsDir = PERFBENCH_RESULTS_DIR;
    auto a = makeSuite("scaleout");
    auto b = makeSuite("scaleout");
    a->setup(opt);
    b->setup(opt);
    std::size_t i = pointIndex(*a, kServeRow);
    LayerCounts counts;
    PointResult first = a->run(i, nullptr);
    PointResult again = a->run(i, &counts);  // tracing must not perturb
    PointResult other = b->run(i, nullptr);
    EXPECT_NE(first.digest, 0u);
    EXPECT_EQ(first.digest, again.digest);
    EXPECT_EQ(first.digest, other.digest);
    EXPECT_GT(counts.nocMessages, 0);
}

TEST(Suites, SeedChangesTapeAndSkipsReference)
{
    EXPECT_EQ(deriveSeed(kDefaultSeed, 1, 11), 11u);
    EXPECT_NE(deriveSeed(5, 1, 11), deriveSeed(6, 1, 11));
    EXPECT_NE(deriveSeed(5, 1, 11), deriveSeed(5, 2, 11));

    Options def;
    def.resultsDir = PERFBENCH_RESULTS_DIR;
    Options other;
    other.seed = 5;
    other.resultsDir = "no-such-dir";  // never read off the default seed
    auto a = makeSuite("serve-crash");
    auto b = makeSuite("serve-crash");
    a->setup(def);
    b->setup(other);
    std::size_t i = pointIndex(*a, "storm/varnish/lightwsp");
    PointResult ra = a->run(i, nullptr);
    PointResult rb = b->run(i, nullptr);
    EXPECT_EQ(ra.error, "");
    EXPECT_EQ(rb.error, "");
    EXPECT_NE(ra.digest, rb.digest);

    // The default seed does read the reference tables.
    def.resultsDir = "no-such-dir";
    EXPECT_ANY_THROW(a->setup(def));
}

TEST(Suites, NamesResolve)
{
    for (const char *name : {"paper-apps", "scaleout", "serve-crash"}) {
        auto s = makeSuite(name);
        ASSERT_NE(s, nullptr) << name;
        EXPECT_GT(s->size(), 0u);
    }
    EXPECT_EQ(makeSuite("nope"), nullptr);
}
