/**
 * @file
 * Telemetry subsystem tests: binary round-trip, Perfetto JSON schema
 * validation (with a small self-contained JSON parser), category
 * filtering at both the sink and exporter layers, ring-buffer wrap,
 * golden/deterministic traces on a tiny workload, the zero-overhead
 * A/B contract (tracing off leaves cycle counts untouched — and
 * tracing ON does too, since the sink is off the timed path), the
 * fuzz-replay trace/oracle cross-check and the stats registry's JSON
 * dump.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "compiler/compiler.hh"
#include "core/system.hh"
#include "fuzz/campaign.hh"
#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "result_eq.hh"
#include "trace/export.hh"
#include "trace/sink.hh"
#include "workloads/generator.hh"

using namespace lwsp;
using namespace lwsp::trace;

namespace {

// ---- Minimal JSON syntax checker ------------------------------------------
// Recursive-descent validator for the exporters' output: verifies the
// document is one complete, well-formed JSON value (objects, arrays,
// strings with escapes, numbers, literals) with nothing trailing.

class JsonChecker
{
  public:
    explicit JsonChecker(std::string s) : s_(std::move(s)) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return i_ == s_.size();
    }

  private:
    void
    skipWs()
    {
        while (i_ < s_.size() &&
               (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
                s_[i_] == '\r')) {
            ++i_;
        }
    }

    bool
    lit(const char *word)
    {
        std::size_t n = std::string(word).size();
        if (s_.compare(i_, n, word) != 0)
            return false;
        i_ += n;
        return true;
    }

    bool
    string()
    {
        if (i_ >= s_.size() || s_[i_] != '"')
            return false;
        ++i_;
        while (i_ < s_.size() && s_[i_] != '"') {
            if (s_[i_] == '\\') {
                ++i_;
                if (i_ >= s_.size())
                    return false;
            }
            ++i_;
        }
        if (i_ >= s_.size())
            return false;
        ++i_; // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = i_;
        if (i_ < s_.size() && s_[i_] == '-')
            ++i_;
        while (i_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
                s_[i_] == '+' || s_[i_] == '-')) {
            ++i_;
        }
        return i_ > start;
    }

    bool
    object()
    {
        ++i_; // '{'
        skipWs();
        if (i_ < s_.size() && s_[i_] == '}') {
            ++i_;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (i_ >= s_.size() || s_[i_] != ':')
                return false;
            ++i_;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (i_ < s_.size() && s_[i_] == ',') {
                ++i_;
                continue;
            }
            break;
        }
        if (i_ >= s_.size() || s_[i_] != '}')
            return false;
        ++i_;
        return true;
    }

    bool
    array()
    {
        ++i_; // '['
        skipWs();
        if (i_ < s_.size() && s_[i_] == ']') {
            ++i_;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (i_ < s_.size() && s_[i_] == ',') {
                ++i_;
                continue;
            }
            break;
        }
        if (i_ >= s_.size() || s_[i_] != ']')
            return false;
        ++i_;
        return true;
    }

    bool
    value()
    {
        if (i_ >= s_.size())
            return false;
        char c = s_[i_];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't')
            return lit("true");
        if (c == 'f')
            return lit("false");
        if (c == 'n')
            return lit("null");
        return number();
    }

    std::string s_;
    std::size_t i_ = 0;
};

std::vector<Event>
syntheticEvents()
{
    std::vector<Event> ev;
    ev.push_back({0, EventType::RegionBegin, 0, 0, 1, 0, 0, 0});
    ev.push_back({10, EventType::WpqEnqueue, 1, 2, 3, 0xdeadbeef,
                  0x1122334455667788ull, 7});
    ev.push_back({11, EventType::WpqRelease, 1, 0, 3, 0x40, 9,
                  packReleaseAux(12, 3)});
    ev.push_back({20, EventType::RegionClose, 2, 5, 4, 0, 0, 100});
    ev.push_back({25, EventType::BoundaryAck, 0, 0, 4, 0, 0, 1});
    ev.push_back({30, EventType::CacheWriteback, -1, 0, invalidRegion,
                  0xffff'ffff'ffff'ffc0ull, 0, 0});
    ev.push_back({90, EventType::PowerFailure, -1, 0, 0, 0, 0, 2});
    ev.push_back({91, EventType::CtxSwitch, 3, 9, 0, 0, 0, 4});
    return ev;
}

/** A tiny deterministic profile (mirrors test_system.cc's). */
workloads::WorkloadProfile
tinyProfile(unsigned threads)
{
    workloads::WorkloadProfile p;
    p.name = "tiny-trace";
    p.suite = "TEST";
    p.threads = threads;
    p.footprintBytes = 64 * 1024;
    p.hotBytes = 8 * 1024;
    p.locality = 0.7;
    p.branchMissRate = 0.0;
    workloads::PhaseSpec ph;
    ph.loads = 2;
    ph.stores = 2;
    ph.alus = 4;
    ph.trip = 64;
    ph.reps = 2;
    ph.pattern = workloads::PhaseSpec::Pattern::Random;
    p.phases.push_back(ph);
    return p;
}

struct TracedRun
{
    core::RunResult result;
    std::vector<Event> events;
};

TracedRun
runTiny(unsigned threads, bool traced,
        std::uint32_t mask = allCategories)
{
    setLogQuiet(true);
    auto prof = tinyProfile(threads);
    auto w = workloads::generate(prof);
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.traceEnabled = traced;
    cfg.traceMask = mask;
    cfg.applySchemeDefaults();
    core::System sys(cfg, prog, threads);
    TracedRun out;
    out.result = sys.run();
    if (const auto *sink = sys.traceSink())
        out.events = sink->snapshot();
    return out;
}

bool
sameEvent(const Event &a, const Event &b)
{
    return a.tick == b.tick && a.type == b.type && a.unit == b.unit &&
           a.thread == b.thread && a.region == b.region &&
           a.addr == b.addr && a.value == b.value && a.aux == b.aux;
}

} // namespace

// ---- Binary format ---------------------------------------------------------

TEST(TraceBinary, RoundTripPreservesEveryField)
{
    auto ev = syntheticEvents();
    std::stringstream ss;
    ASSERT_TRUE(writeBinary(ss, ev));

    std::vector<Event> back;
    std::string err;
    ASSERT_TRUE(readBinary(ss, back, err)) << err;
    ASSERT_EQ(back.size(), ev.size());
    for (std::size_t i = 0; i < ev.size(); ++i)
        EXPECT_TRUE(sameEvent(ev[i], back[i])) << "event " << i;

    // The packed aux survives intact.
    EXPECT_EQ(releaseKind(back[2].aux), 3);
    EXPECT_EQ(releaseOccupancy(back[2].aux), 12u);
}

TEST(TraceBinary, RejectsBadMagicAndTruncation)
{
    auto ev = syntheticEvents();
    std::stringstream ss;
    ASSERT_TRUE(writeBinary(ss, ev));
    std::string bytes = ss.str();

    std::vector<Event> out;
    std::string err;

    std::string corrupt = bytes;
    corrupt[0] = 'X';
    std::stringstream c1(corrupt);
    EXPECT_FALSE(readBinary(c1, out, err));
    EXPECT_FALSE(err.empty());

    std::stringstream c2(bytes.substr(0, bytes.size() - 13));
    EXPECT_FALSE(readBinary(c2, out, err));
    EXPECT_FALSE(err.empty());
}

TEST(TraceBinary, FileRoundTrip)
{
    auto ev = syntheticEvents();
    std::string path = testing::TempDir() + "lwsp_trace_rt.trc";
    ASSERT_TRUE(writeBinaryFile(path, ev));
    std::vector<Event> back;
    std::string err;
    ASSERT_TRUE(readBinaryFile(path, back, err)) << err;
    ASSERT_EQ(back.size(), ev.size());
    for (std::size_t i = 0; i < ev.size(); ++i)
        EXPECT_TRUE(sameEvent(ev[i], back[i]));
    std::remove(path.c_str());
}

// ---- Sink ------------------------------------------------------------------

TEST(TraceSinkTest, RingWrapKeepsNewestOldestFirst)
{
    TraceSink sink(8);
    for (Tick t = 0; t < 20; ++t)
        sink.emit({t, EventType::RegionBegin, 0, 0, 1, 0, 0, 0});
    EXPECT_TRUE(sink.wrapped());
    EXPECT_EQ(sink.emitted(), 20u);
    EXPECT_EQ(sink.size(), 8u);
    auto snap = sink.snapshot();
    ASSERT_EQ(snap.size(), 8u);
    for (std::size_t i = 0; i < snap.size(); ++i)
        EXPECT_EQ(snap[i].tick, static_cast<Tick>(12 + i));
}

TEST(TraceSinkTest, RuntimeMaskFiltersCategories)
{
    TraceSink sink(64, categoryBit(Category::Region));
    sink.emit({1, EventType::RegionBegin, 0, 0, 1, 0, 0, 0});
    sink.emit({2, EventType::WpqEnqueue, 0, 0, 1, 0, 0, 0});
    sink.emit({3, EventType::PowerFailure, -1, 0, 0, 0, 0, 0});
    sink.emit({4, EventType::RegionClose, 0, 0, 1, 0, 0, 0});
    auto snap = sink.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].type, EventType::RegionBegin);
    EXPECT_EQ(snap[1].type, EventType::RegionClose);
}

TEST(TraceSinkTest, FilterByMaskOnVectors)
{
    auto ev = syntheticEvents();
    auto wpq = filterByMask(ev, categoryBit(Category::Wpq));
    ASSERT_EQ(wpq.size(), 2u);
    EXPECT_EQ(wpq[0].type, EventType::WpqEnqueue);
    EXPECT_EQ(wpq[1].type, EventType::WpqRelease);

    auto both = filterByMask(ev, categoryBit(Category::Wpq) |
                                     categoryBit(Category::Power));
    EXPECT_EQ(both.size(), 3u);
    EXPECT_TRUE(filterByMask(ev, 0).empty());
}

TEST(TraceSinkTest, EmitIfIsNullSafe)
{
    // The hook-site helper must be callable with a null sink (the
    // tracing-off configuration) without any effect.
    emitIf(nullptr, {0, EventType::RegionBegin, 0, 0, 1, 0, 0, 0});
    TraceSink sink(4);
    emitIf(&sink, {0, EventType::RegionBegin, 0, 0, 1, 0, 0, 0});
    EXPECT_EQ(sink.emitted(), 1u);
}

// ---- Category names --------------------------------------------------------

TEST(TraceEvents, NamesAndParseRoundTrip)
{
    for (Category c :
         {Category::Region, Category::Boundary, Category::Wpq,
          Category::Cache, Category::Checkpoint, Category::Power,
          Category::Sched}) {
        EXPECT_EQ(parseCategory(categoryName(c)), categoryBit(c));
    }
    EXPECT_EQ(parseCategory("no-such-category"), 0u);
    for (std::uint8_t t = 0; t < numEventTypes; ++t) {
        const char *n = eventInfo(static_cast<EventType>(t)).name;
        ASSERT_NE(n, nullptr);
        EXPECT_GT(std::string(n).size(), 0u);
    }
}

// ---- Traced simulation -----------------------------------------------------

TEST(TraceSystem, TracedRunIsDeterministic)
{
    auto a = runTiny(2, true);
    auto b = runTiny(2, true);
    ASSERT_FALSE(a.events.empty());
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i)
        EXPECT_TRUE(sameEvent(a.events[i], b.events[i])) << "event " << i;
}

TEST(TraceSystem, GoldenTraceStructure)
{
    auto run = runTiny(1, true);
    const auto &ev = run.events;
    ASSERT_FALSE(ev.empty());

    // Chronological, starting with the initial region of thread 0.
    EXPECT_EQ(ev.front().type, EventType::RegionBegin);
    EXPECT_EQ(ev.front().tick, 0u);
    EXPECT_EQ(ev.front().thread, 0u);
    for (std::size_t i = 1; i < ev.size(); ++i)
        EXPECT_LE(ev[i - 1].tick, ev[i].tick) << "at event " << i;

    auto sum = summarize(ev);
    EXPECT_EQ(sum.events, ev.size());
    EXPECT_EQ(sum.numCores, 1u);

    // Every boundary that closed a region was broadcast, and begins can
    // exceed closes by at most the still-open region per thread.
    auto count = [&](EventType t) {
        return static_cast<std::uint64_t>(
            sum.perType[static_cast<std::uint8_t>(t)]);
    };
    EXPECT_EQ(count(EventType::RegionClose),
              count(EventType::BoundaryBcastSend));
    EXPECT_GE(count(EventType::RegionBegin), count(EventType::RegionClose));
    EXPECT_LE(count(EventType::RegionBegin),
              count(EventType::RegionClose) + 1);
    EXPECT_GT(count(EventType::WpqEnqueue), 0u);
    // Releases cover every enqueue on a completed run (drain finished).
    EXPECT_GE(count(EventType::WpqRelease), count(EventType::WpqEnqueue));

    // Region persists advance monotonically per MC.
    std::map<std::int32_t, RegionId> lastPersist;
    for (const auto &e : ev) {
        if (e.type != EventType::RegionPersist)
            continue;
        auto it = lastPersist.find(e.unit);
        if (it != lastPersist.end()) {
            EXPECT_GT(e.region, it->second);
        }
        lastPersist[e.unit] = e.region;
    }
    EXPECT_FALSE(lastPersist.empty());
}

TEST(TraceSystem, RuntimeMaskLimitsSystemTrace)
{
    auto all = runTiny(1, true);
    auto reg = runTiny(1, true, categoryBit(Category::Region));
    ASSERT_FALSE(reg.events.empty());
    for (const auto &e : reg.events)
        EXPECT_EQ(eventInfo(e.type).category, Category::Region);
    EXPECT_LT(reg.events.size(), all.events.size());
    EXPECT_EQ(reg.events.size(),
              filterByMask(all.events,
                           categoryBit(Category::Region)).size());
}

TEST(TraceSystem, TracingDoesNotPerturbTiming)
{
    // The acceptance contract: arming the sink must not change a single
    // cycle (the sink sits off the timed path), and tracing off must
    // behave identically to the pre-telemetry simulator.
    auto off = runTiny(2, false);
    auto on = runTiny(2, true);
    expectResultEq(off.result, on.result, "tracing off vs on");
    EXPECT_TRUE(off.events.empty());
    EXPECT_FALSE(on.events.empty());
}

// ---- Perfetto export -------------------------------------------------------

TEST(TracePerfetto, JsonIsWellFormedAndShaped)
{
    auto run = runTiny(2, true);
    std::ostringstream os;
    writePerfetto(os, run.events);
    std::string json = os.str();

    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json.substr(0, 400);

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    // Span pairs for regions and at least one counter track.
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("wpq_occupancy"), std::string::npos);

    // B/E balance per tid: depth never goes negative and ends at >= 0.
    std::map<std::string, long> depth;
    std::size_t pos = 0;
    while ((pos = json.find("\"ph\":\"", pos)) != std::string::npos) {
        char ph = json[pos + 6];
        std::size_t tid = json.find("\"tid\":", pos);
        std::size_t end = json.find_first_of(",}", tid + 6);
        std::string key = json.substr(tid + 6, end - tid - 6);
        if (ph == 'B')
            ++depth[key];
        else if (ph == 'E') {
            --depth[key];
            EXPECT_GE(depth[key], 0) << "unbalanced E on tid " << key;
        }
        ++pos;
    }
}

TEST(TracePerfetto, SyntheticEventsExportCleanly)
{
    std::ostringstream os;
    writePerfetto(os, syntheticEvents());
    JsonChecker checker(os.str());
    EXPECT_TRUE(checker.valid());

    std::ostringstream empty;
    writePerfetto(empty, {});
    JsonChecker emptyChecker(empty.str());
    EXPECT_TRUE(emptyChecker.valid());
}

// ---- Fuzz replay cross-check ----------------------------------------------

TEST(TraceFuzz, VictimTraceMatchesOracleCommitView)
{
    setLogQuiet(true);
    fuzz::CaseSpec spec;
    spec.source = fuzz::CaseSpec::Source::Workload;
    spec.seed = 3;
    spec.mode = fuzz::CrashMode::Single;
    spec.crashAt = 1500;

    fuzz::CampaignOptions opt;
    opt.captureTrace = true;
    auto res = fuzz::runCampaign(spec, opt);
    ASSERT_TRUE(res.passed) << res.failure;
    ASSERT_FALSE(res.victimTrace.empty());
    ASSERT_FALSE(res.victimLastCommit.empty());

    // The newest RegionPersist per MC in the trace must agree with the
    // LRPO oracle's committed-prefix view of the same run.
    std::map<std::int32_t, RegionId> lastPersist;
    for (const auto &e : res.victimTrace) {
        if (e.type == EventType::RegionPersist)
            lastPersist[e.unit] = e.region;
    }
    for (std::size_t mc = 0; mc < res.victimLastCommit.size(); ++mc) {
        auto it = lastPersist.find(static_cast<std::int32_t>(mc));
        RegionId traced = it == lastPersist.end() ? 0 : it->second;
        EXPECT_EQ(traced, res.victimLastCommit[mc]) << "mc " << mc;
    }

    // A mid-run crash leaves exactly one power-failure marker.
    auto sum = summarize(res.victimTrace);
    EXPECT_EQ(sum.perType[static_cast<std::uint8_t>(
                  EventType::PowerFailure)],
              1u);
}

// ---- Stats registry --------------------------------------------------------

TEST(TraceStats, RegistryJsonDumpIsValidAndComplete)
{
    setLogQuiet(true);
    auto prof = tinyProfile(2);
    auto w = workloads::generate(prof);
    compiler::LightWspCompiler comp;
    auto prog = comp.compile(std::move(w.module));
    core::SystemConfig cfg;
    cfg.scheme = core::Scheme::LightWsp;
    cfg.applySchemeDefaults();
    core::System sys(cfg, prog, 2);
    sys.run();

    stats::Registry reg;
    sys.registerStats(reg);
    EXPECT_GT(reg.numGroups(), 4u);

    std::ostringstream os;
    reg.dumpJson(os);
    std::string json = os.str();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json.substr(0, 400);

    for (const char *group : {"\"core0\"", "\"mc0\"", "\"mc0.wpq\"",
                              "\"noc\"", "\"system\""}) {
        EXPECT_NE(json.find(group), std::string::npos) << group;
    }
    EXPECT_NE(json.find("instsRetired"), std::string::npos);
    EXPECT_NE(json.find("wpqOccupancy"), std::string::npos);
    EXPECT_NE(json.find("bcastLatency"), std::string::npos);

    // Callback-backed stats agree with the component counters.
    EXPECT_EQ(reg.group("system").funcValue("cycles"),
              static_cast<double>(sys.now()));
}

// ---- Run reports -----------------------------------------------------------

TEST(TraceReport, RunReportJsonIsValidAndVersioned)
{
    setLogQuiet(true);
    harness::Runner runner;
    harness::SweepExecutor exec(1);
    harness::RunSpec spec;
    spec.workload = "rb";
    spec.scheme = core::Scheme::LightWsp;
    exec.runAll(runner, {spec});
    ASSERT_EQ(exec.runRecords().size(), 1u);

    // Second case: a point whose workload is not a paper profile (a
    // storm-driven service tape). Its stored key and label are printed
    // as-is, never resolved through the profile registry.
    std::vector<harness::RunRecord> records = exec.runRecords();
    harness::RunRecord storm{
        "varnish,sz=1,reqs=96/lightwsp/storm=x733+x2173+r",
        "varnish,sz=1,reqs=96", "lightwsp", {}};
    storm.outcome.recovered = true;
    storm.outcome.failuresSurvived = 3;
    records.push_back(storm);

    // Third case: a lossy 8-MC tree point, whose fabric counters must
    // reach the report as the run counted them.
    harness::RunSpec lossy = spec;
    lossy.numMcs = 8;
    lossy.topology = noc::TopologyConfig{noc::TopologyConfig::Kind::Tree, 4};
    const auto &profile = workloads::profileByName("rb");
    core::SystemConfig cfg = harness::makeConfig(profile, lossy);
    cfg.faults.enabled = true;
    cfg.faults.bcastLossPm = 100;
    auto prog = harness::prepareProgram(workloads::generate(profile), lossy);
    core::RunResult lossyResult = core::System(cfg, prog, 1).run();
    ASSERT_TRUE(lossyResult.completed);
    ASSERT_GT(lossyResult.bcastRetries, 0u) << "loss never fired";
    records.push_back(
        {"rb/lightwsp/tree4/mcs=8/loss100", "rb", "lightwsp", {}});
    records.back().outcome.result = lossyResult;

    std::string path = testing::TempDir() + "lwsp_run_report.json";
    harness::writeRunReports(path, "test", records, exec.totalStats());
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string json = ss.str();
    std::remove(path.c_str());

    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json.substr(0, 400);
    EXPECT_NE(json.find("\"schema\":\"lwsp-run-report-v1.3\""),
              std::string::npos);
    // v1.3: "result" carries every RunResult field, the fabric too.
    for (const char *key : {"noc_messages", "bcast_retries",
                            "bcast_latency_avg", "bcast_latency_max"})
        EXPECT_NE(json.find('"' + std::string(key) + "\":"),
                  std::string::npos) << key;
    std::size_t at = json.find("rb/lightwsp/tree4/mcs=8/loss100");
    ASSERT_NE(at, std::string::npos);
    EXPECT_NE(json.find("\"bcast_retries\":" +
                            std::to_string(lossyResult.bcastRetries) + ",",
                        at),
              std::string::npos);
    EXPECT_NE(json.find("\"workload\":\"rb\""), std::string::npos);
    EXPECT_NE(json.find("\"cycles\""), std::string::npos);
    EXPECT_NE(json.find("\"compile\""), std::string::npos);
    EXPECT_NE(json.find("\"cycles_percentiles\""), std::string::npos);
    EXPECT_NE(json.find("\"p999\""), std::string::npos);
    // v1.2: recovery lineage on every record ("none" for fresh boots).
    EXPECT_NE(json.find("\"recovery_outcome\":\"none\""),
              std::string::npos);
    EXPECT_NE(json.find("\"failures_survived\":0"), std::string::npos);
    EXPECT_NE(json.find("\"key\":\"varnish,sz=1,reqs=96/lightwsp/"
                        "storm=x733+x2173+r\",\"workload\":\"varnish,"
                        "sz=1,reqs=96\",\"scheme\":\"lightwsp\""),
              std::string::npos);
    EXPECT_NE(json.find("\"recovery_outcome\":\"recovered\""),
              std::string::npos);
    EXPECT_NE(json.find("\"failures_survived\":3"), std::string::npos);
}
