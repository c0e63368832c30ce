/**
 * @file
 * The benchmark driver: one workload per process, points run serially on
 * one thread (a closed batch: the next point starts when the previous one
 * finishes), no memo, so every point really simulates.
 *
 *   lwsp_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *                  [--results DIR] [--spans FILE]
 *
 * The run first sets up several times: it builds the workload's shared
 * inputs and warms up on point 0 (setup_s is the median). It then runs
 * the point set a fixed number of passes, derived from --seconds and the
 * pass length measured on the reference host, so both sides of a
 * comparison do identical work.
 *
 * Host times are taken at the reference host's speed. On a shared host
 * the same work runs up to twice as long when neighbours are busy, in
 * stretches of seconds to minutes. So the speed gauge (measure.hh) runs
 * between consecutive points, and before and after each set-up, and each
 * sample is rescaled by the mean of the two gauge laps around it. Each
 * point's host time is then the median of its passes, which keeps the
 * gauge's own jitter out as well. wall_s sums those per-point times.
 * With --trace 1, odd passes record host spans around every layer call
 * and even passes stay untraced; the gap between the two sums is the
 * tracing overhead.
 *
 * Every point's outputs are checked (see suites.hh), and every pass must
 * reproduce the first pass's digests exactly. The last line of stdout is
 * one JSON object: correct, attempted, failed and the metrics: every
 * end-to-end metric without tracing, every per-layer metric with it.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "measure.hh"
#include "probes.hh"
#include "spans.hh"
#include "suites.hh"

using namespace perfbench;

namespace {

/**
 * Host seconds one untraced pass and its set-up take on the reference
 * host, so that a run of --seconds S takes about S seconds there.
 */
double
nominalPassSeconds(const std::string &workload)
{
    if (workload == "paper-apps")
        return 4.4;
    if (workload == "scaleout")
        return 2.9;
    return 0.75;
}

struct Args
{
    std::string workload;
    Options opt;
    double seconds = 30;
    bool trace = false;
    std::string spansPath;
};

[[noreturn]] void
usage(const char *prog)
{
    std::cerr << "usage: " << prog
              << " --workload paper-apps|scaleout|serve-crash [--seed N]"
                 " [--seconds S] [--trace 0|1] [--results DIR]"
                 " [--spans FILE]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.opt.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v != "0";
        else if (k == "--results")
            a.opt.resultsDir = v;
        else if (k == "--spans")
            a.spansPath = v;
        else
            usage(argv[0]);
    }
    if (a.workload.empty() || !(a.seconds > 0))
        usage(argv[0]);
    return a;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Median over passes of one layer's per-pass self seconds. */
double
layerMedian(const std::vector<std::map<std::string, double>> &passes,
            const std::string &layer)
{
    lwsp::stats::Percentiles v;
    for (const auto &p : passes) {
        auto it = p.find(layer);
        v.sample(it == p.end() ? 0.0 : it->second);
    }
    return v.p50();
}

/** Median of @p samples: a point's or a set-up's host seconds. */
double
median(const std::vector<double> &samples)
{
    lwsp::stats::Percentiles p;
    for (double s : samples)
        p.sample(s);
    return p.p50();
}

/** Each point's host seconds, in point order. */
std::vector<double>
pointSeconds(const std::vector<std::vector<double>> &perPoint)
{
    std::vector<double> out;
    for (const auto &samples : perPoint)
        out.push_back(median(samples));
    return out;
}

/**
 * Points left beyond point_s_tail. A workload has 9 to 24 points, so
 * leaving ten beyond would rank the tail at or below the median on two of
 * the three; the tail is the slowest point instead.
 */
constexpr std::size_t kTailBeyond = 0;

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    lwsp::setLogQuiet(true);
#ifdef __GLIBC__
    // Pin glibc's adaptive mmap/trim thresholds. They follow the
    // allocation history, which differs by seed, and can flip large
    // buffers (the per-MC DRAM-cache tag arrays) between reuse and a
    // fresh map per System: up to 3x the page faults for the same work.
    mallopt(M_MMAP_THRESHOLD, 1 << 30);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
#endif
    std::unique_ptr<Suite> suite = makeSuite(args.workload);
    if (!suite) {
        std::cerr << "unknown workload '" << args.workload << "'\n";
        return 2;
    }
    SpanRecorder &rec = recorder();
    lwsp::stats::Percentiles gaugeLaps;
    auto gauge = [&]() {
        double lap = gaugeSeconds();
        gaugeLaps.sample(lap);
        return lap;
    };

    // ---- set-up: shared inputs plus an untimed warm-up of point 0 (so
    // code pages and allocator arenas are warm). Repeated before every
    // pass and after the last; like a point, set-up counts at the median
    // of its repetitions, at the reference host's speed.
    std::vector<double> setupSecs;
    std::vector<std::map<std::string, double>> setupLayers;
    auto setUp = [&]() {
        rec.enable(args.trace);
        std::size_t from = rec.size();
        const double before = gauge();
        double t0 = hostSeconds();
        try {
            Span s("setup");
            suite->setup(args.opt);
            suite->run(0, nullptr);
        } catch (const std::exception &e) {
            std::cerr << "set-up failed: " << e.what() << '\n';
            return false;
        }
        const double dt = hostSeconds() - t0;
        setupSecs.push_back(
            atReferenceSpeed(dt, (before + gauge()) / 2));
        setupLayers.push_back(rec.selfSeconds(from, rec.size()));
        return true;
    };

    // ---- timed passes over the point set ---------------------------------
    unsigned passes = static_cast<unsigned>(std::max(
        3L, std::lround(args.seconds / nominalPassSeconds(args.workload))));
    if (args.trace)
        passes = std::max(passes, 4u);

    const std::size_t n = suite->size();
    std::vector<std::uint64_t> firstDigest(n, 0);
    std::vector<double> passWalls;
    std::vector<std::vector<double>> untracedPt(n), tracedPt(n);
    std::vector<std::map<std::string, double>> tracedLayers;
    LayerCounts counts;
    double passCycles = 0, passInsts = 0;
    std::uint64_t attempted = 0, failed = 0;
    std::uint64_t workloadDigest = 0;

    for (unsigned p = 0; p < passes; ++p) {
        if (!setUp())
            return 1;
        const bool traced = args.trace && p % 2 == 1;
        rec.enable(traced);
        LayerCounts passCounts;
        std::size_t from = rec.size();
        double cycles = 0, insts = 0;
        std::uint64_t digest = fnv1a(args.workload);
        const double t0 = hostSeconds();
        double before = gauge();
        for (std::size_t i = 0; i < n; ++i) {
            double pt0 = hostSeconds();
            PointResult res;
            {
                Span s("point", static_cast<int>(i));
                try {
                    res = suite->run(i, traced ? &passCounts : nullptr);
                } catch (const std::exception &e) {
                    res.error = std::string("threw: ") + e.what();
                }
            }
            double dt = hostSeconds() - pt0;
            const double after = gauge();
            (traced ? tracedPt : untracedPt)[i].push_back(
                atReferenceSpeed(dt, (before + after) / 2));
            before = after;
            ++attempted;
            if (p == 0)
                firstDigest[i] = res.digest;
            else if (res.error.empty() && res.digest != firstDigest[i])
                res.error = "digest " + hex64(res.digest) +
                            " differs from pass 0's " +
                            hex64(firstDigest[i]);
            if (!res.error.empty()) {
                ++failed;
                std::cout << "FAIL " << args.workload << " pass " << p
                          << " point " << suite->pointName(i) << ": "
                          << res.error << '\n';
            }
            cycles += res.cycles;
            insts += res.insts;
            digest = fnv1a(hex64(res.digest), digest);
        }
        if (traced) {
            tracedLayers.push_back(rec.selfSeconds(from, rec.size()));
            counts = passCounts;
        } else {
            passWalls.push_back(hostSeconds() - t0);
        }
        passCycles = cycles;
        passInsts = insts;
        workloadDigest = digest;
    }
    if (!setUp())
        return 1;
    rec.enable(false);

    // ---- report ----------------------------------------------------------
    const std::vector<double> pointSecs = pointSeconds(untracedPt);
    const double wall =
        std::accumulate(pointSecs.begin(), pointSecs.end(), 0.0);
    // point_s_p50 ranks every untraced point run, not one value per
    // point: the median point alone moved 11-21% from run to run, the
    // median of all runs 3-6%.
    lwsp::stats::Percentiles pointDist;
    for (const auto &samples : untracedPt) {
        for (double s : samples)
            pointDist.sample(s);
    }
    const Tail tail = tailPercentile(pointSecs, kTailBeyond);
    std::map<std::string, double> outcomes = suite->outcomes();

    std::cout << "workload " << args.workload << " seed " << args.opt.seed
              << ": " << n << " points x " << passes << " passes"
              << (args.trace ? " (odd passes traced)" : "") << '\n';
    std::cout << "digest " << args.workload << ' ' << hex64(workloadDigest)
              << '\n';
    std::cout << "point_s_p50 is the median of n=" << pointDist.count()
              << " untraced point runs\n";
    std::cout << "point_s_tail is p" << std::fixed << std::setprecision(1)
              << tail.percentile << " (rank " << tail.rank << " of n="
              << tail.n
              << " points, each at the median of its untraced passes)\n"
              << std::defaultfloat;
    std::cout << "speed gauge laps (ms): fastest "
              << std::setprecision(4) << 1e3 * gaugeLaps.percentile(0)
              << ", median " << 1e3 * gaugeLaps.p50() << ", slowest "
              << 1e3 * gaugeLaps.percentile(1) << " (reference "
              << 1e3 * kGaugeRefSeconds << ")\n";
    std::cout << "set-up reps (s at reference speed):";
    for (double s : setupSecs)
        std::cout << ' ' << std::setprecision(4) << s;
    std::cout << "\npass walls (s, as measured):";
    for (double w : passWalls)
        std::cout << ' ' << std::setprecision(4) << w;
    std::cout << '\n';
    for (const auto &[k, v] : outcomes)
        std::cout << "outcome " << k << ' ' << std::setprecision(10) << v
                  << '\n';
    for (std::size_t i = 0; i < n; ++i) {
        std::cout << "point " << suite->pointName(i)
                  << " (s at reference speed):";
        for (double s : untracedPt[i])
            std::cout << ' ' << std::setprecision(4) << s;
        std::cout << '\n';
    }

    std::vector<std::pair<std::string, std::pair<double, const char *>>> m;
    if (!args.trace) {
        m = {
            {"wall_s", {wall, "s"}},
            {"setup_s", {median(setupSecs), "s"}},
            {"sim_cycles_per_s", {ratio(passCycles, wall), "cycles/s"}},
            {"sim_insts_per_s", {ratio(passInsts, wall), "insts/s"}},
            {"point_s_p50", {pointDist.p50(), "s"}},
            {"point_s_tail", {tail.value, "s"}},
            {"peak_rss_mb", {peakRssMb(), "MB"}},
        };
    } else {
        auto layer = [&](const char *name) {
            return layerMedian(tracedLayers, name);
        };
        auto outcome = [&](const char *name) {
            auto it = outcomes.find(name);
            return it == outcomes.end() ? 0.0 : it->second;
        };
        const LayerCounts &c = counts;
        const std::vector<double> tracedSecs = pointSeconds(tracedPt);
        m = {
            {"workloads.generate_s", {layer("workloads.generate"), "s"}},
            {"compiler.compile_s", {layer("compiler.compile"), "s"}},
            {"compiler.output_insts", {c.compileOutputInsts, "count"}},
            {"compiler.boundaries", {c.compileBoundaries, "count"}},
            {"compiler.fixpoint_iters", {c.compileFixpointIters, "count"}},
            {"core.construct_s", {layer("core.construct"), "s"}},
            {"core.run_s", {layer("core.run"), "s"}},
            {"core.host_ns_per_cycle",
             {ratio(layer("core.run") * 1e9, c.runCycles), "ns"}},
            {"core.crash_s", {layer("core.crash"), "s"}},
            {"core.recover_s", {layer("core.recover"), "s"}},
            {"core.probe_s", {layer("core.probe"), "s"}},
            {"core.recoveries", {c.recoveries, "count"}},
            {"core.recoveries_degraded", {c.recoveriesDegraded, "count"}},
            {"cpu.insts", {c.cpuInsts, "count"}},
            {"cpu.boundary_wait_cycles", {c.boundaryWaitCycles, "cycles"}},
            {"cpu.buffer_full_cycles", {c.bufferFullCycles, "cycles"}},
            {"mem.l1_accesses", {c.l1Hits + c.l1Misses, "count"}},
            {"mem.l1_miss_rate",
             {ratio(c.l1Misses, c.l1Hits + c.l1Misses), "ratio"}},
            {"mem.cache_access_ns", {cacheAccessNs(args.opt.seed), "ns"}},
            {"mem.wpq_pushes", {c.wpqPushes, "count"}},
            {"mem.wpq_searches", {c.wpqSearches, "count"}},
            {"mem.wpq_search_hit_ratio",
             {ratio(c.wpqSearchHits, c.wpqSearches), "ratio"}},
            {"mem.fallback_flushes", {c.fallbackFlushes, "count"}},
            {"mem.max_wpq_occupancy", {c.maxWpqOccupancy, "entries"}},
            {"mem.wpq_op_ns", {wpqOpNs(args.opt.seed), "ns"}},
            {"noc.messages", {c.nocMessages, "count"}},
            {"noc.msgs_per_boundary",
             {ratio(c.nocMessages, c.nocBoundaries), "ratio"}},
            {"noc.bcast_retries", {c.bcastRetries, "count"}},
            {"pds.oracle_s", {layer("pds.oracle"), "s"}},
            {"pds.oracle_checks", {c.oracleChecks, "count"}},
            {"serve.build_s", {layerMedian(setupLayers, "serve.build"), "s"}},
            {"serve.marks_s", {layer("serve.marks"), "s"}},
            {"serve.fold_s", {layer("serve.fold"), "s"}},
            {"trace.events", {c.traceEvents, "count"}},
            {"trace.overhead_s",
             {std::accumulate(tracedSecs.begin(), tracedSecs.end(), 0.0) -
                  wall,
              "s"}},
            {"fault.failures_fired", {c.failuresFired, "count"}},
            {"fault.boots", {c.boots, "count"}},
            {"driver.point_self_s", {layer("point"), "s"}},
            {"sim_slowdown", {outcome("sim_slowdown"), "x"}},
            {"sim_bcast_lat", {outcome("sim_bcast_lat"), "cycles"}},
            {"sim_p99_cycles", {outcome("sim_p99_cycles"), "cycles"}},
            {"sim_mttr_cycles", {outcome("sim_mttr_cycles"), "cycles"}},
        };
    }
    for (const auto &[k, v] : m)
        std::cout << std::left << std::setw(26) << k << ' '
                  << std::setprecision(6) << v.first << ' ' << v.second
                  << '\n';
    std::cout << "failed_frac " << ratio(static_cast<double>(failed),
                                         static_cast<double>(attempted))
              << " (" << failed << " of " << attempted << " point runs)\n";

    if (args.trace && !args.spansPath.empty()) {
        std::ofstream spans(args.spansPath);
        rec.writeJsonLines(spans);
        std::cout << "spans written to " << args.spansPath << '\n';
    }

    std::ostringstream js;
    js << std::setprecision(17) << "{\"correct\": "
       << (failed == 0 ? "true" : "false") << ", \"attempted\": "
       << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < m.size(); ++i)
        js << (i ? ", " : "") << '"' << m[i].first << "\": {\"value\": "
           << m[i].second.first << ", \"unit\": \"" << m[i].second.second
           << "\"}";
    js << "}}";
    std::cout << js.str() << std::endl;
    return failed == 0 ? 0 : 1;
}
