/**
 * @file
 * Figure 21 (extension): open-loop request-latency tails of the serve
 * subsystem — p50/p99/p999 per-request latency under every persistence
 * scheme, for both service profiles, across an arrival-rate x
 * burstiness grid.
 *
 * Only the (profile x scheme) grid is simulated — 10 traced runs with
 * ServeMark timestamping. Arrival times enter purely in the
 * LatencyRecorder::fold post-processing (Lindley recursion), so every
 * arrival-rate/burstiness cell reuses the same completion marks and the
 * CSV is byte-identical at any --jobs count; quick mode runs the
 * identical grid. Alongside the latency percentiles each row reports
 * boundary-stall cycles inside the p99 request's service time and the
 * max-over-MCs WPQ occupancy at its completion — the tail-attribution
 * view a service operator cares about (which ROADMAP item 1 asked for).
 */

#include "pds_point.hh"
#include "serve/serve.hh"
#include "trace/events.hh"

using namespace lwsp;

namespace {

constexpr serve::Profile kProfiles[] = {serve::Profile::Varnish,
                                        serve::Profile::Horde};
constexpr unsigned kMeanIas[] = {2000, 1000, 500};  ///< arrival rates
constexpr unsigned kBursts[] = {0, 2};              ///< none / heavy

/** One simulated (profile, scheme) point; arrival cells fold from it. */
struct SimPoint
{
    serve::Profile profile = serve::Profile::Varnish;
    pds::PdsScheme scheme = pds::PdsScheme::LightWsp;
    serve::ServeWorkload wl;
    serve::OpMarks marks;
};

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::Driver driver(args);

    std::vector<SimPoint> sims;
    for (auto prof : kProfiles) {
        for (auto s : pds::allSchemes)
            sims.push_back({prof, s, {}, {}});
    }

    driver.runPoints(sims.size(), [&](std::size_t i) {
        SimPoint &p = sims[i];
        p.wl = serve::buildWorkload({.profile = p.profile,
                                     .sizeClass = 1,
                                     .numRequests = 1200,
                                     .seed = 11});

        bench::PdsPoint pt = bench::pdsPoint(
            p.wl.pdsSpec, p.wl.ops, p.scheme, pds::PdsRunMode::Perf);
        pt.workload = p.wl.spec.toString();
        pt.cfg.traceEnabled = true;
        pt.cfg.traceMask = trace::categoryBit(trace::Category::Serve) |
                           trace::categoryBit(trace::Category::Wpq);
        // Must hold every Serve+Wpq event of the run: a wrapped ring
        // would silently drop early request marks (extractMarks panics).
        pt.cfg.traceBufferEvents = std::size_t(1) << 18;
        pt.cfg.core.serveMarkAddr = pt.served;

        core::System sys(pt.cfg, pt.prog, 1);
        harness::PointRun run = pt.checkedRun(sys, sys.run());
        p.marks = serve::LatencyRecorder::extractMarks(
            p.wl, sys.traceSink()->snapshot());
        return run;
    });

    // Fold the arrival grid (pure post-processing, deterministic). The
    // console table carries only the latency columns (strictly positive,
    // so the per-suite geomean rows are meaningful); the CSV adds the
    // tail-attribution columns, which can legitimately be 0 (pmtx has no
    // boundary stalls).
    harness::ResultTable table(
        "Fig 21: open-loop request latency tails (cycles), 1200 requests "
        "per profile, Zipf keys. Rows <profile>/<scheme>/ia=<mean "
        "inter-arrival>/b=<burst preset>");
    for (const char *c : {"p50", "p99", "p999", "max"})
        table.addColumn(c);
    for (const char *c : {"stall99", "wpq99"})
        table.addColumn(c, harness::Shown::CsvOnly);

    for (const SimPoint &p : sims) {
        for (unsigned ia : kMeanIas) {
            for (unsigned b : kBursts) {
                serve::ServeSpec aspec = p.wl.spec;
                aspec.meanIa = ia;
                aspec.burst = b;
                auto arr = serve::arrivalTimes(aspec);
                auto rep =
                    serve::LatencyRecorder::fold(p.wl, p.marks, arr);
                std::string name =
                    std::string(serve::profileName(p.profile)) + "/" +
                    pds::pdsSchemeName(p.scheme) + "/ia=" +
                    std::to_string(ia) + "/b=" + std::to_string(b);
                table.addRow(name, pds::pdsSchemeName(p.scheme),
                             {rep.p50, rep.p99, rep.p999, rep.max,
                              rep.stallAtP99, rep.wpqOccAtP99});
            }
        }
    }

    driver.finish(table);
    return 0;
}
