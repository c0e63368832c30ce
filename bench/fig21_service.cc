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

#include <iomanip>
#include <sstream>

#include "bench_util.hh"
#include "pds/pds.hh"
#include "serve/serve.hh"
#include "trace/events.hh"

using namespace lwsp;

namespace {

constexpr serve::Profile kProfiles[] = {serve::Profile::Varnish,
                                        serve::Profile::Horde};
constexpr unsigned kMeanIas[] = {2000, 1000, 500};  ///< arrival rates
constexpr unsigned kBursts[] = {0, 2};              ///< none / heavy

serve::ServeSpec
specFor(serve::Profile prof)
{
    serve::ServeSpec spec;
    spec.profile = prof;
    spec.sizeClass = 1;
    spec.numRequests = 1200;
    spec.seed = 11;
    return spec;
}

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
    harness::SweepExecutor exec(args.jobs);

    std::vector<SimPoint> sims;
    for (auto prof : kProfiles) {
        for (auto s : pds::allSchemes) {
            SimPoint p;
            p.profile = prof;
            p.scheme = s;
            sims.push_back(std::move(p));
        }
    }

    exec.runPoints(sims.size(), [&](std::size_t i) {
        SimPoint &p = sims[i];
        p.wl = serve::buildWorkload(specFor(p.profile));

        auto cfg = pds::makePdsConfig(p.scheme, pds::PdsRunMode::Perf);
        cfg.engine = harness::defaultSimEngine(); // honour --engine A/B
        cfg.traceEnabled = true;
        cfg.traceMask = trace::categoryBit(trace::Category::Serve) |
                        trace::categoryBit(trace::Category::Wpq);
        // Must hold every Serve+Wpq event of the run: a wrapped ring
        // would silently drop early request marks (extractMarks panics).
        cfg.traceBufferEvents = std::size_t(1) << 18;
        cfg.core.serveMarkAddr = pds::pdsGeometry(p.wl.pdsSpec).served;

        auto prog = pds::preparePdsProgram(p.wl.pdsSpec, p.wl.ops,
                                           p.scheme, pds::PdsRunMode::Perf);
        core::System sys(cfg, prog, 1);
        auto res = sys.run();
        LWSP_ASSERT(res.completed, "fig21 point did not complete: ",
                    p.wl.spec.toString(), " scheme ",
                    pds::pdsSchemeName(p.scheme));
        std::string err =
            pds::checkSemantics(p.wl.pdsSpec, p.wl.ops, sys.execImage());
        LWSP_ASSERT(err.empty(), "fig21 semantic check failed: ", err);
        p.marks = serve::LatencyRecorder::extractMarks(
            p.wl, sys.traceSink()->snapshot());
        std::string wl = p.wl.spec.toString();
        std::string scheme = pds::pdsSchemeName(p.scheme);
        return harness::PointRun{
            {wl + "/" + scheme, wl, scheme,
             bench::outcomeOf(sys, res, prog.stats)},
            res.cycles};
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

    std::ostringstream csvBody;
    csvBody << "workload,suite,p50,p99,p999,max,stall99,wpq99\n";
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
                             {rep.p50, rep.p99, rep.p999, rep.max});
                csvBody << name << ',' << pds::pdsSchemeName(p.scheme)
                        << ',' << std::setprecision(10) << rep.p50 << ','
                        << rep.p99 << ',' << rep.p999 << ',' << rep.max
                        << ',' << rep.stallAtP99 << ','
                        << rep.wpqOccAtP99 << '\n';
            }
        }
    }

    bench::finish(table, args, exec, true, csvBody.str());
    return 0;
}
