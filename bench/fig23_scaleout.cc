/**
 * @file
 * Figure 23 (extension): LRPO control-plane scale-out — boundary-ACK
 * latency, WPQ occupancy, fabric traffic and retry counts as the
 * machine grows from the paper's 2 iMCs to sharded 4/8/16/64-MC
 * topologies, flat fan-out vs radix-4 aggregation tree.
 *
 * Grid (quick mode runs the identical grid, so CI can byte-compare the
 * CSV against the committed reference): {flat, tree4} x {4, 8, 16, 64}
 * MCs x two workload rows — the fig16 8-thread point on the `rb`
 * profile, and a fig21-style open-loop service tape lowered onto the
 * pds hash table — x {fault-free, 10% per-link
 * broadcast loss}. Lossy rows run the router's ack/retry protocol at
 * scale; at 64 MCs they cross the word boundary that broke the old
 * single-uint64_t delivery mask (see common/bitset.hh).
 *
 * Reported per row: end-to-end cycles, region boundaries, the mean/max
 * boundary-arrival-to-full-ACK latency sampled at every MC, peak WPQ
 * occupancy, total control messages on the fabric (the O(MCs^2) flat vs
 * O(MCs) tree ablation) and router retry rounds. Rows are independent
 * simulations with per-row deterministic fault seeds and output-indexed
 * result slots, so the CSV is byte-identical at any --jobs count and
 * either --engine.
 */

#include <iomanip>
#include <sstream>

#include "bench_util.hh"
#include "pds/pds.hh"
#include "serve/serve.hh"

using namespace lwsp;

namespace {

constexpr unsigned kMcCounts[] = {4, 8, 16, 64};
constexpr unsigned kWlThreads[] = {8};

struct Point
{
    std::string workload;     ///< "rb/t8", "serve/varnish"
    noc::TopologyConfig topo;
    unsigned mcs = 2;
    bool lossy = false;
    unsigned threads = 0;     ///< workload rows; 0 = serve row

    /** The row's unique CSV key (and run-report key). */
    std::string
    name() const
    {
        return topo.toString() + "/" + std::to_string(mcs) + "/" +
               workload + (lossy ? "/loss100" : "");
    }
};

fault::FaultConfig
faultsFor(const Point &p, std::size_t row)
{
    fault::FaultConfig fc;
    if (!p.lossy)
        return fc;
    fc.enabled = true;
    fc.seed = 0xf23u + 7919u * static_cast<std::uint64_t>(row);
    fc.bcastLossPm = 100;
    return fc;
}

/** One fig16-style thread point on the `rb` profile. */
harness::RunOutcome
runWorkloadRow(const Point &p, std::size_t row)
{
    harness::PreparedPoint pt = harness::preparePoint({
        .workload = "rb",
        .scheme = core::Scheme::LightWsp,
        .threads = p.threads,
        .numMcs = p.mcs,
        .topology = p.topo,
    });
    pt.cfg.faults = faultsFor(p, row);

    core::System sys(pt.cfg, pt.prog, pt.threads);
    auto res = sys.run();
    LWSP_ASSERT(res.completed, "fig23 workload row did not complete: ",
                p.workload, " mcs=", p.mcs, " ", p.topo.toString());
    return bench::outcomeOf(sys, res, pt.prog.stats);
}

/** One fig21-style service tape on the pds hash table. */
harness::RunOutcome
runServeRow(const Point &p, std::size_t row)
{
    serve::ServeSpec spec;
    spec.profile = serve::Profile::Varnish;
    spec.sizeClass = 1;
    spec.numRequests = 64;
    spec.seed = 11;
    auto wl = serve::buildWorkload(spec);

    auto cfg = pds::makePdsConfig(pds::PdsScheme::LightWsp,
                                  pds::PdsRunMode::Perf);
    cfg.engine = harness::defaultSimEngine(); // honour --engine A/B
    cfg.numMcs = p.mcs;
    cfg.topology = p.topo;
    cfg.faults = faultsFor(p, row);
    auto prog = pds::preparePdsProgram(wl.pdsSpec, wl.ops,
                                       pds::PdsScheme::LightWsp,
                                       pds::PdsRunMode::Perf);

    core::System sys(cfg, prog, 1);
    auto res = sys.run();
    LWSP_ASSERT(res.completed, "fig23 serve row did not complete: mcs=",
                p.mcs, " ", p.topo.toString());
    return bench::outcomeOf(sys, res, prog.stats);
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    harness::SweepExecutor exec(args.jobs);

    noc::TopologyConfig flat;
    noc::TopologyConfig tree4;
    tree4.kind = noc::TopologyConfig::Kind::Tree;
    tree4.radix = 4;

    std::vector<Point> points;
    for (const auto &topo : {flat, tree4}) {
        for (unsigned mcs : kMcCounts) {
            for (bool lossy : {false, true}) {
                for (unsigned t : kWlThreads) {
                    Point p;
                    p.workload = "rb/t" + std::to_string(t);
                    p.topo = topo;
                    p.mcs = mcs;
                    p.lossy = lossy;
                    p.threads = t;
                    points.push_back(p);
                }
                Point p;
                p.workload = "serve/varnish";
                p.topo = topo;
                p.mcs = mcs;
                p.lossy = lossy;
                points.push_back(p);
            }
        }
    }

    auto recs = exec.runPoints(points.size(), [&](std::size_t i) {
        const Point &p = points[i];
        harness::RunOutcome o =
            p.threads ? runWorkloadRow(p, i) : runServeRow(p, i);
        std::uint64_t cycles = o.result.cycles;
        return harness::PointRun{
            {p.name(), p.workload, "lightwsp", std::move(o)}, cycles};
    });

    harness::ResultTable table(
        "Fig 23: control-plane scale-out — boundary-ACK latency, WPQ "
        "occupancy, fabric traffic and retries at 4-64 MCs, flat fan-out "
        "vs radix-4 aggregation tree, fault-free and under 10% per-link "
        "broadcast loss");
    // Table columns must be strictly positive (per-suite geomeans);
    // zero-able metrics (retries, latency in fault-free rows) live in
    // the CSV only.
    for (const char *c : {"cycles", "boundaries", "noc_msgs"})
        table.addColumn(c);

    // The leading `name` column is the unique per-row key bench_all.sh's
    // row-subset checker greps on; keep it first.
    std::ostringstream csvBody;
    csvBody << "name,topology,mcs,workload,fault,cycles,boundaries,"
               "bcast_lat_avg,bcast_lat_max,max_wpq_occupancy,"
               "noc_messages,bcast_retries\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        const core::RunResult &r = recs[i].outcome.result;
        table.addRow(p.name(), p.topo.toString(),
                     {static_cast<double>(r.cycles),
                      static_cast<double>(r.boundaries),
                      static_cast<double>(r.nocMessages)});
        csvBody << p.name() << ',' << p.topo.toString() << ',' << p.mcs
                << ',' << p.workload << ','
                << (p.lossy ? "loss100" : "none") << ',' << r.cycles
                << ',' << r.boundaries << ',' << std::setprecision(10)
                << r.bcastLatencyAvg << ',' << r.bcastLatencyMax << ','
                << r.maxWpqOccupancy << ',' << r.nocMessages << ','
                << r.bcastRetries << '\n';
    }

    bench::finish(table, args, exec, true, csvBody.str());
    return 0;
}
