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

#include "pds_point.hh"
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

/** One fig21-style service tape on the pds hash table, checked
 *  against the tape's shadow model. */
harness::RunOutcome
runServeRow(const Point &p, std::size_t row)
{
    auto wl = serve::buildWorkload({.profile = serve::Profile::Varnish,
                                    .sizeClass = 1,
                                    .numRequests = 64,
                                    .seed = 11});

    bench::PdsPoint pt =
        bench::pdsPoint(wl.pdsSpec, std::move(wl.ops),
                        pds::PdsScheme::LightWsp, pds::PdsRunMode::Perf);
    pt.workload = p.name();
    pt.cfg.numMcs = p.mcs;
    pt.cfg.topology = p.topo;
    pt.cfg.faults = faultsFor(p, row);

    core::System sys(pt.cfg, pt.prog, 1);
    return pt.checkedRun(sys, sys.run()).record.outcome;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::Driver driver(args);

    noc::TopologyConfig flat;
    noc::TopologyConfig tree4;
    tree4.kind = noc::TopologyConfig::Kind::Tree;
    tree4.radix = 4;

    std::vector<Point> points;
    for (const auto &topo : {flat, tree4}) {
        for (unsigned mcs : kMcCounts) {
            for (bool lossy : {false, true}) {
                for (unsigned t : kWlThreads) {
                    points.push_back(
                        {"rb/t" + std::to_string(t), topo, mcs, lossy, t});
                }
                points.push_back({"serve/varnish", topo, mcs, lossy, 0});
            }
        }
    }

    auto recs = driver.runPoints(points.size(), [&](std::size_t i) {
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
    // the CSV only. The leading `name` column is the unique per-row key
    // bench_all.sh's row-subset checker greps on; keep it first.
    table.nameKeyColumns("name", "topology");
    for (const char *c : {"mcs", "workload", "fault"})
        table.addColumn(c, harness::Shown::CsvOnly);
    for (const char *c : {"cycles", "boundaries"})
        table.addColumn(c);
    for (const char *c : {"bcast_lat_avg", "bcast_lat_max",
                          "max_wpq_occupancy"})
        table.addColumn(c, harness::Shown::CsvOnly);
    table.addColumn("noc_msgs", harness::Shown::ConsoleOnly);
    for (const char *c : {"noc_messages", "bcast_retries"})
        table.addColumn(c, harness::Shown::CsvOnly);

    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        const core::RunResult &r = recs[i].outcome.result;
        table.addRow(p.name(), p.topo.toString(),
                     {std::to_string(p.mcs), p.workload,
                      p.lossy ? "loss100" : "none", r.cycles, r.boundaries,
                      r.bcastLatencyAvg, r.bcastLatencyMax,
                      r.maxWpqOccupancy, r.nocMessages, r.nocMessages,
                      r.bcastRetries});
    }

    driver.finish(table);
    return 0;
}
