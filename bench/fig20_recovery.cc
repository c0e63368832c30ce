/**
 * @file
 * Figure 20 (extension): recovery latency of the persistent
 * data-structure library — power-on to first served operation — as a
 * function of checkpoint distance.
 *
 * Each point crashes a structure run at 60% of its crash-free cycle
 * count, rebuilds a system from the surviving PM image with
 * System::recover(), and times how long the recovered machine takes to
 * serve its first operation (the exec-level served counter moving, via
 * System::runUntilWordChanges). Rows are <structure>/<scheme>; the
 * four distance columns d1..d4 map to compiler storeThreshold
 * {8,16,32,64} for the compiled schemes and to opsPerTx {1,2,4,8} for
 * the pmtx undo-log baseline — in both cases d(i+1) doubles the work
 * redone after a crash.
 *
 * Recovery mode substitutes the LightWSP gated-commit binary for
 * capri/ppa/cwsp's hardware checkpoint mechanisms (their timing knobs
 * are kept) so that recovery is exact — see DESIGN.md §13; the column
 * trend, not cross-scheme magnitude, is the result here. Quick mode runs
 * the identical (already small) grid.
 */

#include "bench_util.hh"
#include "pds/pds.hh"

using namespace lwsp;

namespace {

constexpr pds::Kind kKinds[] = {pds::Kind::Log, pds::Kind::Hash,
                                pds::Kind::Alloc};
constexpr unsigned kThresholds[] = {8, 16, 32, 64}; ///< compiled schemes
constexpr unsigned kOpsPerTx[] = {1, 2, 4, 8};      ///< pmtx
constexpr std::size_t kDists = 4;

struct Point
{
    pds::PdsSpec spec;
    pds::PdsScheme scheme = pds::PdsScheme::LightWsp;
    unsigned threshold = 0;  ///< 0 for pmtx (opsPerTx is in the spec)
};

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    harness::SweepExecutor exec(args.jobs);

    std::vector<Point> points;
    for (auto k : kKinds) {
        for (auto s : pds::allSchemes) {
            for (std::size_t d = 0; d < kDists; ++d) {
                Point p;
                p.spec.kind = k;
                p.spec.sizeClass = 1;
                p.spec.numOps = 128;
                p.spec.mix = 0;
                p.spec.seed = 7;
                p.scheme = s;
                if (s == pds::PdsScheme::Pmtx)
                    p.spec.opsPerTx = kOpsPerTx[d];
                else
                    p.threshold = kThresholds[d];
                points.push_back(p);
            }
        }
    }

    // A point's record is its recovered run, stopped at the first served
    // op (so its `completed` is false by design).
    std::vector<Tick> latency(points.size());
    exec.runPoints(points.size(), [&](std::size_t i) {
        const Point &p = points[i];
        auto cfg = pds::makePdsConfig(p.scheme, pds::PdsRunMode::Recovery);
        auto prog = pds::preparePdsProgram(p.spec, pds::generateTape(p.spec),
                                           p.scheme, pds::PdsRunMode::Recovery,
                                           p.threshold);
        const Addr served = pds::pdsGeometry(p.spec).served;

        core::System golden(cfg, prog, 1);
        auto gres = golden.run();
        LWSP_ASSERT(gres.completed, "fig20 golden did not complete: ",
                    p.spec.toString());

        core::System victim(cfg, prog, 1);
        victim.runWithPowerFailure(gres.cycles * 6 / 10);
        auto rec =
            core::System::recover(cfg, prog, 1, victim.pmImage(), {});
        std::uint64_t servedAtBoot = rec->execImage().read(served);
        auto probe = rec->runUntilWordChanges(served, servedAtBoot);
        LWSP_ASSERT(probe.served, "fig20 recovered run served nothing: ",
                    p.spec.toString(), " scheme ",
                    pds::pdsSchemeName(p.scheme));
        latency[i] = probe.serveTick;

        std::string wl = p.spec.toString();
        std::string scheme = pds::pdsSchemeName(p.scheme);
        return harness::PointRun{
            {wl + "/" + scheme + "/st=" + std::to_string(p.threshold), wl,
             scheme, bench::outcomeOf(*rec, probe.result, prog.stats)},
            gres.cycles + probe.serveTick};
    });

    harness::ResultTable table(
        "Fig 20: pds recovery latency, power-on to first served op "
        "(cycles; crash at 60% of crash-free run, 128 ops). d1..d4 = "
        "storeThreshold 8/16/32/64 (compiled) or opsPerTx 1/2/4/8 "
        "(pmtx)");
    for (std::size_t d = 0; d < kDists; ++d)
        table.addColumn("d" + std::to_string(d + 1));

    std::size_t idx = 0;
    for (auto k : kKinds) {
        for (auto s : pds::allSchemes) {
            std::vector<double> row;
            for (std::size_t d = 0; d < kDists; ++d)
                row.push_back(static_cast<double>(latency[idx++]));
            table.addRow(std::string(pds::kindName(k)) + "/" +
                             pds::pdsSchemeName(s),
                         pds::pdsSchemeName(s), row);
        }
    }

    bench::finish(table, args, exec);
    return 0;
}
