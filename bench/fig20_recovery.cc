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

#include "pds_point.hh"

using namespace lwsp;

namespace {

constexpr pds::Kind kKinds[] = {pds::Kind::Log, pds::Kind::Hash,
                                pds::Kind::Alloc};
constexpr unsigned kThresholds[] = {8, 16, 32, 64}; ///< compiled schemes
constexpr unsigned kOpsPerTx[] = {1, 2, 4, 8};      ///< pmtx
constexpr std::size_t kDists = 4;
constexpr std::size_t kSchemes = std::size(pds::allSchemes);

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::Driver driver(args);

    // Row-major (structure, scheme, distance). A point's record is its
    // recovered run, stopped at the first served op (so its `completed`
    // is false by design).
    std::vector<Tick> latency(std::size(kKinds) * kSchemes * kDists);
    driver.runPoints(latency.size(), [&](std::size_t i) {
        const std::size_t d = i % kDists;
        const pds::PdsScheme scheme = pds::allSchemes[i / kDists % kSchemes];
        pds::PdsSpec spec{.kind = kKinds[i / kDists / kSchemes],
                          .sizeClass = 1,
                          .numOps = 128,
                          .mix = 0,
                          .seed = 7};
        unsigned threshold = 0;  // 0 for pmtx (opsPerTx is in the spec)
        if (scheme == pds::PdsScheme::Pmtx)
            spec.opsPerTx = kOpsPerTx[d];
        else
            threshold = kThresholds[d];
        const bench::PdsPoint pt =
            bench::pdsPoint(spec, pds::generateTape(spec), scheme,
                            pds::PdsRunMode::Recovery, threshold);

        core::System golden(pt.cfg, pt.prog, 1);
        auto gres = golden.run();
        LWSP_ASSERT(gres.completed, "fig20 golden did not complete: ",
                    pt.workload);

        core::System victim(pt.cfg, pt.prog, 1);
        victim.runWithPowerFailure(gres.cycles * 6 / 10);
        auto [rec, probe] = pt.probeMttr(victim.pmImage());
        LWSP_ASSERT(probe.served, "fig20 recovered run served nothing: ",
                    pt.workload, " scheme ", pt.scheme);
        latency[i] = probe.serveTick;

        return harness::PointRun{
            {pt.workload + "/" + pt.scheme + "/st=" +
                 std::to_string(threshold),
             pt.workload, pt.scheme,
             bench::outcomeOf(*rec, probe.result, pt.prog.stats)},
            gres.cycles + probe.serveTick};
    });

    harness::ResultTable table(
        "Fig 20: pds recovery latency, power-on to first served op "
        "(cycles; crash at 60% of crash-free run, 128 ops). d1..d4 = "
        "storeThreshold 8/16/32/64 (compiled) or opsPerTx 1/2/4/8 "
        "(pmtx)");
    for (std::size_t d = 0; d < kDists; ++d)
        table.addColumn("d" + std::to_string(d + 1));

    for (std::size_t r = 0; r * kDists < latency.size(); ++r) {
        const char *scheme = pds::pdsSchemeName(pds::allSchemes[r % kSchemes]);
        auto first = latency.begin() + static_cast<std::ptrdiff_t>(r * kDists);
        table.addRow(std::string(pds::kindName(kKinds[r / kSchemes])) + "/" +
                         scheme,
                     scheme, {first, first + kDists});
    }

    driver.finish(table);
    return 0;
}
