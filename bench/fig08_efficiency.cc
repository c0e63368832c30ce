/**
 * @file
 * Figure 8: region-level persistence efficiency (Eq. 1) of PPA and
 * LightWSP, per suite. Paper result: 89.3% (PPA) vs 99.9% (LightWSP) —
 * LRPO hides essentially all persistence latency while PPA pays waits at
 * each hardware region boundary.
 */

#include "bench_util.hh"

using namespace lwsp;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::runGrid(args, {
        .title =
            "Fig 8: region-level persistence efficiency % (PPA / LightWSP)",
        .rows = bench::selectedProfiles(args),
        .columns = {{"ppa", {.scheme = core::Scheme::Ppa}},
                    {"lightwsp", {.scheme = core::Scheme::LightWsp}}},
        .cells =
            [](const bench::RowRuns &row) {
                std::vector<double> cells;
                for (std::size_t c = 0; c < row.specs.size(); ++c) {
                    auto cfg = harness::makeConfig(row.profile, row.specs[c]);
                    cells.push_back(harness::persistenceEfficiency(
                        row.outcomes[c].result, cfg));
                }
                return cells;
            },
    });
    return 0;
}
