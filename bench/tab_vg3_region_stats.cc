/**
 * @file
 * §V-G3: instruction-count and region statistics. Paper results: 7.03%
 * more dynamic instructions than the baseline (checkpoint stores +
 * boundaries), 91.33 instructions and 11.29 stores per dynamic region on
 * average.
 */

#include "bench_util.hh"

using namespace lwsp;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::runGrid(args, {
        .title = "§V-G3: instruction & region statistics",
        .headers = {"inst-ovh%", "insts/region", "stores/region",
                    "ckpt-pruned"},
        .rows = bench::selectedProfiles(args),
        .columns = {{"baseline", {.scheme = core::Scheme::Baseline}},
                    {"lightwsp", {.scheme = core::Scheme::LightWsp}}},
        .cells =
            [](const bench::RowRuns &row) -> std::vector<double> {
                const auto &b = row.outcomes[0];
                const auto &o = row.outcomes[1];
                double ovh = 100.0 *
                             (static_cast<double>(o.result.instsRetired) /
                                  static_cast<double>(b.result.instsRetired) -
                              1.0);
                return {std::max(ovh, 1e-6), o.result.avgRegionInsts,
                        std::max(o.result.avgRegionStores, 1e-6),
                        static_cast<double>(
                            o.compileStats.prunedCheckpoints) + 1e-6};
            },
        .perApp = true,
    });
    return 0;
}
