/**
 * @file
 * Figure 18: WPQ load-hit rate (hits per million instructions) for WPQ
 * sizes 256/128/64. Paper result: ~0.039 hits per million instructions
 * on average — low enough that the LLC-miss WPQ-search penalty (§IV-H)
 * is negligible.
 */

#include "bench_util.hh"

using namespace lwsp;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::runGrid(args, {
        .title = "Fig 18: WPQ load hits per million instructions",
        .rows = bench::selectedProfiles(args),
        .columns = {{"wpq-256", {.wpqEntries = 256}},
                    {"wpq-128", {.wpqEntries = 128}},
                    {"wpq-64", {.wpqEntries = 64}}},
        .cells = bench::perResult([](const core::RunResult &r) {
            double per_m =
                r.instsRetired
                    ? 1e6 * static_cast<double>(r.wpqLoadHits) /
                          static_cast<double>(r.instsRetired)
                    : 0.0;
            // Keep zero rows geomean-safe by flooring at a tiny epsilon.
            return per_m + 1e-6;
        }),
    });
    return 0;
}
