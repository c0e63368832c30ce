/**
 * @file
 * Figure 11: WPQ-size sensitivity (256 / 128 / 64 entries; store
 * threshold = half the WPQ; the front-end buffer tracks the WPQ size).
 * Paper result: larger WPQs perform best; the 64-entry default matches
 * commodity iMCs at a small cost.
 */

#include "bench_util.hh"

using namespace lwsp;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::runGrid(args, {
        .title = "Fig 11: LightWSP slowdown for WPQ sizes 256/128/64",
        .rows = bench::selectedProfiles(args),
        .columns = {{"wpq-256", {.wpqEntries = 256}},
                    {"wpq-128", {.wpqEntries = 128}},
                    {"wpq-64", {.wpqEntries = 64}},
                    {"wpq-16", {.wpqEntries = 16}}},
    });
    return 0;
}
