/**
 * @file
 * Figure 13: buffer-snooping victim-selection policy sensitivity
 * (full-way scan / half-way scan / zero — wait for the FEB entry).
 * Paper result: no significant difference, because buffer conflicts are
 * vanishingly rare (Table II).
 */

#include "bench_util.hh"

using namespace lwsp;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::runGrid(args, {
        .title = "Fig 13: LightWSP slowdown per victim-selection policy",
        .rows = bench::selectedProfiles(args),
        .columns = {{"full", {.victimPolicy = mem::VictimPolicy::Full}},
                    {"half", {.victimPolicy = mem::VictimPolicy::Half}},
                    {"zero", {.victimPolicy = mem::VictimPolicy::Zero}}},
    });
    return 0;
}
