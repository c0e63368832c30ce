/**
 * @file
 * Figure 7: slowdown of Capri, PPA and LightWSP over the memory-mode
 * baseline, per application with per-suite and overall geomeans.
 * Paper result: 50.5% / 8.1% / 9.0% average overhead respectively.
 */

#include "bench_util.hh"

using namespace lwsp;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::runGrid(args, {
        .title = "Fig 7: execution slowdown vs baseline "
                 "(Capri / PPA / LightWSP)",
        .rows = bench::selectedProfiles(args),
        .columns = {{"capri", {.scheme = core::Scheme::Capri}},
                    {"ppa", {.scheme = core::Scheme::Ppa}},
                    {"lightwsp", {.scheme = core::Scheme::LightWsp}}},
        .perApp = true,
    });
    return 0;
}
