/**
 * @file
 * Figure 9: ideal PSP (eADR/BBB-class, no DRAM cache) vs LightWSP on the
 * memory-intensive applications. Paper result: 51.2% avg (up to 2.6x on
 * libquantum) for ideal PSP vs 3% for LightWSP — the cost of forfeiting
 * DRAM as LLC dwarfs LightWSP's persistence overhead.
 */

#include "bench_util.hh"

using namespace lwsp;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::runGrid(args, {
        .title = "Fig 9: slowdown on memory-intensive apps "
                 "(PSP-ideal / LightWSP)",
        .rows = bench::namedProfiles(workloads::memoryIntensiveNames()),
        .columns = {{"psp-ideal", {.scheme = core::Scheme::PspIdeal}},
                    {"lightwsp", {.scheme = core::Scheme::LightWsp}}},
        .perApp = true,
    });
    return 0;
}
