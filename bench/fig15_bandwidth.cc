/**
 * @file
 * Figure 15: persist-path bandwidth sensitivity (4 / 2 / 1 GB/s). Paper
 * result: lower bandwidth fills the front-end buffer faster, exerting
 * back-pressure on the store buffer and stalling the pipeline.
 */

#include "bench_util.hh"

using namespace lwsp;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::runGrid(args, {
        .title = "Fig 15: LightWSP slowdown per persist-path bandwidth",
        .rows = bench::selectedProfiles(args),
        .columns = {{"4GB/s", {.persistPathGBps = 4.0}},
                    {"2GB/s", {.persistPathGBps = 2.0}},
                    {"1GB/s", {.persistPathGBps = 1.0}}},
    });
    return 0;
}
