/**
 * @file
 * Figure 12: store-threshold sensitivity at a fixed 64-entry WPQ
 * (thresholds 16 / 32 / 64). Paper result: half the WPQ size (32) is the
 * sweet spot — smaller thresholds multiply checkpoint stores, larger
 * ones quarantine too much per region and stall the pipeline. A thr-8
 * column is added because, at this model's region sizes (unroll-capped
 * to match §V-G3), thresholds of 16+ rarely bind; the checkpoint
 * inflation the paper describes appears clearly at 8.
 */

#include "bench_util.hh"

using namespace lwsp;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::runGrid(args, {
        .title = "Fig 12: LightWSP slowdown for store thresholds 16/32/64 "
                 "(WPQ = 64)",
        .rows = bench::selectedProfiles(args),
        .columns = {{"thr-8", {.storeThreshold = 8}},
                    {"thr-16", {.storeThreshold = 16}},
                    {"thr-32", {.storeThreshold = 32}},
                    {"thr-64", {.storeThreshold = 64}}},
    });
    return 0;
}
