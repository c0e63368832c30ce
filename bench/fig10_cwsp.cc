/**
 * @file
 * Figure 10: LightWSP vs the state-of-the-art cWSP, per suite (NPB
 * excluded, matching the paper). Paper result: cWSP 5.7% vs LightWSP
 * 8.5% average — comparable performance, but cWSP needs intrusive
 * core/MC changes while LightWSP's hardware cost is near zero.
 */

#include "bench_util.hh"

using namespace lwsp;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    auto rows = bench::selectedProfiles(args);
    // cWSP's evaluation does not use NPB.
    std::erase_if(rows, [](const auto *p) { return p->suite == "NPB"; });
    bench::runGrid(args, {
        .title = "Fig 10: slowdown vs baseline (cWSP / LightWSP), NPB "
                 "excluded",
        .rows = rows,
        .columns = {{"cwsp", {.scheme = core::Scheme::Cwsp}},
                    {"lightwsp", {.scheme = core::Scheme::LightWsp}}},
    });
    return 0;
}
