/**
 * @file
 * Figure 14: L1 cache miss rate (%) under the three victim-selection
 * policies vs the stale-load configuration (no buffer snooping). Paper
 * result: similar rates for the three policies; the stale-load case is
 * visibly higher on the multi-threaded suites because every stale fetch
 * forces a refetch once the in-flight store lands.
 */

#include "bench_util.hh"

using namespace lwsp;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::runGrid(args, {
        .title = "Fig 14: L1 miss rate % per victim policy (+ stale-load)",
        .rows = bench::selectedProfiles(args),
        .columns = {{"full", {.victimPolicy = mem::VictimPolicy::Full}},
                    {"half", {.victimPolicy = mem::VictimPolicy::Half}},
                    {"zero", {.victimPolicy = mem::VictimPolicy::Zero}},
                    {"stale-load",
                     {.victimPolicy = mem::VictimPolicy::None}}},
        .cells = bench::perResult([](const core::RunResult &r) {
            return r.l1MissRate() * 100.0 + 1e-9;
        }),
    });
    return 0;
}
