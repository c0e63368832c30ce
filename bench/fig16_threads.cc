/**
 * @file
 * Figure 16: thread-count scaling (8 / 16 / 32 / 64 threads on 8 cores,
 * fixed 64-entry WPQ) for the multi-threaded suites. Paper result:
 * overhead grows with thread count from shared-WPQ contention; the
 * overflow (deadlock-fallback) rate stays low (1.9 per 10k instructions
 * at 64 threads) and shrinks ~5x with a 256-entry WPQ.
 */

#include "bench_util.hh"

using namespace lwsp;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::GridDriver driver(args);
    auto rows = bench::selectedProfiles(args);
    std::erase_if(rows, [](const auto *p) { return p->threads < 2; });

    // Quick mode keeps the full thread axis: the event-driven scheduler
    // (plus the lazy shadow-prune heap) took the 64-thread points from
    // minutes to seconds each, so the smoke tier can afford the sweep
    // the paper's figure actually shows.
    std::vector<bench::Column> threadAxis;
    for (unsigned t : {8u, 16u, 32u, 64u})
        threadAxis.push_back({std::to_string(t) + "t", {.threads = t}});
    auto table = driver.run({
        .title = "Fig 16: LightWSP slowdown per thread count "
                 "(multi-threaded suites)",
        .rows = rows,
        .columns = threadAxis,
    });

    const unsigned oflowThreads = 64;
    auto overflow = driver.run({
        .title = "Fig 16b: WPQ overflow events per 10k instructions (" +
                 std::to_string(oflowThreads) + "t, WPQ 64 vs 256)",
        .rows = rows,
        .columns = {{"wpq-64", {.wpqEntries = 64, .threads = oflowThreads}},
                    {"wpq-256",
                     {.wpqEntries = 256, .threads = oflowThreads}}},
        .cells = bench::perResult([](const core::RunResult &r) {
            return r.instsRetired
                       ? 1e4 * static_cast<double>(r.wpqFallbackFlushes) /
                             static_cast<double>(r.instsRetired)
                       : 0.0;
        }),
    });

    driver.finish(table, /*per_app=*/false);
    std::cout << '\n';
    overflow.printSuiteSummary(std::cout);
    return 0;
}
