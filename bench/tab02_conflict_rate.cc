/**
 * @file
 * Table II: front-end-buffer conflict rate per suite — the fraction of
 * L1 evictions whose victim line still sat in the FEB. Paper result:
 * effectively zero for the single-threaded suites and at most a few
 * thousandths of a permille elsewhere, which is why the victim policies
 * of Fig. 13 are indistinguishable.
 */

#include "bench_util.hh"

using namespace lwsp;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::runGrid(args, {
        .title = "Table II: FEB conflict rate (permille of L1 accesses)",
        .rows = bench::selectedProfiles(args),
        .columns = {{"conflict", {.scheme = core::Scheme::LightWsp}}},
        .cells = bench::perResult([](const core::RunResult &r) {
            double accesses = static_cast<double>(r.l1Hits + r.l1Misses);
            double rate = accesses > 0
                              ? 1000.0 *
                                    static_cast<double>(r.bufferConflicts) /
                                    accesses
                              : 0.0;
            // Epsilon keeps the geomean defined for all-zero suites.
            return rate + 1e-9;
        }),
    });
    return 0;
}
