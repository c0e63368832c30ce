/**
 * @file
 * Ablation (DESIGN.md §6.3): paper-literal strict commit — region k+1
 * flushes only after region k's flush-ACK round completes on every MC —
 * vs the relaxed per-MC pipelined commit this implementation defaults
 * to. The strict mode serializes cross-thread regions through the ACK
 * round trip; the gap quantifies what the relaxation buys.
 */

#include "bench_util.hh"

using namespace lwsp;

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    bench::runGrid(args, {
        .title = "Ablation: LightWSP commit pipelining (relaxed vs strict "
                 "flush-ACKs)",
        .rows = bench::selectedProfiles(args),
        .columns = {{"relaxed", {.strictFlushAcks = false}},
                    {"strict", {.strictFlushAcks = true}}},
    });
    return 0;
}
