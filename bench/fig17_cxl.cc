/**
 * @file
 * Figure 17: CXL-attached persistence (Table III device configurations).
 * The persist path gains the CXL interconnect latency and the media's
 * latency/bandwidth replace the Optane iMC numbers. Paper result: under
 * 16% average overhead across all four devices.
 */

#include "bench_util.hh"

using namespace lwsp;

namespace {

struct CxlDevice
{
    const char *name;
    double readNs;
    double writeNs;
    double gbps;       ///< device write bandwidth (persist drain)
    double extraNs;    ///< additional interconnect latency
};

// Table III: CXL-I/II/III from Sun et al. (MICRO'23); CXL-PMEM adds the
// 70ns CXL link on top of Optane media (Pond, ASPLOS'23).
constexpr CxlDevice devices[] = {
    {"CXL-I", 158, 120, 38.4, 0},
    {"CXL-II", 223, 139, 19.2, 0},
    {"CXL-III", 348, 241, 25.6, 0},
    {"CXL-PMem", 245, 160, 2.3, 70},
};

harness::RunSpec
specFor(const CxlDevice &d)
{
    harness::RunSpec spec;
    spec.scheme = core::Scheme::LightWsp;
    spec.pmReadCycles = nsToCycles(d.readNs + d.extraNs);
    spec.pmWriteCycles = nsToCycles(d.writeNs + d.extraNs);
    spec.extraPathLatency = nsToCycles(d.extraNs);
    // Device write bandwidth sets the WPQ drain rate: cycles per
    // 8B granule at 2 GHz, split across 2 MCs.
    double granules_per_cycle = d.gbps / 8.0 / 2.0 / 2.0;
    Tick interval = granules_per_cycle >= 2.0 ? 1
                    : granules_per_cycle >= 1.0
                        ? 1
                        : static_cast<Tick>(1.0 / granules_per_cycle + 0.5);
    spec.drainInterval = std::max<Tick>(1, interval);
    return spec;
}

} // namespace

int
main(int argc, char **argv)
{
    auto args = bench::parseArgs(argc, argv);
    std::vector<bench::Column> columns;
    for (const auto &d : devices)
        columns.push_back({d.name, specFor(d)});
    bench::runGrid(args, {
        .title = "Fig 17: LightWSP slowdown per CXL device configuration",
        .rows = bench::selectedProfiles(args),
        .columns = columns,
    });
    return 0;
}
