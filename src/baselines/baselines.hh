/**
 * @file
 * Baseline persistence designs the paper compares against (§II-C, §V),
 * realised as configuration variants over the shared substrate, plus the
 * analytic hardware-cost and CAM-latency models of §V-G2/G4.
 *
 * Model summaries (axis of difference from LightWSP):
 *  - Capri (HPDC'22): persist path connected at L1 with 64B cacheline
 *    granularity -> 8x persist-path traffic; hardware regions with
 *    front/back-end logging buffers (54KB/core); multi-MC correctness by
 *    stopping the persist path at each region end until the prior region
 *    is fully flushed. Modelled as HwImplicit boundaries + 8x traffic
 *    amplification + drain waits.
 *  - PPA (MICRO'23): store-integrity in the PRF; regions delimited by
 *    register-file pressure (no extra instructions); eager write-back
 *    overlaps persistence with the region's own execution, but the
 *    pipeline stalls at each implicit boundary until every prior store
 *    persisted. Modelled as HwImplicit boundaries + ungated FIFO drain.
 *  - cWSP (ISCA'24): compiler-formed idempotent regions (no register
 *    checkpoint stores); MC speculation persists out of order with undo
 *    logging on every PM write (mitigated delay). Modelled as the
 *    compiled binary without CkptStores, an ungated drain derated by
 *    applySchemeDefaults to drainInterval x 3 and drainBurst x 2, and
 *    no boundary waits.
 *  - Ideal PSP (BBB/eADR-class): persistence itself is free, but DRAM
 *    cannot serve as LLC, so every L2 miss pays PM latency.
 *  - Naive sfence: LightWSP's regions with a blocking persist barrier at
 *    every boundary — the ablation motivating LRPO (§III-B).
 */

#ifndef LWSP_BASELINES_BASELINES_HH
#define LWSP_BASELINES_BASELINES_HH

#include <string>

#include "core/system_config.hh"

namespace lwsp {
namespace baselines {

/** Per-core hardware cost of a scheme's persistence support (§V-G4). */
struct HardwareCost
{
    double bytesPerCore = 0;
    std::string breakdown;
};

/**
 * Reproduce the paper's hardware-cost arithmetic for @p scheme under
 * @p cfg (cores, MCs, WPQ/FEB sizes).
 */
HardwareCost hardwareCost(core::Scheme scheme,
                          const core::SystemConfig &cfg);

/**
 * Analytic CAM search latency (§V-G2, CACTI 7 @ 22nm): ~0.99 ns for a
 * 64-entry 8B-granule search, scaling logarithmically with entry count.
 *
 * @return latency in nanoseconds
 */
double camSearchLatencyNs(unsigned entries, unsigned granuleBytes);

/** Same, rounded up to cycles at @p ghz. */
unsigned camSearchLatencyCycles(unsigned entries, unsigned granuleBytes,
                                double ghz = 2.0);

} // namespace baselines
} // namespace lwsp

#endif // LWSP_BASELINES_BASELINES_HH
