/**
 * @file
 * Tail selection, the host speed gauge and digests the benchmark driver
 * reports with.
 *
 * Percentiles use the nearest-rank method of stats::Percentiles: the p-th
 * percentile of n samples is the sample of 1-based rank ceil(p * n) in
 * sorted order. A tail is the highest such percentile that still leaves
 * a given number of samples beyond it.
 */

#ifndef LWSP_PERFBENCH_MEASURE_HH
#define LWSP_PERFBENCH_MEASURE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** A tail percentile together with where it came from. */
struct Tail
{
    double value = 0;
    double percentile = 0;  ///< in percent, e.g. 86.1
    std::size_t rank = 0;   ///< 1-based rank of the reported sample
    std::size_t n = 0;      ///< samples it was taken over
};

/**
 * Highest nearest-rank percentile with at least @p beyond samples above
 * it: rank n - beyond, clamped to 1 when there are too few samples.
 */
Tail tailPercentile(std::vector<double> v, std::size_t beyond);

/**
 * Host seconds of one lap of the speed gauge: a fixed kernel owned by the
 * benchmark. A lap takes branches on pseudo-random words from a 64 KiB
 * table, then fills and probes a fresh std::unordered_map. Branches,
 * hashing and allocation are what the simulator's host time is made of,
 * so the gauge slows when a busy host slows the simulator. It shares no
 * code with the simulator, so a change to the simulator cannot move it.
 */
double gaugeSeconds();

/** The median gauge lap on the reference host. */
constexpr double kGaugeRefSeconds = 0.0025;

/**
 * @p seconds measured while the gauge read @p gauge, rescaled to the
 * reference host's speed: seconds * kGaugeRefSeconds / gauge.
 */
double atReferenceSpeed(double seconds, double gauge);

/** 64-bit FNV-1a, folded onto @p seed so digests can be chained. */
std::uint64_t fnv1a(const std::string &text,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

/** "0x" + 16 hex digits. */
std::string hex64(std::uint64_t v);

} // namespace perfbench

#endif // LWSP_PERFBENCH_MEASURE_HH
