/**
 * @file
 * Host-time probes of two memory-model structures, timed in isolation
 * on seeded operation streams: the part of System::run's host time a
 * span around the whole run cannot separate.
 */

#ifndef LWSP_PERFBENCH_PROBES_HH
#define LWSP_PERFBENCH_PROBES_HH

#include <cstdint>

namespace perfbench {

/**
 * Nanoseconds per mem::Cache::access on a default (64 KiB, 8-way) L1
 * with the snoop filter installed: 70% of accesses to a hot 32 KiB set,
 * the rest over 1 MiB, 30% writes. Median of five repetitions.
 */
double cacheAccessNs(std::uint64_t seed);

/**
 * Nanoseconds per mem::Wpq operation on a 64-entry queue: regions of
 * eight pushes each to addresses drawn from 128 words, one CAM search
 * before every push, and popRegion of the oldest region whenever the
 * next region would not fit. Median of five repetitions.
 */
double wpqOpNs(std::uint64_t seed);

} // namespace perfbench

#endif // LWSP_PERFBENCH_PROBES_HH
