/**
 * @file
 * Field-by-field core::RunResult equality, shared by the determinism
 * tests (engine A/B, parallel == serial, fast-forward on/off). It checks
 * every field, the fabric counters fig23 reports included; the size
 * check below fails the build when a field is added without a line here.
 */

#ifndef LWSP_TESTS_RESULT_EQ_HH
#define LWSP_TESTS_RESULT_EQ_HH

#include <gtest/gtest.h>

#include <string>

#include "core/system.hh"

// 28 eight-byte fields (the bool pads to eight).
static_assert(sizeof(lwsp::core::RunResult) == 28 * 8,
              "RunResult changed: update expectResultEq");

inline void
expectResultEq(const lwsp::core::RunResult &a,
               const lwsp::core::RunResult &b, const std::string &what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.completed, b.completed) << what;
    EXPECT_EQ(a.instsRetired, b.instsRetired) << what;
    EXPECT_EQ(a.storesRetired, b.storesRetired) << what;
    EXPECT_EQ(a.boundaries, b.boundaries) << what;
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.boundaryWaitCycles, b.boundaryWaitCycles) << what;
    EXPECT_EQ(a.sbFullCycles, b.sbFullCycles) << what;
    EXPECT_EQ(a.febFullCycles, b.febFullCycles) << what;
    EXPECT_EQ(a.snoopBlockedCycles, b.snoopBlockedCycles) << what;
    EXPECT_EQ(a.lockBlockedCycles, b.lockBlockedCycles) << what;
    EXPECT_EQ(a.l1Hits, b.l1Hits) << what;
    EXPECT_EQ(a.l1Misses, b.l1Misses) << what;
    EXPECT_EQ(a.staleLoads, b.staleLoads) << what;
    EXPECT_EQ(a.bufferConflicts, b.bufferConflicts) << what;
    EXPECT_EQ(a.divertedVictims, b.divertedVictims) << what;
    EXPECT_EQ(a.wpqLoadHits, b.wpqLoadHits) << what;
    EXPECT_EQ(a.wpqFlushedEntries, b.wpqFlushedEntries) << what;
    EXPECT_EQ(a.wpqFallbackFlushes, b.wpqFallbackFlushes) << what;
    EXPECT_EQ(a.wpqOverflowEvents, b.wpqOverflowEvents) << what;
    EXPECT_EQ(a.maxWpqOccupancy, b.maxWpqOccupancy) << what;
    EXPECT_EQ(a.regionsCommitted, b.regionsCommitted) << what;
    EXPECT_EQ(a.nocMessages, b.nocMessages) << what;
    EXPECT_EQ(a.bcastRetries, b.bcastRetries) << what;
    EXPECT_DOUBLE_EQ(a.bcastLatencyAvg, b.bcastLatencyAvg) << what;
    EXPECT_DOUBLE_EQ(a.bcastLatencyMax, b.bcastLatencyMax) << what;
    EXPECT_DOUBLE_EQ(a.avgRegionInsts, b.avgRegionInsts) << what;
    EXPECT_DOUBLE_EQ(a.avgRegionStores, b.avgRegionStores) << what;
}

#endif // LWSP_TESTS_RESULT_EQ_HH
