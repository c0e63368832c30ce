/**
 * @file
 * Memory substrate tests: functional image, set-associative cache with
 * LRU and the buffer-snooping victim policies.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/mem_controller.hh"
#include "mem/mem_image.hh"

using namespace lwsp;
using namespace lwsp::mem;

// ---- MemImage -----------------------------------------------------------

TEST(MemImage, ReadWriteRoundTrip)
{
    MemImage m;
    EXPECT_EQ(m.read(0x1000), 0u);  // untouched reads as zero
    m.write(0x1000, 0xdeadbeef);
    EXPECT_EQ(m.read(0x1000), 0xdeadbeefu);
    m.write(0x1000, 1);
    EXPECT_EQ(m.read(0x1000), 1u);
}

TEST(MemImage, UnalignedAccessPanics)
{
    MemImage m;
    EXPECT_THROW(m.read(0x1001), PanicError);
    EXPECT_THROW(m.write(0x1004, 1), PanicError);
}

TEST(MemImage, CloneIsDeep)
{
    MemImage a;
    a.write(0x2000, 7);
    MemImage b = a.clone();
    b.write(0x2000, 9);
    EXPECT_EQ(a.read(0x2000), 7u);
    EXPECT_EQ(b.read(0x2000), 9u);
}

TEST(MemImage, DiffFindsBothDirections)
{
    MemImage a, b;
    a.write(0x1000, 1);       // only in a
    b.write(0x555000, 2);     // only in b (different page)
    a.write(0x3000, 3);
    b.write(0x3000, 4);       // differs
    auto diffs = a.diff(b, 100);
    EXPECT_EQ(diffs.size(), 3u);
}

TEST(MemImage, DiffInRangeFilters)
{
    MemImage a, b;
    a.write(0x1000, 1);
    a.write(0x9000, 2);
    auto diffs = a.diffInRange(b, 0x8000, 0xa000);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0], 0x9000u);
}

TEST(MemImage, EqualImagesHaveNoDiff)
{
    MemImage a;
    for (Addr addr = 0; addr < 4096; addr += 8)
        a.write(0x7000 + addr, addr);
    MemImage b = a.clone();
    EXPECT_TRUE(a.diff(b).empty());
}

// ---- Cache -----------------------------------------------------------------

namespace {

CacheConfig
smallCache(unsigned assoc = 2)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1024;  // 16 lines
    cfg.assoc = assoc;
    cfg.latency = 4;
    return cfg;
}

} // namespace

TEST(Cache, HitAfterFill)
{
    Cache c("t", smallCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1038, false).hit);  // same 64B line
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.counters().misses, 1u);
}

TEST(Cache, LruEvictsOldest)
{
    Cache c("t", smallCache(2));
    // Set has 2 ways; three conflicting lines (set stride = 8 lines).
    Addr a = 0x0000, b = 0x0200, d = 0x0400;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);    // a most recent
    c.access(d, false);    // evicts b
    EXPECT_TRUE(c.present(a));
    EXPECT_FALSE(c.present(b));
    EXPECT_TRUE(c.present(d));
}

TEST(Cache, DirtyEvictionReported)
{
    Cache c("t", smallCache(1));
    auto r1 = c.access(0x0000, true);
    EXPECT_FALSE(r1.evictedDirty);
    auto r2 = c.access(0x0400, false);  // conflicts, evicts dirty line
    EXPECT_TRUE(r2.evictedDirty);
    EXPECT_EQ(r2.evictedLine, 0x0000u);
}

TEST(Cache, InvalidateDropsLine)
{
    Cache c("t", smallCache());
    c.access(0x3000, true);
    EXPECT_TRUE(c.present(0x3000));
    c.invalidate(0x3000);
    EXPECT_FALSE(c.present(0x3000));
    c.access(0x3000, false);
    c.invalidateAll();
    EXPECT_FALSE(c.present(0x3000));
}

TEST(Cache, FullPolicyDivertsConflictingVictim)
{
    Cache c("t", smallCache(2));
    Addr protected_line = 0x0000;
    c.setEvictionFilter(VictimPolicy::Full, [&](Addr line) {
        return line != protected_line;
    });
    c.access(0x0000, true);   // dirty, protected
    c.access(0x0200, true);   // dirty
    auto r = c.access(0x0400, false);  // must not evict 0x0000
    EXPECT_FALSE(r.blocked);
    EXPECT_TRUE(r.victimDiverted);
    EXPECT_TRUE(c.present(protected_line));
    EXPECT_FALSE(c.present(0x0200));
    EXPECT_GE(c.counters().bufferConflicts, 1u);
    EXPECT_EQ(c.counters().divertedVictims, 1u);
}

TEST(Cache, ZeroPolicyBlocksOnConflict)
{
    Cache c("t", smallCache(2));
    c.setEvictionFilter(VictimPolicy::Zero, [](Addr) { return false; });
    c.access(0x0000, true);
    c.access(0x0200, true);
    auto r = c.access(0x0400, false);
    EXPECT_TRUE(r.blocked);
    EXPECT_FALSE(c.present(0x0400));
}

TEST(Cache, ZeroPolicyOnlyBlocksDirtyVictims)
{
    Cache c("t", smallCache(2));
    c.setEvictionFilter(VictimPolicy::Zero, [](Addr) { return false; });
    c.access(0x0000, false);  // clean
    c.access(0x0200, false);  // clean
    auto r = c.access(0x0400, false);  // clean victims evict freely
    EXPECT_FALSE(r.blocked);
}

TEST(Cache, HalfPolicyScansHalfTheWays)
{
    Cache c("t", smallCache(4));
    // All four ways dirty and vetoed: Half scans 2, fails -> blocked.
    c.setEvictionFilter(VictimPolicy::Half, [](Addr) { return false; });
    for (Addr a : {0x0000, 0x0400, 0x0800, 0x0c00})
        c.access(a, true);
    auto r = c.access(0x1000, false);
    EXPECT_TRUE(r.blocked);
}

TEST(Cache, NonePolicyIgnoresFilter)
{
    Cache c("t", smallCache(2));
    c.setEvictionFilter(VictimPolicy::None, [](Addr) { return false; });
    c.access(0x0000, true);
    c.access(0x0200, true);
    auto r = c.access(0x0400, false);
    EXPECT_FALSE(r.blocked);
    EXPECT_EQ(c.counters().bufferConflicts, 0u);
}

TEST(Cache, CountsAndReset)
{
    Cache c("t", smallCache());
    c.access(0x0000, false);
    c.access(0x0000, false);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.counters().misses, 1u);
    c.resetStats();
    EXPECT_EQ(c.hits() + c.counters().misses, 0u);
}

// The tag store is anonymous zero pages: an untouched line reads as an
// invalid one, and invalidateAll() hands every page back. A 16 MB
// direct-mapped cache (the DRAM cache's geometry) must still miss on
// every dropped line and refill, including conflict evictions.
TEST(Cache, UntouchedLinesReadInvalid)
{
    const CacheConfig cfg = dramCacheConfig;
    Cache c("dc", cfg);
    const Addr stride = cfg.sizeBytes;  // same set, other tag
    const Addr addrs[] = {0x0, 0x40, 0x12340, cfg.sizeBytes - 64};
    for (Addr a : addrs)
        EXPECT_FALSE(c.present(a)) << a;
    for (Addr a : addrs)
        EXPECT_FALSE(c.access(a, true).hit) << a;
    for (Addr a : addrs)
        EXPECT_TRUE(c.present(a)) << a;

    c.invalidateAll();
    for (Addr a : addrs) {
        EXPECT_FALSE(c.present(a)) << a;
        auto miss = c.access(a, false);
        EXPECT_FALSE(miss.hit) << a;
        EXPECT_FALSE(miss.evictedDirty) << a << ": dropped lines are clean";
        EXPECT_TRUE(c.access(a, false).hit) << a;
    }
    // Refilled lines behave as before: a conflicting write evicts the
    // clean line silently, and a second conflict reports the dirty one.
    EXPECT_FALSE(c.access(0x40 + stride, true).evictedDirty);
    auto evict = c.access(0x40, false);
    EXPECT_FALSE(evict.hit);
    EXPECT_TRUE(evict.evictedDirty);
    EXPECT_EQ(evict.evictedLine, 0x40 + stride);
    EXPECT_EQ(c.hits(), 4u);
    EXPECT_EQ(c.counters().misses, 10u);
}

TEST(Cache, RejectsBadGeometry)
{
    CacheConfig cfg;
    cfg.sizeBytes = 1000;  // not divisible into sets
    cfg.assoc = 3;
    EXPECT_THROW(Cache("bad", cfg), PanicError);
}
