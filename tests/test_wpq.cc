/**
 * @file
 * WPQ (write-pending-queue) unit tests: capacity, overflow permission,
 * CAM search semantics, region queries and FIFO-within-region order.
 */

#include <gtest/gtest.h>

#include "mem/wpq.hh"

using namespace lwsp;
using namespace lwsp::mem;

namespace {

PersistEntry
entry(Addr addr, std::uint64_t value, RegionId region)
{
    PersistEntry e;
    e.addr = addr;
    e.value = value;
    e.region = region;
    return e;
}

} // namespace

TEST(Wpq, CapacityAndOverflow)
{
    Wpq q(2);
    q.push(entry(0, 1, 1));
    q.push(entry(8, 2, 1));
    EXPECT_TRUE(q.full());
    EXPECT_THROW(q.push(entry(16, 3, 1)), PanicError);
    q.push(entry(16, 3, 1), /*allow_overflow=*/true);
    EXPECT_EQ(q.size(), 3u);
}

TEST(Wpq, CapacityOneQueue)
{
    Wpq q(1);
    EXPECT_FALSE(q.full());
    q.push(entry(0, 1, 1));
    EXPECT_TRUE(q.full());
    EXPECT_THROW(q.push(entry(8, 2, 1)), PanicError);
    auto e = q.popFront();
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->value, 1u);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.full());
    q.push(entry(8, 2, 2));  // reusable after drain
    EXPECT_EQ(q.size(), 1u);
}

TEST(Wpq, EmptyQueueOperations)
{
    Wpq q(4);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.popFront().has_value());
    EXPECT_FALSE(q.popRegion(1).has_value());
    EXPECT_EQ(q.minRegion(), invalidRegion);
    EXPECT_FALSE(q.hasRegion(0));
    EXPECT_FALSE(q.search(0).has_value());
    unsigned visited = 0;
    q.forEach([&](const PersistEntry &) { ++visited; });
    EXPECT_EQ(visited, 0u);
}

TEST(Wpq, CamSearchReturnsNewestMatch)
{
    Wpq q(8);
    q.push(entry(0x100, 1, 1));
    q.push(entry(0x100, 2, 2));
    q.push(entry(0x108, 3, 2));
    auto hit = q.search(0x100);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, 2u);  // newest value for the address
    EXPECT_FALSE(q.search(0x200).has_value());
}

TEST(Wpq, ContainsLineMatchesAnyGranuleInLine)
{
    Wpq q(8);
    q.push(entry(0x1038, 1, 1));  // line 0x1000
    EXPECT_TRUE(q.containsLine(0x1000));
    EXPECT_FALSE(q.containsLine(0x1040));
}

TEST(Wpq, MinRegionAndHasRegion)
{
    Wpq q(8);
    EXPECT_EQ(q.minRegion(), invalidRegion);
    q.push(entry(0, 1, 5));
    q.push(entry(8, 2, 3));
    q.push(entry(16, 3, 9));
    EXPECT_EQ(q.minRegion(), 3u);
    EXPECT_TRUE(q.hasRegion(5));
    EXPECT_FALSE(q.hasRegion(4));
}

TEST(Wpq, PopRegionIsFifoWithinRegion)
{
    Wpq q(8);
    q.push(entry(0, 1, 1));
    q.push(entry(8, 2, 2));
    q.push(entry(16, 3, 1));
    auto a = q.popRegion(1);
    auto b = q.popRegion(1);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->addr, 0u);
    EXPECT_EQ(b->addr, 16u);
    EXPECT_FALSE(q.popRegion(1).has_value());
    EXPECT_TRUE(q.hasRegion(2));
}

TEST(Wpq, PopFrontIsGlobalFifo)
{
    Wpq q(8);
    q.push(entry(0, 1, 9));
    q.push(entry(8, 2, 3));
    auto a = q.popFront();
    ASSERT_TRUE(a.has_value());
    EXPECT_EQ(a->region, 9u);
}

TEST(Wpq, ForEachVisitsOldestFirst)
{
    Wpq q(8);
    q.push(entry(0, 1, 1));
    q.push(entry(8, 2, 2));
    std::vector<Addr> order;
    q.forEach([&](const PersistEntry &e) { order.push_back(e.addr); });
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 0u);
    EXPECT_EQ(order[1], 8u);
}
