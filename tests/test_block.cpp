// Unit tests for the block layer: segmented ranges, block ids, blocks,
// pools, and the LRU cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "block/block.hpp"
#include "block/block_cache.hpp"
#include "block/block_id.hpp"
#include "block/block_pool.hpp"
#include "block/index_range.hpp"
#include "common/error.hpp"

namespace sia {
namespace {

// ---------------------------------------------------------------------
// SegmentedRange.

TEST(SegmentedRangeTest, EvenSplit) {
  SegmentedRange range(1, 16, 4);
  EXPECT_EQ(range.num_segments(), 4);
  EXPECT_EQ(range.segment_low(1), 1);
  EXPECT_EQ(range.segment_high(1), 4);
  EXPECT_EQ(range.segment_low(4), 13);
  EXPECT_EQ(range.segment_high(4), 16);
  EXPECT_EQ(range.segment_extent(2), 4);
}

TEST(SegmentedRangeTest, TailSegmentIsShorter) {
  SegmentedRange range(1, 10, 4);
  EXPECT_EQ(range.num_segments(), 3);
  EXPECT_EQ(range.segment_extent(3), 2);
  EXPECT_EQ(range.segment_high(3), 10);
}

TEST(SegmentedRangeTest, SegmentOfElement) {
  SegmentedRange range(1, 12, 5);
  EXPECT_EQ(range.segment_of(1), 1);
  EXPECT_EQ(range.segment_of(5), 1);
  EXPECT_EQ(range.segment_of(6), 2);
  EXPECT_EQ(range.segment_of(12), 3);
}

TEST(SegmentedRangeTest, NonUnitLow) {
  SegmentedRange range(11, 20, 5);
  EXPECT_EQ(range.num_segments(), 2);
  EXPECT_EQ(range.segment_low(1), 11);
  EXPECT_EQ(range.segment_high(2), 20);
}

TEST(SegmentedRangeTest, RejectsEmptyRange) {
  EXPECT_THROW(SegmentedRange(5, 4, 2), Error);
}

TEST(SegmentedRangeTest, RejectsBadSegment) {
  EXPECT_THROW(SegmentedRange(1, 4, 0), Error);
}

TEST(SegmentedRangeTest, OutOfRangeAccessesThrow) {
  SegmentedRange range(1, 8, 4);
  EXPECT_THROW(range.segment_low(0), InternalError);
  EXPECT_THROW(range.segment_low(3), InternalError);
  EXPECT_THROW(range.segment_of(9), InternalError);
}

// ---------------------------------------------------------------------
// BlockId.

class BlockIdLinearize
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(BlockIdLinearize, RoundTripsAllPositions) {
  const std::vector<int> grid = GetParam();
  std::int64_t total = 1;
  for (const int g : grid) total *= g;
  for (std::int64_t linear = 0; linear < total; ++linear) {
    const BlockId id = BlockId::from_linear(9, linear, grid);
    EXPECT_EQ(id.linearize(grid), linear);
    EXPECT_EQ(id.array_id, 9);
    for (int d = 0; d < id.rank; ++d) {
      EXPECT_GE(id.segments[static_cast<std::size_t>(d)], 1);
      EXPECT_LE(id.segments[static_cast<std::size_t>(d)],
                grid[static_cast<std::size_t>(d)]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grids, BlockIdLinearize,
                         ::testing::Values(std::vector<int>{5},
                                           std::vector<int>{3, 4},
                                           std::vector<int>{2, 3, 4},
                                           std::vector<int>{2, 2, 2, 3}));

TEST(BlockIdTest, HashDistinguishesArrayAndSegments) {
  const std::vector<int> segs = {1, 2};
  BlockId a(1, segs);
  BlockId b(2, segs);
  BlockId c(1, std::vector<int>{2, 1});
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(a.hash(), c.hash());
  EXPECT_EQ(a.hash(), BlockId(1, segs).hash());
}

TEST(BlockIdTest, ToStringShowsSegments) {
  BlockId id(3, std::vector<int>{1, 4, 2});
  EXPECT_EQ(id.to_string(), "a3(1,4,2)");
}

TEST(BlockIdTest, LinearizeRejectsOutOfRange) {
  BlockId id(0, std::vector<int>{5, 1});
  const std::vector<int> grid = {4, 4};
  EXPECT_THROW(id.linearize(grid), InternalError);
}

// ---------------------------------------------------------------------
// Block.

TEST(BlockTest, ZeroInitialized) {
  Block block(BlockShape(std::vector<int>{3, 4}));
  for (const double v : block.data()) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(block.size(), 12u);
}

TEST(BlockTest, AtUsesRowMajorLastFastest) {
  Block block(BlockShape(std::vector<int>{2, 3}));
  block.at(std::vector<int>{1, 2}) = 7.0;
  EXPECT_EQ(block.data()[5], 7.0);
}

TEST(BlockTest, AtRejectsBadIndex) {
  Block block(BlockShape(std::vector<int>{2, 2}));
  EXPECT_THROW(block.at(std::vector<int>{2, 0}), InternalError);
  EXPECT_THROW(block.at(std::vector<int>{0}), InternalError);
}

TEST(BlockTest, CloneIsDeep) {
  Block block(BlockShape(std::vector<int>{2, 2}));
  block.data()[0] = 5.0;
  Block copy = block.clone();
  copy.data()[0] = 9.0;
  EXPECT_EQ(block.data()[0], 5.0);
}

TEST(BlockTest, SliceInsertRoundTrip) {
  Block big(BlockShape(std::vector<int>{4, 4}));
  for (std::size_t i = 0; i < big.size(); ++i) {
    big.data()[i] = static_cast<double>(i);
  }
  const std::vector<int> origin = {1, 2};
  Block sub = slice(big, origin, BlockShape(std::vector<int>{2, 2}));
  EXPECT_EQ(sub.at(std::vector<int>{0, 0}), big.at(std::vector<int>{1, 2}));
  EXPECT_EQ(sub.at(std::vector<int>{1, 1}), big.at(std::vector<int>{2, 3}));

  sub.data()[0] = -1.0;
  insert(big, origin, sub);
  EXPECT_EQ(big.at(std::vector<int>{1, 2}), -1.0);
}

TEST(BlockTest, SliceOutOfBoundsThrows) {
  Block big(BlockShape(std::vector<int>{3, 3}));
  EXPECT_THROW(
      slice(big, std::vector<int>{2, 2}, BlockShape(std::vector<int>{2, 2})),
      InternalError);
}

TEST(BlockShapeTest, RejectsBadExtents) {
  EXPECT_THROW(BlockShape(std::vector<int>{0, 2}), InternalError);
  EXPECT_THROW(BlockShape(std::vector<int>{1, 2, 3, 4, 5, 6, 7}),
               InternalError);
}

// ---------------------------------------------------------------------
// BlockPool.

TEST(BlockPoolTest, AllocatesFromMatchingClass) {
  BlockPool pool({{16, 2}, {64, 1}}, /*allow_heap_fallback=*/false);
  PoolBuffer a = pool.allocate(10);
  EXPECT_GE(a.capacity(), 10u);
  EXPECT_EQ(a.capacity(), 16u);  // smallest class that fits
  PoolBuffer b = pool.allocate(60);
  EXPECT_EQ(b.capacity(), 64u);
  EXPECT_EQ(pool.stats().pool_allocs, 2u);
  EXPECT_EQ(pool.stats().heap_fallbacks, 0u);
}

TEST(BlockPoolTest, StrictModeThrowsWhenExhausted) {
  BlockPool pool({{8, 1}}, /*allow_heap_fallback=*/false);
  PoolBuffer a = pool.allocate(8);
  EXPECT_EQ(pool.free_slots_for(8), 0u);
  EXPECT_THROW(pool.allocate(8), RuntimeError);
  // Releasing refills the drained class.
  a = PoolBuffer();
  EXPECT_EQ(pool.free_slots_for(8), 1u);
  EXPECT_TRUE(pool.allocate(8).valid());
}

TEST(BlockPoolTest, SlotsAreRecycled) {
  BlockPool pool({{8, 1}}, /*allow_heap_fallback=*/false);
  double* first = nullptr;
  {
    PoolBuffer a = pool.allocate(8);
    first = a.data();
  }
  PoolBuffer b = pool.allocate(8);
  EXPECT_EQ(b.data(), first);
}

TEST(BlockPoolTest, BlockFromDirtyRecycledSlotReadsZero) {
  // The arena is never zeroed, so a recycled slot keeps whatever its last
  // block wrote; the Block constructor must clear it.
  const BlockShape shape(std::vector<int>{2, 3, 4});
  BlockPool pool({{shape.element_count(), 1}}, /*allow_heap_fallback=*/false);
  double* slot = nullptr;
  {
    PoolBuffer buffer = pool.allocate(shape.element_count());
    slot = buffer.data();
    std::fill_n(slot, buffer.capacity(), std::nan(""));
  }
  const Block block(shape, pool.allocate(shape.element_count()));
  ASSERT_EQ(block.data().data(), slot);
  for (const double v : block.data()) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(block.norm(), 0.0);
}

TEST(BlockPoolTest, HeapFallbackCounted) {
  BlockPool pool({{8, 1}}, /*allow_heap_fallback=*/true);
  PoolBuffer a = pool.allocate(8);
  PoolBuffer b = pool.allocate(8);   // class exhausted -> heap
  PoolBuffer c = pool.allocate(100); // larger than any class -> heap
  EXPECT_TRUE(b.valid());
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(pool.stats().heap_fallbacks, 2u);
}

// The high water of a class counts the requests it is the smallest fit
// for, wherever they were served: from the class, a larger one, or the
// heap. A request larger than every class counts nowhere.
TEST(BlockPoolTest, ClassHighWaterCountsTheSmallestFit) {
  BlockPool pool({{8, 1}, {64, 1}}, /*allow_heap_fallback=*/true);
  {
    PoolBuffer a = pool.allocate(8);
    PoolBuffer b = pool.allocate(5);    // class 8 full: served by 64
    PoolBuffer c = pool.allocate(8);    // both full: heap
    PoolBuffer d = pool.allocate(100);  // no class fits: heap
    EXPECT_EQ(b.capacity(), 64u);
    EXPECT_EQ(pool.stats().heap_fallbacks, 2u);
  }
  PoolBuffer e = pool.allocate(64);
  const std::map<std::size_t, std::size_t> high_water =
      pool.stats().class_high_water;
  EXPECT_EQ(high_water.at(8), 3u);
  EXPECT_EQ(high_water.at(64), 1u);
}

TEST(BlockPoolTest, TracksPeakUsage) {
  BlockPool pool({{8, 4}}, false);
  {
    PoolBuffer a = pool.allocate(8);
    PoolBuffer b = pool.allocate(8);
    EXPECT_EQ(pool.stats().in_use_doubles, 16u);
  }
  EXPECT_EQ(pool.stats().in_use_doubles, 0u);
  EXPECT_EQ(pool.stats().peak_in_use_doubles, 16u);
}

TEST(BlockPoolTest, FreeSlotCounting) {
  BlockPool pool({{8, 3}}, false);
  EXPECT_EQ(pool.free_slots_for(5), 3u);
  PoolBuffer a = pool.allocate(5);
  EXPECT_EQ(pool.free_slots_for(5), 2u);
  EXPECT_EQ(pool.free_slots_for(1000), 0u);
}

TEST(BlockPoolTest, MoveTransfersOwnership) {
  BlockPool pool({{8, 1}}, false);
  PoolBuffer a = pool.allocate(8);
  PoolBuffer b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
}

TEST(BlockPoolTest, CrossThreadReleaseReturnsSlot) {
  // A zero-copy block can be dropped on another rank's thread.
  BlockPool pool({{4, 1}}, /*allow_heap_fallback=*/false);
  PoolBuffer buffer = pool.allocate(4);
  std::thread releaser([&] { PoolBuffer moved = std::move(buffer); });
  releaser.join();
  EXPECT_EQ(pool.free_slots_for(4), 1u);
  EXPECT_TRUE(pool.allocate(4).valid());
}

TEST(BlockPoolTest, ConcurrentChurnBalances) {
  BlockPool pool({{32, 64}}, /*allow_heap_fallback=*/true);
  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      std::vector<PoolBuffer> live;
      for (int i = 0; i < kIters; ++i) {
        live.push_back(pool.allocate(1 + (i * 7 + t * 13) % 32));
        if (live.size() > 8) live.erase(live.begin());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const BlockPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.in_use_doubles, 0u);
  EXPECT_GT(stats.pool_allocs, 0u);
  EXPECT_GT(stats.peak_in_use_doubles, 0u);
}

// Kilobytes of transparent huge pages backing [begin, end): the sum of
// AnonHugePages over the mappings in /proc/self/smaps that overlap it.
long huge_page_kb(const void* begin, const void* end) {
  const auto lo = reinterpret_cast<std::uintptr_t>(begin);
  const auto hi = reinterpret_cast<std::uintptr_t>(end);
  std::ifstream in("/proc/self/smaps");
  std::string line;
  bool overlaps = false;
  long kb = 0;
  while (std::getline(in, line)) {
    std::uintptr_t start = 0, stop = 0;
    if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR, &start,
                    &stop) == 2) {
      overlaps = start < hi && lo < stop;
      continue;
    }
    long value = 0;
    if (overlaps &&
        std::sscanf(line.c_str(), "AnonHugePages: %ld kB", &value) == 1) {
      kb += value;
    }
  }
  return kb;
}

// Whether the kernel backs MADV_HUGEPAGE ranges with transparent huge
// pages (mode "always" or "madvise", not "never").
bool transparent_huge_pages_on() {
  std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string modes;
  std::getline(in, modes);
  return !modes.empty() && modes.find("[never]") == std::string::npos;
}

TEST(BlockPoolTest, ArenaIsHugePageAligned) {
  // The CCD workload's size class: 512 KiB slots, here 16 of them (8 MiB).
  constexpr std::size_t kSlotDoubles = 64 * 1024;
  constexpr std::size_t kSlots = 16;
  constexpr std::size_t kPageDoubles = 4096 / sizeof(double);
  BlockPool pool({{kSlotDoubles, kSlots}}, /*allow_heap_fallback=*/false);
  std::vector<PoolBuffer> slots;
  for (std::size_t s = 0; s < kSlots; ++s) {
    slots.push_back(pool.allocate(kSlotDoubles));
  }
  // The lowest slot is the arena's start.
  const double* arena =
      std::min_element(slots.begin(), slots.end(),
                       [](const PoolBuffer& a, const PoolBuffer& b) {
                         return a.data() < b.data();
                       })
          ->data();
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena) % (std::size_t{2} << 20),
            0u);

  if (!transparent_huge_pages_on()) {
    GTEST_SKIP() << "transparent huge pages are off";
  }
  // One store per 4 KiB page; the kernel backs the whole arena with 2 MiB
  // pages. (The arena's own mapping is checked, not the process's fault
  // count, which sanitizer shadow memory inflates.)
  for (PoolBuffer& slot : slots) {
    for (std::size_t i = 0; i < kSlotDoubles; i += kPageDoubles) {
      slot.data()[i] = 1.0;
    }
  }
  constexpr long kArenaKb = kSlots * kSlotDoubles * sizeof(double) / 1024;
  EXPECT_GE(huge_page_kb(arena, arena + kSlots * kSlotDoubles), kArenaKb);
}

// ---------------------------------------------------------------------
// BlockCache.

BlockPtr make_block(std::size_t elements) {
  return std::make_shared<Block>(
      BlockShape(std::vector<int>{static_cast<int>(elements)}));
}

BlockId bid(int array, int seg) {
  return BlockId(array, std::vector<int>{seg});
}

TEST(BlockCacheTest, HitAndMissCounting) {
  BlockCache cache(100);
  cache.put(bid(0, 1), make_block(10));
  EXPECT_NE(cache.get(bid(0, 1)), nullptr);
  EXPECT_EQ(cache.get(bid(0, 2)), nullptr);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(BlockCacheTest, EvictsLeastRecentlyUsed) {
  BlockCache cache(30);
  cache.put(bid(0, 1), make_block(10));
  cache.put(bid(0, 2), make_block(10));
  cache.put(bid(0, 3), make_block(10));
  cache.get(bid(0, 1));                  // refresh 1
  cache.put(bid(0, 4), make_block(10));  // evicts 2 (LRU)
  EXPECT_TRUE(cache.contains(bid(0, 1)));
  EXPECT_FALSE(cache.contains(bid(0, 2)));
  EXPECT_TRUE(cache.contains(bid(0, 3)));
  EXPECT_TRUE(cache.contains(bid(0, 4)));
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(BlockCacheTest, SharedBlocksAreEvictableAndStayValid) {
  // Eviction drops the cache's reference only; outside holders keep the
  // block alive. (Zero-copy transfers hand out aliased shared_ptrs, so
  // shared entries must stay evictable or they would pin the cache full.)
  BlockCache cache(20);
  BlockPtr held = make_block(10);
  held->data()[0] = 42.0;
  cache.put(bid(0, 1), held);  // use_count 2: cache + local
  cache.put(bid(0, 2), make_block(10));
  cache.put(bid(0, 3), make_block(10));  // evicts LRU entry 1
  EXPECT_FALSE(cache.contains(bid(0, 1)));
  EXPECT_TRUE(cache.contains(bid(0, 2)));
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(held->data()[0], 42.0);
}

TEST(BlockCacheTest, VictimHandlerSeesDirtyFlag) {
  std::vector<std::pair<BlockId, bool>> victims;
  BlockCache cache(20, [&](const BlockId& id, const BlockPtr&, bool dirty) {
    victims.emplace_back(id, dirty);
  });
  cache.put(bid(0, 1), make_block(10), /*dirty=*/true);
  cache.put(bid(0, 2), make_block(10), /*dirty=*/false);
  cache.put(bid(0, 3), make_block(10));  // evicts 1 (dirty)
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0].first, bid(0, 1));
  EXPECT_TRUE(victims[0].second);
}

TEST(BlockCacheTest, OversizedBlockPassesThrough) {
  bool saw = false;
  BlockCache cache(5, [&](const BlockId&, const BlockPtr&, bool dirty) {
    saw = dirty;
  });
  cache.put(bid(0, 1), make_block(10), /*dirty=*/true);
  EXPECT_TRUE(saw);
  EXPECT_FALSE(cache.contains(bid(0, 1)));
}

TEST(BlockCacheTest, FlushDirtyKeepsEntries) {
  int flushed = 0;
  BlockCache cache(100, [&](const BlockId&, const BlockPtr&, bool) {
    ++flushed;
  });
  cache.put(bid(0, 1), make_block(10), true);
  cache.put(bid(0, 2), make_block(10), false);
  cache.flush_dirty();
  EXPECT_EQ(flushed, 1);
  EXPECT_TRUE(cache.contains(bid(0, 1)));
  cache.flush_dirty();  // now clean; nothing happens
  EXPECT_EQ(flushed, 1);
}

TEST(BlockCacheTest, EraseArrayRemovesOnlyThatArray) {
  BlockCache cache(100);
  cache.put(bid(0, 1), make_block(5));
  cache.put(bid(0, 2), make_block(5));
  cache.put(bid(1, 1), make_block(5));
  EXPECT_EQ(cache.erase_array(0), 2u);
  EXPECT_FALSE(cache.contains(bid(0, 1)));
  EXPECT_TRUE(cache.contains(bid(1, 1)));
}

TEST(BlockCacheTest, ReplacementUpdatesAccounting) {
  BlockCache cache(100);
  cache.put(bid(0, 1), make_block(10));
  EXPECT_EQ(cache.size_doubles(), 10u);
  cache.put(bid(0, 1), make_block(20));
  EXPECT_EQ(cache.size_doubles(), 20u);
  EXPECT_EQ(cache.entry_count(), 1u);
}

}  // namespace
}  // namespace sia
