#include "storage/partition_cache.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "test_util.h"

namespace tardis {
namespace {

PartitionArena MakeArena(uint64_t rid_base, size_t count, uint32_t length) {
  std::vector<Record> records(count);
  for (size_t i = 0; i < count; ++i) {
    records[i].rid = rid_base + i;
    records[i].values.assign(length, static_cast<float>(rid_base + i));
  }
  return PartitionArena::FromRecords(records, length);
}

// A loader returning a `count`-record arena and counting its invocations.
PartitionCache::Loader CountingLoader(std::atomic<uint32_t>* calls,
                                      uint64_t rid_base, size_t count = 4) {
  return [calls, rid_base, count]() -> Result<PartitionArena> {
    calls->fetch_add(1);
    return MakeArena(rid_base, count, 8);
  };
}

TEST(PartitionCacheTest, HitAfterMissReturnsSameObject) {
  PartitionCache cache(/*budget_bytes=*/1 << 20);
  std::atomic<uint32_t> calls{0};
  ASSERT_OK_AND_ASSIGN(PartitionCache::Value first,
                       cache.GetOrLoad(3, CountingLoader(&calls, 30)));
  ASSERT_OK_AND_ASSIGN(PartitionCache::Value second,
                       cache.GetOrLoad(3, CountingLoader(&calls, 30)));
  EXPECT_EQ(calls.load(), 1u);
  EXPECT_EQ(first.get(), second.get());
  ASSERT_EQ(first->num_records(), 4u);
  EXPECT_EQ(first->rid(0), 30u);

  const PartitionCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_partitions, 1u);
  EXPECT_EQ(stats.loaded_bytes, PartitionCache::ChargedBytes(*first));
  EXPECT_EQ(stats.resident_bytes, stats.loaded_bytes);
  EXPECT_EQ(stats.Lookups(), 2u);
}

TEST(PartitionCacheTest, BudgetEvictsLeastRecentlyUsed) {
  // Budget fits exactly two partitions; a single shard makes LRU order
  // deterministic.
  const uint64_t one = PartitionCache::ChargedBytes(MakeArena(0, 4, 8));
  PartitionCache cache(2 * one, /*num_shards=*/1);
  std::atomic<uint32_t> calls{0};

  ASSERT_OK(cache.GetOrLoad(1, CountingLoader(&calls, 10)).status());
  ASSERT_OK(cache.GetOrLoad(2, CountingLoader(&calls, 20)).status());
  EXPECT_EQ(cache.Snapshot().resident_partitions, 2u);

  // Touch 1 so that 2 becomes the LRU victim, then overflow with 3.
  ASSERT_OK(cache.GetOrLoad(1, CountingLoader(&calls, 10)).status());
  ASSERT_OK(cache.GetOrLoad(3, CountingLoader(&calls, 30)).status());

  PartitionCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_partitions, 2u);
  EXPECT_LE(stats.resident_bytes, 2 * one);

  // 1 and 3 are resident (no new load); 2 was evicted (reload).
  ASSERT_OK(cache.GetOrLoad(1, CountingLoader(&calls, 10)).status());
  ASSERT_OK(cache.GetOrLoad(3, CountingLoader(&calls, 30)).status());
  EXPECT_EQ(calls.load(), 3u);
  ASSERT_OK(cache.GetOrLoad(2, CountingLoader(&calls, 20)).status());
  EXPECT_EQ(calls.load(), 4u);
}

TEST(PartitionCacheTest, ZeroBudgetStillDeduplicatesButCachesNothing) {
  PartitionCache cache(/*budget_bytes=*/0, /*num_shards=*/1);
  std::atomic<uint32_t> calls{0};
  ASSERT_OK(cache.GetOrLoad(7, CountingLoader(&calls, 70)).status());
  ASSERT_OK(cache.GetOrLoad(7, CountingLoader(&calls, 70)).status());
  EXPECT_EQ(calls.load(), 2u);
  const PartitionCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.resident_partitions, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
}

TEST(PartitionCacheTest, SingleFlightCoalescesConcurrentMisses) {
  PartitionCache cache(/*budget_bytes=*/1 << 20);
  std::atomic<uint32_t> calls{0};
  auto slow_loader = [&calls]() -> Result<PartitionArena> {
    calls.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return MakeArena(50, 16, 8);
  };

  constexpr size_t kThreads = 8;
  ThreadPool pool(kThreads);
  std::mutex mu;
  std::vector<PartitionCache::Value> values;
  for (size_t i = 0; i < kThreads; ++i) {
    pool.Submit([&] {
      auto loaded = cache.GetOrLoad(5, slow_loader);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      std::lock_guard<std::mutex> lock(mu);
      values.push_back(*loaded);
    });
  }
  pool.Wait();

  // Exactly one disk read; everyone shares the same decoded arena.
  EXPECT_EQ(calls.load(), 1u);
  ASSERT_EQ(values.size(), kThreads);
  for (const auto& value : values) {
    EXPECT_EQ(value.get(), values[0].get());
  }
  const PartitionCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.misses, 1u);
  // Late arrivals may land after publication (plain hits); everyone else
  // piggybacked on the in-flight load.
  EXPECT_EQ(stats.hits + stats.coalesced, kThreads - 1);
}

TEST(PartitionCacheTest, LoaderErrorsAreNotCached) {
  PartitionCache cache(/*budget_bytes=*/1 << 20);
  std::atomic<uint32_t> calls{0};
  auto flaky = [&calls]() -> Result<PartitionArena> {
    if (calls.fetch_add(1) == 0) return Status::IOError("transient");
    return MakeArena(90, 2, 8);
  };
  EXPECT_TRUE(cache.GetOrLoad(9, flaky).status().IsIOError());
  ASSERT_OK_AND_ASSIGN(PartitionCache::Value value, cache.GetOrLoad(9, flaky));
  EXPECT_EQ(value->num_records(), 2u);
  EXPECT_EQ(calls.load(), 2u);
  EXPECT_EQ(cache.Snapshot().misses, 2u);
}

TEST(PartitionCacheTest, InvalidateForcesReload) {
  PartitionCache cache(/*budget_bytes=*/1 << 20);
  std::atomic<uint32_t> calls{0};
  ASSERT_OK(cache.GetOrLoad(4, CountingLoader(&calls, 40)).status());
  cache.Invalidate(4);
  EXPECT_EQ(cache.Snapshot().resident_partitions, 0u);
  ASSERT_OK(cache.GetOrLoad(4, CountingLoader(&calls, 40)).status());
  EXPECT_EQ(calls.load(), 2u);
  // Invalidating an absent pid is a no-op.
  cache.Invalidate(999);
}

TEST(PartitionCacheTest, ClearDropsAllShards) {
  PartitionCache cache(/*budget_bytes=*/1 << 20);
  std::atomic<uint32_t> calls{0};
  for (PartitionId pid = 0; pid < 10; ++pid) {
    ASSERT_OK(cache.GetOrLoad(pid, CountingLoader(&calls, pid)).status());
  }
  EXPECT_EQ(cache.Snapshot().resident_partitions, 10u);
  cache.Clear();
  const PartitionCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.resident_partitions, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_EQ(stats.evictions, 10u);
}

TEST(PartitionCacheTest, PinnedEntrySurvivesBudgetPressure) {
  // Budget fits exactly two partitions; pinning 1 makes 2 the only legal
  // victim even though 1 is the colder entry.
  const uint64_t one = PartitionCache::ChargedBytes(MakeArena(0, 4, 8));
  PartitionCache cache(2 * one, /*num_shards=*/1);
  std::atomic<uint32_t> calls{0};

  ASSERT_OK(cache.GetOrLoad(1, CountingLoader(&calls, 10)).status());
  cache.Pin(1);
  ASSERT_OK(cache.GetOrLoad(2, CountingLoader(&calls, 20)).status());
  EXPECT_EQ(cache.Snapshot().pinned_partitions, 1u);

  // Overflow: 1 is LRU but pinned, so 2 is evicted instead.
  ASSERT_OK(cache.GetOrLoad(3, CountingLoader(&calls, 30)).status());
  ASSERT_OK(cache.GetOrLoad(1, CountingLoader(&calls, 10)).status());
  EXPECT_EQ(calls.load(), 3u);  // 1 never reloaded
  ASSERT_OK(cache.GetOrLoad(2, CountingLoader(&calls, 20)).status());
  EXPECT_EQ(calls.load(), 4u);  // 2 was the victim

  // After unpinning, 1 (the LRU of the resident {1, 2}) is evictable again.
  cache.Unpin(1);
  EXPECT_EQ(cache.Snapshot().pinned_partitions, 0u);
  ASSERT_OK(cache.GetOrLoad(3, CountingLoader(&calls, 30)).status());
  ASSERT_OK(cache.GetOrLoad(2, CountingLoader(&calls, 20)).status());
  EXPECT_EQ(calls.load(), 5u);  // 3 missed, 2 was still resident
  ASSERT_OK(cache.GetOrLoad(1, CountingLoader(&calls, 10)).status());
  EXPECT_EQ(calls.load(), 6u);  // 1 really was evicted this time
}

TEST(PartitionCacheTest, PinIsRefCountedAndSurvivesWhenAllPinned) {
  const uint64_t one = PartitionCache::ChargedBytes(MakeArena(0, 4, 8));
  PartitionCache cache(one, /*num_shards=*/1);  // budget fits a single entry
  std::atomic<uint32_t> calls{0};

  ASSERT_OK(cache.GetOrLoad(1, CountingLoader(&calls, 10)).status());
  cache.Pin(1);
  cache.Pin(1);
  // Pinning ahead of the load is allowed (the pid is not resident yet), and
  // protects the entry from the insert-time eviction pass.
  cache.Pin(2);
  ASSERT_OK(cache.GetOrLoad(2, CountingLoader(&calls, 20)).status());
  ASSERT_OK(cache.GetOrLoad(1, CountingLoader(&calls, 10)).status());
  ASSERT_OK(cache.GetOrLoad(2, CountingLoader(&calls, 20)).status());
  EXPECT_EQ(calls.load(), 2u);
  // No unpinned victim existed, so the budget transiently overshoots rather
  // than evicting a pinned entry.
  EXPECT_GE(cache.Snapshot().resident_bytes, 2 * one);
  EXPECT_EQ(cache.Snapshot().pinned_partitions, 2u);

  cache.Unpin(1);  // refcounted: still pinned once
  EXPECT_EQ(cache.Snapshot().pinned_partitions, 2u);
  cache.Unpin(1);
  cache.Unpin(2);
  EXPECT_EQ(cache.Snapshot().pinned_partitions, 0u);

  // With every pin gone the next insert shrinks back under the budget.
  ASSERT_OK(cache.GetOrLoad(3, CountingLoader(&calls, 30)).status());
  EXPECT_EQ(cache.Snapshot().resident_partitions, 1u);
}

TEST(PartitionCacheTest, UnpinEvictsBackUnderBudget) {
  // Two shards of two entries each. A batch pins ten partitions, so the
  // cache holds all ten while the pins last; the last unpin of each entry
  // brings its shard back under budget without waiting for another insert.
  const uint64_t one = PartitionCache::ChargedBytes(MakeArena(0, 4, 8));
  PartitionCache cache(4 * one, /*num_shards=*/2);
  std::atomic<uint32_t> calls{0};
  for (PartitionCache::Key key = 0; key < 10; ++key) {
    cache.Pin(key);
    ASSERT_OK(cache.GetOrLoad(key, CountingLoader(&calls, 10 * key)).status());
  }
  PartitionCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.resident_bytes, 10 * one);
  EXPECT_EQ(stats.evictions, 0u);

  for (PartitionCache::Key key = 0; key < 10; ++key) cache.Unpin(key);
  stats = cache.Snapshot();
  EXPECT_EQ(stats.pinned_partitions, 0u);
  EXPECT_LE(stats.resident_bytes, cache.budget_bytes());
  EXPECT_EQ(stats.resident_partitions, 4u);
  EXPECT_EQ(stats.evictions, 6u);

  // The survivors are each shard's most recently used entries.
  for (PartitionCache::Key key : {6, 7, 8, 9}) {
    EXPECT_TRUE(cache.IsResident(key)) << key;
  }
  EXPECT_EQ(calls.load(), 10u);
}

TEST(PartitionCacheTest, InvalidateDropsPinnedEntries) {
  // Pins protect residency, not freshness: explicit invalidation wins (the
  // index uses it when a partition's bytes change on disk).
  PartitionCache cache(/*budget_bytes=*/1 << 20, /*num_shards=*/1);
  std::atomic<uint32_t> calls{0};
  ASSERT_OK(cache.GetOrLoad(1, CountingLoader(&calls, 10)).status());
  cache.Pin(1);
  cache.Invalidate(1);
  EXPECT_EQ(cache.Snapshot().resident_partitions, 0u);
  ASSERT_OK(cache.GetOrLoad(1, CountingLoader(&calls, 10)).status());
  EXPECT_EQ(calls.load(), 2u);
}

TEST(PartitionCacheTest, ClearKeepsPinnedEntriesResidentAndCharged) {
  // Clear honors the same pin exemption as budget eviction: a pinned entry
  // stays resident, stays charged, and is not counted as an eviction.
  PartitionCache cache(/*budget_bytes=*/1 << 20, /*num_shards=*/1);
  std::atomic<uint32_t> calls{0};
  ASSERT_OK_AND_ASSIGN(PartitionCache::Value pinned,
                       cache.GetOrLoad(1, CountingLoader(&calls, 10)));
  ASSERT_OK(cache.GetOrLoad(2, CountingLoader(&calls, 20)).status());
  cache.Pin(1);

  cache.Clear();
  PartitionCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.resident_partitions, 1u);
  EXPECT_EQ(stats.resident_bytes, PartitionCache::ChargedBytes(*pinned));
  EXPECT_EQ(stats.evictions, 1u);  // only the unpinned entry

  // The pinned entry is still served from memory.
  ASSERT_OK(cache.GetOrLoad(1, CountingLoader(&calls, 10)).status());
  EXPECT_EQ(calls.load(), 2u);

  // Once unpinned it clears like anything else.
  cache.Unpin(1);
  cache.Clear();
  stats = cache.Snapshot();
  EXPECT_EQ(stats.resident_partitions, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST(PartitionCacheTest, TinyBudgetStillRetainsMostRecentEntryPerShard) {
  // A positive budget below the shard count used to floor-divide to
  // zero-budget shards that evicted every insert immediately. Each shard's
  // budget is now ceil-divided and the most-recent entry is always retained.
  PartitionCache cache(/*budget_bytes=*/1, /*num_shards=*/8);
  std::atomic<uint32_t> calls{0};
  ASSERT_OK(cache.GetOrLoad(0, CountingLoader(&calls, 0)).status());
  ASSERT_OK(cache.GetOrLoad(0, CountingLoader(&calls, 0)).status());
  EXPECT_EQ(calls.load(), 1u);  // second lookup is a hit
  PartitionCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.resident_partitions, 1u);

  // A second pid in the same shard (8 % 8 == 0) displaces the first; the
  // shard keeps exactly its most recent entry.
  ASSERT_OK(cache.GetOrLoad(8, CountingLoader(&calls, 80)).status());
  stats = cache.Snapshot();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_partitions, 1u);
  ASSERT_OK(cache.GetOrLoad(8, CountingLoader(&calls, 80)).status());
  EXPECT_EQ(calls.load(), 2u);
}

TEST(PartitionCacheTest, OversizedEntryIsServedNotThrashed) {
  // One entry larger than the whole (positive) budget stays resident until
  // something displaces it, instead of being insert-then-evicted.
  const uint64_t one = PartitionCache::ChargedBytes(MakeArena(0, 4, 8));
  PartitionCache cache(one / 2, /*num_shards=*/1);
  std::atomic<uint32_t> calls{0};
  ASSERT_OK(cache.GetOrLoad(1, CountingLoader(&calls, 10)).status());
  ASSERT_OK(cache.GetOrLoad(1, CountingLoader(&calls, 10)).status());
  EXPECT_EQ(calls.load(), 1u);
  EXPECT_EQ(cache.Snapshot().evictions, 0u);

  // A newer entry takes over as the retained one.
  ASSERT_OK(cache.GetOrLoad(2, CountingLoader(&calls, 20)).status());
  const PartitionCacheStats stats = cache.Snapshot();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_partitions, 1u);
}

TEST(PartitionCacheTest, ScopedPinUnpinsOnDestruction) {
  PartitionCache cache(/*budget_bytes=*/1 << 20, /*num_shards=*/1);
  std::atomic<uint32_t> calls{0};
  ASSERT_OK(cache.GetOrLoad(1, CountingLoader(&calls, 10)).status());
  {
    ScopedPin pin(&cache, 1);
    EXPECT_EQ(cache.Snapshot().pinned_partitions, 1u);
    ScopedPin moved = std::move(pin);  // ownership transfers, no double unpin
    EXPECT_EQ(cache.Snapshot().pinned_partitions, 1u);
  }
  EXPECT_EQ(cache.Snapshot().pinned_partitions, 0u);
  // Null cache and pinning a non-resident pid are both fine.
  ScopedPin noop(nullptr, 7);
  ScopedPin absent(&cache, 99);
  EXPECT_EQ(cache.Snapshot().pinned_partitions, 1u);
}

TEST(PartitionCacheTest, ChargedBytesScalesWithPayload) {
  const uint64_t small = PartitionCache::ChargedBytes(MakeArena(0, 2, 8));
  const uint64_t large = PartitionCache::ChargedBytes(MakeArena(0, 20, 8));
  EXPECT_GT(large, small);
  const uint64_t longer = PartitionCache::ChargedBytes(MakeArena(0, 2, 256));
  EXPECT_GT(longer, small);
}

TEST(PartitionCacheTest, ChargedBytesEqualsArenaFootprint) {
  // Regression: the AoS predecessor charged only the encoded payload size,
  // ignoring per-record heap-block overhead. The arena charge must equal the
  // exact allocation (plane + rids + struct) so the budget is honest.
  for (const auto& [count, length] : std::initializer_list<
           std::pair<size_t, uint32_t>>{{0, 8}, {4, 8}, {3, 7}, {100, 256}}) {
    const PartitionArena arena = MakeArena(0, count, length);
    EXPECT_EQ(PartitionCache::ChargedBytes(arena),
              sizeof(PartitionArena) + arena.AllocatedBytes());
    EXPECT_EQ(arena.FootprintBytes(),
              sizeof(PartitionArena) + arena.AllocatedBytes());
    if (count > 0) {
      // The allocation covers at least the values plane and the rid array.
      EXPECT_GE(arena.AllocatedBytes(),
                count * length * sizeof(float) + count * sizeof(RecordId));
    } else {
      EXPECT_EQ(arena.AllocatedBytes(), 0u);
    }
  }
}

TEST(PartitionCacheTest, MakeKeySeparatesGenerations) {
  // (partition, content generation) keys: the same partition under two
  // epochs must occupy distinct slots, so an old-epoch reader keeps hitting
  // its snapshot's content after an Append publishes a newer generation.
  EXPECT_NE(PartitionCache::MakeKey(3, 0), PartitionCache::MakeKey(3, 1));
  EXPECT_NE(PartitionCache::MakeKey(3, 1), PartitionCache::MakeKey(4, 1));
  EXPECT_EQ(PartitionCache::MakeKey(3, 7), PartitionCache::MakeKey(3, 7));

  PartitionCache cache(/*budget_bytes=*/1 << 20);
  std::atomic<uint32_t> old_calls{0}, new_calls{0};
  const PartitionCache::Key old_key = PartitionCache::MakeKey(3, 1);
  const PartitionCache::Key new_key = PartitionCache::MakeKey(3, 2);
  ASSERT_OK_AND_ASSIGN(PartitionCache::Value old_val,
                       cache.GetOrLoad(old_key, CountingLoader(&old_calls, 30)));
  ASSERT_OK_AND_ASSIGN(PartitionCache::Value new_val,
                       cache.GetOrLoad(new_key, CountingLoader(&new_calls, 60)));
  EXPECT_NE(old_val.get(), new_val.get());
  // Both stay independently resident; re-reads hit.
  ASSERT_OK_AND_ASSIGN(PartitionCache::Value again,
                       cache.GetOrLoad(old_key, CountingLoader(&old_calls, 30)));
  EXPECT_EQ(again.get(), old_val.get());
  EXPECT_EQ(old_calls.load(), 1u);
  EXPECT_EQ(new_calls.load(), 1u);
}

TEST(PartitionCacheTest, DeprioritizeMakesEntryNextVictim) {
  // One shard so LRU order is observable; budget fits exactly two entries.
  const PartitionArena probe = MakeArena(0, 4, 8);
  const uint64_t entry_bytes = PartitionCache::ChargedBytes(probe);
  PartitionCache cache(2 * entry_bytes, /*num_shards=*/1);
  std::atomic<uint32_t> calls_a{0}, calls_b{0}, calls_c{0};
  ASSERT_OK(cache.GetOrLoad(1, CountingLoader(&calls_a, 10)).status());
  ASSERT_OK(cache.GetOrLoad(2, CountingLoader(&calls_b, 20)).status());
  // LRU order is [2, 1]; without the hint, inserting 3 would evict 1.
  // Deprioritize(2) moves 2 to the cold end, so 2 goes instead.
  cache.Deprioritize(2);
  ASSERT_OK(cache.GetOrLoad(3, CountingLoader(&calls_c, 30)).status());
  EXPECT_TRUE(cache.IsResident(1));
  EXPECT_FALSE(cache.IsResident(2));
  EXPECT_TRUE(cache.IsResident(3));
}

TEST(PartitionCacheTest, DeprioritizeIsANoOpForAbsentAndPinnedKeys) {
  const PartitionArena probe = MakeArena(0, 4, 8);
  const uint64_t entry_bytes = PartitionCache::ChargedBytes(probe);
  PartitionCache cache(2 * entry_bytes, /*num_shards=*/1);
  cache.Deprioritize(99);  // absent: nothing to do, nothing to crash on
  std::atomic<uint32_t> calls{0};
  ASSERT_OK(cache.GetOrLoad(1, CountingLoader(&calls, 10)).status());
  ASSERT_OK(cache.GetOrLoad(2, CountingLoader(&calls, 20)).status());
  // A pinned entry never becomes the hinted victim: a superseded epoch that
  // an in-flight batch still holds pinned must stay resident.
  cache.Pin(1);
  cache.Deprioritize(1);
  ASSERT_OK(cache.GetOrLoad(3, CountingLoader(&calls, 30)).status());
  EXPECT_TRUE(cache.IsResident(1));
  cache.Unpin(1);
}

}  // namespace
}  // namespace tardis
