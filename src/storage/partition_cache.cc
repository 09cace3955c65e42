#include "storage/partition_cache.h"

#include <algorithm>

namespace tardis {

PartitionCache::PartitionCache(uint64_t budget_bytes, size_t num_shards)
    : budget_bytes_(budget_bytes),
      hits_(std::make_shared<telemetry::Counter>()),
      misses_(std::make_shared<telemetry::Counter>()),
      coalesced_(std::make_shared<telemetry::Counter>()),
      evictions_(std::make_shared<telemetry::Counter>()),
      loaded_bytes_(std::make_shared<telemetry::Counter>()),
      resident_bytes_(std::make_shared<telemetry::Gauge>()),
      resident_partitions_(std::make_shared<telemetry::Gauge>()),
      pinned_partitions_(std::make_shared<telemetry::Gauge>()) {
  const size_t shards = std::max<size_t>(1, num_shards);
  // Ceil-divide: a budget smaller than the shard count must not round every
  // shard down to zero (which would insert-then-evict every single load).
  shard_budget_ = (budget_bytes + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  auto& registry = telemetry::Registry::Global();
  registry.RegisterCounter("tardis.cache.hits", hits_);
  registry.RegisterCounter("tardis.cache.misses", misses_);
  registry.RegisterCounter("tardis.cache.coalesced", coalesced_);
  registry.RegisterCounter("tardis.cache.evictions", evictions_);
  registry.RegisterCounter("tardis.cache.loaded_bytes", loaded_bytes_);
  registry.RegisterGauge("tardis.cache.resident_bytes", resident_bytes_);
  registry.RegisterGauge("tardis.cache.resident_partitions",
                         resident_partitions_);
  registry.RegisterGauge("tardis.cache.pinned_partitions", pinned_partitions_);
}

uint64_t PartitionCache::ChargedBytes(const PartitionArena& arena) {
  // Exact: the arena is one aligned allocation plus the object header, so
  // charged bytes equal allocated bytes — no per-record heap blocks to
  // estimate (the AoS layout's undercounting bug).
  return arena.FootprintBytes();
}

Result<PartitionCache::Value> PartitionCache::GetOrLoad(Key key,
                                                        const Loader& loader) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);

  auto hit = shard.entries.find(key);
  if (hit != shard.entries.end()) {
    shard.lru.splice(shard.lru.begin(), shard.lru, hit->second.lru_it);
    hits_->Add(1);
    return hit->second.value;
  }

  auto flight = shard.inflight.find(key);
  if (flight != shard.inflight.end()) {
    // Another thread is already reading this partition: piggyback on it.
    std::shared_ptr<InFlight> fl = flight->second;
    coalesced_->Add(1);
    while (!fl->done) fl->cv.Wait(lock);
    if (!fl->error.ok()) return fl->error;
    return fl->value;
  }

  auto fl = std::make_shared<InFlight>();
  shard.inflight.emplace(key, fl);
  misses_->Add(1);
  lock.Unlock();

  Result<PartitionArena> loaded = [&loader] {
    static telemetry::Histogram& load_us =
        telemetry::Registry::Global().GetHistogram("tardis.cache.load_us");
    telemetry::ScopedLatency timer(load_us);
    return loader();
  }();

  lock.Lock();
  shard.inflight.erase(key);
  if (!loaded.ok()) {
    fl->error = loaded.status();
    fl->done = true;
    fl->cv.NotifyAll();
    return fl->error;
  }
  Value value = std::make_shared<const PartitionArena>(std::move(*loaded));
  const uint64_t bytes = ChargedBytes(*value);
  loaded_bytes_->Add(bytes);
  fl->value = value;
  fl->done = true;
  fl->cv.NotifyAll();
  InsertAndEvict(shard, key, value, bytes);
  return value;
}

void PartitionCache::InsertAndEvict(Shard& shard, Key key, Value value,
                                    uint64_t bytes) {
  shard.lru.push_front(key);
  Entry entry;
  entry.value = std::move(value);
  entry.bytes = bytes;
  entry.lru_it = shard.lru.begin();
  shard.entries[key] = std::move(entry);
  shard.bytes += bytes;
  resident_bytes_->Add(static_cast<int64_t>(bytes));
  resident_partitions_->Add(1);
  EvictToBudget(shard);
}

void PartitionCache::EvictToBudget(Shard& shard) {
  while (shard.bytes > shard_budget_ && !shard.lru.empty()) {
    // Least-recently-used *unpinned* entry; if everything resident is
    // pinned, the shard stays over budget until a pin drops. With any
    // positive budget the most-recently-used entry (on insert, the one just
    // inserted) is also exempt, so one oversized partition is served rather
    // than thrashed (a zero budget keeps the documented insert-then-evict
    // degenerate semantics).
    auto victim_it = shard.lru.end();
    for (auto rit = shard.lru.rbegin(); rit != shard.lru.rend(); ++rit) {
      if (shard_budget_ > 0 && *rit == shard.lru.front()) continue;
      if (shard.pins.find(*rit) == shard.pins.end()) {
        victim_it = std::prev(rit.base());
        break;
      }
    }
    if (victim_it == shard.lru.end()) break;
    const Key victim = *victim_it;
    shard.lru.erase(victim_it);
    auto it = shard.entries.find(victim);
    shard.bytes -= it->second.bytes;
    resident_bytes_->Add(-static_cast<int64_t>(it->second.bytes));
    resident_partitions_->Add(-1);
    shard.entries.erase(it);
    evictions_->Add(1);
  }
}

void PartitionCache::Pin(Key key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  if (++shard.pins[key] == 1) pinned_partitions_->Add(1);
}

void PartitionCache::Unpin(Key key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.pins.find(key);
  if (it == shard.pins.end()) return;
  if (--it->second == 0) {
    shard.pins.erase(it);
    pinned_partitions_->Add(-1);
    // The entry was exempt from eviction while pinned; bring the shard back
    // under its budget now that it is not.
    EvictToBudget(shard);
  }
}

void PartitionCache::Deprioritize(Key key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return;
  if (shard.pins.find(key) != shard.pins.end()) return;
  shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_it);
}

void PartitionCache::Invalidate(Key key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) return;
  shard.bytes -= it->second.bytes;
  resident_bytes_->Add(-static_cast<int64_t>(it->second.bytes));
  resident_partitions_->Add(-1);
  shard.lru.erase(it->second.lru_it);
  shard.entries.erase(it);
}

bool PartitionCache::IsResident(Key key) const {
  Shard& shard = *shards_[key % shards_.size()];
  MutexLock lock(shard.mu);
  return shard.entries.find(key) != shard.entries.end();
}

void PartitionCache::Clear() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    // Pinned entries are exempt, exactly as in budget eviction: they stay
    // resident and charged, and are not counted as evictions.
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (shard->pins.find(*it) != shard->pins.end()) {
        ++it;
        continue;
      }
      auto entry = shard->entries.find(*it);
      shard->bytes -= entry->second.bytes;
      resident_bytes_->Add(-static_cast<int64_t>(entry->second.bytes));
      resident_partitions_->Add(-1);
      shard->entries.erase(entry);
      it = shard->lru.erase(it);
      evictions_->Add(1);
    }
  }
}

PartitionCacheStats PartitionCache::Snapshot() const {
  PartitionCacheStats stats;
  stats.hits = hits_->Value();
  stats.misses = misses_->Value();
  stats.coalesced = coalesced_->Value();
  stats.evictions = evictions_->Value();
  stats.loaded_bytes = loaded_bytes_->Value();
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    stats.resident_bytes += shard->bytes;
    stats.resident_partitions += shard->entries.size();
    stats.pinned_partitions += shard->pins.size();
  }
  return stats;
}

}  // namespace tardis
