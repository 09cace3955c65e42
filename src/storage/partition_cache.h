// PartitionCache: a sharded, thread-safe, byte-budgeted LRU cache of decoded
// partitions — the query-side answer to the paper's dominant "load the
// partition" cost (§V, Figs. 14-16). Repeated and concurrent queries for the
// same partition are served from memory instead of re-reading the partition
// file; concurrent misses for one partition coalesce into a single disk read
// (single-flight loading).
//
// Values are immutable shared snapshots (`std::shared_ptr<const
// PartitionArena>`), so an entry evicted while a query still ranks its
// records stays alive until that query drops its reference. The budget is
// split across shards (ceil-divide, so a tiny budget never rounds a shard
// down to zero); each shard evicts least-recently-used entries until it is
// back under its slice — but always retains its most-recently-inserted
// entry — which bounds resident bytes at roughly `budget + one partition
// per shard` at any instant.
//
// Hit/miss/eviction counters are telemetry::Counter instances registered in
// the global registry under "tardis.cache.*" (the registry exports the most
// recently constructed cache; each instance's Snapshot() stays isolated).

#ifndef TARDIS_STORAGE_PARTITION_CACHE_H_
#define TARDIS_STORAGE_PARTITION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/telemetry.h"
#include "common/thread_annotations.h"
#include "storage/partition_arena.h"
#include "storage/record.h"

namespace tardis {

// Monotonic cache counters plus a point-in-time residency snapshot.
struct PartitionCacheStats {
  uint64_t hits = 0;          // lookups served from a resident entry
  uint64_t misses = 0;        // lookups that ran the loader (disk reads)
  uint64_t coalesced = 0;     // lookups that waited on another thread's load
  uint64_t evictions = 0;     // entries dropped to respect the byte budget
  uint64_t loaded_bytes = 0;  // decoded bytes brought in by cache loads
  uint64_t resident_bytes = 0;       // currently cached (approx decoded size)
  uint64_t resident_partitions = 0;  // currently cached entry count
  uint64_t pinned_partitions = 0;    // pids with a positive pin count

  uint64_t Lookups() const { return hits + misses + coalesced; }
};

class PartitionCache {
 public:
  using Value = std::shared_ptr<const PartitionArena>;
  using Loader = std::function<Result<PartitionArena>()>;
  // Cache key: a partition id qualified by its content generation (the epoch
  // generation of its newest delta, or 0 for pristine build output — see
  // storage/manifest.h). Appending to a partition publishes new content under
  // a new key instead of invalidating the old one, so queries pinned to an
  // older epoch keep hitting their snapshot's entries while new-epoch queries
  // load fresh ones. Plain PartitionId arguments widen implicitly to the
  // generation-0 key, which keeps single-epoch callers (DPiSAX, tests)
  // unchanged.
  using Key = uint64_t;

  // Packs (content generation, pid). part_%06u keeps pids < 1e6 < 2^24, so
  // 40 generation bits remain — far past any append count.
  static Key MakeKey(PartitionId pid, uint64_t content_gen) {
    return (content_gen << 24) | static_cast<Key>(pid);
  }

  // `budget_bytes` caps the resident decoded bytes (see ChargedBytes); with a
  // budget of 0 every load is evicted as soon as it is inserted, so the cache
  // degenerates to pure single-flight deduplication.
  explicit PartitionCache(uint64_t budget_bytes, size_t num_shards = 8);

  PartitionCache(const PartitionCache&) = delete;
  PartitionCache& operator=(const PartitionCache&) = delete;

  // Returns the cached snapshot of `key`, running `loader` on a miss. When
  // several threads miss on the same key concurrently, exactly one runs the
  // loader; the rest block until it publishes (or propagate its error).
  // A failed load caches nothing — the next lookup retries.
  Result<Value> GetOrLoad(Key key, const Loader& loader);

  // Pins `key`: while its pin count is positive the entry is exempt from
  // budget eviction and from Clear() (resident bytes may transiently exceed
  // the budget by the pinned working set). Invalidate still drops pinned
  // entries — it signals staleness, which pins do not protect against.
  // Pinning a key that is not resident is allowed and takes effect when the
  // entry is next inserted. Used by the batched QueryEngine to keep a
  // batch's partitions resident across its scheduling phases.
  void Pin(Key key);
  // Decrements the pin count; a no-op when the key is not pinned. When the
  // count reaches zero the shard evicts back down to its budget slice, so
  // resident bytes exceed the budget only while pins are held.
  void Unpin(Key key);

  // Drops `key` from the cache (after a partition rewrite destroys the
  // content the key names — a rebuild, not an epoch append, which publishes
  // under a fresh key and leaves the old one valid). Only loads started
  // after Invalidate returns are guaranteed fresh.
  void Invalidate(Key key);

  // Moves `key` to the cold (next-victim) end of its shard's LRU — an
  // eviction-priority hint for entries of a superseded generation: still
  // valid for in-flight old-epoch readers, first to go under budget
  // pressure. A no-op for absent or pinned entries.
  void Deprioritize(Key key);

  // True when `key` is currently resident. A point-in-time answer (the entry
  // can be evicted the instant the lock drops) — callers use it as a
  // scheduling hint, never as a correctness guarantee.
  bool IsResident(Key key) const;

  // Drops every *unpinned* resident entry (counted as evictions). Pinned
  // entries stay resident and charged, mirroring the exemption that budget
  // eviction honors.
  void Clear();

  PartitionCacheStats Snapshot() const;

  uint64_t budget_bytes() const { return budget_bytes_; }
  size_t num_shards() const { return shards_.size(); }

  // Exact decoded in-memory footprint charged against the budget: the arena
  // object plus its single backing allocation. (The AoS predecessor estimated
  // this from vector payloads and undercounted per-record heap overhead.)
  static uint64_t ChargedBytes(const PartitionArena& arena);

 private:
  struct Entry {
    Value value;
    uint64_t bytes = 0;
    std::list<Key>::iterator lru_it;
  };

  // Single-flight rendezvous for one in-progress load. done/error/value are
  // protected by the *owning shard's* mu — a per-instance relationship the
  // analysis cannot name from here, so the fields stay unannotated; every
  // access in partition_cache.cc happens with that shard lock held.
  struct InFlight {
    CondVar cv;
    bool done = false;
    Status error;
    Value value;
  };

  struct Shard {
    Mutex mu;
    std::unordered_map<Key, Entry> entries TARDIS_GUARDED_BY(mu);
    std::list<Key> lru
        TARDIS_GUARDED_BY(mu);  // front = most recently used
    std::unordered_map<Key, std::shared_ptr<InFlight>> inflight
        TARDIS_GUARDED_BY(mu);
    // Pin counts (present => positive). Kept separate from `entries` so a
    // key can be pinned before it becomes resident.
    std::unordered_map<Key, uint32_t> pins TARDIS_GUARDED_BY(mu);
    uint64_t bytes TARDIS_GUARDED_BY(mu) = 0;
  };

  Shard& ShardFor(Key key) { return *shards_[key % shards_.size()]; }

  // Inserts a freshly loaded value and evicts LRU entries until the shard is
  // back under its budget slice.
  void InsertAndEvict(Shard& shard, Key key, Value value,
                      uint64_t bytes) TARDIS_REQUIRES(shard.mu);
  // Evicts unpinned LRU entries until the shard is within its budget slice,
  // sparing its most-recently-used entry. A no-op when already within it.
  void EvictToBudget(Shard& shard) TARDIS_REQUIRES(shard.mu);

  uint64_t budget_bytes_;
  uint64_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Shared with the global telemetry registry ("tardis.cache.*"): the
  // registry holds a second reference, so a replaced instance's counters
  // stay valid for anything that cached them.
  std::shared_ptr<telemetry::Counter> hits_;
  std::shared_ptr<telemetry::Counter> misses_;
  std::shared_ptr<telemetry::Counter> coalesced_;
  std::shared_ptr<telemetry::Counter> evictions_;
  std::shared_ptr<telemetry::Counter> loaded_bytes_;
  std::shared_ptr<telemetry::Gauge> resident_bytes_;
  std::shared_ptr<telemetry::Gauge> resident_partitions_;
  std::shared_ptr<telemetry::Gauge> pinned_partitions_;
};

// RAII pin: pins on construction, unpins on destruction. A null cache makes
// it a no-op, so callers need not special-case a disabled cache.
class ScopedPin {
 public:
  ScopedPin() = default;
  ScopedPin(PartitionCache* cache, PartitionCache::Key key)
      : cache_(cache), key_(key) {
    if (cache_ != nullptr) cache_->Pin(key_);
  }
  ScopedPin(ScopedPin&& other) noexcept
      : cache_(other.cache_), key_(other.key_) {
    other.cache_ = nullptr;
  }
  ScopedPin& operator=(ScopedPin&& other) noexcept {
    if (this != &other) {
      Reset();
      cache_ = other.cache_;
      key_ = other.key_;
      other.cache_ = nullptr;
    }
    return *this;
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;
  ~ScopedPin() { Reset(); }

 private:
  void Reset() {
    if (cache_ != nullptr) cache_->Unpin(key_);
    cache_ = nullptr;
  }

  PartitionCache* cache_ = nullptr;
  PartitionCache::Key key_ = 0;
};

}  // namespace tardis

#endif  // TARDIS_STORAGE_PARTITION_CACHE_H_
