// TardisIndex: the complete TARDIS indexing framework (paper §IV, Fig. 6).
//
// Owns the build pipeline — Tardis-G construction, the partitioner shuffle,
// per-partition Tardis-L + Bloom construction — and exposes the paper's
// query algorithms (§V): exact match (with/without the Bloom filter) and the
// three kNN-approximate strategies. Exact match, kNN-approximate and range
// search run as batches of one through QueryEngine (core/query_engine.h).
//
// Durable state is epoch-versioned (DESIGN.md §11, storage/manifest.h):
// every Build/Append writes immutable artifacts and commits them by writing
// a new MANIFEST-<generation>. In memory the index mirrors that with an
// immutable IndexEpoch snapshot swapped atomically on commit: queries pin
// one epoch for their lifetime, so an Append overlapping a query can neither
// change the records the query scans nor invalidate its cache entries.

#ifndef TARDIS_CORE_TARDIS_INDEX_H_
#define TARDIS_CORE_TARDIS_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/map_reduce.h"
#include "common/bloom_filter.h"
#include "common/thread_annotations.h"
#include "core/global_index.h"
#include "core/local_index.h"
#include "core/pivots.h"
#include "core/tardis_config.h"
#include "storage/block_store.h"
#include "storage/manifest.h"
#include "storage/partition_cache.h"
#include "storage/partition_store.h"

namespace tardis {

struct QueryEngineStats;

// One approximate nearest neighbour: (distance, record id).
struct Neighbor {
  double distance = 0.0;
  RecordId rid = 0;

  bool operator<(const Neighbor& other) const {
    return distance < other.distance ||
           (distance == other.distance && rid < other.rid);
  }
  bool operator==(const Neighbor&) const = default;
};

// kNN-approximate query strategies (paper §V-B).
enum class KnnStrategy {
  kTargetNode,       // deepest node with >= k entries, single node scan
  kOnePartition,     // + threshold-pruned scan of the whole home partition
  kMultiPartitions,  // + pruned scan of sibling partitions (Alg. 1)
};

const char* KnnStrategyName(KnnStrategy strategy);

struct ExactMatchStats {
  bool bloom_negative = false;   // filter said "absent": no partition load
  bool descent_failed = false;   // Tardis-L traversal failed
  uint32_t candidates = 0;       // raw series compared
  uint32_t partitions_loaded = 0;
  uint64_t epoch_generation = 0;  // the epoch snapshot the query ran against
};

struct KnnStats {
  uint32_t partitions_loaded = 0;
  uint64_t candidates = 0;  // raw series ranked by true distance
  // Records skipped by the pivot triangle-inequality bound before the
  // distance kernel (core/pivots.h). Always 0 when the index has no pivots
  // or pruning is disabled; pruning never changes results, only this split
  // between `candidates` and `pivot_pruned`.
  uint64_t pivot_pruned = 0;
  // Degraded-mode coverage (kNN-approximate and range search only): the
  // query keeps answering when a partition cannot be loaded after retries,
  // skipping it. partitions_failed > 0 implies results_complete == false and
  // means the answer may miss records from the skipped partitions. KnnExact
  // and ExactMatch never degrade — they propagate load errors instead.
  uint32_t partitions_requested = 0;
  uint32_t partitions_failed = 0;
  bool results_complete = true;
  uint64_t epoch_generation = 0;  // the epoch snapshot the query ran against
};

// One immutable epoch snapshot: everything a query needs to answer against a
// single committed generation. Queries grab the current snapshot once
// (TardisIndex::CurrentEpoch) and use only it afterwards; Append builds the
// next snapshot off to the side and swaps it in after its manifest commits,
// so in-flight readers keep a consistent view (RCU-style). Per-partition
// state the Append did not touch is structurally shared between consecutive
// epochs (shared_ptr Bloom filters, copied manifests/regions).
struct IndexEpoch {
  uint64_t generation = 0;
  // The committed durable-state manifest this epoch mirrors; names the delta
  // files and sidecar generations every loader must read.
  Manifest manifest;
  std::shared_ptr<const GlobalIndex> global;
  // Total records per partition (base + delta tails).
  std::vector<uint64_t> partition_counts;
  // Memory-resident per-partition Bloom filters (paper: "due to the small
  // size, it resides in memory"). Null slots when build_bloom is off.
  std::vector<std::shared_ptr<const BloomFilter>> blooms;
  // Memory-resident per-partition region summaries (exact-kNN pruning);
  // extended to cover delta records on Append.
  std::vector<RegionSummary> regions;
};
using EpochPtr = std::shared_ptr<const IndexEpoch>;

class TardisIndex {
 public:
  // Wall-clock breakdown of index construction (Figs. 10-12).
  struct BuildTimings {
    GlobalIndex::BuildBreakdown global;
    double shuffle_seconds = 0.0;      // read + convert + shuffle to partitions
    double local_build_seconds = 0.0;  // mapPartitions: Tardis-L + clustering
    double bloom_extra_seconds = 0.0;  // spill pass when nothing is cached
    ShuffleMetrics shuffle;            // dataflow accounting of the shuffle
    // Task/attempt/retry accounting across every cluster job of the build
    // (sampling, shuffle, local construction, Bloom pass).
    JobMetrics job;
    double TotalSeconds() const {
      return global.TotalSeconds() + shuffle_seconds + local_build_seconds +
             bloom_extra_seconds;
    }
  };

  // Index size accounting (Fig. 13); excludes the clustered data itself.
  struct SizeInfo {
    uint64_t global_bytes = 0;
    uint64_t local_tree_bytes = 0;
    uint64_t bloom_bytes = 0;
  };

  // Builds the full index over `input`, materialising partitions under
  // `partition_dir`. `timings` may be null. The index metadata (config,
  // Tardis-G, partition counts) is persisted alongside the partitions and
  // committed under MANIFEST-1, so the index can later be re-opened without
  // rebuilding.
  static Result<TardisIndex> Build(std::shared_ptr<Cluster> cluster,
                                   const BlockStore& input,
                                   const std::string& partition_dir,
                                   const TardisConfig& config,
                                   BuildTimings* timings);

  // Re-opens an index previously built into `partition_dir`. Recovery
  // protocol: load the newest manifest that decodes and checksums cleanly,
  // read the metadata generation it names, garbage-collect every file a
  // crashed writer may have left that the manifest does not reference, then
  // restore the memory-resident Bloom filters and region summaries from
  // their (generation-suffixed) sidecars. Directories from before the
  // manifest scheme open as a synthesized generation-1 epoch, untouched.
  static Result<TardisIndex> Open(std::shared_ptr<Cluster> cluster,
                                  const std::string& partition_dir);

  const TardisConfig& config() const { return config_; }
  const ISaxTCodec& codec() const { return codec_; }
  uint32_t num_partitions() const { return num_partitions_; }
  uint32_t series_length() const { return series_length_; }

  // The current epoch snapshot. The snapshot is immutable and stays fully
  // usable (queryable, cache-consistent) for as long as the caller holds the
  // pointer, even across concurrent Appends.
  EpochPtr CurrentEpoch() const;
  // The current committed generation (1 after a fresh build).
  uint64_t generation() const { return CurrentEpoch()->generation; }

  // Convenience views over the *current* epoch. The reference returned by
  // global() is valid until the next Append; callers that overlap queries
  // with appends should hold a CurrentEpoch() snapshot instead.
  const GlobalIndex& global() const { return *CurrentEpoch()->global; }
  std::vector<uint64_t> partition_counts() const {
    return CurrentEpoch()->partition_counts;
  }

  Result<SizeInfo> ComputeSizeInfo() const;

  // --- Exact Match (paper §V-A) ---
  // Returns the record ids whose series equals `query` exactly. The query is
  // expected in the indexed (z-normalised) space. `use_bloom` selects
  // between the Bloom-filtered algorithm and the Non-Bloom variant. Runs as
  // QueryEngine::ExactMatchBatch over this one query. `stats` may be null.
  Result<std::vector<RecordId>> ExactMatch(const TimeSeries& query,
                                           bool use_bloom,
                                           ExactMatchStats* stats) const;

  // --- kNN Approximate (paper §V-B, Alg. 1) ---
  // Returns up to k neighbours sorted by true Euclidean distance. Runs as
  // QueryEngine::KnnApproximateBatch over this one query. `stats` may be
  // null.
  Result<std::vector<Neighbor>> KnnApproximate(const TimeSeries& query,
                                               uint32_t k,
                                               KnnStrategy strategy,
                                               KnnStats* stats) const;

  // --- Exact range search (extension beyond the paper; DESIGN.md §5) ---
  // Returns every record with ED(query, record) <= radius, sorted by
  // distance. Partitions and Tardis-L subtrees whose lower bound exceeds the
  // radius are pruned; results are verified on raw values, so the answer is
  // exact. Runs as QueryEngine::RangeSearchBatch over this one query.
  // `stats` may be null.
  Result<std::vector<Neighbor>> RangeSearch(const TimeSeries& query,
                                            double radius,
                                            KnnStats* stats) const;

  // --- Exact kNN (extension beyond the paper; DESIGN.md §5) ---
  // Visits partitions in increasing region-summary lower-bound order and
  // stops once the bound exceeds the k-th best distance, so the result is
  // provably the true kNN while typically touching a small fraction of the
  // partitions. `stats` may be null.
  Result<std::vector<Neighbor>> KnnExact(const TimeSeries& query, uint32_t k,
                                         KnnStats* stats) const;

  // --- Incremental ingest (extension beyond the paper; DESIGN.md §5/§11) ---
  // Routes each new series through the existing Tardis-G and appends it to
  // its partition as an immutable CRC-framed delta file; the partition's
  // Bloom filter, region summary, and pivot sidecar are extended (never
  // rewritten in place) under the next generation, and the batch commits by
  // writing MANIFEST-<gen+1>. A crash at any step leaves the previous
  // generation fully readable. Returns the record ids assigned to the batch
  // (continuing the existing rid sequence). Appends serialize against each
  // other but are safe to run concurrently with queries: in-flight queries
  // keep answering from their pinned epoch snapshot.
  Result<std::vector<RecordId>> Append(const Dataset& batch);

  // Loads a partition and its Tardis-L against the *current* epoch. Exposed
  // for tests and tooling. LoadPartition (AoS records, kept for the build's
  // Bloom pass and tooling) and LoadPartitionArena (columnar, single decode
  // pass) always go to disk. The query algorithms (QueryEngine and KnnExact)
  // load through the epoch-pinned LoadPartitionShared, which serves repeated
  // arena loads from the byte-budgeted partition cache when one is
  // configured, keyed by (partition, content generation). All loaders retry
  // transient failures under the configured RetryPolicy.
  Result<std::vector<Record>> LoadPartition(PartitionId pid) const;
  Result<PartitionArena> LoadPartitionArena(PartitionId pid) const;
  Result<PartitionCache::Value> LoadPartitionShared(PartitionId pid) const;
  Result<LocalIndex> LoadLocalIndex(PartitionId pid) const;

  // The query-side partition cache; null when cache_budget_bytes is 0.
  const PartitionCache* partition_cache() const { return cache_.get(); }
  // Zeroed stats when the cache is disabled.
  PartitionCacheStats CacheStats() const {
    return cache_ != nullptr ? cache_->Snapshot() : PartitionCacheStats{};
  }
  // Replaces the cache with a fresh one of `budget_bytes` (0 disables it).
  // Existing entries and counters are discarded. Not safe to call
  // concurrently with queries.
  void SetCacheBudget(uint64_t budget_bytes);

  // Overrides the retry policy used by query-time partition/sidecar loads
  // (the build uses the policy from the config it was built with). Not safe
  // to call concurrently with queries.
  void SetRetryPolicy(const RetryPolicy& retry) { config_.retry = retry; }
  const RetryPolicy& retry_policy() const { return config_.retry; }

  // The pivot set selected at build time; null when the index was built with
  // num_pivots == 0.
  const PivotSet* pivots() const { return pivots_.get(); }
  // Query-time switch for pivot pruning (results are identical either way;
  // only the candidates/pivot_pruned split moves). Defaults to on when the
  // index has pivots; the TARDIS_PIVOTS=off environment variable flips the
  // default. Not safe to call concurrently with queries.
  void SetPivotPruning(bool enabled) { pivot_pruning_ = enabled; }
  bool pivot_pruning() const { return pivot_pruning_; }
  // The per-query pivot state for `normalized` — inactive (prunes nothing)
  // when the index has no pivots or pruning is disabled.
  PivotQuery MakePivotQuery(const TimeSeries& normalized) const {
    if (pivots_ == nullptr || !pivot_pruning_) return PivotQuery();
    return PivotQuery(*pivots_, normalized);
  }

 private:
  friend class QueryEngine;

  TardisIndex(std::shared_ptr<Cluster> cluster, TardisConfig config,
              std::shared_ptr<const GlobalIndex> global,
              PartitionStore partitions, uint32_t series_length);

  // Swaps in a freshly committed epoch snapshot.
  void InstallEpoch(EpochPtr epoch);

  // The delta-file generations of `pid` in `epoch` (empty for pristine
  // partitions or out-of-range pids).
  static const std::vector<uint64_t>& DeltaGens(const IndexEpoch& epoch,
                                                PartitionId pid);
  // Generation suffix of pid's bloom/region/pivotd sidecars in `epoch`.
  static uint64_t SidecarGen(const IndexEpoch& epoch, PartitionId pid);
  // The partition-cache key naming pid's content in `epoch`: qualified by
  // the newest delta generation (0 for pristine build output), so appended
  // content publishes under a fresh key while old-epoch readers keep
  // hitting theirs.
  static PartitionCache::Key EpochKey(const IndexEpoch& epoch,
                                      PartitionId pid) {
    const auto& dg = DeltaGens(epoch, pid);
    return PartitionCache::MakeKey(pid, dg.empty() ? 0 : dg.back());
  }

  // Prepares (z-normalises) the query and computes PAA + full signature.
  Status PrepareQuery(const TimeSeries& query, TimeSeries* normalized,
                      std::vector<double>* paa, std::string* sig) const;

  // The KnnStats of a kNN or range batch of one.
  static KnnStats SingleQueryStats(const QueryEngineStats& batch);

  // Sibling partitions for the Multi-Partitions kNN strategy, capped at
  // config_.pth with a deterministic (signature, seed) selection that always
  // keeps `home` first. Used by QueryEngine::KnnApproximateBatch.
  std::vector<PartitionId> SelectMultiPartitions(const GlobalIndex& global,
                                                 std::string_view sig,
                                                 PartitionId home) const;

  // Epoch-pinned loaders: read the base partition file plus the epoch's
  // delta tail, and the epoch's sidecar generation of the pivot plane. The
  // public single-argument loaders wrap these with CurrentEpoch().
  Result<std::vector<Record>> LoadPartition(const IndexEpoch& epoch,
                                            PartitionId pid) const;
  Result<PartitionArena> LoadPartitionArena(const IndexEpoch& epoch,
                                            PartitionId pid) const;
  Result<PartitionCache::Value> LoadPartitionShared(const IndexEpoch& epoch,
                                                    PartitionId pid) const;

  // One un-retried partition load; LoadPartition wraps it in the policy.
  Result<std::vector<Record>> LoadPartitionOnce(const IndexEpoch& epoch,
                                                PartitionId pid) const;

  // One un-retried arena load; LoadPartitionArena wraps it in the policy.
  Result<PartitionArena> LoadPartitionArenaOnce(const IndexEpoch& epoch,
                                                PartitionId pid) const;

  // Persists config/global-tree/counts metadata next to the partitions,
  // under the generation-suffixed metadata file name.
  Status SaveMeta(const GlobalIndex& global,
                  const std::vector<uint64_t>& counts, uint64_t meta_gen) const;

  std::shared_ptr<Cluster> cluster_;
  TardisConfig config_;
  // The signature codec, fixed at build time and identical across epochs
  // (copied out of Tardis-G so accessors never depend on epoch lifetime).
  ISaxTCodec codec_;
  std::unique_ptr<PartitionStore> partitions_;
  // Byte-budgeted LRU over decoded partitions (null when disabled). Keyed by
  // (partition, content generation) — see EpochKey — so epochs never need to
  // invalidate each other's entries.
  std::unique_ptr<PartitionCache> cache_;
  // The base-data blocks; queried directly by un-clustered indexes (refine
  // phase random I/O).
  std::unique_ptr<BlockStore> input_;
  uint32_t series_length_ = 0;
  // Partition count, fixed at build time (appends route into existing
  // partitions, never create them).
  uint32_t num_partitions_ = 0;
  // The current epoch snapshot, guarded by *epoch_mu_. Held through
  // unique_ptr so TardisIndex stays movable (Result<TardisIndex> moves it);
  // thread-safety analysis cannot name a pointee capability for a member
  // annotation here — the same limitation PartitionCache::InFlight documents
  // — so the invariant is by convention: every access goes through
  // CurrentEpoch()/InstallEpoch(), which lock *epoch_mu_.
  std::unique_ptr<Mutex> epoch_mu_;
  EpochPtr epoch_;
  // Serializes Append calls (writers); queries never take it.
  std::unique_ptr<Mutex> append_mu_;
  // Build-time pivot set (null when num_pivots == 0) and the query-time
  // pruning switch.
  std::unique_ptr<PivotSet> pivots_;
  bool pivot_pruning_ = true;
};

}  // namespace tardis

#endif  // TARDIS_CORE_TARDIS_INDEX_H_
