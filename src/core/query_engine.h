// QueryEngine: partition-batched execution of the TARDIS query algorithms,
// and the only implementation of exact match, kNN-approximate and range
// search. The single-query entry points (TardisIndex::ExactMatch /
// KnnApproximate / RangeSearch) are batches of one, so a query answers the
// same whether it arrives alone, in a CLI batch, or coalesced by the server.
//
// A query batch usually concentrates on far fewer distinct partitions than
// it has queries (the paper's Fig. 15/16 workloads draw queries from the
// indexed distribution), so the engine inverts the loop: it prepares every
// query up front (z-normalisation, PAA, iSAX-T signature, home partition via
// Tardis-G), groups queries by the partitions they must visit, and schedules
// one task per *partition* on the cluster thread pool. Each partition is
// loaded once — through the byte-budgeted PartitionCache when one is
// configured, pinned for the duration of the batch — and scanned for all
// queries assigned to it; per-query results are then merged in each query's
// deterministic partition order.
//
// Per-query work does not depend on the batch around it: each query ranks
// every partition into its own top-k and merges them in its own partition
// order, so its results and its candidates, pivot_pruned and partition list
// are the same in a batch of N as in a batch of one. There is no second
// path to diverge from. (Among records tied at the k-th distance, which
// ones are kept follows that fixed scan order; see core/topk.h.)

#ifndef TARDIS_CORE_QUERY_ENGINE_H_
#define TARDIS_CORE_QUERY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/partition_scheduler.h"
#include "core/tardis_index.h"

namespace tardis {

// Batch-level accounting.
struct QueryEngineStats {
  uint64_t queries = 0;
  // Partition loads the batch actually issued (one per distinct partition
  // per scheduling phase; repeats within a batch are cache hits).
  uint64_t partitions_loaded = 0;
  // What the same queries would have loaded issued one at a time (the sum of
  // the per-query stats' partitions_loaded). The difference is the work the
  // batch saved.
  uint64_t logical_partition_loads = 0;
  uint64_t candidates = 0;        // raw series ranked / verified
  // Records skipped by the pivot triangle-inequality bound before the
  // distance kernel (see KnnStats::pivot_pruned).
  uint64_t pivot_pruned = 0;
  uint64_t bloom_negatives = 0;   // exact match only
  // Exact match only: queries proven absent by a failed descent — a Tardis-G
  // miss, or a Tardis-L descent that stops above the leaves.
  uint64_t descent_failures = 0;
  double wall_seconds = 0.0;
  // Degraded-mode coverage, at partition-task granularity: the batch
  // scheduled `partitions_requested` distinct partition loads and
  // `partitions_failed` of them could not be loaded after retries. kNN and
  // range batches skip failed partitions and keep answering — every query
  // touching one may be missing records, so results_complete goes false.
  // Exact-match batches never degrade: a failed load aborts the batch.
  uint64_t partitions_requested = 0;
  uint64_t partitions_failed = 0;
  bool results_complete = true;
  // The epoch snapshot the whole batch ran against (pinned once at entry, so
  // a concurrent Append cannot split a batch across generations).
  uint64_t epoch_generation = 0;
};

class QueryEngine {
 public:
  // The index must outlive the engine. The engine only reads the index and
  // may be used from one thread at a time (it parallelises internally).
  explicit QueryEngine(const TardisIndex& index);

  // Adaptive partition scheduling (core/partition_scheduler.h): when on,
  // each partition phase dispatches resident partitions first and the rest
  // longest-estimated-first onto a work-stealing pool, instead of
  // manifest-order ParallelFor. Results and stats are bit-identical either
  // way; only tail latency moves. Defaults to on; TARDIS_SCHED=off flips the
  // process default.
  void SetSchedulingEnabled(bool enabled) { sched_enabled_ = enabled; }
  bool scheduling_enabled() const { return sched_enabled_; }

  // Batched kNN-approximate (paper §V-B, Alg. 1): per query, up to k
  // neighbours sorted by true distance — element i answers queries[i].
  Result<std::vector<std::vector<Neighbor>>> KnnApproximateBatch(
      const std::vector<TimeSeries>& queries, uint32_t k, KnnStrategy strategy,
      QueryEngineStats* stats) const;

  // Batched exact match (paper §V-A): per query, the record ids whose stored
  // series equals the query exactly.
  Result<std::vector<std::vector<RecordId>>> ExactMatchBatch(
      const std::vector<TimeSeries>& queries, bool use_bloom,
      QueryEngineStats* stats) const;

  // Batched exact range search: per query, every record within `radius`,
  // sorted by distance.
  Result<std::vector<std::vector<Neighbor>>> RangeSearchBatch(
      const std::vector<TimeSeries>& queries, double radius,
      QueryEngineStats* stats) const;

 private:
  // Dispatches one partition phase: fn(i) runs once per entry of `parts`
  // (pid, work items assigned to it this phase). Scheduled via the cost
  // model when enabled, plain ParallelFor otherwise. `epoch` is the batch's
  // pinned snapshot: record counts and cache-residency probes come from it,
  // so scheduling estimates match the content the tasks will load.
  void RunPartitionPhase(
      const IndexEpoch& epoch,
      const std::vector<std::pair<PartitionId, uint32_t>>& parts,
      const std::function<void(size_t)>& fn) const;

  struct BatchLoads;

  // Loads pid's Tardis-L into `*tree` (unless null), then its records in
  // `epoch`, pinned until the batch returns; null after a failed load.
  PartitionCache::Value LoadPinned(const IndexEpoch& epoch, PartitionId pid,
                                   BatchLoads* loads,
                                   std::optional<LocalIndex>* tree) const;

  const TardisIndex* index_;
  // The cost model learns across batches on the same engine (EWMA), so the
  // engine stays single-caller-at-a-time but methods remain const.
  mutable PartitionScheduler sched_;
  bool sched_enabled_;
};

}  // namespace tardis

#endif  // TARDIS_CORE_QUERY_ENGINE_H_
