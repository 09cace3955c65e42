// Exact kNN queries — an extension beyond the paper's query set
// (DESIGN.md §5), built from the same lower-bound machinery.
//
// Each partition carries a region summary (per-segment symbol ranges over
// its *actual* records, computed during Tardis-L construction), whose
// Mindist lower-bounds the distance to every record stored there. Visiting
// partitions in increasing lower-bound order and stopping when the bound
// exceeds the current k-th distance yields the provably exact kNN while
// typically loading only a few partitions. Inside a partition the Tardis-L
// tree prunes subtrees against the evolving k-th distance (ExactScan in
// core/query_scan.h, shared with the batched QueryEngine).

#include <algorithm>
#include <numeric>

#include "common/telemetry.h"
#include "core/query_scan.h"
#include "core/query_telemetry.h"
#include "core/tardis_index.h"
#include "core/topk.h"
#include "ts/kernels.h"

namespace tardis {

Result<std::vector<Neighbor>> TardisIndex::KnnExact(const TimeSeries& query,
                                                    uint32_t k,
                                                    KnnStats* stats) const {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  const EpochPtr epoch_sp = CurrentEpoch();
  const IndexEpoch& epoch = *epoch_sp;
  if (epoch.regions.size() != num_partitions()) {
    return Status::Internal("region summaries unavailable");
  }
  telemetry::ScopedSpan span("query.knn_exact");
  if (span.active()) span.AddAttr("k", static_cast<uint64_t>(k));
  qtel::PhaseTimer timer("knn_exact");
  TimeSeries normalized;
  std::vector<double> paa;
  std::string sig;
  TARDIS_RETURN_NOT_OK(PrepareQuery(query, &normalized, &paa, &sig));
  const PivotQuery pq = MakePivotQuery(normalized);
  uint64_t pivot_pruned = 0;

  // Order partitions by their region lower bound. Appends extend each
  // touched partition's region summary over the new words, so the bound
  // stays a valid lower bound for the delta tail too — exactness holds.
  std::vector<double> bounds(num_partitions());
  for (uint32_t pid = 0; pid < num_partitions(); ++pid) {
    bounds[pid] = epoch.regions[pid].Mindist(paa, normalized.size());
  }
  std::vector<uint32_t> order(num_partitions());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](uint32_t a, uint32_t b) { return bounds[a] < bounds[b]; });

  const MindistTable mind(paa, static_cast<uint8_t>(codec().max_bits()),
                          normalized.size());
  timer.Lap("prepare");
  TopK topk(k);
  uint64_t candidates = 0;
  uint32_t loaded = 0;
  for (uint32_t pid : order) {
    if (bounds[pid] > topk.Threshold()) break;  // no partition can improve
    timer.Skip();
    TARDIS_ASSIGN_OR_RETURN(LocalIndex local, LoadLocalIndex(pid));
    TARDIS_ASSIGN_OR_RETURN(PartitionCache::Value records,
                            LoadPartitionShared(epoch, pid));
    timer.Lap("load");
    local.tree().EnsureWords();
    // The delta tail first: its records tighten the k-th distance before the
    // tree scan, and unlike the tree it has no lower bound to prune by.
    qscan::RankRange(*records, records->num_base_records(),
                     records->num_records() - records->num_base_records(),
                     normalized, &topk, &candidates, &pq, &pivot_pruned);
    qscan::ExactScan(local.tree(), *records, mind, normalized, &topk,
                     &candidates, &pq, &pivot_pruned);
    timer.Lap("scan");
    ++loaded;
  }
  if (telemetry::Enabled()) {
    telemetry::Registry::Global()
        .GetCounter("tardis.query.knn_exact.count")
        .Add(1);
    telemetry::Registry::Global()
        .GetCounter("tardis.query.knn_exact.candidates")
        .Add(candidates);
  }
  if (stats) {
    stats->partitions_loaded = loaded;
    stats->candidates = candidates;
    stats->pivot_pruned = pivot_pruned;
    stats->epoch_generation = epoch.generation;
  }
  return topk.Take();
}

}  // namespace tardis
