// Frozen one-query-at-a-time kNN-approximate (paper §V-B, Alg. 1): the
// oracle the batched QueryEngine is checked against. It walks the algorithm
// the obvious way — prepare, load the home partition, rank the target node,
// widen with a threshold-pruned scan, visit the siblings one by one and
// merge in partition-list order — over the public index API and the shared
// core/query_scan.h primitives. It is deliberately kept out of the library:
// no telemetry, no degraded mode (any load error is returned), and the
// Multi-Partitions sibling selection is a copy rather than a call, so a
// change to the engine's selection shows up as a mismatch.

#ifndef TARDIS_TESTS_CORE_REFERENCE_KNN_H_
#define TARDIS_TESTS_CORE_REFERENCE_KNN_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/query_scan.h"
#include "core/tardis_index.h"
#include "core/topk.h"
#include "ts/kernels.h"
#include "ts/paa.h"

namespace tardis {
namespace reference {

struct KnnAnswer {
  std::vector<Neighbor> neighbors;
  uint64_t candidates = 0;    // records ranked by the distance kernel
  uint64_t pivot_pruned = 0;  // records skipped by the pivot bound
};

// Multi-Partitions scope: the Tardis-G siblings, capped at pth by a partial
// Fisher-Yates seeded from (config seed, signature hash), home first.
inline std::vector<PartitionId> SelectSiblings(const TardisIndex& index,
                                               const GlobalIndex& global,
                                               const std::string& sig,
                                               PartitionId home) {
  const TardisConfig& config = index.config();
  std::vector<PartitionId> pids = global.SiblingPartitions(sig);
  if (pids.size() <= config.pth) return pids;
  std::vector<PartitionId> others;
  for (PartitionId pid : pids) {
    if (pid != home) others.push_back(pid);
  }
  uint64_t hash = 1469598103934665603ULL;
  for (char c : sig) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  Rng rng(config.seed ^ hash);
  const size_t want = config.pth - 1;
  for (size_t i = 0; i < want && i < others.size(); ++i) {
    const size_t j = i + rng.NextBounded(others.size() - i);
    std::swap(others[i], others[j]);
  }
  others.resize(std::min(others.size(), want));
  pids.assign(1, home);
  pids.insert(pids.end(), others.begin(), others.end());
  return pids;
}

inline Result<KnnAnswer> KnnApproximate(const TardisIndex& index,
                                        const TimeSeries& query, uint32_t k,
                                        KnnStrategy strategy) {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  if (query.size() != index.series_length()) {
    return Status::InvalidArgument("query length differs from indexed series");
  }
  const EpochPtr epoch = index.CurrentEpoch();
  std::vector<double> paa(index.config().word_length);
  PaaInto(query, index.config().word_length, paa.data());
  const std::string sig = index.codec().Encode(paa);
  const PivotQuery pq = index.MakePivotQuery(query);
  KnnAnswer out;

  const PartitionId home = epoch->global->LookupPartition(sig);
  if (home == kInvalidPartition) return Status::Internal("no home partition");
  TARDIS_ASSIGN_OR_RETURN(LocalIndex home_local, index.LoadLocalIndex(home));
  TARDIS_ASSIGN_OR_RETURN(PartitionCache::Value home_records,
                          index.LoadPartitionShared(home));
  const PartitionArena& arena = *home_records;
  const uint32_t tail_start = arena.num_base_records();
  const uint32_t tail_len = arena.num_records() - tail_start;

  // Target Node Access: the target slice, then the delta tail. This is each
  // of those records' only count.
  const SigTree::Node* target =
      qscan::FindTargetNode(home_local.tree(), sig, k);
  TopK topk(k);
  qscan::RankRange(arena, target->range_start, target->range_len, query,
                   &topk, &out.candidates, &pq, &out.pivot_pruned);
  qscan::RankRange(arena, tail_start, tail_len, query, &topk, &out.candidates,
                   &pq, &out.pivot_pruned);
  if (strategy == KnnStrategy::kTargetNode) {
    out.neighbors = topk.Take();
    return out;
  }

  // One Partition: the rest of the home partition under the k-th distance,
  // the target slice excluded and the tail re-ranked uncounted.
  const double threshold = topk.Threshold();
  const MindistTable mind(paa, static_cast<uint8_t>(index.codec().max_bits()),
                          query.size());
  home_local.tree().EnsureWords();
  uint64_t uncounted = 0, uncounted_pruned = 0;
  TopK home_part(k);
  qscan::PrunedScan(home_local.tree(), arena, mind, query, threshold,
                    &home_part, &out.candidates, target->range_start,
                    target->range_len, &pq, &out.pivot_pruned);
  qscan::RankRange(arena, tail_start, tail_len, query, &home_part, &uncounted,
                   &pq, &uncounted_pruned);
  if (strategy == KnnStrategy::kOnePartition) {
    out.neighbors = home_part.Take();
    return out;
  }

  // Multi-Partitions: every sibling under the same threshold, its tail
  // counted; per-partition top-k lists merged in partition-list order.
  const std::vector<PartitionId> pids =
      SelectSiblings(index, *epoch->global, sig, home);
  TopK merged(k);
  for (PartitionId pid : pids) {
    std::vector<Neighbor> part;
    if (pid == home) {
      part = home_part.Take();
    } else {
      TARDIS_ASSIGN_OR_RETURN(LocalIndex local, index.LoadLocalIndex(pid));
      TARDIS_ASSIGN_OR_RETURN(PartitionCache::Value records,
                              index.LoadPartitionShared(pid));
      local.tree().EnsureWords();
      TopK sibling(k);
      qscan::PrunedScan(local.tree(), *records, mind, query, threshold,
                        &sibling, &out.candidates, 0, 0, &pq,
                        &out.pivot_pruned);
      qscan::RankRange(*records, records->num_base_records(),
                       records->num_records() - records->num_base_records(),
                       query, &sibling, &out.candidates, &pq,
                       &out.pivot_pruned);
      part = sibling.Take();
    }
    for (const Neighbor& nb : part) merged.Offer(nb.distance, nb.rid);
  }
  out.neighbors = merged.Take();
  return out;
}

}  // namespace reference
}  // namespace tardis

#endif  // TARDIS_TESTS_CORE_REFERENCE_KNN_H_
