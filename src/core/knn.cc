// kNN-approximate query processing (paper §V-B, Algorithm 1).
//
// Target Node Access descends Tardis-L to the deepest node on the query's
// path holding >= k entries and ranks that node's clustered slice.
// One Partition Access additionally prunes the whole home partition with the
// k-th distance as threshold (lower-bound pruning). Multi-Partitions Access
// extends the scope to the sibling partitions listed in the Tardis-G parent
// node, scanning them in parallel with the same threshold.
//
// The algorithm runs in QueryEngine::KnnApproximateBatch; a single query is
// a batch of one. This file keeps the sibling selection the engine uses and
// the single-query wrapper.

#include <algorithm>

#include "common/rng.h"
#include "core/query_engine.h"
#include "core/tardis_index.h"

namespace tardis {

// Sibling partitions for the Multi-Partitions strategy, capped at pth
// (random selection keeps the home partition, which lines 10-14 of Alg. 1
// assume is loaded). Deterministic for a given (signature, seed), so a
// query visits the same partitions in every batch.
std::vector<PartitionId> TardisIndex::SelectMultiPartitions(
    const GlobalIndex& global, std::string_view sig, PartitionId home) const {
  std::vector<PartitionId> pids = global.SiblingPartitions(sig);
  if (pids.size() > config_.pth) {
    std::vector<PartitionId> others;
    others.reserve(pids.size());
    for (PartitionId pid : pids) {
      if (pid != home) others.push_back(pid);
    }
    uint64_t hash = 1469598103934665603ULL;
    for (char c : sig) {
      hash = (hash ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
    Rng rng(config_.seed ^ hash);
    // Partial Fisher-Yates over the non-home pids.
    const size_t want = config_.pth - 1;
    for (size_t i = 0; i < want && i < others.size(); ++i) {
      const size_t j = i + rng.NextBounded(others.size() - i);
      std::swap(others[i], others[j]);
    }
    others.resize(std::min(others.size(), want));
    pids.assign(1, home);
    pids.insert(pids.end(), others.begin(), others.end());
  }
  return pids;
}

KnnStats TardisIndex::SingleQueryStats(const QueryEngineStats& batch) {
  KnnStats stats;
  stats.partitions_loaded = static_cast<uint32_t>(batch.partitions_loaded);
  stats.candidates = batch.candidates;
  stats.pivot_pruned = batch.pivot_pruned;
  stats.partitions_requested =
      static_cast<uint32_t>(batch.partitions_requested);
  stats.partitions_failed = static_cast<uint32_t>(batch.partitions_failed);
  stats.results_complete = batch.results_complete;
  stats.epoch_generation = batch.epoch_generation;
  return stats;
}

Result<std::vector<Neighbor>> TardisIndex::KnnApproximate(
    const TimeSeries& query, uint32_t k, KnnStrategy strategy,
    KnnStats* stats) const {
  QueryEngineStats batch;
  TARDIS_ASSIGN_OR_RETURN(
      std::vector<std::vector<Neighbor>> results,
      QueryEngine(*this).KnnApproximateBatch({query}, k, strategy, &batch));
  if (stats != nullptr) *stats = SingleQueryStats(batch);
  return std::move(results[0]);
}

}  // namespace tardis
