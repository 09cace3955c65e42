// Exact range queries (extension beyond the paper; DESIGN.md §5).
//
// Finds every record within Euclidean distance `radius` of the query using
// the same two-level lower-bound pruning as exact kNN: partitions whose
// region-summary bound exceeds the radius are never loaded; within a
// partition, Tardis-L subtrees are pruned the same way (RangeScan in
// core/query_scan.h); surviving candidates are verified against the raw
// values. The algorithm runs in QueryEngine::RangeSearchBatch; a single
// query is a batch of one.

#include "core/query_engine.h"
#include "core/tardis_index.h"

namespace tardis {

Result<std::vector<Neighbor>> TardisIndex::RangeSearch(const TimeSeries& query,
                                                       double radius,
                                                       KnnStats* stats) const {
  QueryEngineStats batch;
  TARDIS_ASSIGN_OR_RETURN(
      std::vector<std::vector<Neighbor>> results,
      QueryEngine(*this).RangeSearchBatch({query}, radius, &batch));
  if (stats != nullptr) *stats = SingleQueryStats(batch);
  return std::move(results[0]);
}

}  // namespace tardis
