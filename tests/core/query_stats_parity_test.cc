// Stats parity between single queries (TardisIndex::KnnApproximate, a batch
// of one), whole batches (QueryEngine::KnnApproximateBatch), and the frozen
// one-query-at-a-time reference (reference_knn.h):
//  - candidate counts are bit-identical per strategy — in particular the
//    target-node slice is counted exactly once even though One-Partition and
//    Multi-Partitions rank it in the seed pass and then prune the rest of
//    the home partition (the historical double count);
//  - the single-query stats are the batch-of-one stats, field by field;
//  - with the home partition file deleted out from under the index
//    (degraded mode), a query reports exactly the coverage it lost.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/query_engine.h"
#include "core/tardis_index.h"
#include "reference_knn.h"
#include "test_util.h"
#include "workload/datasets.h"

namespace fs = std::filesystem;

namespace tardis {
namespace {

constexpr uint32_t kSeriesLength = 32;
constexpr uint32_t kK = 5;

std::string PartitionFile(const std::string& dir, uint32_t pid) {
  char name[32];
  std::snprintf(name, sizeof(name), "part_%06u.bin", pid);
  return dir + "/" + name;
}

class QueryStatsParityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dataset = MakeDataset(DatasetKind::kRandomWalk, 1500, kSeriesLength,
                               /*seed=*/321);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();
    auto store = BlockStore::Create(dir_.Sub("bs"), dataset_, 150);
    ASSERT_TRUE(store.ok());
    TardisConfig config;
    config.g_max_size = 300;
    config.l_max_size = 60;
    cluster_ = std::make_shared<Cluster>(3);
    index_dir_ = dir_.Sub("idx");
    auto index =
        TardisIndex::Build(cluster_, *store, index_dir_, config, nullptr);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::make_unique<TardisIndex>(std::move(index).value());
    for (size_t i = 0; i < dataset_.size(); i += 97) {
      queries_.push_back(dataset_[i]);
    }
    ASSERT_GE(queries_.size(), 10u);
  }

  // Aggregate of one KnnApproximate call per query for one strategy.
  struct SeqAgg {
    uint64_t candidates = 0, pivot_pruned = 0;
    uint64_t requested = 0, failed = 0, loaded = 0;
    bool complete = true;
  };
  SeqAgg RunSequential(KnnStrategy strategy,
                       const std::vector<TimeSeries>& queries) {
    SeqAgg agg;
    for (const TimeSeries& query : queries) {
      KnnStats stats;
      auto result = index_->KnnApproximate(query, kK, strategy, &stats);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      agg.candidates += stats.candidates;
      agg.pivot_pruned += stats.pivot_pruned;
      agg.requested += stats.partitions_requested;
      agg.failed += stats.partitions_failed;
      agg.loaded += stats.partitions_loaded;
      agg.complete = agg.complete && stats.results_complete;
    }
    return agg;
  }

  ScopedTempDir dir_;
  std::shared_ptr<Cluster> cluster_;
  Dataset dataset_;
  std::string index_dir_;
  std::unique_ptr<TardisIndex> index_;
  std::vector<TimeSeries> queries_;
};

// The core double-count regression check: per-strategy batch candidate
// totals equal the sum of the single-query counts and of the frozen
// reference's counts.
TEST_F(QueryStatsParityTest, CandidateCountsMatchBatchedEngine) {
  QueryEngine engine(*index_);
  for (KnnStrategy strategy :
       {KnnStrategy::kTargetNode, KnnStrategy::kOnePartition,
        KnnStrategy::kMultiPartitions}) {
    SCOPED_TRACE(KnnStrategyName(strategy));
    const SeqAgg seq = RunSequential(strategy, queries_);
    uint64_t ref_candidates = 0;
    for (const TimeSeries& query : queries_) {
      ASSERT_OK_AND_ASSIGN(reference::KnnAnswer ref,
                           reference::KnnApproximate(*index_, query, kK,
                                                     strategy));
      ref_candidates += ref.candidates;
    }
    QueryEngineStats batch;
    auto results = engine.KnnApproximateBatch(queries_, kK, strategy, &batch);
    ASSERT_TRUE(results.ok()) << results.status().ToString();
    EXPECT_EQ(batch.candidates, seq.candidates);
    EXPECT_EQ(batch.candidates, ref_candidates);
    EXPECT_EQ(batch.pivot_pruned, seq.pivot_pruned);
    EXPECT_EQ(batch.logical_partition_loads, seq.loaded);
    EXPECT_EQ(seq.requested, seq.loaded);
    EXPECT_EQ(seq.failed, 0u);
    EXPECT_TRUE(seq.complete);
    EXPECT_TRUE(batch.results_complete);
  }
}

// One-Partition never ranks a record twice: its candidate count is bounded
// by the home partition's record count (the double count pushed it past).
TEST_F(QueryStatsParityTest, OnePartitionCountsEachRecordOnce) {
  const std::vector<uint64_t>& counts = index_->partition_counts();
  for (const TimeSeries& query : queries_) {
    KnnStats one, target;
    ASSERT_TRUE(index_->KnnApproximate(query, kK, KnnStrategy::kOnePartition,
                                       &one)
                    .ok());
    ASSERT_TRUE(index_->KnnApproximate(query, kK, KnnStrategy::kTargetNode,
                                       &target)
                    .ok());
    uint64_t max_count = 0;
    for (uint64_t c : counts) max_count = std::max(max_count, c);
    EXPECT_LE(one.candidates, max_count);
    // The wider scan can only add candidates beyond the seeded target node.
    EXPECT_GE(one.candidates, target.candidates);
  }
}

// The single-query API is a batch of one: its stats are the batch-of-one
// stats, field by field, and its result is the batch's.
TEST_F(QueryStatsParityTest, SingleQueryBatchCoverageMatchesSequential) {
  QueryEngine engine(*index_);
  for (KnnStrategy strategy :
       {KnnStrategy::kTargetNode, KnnStrategy::kOnePartition,
        KnnStrategy::kMultiPartitions}) {
    SCOPED_TRACE(KnnStrategyName(strategy));
    for (size_t qi = 0; qi < 3; ++qi) {
      const std::vector<TimeSeries> one_query{queries_[qi]};
      KnnStats seq;
      auto seq_result =
          index_->KnnApproximate(one_query[0], kK, strategy, &seq);
      ASSERT_TRUE(seq_result.ok());
      QueryEngineStats batch;
      auto batch_result =
          engine.KnnApproximateBatch(one_query, kK, strategy, &batch);
      ASSERT_TRUE(batch_result.ok());
      EXPECT_EQ(batch.candidates, seq.candidates);
      EXPECT_EQ(batch.pivot_pruned, seq.pivot_pruned);
      EXPECT_EQ(batch.partitions_requested, seq.partitions_requested);
      EXPECT_EQ(batch.partitions_failed, seq.partitions_failed);
      EXPECT_EQ(batch.partitions_loaded, seq.partitions_loaded);
      EXPECT_EQ(batch.results_complete, seq.results_complete);
      EXPECT_EQ(batch.epoch_generation, seq.epoch_generation);
      EXPECT_EQ((*batch_result)[0], *seq_result);
    }
  }
}

// Injected home failure: delete the home partition's record file. The query
// skips it and keeps answering: Target-Node and One-Partition have nothing
// left to scan, Multi-Partitions scans the siblings unpruned, and every
// strategy reports one failed partition out of those it requested.
TEST_F(QueryStatsParityTest, DegradedHomeEmitsIdenticalCoverageStats) {
  index_->SetCacheBudget(0);  // no cache: the deletion is visible immediately
  const TimeSeries& query = queries_[0];
  KnnStats probe;
  ASSERT_TRUE(
      index_->KnnApproximate(query, kK, KnnStrategy::kTargetNode, &probe)
          .ok());
  ASSERT_EQ(probe.partitions_loaded, 1u);
  KnnStats multi_probe;
  ASSERT_TRUE(index_
                  ->KnnApproximate(query, kK, KnnStrategy::kMultiPartitions,
                                   &multi_probe)
                  .ok());
  const uint32_t multi_requested = multi_probe.partitions_requested;
  ASSERT_GE(multi_requested, 2u) << "query 0 needs sibling partitions";
  // Deleting every partition file would break sibling loads too; find the
  // home pid by checking which deletion degrades the Target-Node query.
  uint32_t home = index_->num_partitions();
  for (uint32_t pid = 0; pid < index_->num_partitions(); ++pid) {
    const std::string path = PartitionFile(index_dir_, pid);
    if (!fs::exists(path)) continue;
    const std::string backup = path + ".bak";
    fs::rename(path, backup);
    KnnStats stats;
    ASSERT_TRUE(
        index_->KnnApproximate(query, kK, KnnStrategy::kTargetNode, &stats)
            .ok());
    if (stats.partitions_failed == 1) {
      home = pid;
      break;  // leave it deleted (the .bak remains for cleanup by TempDir)
    }
    fs::rename(backup, path);
  }
  ASSERT_LT(home, index_->num_partitions()) << "home partition not found";

  for (KnnStrategy strategy :
       {KnnStrategy::kTargetNode, KnnStrategy::kOnePartition,
        KnnStrategy::kMultiPartitions}) {
    SCOPED_TRACE(KnnStrategyName(strategy));
    const bool multi = strategy == KnnStrategy::kMultiPartitions;
    KnnStats stats;
    auto result = index_->KnnApproximate(query, kK, strategy, &stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const uint32_t requested = multi ? multi_requested : 1;
    EXPECT_EQ(stats.partitions_requested, requested);
    EXPECT_EQ(stats.partitions_failed, 1u);
    EXPECT_EQ(stats.partitions_loaded, requested - 1);
    EXPECT_FALSE(stats.results_complete);
    if (multi) {
      // The siblings still answer, unpruned by a home threshold.
      EXPECT_EQ(result->size(), kK);
      EXPECT_GT(stats.candidates, 0u);
    } else {
      EXPECT_TRUE(result->empty());
      EXPECT_EQ(stats.candidates, 0u);
    }
  }
}

}  // namespace
}  // namespace tardis
