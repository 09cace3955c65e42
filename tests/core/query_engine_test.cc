// QueryEngine contract. The engine is the only implementation of exact
// match, kNN-approximate and range search (single queries are batches of
// one), so it is checked against independent oracles:
//  - kNN-approximate: the frozen one-query-at-a-time reference
//    (reference_knn.h), bit-identical per query, in results and in the
//    candidates / pivot_pruned split;
//  - exact match and range search: a brute-force scan of the dataset;
//  - batch(N) == N x batch(1): identical results per query, and the
//    per-query counters sum exactly to the batch's.
// Every arm is covered: the three kernel tiers, scheduling on/off, pivot
// pruning on/off, and 1/2/8 cluster workers.

#include "core/query_engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/tardis_index.h"
#include "reference_knn.h"
#include "test_util.h"
#include "ts/kernels.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"

namespace tardis {
namespace {

constexpr uint32_t kCount = 400;
constexpr uint32_t kLength = 32;
constexpr uint32_t kK = 7;
constexpr KnnStrategy kStrategies[] = {KnnStrategy::kTargetNode,
                                       KnnStrategy::kOnePartition,
                                       KnnStrategy::kMultiPartitions};

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_backend_ = ActiveKernelBackend();
    auto dataset = MakeDataset(DatasetKind::kRandomWalk, kCount, kLength,
                               /*seed=*/123);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();

    auto store = BlockStore::Create(dir_.Sub("bs"), dataset_, 50);
    ASSERT_TRUE(store.ok());
    store_ = std::make_unique<BlockStore>(std::move(store).value());

    TardisConfig config;
    config.word_length = 8;
    config.initial_bits = 4;
    config.g_max_size = 60;
    config.l_max_size = 20;
    config.sampling_percent = 30.0;
    config.pth = 4;
    config.cache_budget_bytes = 4 << 20;
    config.num_pivots = 4;

    cluster_ = std::make_shared<Cluster>(2);
    auto index = TardisIndex::Build(cluster_, *store_, dir_.Sub("parts"),
                                    config, nullptr);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::make_unique<TardisIndex>(std::move(index).value());
    ASSERT_NE(index_->pivots(), nullptr);

    // Queries drawn from the indexed distribution, so many share home
    // partitions — the case the batch path exists for.
    queries_ = MakeKnnQueries(dataset_, /*count=*/40, /*noise=*/0.05,
                              /*seed=*/5150);
  }

  void TearDown() override { SetKernelBackend(saved_backend_); }

  // Every backend the machine can actually run.
  std::vector<KernelBackend> Backends() const {
    std::vector<KernelBackend> backends = {KernelBackend::kScalar};
    if (SetKernelBackend(KernelBackend::kAvx2) == KernelBackend::kAvx2) {
      backends.push_back(KernelBackend::kAvx2);
    }
    if (SetKernelBackend(KernelBackend::kAvx512) == KernelBackend::kAvx512) {
      backends.push_back(KernelBackend::kAvx512);
    }
    SetKernelBackend(saved_backend_);
    return backends;
  }

  // The built index re-opened on a cluster of `workers` threads.
  std::unique_ptr<TardisIndex> OpenWithWorkers(size_t workers) {
    auto opened = TardisIndex::Open(std::make_shared<Cluster>(workers),
                                    dir_.Sub("parts"));
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    if (!opened.ok()) return nullptr;
    auto index = std::make_unique<TardisIndex>(std::move(opened).value());
    index->SetCacheBudget(4 << 20);
    return index;
  }

  // Brute force over the dataset: rids whose series equals `query`
  // element-wise, ascending.
  std::vector<RecordId> BruteExact(const TimeSeries& query) const {
    std::vector<RecordId> rids;
    for (size_t i = 0; i < dataset_.size(); ++i) {
      if (dataset_[i] == query) rids.push_back(i);
    }
    return rids;
  }

  // Brute force over the dataset: every record within `radius`, sorted by
  // (distance, rid), distances from the active kernel backend.
  std::vector<Neighbor> BruteRange(const TimeSeries& query,
                                   double radius) const {
    std::vector<Neighbor> out;
    for (size_t i = 0; i < dataset_.size(); ++i) {
      const double d = std::sqrt(
          SquaredEuclidean(query.data(), dataset_[i].data(), query.size()));
      if (d <= radius) out.push_back({d, i});
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  ScopedTempDir dir_;
  std::shared_ptr<Cluster> cluster_;
  Dataset dataset_;
  std::unique_ptr<BlockStore> store_;
  std::unique_ptr<TardisIndex> index_;
  std::vector<TimeSeries> queries_;
  KernelBackend saved_backend_ = KernelBackend::kScalar;
};

TEST_F(QueryEngineTest, KnnBatchMatchesSequentialAllStrategiesAllBackends) {
  for (size_t workers : {1, 2, 8}) {
    std::unique_ptr<TardisIndex> index = OpenWithWorkers(workers);
    ASSERT_NE(index, nullptr);
    QueryEngine engine(*index);
    for (KernelBackend backend : Backends()) {
      ASSERT_EQ(SetKernelBackend(backend), backend);
      for (bool pivots : {false, true}) {
        index->SetPivotPruning(pivots);
        for (KnnStrategy strategy : kStrategies) {
          std::vector<reference::KnnAnswer> expected;
          uint64_t ref_candidates = 0, ref_pruned = 0;
          for (const TimeSeries& query : queries_) {
            ASSERT_OK_AND_ASSIGN(
                reference::KnnAnswer answer,
                reference::KnnApproximate(*index, query, kK, strategy));
            ref_candidates += answer.candidates;
            ref_pruned += answer.pivot_pruned;
            expected.push_back(std::move(answer));
          }
          for (bool sched : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << KnnStrategyName(strategy) << "/"
                         << KernelBackendName(backend) << " workers="
                         << workers << " pivots=" << pivots
                         << " sched=" << sched);
            engine.SetSchedulingEnabled(sched);
            QueryEngineStats stats;
            ASSERT_OK_AND_ASSIGN(
                std::vector<std::vector<Neighbor>> batch,
                engine.KnnApproximateBatch(queries_, kK, strategy, &stats));
            ASSERT_EQ(batch.size(), queries_.size());
            EXPECT_EQ(stats.queries, queries_.size());
            EXPECT_EQ(stats.candidates, ref_candidates);
            EXPECT_EQ(stats.pivot_pruned, ref_pruned);
            if (!pivots) {
              EXPECT_EQ(stats.pivot_pruned, 0u);
            }

            QueryEngineStats sum;
            for (size_t q = 0; q < queries_.size(); ++q) {
              // Bit-identical, not just close.
              EXPECT_EQ(batch[q], expected[q].neighbors) << "query " << q;
              QueryEngineStats one;
              ASSERT_OK_AND_ASSIGN(
                  std::vector<std::vector<Neighbor>> single,
                  engine.KnnApproximateBatch({queries_[q]}, kK, strategy,
                                             &one));
              EXPECT_EQ(single[0], batch[q]) << "query " << q;
              EXPECT_EQ(one.candidates, expected[q].candidates);
              EXPECT_EQ(one.pivot_pruned, expected[q].pivot_pruned);
              EXPECT_EQ(one.partitions_loaded, one.logical_partition_loads);
              sum.candidates += one.candidates;
              sum.pivot_pruned += one.pivot_pruned;
              sum.partitions_loaded += one.partitions_loaded;
              sum.logical_partition_loads += one.logical_partition_loads;
            }
            EXPECT_EQ(stats.candidates, sum.candidates);
            EXPECT_EQ(stats.pivot_pruned, sum.pivot_pruned);
            EXPECT_EQ(stats.logical_partition_loads,
                      sum.logical_partition_loads);
            // What batches of one load is what the batch says it saved.
            EXPECT_EQ(stats.logical_partition_loads, sum.partitions_loaded);
            EXPECT_LT(stats.partitions_loaded, stats.logical_partition_loads);
            EXPECT_TRUE(stats.results_complete);
          }
        }
      }
    }
  }
}

TEST_F(QueryEngineTest, ExactMatchBatchMatchesSequential) {
  // Present queries (stored series verbatim) plus absent ones (perturbed).
  std::vector<TimeSeries> queries;
  for (size_t i = 0; i < 20; ++i) queries.push_back(dataset_[i * 7]);
  for (size_t i = 0; i < 5; ++i) {
    TimeSeries absent = dataset_[i];
    absent[kLength / 2] += 1.5f;
    queries.push_back(absent);
  }

  QueryEngine engine(*index_);
  for (bool sched : {false, true}) {
    engine.SetSchedulingEnabled(sched);
    for (bool use_bloom : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "bloom=" << use_bloom << " sched=" << sched);
      QueryEngineStats stats;
      ASSERT_OK_AND_ASSIGN(
          std::vector<std::vector<RecordId>> batch,
          engine.ExactMatchBatch(queries, use_bloom, &stats));
      ASSERT_EQ(batch.size(), queries.size());

      size_t hits = 0;
      QueryEngineStats sum;
      for (size_t q = 0; q < queries.size(); ++q) {
        std::vector<RecordId> sorted = batch[q];
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, BruteExact(queries[q])) << "q=" << q;
        hits += batch[q].empty() ? 0 : 1;

        QueryEngineStats one;
        ASSERT_OK_AND_ASSIGN(
            std::vector<std::vector<RecordId>> single,
            engine.ExactMatchBatch({queries[q]}, use_bloom, &one));
        EXPECT_EQ(single[0], batch[q]) << "q=" << q;
        sum.candidates += one.candidates;
        sum.bloom_negatives += one.bloom_negatives;
        sum.descent_failures += one.descent_failures;
        sum.partitions_loaded += one.partitions_loaded;
        sum.logical_partition_loads += one.logical_partition_loads;

        // The single-query API reports the same batch of one.
        ExactMatchStats es;
        ASSERT_OK_AND_ASSIGN(std::vector<RecordId> api,
                             index_->ExactMatch(queries[q], use_bloom, &es));
        EXPECT_EQ(api, batch[q]) << "q=" << q;
        EXPECT_EQ(es.candidates, one.candidates);
        EXPECT_EQ(es.bloom_negative, one.bloom_negatives == 1);
        EXPECT_EQ(es.descent_failed, one.descent_failures == 1);
        EXPECT_EQ(es.partitions_loaded, one.partitions_loaded);
      }
      // Every stored-verbatim query must have found itself.
      EXPECT_GE(hits, 20u);
      EXPECT_EQ(stats.candidates, sum.candidates);
      EXPECT_EQ(stats.bloom_negatives, sum.bloom_negatives);
      EXPECT_EQ(stats.descent_failures, sum.descent_failures);
      EXPECT_EQ(stats.logical_partition_loads, sum.logical_partition_loads);
      EXPECT_EQ(stats.logical_partition_loads, sum.partitions_loaded);
      EXPECT_LE(stats.partitions_loaded, stats.logical_partition_loads);
      if (!use_bloom) {
        EXPECT_EQ(stats.bloom_negatives, 0u);
      }
    }
  }
}

TEST_F(QueryEngineTest, RangeSearchBatchMatchesSequential) {
  const std::vector<TimeSeries> queries(queries_.begin(),
                                        queries_.begin() + 10);
  QueryEngine engine(*index_);
  for (KernelBackend backend : Backends()) {
    ASSERT_EQ(SetKernelBackend(backend), backend);
    for (bool pivots : {false, true}) {
      index_->SetPivotPruning(pivots);
      for (bool sched : {false, true}) {
        engine.SetSchedulingEnabled(sched);
        for (double radius : {0.0, 2.5, 6.0}) {
          SCOPED_TRACE(testing::Message()
                       << KernelBackendName(backend) << " pivots=" << pivots
                       << " sched=" << sched << " radius=" << radius);
          QueryEngineStats stats;
          ASSERT_OK_AND_ASSIGN(
              std::vector<std::vector<Neighbor>> batch,
              engine.RangeSearchBatch(queries, radius, &stats));
          ASSERT_EQ(batch.size(), queries.size());
          QueryEngineStats sum;
          for (size_t q = 0; q < queries.size(); ++q) {
            EXPECT_EQ(batch[q], BruteRange(queries[q], radius)) << "q=" << q;
            QueryEngineStats one;
            ASSERT_OK_AND_ASSIGN(
                std::vector<std::vector<Neighbor>> single,
                engine.RangeSearchBatch({queries[q]}, radius, &one));
            EXPECT_EQ(single[0], batch[q]) << "q=" << q;
            sum.candidates += one.candidates;
            sum.pivot_pruned += one.pivot_pruned;
            sum.partitions_loaded += one.partitions_loaded;
            sum.logical_partition_loads += one.logical_partition_loads;
          }
          EXPECT_EQ(stats.candidates, sum.candidates);
          EXPECT_EQ(stats.pivot_pruned, sum.pivot_pruned);
          EXPECT_EQ(stats.logical_partition_loads,
                    sum.logical_partition_loads);
          EXPECT_EQ(stats.logical_partition_loads, sum.partitions_loaded);
          EXPECT_LE(stats.partitions_loaded, stats.logical_partition_loads);
        }
      }
    }
  }
}

TEST_F(QueryEngineTest, BatchReusesCachedPartitionsAcrossPhases) {
  // A fresh cache plus one batch: the engine may only miss once per distinct
  // partition; all repeats inside the batch must be cache hits.
  index_->SetCacheBudget(4 << 20);
  const PartitionCacheStats before = index_->CacheStats();
  QueryEngine engine(*index_);
  QueryEngineStats stats;
  ASSERT_OK(engine
                .KnnApproximateBatch(queries_, kK,
                                     KnnStrategy::kMultiPartitions, &stats)
                .status());
  const PartitionCacheStats after = index_->CacheStats();
  EXPECT_LE(after.misses - before.misses, index_->num_partitions());
  EXPECT_LE(stats.partitions_loaded,
            2 * static_cast<uint64_t>(index_->num_partitions()));
  // Nothing stays pinned once the batch returns.
  EXPECT_EQ(after.pinned_partitions, 0u);
}

TEST_F(QueryEngineTest, EmptyBatchIsANoOp) {
  QueryEngine engine(*index_);
  const std::vector<TimeSeries> none;
  QueryEngineStats stats;
  ASSERT_OK_AND_ASSIGN(
      std::vector<std::vector<Neighbor>> knn,
      engine.KnnApproximateBatch(none, kK, KnnStrategy::kMultiPartitions,
                                 &stats));
  EXPECT_TRUE(knn.empty());
  EXPECT_EQ(stats.queries, 0u);
  EXPECT_EQ(stats.partitions_loaded, 0u);
  ASSERT_OK_AND_ASSIGN(std::vector<std::vector<RecordId>> exact,
                       engine.ExactMatchBatch(none, true, nullptr));
  EXPECT_TRUE(exact.empty());
  ASSERT_OK_AND_ASSIGN(std::vector<std::vector<Neighbor>> range,
                       engine.RangeSearchBatch(none, 1.0, nullptr));
  EXPECT_TRUE(range.empty());
}

TEST_F(QueryEngineTest, InvalidArgumentsAreRejected) {
  QueryEngine engine(*index_);
  EXPECT_TRUE(engine
                  .KnnApproximateBatch(queries_, /*k=*/0,
                                       KnnStrategy::kTargetNode, nullptr)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(engine.RangeSearchBatch(queries_, /*radius=*/-1.0, nullptr)
                  .status()
                  .IsInvalidArgument());
  // A query of the wrong length fails preparation for the whole batch.
  std::vector<TimeSeries> bad = {TimeSeries(kLength + 1, 0.0f)};
  EXPECT_FALSE(engine.KnnApproximateBatch(bad, kK, KnnStrategy::kTargetNode,
                                          nullptr)
                   .ok());
}

}  // namespace
}  // namespace tardis
