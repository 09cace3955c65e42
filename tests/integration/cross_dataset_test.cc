// Cross-dataset, cross-configuration property sweeps: the invariants that
// must hold for every workload and every reasonable knob setting.

#include <algorithm>
#include <numeric>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "baseline/dpisax.h"
#include "core/ground_truth.h"
#include "core/metrics.h"
#include "core/tardis_index.h"
#include "test_util.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"

namespace tardis {
namespace {

// --- Sweep 1: every dataset kind, default config -------------------------

class DatasetSweepTest : public ::testing::TestWithParam<DatasetKind> {
 protected:
  void SetUp() override {
    const DatasetKind kind = GetParam();
    auto dataset =
        MakeDataset(kind, 4000, DatasetSeriesLength(kind), /*seed=*/71);
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).value();
    auto store = BlockStore::Create(dir_.Sub("bs"), dataset_, 200);
    ASSERT_TRUE(store.ok());
    store_ = std::make_unique<BlockStore>(std::move(store).value());
    config_.g_max_size = 400;
    config_.l_max_size = 50;
    cluster_ = std::make_shared<Cluster>(4);
    auto index = TardisIndex::Build(cluster_, *store_, dir_.Sub("parts"),
                                    config_, nullptr);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::make_unique<TardisIndex>(std::move(index).value());
  }

  ScopedTempDir dir_;
  std::shared_ptr<Cluster> cluster_;
  Dataset dataset_;
  std::unique_ptr<BlockStore> store_;
  TardisConfig config_;
  std::unique_ptr<TardisIndex> index_;
};

TEST_P(DatasetSweepTest, PartitionCountsCoverDataset) {
  const auto& counts = index_->partition_counts();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0ull), 4000ull);
}

TEST_P(DatasetSweepTest, ExactMatchPerfectRecall) {
  const auto workload = MakeExactMatchWorkload(dataset_, 60, 0.5, /*seed=*/72);
  for (size_t i = 0; i < workload.queries.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(auto rids,
                         index_->ExactMatch(workload.queries[i], true, nullptr));
    const bool found = std::find(rids.begin(), rids.end(),
                                 workload.source_rid[i]) != rids.end();
    if (workload.expected_present[i]) {
      EXPECT_TRUE(found) << "query " << i;
    } else {
      // Absent queries: the source rid must not appear; the result is empty
      // unless the perturbed series happens to equal some other record
      // (essentially impossible).
      EXPECT_TRUE(rids.empty()) << "query " << i;
    }
  }
}

TEST_P(DatasetSweepTest, KnnExactMatchesBruteForce) {
  const auto queries = MakeKnnQueries(dataset_, 5, 0.05, /*seed=*/73);
  ASSERT_OK_AND_ASSIGN(auto truth, ExactKnnScan(*cluster_, *store_, queries, 10));
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_OK_AND_ASSIGN(auto result, index_->KnnExact(queries[i], 10, nullptr));
    ASSERT_EQ(result.size(), truth[i].size());
    for (size_t j = 0; j < result.size(); ++j) {
      EXPECT_NEAR(result[j].distance, truth[i][j].distance, 1e-9);
    }
  }
}

TEST_P(DatasetSweepTest, ApproximateStrategiesWidenMonotonically) {
  const auto queries = MakeKnnQueries(dataset_, 8, 0.05, /*seed=*/74);
  for (const auto& query : queries) {
    ASSERT_OK_AND_ASSIGN(
        auto target,
        index_->KnnApproximate(query, 15, KnnStrategy::kTargetNode, nullptr));
    ASSERT_OK_AND_ASSIGN(
        auto one,
        index_->KnnApproximate(query, 15, KnnStrategy::kOnePartition, nullptr));
    ASSERT_EQ(target.size(), one.size());
    // One-partition scans a superset: its k-th distance can only improve.
    if (!target.empty()) {
      EXPECT_LE(one.back().distance, target.back().distance + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetSweepTest,
                         ::testing::Values(DatasetKind::kRandomWalk,
                                           DatasetKind::kTexmex,
                                           DatasetKind::kDna,
                                           DatasetKind::kNoaa),
                         [](const auto& info) {
                           return DatasetFullName(info.param);
                         });

// --- Sweep 2: configuration grid ------------------------------------------

struct ConfigPoint {
  uint8_t bits;
  uint64_t g_max;
  uint64_t l_max;
  double sample;
};

// A readable, build-stable label (e.g. b6_g300_l50_s10), used as the test
// name and as the printed parameter. gtest would otherwise print the
// struct's bytes, padding included, and both end up in the ctest name.
std::string ConfigPointName(const ConfigPoint& p) {
  return "b" + std::to_string(p.bits) + "_g" + std::to_string(p.g_max) +
         "_l" + std::to_string(p.l_max) + "_s" +
         std::to_string(static_cast<int>(p.sample));
}

void PrintTo(const ConfigPoint& p, std::ostream* os) {
  *os << ConfigPointName(p);
}

class ConfigSweepTest : public ::testing::TestWithParam<ConfigPoint> {};

TEST_P(ConfigSweepTest, BuildAndQueryInvariantsHold) {
  const ConfigPoint point = GetParam();
  ScopedTempDir dir;
  auto dataset = MakeDataset(DatasetKind::kRandomWalk, 3000, 64, /*seed=*/81);
  ASSERT_TRUE(dataset.ok());
  auto store = BlockStore::Create(dir.Sub("bs"), *dataset, 150);
  ASSERT_TRUE(store.ok());

  TardisConfig config;
  config.initial_bits = point.bits;
  config.g_max_size = point.g_max;
  config.l_max_size = point.l_max;
  config.sampling_percent = point.sample;
  auto cluster = std::make_shared<Cluster>(2);
  auto index =
      TardisIndex::Build(cluster, *store, dir.Sub("parts"), config, nullptr);
  ASSERT_TRUE(index.ok()) << index.status().ToString();

  // All records covered.
  const auto& counts = index->partition_counts();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0ull), 3000ull);

  // Every present query is retrievable.
  for (size_t i = 0; i < dataset->size(); i += 311) {
    ASSERT_OK_AND_ASSIGN(auto rids,
                         index->ExactMatch((*dataset)[i], true, nullptr));
    EXPECT_NE(std::find(rids.begin(), rids.end(), i), rids.end())
        << "rid " << i << " bits=" << static_cast<int>(point.bits)
        << " gmax=" << point.g_max;
  }

  // kNN returns k sorted unique results.
  ASSERT_OK_AND_ASSIGN(
      auto knn, index->KnnApproximate((*dataset)[5], 10,
                                      KnnStrategy::kMultiPartitions, nullptr));
  EXPECT_EQ(knn.size(), 10u);
  EXPECT_TRUE(std::is_sorted(knn.begin(), knn.end()));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConfigSweepTest,
    ::testing::Values(ConfigPoint{4, 300, 50, 10.0},
                      ConfigPoint{6, 300, 50, 10.0},
                      ConfigPoint{8, 300, 50, 10.0},
                      ConfigPoint{6, 100, 20, 10.0},
                      ConfigPoint{6, 1000, 200, 10.0},
                      ConfigPoint{6, 300, 50, 1.0},
                      ConfigPoint{6, 300, 50, 100.0},
                      ConfigPoint{6, 5000, 1000, 50.0}),
    [](const ::testing::TestParamInfo<ConfigPoint>& info) {
      return ConfigPointName(info.param);
    });

// --- Sweep 3: TARDIS vs baseline accuracy across datasets ----------------

TEST(SystemComparisonTest, TardisMultiPartitionsBeatsBaselineOnAverage) {
  // The paper's central accuracy claim, asserted as an average across all
  // four workloads rather than per query (individual queries can go either
  // way).
  double tardis_total = 0, baseline_total = 0;
  for (DatasetKind kind :
       {DatasetKind::kRandomWalk, DatasetKind::kTexmex, DatasetKind::kNoaa}) {
    ScopedTempDir dir;
    auto dataset = MakeDataset(kind, 5000, DatasetSeriesLength(kind), 91);
    ASSERT_TRUE(dataset.ok());
    auto store = BlockStore::Create(dir.Sub("bs"), *dataset, 250);
    ASSERT_TRUE(store.ok());
    auto cluster = std::make_shared<Cluster>(4);

    TardisConfig tcfg;
    tcfg.g_max_size = 500;
    tcfg.l_max_size = 100;
    tcfg.pth = 10;
    auto tardis =
        TardisIndex::Build(cluster, *store, dir.Sub("pt"), tcfg, nullptr);
    ASSERT_TRUE(tardis.ok());

    DPiSaxConfig bcfg;
    bcfg.g_max_size = 500;
    bcfg.l_max_size = 100;
    auto baseline =
        DPiSaxIndex::Build(cluster, *store, dir.Sub("pb"), bcfg, nullptr);
    ASSERT_TRUE(baseline.ok());

    const auto queries = MakeKnnQueries(*dataset, 10, 0.05, 92);
    ASSERT_OK_AND_ASSIGN(auto truth, ExactKnnScan(*cluster, *store, queries, 20));
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_OK_AND_ASSIGN(
          auto rt, tardis->KnnApproximate(queries[i], 20,
                                          KnnStrategy::kMultiPartitions,
                                          nullptr));
      ASSERT_OK_AND_ASSIGN(auto rb,
                           baseline->KnnApproximate(queries[i], 20, nullptr));
      tardis_total += Recall(rt, truth[i]);
      baseline_total += Recall(rb, truth[i]);
    }
  }
  EXPECT_GT(tardis_total, baseline_total);
}

}  // namespace
}  // namespace tardis
