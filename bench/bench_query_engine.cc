// Partition-batched query engine benchmark (perf companion to Figs. 15/16).
//
// Compares four arms of the same kNN-approximate workload (RandomWalk,
// Multi-Partitions strategy):
//   seq/scalar    one KnnApproximate call (a batch of one) per query, scalar
//                 distance kernels
//   seq/simd      same, with the runtime-dispatched SIMD kernels
//   batch/scalar  QueryEngine::KnnApproximateBatch, scalar kernels
//   batch/simd    batched engine + SIMD kernels
//
// The batch arms group queries by partition so each partition is loaded once
// per scheduling phase instead of once per query; the SIMD arms exercise the
// AVX2+FMA kernels. Expected shape: batch/simd >= 2x seq/scalar throughput,
// with the engine's physical partition loads strictly below the sum of the
// per-query loads, and per-backend results identical between one-at-a-time
// and batched calls.
//
// Scale knobs (for CI smoke runs): TARDIS_QE_SERIES (default 100000),
// TARDIS_QE_QUERIES (default 1000). Emits BENCH_query_engine.json to the
// working directory.
//
// --skew runs the tail-latency benchmark instead: a Zipfian query stream
// (hot records -> hot partitions) is split into sub-batches
// (TARDIS_QE_SUBBATCH, default 50) and issued through the engine under four
// arms — {scheduler off/on} x {pivot pruning off/on} — on an index built
// with num_pivots=8. Each arm runs the stream twice against a freshly reset
// cache and measures the second pass (scheduler EWMA and cache warmed, the
// steady state the cost model targets), reporting per-sub-batch wall p50 /
// p99 / p999. All four arms must return bit-identical neighbour lists; the
// pivot arms should report fewer ranked candidates (the pruned rows appear
// in pivot_pruned instead). TARDIS_QE_SKEW sets the Zipf exponent
// (default 1.2).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "core/query_engine.h"
#include "ts/kernels.h"
#include "workload/query_gen.h"

namespace tardis {
namespace bench {
namespace {

constexpr uint32_t kK = 10;
constexpr uint64_t kCacheBudget = 64ull << 20;

uint64_t EnvScale(const char* name, uint64_t def) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return def;
  const uint64_t v = std::strtoull(env, nullptr, 10);
  return v > 0 ? v : def;
}

struct ArmResult {
  double seconds = 0.0;
  uint64_t partition_loads = 0;  // loads issued by this arm
  std::vector<std::vector<Neighbor>> results;
};

ArmResult RunSequential(const TardisIndex& index,
                        const std::vector<TimeSeries>& queries) {
  ArmResult arm;
  arm.results.reserve(queries.size());
  Stopwatch sw;
  for (const TimeSeries& query : queries) {
    KnnStats stats;
    BENCH_ASSIGN_OR_DIE(
        std::vector<Neighbor> neighbors,
        index.KnnApproximate(query, kK, KnnStrategy::kMultiPartitions,
                             &stats));
    arm.partition_loads += stats.partitions_loaded;
    arm.results.push_back(std::move(neighbors));
  }
  arm.seconds = sw.ElapsedSeconds();
  return arm;
}

ArmResult RunBatch(const TardisIndex& index,
                   const std::vector<TimeSeries>& queries,
                   QueryEngineStats* stats_out) {
  ArmResult arm;
  QueryEngine engine(index);
  Stopwatch sw;
  QueryEngineStats stats;
  BENCH_ASSIGN_OR_DIE(
      arm.results,
      engine.KnnApproximateBatch(queries, kK, KnnStrategy::kMultiPartitions,
                                 &stats));
  arm.seconds = sw.ElapsedSeconds();
  arm.partition_loads = stats.partitions_loaded;
  if (stats_out != nullptr) *stats_out = stats;
  return arm;
}

bool SameResults(const std::vector<std::vector<Neighbor>>& a,
                 const std::vector<std::vector<Neighbor>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

void PrintArm(const char* label, const ArmResult& arm, double base_seconds,
              size_t nq) {
  std::printf("%-14s %9.3fs %10.1f q/s %9.2fx %12llu loads\n", label,
              arm.seconds, nq / arm.seconds,
              arm.seconds > 0 ? base_seconds / arm.seconds : 0.0,
              static_cast<unsigned long long>(arm.partition_loads));
}

void Run() {
  const uint64_t count = EnvScale("TARDIS_QE_SERIES", 100000);
  const uint64_t nq = EnvScale("TARDIS_QE_QUERIES", 1000);
  PrintHeader("Query engine", "partition-batched execution + SIMD kernels");
  std::printf("workload: RandomWalk x %llu, %llu kNN queries, k=%u, "
              "Multi-Partitions, cache %llu MiB\n\n",
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(nq), kK,
              static_cast<unsigned long long>(kCacheBudget >> 20));

  const BlockStore store = GetStore(DatasetKind::kRandomWalk, count);
  const Dataset dataset = LoadAll(store);
  const std::vector<TimeSeries> queries =
      MakeKnnQueries(dataset, static_cast<uint32_t>(nq), /*noise=*/0.05,
                     /*seed=*/917);

  auto cluster = std::make_shared<Cluster>(kNumWorkers);
  TardisConfig config = DefaultTardisConfig();
  config.cache_budget_bytes = kCacheBudget;
  BENCH_ASSIGN_OR_DIE(
      TardisIndex index,
      TardisIndex::Build(cluster, store, FreshPartitionDir("qengine"), config,
                         nullptr));

  // Widest tier the machine runs (the request clamps: avx512 -> avx2 ->
  // scalar).
  const KernelBackend simd = SetKernelBackend(KernelBackend::kAvx512);
  const bool has_simd = simd != KernelBackend::kScalar;

  // Every arm starts from a cold cache of the same budget.
  SetKernelBackend(KernelBackend::kScalar);
  index.SetCacheBudget(kCacheBudget);
  const ArmResult seq_scalar = RunSequential(index, queries);

  index.SetCacheBudget(kCacheBudget);
  const ArmResult batch_scalar = RunBatch(index, queries, nullptr);

  SetKernelBackend(simd);
  index.SetCacheBudget(kCacheBudget);
  const ArmResult seq_simd = RunSequential(index, queries);

  index.SetCacheBudget(kCacheBudget);
  QueryEngineStats batch_stats;
  const ArmResult batch_simd = RunBatch(index, queries, &batch_stats);

  std::printf("%-14s %10s %14s %10s %17s\n", "arm", "wall", "throughput",
              "speedup", "partition");
  PrintArm("seq/scalar", seq_scalar, seq_scalar.seconds, queries.size());
  PrintArm("batch/scalar", batch_scalar, seq_scalar.seconds, queries.size());
  PrintArm(has_simd ? "seq/simd" : "seq/simd(=sc)", seq_simd,
           seq_scalar.seconds, queries.size());
  PrintArm(has_simd ? "batch/simd" : "batch/simd(=sc)", batch_simd,
           seq_scalar.seconds, queries.size());

  const bool scalar_match = SameResults(seq_scalar.results,
                                        batch_scalar.results);
  const bool simd_match = SameResults(seq_simd.results, batch_simd.results);
  const bool loads_below = batch_simd.partition_loads <
                           seq_simd.partition_loads;
  const double speedup = batch_simd.seconds > 0
                             ? seq_scalar.seconds / batch_simd.seconds
                             : 0.0;
  std::printf("\nengine-reported logical loads: %llu (sequential arm "
              "measured %llu)\n",
              static_cast<unsigned long long>(
                  batch_stats.logical_partition_loads),
              static_cast<unsigned long long>(seq_simd.partition_loads));
  std::printf("logical loads (sequential): %llu; batch issued: %llu "
              "(%.1f%% saved)\n",
              static_cast<unsigned long long>(seq_simd.partition_loads),
              static_cast<unsigned long long>(batch_simd.partition_loads),
              seq_simd.partition_loads > 0
                  ? 100.0 * (1.0 - static_cast<double>(
                                       batch_simd.partition_loads) /
                                       seq_simd.partition_loads)
                  : 0.0);
  std::printf("acceptance: batch==seq results (scalar %s, simd %s); "
              "batch loads < logical: %s; batch/simd >= 2x seq/scalar: %s "
              "(%.2fx)\n",
              scalar_match ? "PASS" : "FAIL", simd_match ? "PASS" : "FAIL",
              loads_below ? "PASS" : "FAIL",
              speedup >= 2.0 ? "PASS" : "FAIL", speedup);

  FILE* json = std::fopen("BENCH_query_engine.json", "w");
  if (json != nullptr) {
    std::fprintf(
        json,
        "{\n"
        "  \"bench\": \"query_engine\",\n"
        "  \"series\": %llu,\n"
        "  \"queries\": %llu,\n"
        "  \"k\": %u,\n"
        "  \"strategy\": \"multi\",\n"
        "  \"simd_backend\": \"%s\",\n"
        "  \"seq_scalar_seconds\": %.6f,\n"
        "  \"batch_scalar_seconds\": %.6f,\n"
        "  \"seq_simd_seconds\": %.6f,\n"
        "  \"batch_simd_seconds\": %.6f,\n"
        "  \"speedup_batch_simd_vs_seq_scalar\": %.3f,\n"
        "  \"logical_partition_loads\": %llu,\n"
        "  \"batch_partition_loads\": %llu,\n"
        "  \"results_match_scalar\": %s,\n"
        "  \"results_match_simd\": %s,\n"
        "  \"pass\": %s\n"
        "}\n",
        static_cast<unsigned long long>(count),
        static_cast<unsigned long long>(nq), kK,
        KernelBackendName(simd),
        seq_scalar.seconds, batch_scalar.seconds, seq_simd.seconds,
        batch_simd.seconds, speedup,
        static_cast<unsigned long long>(seq_simd.partition_loads),
        static_cast<unsigned long long>(batch_simd.partition_loads),
        scalar_match ? "true" : "false", simd_match ? "true" : "false",
        (scalar_match && simd_match && loads_below) ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_query_engine.json\n");
  }
}

// ---------------------------------------------------------------------------
// --skew: tail-latency arms (adaptive scheduler x pivot pruning).
// ---------------------------------------------------------------------------

struct SkewArm {
  const char* label;
  bool sched;
  bool pivots;
};

struct SkewArmResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double total_seconds = 0.0;
  uint64_t candidates = 0;
  uint64_t pivot_pruned = 0;
  std::vector<std::vector<Neighbor>> results;
};

SkewArmResult RunSkewArm(TardisIndex* index, const SkewArm& arm,
                         const std::vector<TimeSeries>& queries,
                         size_t sub_batch) {
  SkewArmResult out;
  index->SetCacheBudget(kCacheBudget);  // reset: every arm starts cold
  index->SetPivotPruning(arm.pivots);
  QueryEngine engine(*index);
  engine.SetSchedulingEnabled(arm.sched);
  // Pass 1 warms the cache and (for the sched arms) the cost model's EWMAs;
  // pass 2 is the measured steady state.
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<double> walls_ms;
    out.results.clear();
    out.results.reserve(queries.size());
    out.candidates = 0;
    out.pivot_pruned = 0;
    Stopwatch total;
    for (size_t start = 0; start < queries.size(); start += sub_batch) {
      const size_t len = std::min(sub_batch, queries.size() - start);
      const std::vector<TimeSeries> chunk(queries.begin() + start,
                                          queries.begin() + start + len);
      QueryEngineStats stats;
      Stopwatch sw;
      BENCH_ASSIGN_OR_DIE(
          std::vector<std::vector<Neighbor>> chunk_results,
          engine.KnnApproximateBatch(chunk, kK, KnnStrategy::kMultiPartitions,
                                     &stats));
      walls_ms.push_back(sw.ElapsedSeconds() * 1e3);
      out.candidates += stats.candidates;
      out.pivot_pruned += stats.pivot_pruned;
      for (auto& r : chunk_results) out.results.push_back(std::move(r));
    }
    out.total_seconds = total.ElapsedSeconds();
    if (pass == 1) {
      out.p50_ms = Percentile(walls_ms, 0.50);
      out.p99_ms = Percentile(walls_ms, 0.99);
      out.p999_ms = Percentile(walls_ms, 0.999);
    }
  }
  return out;
}

void RunSkew() {
  const uint64_t count = EnvScale("TARDIS_QE_SERIES", 100000);
  const uint64_t nq = EnvScale("TARDIS_QE_QUERIES", 1000);
  const uint64_t sub_batch = EnvScale("TARDIS_QE_SUBBATCH", 50);
  const char* skew_env = std::getenv("TARDIS_QE_SKEW");
  const double skew = (skew_env != nullptr && *skew_env != '\0')
                          ? std::strtod(skew_env, nullptr)
                          : 1.2;
  PrintHeader("Query engine --skew",
              "tail latency under Zipfian load: scheduler x pivot pruning");
  std::printf("workload: RandomWalk x %llu, %llu Zipf(s=%.2f) kNN queries, "
              "k=%u, sub-batch %llu, num_pivots=8, cache %llu MiB\n\n",
              static_cast<unsigned long long>(count),
              static_cast<unsigned long long>(nq), skew, kK,
              static_cast<unsigned long long>(sub_batch),
              static_cast<unsigned long long>(kCacheBudget >> 20));

  const BlockStore store = GetStore(DatasetKind::kRandomWalk, count);
  const Dataset dataset = LoadAll(store);
  const std::vector<TimeSeries> queries = MakeSkewedKnnQueries(
      dataset, static_cast<uint32_t>(nq), skew, /*noise=*/0.05, /*seed=*/917);

  auto cluster = std::make_shared<Cluster>(kNumWorkers);
  TardisConfig config = DefaultTardisConfig();
  config.cache_budget_bytes = kCacheBudget;
  config.num_pivots = 8;
  BENCH_ASSIGN_OR_DIE(
      TardisIndex index,
      TardisIndex::Build(cluster, store, FreshPartitionDir("qe_skew"), config,
                         nullptr));

  const SkewArm arms[] = {
      {"base", false, false},
      {"sched", true, false},
      {"pivots", false, true},
      {"sched+pivots", true, true},
  };
  SkewArmResult res[4];
  for (int i = 0; i < 4; ++i) {
    res[i] = RunSkewArm(&index, arms[i], queries, sub_batch);
  }

  std::printf("%-14s %9s %9s %9s %9s %12s %12s\n", "arm", "p50 ms", "p99 ms",
              "p999 ms", "wall s", "candidates", "pruned");
  for (int i = 0; i < 4; ++i) {
    std::printf("%-14s %9.2f %9.2f %9.2f %9.3f %12llu %12llu\n",
                arms[i].label, res[i].p50_ms, res[i].p99_ms, res[i].p999_ms,
                res[i].total_seconds,
                static_cast<unsigned long long>(res[i].candidates),
                static_cast<unsigned long long>(res[i].pivot_pruned));
  }

  bool results_match = true;
  for (int i = 1; i < 4; ++i) {
    results_match = results_match && SameResults(res[0].results,
                                                 res[i].results);
  }
  const bool candidates_drop = res[3].candidates <= res[0].candidates &&
                               res[3].pivot_pruned > 0;
  const double p99_improvement =
      res[3].p99_ms > 0 ? res[0].p99_ms / res[3].p99_ms : 0.0;
  std::printf("\nacceptance: all arms bit-identical results: %s; "
              "pivot arm candidates <= base with pruned > 0: %s; "
              "p99 base/full: %.2fx\n",
              results_match ? "PASS" : "FAIL",
              candidates_drop ? "PASS" : "FAIL", p99_improvement);

  FILE* json = std::fopen("BENCH_query_engine.json", "w");
  if (json != nullptr) {
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"query_engine_skew\",\n"
                 "  \"series\": %llu,\n"
                 "  \"queries\": %llu,\n"
                 "  \"k\": %u,\n"
                 "  \"zipf_s\": %.3f,\n"
                 "  \"sub_batch\": %llu,\n"
                 "  \"num_pivots\": 8,\n",
                 static_cast<unsigned long long>(count),
                 static_cast<unsigned long long>(nq), kK, skew,
                 static_cast<unsigned long long>(sub_batch));
    const char* names[] = {"base", "sched", "pivots", "sched_pivots"};
    for (int i = 0; i < 4; ++i) {
      std::fprintf(json,
                   "  \"%s_p50_ms\": %.4f,\n"
                   "  \"%s_p99_ms\": %.4f,\n"
                   "  \"%s_p999_ms\": %.4f,\n"
                   "  \"%s_wall_seconds\": %.6f,\n"
                   "  \"%s_candidates\": %llu,\n"
                   "  \"%s_pivot_pruned\": %llu,\n",
                   names[i], res[i].p50_ms, names[i], res[i].p99_ms, names[i],
                   res[i].p999_ms, names[i], res[i].total_seconds, names[i],
                   static_cast<unsigned long long>(res[i].candidates),
                   names[i],
                   static_cast<unsigned long long>(res[i].pivot_pruned));
    }
    std::fprintf(json,
                 "  \"p99_improvement_sched_pivots_vs_base\": %.3f,\n"
                 "  \"results_match\": %s,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 p99_improvement, results_match ? "true" : "false",
                 (results_match && candidates_drop) ? "true" : "false");
    std::fclose(json);
    std::printf("wrote BENCH_query_engine.json\n");
  }
}

}  // namespace
}  // namespace bench
}  // namespace tardis

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--skew") {
    tardis::bench::RunSkew();
  } else {
    tardis::bench::Run();
  }
}
