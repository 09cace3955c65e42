// tardis_perfbench — closed-loop serving benchmark with per-layer attribution.
//
//   tardis_perfbench --workload knn_hot|exact_cold --seed N
//                    --seconds S --trace 0|1 --work DIR
//                    [--trace-out FILE] [--git-rev REV]
//
// One process runs one workload. It generates the corpus (the same in every
// run) and, from the seed, the queries; builds the index; serves it
// in-process (TardisIndex::Build -> TardisIndex::Open -> net::TardisServer);
// and drives it over loopback with closed-loop traffic (closed_loop.h),
// checking every response. perfbench/NOTES.md explains the workloads and
// every metric.
//
// --trace 0 reports the end-to-end metrics of one untraced measured window.
// --trace 1 runs an untraced window, then a window with the program's
// telemetry enabled, then the per-layer probes (layer_probes.h), reports the
// per-layer metrics and writes the spans as Chrome-trace JSON to
// --trace-out. Either way the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdarg>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "closed_loop.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "core/ground_truth.h"
#include "core/query_engine.h"
#include "core/tardis_index.h"
#include "layer_probes.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/block_store.h"
#include "ts/kernels.h"
#include "workload/datasets.h"
#include "workload/query_gen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace tardis {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// The indexed corpus is the same in every run (the house dataset seed of
// bench/bench_common.h), so the index shape, partition count and set-up work
// do not vary between runs; --seed varies the traffic: the kNN and
// exact-match queries and the probe's append batches.
constexpr uint64_t kDatasetSeed = 2026;
constexpr uint64_t kSeries = 200000;
constexpr uint32_t kLength = 256;
constexpr uint32_t kSetups = 5;
constexpr uint32_t kK = 10;
constexpr uint32_t kKnnPool = 2000;
constexpr uint32_t kExactPool = 2000;
constexpr uint32_t kRecallQueries = 1000;
constexpr uint32_t kAppendRows = 1000;
// The traced run times kProbeAppends appends after the window, behind
// kProbeWarmAppends untimed ones: on the sandbox this was developed on,
// fsync latency fell by half after ~6 s of sustained fsyncs, whatever issued
// them.
constexpr uint32_t kProbeWarmAppends = 12;
constexpr uint32_t kProbeAppends = 12;
// qps and p99 are medians over slices of this length (closed_loop.h).
constexpr double kSliceS = 2.5;
// The traced window records spans only for its first seconds: the server
// writes a few spans per request, and the registry keeps at most
// telemetry::Registry::kMaxSpans, which must leave room for the probes'.
constexpr double kSpanSeconds = 3.0;
constexpr uint32_t kConnections = 2;
constexpr uint32_t kOutstanding = 16;  // per connection
constexpr double kWarmupS = 2.0;
constexpr uint32_t kBlockCapacity = 500;

enum class Workload { kKnnHot, kExactCold };

struct WorkloadSpec {
  Workload id;
  const char* name;
  uint64_t cache_mb;
};

constexpr WorkloadSpec kWorkloads[] = {
    {Workload::kKnnHot, "knn_hot", 512},
    {Workload::kExactCold, "exact_cold", 64},
};

struct Options {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work;
  std::string trace_out;
  std::string git_rev = "unknown";
};

uint64_t Derive(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x100000001b3ULL + stream;
  return SplitMix64(state);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

class Metrics {
 public:
  // Records a metric and prints it with the counts it was derived from.
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& basis = "") {
    entries_.push_back({name, value, unit});
    std::printf("  %-36s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
                basis.c_str());
  }
  std::string Json() const {
    std::string out = "{";
    char buf[256];
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                    "\"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    std::isfinite(entries_[i].value) ? entries_[i].value : 0.0,
                    entries_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string Basis(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Basis(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

// ---------------------------------------------------------------------------
// Process memory.
// ---------------------------------------------------------------------------

void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Telemetry snapshots (traced window).
// ---------------------------------------------------------------------------

const char* const kCounters[] = {
    "tardis.serve.bytes_read",          "tardis.serve.bytes_written",
    "tardis.serve.requests",            "tardis.query.batch.knn.queries",
    "tardis.query.batch.exact.queries", "tardis.query.batch.knn.candidates",
    "tardis.query.batch.exact.candidates",
    "tardis.storage.partition_bytes_read",
};
const char* const kHistograms[] = {
    "tardis.serve.batch_size",
    "tardis.query.batch.knn.prepare_us",   "tardis.query.batch.knn.load_us",
    "tardis.query.batch.knn.scan_us",      "tardis.query.batch.knn.merge_us",
    "tardis.query.batch.knn.wall_us",      "tardis.query.batch.exact.prepare_us",
    "tardis.query.batch.exact.load_us",    "tardis.query.batch.exact.scan_us",
    "tardis.query.batch.exact.merge_us",   "tardis.query.batch.exact.wall_us",
    "tardis.cache.load_us",                "tardis.storage.read_sidecar_us",
};

struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<uint64_t, uint64_t>> hists;  // sum, count
  PartitionCacheStats cache;
};

Snapshot TakeSnapshot(const TardisIndex& index) {
  auto& reg = telemetry::Registry::Global();
  Snapshot s;
  for (const char* name : kCounters) {
    s.counters[name] = reg.GetCounter(name).Value();
  }
  for (const char* name : kHistograms) {
    const telemetry::Histogram& h = reg.GetHistogram(name);
    s.hists[name] = {h.Sum(), h.Count()};
  }
  s.cache = index.CacheStats();
  return s;
}

struct Delta {
  const Snapshot& a;
  const Snapshot& b;
  double Counter(const std::string& name) const {
    return static_cast<double>(b.counters.at(name) - a.counters.at(name));
  }
  double HistSum(const std::string& name) const {
    return static_cast<double>(b.hists.at(name).first -
                               a.hists.at(name).first);
  }
  double HistCount(const std::string& name) const {
    return static_cast<double>(b.hists.at(name).second -
                               a.hists.at(name).second);
  }
};

// ---------------------------------------------------------------------------
// Appends.
// ---------------------------------------------------------------------------

struct AppendLog {
  std::vector<double> lat_ms;
  uint64_t batches = 0;
  uint64_t failed = 0;
  uint64_t rekeyed = 0;  // partitions whose content generation moved
  // The first series of each acknowledged batch and the rid it was given.
  std::vector<std::pair<const TimeSeries*, RecordId>> firsts;
};

uint64_t RekeyedPartitions(const IndexEpoch& before, const IndexEpoch& after) {
  uint64_t n = 0;
  const auto& pb = before.manifest.partitions;
  const auto& pa = after.manifest.partitions;
  for (size_t p = 0; p < pa.size() && p < pb.size(); ++p) {
    if (pa[p].delta_gens != pb[p].delta_gens) ++n;
  }
  return n;
}

// Appends `batches` back to back, timing each.
void AppendBatches(TardisIndex* index, std::span<const Dataset> batches,
                   AppendLog* log) {
  for (const Dataset& batch : batches) {
    const EpochPtr before = index->CurrentEpoch();
    const Clock::time_point t = Clock::now();
    Result<std::vector<RecordId>> rids = [&] {
      telemetry::ScopedSpan span("bench.append");
      span.AddAttr("rows", batch.size());
      return index->Append(batch);
    }();
    log->lat_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t).count());
    ++log->batches;
    if (!rids.ok() || rids->size() != batch.size()) {
      std::fprintf(stderr, "append failed: %s\n",
                   rids.ok() ? "wrong rid count"
                             : rids.status().ToString().c_str());
      ++log->failed;
      continue;
    }
    log->rekeyed += RekeyedPartitions(*before, *index->CurrentEpoch());
    log->firsts.emplace_back(&batch.front(), rids->front());
  }
}

// ---------------------------------------------------------------------------
// Answer checks.
// ---------------------------------------------------------------------------

// Request tags: the top bit says what the request was, the rest index into
// the matching pool.
constexpr uint64_t kTagExact = uint64_t{1} << 63;

struct Checker {
  const ExactMatchWorkload* exact = nullptr;
  uint64_t max_rid = 0;  // every rid the index holds is below this
  bool keep_samples = false;
  // First answer seen per sampled kNN query, per connection (each map is
  // touched only by its connection's thread).
  std::vector<std::unordered_map<uint64_t, std::vector<Neighbor>>> samples;

  bool KnnSane(const net::ServeResponse& resp) const {
    if (resp.op != net::ServeOp::kKnn || !resp.results_complete ||
        resp.neighbors.size() != kK) {
      return false;
    }
    for (const Neighbor& n : resp.neighbors) {
      if (!std::isfinite(n.distance) || n.distance < 0 || n.rid >= max_rid) {
        return false;
      }
    }
    return std::is_sorted(resp.neighbors.begin(), resp.neighbors.end());
  }

  static bool Contains(const std::vector<RecordId>& v, RecordId rid) {
    return std::find(v.begin(), v.end(), rid) != v.end();
  }

  bool Check(uint32_t conn, uint64_t tag, const net::ServeResponse& resp) {
    const uint64_t v = tag & ~kTagExact;
    if ((tag & kTagExact) != 0) {
      if (resp.op != net::ServeOp::kExact) return false;
      return exact->expected_present[v]
                 ? Contains(resp.matches, exact->source_rid[v])
                 : resp.matches.empty();
    }
    if (!KnnSane(resp)) return false;
    if (!keep_samples || v >= kRecallQueries) return true;
    auto [it, inserted] = samples[conn].try_emplace(v, resp.neighbors);
    return inserted || it->second == resp.neighbors;
  }
};

// Sends every request over one connection with up to `depth` outstanding;
// responses come back in request order.
Result<std::vector<net::ServeResponse>> CallPipelined(
    uint16_t port, const std::vector<net::ServeRequest>& reqs,
    uint32_t depth) {
  TARDIS_ASSIGN_OR_RETURN(net::ServeClient client,
                          net::ServeClient::Connect(port));
  std::vector<net::ServeResponse> out(reqs.size());
  size_t sent = 0;
  size_t received = 0;
  while (received < reqs.size()) {
    while (sent < reqs.size() && sent - received < depth) {
      net::ServeRequest req = reqs[sent];
      req.request_id = sent;
      TARDIS_RETURN_NOT_OK(client.Send(req));
      ++sent;
    }
    TARDIS_ASSIGN_OR_RETURN(net::ServeResponse resp, client.Receive());
    if (resp.request_id >= out.size()) {
      return Status::Corruption("response to an unknown request id");
    }
    out[resp.request_id] = std::move(resp);
    ++received;
  }
  return out;
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

class Bench {
 public:
  explicit Bench(Options opts) : opts_(std::move(opts)) {}

  // Runs the workload and prints the report; an error means no result.
  Status Run();

 private:
  Status Generate();
  Status Setup();
  LoadSpec MakeLoad();
  // One measured window; `traced` enables the program's telemetry inside
  // it. Fills the window's snapshot pair and resident-byte peak when traced.
  LoadTally Window(bool traced);
  // The post-window kNN pass: recall against brute force and bit-identity
  // against an in-process replay (and against the sampled in-window answers).
  Status VerifyKnn(double* recall);
  // Probes every layer but the append layer after the traced window and
  // reports its metrics.
  Status ReportLayers(const LoadTally& untraced, const LoadTally& traced,
                      Metrics* m);
  // The append layer, probed on the idle server: kProbeWarmAppends untimed
  // appends, kProbeAppends timed ones, then an exact-match read-back of each
  // batch over the wire.
  Status ReportAppendLayer(Metrics* m);
  void CountLoad(const LoadTally& t) {
    attempted_ += t.attempted;
    failed_ += t.failed();
    overloaded_ += t.overloaded;
  }
  void CountAppends(const AppendLog& log) {
    attempted_ += log.batches;
    failed_ += log.failed;
  }

  const WorkloadSpec& spec() const { return *opts_.spec; }
  std::string IndexDir() const { return opts_.work + "/index"; }

  Options opts_;
  std::shared_ptr<Cluster> cluster_;
  std::unique_ptr<BlockStore> store_;
  std::vector<TimeSeries> knn_pool_;
  ExactMatchWorkload exact_;
  std::vector<uint32_t> exact_order_;  // present and absent interleaved
  std::vector<TimeSeries> recall_queries_;
  std::vector<std::vector<Neighbor>> gt_;
  std::vector<Dataset> append_batches_;  // traced runs only
  Checker checker_;

  std::unique_ptr<TardisIndex> index_;
  std::unique_ptr<net::TardisServer> server_;
  std::vector<double> setup_s_, global_s_, shuffle_s_, local_s_, open_s_;
  uint64_t task_retries_ = 0;

  Snapshot snap_before_, snap_after_;
  uint64_t resident_peak_ = 0;

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t overloaded_ = 0;
};

Status Bench::Generate() {
  const Clock::time_point t = Clock::now();
  TARDIS_ASSIGN_OR_RETURN(
      Dataset dataset,
      MakeDataset(DatasetKind::kRandomWalk, kSeries, kLength, kDatasetSeed));
  TARDIS_ASSIGN_OR_RETURN(
      BlockStore store,
      BlockStore::Create(opts_.work + "/data", dataset, kBlockCapacity));
  store_ = std::make_unique<BlockStore>(std::move(store));

  knn_pool_ = MakeKnnQueries(dataset, kKnnPool, 0.05, Derive(opts_.seed, 1));
  exact_ = MakeExactMatchWorkload(dataset, kExactPool, 0.5,
                                  Derive(opts_.seed, 2));
  const uint32_t half = kExactPool / 2;  // present first, then absent
  for (uint32_t i = 0; i < half; ++i) {
    exact_order_.push_back(i);
    exact_order_.push_back(half + i);
  }
  recall_queries_.assign(knn_pool_.begin(), knn_pool_.begin() + kRecallQueries);
  const Clock::time_point gt_start = Clock::now();
  TARDIS_ASSIGN_OR_RETURN(
      gt_, CachedExactKnn(*cluster_, *store_, recall_queries_, kK,
                               opts_.work + "/ground_truth.bin"));

  const uint32_t num_batches =
      opts_.trace ? kProbeWarmAppends + kProbeAppends : 0;
  for (uint32_t b = 0; b < num_batches; ++b) {
    TARDIS_ASSIGN_OR_RETURN(
        Dataset batch, MakeDataset(DatasetKind::kRandomWalk, kAppendRows,
                                   kLength, Derive(opts_.seed, 100 + b)));
    append_batches_.push_back(std::move(batch));
  }
  std::printf("generated %" PRIu64 " series, %u kNN + %u exact queries, "
              "%zu append batches in %.2f s (ground truth for %u queries: "
              "%.2f s)\n",
              kSeries, kKnnPool, kExactPool, append_batches_.size(),
              std::chrono::duration<double>(Clock::now() - t).count(),
              kRecallQueries,
              std::chrono::duration<double>(Clock::now() - gt_start).count());
  return Status::OK();
}

Status Bench::Setup() {
  TardisConfig config;  // the CLI build defaults
  config.g_max_size = 2000;
  config.l_max_size = 200;
  config.sampling_percent = 10.0;
  config.cache_budget_bytes = spec().cache_mb << 20;
  net::ServeOptions serve;

  for (uint32_t s = 0; s < kSetups; ++s) {
    server_.reset();
    index_.reset();
    std::error_code ec;
    std::filesystem::remove_all(IndexDir(), ec);

    const Clock::time_point t0 = Clock::now();
    TardisIndex::BuildTimings timings;
    {
      TARDIS_ASSIGN_OR_RETURN(
          TardisIndex built,
          TardisIndex::Build(cluster_, *store_, IndexDir(), config, &timings));
    }
    const Clock::time_point t1 = Clock::now();
    TARDIS_ASSIGN_OR_RETURN(TardisIndex opened,
                            TardisIndex::Open(cluster_, IndexDir()));
    index_ = std::make_unique<TardisIndex>(std::move(opened));
    index_->SetCacheBudget(config.cache_budget_bytes);
    const Clock::time_point t2 = Clock::now();
    server_ = std::make_unique<net::TardisServer>(*index_, serve);
    TARDIS_RETURN_NOT_OK(server_->Start());
    const Clock::time_point t3 = Clock::now();

    setup_s_.push_back(std::chrono::duration<double>(t3 - t0).count());
    global_s_.push_back(timings.global.TotalSeconds());
    shuffle_s_.push_back(timings.shuffle_seconds);
    local_s_.push_back(timings.local_build_seconds +
                       timings.bloom_extra_seconds);
    open_s_.push_back(std::chrono::duration<double>(t2 - t1).count());
    task_retries_ += timings.job.retries;
  }
  std::printf("setup (build + open + start) x%u: median %.3f s, %u "
              "partitions, port %u\n",
              kSetups, Median(setup_s_), index_->num_partitions(),
              server_->port());
  return Status::OK();
}

LoadSpec Bench::MakeLoad() {
  LoadSpec load;
  load.port = server_->port();
  load.connections = kConnections;
  load.outstanding = kOutstanding;
  load.check = [this](uint32_t conn, uint64_t tag,
                      const net::ServeResponse& resp) {
    return checker_.Check(conn, tag, resp);
  };
  if (spec().id == Workload::kKnnHot) {
    load.next = [this](uint32_t conn, uint64_t seq) {
      Outgoing out;
      out.req.op = net::ServeOp::kKnn;
      out.req.k = kK;
      out.req.strategy = KnnStrategy::kMultiPartitions;
      const uint64_t idx = (seq * kConnections + conn) % knn_pool_.size();
      out.req.query = knn_pool_[idx];
      out.tag = idx;
      return out;
    };
  } else {
    load.next = [this](uint32_t conn, uint64_t seq) {
      Outgoing out;
      out.req.op = net::ServeOp::kExact;
      out.req.use_bloom = true;
      const uint64_t idx =
          exact_order_[(seq * kConnections + conn) % exact_order_.size()];
      out.req.query = exact_.queries[idx];
      out.tag = kTagExact | idx;
      return out;
    };
  }
  return load;
}

LoadTally Bench::Window(bool traced) {
  return RunClosedLoop(MakeLoad(), kWarmupS, [&] {
    std::atomic<bool> done{false};
    std::thread sampler;
    if (traced) {
      telemetry::Registry::Global().ClearSpans();
      telemetry::SetEnabled(true);
      telemetry::SetTraceEnabled(true);
      snap_before_ = TakeSnapshot(*index_);
      resident_peak_ = 0;
      // Samples the cache's resident bytes, and ends span recording after
      // kSpanSeconds.
      sampler = std::thread([&] {
        const Clock::time_point spans_end =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(kSpanSeconds));
        while (!done.load()) {
          resident_peak_ =
              std::max(resident_peak_, index_->CacheStats().resident_bytes);
          if (Clock::now() >= spans_end) telemetry::SetTraceEnabled(false);
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      });
    }
    ResetPeakRss();
    std::this_thread::sleep_for(std::chrono::duration<double>(opts_.seconds));
    if (traced) {
      snap_after_ = TakeSnapshot(*index_);
      telemetry::SetEnabled(false);
      done.store(true);
      sampler.join();
    }
  });
}

Status Bench::VerifyKnn(double* recall) {
  QueryEngine engine(*index_);
  QueryEngineStats stats;
  TARDIS_ASSIGN_OR_RETURN(
      std::vector<std::vector<Neighbor>> expected,
      engine.KnnApproximateBatch(recall_queries_, kK,
                                 KnnStrategy::kMultiPartitions, &stats));

  std::vector<net::ServeRequest> reqs(recall_queries_.size());
  for (size_t q = 0; q < reqs.size(); ++q) {
    reqs[q].op = net::ServeOp::kKnn;
    reqs[q].k = kK;
    reqs[q].strategy = KnnStrategy::kMultiPartitions;
    reqs[q].query = recall_queries_[q];
  }
  TARDIS_ASSIGN_OR_RETURN(std::vector<net::ServeResponse> got,
                          CallPipelined(server_->port(), reqs, 16));
  uint64_t mismatches = 0;
  uint64_t hits = 0;
  for (size_t q = 0; q < got.size(); ++q) {
    if (got[q].status != net::ServeStatus::kOk ||
        got[q].neighbors != expected[q]) {
      ++mismatches;
    }
    for (const Neighbor& n : got[q].neighbors) {
      for (const Neighbor& t : gt_[q]) hits += n.rid == t.rid ? 1 : 0;
    }
  }
  uint64_t sample_mismatches = 0;
  uint64_t samples = 0;
  for (const auto& per_conn : checker_.samples) {
    for (const auto& [q, answer] : per_conn) {
      ++samples;
      if (answer != expected[q]) ++sample_mismatches;
    }
  }
  attempted_ += got.size() + samples;
  failed_ += mismatches + sample_mismatches;
  *recall = Ratio(hits, static_cast<double>(got.size()) * kK);
  std::printf("kNN check (%s, epoch %" PRIu64 "): %zu wire answers, %" PRIu64
              " differ from the in-process replay; %" PRIu64
              " sampled in-window answers, %" PRIu64 " differ; recall@10 "
              "%.4f (%" PRIu64 " / %zu true neighbours)\n",
              KnnStrategyName(KnnStrategy::kMultiPartitions),
              stats.epoch_generation,
              got.size(), mismatches, samples, sample_mismatches, *recall,
              hits, got.size() * kK);
  return Status::OK();
}

Status Bench::Run() {
  telemetry::SetEnabled(false);
  telemetry::SetTraceEnabled(false);
  cluster_ = std::make_shared<Cluster>();
  std::filesystem::create_directories(opts_.work);

  std::printf("== tardis_perfbench: workload %s, seed %" PRIu64
              ", %.0f s window, trace %d\n",
              spec().name, opts_.seed, opts_.seconds, opts_.trace ? 1 : 0);
  std::printf("run record: nproc %u, kernels %s, build %s, cluster workers "
              "%zu, git %s, dataset %" PRIu64 " x %u RandomWalk (%.1f MB "
              "raw), cache %" PRIu64 " MB, %u connections x %u outstanding\n",
              std::thread::hardware_concurrency(),
              KernelBackendName(ActiveKernelBackend()), PERFBENCH_BUILD_TYPE,
              cluster_->num_workers(), opts_.git_rev.c_str(), kSeries,
              kLength, kSeries * kLength * 4.0 / 1e6, spec().cache_mb,
              kConnections, kOutstanding);
  std::printf("note: 'cold' = a partition-cache miss served from the OS page "
              "cache; fsync and read times are this machine's, not a "
              "device's\n");

  TARDIS_RETURN_NOT_OK(Generate());
  checker_.exact = &exact_;
  checker_.max_rid = kSeries;
  checker_.keep_samples = spec().id == Workload::kKnnHot;
  checker_.samples.resize(kConnections);
  TARDIS_RETURN_NOT_OK(Setup());

  const LoadTally untraced = Window(false);
  const double rss_mb = PeakRssMb();
  CountLoad(untraced);
  const std::vector<double> lat_ms = untraced.WindowLatenciesMs();
  const size_t slices = static_cast<size_t>(untraced.window_s / kSliceS);
  std::printf("untraced window: %.2f s in %zu slices of %.1f s, %" PRIu64
              " responses, %zu latency samples (about %zu per slice, %zu "
              "above each slice's p99)\n",
              untraced.window_s, slices, kSliceS, untraced.CompletedInWindow(),
              lat_ms.size(), lat_ms.size() / std::max<size_t>(slices, 1),
              lat_ms.size() / std::max<size_t>(slices, 1) / 100);

  Metrics metrics;
  double recall = 0.0;
  if (!opts_.trace) {
    TARDIS_RETURN_NOT_OK(VerifyKnn(&recall));
    const DirUsage disk = MeasureDir(IndexDir());
    const double user_bytes = kSeries * kLength * 4.0;
    std::printf("end-to-end:\n");
    metrics.Add("setup_s", Median(setup_s_), "s",
                Basis("median of %zu set-ups", setup_s_.size()));
    metrics.Add("qps", untraced.SliceMedianQps(kSliceS), "1/s",
                Basis("median over %zu slices; %" PRIu64 " responses in "
                      "%.2f s overall",
                      slices, untraced.CompletedInWindow(),
                      untraced.window_s));
    metrics.Add("p50_ms", Median(lat_ms), "ms",
                Basis("n=%zu", lat_ms.size()));
    metrics.Add("p99_ms", untraced.SliceMedianLatencyMs(kSliceS, 0.99), "ms",
                Basis("median of %zu slice p99s; n=%zu", slices,
                      lat_ms.size()));
    metrics.Add("recall_at_10", recall, "ratio",
                Basis("%u queries, %s", kRecallQueries,
                      KnnStrategyName(KnnStrategy::kMultiPartitions)));
    metrics.Add("disk_bytes_per_user_byte", Ratio(disk.bytes, user_bytes),
                "ratio",
                Basis("%" PRIu64 " B in %" PRIu64 " files / %.0f B",
                      disk.bytes, disk.files, user_bytes));
    metrics.Add("rss_peak_mb", rss_mb, "MB", "VmHWM over the window");
  } else {
    const LoadTally traced = Window(true);
    CountLoad(traced);
    std::printf("traced window: %.2f s, %" PRIu64 " responses\n",
                traced.window_s, traced.CompletedInWindow());
    telemetry::SetTraceEnabled(true);
    TARDIS_RETURN_NOT_OK(ReportLayers(untraced, traced, &metrics));
    // Before the append probe, so the replay runs at the window's epoch.
    TARDIS_RETURN_NOT_OK(VerifyKnn(&recall));
    TARDIS_RETURN_NOT_OK(ReportAppendLayer(&metrics));
    telemetry::SetTraceEnabled(false);
    if (!opts_.trace_out.empty()) {
      TARDIS_RETURN_NOT_OK(
          telemetry::Registry::Global().DumpTraceJsonToFile(opts_.trace_out));
      std::printf("wrote %zu spans (%" PRIu64 " dropped) to %s\n",
                  telemetry::Registry::Global().SnapshotSpans().size(),
                  telemetry::Registry::Global().dropped_spans(),
                  opts_.trace_out.c_str());
    }
  }
  server_->Shutdown();

  std::printf("operations: %" PRIu64 " attempted, %" PRIu64 " failed (%" PRIu64
              " overloaded)\n",
              attempted_, failed_, overloaded_);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %"
              PRIu64 ", \"metrics\": %s}\n",
              failed_ == 0 ? "true" : "false", attempted_, failed_,
              metrics.Json().c_str());
  return Status::OK();
}

Status Bench::ReportLayers(const LoadTally& untraced, const LoadTally& traced,
                           Metrics* m) {
  const Delta d{snap_before_, snap_after_};
  const double window_us = traced.window_s * 1e6;
  const double requests = d.Counter("tardis.serve.requests");
  const uint64_t budget = index_->partition_cache() != nullptr
                              ? index_->partition_cache()->budget_bytes()
                              : 0;
  std::printf("per-layer (traced window %.2f s, %.0f requests; value unit "
              "basis):\n",
              traced.window_s, requests);

  // net: the wire and the dispatcher.
  const double ping_us = PingRttUs(server_->port(), 500);
  m->Add("net.ping_rtt_us", ping_us, "us", "p50 of 500 kPing on an idle "
         "connection");
  const double wire_bytes = d.Counter("tardis.serve.bytes_read") +
                            d.Counter("tardis.serve.bytes_written");
  m->Add("net.bytes_per_request", Ratio(wire_bytes, requests), "B",
         Basis("%.0f B read+written / %.0f requests", wire_bytes, requests));
  const double batched = d.HistSum("tardis.serve.batch_size");
  const double batches = d.HistCount("tardis.serve.batch_size");
  m->Add("net.batch_size_mean", Ratio(batched, batches), "count",
         Basis("%.0f requests / %.0f dispatch batches", batched, batches));
  const double engine_wall = d.HistSum("tardis.query.batch.knn.wall_us") +
                             d.HistSum("tardis.query.batch.exact.wall_us");
  m->Add("net.dispatcher_busy_share", Ratio(engine_wall, window_us), "ratio",
         Basis("%.0f us in engine batches / %.0f us window", engine_wall,
               window_us));

  // engine: per-phase time of the batched query paths.
  const double queries = d.Counter("tardis.query.batch.knn.queries") +
                         d.Counter("tardis.query.batch.exact.queries");
  for (const char* phase : {"prepare", "load", "scan", "merge"}) {
    const std::string suffix = std::string(".") + phase + "_us";
    const double us = d.HistSum("tardis.query.batch.knn" + suffix) +
                      d.HistSum("tardis.query.batch.exact" + suffix);
    m->Add(std::string("engine.") + phase + "_us_per_query",
           Ratio(us, queries), "us",
           Basis("%.0f us summed over tasks / %.0f queries", us, queries));
  }
  const double candidates = d.Counter("tardis.query.batch.knn.candidates") +
                            d.Counter("tardis.query.batch.exact.candidates");

  // cache and storage counters of the traced window.
  const PartitionCacheStats& c0 = snap_before_.cache;
  const PartitionCacheStats& c1 = snap_after_.cache;
  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double lookups = static_cast<double>(c1.Lookups() - c0.Lookups());
  const double evictions = static_cast<double>(c1.evictions - c0.evictions);
  const double load_us = d.HistSum("tardis.cache.load_us");
  const double loads = d.HistCount("tardis.cache.load_us");
  const double part_bytes = d.Counter("tardis.storage.partition_bytes_read");
  const double sidecar_reads = d.HistCount("tardis.storage.read_sidecar_us");

  // ts: kernel and query preparation (run before anything moves the cache).
  const std::vector<TimeSeries> kernel_queries(knn_pool_.begin(),
                                               knn_pool_.begin() + 100);
  const KernelProbe kernel = ProbeKernel(*index_, kernel_queries);
  m->Add("ts.kernel_gbps", Ratio(kernel.bytes, kernel.seconds) / 1e9, "GB/s",
         Basis("%" PRIu64 " B over %" PRIu64 " resident arenas x 100 queries "
               "/ %.4f s",
               kernel.bytes, kernel.arenas, kernel.seconds));
  m->Add("ts.prepare_us", PrepareUsPerQuery(*index_, knn_pool_), "us",
         Basis("mean over %zu queries", knn_pool_.size()));

  // route: Tardis-G lookups.
  const RouteProbe route = ProbeRoute(*index_, knn_pool_);
  m->Add("route.lookup_us", route.lookup_us, "us",
         Basis("LookupPartition + SiblingPartitions, mean over %" PRIu64
               " queries", route.queries));
  m->Add("route.partitions_per_query", Ratio(route.partitions, route.queries),
         "count",
         Basis("%" PRIu64 " partitions / %" PRIu64 " queries (siblings capped "
               "at pth %u)",
               route.partitions, route.queries, index_->config().pth));

  m->Add("cache.hit_rate", Ratio(hits, lookups), "ratio",
         Basis("%.0f hits / %.0f lookups", hits, lookups));
  m->Add("cache.evictions_per_request", Ratio(evictions, requests), "count",
         Basis("%.0f evictions / %.0f requests", evictions, requests));
  m->Add("cache.miss_load_us", Ratio(load_us, loads), "us",
         Basis("%.0f us / %.0f cache loads", load_us, loads));
  m->Add("cache.resident_peak_over_budget",
         Ratio(static_cast<double>(resident_peak_), budget), "ratio",
         Basis("%" PRIu64 " B peak (sampled every 10 ms) / %" PRIu64
               " B budget",
               resident_peak_, budget));
  m->Add("storage.partition_mb_per_request",
         Ratio(part_bytes / 1e6, requests), "MB",
         Basis("%.0f B partition reads / %.0f requests", part_bytes,
               requests));
  m->Add("storage.sidecar_reads_per_request", Ratio(sidecar_reads, requests),
         "count",
         Basis("%.0f sidecar reads / %.0f requests", sidecar_reads, requests));
  TARDIS_ASSIGN_OR_RETURN(const StorageProbe storage,
                          ProbeStorage(*index_, IndexDir()));
  m->Add("storage.arena_decode_gbps",
         Ratio(storage.file_bytes, storage.decode_seconds) / 1e9, "GB/s",
         Basis("%" PRIu64 " file B of %" PRIu64 " partitions / %.4f s",
               storage.file_bytes, storage.partitions,
               storage.decode_seconds));
  m->Add("storage.crc_gbps",
         Ratio(storage.file_bytes, storage.crc_seconds) / 1e9, "GB/s",
         Basis("%" PRIu64 " B / %.4f s", storage.file_bytes,
               storage.crc_seconds));

  // engine and bloom: an in-process replay of this workload's queries at
  // the traced mean batch size.
  const uint32_t batch =
      std::max<uint32_t>(1, static_cast<uint32_t>(
                                std::lround(Ratio(batched, batches))));
  QueryEngineStats replay;
  QueryEngineStats replay_exact;
  if (spec().id == Workload::kKnnHot) {
    const std::vector<TimeSeries> knn_queries(knn_pool_.begin(),
                                              knn_pool_.begin() + 500);
    TARDIS_ASSIGN_OR_RETURN(replay, ReplayKnn(*index_, knn_queries, batch,
                                              KnnStrategy::kMultiPartitions));
  } else {
    std::vector<TimeSeries> exact_queries;
    for (uint32_t i = 0; i < 1000; ++i) {
      exact_queries.push_back(exact_.queries[exact_order_[i]]);
    }
    TARDIS_ASSIGN_OR_RETURN(replay_exact,
                            ReplayExact(*index_, exact_queries, batch));
  }
  const uint64_t r_queries = replay.queries + replay_exact.queries;
  const uint64_t r_loads =
      replay.partitions_loaded + replay_exact.partitions_loaded;
  const uint64_t r_logical =
      replay.logical_partition_loads + replay_exact.logical_partition_loads;
  m->Add("engine.loads_per_query", Ratio(r_loads, r_queries), "count",
         Basis("%" PRIu64 " issued loads / %" PRIu64 " queries, replayed in "
               "batches of %u",
               r_loads, r_queries, batch));
  m->Add("engine.load_saving", 1.0 - Ratio(r_loads, r_logical), "ratio",
         Basis("1 - %" PRIu64 " issued / %" PRIu64 " one-at-a-time loads",
               r_loads, r_logical));
  m->Add("scan.candidates_per_query", Ratio(candidates, queries), "count",
         Basis("%.0f candidates / %.0f queries", candidates, queries));
  m->Add("bloom.negative_share",
         Ratio(replay_exact.bloom_negatives, replay_exact.queries), "ratio",
         replay_exact.queries == 0
             ? "unavailable: no exact-match traffic on this workload"
             : Basis("%" PRIu64 " bloom negatives / %" PRIu64
                     " exact queries (replay)",
                     replay_exact.bloom_negatives, replay_exact.queries));

  // The known Unpin defect: a kNN-Multi batch pins every partition it
  // touches, and unpinning never re-runs eviction.
  {
    telemetry::ScopedSpan span("bench.probe.cache_over_budget");
    const uint64_t before = index_->CacheStats().resident_bytes;
    const std::vector<TimeSeries> multi(knn_pool_.begin(),
                                        knn_pool_.begin() + 64);
    QueryEngine engine(*index_);
    QueryEngineStats stats;
    TARDIS_RETURN_NOT_OK(
        engine.KnnApproximateBatch(multi, kK, KnnStrategy::kMultiPartitions,
                                   &stats)
            .status());
    const uint64_t after = index_->CacheStats().resident_bytes;
    m->Add("cache.over_budget_after_knn_multi",
           Ratio(static_cast<double>(after), budget), "ratio",
           Basis("%" PRIu64 " B resident after one 64-query kNN-Multi batch "
                 "(%" PRIu64 " B before) / %" PRIu64 " B budget",
                 after, before, budget));
  }

  // build: the set-up's phases (medians over the set-ups).
  m->Add("build.global_s", Median(global_s_), "s", "Tardis-G sample + tree");
  m->Add("build.shuffle_s", Median(shuffle_s_), "s", "read + convert + shuffle");
  m->Add("build.local_s", Median(local_s_), "s", "Tardis-L + Bloom");
  m->Add("build.open_s", Median(open_s_), "s", "TardisIndex::Open");
  m->Add("build.task_retries", static_cast<double>(task_retries_), "count",
         Basis("over %zu builds", setup_s_.size()));

  const double qps_u = untraced.SliceMedianQps(kSliceS);
  const double qps_t = traced.SliceMedianQps(kSliceS);
  m->Add("trace.overhead", Ratio(qps_u - qps_t, qps_u), "ratio",
         Basis("1 - %.1f traced / %.1f untraced qps", qps_t, qps_u));
  return Status::OK();
}

Status Bench::ReportAppendLayer(Metrics* m) {
  const std::span<const Dataset> batches(append_batches_);
  AppendLog warm;
  AppendLog timed;
  const DirUsage before = MeasureDir(IndexDir());
  AppendBatches(index_.get(), batches.first(kProbeWarmAppends), &warm);
  AppendBatches(index_.get(), batches.subspan(kProbeWarmAppends), &timed);
  const DirUsage after = MeasureDir(IndexDir());
  CountAppends(warm);
  CountAppends(timed);

  // Each batch's first series must now be found, under the rid its Append
  // returned.
  std::vector<net::ServeRequest> reqs;
  std::vector<RecordId> want;
  for (const AppendLog* log : {&warm, &timed}) {
    for (const auto& [series, rid] : log->firsts) {
      net::ServeRequest req;
      req.op = net::ServeOp::kExact;
      req.use_bloom = true;
      req.query = *series;
      reqs.push_back(std::move(req));
      want.push_back(rid);
    }
  }
  TARDIS_ASSIGN_OR_RETURN(std::vector<net::ServeResponse> got,
                          CallPipelined(server_->port(), reqs, kOutstanding));
  uint64_t missing = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].status != net::ServeStatus::kOk ||
        !Checker::Contains(got[i].matches, want[i])) {
      ++missing;
    }
  }
  attempted_ += got.size();
  failed_ += missing;
  std::printf("append check: %zu appended series read back, %" PRIu64
              " missing\n",
              got.size(), missing);

  const uint64_t total_batches = warm.batches + timed.batches;
  const double user_bytes =
      static_cast<double>(total_batches) * kAppendRows * kLength * 4;
  const double new_files = static_cast<double>(after.files) - before.files;
  const double new_bytes = static_cast<double>(after.bytes) - before.bytes;
  m->Add("append.p50_ms", Median(timed.lat_ms), "ms",
         Basis("n=%zu batches of %u, back to back on the idle server",
               timed.lat_ms.size(), kAppendRows));
  m->Add("append.files_per_batch", Ratio(new_files, total_batches), "count",
         Basis("%.0f new index-dir files / %" PRIu64 " batches", new_files,
               total_batches));
  m->Add("append.write_amp", Ratio(new_bytes, user_bytes), "ratio",
         Basis("%.0f new index-dir B / %.0f appended user B", new_bytes,
               user_bytes));
  const uint64_t manifest_bytes = NewestManifestBytes(IndexDir());
  TARDIS_ASSIGN_OR_RETURN(const double atomic_ms,
                          AtomicWriteMs(IndexDir(), manifest_bytes, 20));
  m->Add("append.atomic_write_ms", atomic_ms, "ms",
         Basis("median of 20 WriteFileAtomic of %" PRIu64 " B",
               manifest_bytes));
  size_t gens_max = 0;
  for (const ManifestPartition& p : index_->CurrentEpoch()->manifest.partitions) {
    gens_max = std::max(gens_max, p.delta_gens.size());
  }
  m->Add("append.delta_gens_max", static_cast<double>(gens_max), "count",
         Basis("over %u partitions at generation %" PRIu64,
               index_->num_partitions(), index_->generation()));
  m->Add("append.reloads_per_append", Ratio(timed.rekeyed, timed.batches),
         "count",
         Basis("%" PRIu64 " partitions re-keyed in the cache / %" PRIu64
               " appends",
               timed.rekeyed, timed.batches));
  return Status::OK();
}

bool ParseOptions(int argc, char** argv, Options* opts) {
  if (argc % 2 != 1) return false;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    flags[key.substr(2)] = argv[i + 1];
  }
  for (const WorkloadSpec& w : kWorkloads) {
    if (flags["workload"] == w.name) opts->spec = &w;
  }
  opts->work = flags["work"];
  opts->seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  opts->seconds = std::strtod(flags["seconds"].c_str(), nullptr);
  opts->trace = flags["trace"] == "1";
  opts->trace_out = flags["trace-out"];
  if (!flags["git-rev"].empty()) opts->git_rev = flags["git-rev"];
  return opts->spec != nullptr && !opts->work.empty() && opts->seconds > 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace tardis

int main(int argc, char** argv) {
  using namespace tardis::perfbench;
  std::signal(SIGPIPE, SIG_IGN);
  Options opts;
  if (!ParseOptions(argc, argv, &opts)) {
    std::fprintf(stderr,
                 "usage: tardis_perfbench --workload knn_hot|exact_cold "
                 "--work DIR --seed N --seconds S "
                 "[--trace 0|1] [--trace-out FILE] [--git-rev REV]\n");
    return 2;
  }
  Bench bench(std::move(opts));
  const tardis::Status status = bench.Run();
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
