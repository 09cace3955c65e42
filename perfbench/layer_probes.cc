#include "layer_probes.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>

#include "closed_loop.h"
#include "common/crc32c.h"
#include "common/file_util.h"
#include "common/telemetry.h"
#include "net/client.h"
#include "storage/manifest.h"
#include "storage/partition_store.h"
#include "ts/kernels.h"
#include "ts/paa.h"
#include "ts/znorm.h"

namespace tardis {
namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// Keeps a computed value observable so the timed loop is not optimised away.
volatile double g_sink = 0.0;

}  // namespace

double PingRttUs(uint16_t port, uint32_t n) {
  telemetry::ScopedSpan span("bench.probe.ping");
  auto client = net::ServeClient::Connect(port);
  if (!client.ok()) return 0.0;
  std::vector<double> us;
  us.reserve(n);
  net::ServeRequest ping;
  ping.op = net::ServeOp::kPing;
  for (uint32_t i = 0; i < n; ++i) {
    ping.request_id = i;
    const Clock::time_point t = Clock::now();
    if (!client->Call(ping).ok()) return 0.0;
    us.push_back(SecondsSince(t) * 1e6);
  }
  return Quantile(std::move(us), 0.5);
}

double PrepareUsPerQuery(const TardisIndex& index,
                         const std::vector<TimeSeries>& queries) {
  telemetry::ScopedSpan span("bench.probe.ts_prepare");
  const uint32_t w = index.config().word_length;
  std::vector<double> paa(w);
  size_t sig_chars = 0;
  const Clock::time_point t = Clock::now();
  for (const TimeSeries& q : queries) {
    TimeSeries normalized = q;
    ZNormalize(&normalized);
    PaaInto(normalized, w, paa.data());
    sig_chars += index.codec().Encode(paa).size();
  }
  const double s = SecondsSince(t);
  g_sink = g_sink + static_cast<double>(sig_chars);
  return queries.empty() ? 0.0 : s * 1e6 / queries.size();
}

RouteProbe ProbeRoute(const TardisIndex& index,
                      const std::vector<TimeSeries>& queries) {
  telemetry::ScopedSpan span("bench.probe.route");
  const EpochPtr epoch = index.CurrentEpoch();
  const uint32_t w = index.config().word_length;
  const uint32_t pth = index.config().pth;
  std::vector<std::string> sigs;
  sigs.reserve(queries.size());
  std::vector<double> paa(w);
  for (const TimeSeries& q : queries) {
    TimeSeries normalized = q;
    ZNormalize(&normalized);
    PaaInto(normalized, w, paa.data());
    sigs.push_back(index.codec().Encode(paa));
  }
  RouteProbe probe;
  uint64_t home_sum = 0;
  const Clock::time_point t = Clock::now();
  for (const std::string& sig : sigs) {
    home_sum += epoch->global->LookupPartition(sig);
    const size_t siblings = epoch->global->SiblingPartitions(sig).size();
    probe.partitions += std::min<size_t>(siblings, pth);
  }
  const double s = SecondsSince(t);
  g_sink = g_sink + static_cast<double>(home_sum);
  probe.queries = sigs.size();
  probe.lookup_us = sigs.empty() ? 0.0 : s * 1e6 / sigs.size();
  return probe;
}

KernelProbe ProbeKernel(const TardisIndex& index,
                        const std::vector<TimeSeries>& queries) {
  telemetry::ScopedSpan span("bench.probe.ts_kernel");
  KernelProbe probe;
  const PartitionCache* cache = index.partition_cache();
  if (cache == nullptr) return probe;
  const EpochPtr epoch = index.CurrentEpoch();
  std::vector<PartitionCache::Value> arenas;
  for (PartitionId pid = 0; pid < index.num_partitions(); ++pid) {
    const auto& gens = epoch->manifest.partitions[pid].delta_gens;
    const auto key =
        PartitionCache::MakeKey(pid, gens.empty() ? 0 : gens.back());
    if (!cache->IsResident(key)) continue;
    auto arena = index.LoadPartitionShared(pid);
    if (arena.ok()) arenas.push_back(std::move(arena).value());
  }
  std::vector<double> out;
  double acc = 0.0;
  const size_t n = index.series_length();
  const Clock::time_point t = Clock::now();
  for (const PartitionCache::Value& arena : arenas) {
    out.resize(arena->num_records());
    for (const TimeSeries& q : queries) {
      EuclideanBatch(q.data(), arena->values_plane(), arena->stride(),
                     arena->num_records(), n,
                     std::numeric_limits<double>::infinity(), out.data());
      acc += out.empty() ? 0.0 : out[0];
      probe.bytes += static_cast<uint64_t>(arena->num_records()) * n *
                     sizeof(float);
    }
  }
  probe.seconds = SecondsSince(t);
  g_sink = g_sink + acc;
  probe.arenas = arenas.size();
  return probe;
}

Result<StorageProbe> ProbeStorage(const TardisIndex& index,
                                  const std::string& index_dir) {
  telemetry::ScopedSpan span("bench.probe.storage");
  TARDIS_ASSIGN_OR_RETURN(
      PartitionStore store,
      PartitionStore::Open(index_dir, index.series_length()));
  StorageProbe probe;
  uint32_t crc_acc = 0;
  for (PartitionId pid = 0; pid < index.num_partitions(); ++pid) {
    Clock::time_point t = Clock::now();
    TARDIS_ASSIGN_OR_RETURN(PartitionArena arena,
                            store.ReadPartitionArena(pid));
    probe.decode_seconds += SecondsSince(t);
    g_sink = g_sink + arena.num_records();

    // Base partition files are named part_<pid, 6 digits>.bin.
    char name[32];
    std::snprintf(name, sizeof(name), "/part_%06u.bin", pid);
    std::ifstream in(index_dir + name, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    if (bytes.empty()) return Status::IOError("cannot read partition file");
    t = Clock::now();
    crc_acc ^= Crc32c(bytes);
    probe.crc_seconds += SecondsSince(t);
    probe.file_bytes += bytes.size();
    ++probe.partitions;
  }
  g_sink = g_sink + crc_acc;
  return probe;
}

namespace {

void AddStats(const QueryEngineStats& s, QueryEngineStats* acc) {
  acc->queries += s.queries;
  acc->partitions_loaded += s.partitions_loaded;
  acc->logical_partition_loads += s.logical_partition_loads;
  acc->candidates += s.candidates;
  acc->pivot_pruned += s.pivot_pruned;
  acc->bloom_negatives += s.bloom_negatives;
  acc->wall_seconds += s.wall_seconds;
}

template <typename Fn>
Result<QueryEngineStats> Replay(const std::vector<TimeSeries>& queries,
                                uint32_t batch, const Fn& run) {
  QueryEngineStats acc;
  batch = std::max<uint32_t>(batch, 1);
  for (size_t lo = 0; lo < queries.size(); lo += batch) {
    const size_t hi = std::min(queries.size(), lo + batch);
    const std::vector<TimeSeries> chunk(queries.begin() + lo,
                                        queries.begin() + hi);
    QueryEngineStats s;
    TARDIS_RETURN_NOT_OK(run(chunk, &s));
    AddStats(s, &acc);
  }
  return acc;
}

}  // namespace

Result<QueryEngineStats> ReplayKnn(const TardisIndex& index,
                                   const std::vector<TimeSeries>& queries,
                                   uint32_t batch, KnnStrategy strategy) {
  telemetry::ScopedSpan span("bench.probe.engine_replay_knn");
  QueryEngine engine(index);
  return Replay(queries, batch,
                [&](const std::vector<TimeSeries>& chunk,
                    QueryEngineStats* s) -> Status {
                  return engine.KnnApproximateBatch(chunk, 10, strategy, s)
                      .status();
                });
}

Result<QueryEngineStats> ReplayExact(const TardisIndex& index,
                                     const std::vector<TimeSeries>& queries,
                                     uint32_t batch) {
  telemetry::ScopedSpan span("bench.probe.engine_replay_exact");
  QueryEngine engine(index);
  return Replay(queries, batch,
                [&](const std::vector<TimeSeries>& chunk,
                    QueryEngineStats* s) -> Status {
                  return engine.ExactMatchBatch(chunk, /*use_bloom=*/true, s)
                      .status();
                });
}

Result<double> AtomicWriteMs(const std::string& dir, uint64_t payload_bytes,
                             uint32_t repeats) {
  telemetry::ScopedSpan span("bench.probe.atomic_write");
  const std::string path = dir + "/bench_atomic_probe.tmp";
  const std::string payload(std::max<uint64_t>(payload_bytes, 1), 'm');
  std::vector<double> ms;
  for (uint32_t i = 0; i < repeats; ++i) {
    const Clock::time_point t = Clock::now();
    TARDIS_RETURN_NOT_OK(WriteFileAtomic(path, payload));
    ms.push_back(SecondsSince(t) * 1e3);
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return Quantile(std::move(ms), 0.5);
}

DirUsage MeasureDir(const std::string& dir) {
  DirUsage usage;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    ++usage.files;
    usage.bytes += entry.file_size();
  }
  return usage;
}

uint64_t NewestManifestBytes(const std::string& dir) {
  uint64_t newest = 0;
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t gen = 0;
    if (ParseManifestFileName(entry.path().filename().string(), &gen) &&
        gen >= newest) {
      newest = gen;
      bytes = entry.file_size();
    }
  }
  return bytes;
}

}  // namespace perfbench
}  // namespace tardis
