#include "core/query_engine.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/thread_annotations.h"
#include "core/query_scan.h"
#include "core/query_telemetry.h"
#include "core/topk.h"
#include "storage/partition_cache.h"
#include "ts/kernels.h"

namespace tardis {

namespace {

// Per-query state prepared before any partition is touched.
struct Prepared {
  TimeSeries normalized;
  std::vector<double> paa;
  std::string sig;
  PartitionId home = kInvalidPartition;
};

// (query index, slot in that query's partition list) pairs assigned to one
// partition: the unit of work of a partition task.
using SlotTask = std::pair<size_t, size_t>;

// The QueryEngineStats snapshot handed to the caller is also accumulated
// into the process-wide registry under "tardis.query.<path>.*", making the
// per-call struct a view over the same numbers the exporter dumps.
void PublishBatchStats(const char* path, const QueryEngineStats& acc) {
  if (!telemetry::Enabled()) return;
  auto& reg = telemetry::Registry::Global();
  const std::string prefix = std::string("tardis.query.") + path;
  reg.GetCounter(prefix + ".queries").Add(acc.queries);
  reg.GetCounter(prefix + ".candidates").Add(acc.candidates);
  reg.GetCounter(prefix + ".pivot_pruned").Add(acc.pivot_pruned);
  reg.GetCounter(prefix + ".partitions_loaded").Add(acc.partitions_loaded);
  reg.GetCounter(prefix + ".partitions_failed").Add(acc.partitions_failed);
  reg.GetHistogram(prefix + ".wall_us").ObserveSeconds(acc.wall_seconds);
}

// TARDIS_SCHED=off turns adaptive partition scheduling off by default for
// every engine in the process; SetSchedulingEnabled overrides per instance.
bool SchedulingDefault() {
  static const bool on = [] {
    const char* env = std::getenv("TARDIS_SCHED");
    return env == nullptr || std::strcmp(env, "off") != 0;
  }();
  return on;
}

}  // namespace

// The load bookkeeping one batch call shares across its partition tasks.
struct QueryEngine::BatchLoads {
  explicit BatchLoads(bool degrade) : degrade(degrade) {}

  // A load that fails after retries is skipped when the query type degrades
  // (its queries lose that partition's records, and the batch keeps
  // answering); any other failure becomes the batch's error.
  void Fail(const Status& st) {
    if (degrade && IsDegradableLoadError(st)) {
      failed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    MutexLock lock(mu);
    if (first_error.ok()) first_error = st;
  }
  Status Error() {
    MutexLock lock(mu);
    return first_error;
  }

  const bool degrade;
  std::atomic<uint64_t> failed{0};
  Mutex mu;
  std::vector<ScopedPin> pins TARDIS_GUARDED_BY(mu);  // released on return
  Status first_error TARDIS_GUARDED_BY(mu);
};

QueryEngine::QueryEngine(const TardisIndex& index)
    : index_(&index), sched_enabled_(SchedulingDefault()) {}

void QueryEngine::RunPartitionPhase(
    const IndexEpoch& epoch,
    const std::vector<std::pair<PartitionId, uint32_t>>& parts,
    const std::function<void(size_t)>& fn) const {
  if (parts.empty()) return;
  ThreadPool& pool = index_->cluster_->pool();
  if (!sched_enabled_) {
    pool.ParallelFor(parts.size(), fn);
    return;
  }
  const PartitionCache* cache = index_->cache_.get();
  const uint64_t rec_bytes = RecordEncodedSize(index_->series_length());
  std::vector<PartitionTaskInfo> tasks(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) {
    PartitionTaskInfo& t = tasks[i];
    t.pid = parts[i].first;
    t.records = t.pid < epoch.partition_counts.size()
                    ? epoch.partition_counts[t.pid]
                    : 0;
    t.bytes = t.records * rec_bytes;
    t.work_items = parts[i].second;
    t.resident = cache != nullptr &&
                 cache->IsResident(TardisIndex::EpochKey(epoch, t.pid));
  }
  sched_.Run(tasks, &pool, pool.num_threads(), fn);
}

PartitionCache::Value QueryEngine::LoadPinned(
    const IndexEpoch& epoch, PartitionId pid, BatchLoads* loads,
    std::optional<LocalIndex>* tree) const {
  if (tree != nullptr) {
    auto local = index_->LoadLocalIndex(pid);
    if (!local.ok()) {
      loads->Fail(local.status());
      return nullptr;
    }
    tree->emplace(std::move(local).value());
  }
  auto records = index_->LoadPartitionShared(epoch, pid);
  if (!records.ok()) {
    loads->Fail(records.status());
    return nullptr;
  }
  if (index_->cache_ != nullptr) {
    MutexLock lock(loads->mu);
    loads->pins.emplace_back(index_->cache_.get(),
                             TardisIndex::EpochKey(epoch, pid));
  }
  return std::move(records).value();
}

Result<std::vector<std::vector<Neighbor>>> QueryEngine::KnnApproximateBatch(
    const std::vector<TimeSeries>& queries, uint32_t k, KnnStrategy strategy,
    QueryEngineStats* stats) const {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  Stopwatch sw;
  telemetry::ScopedSpan span("query.knn_batch");
  if (span.active()) {
    span.AddAttr("strategy", std::string_view(KnnStrategyName(strategy)));
    span.AddAttr("k", static_cast<uint64_t>(k));
    span.AddAttr("queries", static_cast<uint64_t>(queries.size()));
  }
  qtel::PhaseTimer timer("batch.knn");
  // One epoch snapshot for the whole batch: every phase loads, pins, and
  // scans the same committed generation even if an Append lands mid-batch.
  const EpochPtr epoch_sp = index_->CurrentEpoch();
  const IndexEpoch& epoch = *epoch_sp;
  const size_t nq = queries.size();
  std::vector<std::vector<Neighbor>> results(nq);
  QueryEngineStats acc;
  acc.queries = nq;
  acc.epoch_generation = epoch.generation;

  // --- Phase A: prepare every query (znorm, PAA, signature, home pid) and
  // precompute its Mindist table when the strategy prunes. ---
  std::vector<Prepared> prep(nq);
  std::vector<std::unique_ptr<MindistTable>> tables(nq);
  std::vector<PivotQuery> pqs(nq);
  const uint8_t table_bits = static_cast<uint8_t>(index_->codec().max_bits());
  // kMultiPartitions bookkeeping: per-query threshold, deterministic
  // partition list (SelectMultiPartitions), the home's position in it, and
  // one partial result slot per listed partition. Thresholds start at
  // infinity so a query whose home partition failed to load scans its
  // siblings unpruned.
  std::vector<double> thresholds(nq, std::numeric_limits<double>::infinity());
  std::vector<std::vector<PartitionId>> multi_pids(nq);
  std::vector<size_t> home_slot(nq, 0);
  std::vector<std::vector<std::vector<Neighbor>>> partials(nq);

  for (size_t q = 0; q < nq; ++q) {
    TARDIS_RETURN_NOT_OK(index_->PrepareQuery(
        queries[q], &prep[q].normalized, &prep[q].paa, &prep[q].sig));
    prep[q].home = epoch.global->LookupPartition(prep[q].sig);
    if (prep[q].home == kInvalidPartition) {
      return Status::Internal("no home partition");
    }
    if (strategy != KnnStrategy::kTargetNode) {
      tables[q] = std::make_unique<MindistTable>(prep[q].paa, table_bits,
                                                 prep[q].normalized.size());
    }
    pqs[q] = index_->MakePivotQuery(prep[q].normalized);
    if (strategy == KnnStrategy::kMultiPartitions) {
      multi_pids[q] = index_->SelectMultiPartitions(*epoch.global, prep[q].sig,
                                                    prep[q].home);
      partials[q].resize(multi_pids[q].size());
      for (size_t s = 0; s < multi_pids[q].size(); ++s) {
        if (multi_pids[q][s] == prep[q].home) home_slot[q] = s;
      }
      acc.logical_partition_loads += multi_pids[q].size();
    } else {
      acc.logical_partition_loads += 1;
    }
  }

  timer.Lap("prepare");
  std::map<PartitionId, std::vector<size_t>> by_home;
  for (size_t q = 0; q < nq; ++q) by_home[prep[q].home].push_back(q);
  std::vector<std::pair<PartitionId, const std::vector<size_t>*>> home_groups;
  home_groups.reserve(by_home.size());
  for (const auto& [pid, qs] : by_home) home_groups.emplace_back(pid, &qs);

  BatchLoads loads(/*degrade=*/true);
  std::atomic<uint64_t> candidates{0};
  std::atomic<uint64_t> pivot_pruned{0};

  // --- Phase B: one task per distinct home partition; every query homed
  // there runs its target-node ranking (and, except for kMultiPartitions,
  // finishes) against the single load. ---
  std::vector<std::pair<PartitionId, uint32_t>> home_parts;
  home_parts.reserve(home_groups.size());
  for (const auto& [pid, qs] : home_groups) {
    home_parts.emplace_back(pid, static_cast<uint32_t>(qs->size()));
  }
  RunPartitionPhase(epoch, home_parts, [&](size_t gi) {
    const PartitionId pid = home_groups[gi].first;
    const std::vector<size_t>& qs = *home_groups[gi].second;
    qtel::PhaseTimer task_timer("batch.knn");
    std::optional<LocalIndex> local;
    const PartitionCache::Value records =
        LoadPinned(epoch, pid, &loads, &local);
    if (records == nullptr) return;
    task_timer.Lap("load");
    if (strategy != KnnStrategy::kTargetNode) local->tree().EnsureWords();
    const uint32_t tail_start = records->num_base_records();
    const uint32_t tail_len = records->num_records() - tail_start;
    uint64_t cand = 0;
    uint64_t pruned = 0;
    task_timer.Skip();
    for (size_t q : qs) {
      const Prepared& p = prep[q];
      const SigTree::Node* target =
          qscan::FindTargetNode(local->tree(), p.sig, k);
      TopK topk(k);
      // Seed pass: the target slice, then the delta tail (appended records
      // the persisted tree does not cover). These are each record's single
      // accounting; the wider scans below count them nowhere else.
      qscan::RankRange(*records, target->range_start, target->range_len,
                       p.normalized, &topk, &cand, &pqs[q], &pruned);
      qscan::RankRange(*records, tail_start, tail_len, p.normalized, &topk,
                       &cand, &pqs[q], &pruned);
      if (strategy == KnnStrategy::kTargetNode) {
        results[q] = topk.Take();
        continue;
      }
      const double threshold = topk.Threshold();
      uint64_t dummy_cand = 0, dummy_pruned = 0;
      if (strategy == KnnStrategy::kOnePartition) {
        TopK wide(k);
        // The target slice and tail were counted by the seed pass above; the
        // exclusion range (and the dummy-counter tail re-rank) keeps each
        // record's candidate count at one.
        qscan::PrunedScan(local->tree(), *records, *tables[q], p.normalized,
                          threshold, &wide, &cand, target->range_start,
                          target->range_len, &pqs[q], &pruned);
        qscan::RankRange(*records, tail_start, tail_len, p.normalized, &wide,
                         &dummy_cand, &pqs[q], &dummy_pruned);
        results[q] = wide.Take();
        continue;
      }
      // kMultiPartitions: scan the home partition while it is hot; sibling
      // partitions are handled by phase C.
      thresholds[q] = threshold;
      TopK part(k);
      qscan::PrunedScan(local->tree(), *records, *tables[q], p.normalized,
                        threshold, &part, &cand, target->range_start,
                        target->range_len, &pqs[q], &pruned);
      qscan::RankRange(*records, tail_start, tail_len, p.normalized, &part,
                       &dummy_cand, &pqs[q], &dummy_pruned);
      partials[q][home_slot[q]] = part.Take();
    }
    task_timer.Lap("scan");
    candidates.fetch_add(cand, std::memory_order_relaxed);
    pivot_pruned.fetch_add(pruned, std::memory_order_relaxed);
  });
  acc.partitions_requested += home_groups.size();
  acc.partitions_loaded +=
      home_groups.size() - loads.failed.load(std::memory_order_relaxed);
  TARDIS_RETURN_NOT_OK(loads.Error());

  if (strategy == KnnStrategy::kMultiPartitions) {
    // --- Phase C: one task per distinct sibling partition across the whole
    // batch (a pid that is also some query's home is a cache hit: it was
    // pinned in phase B). ---
    std::map<PartitionId, std::vector<SlotTask>> by_pid;
    for (size_t q = 0; q < nq; ++q) {
      for (size_t s = 0; s < multi_pids[q].size(); ++s) {
        if (s == home_slot[q]) continue;
        by_pid[multi_pids[q][s]].push_back({q, s});
      }
    }
    std::vector<std::pair<PartitionId, const std::vector<SlotTask>*>> groups;
    groups.reserve(by_pid.size());
    for (const auto& [pid, tasks] : by_pid) groups.emplace_back(pid, &tasks);

    const uint64_t failed_before =
        loads.failed.load(std::memory_order_relaxed);
    std::vector<std::pair<PartitionId, uint32_t>> sib_parts;
    sib_parts.reserve(groups.size());
    for (const auto& [pid, tasks] : groups) {
      sib_parts.emplace_back(pid, static_cast<uint32_t>(tasks->size()));
    }
    RunPartitionPhase(epoch, sib_parts, [&](size_t gi) {
      const PartitionId pid = groups[gi].first;
      const std::vector<SlotTask>& tasks = *groups[gi].second;
      qtel::PhaseTimer task_timer("batch.knn");
      std::optional<LocalIndex> local;
      const PartitionCache::Value records =
          LoadPinned(epoch, pid, &loads, &local);
      if (records == nullptr) return;
      task_timer.Lap("load");
      local->tree().EnsureWords();
      const uint32_t tail_start = records->num_base_records();
      const uint32_t tail_len = records->num_records() - tail_start;
      uint64_t cand = 0;
      uint64_t pruned = 0;
      task_timer.Skip();
      for (const auto& [q, slot] : tasks) {
        TopK part(k);
        qscan::PrunedScan(local->tree(), *records, *tables[q],
                          prep[q].normalized, thresholds[q], &part, &cand, 0,
                          0, &pqs[q], &pruned);
        // A sibling's delta tail is counted here for the first time: real
        // counters.
        qscan::RankRange(*records, tail_start, tail_len, prep[q].normalized,
                         &part, &cand, &pqs[q], &pruned);
        partials[q][slot] = part.Take();
      }
      task_timer.Lap("scan");
      candidates.fetch_add(cand, std::memory_order_relaxed);
      pivot_pruned.fetch_add(pruned, std::memory_order_relaxed);
    });
    acc.partitions_requested += groups.size();
    acc.partitions_loaded +=
        groups.size() -
        (loads.failed.load(std::memory_order_relaxed) - failed_before);
    TARDIS_RETURN_NOT_OK(loads.Error());

    // Merge the per-partition top-k lists in the query's deterministic
    // partition order.
    timer.Skip();
    for (size_t q = 0; q < nq; ++q) {
      TopK merged(k);
      for (const auto& part : partials[q]) {
        for (const Neighbor& nb : part) merged.Offer(nb.distance, nb.rid);
      }
      results[q] = merged.Take();
    }
    timer.Lap("merge");
  }

  acc.candidates = candidates.load(std::memory_order_relaxed);
  acc.pivot_pruned = pivot_pruned.load(std::memory_order_relaxed);
  acc.partitions_failed = loads.failed.load(std::memory_order_relaxed);
  acc.results_complete = acc.partitions_failed == 0;
  acc.wall_seconds = sw.ElapsedSeconds();
  PublishBatchStats("batch.knn", acc);
  if (stats) *stats = acc;
  return results;
}

Result<std::vector<std::vector<RecordId>>> QueryEngine::ExactMatchBatch(
    const std::vector<TimeSeries>& queries, bool use_bloom,
    QueryEngineStats* stats) const {
  Stopwatch sw;
  telemetry::ScopedSpan span("query.exact_batch");
  if (span.active()) {
    span.AddAttr("queries", static_cast<uint64_t>(queries.size()));
  }
  qtel::PhaseTimer timer("batch.exact");
  const EpochPtr epoch_sp = index_->CurrentEpoch();
  const IndexEpoch& epoch = *epoch_sp;
  const size_t nq = queries.size();
  std::vector<std::vector<RecordId>> results(nq);
  QueryEngineStats acc;
  acc.queries = nq;
  acc.epoch_generation = epoch.generation;

  std::vector<Prepared> prep(nq);
  std::map<PartitionId, std::vector<size_t>> by_pid;
  for (size_t q = 0; q < nq; ++q) {
    TARDIS_RETURN_NOT_OK(index_->PrepareQuery(
        queries[q], &prep[q].normalized, &prep[q].paa, &prep[q].sig));
    const PartitionId pid = epoch.global->LookupPartition(prep[q].sig);
    if (pid == kInvalidPartition) {
      ++acc.descent_failures;  // Tardis-G miss: proven absent, empty result
      continue;
    }
    if (use_bloom && pid < epoch.blooms.size() &&
        epoch.blooms[pid] != nullptr &&
        !epoch.blooms[pid]->MayContain(prep[q].sig)) {
      ++acc.bloom_negatives;  // proven absent without a partition load
      continue;
    }
    prep[q].home = pid;
    by_pid[pid].push_back(q);
    ++acc.logical_partition_loads;
  }
  timer.Lap("prepare");
  std::vector<std::pair<PartitionId, const std::vector<size_t>*>> groups;
  groups.reserve(by_pid.size());
  for (const auto& [pid, qs] : by_pid) groups.emplace_back(pid, &qs);

  // Exact match keeps strict semantics: a partition that cannot be loaded is
  // an error, not a silently incomplete answer (absence claims must be
  // provable).
  BatchLoads loads(/*degrade=*/false);
  std::atomic<uint64_t> candidates{0};
  std::atomic<uint64_t> descent_failures{0};

  std::vector<std::pair<PartitionId, uint32_t>> parts;
  parts.reserve(groups.size());
  for (const auto& [pid, qs] : groups) {
    parts.emplace_back(pid, static_cast<uint32_t>(qs->size()));
  }
  RunPartitionPhase(epoch, parts, [&](size_t gi) {
    const PartitionId pid = groups[gi].first;
    const std::vector<size_t>& qs = *groups[gi].second;
    qtel::PhaseTimer task_timer("batch.exact");
    auto local = index_->LoadLocalIndex(pid);
    if (!local.ok()) {
      loads.Fail(local.status());
      return;
    }
    task_timer.Lap("load");
    // Records are loaded lazily: if every query in the group fails its
    // Tardis-L descent (proven absent), the partition file is never read.
    // With a delta tail the descent no longer proves absence — appended
    // records live outside the persisted tree — so tailed partitions load
    // whenever any query reaches them.
    const bool has_tail = !TardisIndex::DeltaGens(epoch, pid).empty();
    PartitionCache::Value records;
    uint64_t cand = 0;
    task_timer.Skip();
    for (size_t q : qs) {
      const SigTree::Node* leaf = local->tree().Descend(prep[q].sig);
      const bool leaf_ok = leaf->is_leaf();
      if (!leaf_ok) descent_failures.fetch_add(1, std::memory_order_relaxed);
      if (!leaf_ok && !has_tail) continue;
      if (records == nullptr) {
        qtel::PhaseTimer load_timer("batch.exact");
        records = LoadPinned(epoch, pid, &loads, nullptr);
        if (records == nullptr) return;
        load_timer.Lap("load");
        task_timer.Skip();  // keep the lazy load out of the scan lap
      }
      if (leaf_ok) {
        const uint32_t end = leaf->range_start + leaf->range_len;
        for (uint32_t i = leaf->range_start;
             i < end && i < records->num_records(); ++i) {
          ++cand;
          // Element-wise float equality (so -0.0/NaN follow float ==).
          if (std::equal(prep[q].normalized.begin(), prep[q].normalized.end(),
                         records->values(i))) {
            results[q].push_back(records->rid(i));
          }
        }
      }
      // The delta tail, scanned after the leaf slice.
      for (uint32_t i = records->num_base_records();
           i < records->num_records(); ++i) {
        ++cand;
        if (std::equal(prep[q].normalized.begin(), prep[q].normalized.end(),
                       records->values(i))) {
          results[q].push_back(records->rid(i));
        }
      }
    }
    task_timer.Lap("scan");
    candidates.fetch_add(cand, std::memory_order_relaxed);
  });
  acc.partitions_loaded = groups.size();
  acc.partitions_requested = groups.size();
  TARDIS_RETURN_NOT_OK(loads.Error());

  acc.descent_failures += descent_failures.load(std::memory_order_relaxed);
  acc.candidates = candidates.load(std::memory_order_relaxed);
  acc.wall_seconds = sw.ElapsedSeconds();
  PublishBatchStats("batch.exact", acc);
  if (stats) *stats = acc;
  return results;
}

Result<std::vector<std::vector<Neighbor>>> QueryEngine::RangeSearchBatch(
    const std::vector<TimeSeries>& queries, double radius,
    QueryEngineStats* stats) const {
  if (radius < 0.0) return Status::InvalidArgument("radius must be >= 0");
  const EpochPtr epoch_sp = index_->CurrentEpoch();
  const IndexEpoch& epoch = *epoch_sp;
  if (epoch.regions.size() != index_->num_partitions()) {
    return Status::Internal("region summaries unavailable");
  }
  Stopwatch sw;
  telemetry::ScopedSpan span("query.range_batch");
  if (span.active()) {
    span.AddAttr("queries", static_cast<uint64_t>(queries.size()));
  }
  qtel::PhaseTimer timer("batch.range");
  const size_t nq = queries.size();
  std::vector<std::vector<Neighbor>> results(nq);
  QueryEngineStats acc;
  acc.queries = nq;
  acc.epoch_generation = epoch.generation;

  std::vector<Prepared> prep(nq);
  std::vector<std::unique_ptr<MindistTable>> tables(nq);
  std::vector<PivotQuery> pqs(nq);
  const uint8_t table_bits = static_cast<uint8_t>(index_->codec().max_bits());
  // Per query: the (ascending) partitions surviving the region filter, with
  // one partial result slot each.
  std::vector<std::vector<std::vector<Neighbor>>> partials(nq);
  std::map<PartitionId, std::vector<SlotTask>> by_pid;
  for (size_t q = 0; q < nq; ++q) {
    TARDIS_RETURN_NOT_OK(index_->PrepareQuery(
        queries[q], &prep[q].normalized, &prep[q].paa, &prep[q].sig));
    tables[q] = std::make_unique<MindistTable>(prep[q].paa, table_bits,
                                               prep[q].normalized.size());
    pqs[q] = index_->MakePivotQuery(prep[q].normalized);
    size_t slots = 0;
    for (PartitionId pid = 0; pid < index_->num_partitions(); ++pid) {
      // Region summaries are Extend()ed over appended words, so the bound
      // covers each partition's delta tail too.
      if (epoch.regions[pid].Mindist(prep[q].paa,
                                     prep[q].normalized.size()) > radius) {
        continue;
      }
      by_pid[pid].push_back({q, slots++});
    }
    partials[q].resize(slots);
    acc.logical_partition_loads += slots;
  }
  timer.Lap("prepare");
  std::vector<std::pair<PartitionId, const std::vector<SlotTask>*>> groups;
  groups.reserve(by_pid.size());
  for (const auto& [pid, tasks] : by_pid) groups.emplace_back(pid, &tasks);

  // Degraded mode: a partition that cannot be loaded after retries is
  // skipped (its partial-result slots stay empty) and reported via the
  // coverage stats; non-transient errors abort the batch.
  BatchLoads loads(/*degrade=*/true);
  std::atomic<uint64_t> candidates{0};
  std::atomic<uint64_t> pivot_pruned{0};

  std::vector<std::pair<PartitionId, uint32_t>> parts;
  parts.reserve(groups.size());
  for (const auto& [pid, tasks] : groups) {
    parts.emplace_back(pid, static_cast<uint32_t>(tasks->size()));
  }
  RunPartitionPhase(epoch, parts, [&](size_t gi) {
    const PartitionId pid = groups[gi].first;
    const std::vector<SlotTask>& tasks = *groups[gi].second;
    qtel::PhaseTimer task_timer("batch.range");
    std::optional<LocalIndex> local;
    const PartitionCache::Value records =
        LoadPinned(epoch, pid, &loads, &local);
    if (records == nullptr) return;
    task_timer.Lap("load");
    local->tree().EnsureWords();
    const uint32_t tail_start = records->num_base_records();
    const uint32_t tail_len = records->num_records() - tail_start;
    uint64_t cand = 0;
    uint64_t pruned = 0;
    task_timer.Skip();
    for (const auto& [q, slot] : tasks) {
      qscan::RangeScan(local->tree(), *records, *tables[q],
                       prep[q].normalized, radius, &partials[q][slot], &cand,
                       &pqs[q], &pruned);
      // Delta tail after the tree scan (results are sorted at merge, so
      // collection order is immaterial).
      qscan::RangeScanRange(*records, tail_start, tail_len,
                            prep[q].normalized, radius, &partials[q][slot],
                            &cand, &pqs[q], &pruned);
    }
    task_timer.Lap("scan");
    candidates.fetch_add(cand, std::memory_order_relaxed);
    pivot_pruned.fetch_add(pruned, std::memory_order_relaxed);
  });
  acc.partitions_requested = groups.size();
  acc.partitions_failed = loads.failed.load(std::memory_order_relaxed);
  acc.partitions_loaded = groups.size() - acc.partitions_failed;
  acc.results_complete = acc.partitions_failed == 0;
  TARDIS_RETURN_NOT_OK(loads.Error());

  timer.Skip();
  for (size_t q = 0; q < nq; ++q) {
    size_t total = 0;
    for (const auto& part : partials[q]) total += part.size();
    results[q].reserve(total);
    for (auto& part : partials[q]) {
      results[q].insert(results[q].end(), part.begin(), part.end());
    }
    std::sort(results[q].begin(), results[q].end());
  }
  timer.Lap("merge");

  acc.candidates = candidates.load(std::memory_order_relaxed);
  acc.pivot_pruned = pivot_pruned.load(std::memory_order_relaxed);
  acc.wall_seconds = sw.ElapsedSeconds();
  PublishBatchStats("batch.range", acc);
  if (stats) *stats = acc;
  return results;
}

}  // namespace tardis
