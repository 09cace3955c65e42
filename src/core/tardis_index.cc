#include "core/tardis_index.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "cluster/map_reduce.h"
#include "common/file_util.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "common/thread_annotations.h"
#include "core/query_engine.h"
#include "ts/paa.h"
#include "ts/znorm.h"

namespace tardis {

namespace {
constexpr char kTreeSidecar[] = "ltree";
constexpr char kBloomSidecar[] = "bloom";
constexpr char kRegionSidecar[] = "region";
constexpr char kRidsSidecar[] = "rids";
constexpr char kPivotSidecar[] = "pivotd";
constexpr uint64_t kMetaMagic = 0x5441524449534958ULL;  // "TARDISIX"

void EncodeConfig(const TardisConfig& config, std::string* out) {
  PutFixed<uint32_t>(out, config.word_length);
  PutFixed<uint8_t>(out, config.initial_bits);
  PutFixed<uint64_t>(out, config.g_max_size);
  PutFixed<uint64_t>(out, config.l_max_size);
  PutFixed<double>(out, config.sampling_percent);
  PutFixed<uint32_t>(out, config.pth);
  PutFixed<uint32_t>(out, config.block_capacity);
  PutFixed<uint32_t>(out, config.num_workers);
  PutFixed<uint64_t>(out, config.seed);
  PutFixed<uint8_t>(out, config.build_bloom ? 1 : 0);
  PutFixed<double>(out, config.bloom_fpr);
  PutFixed<uint8_t>(out, config.persist_intermediate ? 1 : 0);
  PutFixed<uint64_t>(out, config.cache_budget_bytes);
  PutFixed<uint64_t>(out, config.shuffle_spill_bytes);
  PutFixed<uint32_t>(out, config.num_pivots);
}

bool DecodeConfig(SliceReader* reader, TardisConfig* config) {
  uint8_t bloom = 0, persist = 0;
  const bool ok =
      reader->GetFixed(&config->word_length) &&
      reader->GetFixed(&config->initial_bits) &&
      reader->GetFixed(&config->g_max_size) &&
      reader->GetFixed(&config->l_max_size) &&
      reader->GetFixed(&config->sampling_percent) &&
      reader->GetFixed(&config->pth) && reader->GetFixed(&config->block_capacity) &&
      reader->GetFixed(&config->num_workers) && reader->GetFixed(&config->seed) &&
      reader->GetFixed(&bloom) && reader->GetFixed(&config->bloom_fpr) &&
      reader->GetFixed(&persist) &&
      reader->GetFixed(&config->cache_budget_bytes) &&
      reader->GetFixed(&config->shuffle_spill_bytes) &&
      reader->GetFixed(&config->num_pivots);
  config->build_bloom = bloom != 0;
  config->persist_intermediate = persist != 0;
  return ok;
}

// TARDIS_PIVOTS=off turns pivot pruning off by default for every index in
// the process (results are identical; useful for the pruning-parity arms in
// benches and CI). SetPivotPruning overrides per instance.
bool PivotPruningDefault() {
  static const bool on = [] {
    const char* env = std::getenv("TARDIS_PIVOTS");
    return env == nullptr || std::strcmp(env, "off") != 0;
  }();
  return on;
}

// Deterministic pivot-selection sample: up to `want` series spread evenly
// across the input blocks (and evenly within each visited block). Seeded
// randomness is deliberately avoided — the sample, and therefore the pivot
// set, depends only on the data and `want`.
Result<std::vector<TimeSeries>> SamplePivotSeries(const BlockStore& input,
                                                  uint32_t want) {
  std::vector<TimeSeries> sample;
  if (want == 0 || input.num_records() == 0) return sample;
  const uint32_t take_blocks = std::min<uint32_t>(input.num_blocks(), 16);
  const uint32_t per_block = (want + take_blocks - 1) / take_blocks;
  sample.reserve(static_cast<size_t>(take_blocks) * per_block);
  for (uint32_t b = 0; b < take_blocks; ++b) {
    const uint32_t block =
        static_cast<uint32_t>(static_cast<uint64_t>(b) * input.num_blocks() /
                              take_blocks);
    TARDIS_ASSIGN_OR_RETURN(std::vector<Record> records,
                            input.ReadBlock(block));
    if (records.empty()) continue;
    const uint32_t n = static_cast<uint32_t>(records.size());
    const uint32_t step = std::max<uint32_t>(1, n / per_block);
    for (uint32_t i = 0; i < n && sample.size() < want; i += step) {
      sample.push_back(records[i].values);
    }
    if (sample.size() >= want) break;
  }
  return sample;
}

// Encodes the "pivotd" sidecar for one partition: the per-record pivot
// distances, row i matching record i of the (tree-ordered) partition.
std::string EncodePivotSidecar(const PivotSet& pivots,
                               const PartitionArena& arena,
                               const std::vector<uint32_t>& order) {
  std::string bytes;
  PutFixed<uint32_t>(&bytes, pivots.num_pivots());
  PutFixed<uint32_t>(&bytes, static_cast<uint32_t>(order.size()));
  std::vector<float> row(pivots.num_pivots());
  for (uint32_t idx : order) {
    pivots.ComputeDistancesF32(arena.values(idx), row.data());
    for (float v : row) PutFixed<float>(&bytes, v);
  }
  return bytes;
}

// Publishes recovery accounting under tardis.recovery.* (satellite of the
// crash-consistency work: visible in --metrics-json).
void PublishRecoveryStats(const RecoveryStats& stats) {
  if (!telemetry::Enabled()) return;
  auto& reg = telemetry::Registry::Global();
  reg.GetCounter("tardis.recovery.manifests_scanned")
      .Add(stats.manifests_scanned);
  reg.GetCounter("tardis.recovery.manifests_invalid")
      .Add(stats.manifests_invalid);
  reg.GetCounter("tardis.recovery.orphans_removed").Add(stats.orphans_removed);
  reg.GetCounter("tardis.recovery.deltas_replayed")
      .Add(stats.deltas_referenced);
}
}  // namespace

const char* KnnStrategyName(KnnStrategy strategy) {
  switch (strategy) {
    case KnnStrategy::kTargetNode: return "TargetNode";
    case KnnStrategy::kOnePartition: return "OnePartition";
    case KnnStrategy::kMultiPartitions: return "MultiPartitions";
  }
  return "Unknown";
}

TardisIndex::TardisIndex(std::shared_ptr<Cluster> cluster, TardisConfig config,
                         std::shared_ptr<const GlobalIndex> global,
                         PartitionStore partitions, uint32_t series_length)
    : cluster_(std::move(cluster)),
      config_(config),
      codec_(global->codec()),
      partitions_(std::make_unique<PartitionStore>(std::move(partitions))),
      series_length_(series_length),
      num_partitions_(global->num_partitions()),
      epoch_mu_(std::make_unique<Mutex>()),
      append_mu_(std::make_unique<Mutex>()) {
  // Bootstrap epoch: generation 0 with an empty manifest, so the loaders
  // (which Build itself uses before the first commit) see no delta tails.
  auto epoch = std::make_shared<IndexEpoch>();
  epoch->global = std::move(global);
  epoch_ = std::move(epoch);
  if (config_.cache_budget_bytes > 0) {
    cache_ = std::make_unique<PartitionCache>(config_.cache_budget_bytes);
  }
}

EpochPtr TardisIndex::CurrentEpoch() const {
  MutexLock lock(*epoch_mu_);
  return epoch_;
}

void TardisIndex::InstallEpoch(EpochPtr epoch) {
  MutexLock lock(*epoch_mu_);
  epoch_ = std::move(epoch);
}

const std::vector<uint64_t>& TardisIndex::DeltaGens(const IndexEpoch& epoch,
                                                    PartitionId pid) {
  static const std::vector<uint64_t> kEmpty;
  if (pid >= epoch.manifest.partitions.size()) return kEmpty;
  return epoch.manifest.partitions[pid].delta_gens;
}

uint64_t TardisIndex::SidecarGen(const IndexEpoch& epoch, PartitionId pid) {
  if (pid >= epoch.manifest.partitions.size()) return 0;
  return epoch.manifest.partitions[pid].sidecar_gen;
}

Result<TardisIndex> TardisIndex::Build(std::shared_ptr<Cluster> cluster,
                                       const BlockStore& input,
                                       const std::string& partition_dir,
                                       const TardisConfig& config,
                                       BuildTimings* timings) {
  TARDIS_RETURN_NOT_OK(config.Validate());
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  telemetry::ScopedSpan build_span("build.index");

  // --- Tardis-G over the sampled statistics ---
  GlobalIndex::BuildBreakdown breakdown;
  TARDIS_ASSIGN_OR_RETURN(GlobalIndex built,
                          GlobalIndex::Build(*cluster, input, config, &breakdown));
  if (timings) timings->global = breakdown;
  auto global = std::make_shared<const GlobalIndex>(std::move(built));

  TARDIS_ASSIGN_OR_RETURN(
      PartitionStore pstore,
      PartitionStore::Open(partition_dir, input.series_length()));

  // A rebuild into a previously used directory must not leave stale
  // manifests around: a leftover MANIFEST-N (N > 1) would outrank the fresh
  // build's MANIFEST-1 at the next Open.
  {
    std::error_code ec;
    for (const auto& entry :
         std::filesystem::directory_iterator(partition_dir, ec)) {
      uint64_t stale_gen = 0;
      if (ParseManifestFileName(entry.path().filename().string(), &stale_gen)) {
        std::filesystem::remove(entry.path(), ec);
      }
    }
  }

  TardisIndex index(cluster, config, global, std::move(pstore),
                    input.series_length());
  index.input_ = std::make_unique<BlockStore>(input);
  const ISaxTCodec& codec = index.codec();
  const GlobalIndex& gidx = *global;
  const uint32_t num_partitions = index.num_partitions();

  // --- Data Shuffle: the broadcast Tardis-G is the partitioner (Fig. 8).
  // Each record is converted to its iSAX-T signature and routed by tree
  // descent; thread-local PAA buffers keep the partitioner reentrant.
  Stopwatch sw;
  const uint32_t w = config.word_length;
  auto partitioner = [&codec, &gidx, w](const Record& rec) -> PartitionId {
    thread_local std::vector<double> paa;
    paa.resize(w);
    PaaInto(rec.values, w, paa.data());
    return gidx.LookupPartition(codec.Encode(paa));
  };
  JobMetrics job;
  TARDIS_ASSIGN_OR_RETURN(
      std::vector<uint64_t> counts,
      ShuffleToPartitions(*cluster, input, num_partitions, partitioner,
                          *index.partitions_,
                          timings != nullptr ? &timings->shuffle : nullptr,
                          config.shuffle_spill_bytes, config.retry, &job));
  if (timings) timings->shuffle_seconds = sw.ElapsedSeconds();
  if (telemetry::Enabled()) {
    telemetry::Registry::Global()
        .GetHistogram("tardis.build.shuffle_us")
        .ObserveSeconds(sw.ElapsedSeconds());
  }
  sw.Restart();

  // --- Pivot selection (core/pivots.h): k pivots by farthest-first over a
  // deterministic sample, before the per-partition pass so the same pass can
  // write each partition's "pivotd" sidecar.
  if (config.num_pivots > 0) {
    const uint32_t want = std::max<uint32_t>(config.num_pivots * 8, 256);
    TARDIS_ASSIGN_OR_RETURN(std::vector<TimeSeries> sample,
                            SamplePivotSeries(input, want));
    PivotSet pivots = PivotSet::Select(sample, config.num_pivots, config.seed);
    if (!pivots.empty()) {
      index.pivots_ = std::make_unique<PivotSet>(std::move(pivots));
    }
  }
  index.pivot_pruning_ = PivotPruningDefault();

  // --- Local Structure Construction (mapPartitions): build Tardis-L,
  // rewrite the partition clustered, persist the tree skeleton. The Bloom
  // filter is built in the same pass when intermediate data stays cached.
  const bool bloom_inline = config.build_bloom && config.persist_intermediate;
  std::vector<std::shared_ptr<const BloomFilter>> blooms(num_partitions);
  std::vector<RegionSummary> regions(num_partitions);
  Mutex bloom_mu;
  TardisConfig local_cfg = config;
  local_cfg.build_bloom = bloom_inline;
  TARDIS_RETURN_NOT_OK(MapPartitions(
      *cluster, num_partitions, [&](PartitionId pid) -> Status {
        TARDIS_ASSIGN_OR_RETURN(PartitionArena arena,
                                index.partitions_->ReadPartitionArena(pid));
        std::vector<uint32_t> order;
        TARDIS_ASSIGN_OR_RETURN(
            LocalIndex local,
            LocalIndex::Build(arena, codec, local_cfg, &order));
        if (config.clustered) {
          // Emit the clustered bytes straight from the arena in tree order —
          // byte-identical to encoding a reordered Record vector.
          std::string bytes;
          const size_t value_bytes =
              static_cast<size_t>(arena.series_length()) * sizeof(float);
          bytes.reserve(order.size() *
                        RecordEncodedSize(arena.series_length()));
          for (uint32_t idx : order) {
            PutFixed<uint64_t>(&bytes, arena.rid(idx));
            bytes.append(reinterpret_cast<const char*>(arena.values(idx)),
                         value_bytes);
          }
          TARDIS_RETURN_NOT_OK(index.partitions_->WritePartitionRaw(pid, bytes));
        } else {
          // Un-clustered: keep only the rid list (in tree order); the raw
          // series stay in the base blocks and the shuffle's temporary
          // record file is dropped.
          std::string rid_bytes;
          rid_bytes.reserve(order.size() * sizeof(uint64_t));
          for (uint32_t idx : order) {
            PutFixed<uint64_t>(&rid_bytes, arena.rid(idx));
          }
          TARDIS_RETURN_NOT_OK(
              index.partitions_->WriteSidecar(pid, kRidsSidecar, rid_bytes));
          TARDIS_RETURN_NOT_OK(index.partitions_->RemovePartition(pid));
        }
        if (index.pivots_ != nullptr) {
          // Per-record pivot distances, rows in the same tree order as the
          // clustered bytes / rid sidecar, so row i matches record i on
          // every load path.
          TARDIS_RETURN_NOT_OK(index.partitions_->WriteSidecar(
              pid, kPivotSidecar,
              EncodePivotSidecar(*index.pivots_, arena, order)));
        }
        std::string tree_bytes;
        local.EncodeTreeTo(&tree_bytes);
        TARDIS_RETURN_NOT_OK(
            index.partitions_->WriteSidecar(pid, kTreeSidecar, tree_bytes));
        std::string region_bytes;
        local.region().EncodeTo(&region_bytes);
        TARDIS_RETURN_NOT_OK(
            index.partitions_->WriteSidecar(pid, kRegionSidecar, region_bytes));
        {
          MutexLock lock(bloom_mu);
          regions[pid] = local.region();
        }
        if (bloom_inline) {
          auto bloom = local.TakeBloom();
          std::string bloom_bytes;
          bloom->EncodeTo(&bloom_bytes);
          TARDIS_RETURN_NOT_OK(
              index.partitions_->WriteSidecar(pid, kBloomSidecar, bloom_bytes));
          MutexLock lock(bloom_mu);
          blooms[pid] = std::move(bloom);
        }
        return Status::OK();
      },
      config.retry, &job));
  if (timings) timings->local_build_seconds = sw.ElapsedSeconds();
  if (telemetry::Enabled()) {
    telemetry::Registry::Global()
        .GetHistogram("tardis.build.local_us")
        .ObserveSeconds(sw.ElapsedSeconds());
  }
  sw.Restart();

  // --- Spill path (Fig. 12): intermediate tuples were not cached, so the
  // Bloom pass re-reads every partition from disk and re-converts.
  if (config.build_bloom && !config.persist_intermediate) {
    TARDIS_RETURN_NOT_OK(MapPartitions(
        *cluster, num_partitions, [&](PartitionId pid) -> Status {
          TARDIS_ASSIGN_OR_RETURN(std::vector<Record> records,
                                  index.LoadPartition(pid));
          auto bloom = std::make_unique<BloomFilter>(
              std::max<size_t>(records.size(), 16), config.bloom_fpr);
          std::vector<double> paa(w);
          for (const auto& rec : records) {
            PaaInto(rec.values, w, paa.data());
            bloom->Add(codec.Encode(paa));
          }
          std::string bloom_bytes;
          bloom->EncodeTo(&bloom_bytes);
          TARDIS_RETURN_NOT_OK(
              index.partitions_->WriteSidecar(pid, kBloomSidecar, bloom_bytes));
          MutexLock lock(bloom_mu);
          blooms[pid] = std::move(bloom);
          return Status::OK();
        },
        config.retry, &job));
    if (timings) timings->bloom_extra_seconds = sw.ElapsedSeconds();
    if (telemetry::Enabled()) {
      telemetry::Registry::Global()
          .GetHistogram("tardis.build.bloom_extra_us")
          .ObserveSeconds(sw.ElapsedSeconds());
    }
  }
  if (timings) {
    timings->job = job;
    timings->job += breakdown.job;
  }

  // --- Commit generation 1: metadata first, then the manifest — the single
  // durable commit point. A crash before the manifest rename leaves an
  // unopenable directory (nothing was ever committed); after it, the build
  // is fully recoverable.
  TARDIS_RETURN_NOT_OK(index.SaveMeta(*global, counts, /*meta_gen=*/0));
  Manifest manifest;
  manifest.generation = 1;
  manifest.series_length = input.series_length();
  manifest.meta_gen = 0;
  manifest.partitions.resize(num_partitions);
  for (PartitionId pid = 0; pid < num_partitions; ++pid) {
    manifest.partitions[pid].base_records =
        static_cast<uint32_t>(counts[pid]);
  }
  TARDIS_RETURN_NOT_OK(WriteManifest(partition_dir, manifest));

  auto epoch = std::make_shared<IndexEpoch>();
  epoch->generation = 1;
  epoch->manifest = std::move(manifest);
  epoch->global = std::move(global);
  epoch->partition_counts = std::move(counts);
  epoch->blooms = std::move(blooms);
  epoch->regions = std::move(regions);
  index.InstallEpoch(std::move(epoch));
  return index;
}

Status TardisIndex::SaveMeta(const GlobalIndex& global,
                             const std::vector<uint64_t>& counts,
                             uint64_t meta_gen) const {
  std::string bytes;
  PutFixed<uint64_t>(&bytes, kMetaMagic);
  PutFixed<uint32_t>(&bytes, series_length_);
  EncodeConfig(config_, &bytes);
  PutFixed<uint8_t>(&bytes, config_.clustered ? 1 : 0);
  PutLengthPrefixed(&bytes, input_ != nullptr ? input_->dir() : "");
  std::string tree_bytes;
  global.tree().EncodeTo(&tree_bytes);
  PutLengthPrefixed(&bytes, tree_bytes);
  PutFixed<uint32_t>(&bytes, static_cast<uint32_t>(counts.size()));
  for (uint64_t count : counts) PutFixed<uint64_t>(&bytes, count);
  // Pivot section (length-prefixed, empty when the index has no pivots).
  std::string pivot_bytes;
  if (pivots_ != nullptr) pivots_->EncodeTo(&pivot_bytes);
  PutLengthPrefixed(&bytes, pivot_bytes);
  // Atomic replace: a crash mid-save must leave the previous metadata
  // readable (Open would otherwise see a torn header and refuse the index).
  return WriteFileAtomic(partitions_->dir() + "/" + MetaFileName(meta_gen),
                         bytes);
}

Result<TardisIndex> TardisIndex::Open(std::shared_ptr<Cluster> cluster,
                                      const std::string& partition_dir) {
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");

  // Recovery step 1: pick the newest manifest that decodes cleanly. A
  // pre-manifest directory (NotFound) opens as a synthesized generation-1
  // epoch and is never garbage-collected.
  RecoveryStats rstats;
  Manifest manifest;
  bool legacy = false;
  {
    auto loaded = LoadNewestManifest(partition_dir, &rstats);
    if (loaded.ok()) {
      manifest = std::move(loaded).value();
    } else if (loaded.status().code() == StatusCode::kNotFound) {
      legacy = true;
    } else {
      return loaded.status();
    }
  }

  const std::string meta_path =
      partition_dir + "/" + MetaFileName(legacy ? 0 : manifest.meta_gen);
  std::ifstream in(meta_path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("no index metadata in " + partition_dir);
  std::string bytes(static_cast<size_t>(in.tellg()), '\0');
  in.seekg(0);
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!in) return Status::IOError("short read of index metadata");

  SliceReader reader(bytes);
  uint64_t magic = 0;
  uint32_t series_length = 0;
  TardisConfig config;
  uint8_t clustered = 1;
  std::string input_dir, tree_bytes;
  uint32_t num_counts = 0;
  if (!reader.GetFixed(&magic) || magic != kMetaMagic ||
      !reader.GetFixed(&series_length) || !DecodeConfig(&reader, &config) ||
      !reader.GetFixed(&clustered) || !reader.GetLengthPrefixed(&input_dir) ||
      !reader.GetLengthPrefixed(&tree_bytes) || !reader.GetFixed(&num_counts)) {
    return Status::Corruption("bad index metadata");
  }
  config.clustered = clustered != 0;
  TARDIS_RETURN_NOT_OK(config.Validate());
  TARDIS_ASSIGN_OR_RETURN(
      ISaxTCodec codec, ISaxTCodec::Make(config.word_length, config.initial_bits));
  TARDIS_ASSIGN_OR_RETURN(GlobalIndex decoded,
                          GlobalIndex::FromSerialized(codec, tree_bytes));
  if (num_counts != decoded.num_partitions()) {
    return Status::Corruption("index metadata partition count mismatch");
  }
  auto global = std::make_shared<const GlobalIndex>(std::move(decoded));
  if (!legacy) {
    if (manifest.num_partitions() != num_counts) {
      return Status::Corruption("manifest partition count mismatch");
    }
    if (manifest.series_length != series_length) {
      return Status::Corruption("manifest series length mismatch");
    }
  }
  TARDIS_ASSIGN_OR_RETURN(PartitionStore pstore,
                          PartitionStore::Open(partition_dir, series_length));
  TardisIndex index(cluster, config, global, std::move(pstore),
                    series_length);
  if (!input_dir.empty()) {
    auto input = BlockStore::Open(input_dir);
    if (input.ok()) {
      index.input_ = std::make_unique<BlockStore>(std::move(input).value());
    } else if (!config.clustered) {
      // Un-clustered indexes cannot answer queries without the base data.
      return input.status();
    }
  } else if (!config.clustered) {
    return Status::Corruption("un-clustered index metadata lacks base data dir");
  }
  std::vector<uint64_t> counts(num_counts);
  for (auto& count : counts) {
    if (!reader.GetFixed(&count)) {
      return Status::Corruption("truncated partition counts");
    }
  }
  std::string pivot_bytes;
  if (!reader.GetLengthPrefixed(&pivot_bytes)) {
    return Status::Corruption("truncated pivot section");
  }
  if (!pivot_bytes.empty()) {
    TARDIS_ASSIGN_OR_RETURN(PivotSet pivots, PivotSet::Decode(pivot_bytes));
    if (!pivots.empty()) {
      if (pivots.series_length() != series_length) {
        return Status::Corruption("pivot series length mismatch");
      }
      index.pivots_ = std::make_unique<PivotSet>(std::move(pivots));
    }
  }
  index.pivot_pruning_ = PivotPruningDefault();

  if (legacy) {
    // Synthesize the epoch a manifest-committing build would have produced;
    // nothing is written and nothing is deleted.
    manifest.generation = 1;
    manifest.series_length = series_length;
    manifest.meta_gen = 0;
    manifest.partitions.resize(num_counts);
    for (uint32_t pid = 0; pid < num_counts; ++pid) {
      manifest.partitions[pid].base_records =
          static_cast<uint32_t>(counts[pid]);
    }
  } else {
    // Recovery step 2: delete whatever a crashed writer left behind that the
    // chosen manifest does not reference (stale manifests, tmp files,
    // uncommitted deltas/sidecars/metadata).
    rstats.deltas_referenced = manifest.num_delta_files();
    TARDIS_RETURN_NOT_OK(
        GarbageCollectUnreferenced(partition_dir, manifest, &rstats));
  }
  PublishRecoveryStats(rstats);

  // Restore the memory-resident sidecars (Bloom filters, region summaries)
  // at the generations the manifest names.
  std::vector<std::shared_ptr<const BloomFilter>> blooms(num_counts);
  std::vector<RegionSummary> regions(num_counts);
  Mutex mu;
  TARDIS_RETURN_NOT_OK(MapPartitions(
      *cluster, num_counts, [&](PartitionId pid) -> Status {
        const uint64_t sgen = manifest.partitions[pid].sidecar_gen;
        TARDIS_ASSIGN_OR_RETURN(
            std::string region_bytes,
            index.partitions_->ReadSidecar(
                pid, GenSidecarName(kRegionSidecar, sgen)));
        TARDIS_ASSIGN_OR_RETURN(RegionSummary region,
                                RegionSummary::Decode(region_bytes));
        std::shared_ptr<const BloomFilter> bloom;
        if (config.build_bloom) {
          TARDIS_ASSIGN_OR_RETURN(
              std::string bloom_bytes,
              index.partitions_->ReadSidecar(
                  pid, GenSidecarName(kBloomSidecar, sgen)));
          TARDIS_ASSIGN_OR_RETURN(BloomFilter bloom_decoded,
                                  BloomFilter::Decode(bloom_bytes));
          bloom = std::make_shared<const BloomFilter>(std::move(bloom_decoded));
        }
        MutexLock lock(mu);
        regions[pid] = std::move(region);
        blooms[pid] = std::move(bloom);
        return Status::OK();
      },
      config.retry));

  auto epoch = std::make_shared<IndexEpoch>();
  epoch->generation = manifest.generation;
  epoch->manifest = std::move(manifest);
  epoch->global = std::move(global);
  epoch->partition_counts = std::move(counts);
  epoch->blooms = std::move(blooms);
  epoch->regions = std::move(regions);
  index.InstallEpoch(std::move(epoch));
  return index;
}

Result<TardisIndex::SizeInfo> TardisIndex::ComputeSizeInfo() const {
  const EpochPtr epoch = CurrentEpoch();
  SizeInfo info;
  info.global_bytes = epoch->global->SerializedSize();
  for (uint32_t pid = 0; pid < num_partitions(); ++pid) {
    TARDIS_ASSIGN_OR_RETURN(uint64_t tree_bytes,
                            partitions_->SidecarBytes(pid, kTreeSidecar));
    info.local_tree_bytes += tree_bytes;
    if (epoch->blooms.size() > pid && epoch->blooms[pid] != nullptr) {
      info.bloom_bytes += epoch->blooms[pid]->SizeBytes();
    }
  }
  return info;
}

Status TardisIndex::PrepareQuery(const TimeSeries& query,
                                 TimeSeries* normalized,
                                 std::vector<double>* paa,
                                 std::string* sig) const {
  if (query.size() != series_length_) {
    return Status::InvalidArgument("query length differs from indexed series");
  }
  // Queries are expected in the same (z-normalised) space as the indexed
  // data; normalisation is an ingest-time step in the paper (§VI-A) and
  // re-normalising here would not be bit-idempotent for exact matching.
  *normalized = query;
  paa->resize(config_.word_length);
  PaaInto(*normalized, config_.word_length, paa->data());
  *sig = codec_.Encode(*paa);
  return Status::OK();
}

Result<std::vector<Record>> TardisIndex::LoadPartition(PartitionId pid) const {
  return LoadPartition(*CurrentEpoch(), pid);
}

Result<std::vector<Record>> TardisIndex::LoadPartition(const IndexEpoch& epoch,
                                                       PartitionId pid) const {
  // A whole load is one retry unit: un-clustered reconstruction touches many
  // files, and restarting it from scratch keeps the unit idempotent.
  return RunWithRetryResult<std::vector<Record>>(
      config_.retry,
      [this, &epoch, pid] { return LoadPartitionOnce(epoch, pid); });
}

Result<std::vector<Record>> TardisIndex::LoadPartitionOnce(
    const IndexEpoch& epoch, PartitionId pid) const {
  if (config_.clustered) {
    const std::vector<uint64_t>& delta_gens = DeltaGens(epoch, pid);
    if (delta_gens.empty()) return partitions_->ReadPartition(pid);
    return partitions_->ReadPartitionWithDeltas(pid, delta_gens);
  }
  // Un-clustered: reconstruct the partition's records by fetching each rid
  // from the base blocks — the refine phase's "expensive random I/O
  // operations" (§II-D). Blocks are cached within one load so a partition
  // never reads the same block twice, but distinct partitions repeat reads.
  // (Un-clustered indexes reject Append, so they never carry delta tails.)
  if (input_ == nullptr) return Status::Internal("base block store unavailable");
  TARDIS_ASSIGN_OR_RETURN(std::string rid_bytes,
                          partitions_->ReadSidecar(pid, kRidsSidecar));
  if (rid_bytes.size() % sizeof(uint64_t) != 0) {
    return Status::Corruption("rid sidecar misaligned");
  }
  SliceReader reader(rid_bytes);
  std::vector<Record> records(rid_bytes.size() / sizeof(uint64_t));
  std::unordered_map<uint32_t, std::vector<Record>> block_cache;
  for (auto& rec : records) {
    uint64_t rid = 0;
    if (!reader.GetFixed(&rid)) return Status::Corruption("rid sidecar");
    const uint32_t block = static_cast<uint32_t>(rid / input_->block_capacity());
    auto it = block_cache.find(block);
    if (it == block_cache.end()) {
      TARDIS_ASSIGN_OR_RETURN(std::vector<Record> loaded,
                              input_->ReadBlock(block));
      it = block_cache.emplace(block, std::move(loaded)).first;
    }
    const uint64_t offset = rid % input_->block_capacity();
    if (offset >= it->second.size() || it->second[offset].rid != rid) {
      return Status::Corruption("rid not found in its block");
    }
    rec = it->second[offset];
  }
  return records;
}

Result<PartitionArena> TardisIndex::LoadPartitionArena(PartitionId pid) const {
  return LoadPartitionArena(*CurrentEpoch(), pid);
}

Result<PartitionArena> TardisIndex::LoadPartitionArena(const IndexEpoch& epoch,
                                                       PartitionId pid) const {
  return RunWithRetryResult<PartitionArena>(
      config_.retry,
      [this, &epoch, pid] { return LoadPartitionArenaOnce(epoch, pid); });
}

Result<PartitionArena> TardisIndex::LoadPartitionArenaOnce(
    const IndexEpoch& epoch, PartitionId pid) const {
  PartitionArena arena;
  if (config_.clustered) {
    TARDIS_ASSIGN_OR_RETURN(arena, partitions_->ReadPartitionArenaWithDeltas(
                                       pid, DeltaGens(epoch, pid)));
  } else {
    // Un-clustered reconstruction (never carries deltas).
    TARDIS_ASSIGN_OR_RETURN(std::vector<Record> records,
                            LoadPartitionOnce(epoch, pid));
    arena = PartitionArena::FromRecords(records, series_length_);
  }
  // Every load path produces records in tree order (plus the delta tail in
  // append order), so the pivot sidecar's row i always matches record i.
  if (pivots_ != nullptr) {
    TARDIS_ASSIGN_OR_RETURN(
        std::string pivot_bytes,
        partitions_->ReadSidecar(
            pid, GenSidecarName(kPivotSidecar, SidecarGen(epoch, pid))));
    TARDIS_RETURN_NOT_OK(arena.AttachPivotSidecar(
        pivot_bytes, partitions_->dir() + "/p" + std::to_string(pid)));
  }
  return arena;
}

Result<PartitionCache::Value> TardisIndex::LoadPartitionShared(
    PartitionId pid) const {
  return LoadPartitionShared(*CurrentEpoch(), pid);
}

Result<PartitionCache::Value> TardisIndex::LoadPartitionShared(
    const IndexEpoch& epoch, PartitionId pid) const {
  if (cache_ == nullptr) {
    TARDIS_ASSIGN_OR_RETURN(PartitionArena arena,
                            LoadPartitionArena(epoch, pid));
    return std::make_shared<const PartitionArena>(std::move(arena));
  }
  return cache_->GetOrLoad(EpochKey(epoch, pid), [this, &epoch, pid] {
    return LoadPartitionArena(epoch, pid);
  });
}

void TardisIndex::SetCacheBudget(uint64_t budget_bytes) {
  cache_ = budget_bytes > 0 ? std::make_unique<PartitionCache>(budget_bytes)
                            : nullptr;
}

Result<LocalIndex> TardisIndex::LoadLocalIndex(PartitionId pid) const {
  // The tree sidecar is written once at build time and never superseded:
  // appended records live in the delta tail the tree does not cover, so the
  // load needs no epoch qualification.
  return RunWithRetryResult<LocalIndex>(config_.retry, [&]() -> Result<LocalIndex> {
    TARDIS_ASSIGN_OR_RETURN(std::string bytes,
                            partitions_->ReadSidecar(pid, kTreeSidecar));
    return LocalIndex::DecodeTree(bytes, codec());
  });
}

Result<std::vector<RecordId>> TardisIndex::ExactMatch(
    const TimeSeries& query, bool use_bloom, ExactMatchStats* stats) const {
  QueryEngineStats batch;
  TARDIS_ASSIGN_OR_RETURN(
      std::vector<std::vector<RecordId>> results,
      QueryEngine(*this).ExactMatchBatch({query}, use_bloom, &batch));
  if (stats != nullptr) {
    stats->bloom_negative = batch.bloom_negatives == 1;
    stats->descent_failed = batch.descent_failures == 1;
    stats->candidates = static_cast<uint32_t>(batch.candidates);
    stats->partitions_loaded = static_cast<uint32_t>(batch.partitions_loaded);
    stats->epoch_generation = batch.epoch_generation;
  }
  return std::move(results[0]);
}

}  // namespace tardis
