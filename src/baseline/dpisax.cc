#include "baseline/dpisax.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "cluster/map_reduce.h"
#include "common/gaussian.h"
#include "common/stopwatch.h"
#include "ts/distance.h"
#include "ts/paa.h"

namespace tardis {

namespace {
constexpr char kTreeSidecar[] = "ibt";

// Stripe-gap between two exposed symbols at possibly different per-char
// cardinalities (zero when the stripes overlap).
double CharGap(uint16_t sym_a, uint8_t bits_a, uint16_t sym_b, uint8_t bits_b) {
  const double lo_a = BreakpointTable::Lower(sym_a, bits_a);
  const double hi_a = BreakpointTable::Upper(sym_a, bits_a);
  const double lo_b = BreakpointTable::Lower(sym_b, bits_b);
  const double hi_b = BreakpointTable::Upper(sym_b, bits_b);
  if (lo_a > hi_b) return lo_a - hi_b;
  if (lo_b > hi_a) return lo_b - hi_a;
  return 0.0;
}

// Gap between a full-cardinality record signature and a table entry region.
double EntryGap(const ISaxSignature& full_sig, const ISaxSignature& entry) {
  double acc = 0.0;
  for (size_t i = 0; i < entry.word_length(); ++i) {
    const uint8_t bits = entry.char_bits[i];
    if (bits == 0) continue;
    const uint16_t record_sym = static_cast<uint16_t>(
        full_sig.full_symbols[i] >> (full_sig.max_bits - bits));
    const double d = CharGap(record_sym, bits, entry.Symbol(i), bits);
    acc += d * d;
  }
  return acc;
}
}  // namespace

PartitionTable PartitionTable::FromTree(const IBTree& tree, double scale) {
  PartitionTable table;
  // Group leaf entries by cardinality vector for the per-group hash probes.
  std::map<std::vector<uint8_t>, size_t> group_index;
  tree.ForEachNode([&](const IBTree::Node& node) {
    if (!node.is_leaf() || node.parent == nullptr) return;
    Entry entry;
    entry.sig = node.sig;
    entry.pid = static_cast<PartitionId>(table.entries_.size());
    entry.est_count = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(node.count * scale)));
    auto [it, inserted] =
        group_index.try_emplace(node.sig.char_bits, table.groups_.size());
    if (inserted) {
      Group group;
      group.char_bits = node.sig.char_bits;
      table.groups_.push_back(std::move(group));
    }
    table.groups_[it->second].keys.emplace(node.sig.Key(), entry.pid);
    table.entries_.push_back(std::move(entry));
  });
  table.num_partitions_ = static_cast<uint32_t>(table.entries_.size());
  return table;
}

void PartitionTable::PackInto(uint64_t capacity) {
  std::vector<uint64_t> remaining;  // free space per open partition
  std::vector<PartitionId> remap(entries_.size());
  for (size_t i = 0; i < entries_.size(); ++i) {
    const uint64_t size = entries_[i].est_count;
    uint32_t bin = static_cast<uint32_t>(remaining.size());
    for (uint32_t b = 0; b < remaining.size(); ++b) {
      if (remaining[b] >= size) {
        bin = b;
        break;
      }
    }
    if (bin == remaining.size()) {
      remaining.push_back(size >= capacity ? 0 : capacity - size);
    } else {
      remaining[bin] -= size;
    }
    remap[entries_[i].pid] = bin;
    entries_[i].pid = bin;
  }
  for (Group& group : groups_) {
    for (auto& [key, pid] : group.keys) pid = remap[pid];
  }
  num_partitions_ = static_cast<uint32_t>(remaining.size());
}

PartitionId PartitionTable::Lookup(const ISaxSignature& full_sig) const {
  // Honest DPiSAX matching: for each distinct cardinality vector in the
  // table, truncate the record's signature accordingly and probe the hash.
  // This repeated truncate-and-probe is the bottleneck §II-C identifies.
  ISaxSignature probe = full_sig;
  for (const Group& group : groups_) {
    probe.char_bits = group.char_bits;
    auto it = group.keys.find(probe.Key());
    if (it != group.keys.end()) return it->second;
  }
  // Signature outside every sampled cell: route to the nearest entry.
  PartitionId best = kInvalidPartition;
  double best_gap = std::numeric_limits<double>::infinity();
  for (const Entry& entry : entries_) {
    const double gap = EntryGap(full_sig, entry.sig);
    if (gap < best_gap) {
      best_gap = gap;
      best = entry.pid;
    }
  }
  return best;
}

size_t PartitionTable::SerializedSize() const {
  // Each entry stores per-char (bits, symbol) plus pid — the "partition
  // table" the paper sizes in Fig. 13(a).
  size_t bytes = 0;
  for (const Entry& entry : entries_) {
    bytes += entry.sig.word_length() * 3 + sizeof(PartitionId) + sizeof(uint64_t);
  }
  return bytes;
}

Result<DPiSaxIndex> DPiSaxIndex::Build(std::shared_ptr<Cluster> cluster,
                                       const BlockStore& input,
                                       const std::string& partition_dir,
                                       const DPiSaxConfig& config,
                                       BuildTimings* timings) {
  TARDIS_RETURN_NOT_OK(config.Validate());
  if (cluster == nullptr) return Status::InvalidArgument("null cluster");
  if (input.series_length() % config.word_length != 0) {
    return Status::InvalidArgument(
        "series length must be a multiple of the word length");
  }

  Stopwatch sw;
  // --- Sample: workers convert a block sample to iSAX signatures ---
  Rng rng(config.seed);
  const std::vector<uint32_t> blocks =
      input.SampleBlocks(config.sampling_percent, &rng);
  const uint32_t w = config.word_length;
  using SigVec = std::vector<ISaxSignature>;
  TARDIS_ASSIGN_OR_RETURN(
      std::vector<SigVec> per_block,
      (MapBlocks<SigVec>(
          *cluster, input, blocks,
          [&](uint32_t, const std::vector<Record>& records) -> Result<SigVec> {
            SigVec sigs;
            sigs.reserve(records.size());
            std::vector<double> paa(w);
            for (const auto& rec : records) {
              PaaInto(rec.values, w, paa.data());
              sigs.push_back(ISaxFromPaa(paa, config.max_bits));
            }
            return sigs;
          })));
  size_t sampled = 0;
  for (const auto& sigs : per_block) sampled += sigs.size();
  if (sampled == 0) return Status::InvalidArgument("empty sample");
  const double fraction =
      static_cast<double>(sampled) / static_cast<double>(input.num_records());
  if (timings) timings->sample_seconds = sw.ElapsedSeconds();
  sw.Restart();

  // --- Master-side iBT over the sampled signatures, bulk-loaded per
  // iSAX 2.0's mechanism. The split threshold is the partition capacity
  // scaled down to the sample size, so leaf cells correspond to ~G-MaxSize
  // records of the full dataset.
  const uint64_t sample_threshold = std::max<uint64_t>(
      1, static_cast<uint64_t>(config.g_max_size * fraction));
  std::vector<std::pair<ISaxSignature, uint32_t>> sample_entries;
  sample_entries.reserve(sampled);
  uint32_t idx = 0;
  for (auto& sigs : per_block) {
    for (auto& sig : sigs) sample_entries.emplace_back(std::move(sig), idx++);
  }
  IBTree global_tree =
      IBTree::BulkLoad(w, config.max_bits, config.split_policy,
                       sample_threshold, std::move(sample_entries));
  if (timings) timings->tree_seconds = sw.ElapsedSeconds();
  sw.Restart();

  PartitionTable table = PartitionTable::FromTree(global_tree, 1.0 / fraction);
  if (table.num_partitions() == 0) {
    return Status::Internal("empty partition table");
  }
  table.PackInto(config.g_max_size);
  if (timings) timings->table_seconds = sw.ElapsedSeconds();
  sw.Restart();

  TARDIS_ASSIGN_OR_RETURN(
      PartitionStore pstore,
      PartitionStore::Open(partition_dir, input.series_length()));
  DPiSaxIndex index(cluster, config, std::move(table), std::move(pstore),
                    input.series_length());

  // --- Shuffle: every record pays conversion at the large initial
  // cardinality plus the table-matching cost.
  const PartitionTable& tbl = index.table_;
  const uint8_t max_bits = config.max_bits;
  auto partitioner = [&tbl, w, max_bits](const Record& rec) -> PartitionId {
    thread_local std::vector<double> paa;
    paa.resize(w);
    PaaInto(rec.values, w, paa.data());
    return tbl.Lookup(ISaxFromPaa(paa, max_bits));
  };
  TARDIS_ASSIGN_OR_RETURN(
      index.partition_counts_,
      ShuffleToPartitions(*cluster, input, index.num_partitions(), partitioner,
                          *index.partitions_));
  if (timings) timings->shuffle_seconds = sw.ElapsedSeconds();
  sw.Restart();

  // --- Local iBTs (mapPartitions), clustered rewrite + sidecar.
  TARDIS_RETURN_NOT_OK(MapPartitions(
      *cluster, index.num_partitions(), [&](PartitionId pid) -> Status {
        TARDIS_ASSIGN_OR_RETURN(std::vector<Record> records,
                                index.partitions_->ReadPartition(pid));
        std::vector<std::pair<ISaxSignature, uint32_t>> entries;
        entries.reserve(records.size());
        std::vector<double> paa(w);
        for (uint32_t i = 0; i < records.size(); ++i) {
          PaaInto(records[i].values, w, paa.data());
          entries.emplace_back(ISaxFromPaa(paa, config.max_bits), i);
        }
        IBTree local =
            IBTree::BulkLoad(w, config.max_bits, config.split_policy,
                             config.l_max_size, std::move(entries));
        std::vector<uint32_t> order;
        order.reserve(records.size());
        local.AssignClusteredRanges(&order);
        std::vector<Record> clustered;
        clustered.reserve(records.size());
        for (uint32_t j : order) clustered.push_back(std::move(records[j]));
        TARDIS_RETURN_NOT_OK(index.partitions_->WritePartition(pid, clustered));
        std::string tree_bytes;
        local.EncodeTo(&tree_bytes);
        return index.partitions_->WriteSidecar(pid, kTreeSidecar, tree_bytes);
      }));
  if (timings) timings->local_build_seconds = sw.ElapsedSeconds();
  return index;
}

Result<DPiSaxIndex::SizeInfo> DPiSaxIndex::ComputeSizeInfo() const {
  SizeInfo info;
  info.global_bytes = table_.SerializedSize();
  for (uint32_t pid = 0; pid < num_partitions(); ++pid) {
    TARDIS_ASSIGN_OR_RETURN(uint64_t bytes,
                            partitions_->SidecarBytes(pid, kTreeSidecar));
    info.local_tree_bytes += bytes;
  }
  return info;
}

Status DPiSaxIndex::PrepareQuery(const TimeSeries& query,
                                 std::vector<double>* paa,
                                 ISaxSignature* sig) const {
  if (query.size() != series_length_) {
    return Status::InvalidArgument("query length differs from indexed series");
  }
  paa->resize(config_.word_length);
  PaaInto(query, config_.word_length, paa->data());
  *sig = ISaxFromPaa(*paa, config_.max_bits);
  return Status::OK();
}

Result<std::vector<Record>> DPiSaxIndex::LoadPartition(PartitionId pid) const {
  return partitions_->ReadPartition(pid);
}

Result<PartitionCache::Value> DPiSaxIndex::LoadPartitionShared(
    PartitionId pid) const {
  if (cache_ == nullptr) {
    TARDIS_ASSIGN_OR_RETURN(PartitionArena arena,
                            partitions_->ReadPartitionArena(pid));
    return std::make_shared<const PartitionArena>(std::move(arena));
  }
  return cache_->GetOrLoad(
      pid, [this, pid] { return partitions_->ReadPartitionArena(pid); });
}

Result<IBTree> DPiSaxIndex::LoadLocalTree(PartitionId pid) const {
  TARDIS_ASSIGN_OR_RETURN(std::string bytes,
                          partitions_->ReadSidecar(pid, kTreeSidecar));
  return IBTree::Decode(bytes);
}

Result<std::vector<RecordId>> DPiSaxIndex::ExactMatch(
    const TimeSeries& query, ExactMatchStats* stats) const {
  std::vector<double> paa;
  ISaxSignature sig;
  TARDIS_RETURN_NOT_OK(PrepareQuery(query, &paa, &sig));
  const PartitionId pid = table_.Lookup(sig);
  if (pid == kInvalidPartition) {
    if (stats) stats->descent_failed = true;
    return std::vector<RecordId>{};
  }
  TARDIS_ASSIGN_OR_RETURN(IBTree local, LoadLocalTree(pid));
  TARDIS_ASSIGN_OR_RETURN(PartitionCache::Value loaded,
                          LoadPartitionShared(pid));
  const PartitionArena& arena = *loaded;
  if (stats) stats->partitions_loaded = 1;
  const IBTree::Node* leaf = local.DescendToLeaf(sig);
  if (leaf == local.root()) {
    // No first-layer cell for this signature: provably absent.
    if (stats) stats->descent_failed = true;
    return std::vector<RecordId>{};
  }
  std::vector<RecordId> result;
  const uint32_t end = leaf->range_start + leaf->range_len;
  for (uint32_t i = leaf->range_start; i < end && i < arena.num_records();
       ++i) {
    if (stats) ++stats->candidates;
    if (std::equal(query.begin(), query.end(), arena.values(i))) {
      result.push_back(arena.rid(i));
    }
  }
  return result;
}

Result<std::vector<Neighbor>> DPiSaxIndex::KnnApproximate(
    const TimeSeries& query, uint32_t k, KnnStats* stats) const {
  if (k == 0) return Status::InvalidArgument("k must be >= 1");
  std::vector<double> paa;
  ISaxSignature sig;
  TARDIS_RETURN_NOT_OK(PrepareQuery(query, &paa, &sig));
  const PartitionId pid = table_.Lookup(sig);
  if (pid == kInvalidPartition) return Status::Internal("no partition");
  TARDIS_ASSIGN_OR_RETURN(IBTree local, LoadLocalTree(pid));
  TARDIS_ASSIGN_OR_RETURN(PartitionCache::Value loaded,
                          LoadPartitionShared(pid));
  const PartitionArena& arena = *loaded;
  if (stats) stats->partitions_loaded = 1;

  // Target node: the query's leaf, widened to the nearest ancestor holding
  // at least k entries (the baseline analogue of Target Node Access).
  const IBTree::Node* node = local.DescendToLeaf(sig);
  while (node->parent != nullptr && node->count < k) node = node->parent;
  if (stats) stats->candidates = node->range_len;

  const uint32_t end = std::min<uint32_t>(node->range_start + node->range_len,
                                          arena.num_records());
  std::vector<Neighbor> candidates;
  candidates.reserve(end - node->range_start);
  if (config_.clustered) {
    for (uint32_t i = node->range_start; i < end; ++i) {
      candidates.push_back(
          {std::sqrt(SquaredEuclidean(query.data(), arena.values(i),
                                      query.size())),
           arena.rid(i)});
    }
  } else {
    // Un-clustered DPiSAX: no refine phase — rank purely in signature space
    // (lower-bound distance between the query PAA and each record's
    // signature), reproducing the §II-D accuracy degradation.
    std::vector<double> rec_paa(config_.word_length);
    for (uint32_t i = node->range_start; i < end; ++i) {
      PaaInto(arena.values(i), arena.series_length(), config_.word_length,
              rec_paa.data());
      const ISaxSignature rec_sig = ISaxFromPaa(rec_paa, config_.max_bits);
      candidates.push_back(
          {MindistPaaToISax(paa, rec_sig, query.size()), arena.rid(i)});
    }
  }
  const size_t take = std::min<size_t>(k, candidates.size());
  std::partial_sort(candidates.begin(), candidates.begin() + take,
                    candidates.end());
  candidates.resize(take);
  return candidates;
}

}  // namespace tardis
