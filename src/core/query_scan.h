// Internal scan primitives shared by the partition-batched QueryEngine
// (exact match, kNN-approximate, range search) and exact kNN
// (knn_exact.cc).
//
// All scans use an explicit node stack (children pushed in reverse so pops
// follow the recursive preorder they replaced) instead of std::function
// recursion, and take the query's precomputed MindistTable so node lower
// bounds are table lookups rather than breakpoint searches.
//
// Callers must run tree.EnsureWords() before any scan that prunes
// (PrunedScan / ExactScan / RangeScan).

#ifndef TARDIS_CORE_QUERY_SCAN_H_
#define TARDIS_CORE_QUERY_SCAN_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "core/pivots.h"
#include "core/topk.h"
#include "sigtree/sigtree.h"
#include "storage/partition_arena.h"
#include "ts/kernels.h"
#include "ts/time_series.h"

namespace tardis {
namespace qscan {

// Deepest node on the signature's descent path holding >= k entries; the
// root if even the whole partition is smaller than k. Allocation-free:
// ChildMap lookups take the string_view chunk directly.
inline const SigTree::Node* FindTargetNode(const SigTree& tree,
                                           std::string_view sig, uint32_t k) {
  const uint32_t cpl = tree.codec().chars_per_level();
  const SigTree::Node* node = tree.root();
  const SigTree::Node* target = node;
  while (!node->children.empty()) {
    const size_t off = static_cast<size_t>(node->level) * cpl;
    if (off + cpl > sig.size()) break;
    auto it = node->children.find(sig.substr(off, cpl));
    if (it == node->children.end()) break;
    node = it->second.get();
    if (node->count >= k) target = node;
  }
  return target;
}

// Ranks the records in [start, start+len) by true distance into `topk`,
// early-abandoning against the current k-th best. Cache-blocked: the batch
// kernel ranks one L2-sized tile of contiguous arena rows (prefetching the
// next row as it goes) against the threshold frozen at tile start, then the
// tile merges into the heap. The frozen bound is only ever *looser* than the
// per-candidate one, and loosening an early-abandon bound cannot change what
// the heap accepts (see topk.h), so results and candidate counts are
// bit-identical to the per-candidate loop this replaced.
//
// When `pq` is active and the arena carries a pivot plane, each row is first
// tested against the pivot triangle-inequality bound (core/pivots.h) using
// the threshold frozen at tile start: a pruned row is provably farther than
// the bound, i.e. exactly a row the early-abandoning kernel would have
// returned +inf for, so its slot is set to +inf directly and only the
// surviving contiguous runs are fed to the kernel (per-row kernel output is
// independent of the run split). Results are bit-identical with pruning on
// or off; `candidates` counts only kernel-ranked rows and `pivot_pruned`
// the skipped ones.
inline void RankRange(const PartitionArena& arena, uint32_t start,
                      uint32_t len, const TimeSeries& query, TopK* topk,
                      uint64_t* candidates, const PivotQuery* pq = nullptr,
                      uint64_t* pivot_pruned = nullptr) {
  const uint32_t end =
      std::min<uint32_t>(start + len, arena.num_records());
  if (start >= end) return;
  double d_sq[kRankTileMaxRecords];
  const uint32_t tile =
      static_cast<uint32_t>(RankTileRecords(query.size()));
  const bool prune = pq != nullptr && pq->active() && arena.has_pivots();
  for (uint32_t t = start; t < end; t += tile) {
    const uint32_t count = std::min<uint32_t>(tile, end - t);
    const double bound = topk->Threshold();
    const double bound_sq = std::isinf(bound)
                                ? std::numeric_limits<double>::infinity()
                                : bound * bound;
    if (!prune || std::isinf(bound)) {
      EuclideanBatch(query.data(), arena.values(t), arena.stride(), count,
                     query.size(), bound_sq, d_sq);
      *candidates += count;
    } else {
      uint32_t kept = 0, run_start = 0;
      bool in_run = false;
      for (uint32_t j = 0; j < count; ++j) {
        if (pq->Prunes(arena.pivot_row(t + j), bound)) {
          d_sq[j] = std::numeric_limits<double>::infinity();
          if (in_run) {
            EuclideanBatch(query.data(), arena.values(t + run_start),
                           arena.stride(), j - run_start, query.size(),
                           bound_sq, d_sq + run_start);
            in_run = false;
          }
        } else {
          if (!in_run) {
            run_start = j;
            in_run = true;
          }
          ++kept;
        }
      }
      if (in_run) {
        EuclideanBatch(query.data(), arena.values(t + run_start),
                       arena.stride(), count - run_start, query.size(),
                       bound_sq, d_sq + run_start);
      }
      *candidates += kept;
      if (pivot_pruned != nullptr) *pivot_pruned += count - kept;
    }
    topk->OfferTile(d_sq, arena.rids() + t, count);
  }
}

// Threshold-pruned scan of a whole local tree: subtrees whose region lower
// bound exceeds the *static* `threshold` are skipped; surviving leaf slices
// are ranked. Children of each expanded node are lower-bounded in one
// batched table pass — with a static threshold the prune decisions cannot
// depend on traversal timing, so this visits exactly the nodes the
// per-visit recursion did, in the same order.
//
// `counted_start`/`counted_len` mark a record range the caller already fed
// through RankRange (the target-node seed pass): leaves fully inside it are
// still ranked — dropping them would change results — but are not counted
// into `candidates` again, so each record contributes at most once to the
// candidate total. The target node is an ancestor-or-self of every leaf on
// its descent path, so a leaf either lies fully inside the range or is
// disjoint from it; partial overlap cannot occur.
inline void PrunedScan(const SigTree& tree, const PartitionArena& arena,
                       const MindistTable& mind, const TimeSeries& query,
                       double threshold, TopK* topk, uint64_t* candidates,
                       uint32_t counted_start = 0, uint32_t counted_len = 0,
                       const PivotQuery* pq = nullptr,
                       uint64_t* pivot_pruned = nullptr) {
  std::vector<const SigTree::Node*> stack;
  std::vector<const SaxWord*> words;
  std::vector<double> lbs;
  // Seeded leaves route *both* counters to dummies: their rows were already
  // accounted by the seed pass, so counting their pruned rows would break
  // the invariant candidates(off) == candidates(on) + pivot_pruned.
  uint64_t already_counted = 0;
  uint64_t already_pruned = 0;
  stack.push_back(tree.root());
  while (!stack.empty()) {
    const SigTree::Node* node = stack.back();
    stack.pop_back();
    if (node->is_leaf()) {
      const bool seeded =
          counted_len > 0 && node->range_start >= counted_start &&
          node->range_start + node->range_len <= counted_start + counted_len;
      RankRange(arena, node->range_start, node->range_len, query, topk,
                seeded ? &already_counted : candidates, pq,
                seeded ? &already_pruned : pivot_pruned);
      continue;
    }
    const size_t nc = node->children.size();
    words.clear();
    for (const auto& [chunk, child] : node->children) {
      words.push_back(&child->word);
    }
    lbs.resize(nc);
    mind.MindistMany(words.data(), nc, lbs.data());
    const auto first = node->children.begin();
    for (size_t ci = nc; ci-- > 0;) {  // reversed: pops run in chunk order
      if (lbs[ci] <= threshold) stack.push_back((first + ci)->second.get());
    }
  }
}

// Scans a local tree with a *dynamic* threshold: node pruning and ranking
// both track the evolving k-th distance, which preserves exactness (a node
// whose lower bound exceeds the current k-th best cannot contain a better
// neighbour). Bounds are checked at pop time — exactly when the recursion
// it replaced visited the node — so pruning stays as tight as before.
inline void ExactScan(const SigTree& tree, const PartitionArena& arena,
                      const MindistTable& mind, const TimeSeries& query,
                      TopK* topk, uint64_t* candidates,
                      const PivotQuery* pq = nullptr,
                      uint64_t* pivot_pruned = nullptr) {
  std::vector<const SigTree::Node*> stack;
  stack.push_back(tree.root());
  while (!stack.empty()) {
    const SigTree::Node* node = stack.back();
    stack.pop_back();
    if (node->level > 0 && mind.Mindist(node->word) > topk->Threshold()) {
      continue;
    }
    if (node->is_leaf()) {
      RankRange(arena, node->range_start, node->range_len, query, topk,
                candidates, pq, pivot_pruned);
      continue;
    }
    const auto first = node->children.begin();
    for (size_t ci = node->children.size(); ci-- > 0;) {
      stack.push_back((first + ci)->second.get());
    }
  }
}

// Range-collects the records in [start, start+len): every record with
// ED <= radius is appended to `out`. The flat-range body of RangeScan's leaf
// case, exposed separately so delta tails — records appended after the
// persisted tree was built, which no leaf range covers — run through the
// identical tiling, pruning, and boundary arithmetic.
inline void RangeScanRange(const PartitionArena& arena, uint32_t start,
                           uint32_t len, const TimeSeries& query,
                           double radius, std::vector<Neighbor>* out,
                           uint64_t* candidates,
                           const PivotQuery* pq = nullptr,
                           uint64_t* pivot_pruned = nullptr) {
  // The abandon bound is slightly inflated so the authoritative comparison
  // below (sqrt(d^2) <= radius, matching the ED <= radius contract exactly)
  // never loses a boundary record to squaring round-off. The bound is static,
  // so tiling the scan is trivially result-identical.
  const double radius_sq = radius * radius * (1.0 + 1e-12) + 1e-12;
  double d_sq[kRankTileMaxRecords];
  const uint32_t tile = static_cast<uint32_t>(RankTileRecords(query.size()));
  const bool prune = pq != nullptr && pq->active() && arena.has_pivots();
  const uint32_t end = std::min<uint32_t>(start + len, arena.num_records());
  for (uint32_t t = start; t < end; t += tile) {
    const uint32_t count = std::min<uint32_t>(tile, end - t);
    if (!prune) {
      EuclideanBatch(query.data(), arena.values(t), arena.stride(), count,
                     query.size(), radius_sq, d_sq);
      *candidates += count;
    } else {
      uint32_t kept = 0, run_start = 0;
      bool in_run = false;
      for (uint32_t j = 0; j < count; ++j) {
        if (pq->Prunes(arena.pivot_row(t + j), radius)) {
          d_sq[j] = std::numeric_limits<double>::infinity();
          if (in_run) {
            EuclideanBatch(query.data(), arena.values(t + run_start),
                           arena.stride(), j - run_start, query.size(),
                           radius_sq, d_sq + run_start);
            in_run = false;
          }
        } else {
          if (!in_run) {
            run_start = j;
            in_run = true;
          }
          ++kept;
        }
      }
      if (in_run) {
        EuclideanBatch(query.data(), arena.values(t + run_start),
                       arena.stride(), count - run_start, query.size(),
                       radius_sq, d_sq + run_start);
      }
      *candidates += kept;
      if (pivot_pruned != nullptr) *pivot_pruned += count - kept;
    }
    for (uint32_t j = 0; j < count; ++j) {
      if (std::isinf(d_sq[j])) continue;
      const double d = std::sqrt(d_sq[j]);
      if (d <= radius) out->push_back({d, arena.rid(t + j)});
    }
  }
}

// Range scan: like PrunedScan (static threshold = radius) but collects every
// record within `radius` instead of a top-k. Pivot pruning tests each row
// against the radius itself: a pruned row has ED > radius mathematically, so
// it can neither enter the result nor survive the kernel's abandon bound.
inline void RangeScan(const SigTree& tree, const PartitionArena& arena,
                      const MindistTable& mind, const TimeSeries& query,
                      double radius, std::vector<Neighbor>* out,
                      uint64_t* candidates, const PivotQuery* pq = nullptr,
                      uint64_t* pivot_pruned = nullptr) {
  std::vector<const SigTree::Node*> stack;
  std::vector<const SaxWord*> words;
  std::vector<double> lbs;
  stack.push_back(tree.root());
  while (!stack.empty()) {
    const SigTree::Node* node = stack.back();
    stack.pop_back();
    if (node->is_leaf()) {
      RangeScanRange(arena, node->range_start, node->range_len, query, radius,
                     out, candidates, pq, pivot_pruned);
      continue;
    }
    const size_t nc = node->children.size();
    words.clear();
    for (const auto& [chunk, child] : node->children) {
      words.push_back(&child->word);
    }
    lbs.resize(nc);
    mind.MindistMany(words.data(), nc, lbs.data());
    const auto first = node->children.begin();
    for (size_t ci = nc; ci-- > 0;) {
      if (lbs[ci] <= radius) stack.push_back((first + ci)->second.get());
    }
  }
}

}  // namespace qscan
}  // namespace tardis

#endif  // TARDIS_CORE_QUERY_SCAN_H_
