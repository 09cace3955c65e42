// Per-layer probes: each calls one layer's public API from outside, times
// it, and returns the figure together with the counts it was derived from.
// They run after the measured window, on the index the server is serving,
// while no traffic is in flight. Each probe records a "bench.probe.<name>"
// span when tracing is on.

#ifndef TARDIS_PERFBENCH_LAYER_PROBES_H_
#define TARDIS_PERFBENCH_LAYER_PROBES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query_engine.h"
#include "core/tardis_index.h"

namespace tardis {
namespace perfbench {

// Median Send-to-Receive time of `n` kPing requests on one idle connection.
double PingRttUs(uint16_t port, uint32_t n);

// ZNormalize + PaaInto + ISaxTCodec::Encode, microseconds per query.
double PrepareUsPerQuery(const TardisIndex& index,
                         const std::vector<TimeSeries>& queries);

struct RouteProbe {
  double lookup_us = 0.0;  // LookupPartition + SiblingPartitions per query
  uint64_t queries = 0;
  // Partitions a Multi-Partitions query visits: the sibling list capped at
  // the configured pth.
  uint64_t partitions = 0;
};
RouteProbe ProbeRoute(const TardisIndex& index,
                      const std::vector<TimeSeries>& queries);

struct KernelProbe {
  uint64_t arenas = 0;  // resident arenas scanned
  uint64_t bytes = 0;   // values-plane bytes streamed through the kernel
  double seconds = 0.0;
};
// EuclideanBatch of every query against every arena resident in the
// partition cache (no early abandoning).
KernelProbe ProbeKernel(const TardisIndex& index,
                        const std::vector<TimeSeries>& queries);

struct StorageProbe {
  uint64_t partitions = 0;
  uint64_t file_bytes = 0;
  double decode_seconds = 0.0;  // PartitionStore::ReadPartitionArena
  double crc_seconds = 0.0;     // Crc32c over the in-memory file bytes
};
// Every base partition file of the index directory.
Result<StorageProbe> ProbeStorage(const TardisIndex& index,
                                  const std::string& index_dir);

// In-process QueryEngine replay in batches of `batch` queries; the returned
// stats are summed over the batches.
Result<QueryEngineStats> ReplayKnn(const TardisIndex& index,
                                   const std::vector<TimeSeries>& queries,
                                   uint32_t batch, KnnStrategy strategy);
Result<QueryEngineStats> ReplayExact(const TardisIndex& index,
                                     const std::vector<TimeSeries>& queries,
                                     uint32_t batch);

// Median milliseconds of WriteFileAtomic of `payload_bytes` bytes to a
// scratch file inside `dir` (removed afterwards).
Result<double> AtomicWriteMs(const std::string& dir, uint64_t payload_bytes,
                             uint32_t repeats);

struct DirUsage {
  uint64_t files = 0;
  uint64_t bytes = 0;
};
DirUsage MeasureDir(const std::string& dir);

// Size of the newest MANIFEST-* file in `dir` (0 when none).
uint64_t NewestManifestBytes(const std::string& dir);

}  // namespace perfbench
}  // namespace tardis

#endif  // TARDIS_PERFBENCH_LAYER_PROBES_H_
