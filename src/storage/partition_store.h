// PartitionStore: the shuffled, clustered dataset — one binary file per
// index partition, written by the cluster shuffle and read wholesale at
// query time (the paper's "load the partition" step, which models an HDFS
// partition read).
//
// Each partition may carry named sidecar files; TARDIS stores the serialized
// Tardis-L tree skeleton and the partition Bloom filter this way.
//
// On disk, record files and sidecars are CRC32C-framed (mirroring HDFS block
// checksums): every write emits a [magic|length|crc32c] header ahead of its
// payload, appends add one frame per flush, and the read paths verify every
// frame — corruption surfaces as StatusCode::kCorruption naming the file and
// frame offset, never as garbage records. Replacing writes go through a
// temp-file + rename so a crashed writer cannot leave a half-written file
// under the final name.

#ifndef TARDIS_STORAGE_PARTITION_STORE_H_
#define TARDIS_STORAGE_PARTITION_STORE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/partition_arena.h"
#include "storage/record.h"

namespace tardis {

class PartitionStore {
 public:
  // Creates (or opens) a store rooted at `dir` for records of
  // `series_length` values.
  static Result<PartitionStore> Open(const std::string& dir,
                                     uint32_t series_length);

  uint32_t series_length() const { return series_length_; }
  const std::string& dir() const { return dir_; }

  // Writes (replaces) the record file of partition `pid`.
  Status WritePartition(PartitionId pid, const std::vector<Record>& records) const;

  // Writes a pre-encoded record buffer (avoids re-encoding after a shuffle).
  Status WritePartitionRaw(PartitionId pid, const std::string& bytes) const;

  // Appends a pre-encoded record buffer to partition `pid`'s file, creating
  // it if absent. This is the streaming-shuffle flush path: workers spill
  // bounded buffers here instead of materialising whole partitions in RAM.
  // Callers must serialize concurrent appends to the same partition.
  Status AppendPartitionRaw(PartitionId pid, const std::string& bytes) const;

  // Reads all records of partition `pid` — one sequential file read.
  Result<std::vector<Record>> ReadPartition(PartitionId pid) const;

  // Reads partition `pid` straight into a columnar arena: one sequential
  // file read, one decode pass from the verified frame payload. This is the
  // query-path loader; ReadPartition remains for build/append/tooling paths
  // that want AoS records.
  Result<PartitionArena> ReadPartitionArena(PartitionId pid) const;

  // Reads partition `pid`'s base record file plus the listed delta sidecars
  // (epoch append tails; storage/manifest.h) concatenated in order into one
  // arena. The arena's num_base_records() is set to the base file's row
  // count, so rows past it are the delta tail the persisted tree does not
  // cover. Equivalent to ReadPartitionArena when `delta_gens` is empty.
  Result<PartitionArena> ReadPartitionArenaWithDeltas(
      PartitionId pid, const std::vector<uint64_t>& delta_gens) const;

  // AoS counterpart for build/append/tooling paths.
  Result<std::vector<Record>> ReadPartitionWithDeltas(
      PartitionId pid, const std::vector<uint64_t>& delta_gens) const;

  // Deletes partition `pid`'s record file (used by un-clustered indexes,
  // which keep only sidecars). Missing files are not an error.
  Status RemovePartition(PartitionId pid) const;

  // Size in bytes of a partition's record file.
  Result<uint64_t> PartitionBytes(PartitionId pid) const;

  // Named sidecar blobs (index skeletons, Bloom filters).
  Status WriteSidecar(PartitionId pid, const std::string& name,
                      const std::string& bytes) const;
  Result<std::string> ReadSidecar(PartitionId pid, const std::string& name) const;
  Result<uint64_t> SidecarBytes(PartitionId pid, const std::string& name) const;

 private:
  PartitionStore(std::string dir, uint32_t series_length)
      : dir_(std::move(dir)), series_length_(series_length) {}

  std::string PartitionPath(PartitionId pid) const;
  std::string SidecarPath(PartitionId pid, const std::string& name) const;

  std::string dir_;
  uint32_t series_length_;
};

}  // namespace tardis

#endif  // TARDIS_STORAGE_PARTITION_STORE_H_
