#include "storage/partition_store.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/crc32c.h"
#include "common/fault_injection.h"
#include "common/file_util.h"
#include "common/serde.h"
#include "common/telemetry.h"
#include "storage/manifest.h"

namespace fs = std::filesystem;

namespace tardis {

namespace {

// Every partition record file and sidecar is a sequence of frames:
//   [magic u32 | payload_len u32 | crc32c(payload) u32 | payload]
// WritePartition*/WriteSidecar emit one frame; each streaming-shuffle flush
// appends one more. Readers verify every frame's checksum and report
// kCorruption with the file and byte offset on any mismatch, so a flipped
// bit, torn append, or truncation never decodes into garbage records.
constexpr uint32_t kFrameMagic = 0x314D4654u;  // "TFM1" little-endian
constexpr size_t kFrameHeaderBytes = 12;

Result<uint64_t> FileBytes(const std::string& path) {
  std::error_code ec;
  const uint64_t size = fs::file_size(path, ec);
  if (ec) return Status::IOError("stat failed: " + path + ": " + ec.message());
  return size;
}

void AppendFrame(std::string_view payload, std::string* out) {
  PutFixed<uint32_t>(out, kFrameMagic);
  PutFixed<uint32_t>(out, static_cast<uint32_t>(payload.size()));
  PutFixed<uint32_t>(out, Crc32c(payload));
  out->append(payload.data(), payload.size());
}

std::string FrameCorruption(const std::string& path, size_t offset,
                            const char* what) {
  char msg[64];
  std::snprintf(msg, sizeof(msg), " (frame at offset %zu: %s)", offset, what);
  return path + msg;
}

// Verifies every frame of `file_bytes` and returns the concatenated
// payloads. `path` is only used in error messages.
Result<std::string> UnframeFile(const std::string& path,
                                std::string_view file_bytes) {
  std::string payload;
  size_t offset = 0;
  while (offset < file_bytes.size()) {
    if (file_bytes.size() - offset < kFrameHeaderBytes) {
      return Status::Corruption(
          "truncated frame header in " +
          FrameCorruption(path, offset, "trailing bytes"));
    }
    SliceReader header(file_bytes.substr(offset, kFrameHeaderBytes));
    uint32_t magic = 0, len = 0, crc = 0;
    header.GetFixed(&magic);
    header.GetFixed(&len);
    header.GetFixed(&crc);
    if (magic != kFrameMagic) {
      return Status::Corruption("bad frame magic in " +
                                FrameCorruption(path, offset, "magic"));
    }
    if (len > file_bytes.size() - offset - kFrameHeaderBytes) {
      return Status::Corruption("frame length beyond file end in " +
                                FrameCorruption(path, offset, "length"));
    }
    const std::string_view body =
        file_bytes.substr(offset + kFrameHeaderBytes, len);
    if (Crc32c(body) != crc) {
      return Status::Corruption("checksum mismatch in " +
                                FrameCorruption(path, offset, "crc32c"));
    }
    payload.append(body.data(), body.size());
    offset += kFrameHeaderBytes + len;
  }
  return payload;
}

}  // namespace

Result<PartitionStore> PartitionStore::Open(const std::string& dir,
                                            uint32_t series_length) {
  if (series_length == 0) {
    return Status::InvalidArgument("series length must be > 0");
  }
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Status::IOError("mkdir failed: " + dir + ": " + ec.message());
  return PartitionStore(dir, series_length);
}

std::string PartitionStore::PartitionPath(PartitionId pid) const {
  char name[32];
  std::snprintf(name, sizeof(name), "part_%06u.bin", pid);
  return dir_ + "/" + name;
}

std::string PartitionStore::SidecarPath(PartitionId pid,
                                        const std::string& name) const {
  char prefix[32];
  std::snprintf(prefix, sizeof(prefix), "part_%06u.", pid);
  return dir_ + "/" + prefix + name;
}

Status PartitionStore::WritePartition(PartitionId pid,
                                      const std::vector<Record>& records) const {
  std::string bytes;
  bytes.reserve(records.size() * RecordEncodedSize(series_length_));
  for (const auto& rec : records) EncodeRecord(rec, &bytes);
  return WritePartitionRaw(pid, bytes);
}

Status PartitionStore::WritePartitionRaw(PartitionId pid,
                                         const std::string& bytes) const {
  if (bytes.size() % RecordEncodedSize(series_length_) != 0) {
    return Status::InvalidArgument("raw partition buffer is not record-aligned");
  }
  // An empty partition is an empty file (zero frames), so streaming appends
  // can later start its frame sequence from scratch.
  std::string framed;
  if (!bytes.empty()) {
    framed.reserve(kFrameHeaderBytes + bytes.size());
    AppendFrame(bytes, &framed);
  }
  return WriteFileAtomic(PartitionPath(pid), framed);
}

Status PartitionStore::AppendPartitionRaw(PartitionId pid,
                                          const std::string& bytes) const {
  if (bytes.size() % RecordEncodedSize(series_length_) != 0) {
    return Status::InvalidArgument("raw partition append is not record-aligned");
  }
  if (bytes.empty()) return Status::OK();
  static telemetry::Histogram& append_us =
      telemetry::Registry::Global().GetHistogram("tardis.storage.append_us");
  telemetry::ScopedLatency timer(append_us);
  if (telemetry::Enabled()) {
    static telemetry::Counter& appended =
        telemetry::Registry::Global().GetCounter(
            "tardis.storage.partition_bytes_appended");
    appended.Add(bytes.size());
  }
  const std::string path = PartitionPath(pid);
  TARDIS_RETURN_NOT_OK(
      MaybeInjectFault(FaultSite::kPartitionAppend, path));
  std::string framed;
  framed.reserve(kFrameHeaderBytes + bytes.size());
  AppendFrame(bytes, &framed);
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) return Status::IOError("cannot open for append: " + path);
  out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  if (!out) return Status::IOError("short append: " + path);
  return Status::OK();
}

Result<std::vector<Record>> PartitionStore::ReadPartition(PartitionId pid) const {
  const std::string path = PartitionPath(pid);
  static telemetry::Histogram& read_us =
      telemetry::Registry::Global().GetHistogram(
          "tardis.storage.read_partition_us");
  telemetry::ScopedLatency timer(read_us);
  TARDIS_RETURN_NOT_OK(MaybeInjectFault(FaultSite::kPartitionLoad, path));
  TARDIS_ASSIGN_OR_RETURN(std::string file_bytes, ReadFileToString(path));
  if (telemetry::Enabled()) {
    static telemetry::Counter& bytes_read =
        telemetry::Registry::Global().GetCounter(
            "tardis.storage.partition_bytes_read");
    bytes_read.Add(file_bytes.size());
  }
  TARDIS_ASSIGN_OR_RETURN(std::string bytes, UnframeFile(path, file_bytes));
  const size_t rec_size = RecordEncodedSize(series_length_);
  if (bytes.size() % rec_size != 0) {
    return Status::Corruption("partition payload size not a record multiple: " +
                              path);
  }
  // The count is derived from verified payload bytes, so this resize is
  // bounded by what was actually read from disk.
  std::vector<Record> records(bytes.size() / rec_size);
  SliceReader reader(bytes);
  for (auto& rec : records) {
    if (!DecodeRecord(&reader, series_length_, &rec)) {
      return Status::Corruption("truncated record in partition: " + path);
    }
  }
  return records;
}

Result<PartitionArena> PartitionStore::ReadPartitionArena(
    PartitionId pid) const {
  const std::string path = PartitionPath(pid);
  static telemetry::Histogram& read_us =
      telemetry::Registry::Global().GetHistogram(
          "tardis.storage.read_partition_us");
  telemetry::ScopedLatency timer(read_us);
  TARDIS_RETURN_NOT_OK(MaybeInjectFault(FaultSite::kPartitionLoad, path));
  TARDIS_ASSIGN_OR_RETURN(std::string file_bytes, ReadFileToString(path));
  if (telemetry::Enabled()) {
    static telemetry::Counter& bytes_read =
        telemetry::Registry::Global().GetCounter(
            "tardis.storage.partition_bytes_read");
    bytes_read.Add(file_bytes.size());
  }
  TARDIS_ASSIGN_OR_RETURN(std::string bytes, UnframeFile(path, file_bytes));
  return PartitionArena::FromPayload(bytes, series_length_, path);
}

Result<PartitionArena> PartitionStore::ReadPartitionArenaWithDeltas(
    PartitionId pid, const std::vector<uint64_t>& delta_gens) const {
  if (delta_gens.empty()) return ReadPartitionArena(pid);
  const std::string path = PartitionPath(pid);
  static telemetry::Histogram& read_us =
      telemetry::Registry::Global().GetHistogram(
          "tardis.storage.read_partition_us");
  telemetry::ScopedLatency timer(read_us);
  TARDIS_RETURN_NOT_OK(MaybeInjectFault(FaultSite::kPartitionLoad, path));
  TARDIS_ASSIGN_OR_RETURN(std::string file_bytes, ReadFileToString(path));
  if (telemetry::Enabled()) {
    static telemetry::Counter& bytes_read =
        telemetry::Registry::Global().GetCounter(
            "tardis.storage.partition_bytes_read");
    bytes_read.Add(file_bytes.size());
  }
  TARDIS_ASSIGN_OR_RETURN(std::string bytes, UnframeFile(path, file_bytes));
  const size_t rec_size = RecordEncodedSize(series_length_);
  if (bytes.size() % rec_size != 0) {
    return Status::Corruption("partition payload size not a record multiple: " +
                              path);
  }
  const uint32_t base_records =
      static_cast<uint32_t>(bytes.size() / rec_size);
  for (const uint64_t gen : delta_gens) {
    TARDIS_ASSIGN_OR_RETURN(std::string delta,
                            ReadSidecar(pid, DeltaSidecarName(gen)));
    if (delta.size() % rec_size != 0) {
      return Status::Corruption("delta payload size not a record multiple: " +
                                SidecarPath(pid, DeltaSidecarName(gen)));
    }
    bytes.append(delta);
  }
  TARDIS_ASSIGN_OR_RETURN(
      PartitionArena arena,
      PartitionArena::FromPayload(bytes, series_length_, path));
  arena.set_num_base_records(base_records);
  return arena;
}

Result<std::vector<Record>> PartitionStore::ReadPartitionWithDeltas(
    PartitionId pid, const std::vector<uint64_t>& delta_gens) const {
  TARDIS_ASSIGN_OR_RETURN(std::vector<Record> records, ReadPartition(pid));
  const size_t rec_size = RecordEncodedSize(series_length_);
  for (const uint64_t gen : delta_gens) {
    TARDIS_ASSIGN_OR_RETURN(std::string delta,
                            ReadSidecar(pid, DeltaSidecarName(gen)));
    if (delta.size() % rec_size != 0) {
      return Status::Corruption("delta payload size not a record multiple: " +
                                SidecarPath(pid, DeltaSidecarName(gen)));
    }
    SliceReader reader(delta);
    const size_t count = delta.size() / rec_size;
    for (size_t i = 0; i < count; ++i) {
      Record rec;
      if (!DecodeRecord(&reader, series_length_, &rec)) {
        return Status::Corruption("truncated record in delta: " +
                                  SidecarPath(pid, DeltaSidecarName(gen)));
      }
      records.push_back(std::move(rec));
    }
  }
  return records;
}

Result<uint64_t> PartitionStore::PartitionBytes(PartitionId pid) const {
  return FileBytes(PartitionPath(pid));
}

Status PartitionStore::RemovePartition(PartitionId pid) const {
  std::error_code ec;
  fs::remove(PartitionPath(pid), ec);
  if (ec) return Status::IOError("remove failed: " + PartitionPath(pid));
  return Status::OK();
}

Status PartitionStore::WriteSidecar(PartitionId pid, const std::string& name,
                                    const std::string& bytes) const {
  std::string framed;
  framed.reserve(kFrameHeaderBytes + bytes.size());
  AppendFrame(bytes, &framed);
  return WriteFileAtomic(SidecarPath(pid, name), framed);
}

Result<std::string> PartitionStore::ReadSidecar(PartitionId pid,
                                                const std::string& name) const {
  const std::string path = SidecarPath(pid, name);
  static telemetry::Histogram& read_us =
      telemetry::Registry::Global().GetHistogram(
          "tardis.storage.read_sidecar_us");
  telemetry::ScopedLatency timer(read_us);
  TARDIS_RETURN_NOT_OK(MaybeInjectFault(FaultSite::kSidecarRead, path));
  TARDIS_ASSIGN_OR_RETURN(std::string file_bytes, ReadFileToString(path));
  if (telemetry::Enabled()) {
    static telemetry::Counter& bytes_read =
        telemetry::Registry::Global().GetCounter(
            "tardis.storage.sidecar_bytes_read");
    bytes_read.Add(file_bytes.size());
  }
  return UnframeFile(path, file_bytes);
}

Result<uint64_t> PartitionStore::SidecarBytes(PartitionId pid,
                                              const std::string& name) const {
  return FileBytes(SidecarPath(pid, name));
}

}  // namespace tardis
