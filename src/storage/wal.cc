#include "src/storage/wal.h"

#include <algorithm>
#include <vector>

#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"

namespace ss {

namespace {

constexpr uint64_t kReplayChunkBytes = 64 << 10;
constexpr uint64_t kRecordHeaderBytes = 8;  // crc fixed32 + len fixed32
constexpr uint32_t kBatchBit = 0x80000000u;  // length word flag: batch record

// Bounded-memory forward reader over the log file: serves byte ranges out of
// a sliding chunk, falling back to a direct read for records larger than
// one chunk.
class ChunkedLogReader {
 public:
  ChunkedLogReader(const RandomAccessFile* file, uint64_t file_size)
      : file_(file), file_size_(file_size) {}

  // Points `out` at `n` bytes starting at absolute offset `off`. The view is
  // valid until the next ReadAt call.
  Status ReadAt(uint64_t off, uint64_t n, std::string_view* out) {
    if (off + n > file_size_) {
      return Status::Corruption("wal read past EOF");
    }
    if (off >= buf_start_ && off + n <= buf_start_ + buf_.size()) {
      *out = std::string_view(buf_).substr(off - buf_start_, n);
      return Status::Ok();
    }
    uint64_t len = std::max(n, std::min(kReplayChunkBytes, file_size_ - off));
    SS_RETURN_IF_ERROR(file_->Read(off, len, &buf_));
    buf_start_ = off;
    *out = std::string_view(buf_).substr(0, n);
    return Status::Ok();
  }

 private:
  const RandomAccessFile* file_;
  uint64_t file_size_;
  std::string buf_;
  uint64_t buf_start_ = 0;
};

void CountTornTail(const std::string& path, uint64_t offset, const char* what) {
  static Counter& torn_tails =
      MetricRegistry::Default().GetCounter("ss_storage_wal_torn_tail_total");
  torn_tails.Inc();
  SS_LOG(Warning) << "WAL " << path << ": discarding torn/corrupt tail at offset " << offset
                  << " (" << what << ")";
}

}  // namespace

StatusOr<WalWriter> WalWriter::Open(const std::string& path, bool truncate) {
  SS_ASSIGN_OR_RETURN(AppendFile file, AppendFile::Open(path, truncate));
  return WalWriter(std::move(file));
}

StatusOr<WalWriter> WalWriter::RotateAndOpen(const std::string& path) {
  std::string fresh = path + ".new";
  SS_ASSIGN_OR_RETURN(AppendFile file, AppendFile::Open(fresh, /*truncate=*/true));
  SS_RETURN_IF_ERROR(file.Sync());
  SS_RETURN_IF_ERROR(RenameFile(fresh, path));
  SS_RETURN_IF_ERROR(SyncDir(DirName(path)));
  // The fd follows the inode through the rename, so appends land in the new
  // log now living at `path`.
  return WalWriter(std::move(file));
}

namespace {

void PutOp(Writer& payload, std::string_view key, std::optional<std::string_view> value) {
  payload.PutString(key);
  payload.PutU8(value.has_value() ? 1 : 0);
  if (value.has_value()) {
    payload.PutString(*value);
  }
}

void FrameRecord(const std::string& payload, uint32_t flags, std::string* out) {
  Writer header;
  header.PutFixed32(Crc32c(payload));
  header.PutFixed32(static_cast<uint32_t>(payload.size()) | flags);
  out->append(header.data());
  out->append(payload);
}

}  // namespace

void WalWriter::EncodeBatch(const WriteBatch& batch, std::string* out) {
  Writer payload;
  if (batch.size() != 1) {
    payload.PutVarint(batch.size());
  }
  for (const WriteBatch::Op& op : batch.ops()) {
    PutOp(payload, op.key,
          op.value ? std::optional<std::string_view>(*op.value) : std::nullopt);
  }
  FrameRecord(payload.data(), batch.size() != 1 ? kBatchBit : 0, out);
}

Status WalWriter::Append(std::string_view key, std::optional<std::string_view> value) {
  Writer payload;
  PutOp(payload, key, value);
  std::string record;
  FrameRecord(payload.data(), 0, &record);
  return AppendRecords(record, 1);
}

Status WalWriter::AppendRecords(std::string_view records, uint64_t ops) {
  static Counter& appends = MetricRegistry::Default().GetCounter("ss_storage_wal_appends_total");
  static Counter& bytes = MetricRegistry::Default().GetCounter("ss_storage_wal_bytes_total");
  appends.Inc(ops);
  bytes.Inc(records.size());
  return file_.Append(records);
}

Status WalWriter::Sync() {
  static Counter& fsyncs = MetricRegistry::Default().GetCounter("ss_storage_wal_fsync_total");
  static LatencyHistogram& fsync_us =
      MetricRegistry::Default().GetHistogram("ss_storage_wal_fsync_us");
  fsyncs.Inc();
  Stopwatch stopwatch;
  Status status = file_.Sync();
  double us = stopwatch.ElapsedMicros();
  fsync_us.Record(us);
  FlightRecorder::Default().Record(FlightEventType::kWalFsync, static_cast<uint64_t>(us),
                                   status.ok() ? 0 : 1);
  return status;
}

StatusOr<uint64_t> WalReplay(const std::string& path, const WalReplayVisitor& visit,
                             bool* torn_tail) {
  if (torn_tail != nullptr) {
    *torn_tail = false;
  }
  if (!FileExists(path)) {
    return uint64_t{0};
  }
  SS_ASSIGN_OR_RETURN(RandomAccessFile file, RandomAccessFile::Open(path));
  SS_ASSIGN_OR_RETURN(uint64_t file_size, file.Size());
  ChunkedLogReader chunks(&file, file_size);
  uint64_t consumed = 0;
  uint64_t recovered = 0;
  while (consumed < file_size) {
    if (file_size - consumed < kRecordHeaderBytes) {
      CountTornTail(path, consumed, "truncated header");
      break;
    }
    std::string_view header;
    SS_RETURN_IF_ERROR(chunks.ReadAt(consumed, kRecordHeaderBytes, &header));
    Reader header_reader(header);
    uint32_t crc = *header_reader.ReadFixed32();
    uint32_t len_field = *header_reader.ReadFixed32();
    const bool batch = (len_field & kBatchBit) != 0;
    const uint32_t len = len_field & ~kBatchBit;
    if (len > file_size - consumed - kRecordHeaderBytes) {
      CountTornTail(path, consumed, "truncated payload");
      break;
    }
    std::string_view payload;
    SS_RETURN_IF_ERROR(chunks.ReadAt(consumed + kRecordHeaderBytes, len, &payload));
    if (Crc32c(payload) != crc) {
      CountTornTail(path, consumed, "checksum mismatch");
      break;
    }
    // Decode every op before visiting any, so a batch applies whole or not
    // at all.
    Reader body(payload);
    uint64_t count = 1;
    if (batch) {
      auto n = body.ReadVarint();
      count = n.ok() && *n <= payload.size() ? *n : 0;  // an op takes >= 2 bytes
    }
    std::vector<std::pair<std::string_view, std::optional<std::string_view>>> ops;
    ops.reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      auto key = body.ReadString();
      if (!key.ok()) {
        break;
      }
      auto has_value = body.ReadU8();
      if (!has_value.ok()) {
        break;
      }
      if (*has_value == 0) {
        ops.emplace_back(*key, std::nullopt);
        continue;
      }
      auto value = body.ReadString();
      if (!value.ok()) {
        break;
      }
      ops.emplace_back(*key, *value);
    }
    if (ops.empty() || ops.size() != count) {
      CountTornTail(path, consumed, "bad record body");
      break;
    }
    for (const auto& [key, value] : ops) {
      visit(key, value);
    }
    recovered += ops.size();
    consumed += kRecordHeaderBytes + len;
  }
  if (torn_tail != nullptr) {
    *torn_tail = consumed < file_size;
  }
  return recovered;
}

}  // namespace ss
