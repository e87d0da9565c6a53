// Write-ahead log for the LSM store. Each record is
//   [crc32c(payload) : fixed32][payload_len | batch_bit : fixed32][payload]
// where the payload encodes one Put or Delete, or — with the top bit of the
// length word set — a whole multi-op WriteBatch ([varint count][op]*), so
// replay applies a batch entirely or not at all. Replay stops cleanly at the
// first truncated or corrupt record (standard crash semantics: a torn tail
// write loses only the unacknowledged suffix); torn tails are counted in
// ss_storage_wal_torn_tail_total and logged.
#ifndef SUMMARYSTORE_SRC_STORAGE_WAL_H_
#define SUMMARYSTORE_SRC_STORAGE_WAL_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "src/storage/file_util.h"
#include "src/storage/kv_backend.h"

namespace ss {

class WalWriter {
 public:
  // Opens (appending) or creates the log at `path`; `truncate` starts fresh.
  static StatusOr<WalWriter> Open(const std::string& path, bool truncate);

  // Crash-safe log restart: writes an empty `path.new`, fsyncs it, renames
  // it over `path`, and fsyncs the parent directory. The returned writer
  // appends to the new log. Unlike opening with O_TRUNC, the old log's
  // bytes stay intact on disk until the rename commits, so power loss at
  // any point leaves either the full old log or the fresh empty one.
  static StatusOr<WalWriter> RotateAndOpen(const std::string& path);

  // Appends one record; value == nullopt encodes a tombstone.
  Status Append(std::string_view key, std::optional<std::string_view> value);

  // Appends the framed encoding of `batch` to `out` (no I/O): a plain record
  // for a one-op batch, one batch record otherwise. The group-commit leader
  // encodes a whole group this way and logs it with one AppendRecords call,
  // i.e. one write() per group instead of one per record.
  static void EncodeBatch(const WriteBatch& batch, std::string* out);
  // Appends framed bytes from EncodeBatch carrying `ops` operations.
  Status AppendRecords(std::string_view records, uint64_t ops);

  Status Sync();
  uint64_t bytes_written() const { return file_.bytes_written(); }

 private:
  explicit WalWriter(AppendFile file) : file_(std::move(file)) {}

  AppendFile file_;
};

// Replays all intact records in `path`, invoking the visitor in log order.
// The log is streamed in bounded chunks (memory stays O(chunk + one
// record), not O(file)). A missing file is not an error (fresh database).
// Returns the number of records recovered; `torn_tail`, when given, reports
// whether replay stopped before the end of the file (records appended after
// such a tail would never replay).
using WalReplayVisitor =
    std::function<void(std::string_view key, std::optional<std::string_view> value)>;
StatusOr<uint64_t> WalReplay(const std::string& path, const WalReplayVisitor& visit,
                             bool* torn_tail = nullptr);

}  // namespace ss

#endif  // SUMMARYSTORE_SRC_STORAGE_WAL_H_
