// Key-value backend interface for SummaryStore's persistence layer.
//
// The paper uses RocksDB "primarily for its good append performance",
// explicitly noting the choice "is not tied to the architecture" (§6). This
// interface captures exactly what SummaryStore needs from a backend — point
// put/get/delete and ordered range scans — with two implementations:
//   * MemoryBackend — a std::map, for tests and ephemeral stores;
//   * LsmStore      — a log-structured store (WAL + memtable + SSTables with
//                     size-tiered compaction + block cache), the durable
//                     RocksDB stand-in.
#ifndef SUMMARYSTORE_SRC_STORAGE_KV_BACKEND_H_
#define SUMMARYSTORE_SRC_STORAGE_KV_BACKEND_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace ss {

// An ordered list of put/delete operations applied through one PutBatch call.
// Batches exist to amortize per-write costs (WAL fsync, lock round-trips):
// a backend acknowledging a batch promises the same durability it promises
// for the equivalent sequence of individual writes, for the whole batch at
// once. Later operations shadow earlier ones on the same key, exactly as if
// they had been issued back to back.
class WriteBatch {
 public:
  // nullopt value = tombstone.
  struct Op {
    std::string key;
    std::optional<std::string> value;
  };

  void Put(std::string_view key, std::string_view value) {
    bytes_ += key.size() + value.size();
    ops_.push_back(Op{std::string(key), std::string(value)});
  }
  void Delete(std::string_view key) {
    bytes_ += key.size();
    ops_.push_back(Op{std::string(key), std::nullopt});
  }

  const std::vector<Op>& ops() const { return ops_; }
  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }
  // Payload bytes (keys + values), for batch-size tuning by callers.
  size_t ApproximateBytes() const { return bytes_; }
  void Clear() {
    ops_.clear();
    bytes_ = 0;
  }

 private:
  std::vector<Op> ops_;
  size_t bytes_ = 0;
};

class KvBackend {
 public:
  virtual ~KvBackend() = default;

  virtual Status Put(std::string_view key, std::string_view value) = 0;
  virtual StatusOr<std::string> Get(std::string_view key) = 0;
  virtual Status Delete(std::string_view key) = 0;

  // True once the backend has entered a fail-fast state (e.g. a poisoned
  // WAL) where writes are rejected until the store is reopened. Health
  // probes surface this so clients can fail over before hitting errors.
  virtual bool Poisoned() const { return false; }

  // Applies every operation in `batch`, in order. The default implementation
  // degrades to one write per op; backends with a write-ahead log override
  // this to log and fsync the group once. On error the batch may have been
  // partially applied (callers treat the whole batch as indeterminate, the
  // same contract a failed Put has). LsmStore logs a multi-op batch as one
  // WAL record, so crash recovery replays it whole or not at all.
  virtual Status PutBatch(const WriteBatch& batch) {
    for (const WriteBatch::Op& op : batch.ops()) {
      if (op.value.has_value()) {
        SS_RETURN_IF_ERROR(Put(op.key, *op.value));
      } else {
        SS_RETURN_IF_ERROR(Delete(op.key));
      }
    }
    return Status::Ok();
  }

  // Visits all live entries with start <= key < end in ascending key order;
  // stops early if the visitor returns false.
  using ScanVisitor = std::function<bool(std::string_view key, std::string_view value)>;
  virtual Status Scan(std::string_view start, std::string_view end, const ScanVisitor& visit) = 0;

  // Durability barrier: after Flush returns OK, all prior writes survive
  // reopen, including one after a crash or power loss. LsmStore covers them
  // with one synced WAL group commit (concurrent Flush calls and writers
  // share the fsync) and writes no table file. No-op for ephemeral backends.
  virtual Status Flush() = 0;

  // Approximate bytes of live data (logical, pre-compression).
  virtual uint64_t ApproximateSizeBytes() const = 0;

  // Empties internal read caches so subsequent reads hit storage — used by
  // the cold-cache latency benchmarks (§7.2.1 drops all caches per query).
  virtual void DropCaches() {}

  // Cumulative read-cache effectiveness (block cache for the LSM store).
  // Backends without a cache report zeros; per-query deltas of these counts
  // feed QueryTrace's block-cache accounting.
  struct CacheStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  virtual CacheStats GetCacheStats() const { return {}; }
};

}  // namespace ss

#endif  // SUMMARYSTORE_SRC_STORAGE_KV_BACKEND_H_
