// Log-structured merge KV store: the durable backend (RocksDB stand-in).
//
// Write path:  WAL append -> memtable; memtable overflow flushes to a new
//              SSTable; too many tables triggers a full (size-tiered)
//              compaction into one table, dropping tombstones.
// Read path:   memtable, then SSTables newest-to-oldest, through a shared
//              block LRU cache.
// Recovery:    MANIFEST (magic + version + CRC, atomically replaced and
//              dir-fsynced) lists live tables; orphaned .sst/.tmp files and
//              half-rotated WALs are garbage-collected; the WAL replays into
//              a fresh memtable (flushed immediately if over threshold).
//
// Durability:  every acknowledged write under sync_wal=true survives power
//              loss; under sync_wal=false, every write acknowledged before
//              a Flush() that returned OK does. Flush() is a WAL fsync
//              barrier, not a memtable flush: SSTs are written only when the
//              memtable reaches memtable_bytes, on close, and by an explicit
//              FlushMemtable(). SST creation and MANIFEST renames are
//              followed by parent-directory fsyncs; the WAL restarts via
//              rotate-then-swap (never in-place truncation); a failed WAL
//              append or fsync poisons the store (writes fail fast) rather
//              than letting the log run ahead of the memtable. See
//              DESIGN.md §8.
//
// All public methods are thread-safe behind a single mutex, but writes use a
// leader/follower group commit (DESIGN.md §9): concurrent writers queue their
// batches, the writer at the front of the queue drains the queue into one
// group, releases the mutex, appends the whole group to the WAL with one
// write() and fsyncs it once, then relocks to apply the group to the memtable
// and acknowledge every member. Flush() barriers queue the same way, so
// concurrent flushers and writers share one fsync. The mutex is never held
// across the write or the fsync, so reads proceed while a commit is in
// flight.
#ifndef SUMMARYSTORE_SRC_STORAGE_LSM_STORE_H_
#define SUMMARYSTORE_SRC_STORAGE_LSM_STORE_H_

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "src/storage/kv_backend.h"
#include "src/storage/sstable.h"
#include "src/storage/wal.h"

namespace ss {

struct LsmOptions {
  size_t memtable_bytes = 4 << 20;      // flush threshold
  size_t block_cache_bytes = 32 << 20;  // shared data-block cache
  size_t compaction_trigger = 8;        // full-compact when #tables reaches this
  bool sync_wal = false;                // fsync the WAL on every write
  // Salvage mode: a missing or unreadable SSTable listed in the MANIFEST is
  // skipped with a logged warning instead of failing Open. Data in the
  // skipped table is lost; use only to bring a damaged store back online.
  bool salvage = false;
};

class LsmStore : public KvBackend {
 public:
  static StatusOr<std::unique_ptr<LsmStore>> Open(const std::string& dir,
                                                  const LsmOptions& options = {});
  ~LsmStore() override;

  Status Put(std::string_view key, std::string_view value) override;
  StatusOr<std::string> Get(std::string_view key) override;
  Status Delete(std::string_view key) override;
  Status PutBatch(const WriteBatch& batch) override;
  Status Scan(std::string_view start, std::string_view end, const ScanVisitor& visit) override;
  // Durability barrier (KvBackend::Flush): one synced WAL group commit; no
  // SST is written. Returns at once when the log holds no unsynced record.
  Status Flush() override;
  // Writes the memtable to a new SST (then rotates the WAL, and compacts at
  // compaction_trigger) regardless of its size. For tests and tools that
  // need table files; the serving path never calls it.
  Status FlushMemtable();
  uint64_t ApproximateSizeBytes() const override;
  void DropCaches() override;
  CacheStats GetCacheStats() const override;
  bool Poisoned() const override;

  // Introspection for tests and benches.
  size_t sstable_count() const;
  size_t memtable_entries() const;
  uint64_t cache_hits() const;
  uint64_t cache_misses() const;

 private:
  // One writer waiting in the group-commit queue. Enqueued under mu_ and only
  // touched by its owner (while holding mu_) or by the group leader (which
  // reads `batch` outside mu_ — safe because the owner blocks on `done`, and
  // the enqueue/adopt handoff through mu_ establishes happens-before).
  struct PendingWrite {
    const WriteBatch* batch = nullptr;  // null: a Flush() barrier (sync only)
    Status status;
    bool done = false;
  };

  LsmStore(std::string dir, const LsmOptions& options);

  Status Recover();
  // Queues `self` on write_queue_ and parks until a leader has committed it
  // or it reaches the front and leads the next group itself.
  Status EnqueueAndCommit(PendingWrite* self, std::unique_lock<std::mutex>& lock);
  // The leader path: called by the writer at the front of write_queue_ with
  // mu_ held; commits the whole queued group, acks every member, and returns
  // the caller's (= the group's) status.
  Status CommitGroupLocked(std::unique_lock<std::mutex>& lock);
  // Called at the two poison sites with mu_ held: records the store-poison
  // flight event and best-effort dumps a flight bundle (with the store's
  // state text) to <dir>/debug so the moments before the poison survive.
  void PoisonDumpLocked(const char* reason, uint64_t site);
  std::string StateTextLocked() const;
  Status RotateWalLocked();
  Status FlushMemtableLocked();
  Status CompactLocked();
  Status WriteManifestLocked();
  std::string TablePath(uint32_t file_id) const;

  const std::string dir_;
  const LsmOptions options_;

  mutable std::mutex mu_;
  // nullopt value = tombstone.
  std::map<std::string, std::optional<std::string>, std::less<>> memtable_;
  size_t memtable_bytes_ = 0;
  std::optional<WalWriter> wal_;
  // Set when a WAL append/fsync/rotation fails: the log may be ahead of (or
  // torn relative to) the memtable, so further writes fail fast instead of
  // acknowledging data that might not replay.
  bool wal_poisoned_ = false;
  // True while the current WAL holds acknowledged records no fsync has
  // covered yet; Flush() is a no-op when it is false. Written by the group
  // leader (the only WAL appender) and by rotation, always under mu_.
  bool wal_unsynced_ = false;
  // Group-commit state (DESIGN.md §9). Writers park here in arrival order;
  // the front entry is the leader. True while the leader has dropped mu_ to
  // append/fsync the WAL: code that replaces or rotates the WAL (memtable
  // flush, shutdown) must first wait for it to clear via write_cv_.
  std::deque<PendingWrite*> write_queue_;
  std::condition_variable write_cv_;
  bool commit_in_flight_ = false;
  std::vector<std::shared_ptr<SsTable>> tables_;  // oldest first
  uint32_t next_file_id_ = 1;
  mutable BlockCache block_cache_;
};

}  // namespace ss

#endif  // SUMMARYSTORE_SRC_STORAGE_LSM_STORE_H_
