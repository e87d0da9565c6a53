#include "src/storage/lsm_store.h"

#include <algorithm>
#include <cstdlib>
#include <queue>
#include <set>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"

namespace ss {

namespace {

constexpr char kManifestName[] = "MANIFEST";
constexpr char kWalName[] = "wal.log";

// MANIFEST format v1: [fixed32 magic "MSSF"][body][fixed32 crc32c(body)],
// body = [u8 version][varint table_count][varint file_id]*. The legacy
// format (bare varint count + ids) is still read for pre-existing dirs.
constexpr uint32_t kManifestMagic = 0x4653534d;  // "MSSF" little-endian
constexpr uint8_t kManifestVersion = 1;

StatusOr<std::vector<uint32_t>> ParseManifest(const std::string& contents) {
  std::vector<uint32_t> ids;
  bool new_format = false;
  if (contents.size() >= 4) {
    Reader probe(contents);
    auto magic = probe.ReadFixed32();
    new_format = magic.ok() && *magic == kManifestMagic;
  }
  std::string_view body = contents;
  if (new_format) {
    if (contents.size() < 4 + 1 + 4) {
      return Status::Corruption("manifest truncated");
    }
    body = std::string_view(contents).substr(4, contents.size() - 8);
    Reader crc_reader(std::string_view(contents).substr(contents.size() - 4));
    uint32_t stored_crc = *crc_reader.ReadFixed32();
    if (Crc32c(body) != stored_crc) {
      return Status::Corruption("manifest checksum mismatch");
    }
  }
  Reader reader(body);
  if (new_format) {
    SS_ASSIGN_OR_RETURN(uint8_t version, reader.ReadU8());
    if (version > kManifestVersion) {
      return Status::Corruption("unsupported manifest version " + std::to_string(version));
    }
  }
  SS_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
  for (uint64_t i = 0; i < count; ++i) {
    SS_ASSIGN_OR_RETURN(uint64_t file_id, reader.ReadVarint());
    ids.push_back(static_cast<uint32_t>(file_id));
  }
  return ids;
}

// file_id of a "<digits>.sst" directory entry, or nullopt for anything else.
std::optional<uint32_t> SstFileId(const std::string& name) {
  if (name.size() <= 4 || name.substr(name.size() - 4) != ".sst") {
    return std::nullopt;
  }
  std::string stem = name.substr(0, name.size() - 4);
  if (stem.empty() || stem.find_first_not_of("0123456789") != std::string::npos) {
    return std::nullopt;
  }
  return static_cast<uint32_t>(std::strtoul(stem.c_str(), nullptr, 10));
}

}  // namespace

LsmStore::LsmStore(std::string dir, const LsmOptions& options)
    : dir_(std::move(dir)), options_(options), block_cache_(options.block_cache_bytes) {}

LsmStore::~LsmStore() {
  // Make a best effort to persist the memtable so short-lived stores survive
  // reopen even without an explicit Flush(); WAL replay would recover it
  // anyway. Destroying the store while writers are still calling into it is
  // a caller bug, but an in-flight group commit from a writer that has
  // already been acknowledged cannot happen (the leader acks only after
  // reacquiring mu_), so waiting for the flag is enough to keep the WAL
  // rotation in FlushMemtableLocked exclusive.
  std::unique_lock<std::mutex> lock(mu_);
  write_cv_.wait(lock, [this] { return !commit_in_flight_; });
  if (!memtable_.empty() && !wal_poisoned_) {
    Status s = FlushMemtableLocked();
    if (!s.ok()) {
      SS_LOG(Warning) << "LsmStore shutdown flush failed: " << s;
    }
  }
}

StatusOr<std::unique_ptr<LsmStore>> LsmStore::Open(const std::string& dir,
                                                   const LsmOptions& options) {
  SS_RETURN_IF_ERROR(CreateDirIfMissing(dir));
  std::unique_ptr<LsmStore> store(new LsmStore(dir, options));
  SS_RETURN_IF_ERROR(store->Recover());
  return store;
}

std::string LsmStore::TablePath(uint32_t file_id) const {
  return dir_ + "/" + std::to_string(file_id) + ".sst";
}

Status LsmStore::Recover() {
  static Counter& orphan_gc =
      MetricRegistry::Default().GetCounter("ss_storage_orphan_gc_total");
  static Counter& salvage_skipped =
      MetricRegistry::Default().GetCounter("ss_storage_salvage_skipped_tables_total");
  static Counter& recovery_flush =
      MetricRegistry::Default().GetCounter("ss_storage_recovery_flush_total");
  std::lock_guard<std::mutex> lock(mu_);
  std::string manifest_path = dir_ + "/" + kManifestName;
  std::vector<uint32_t> live_ids;
  if (FileExists(manifest_path)) {
    SS_ASSIGN_OR_RETURN(std::string manifest, ReadFileToString(manifest_path));
    SS_ASSIGN_OR_RETURN(live_ids, ParseManifest(manifest));
  }
  std::set<uint32_t> live(live_ids.begin(), live_ids.end());
  for (uint32_t file_id : live_ids) {
    next_file_id_ = std::max(next_file_id_, file_id + 1);
    auto table = SsTable::Open(TablePath(file_id), file_id);
    if (!table.ok()) {
      if (!options_.salvage) {
        return table.status();
      }
      salvage_skipped.Inc();
      // Keep the damaged file on disk for forensics; it stays GC-protected
      // until the next manifest rewrite drops it from the live set.
      SS_LOG(Warning) << "LsmStore salvage: skipping unreadable table " << TablePath(file_id)
                      << ": " << table.status();
      continue;
    }
    tables_.push_back(std::move(table).value());
  }
  // Scan the directory: garbage-collect .sst files a crash orphaned before
  // they reached the MANIFEST, stray atomic-write temps, and half-finished
  // WAL rotations. Advance next_file_id_ past every id ever seen on disk so
  // a new table can never collide with (and silently shadow) a leftover.
  SS_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir_));
  for (const std::string& name : names) {
    if (std::optional<uint32_t> file_id = SstFileId(name)) {
      next_file_id_ = std::max(next_file_id_, *file_id + 1);
      if (live.find(*file_id) == live.end()) {
        SS_RETURN_IF_ERROR(RemoveFileIfExists(dir_ + "/" + name));
        orphan_gc.Inc();
        SS_LOG(Warning) << "LsmStore recovery: removed orphaned table " << name;
      }
    } else if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
      SS_RETURN_IF_ERROR(RemoveFileIfExists(dir_ + "/" + name));
      orphan_gc.Inc();
    } else if (name == std::string(kWalName) + ".new") {
      SS_RETURN_IF_ERROR(RemoveFileIfExists(dir_ + "/" + name));
      orphan_gc.Inc();
    }
  }
  // Replay the WAL into the memtable, then keep appending to the same log.
  std::string wal_path = dir_ + "/" + kWalName;
  bool torn_tail = false;
  SS_ASSIGN_OR_RETURN(uint64_t recovered,
                      WalReplay(
                          wal_path,
                          [this](std::string_view key, std::optional<std::string_view> value) {
                            memtable_bytes_ += key.size() + (value ? value->size() : 0) + 32;
                            if (value.has_value()) {
                              memtable_.insert_or_assign(std::string(key), std::string(*value));
                            } else {
                              memtable_.insert_or_assign(std::string(key), std::nullopt);
                            }
                          },
                          &torn_tail));
  if (recovered > 0) {
    SS_LOG(Debug) << "LsmStore recovered " << recovered << " WAL records";
  }
  // A process crash (no power loss) leaves log bytes the kernel never wrote
  // back; they replayed fine, but only the next Flush() makes them durable.
  wal_unsynced_ = recovered > 0;
  if (torn_tail) {
    // Records appended after a torn tail would never replay (replay stops at
    // the first bad record): persist what replayed and restart the log.
    recovery_flush.Inc();
    SS_RETURN_IF_ERROR(memtable_.empty() ? RotateWalLocked() : FlushMemtableLocked());
  } else if (memtable_bytes_ >= options_.memtable_bytes && !memtable_.empty()) {
    // A replayed memtable already over threshold would otherwise sit
    // unflushed until the next write; flush now (this also rotates the WAL
    // and leaves wal_ open on the fresh log).
    recovery_flush.Inc();
    SS_RETURN_IF_ERROR(FlushMemtableLocked());
  } else {
    SS_ASSIGN_OR_RETURN(wal_, WalWriter::Open(wal_path, /*truncate=*/false));
    // Open may have just created the log: persist its directory entry, or a
    // power loss could drop the whole file along with fsynced records in it.
    SS_RETURN_IF_ERROR(SyncDir(dir_));
  }
  return Status::Ok();
}

Status LsmStore::PutBatch(const WriteBatch& batch) {
  if (batch.empty()) {
    return Status::Ok();
  }
  PendingWrite self;
  self.batch = &batch;
  std::unique_lock<std::mutex> lock(mu_);
  return EnqueueAndCommit(&self, lock);
}

Status LsmStore::EnqueueAndCommit(PendingWrite* self, std::unique_lock<std::mutex>& lock) {
  static LatencyHistogram& follower_wait_us = MetricRegistry::Default().GetHistogram(
      "ss_storage_group_commit_wait_us", "role=\"follower\"");
  static LatencyHistogram& leader_wait_us = MetricRegistry::Default().GetHistogram(
      "ss_storage_group_commit_wait_us", "role=\"leader\"");
  write_queue_.push_back(self);
  bool waited = write_queue_.front() != self;
  Stopwatch wait;
  // Park until a leader commits us, or we reach the front of the queue and
  // become the leader ourselves. Group members stay in the queue until their
  // commit completes, so "front of queue" alone means no commit is running.
  write_cv_.wait(lock, [this, self] { return self->done || write_queue_.front() == self; });
  if (self->done) {
    double us = wait.ElapsedMicros();
    follower_wait_us.Record(us);
    FlightRecorder::Default().Record(FlightEventType::kGroupCommitFollow,
                                     static_cast<uint64_t>(us));
    return self->status;
  }
  if (waited) {
    // Queued behind an in-flight commit, then promoted to lead the next group.
    leader_wait_us.Record(wait.ElapsedMicros());
  }
  return CommitGroupLocked(lock);
}

Status LsmStore::Put(std::string_view key, std::string_view value) {
  WriteBatch batch;
  batch.Put(key, value);
  return PutBatch(batch);
}

Status LsmStore::Delete(std::string_view key) {
  WriteBatch batch;
  batch.Delete(key);
  return PutBatch(batch);
}

Status LsmStore::CommitGroupLocked(std::unique_lock<std::mutex>& lock) {
  static Counter& poison_total =
      MetricRegistry::Default().GetCounter("ss_storage_wal_poison_total");
  static Counter& group_commits =
      MetricRegistry::Default().GetCounter("ss_storage_group_commit_total");
  static LatencyHistogram& group_size =
      MetricRegistry::Default().GetHistogram("ss_storage_group_commit_size");
  static LatencyHistogram& apply_us =
      MetricRegistry::Default().GetHistogram("ss_storage_batch_apply_us");
  static LatencyHistogram& wal_append_phase_us = MetricRegistry::Default().GetHistogram(
      "ss_storage_write_phase_us", "phase=\"wal_append\"");
  static LatencyHistogram& wal_fsync_phase_us = MetricRegistry::Default().GetHistogram(
      "ss_storage_write_phase_us", "phase=\"wal_fsync\"");
  static LatencyHistogram& apply_phase_us = MetricRegistry::Default().GetHistogram(
      "ss_storage_write_phase_us", "phase=\"memtable_apply\"");
  // Adopt every writer queued so far as one commit group. Writers arriving
  // after this point stay queued behind us and form the next group.
  std::vector<PendingWrite*> group(write_queue_.begin(), write_queue_.end());
  Status log_status;
  size_t records = 0;
  if (wal_poisoned_) {
    log_status = Status::IoError("LsmStore: WAL poisoned by an earlier write failure");
  } else {
    // A Flush() barrier in the group asks for the fsync that sync_wal asks
    // for on every commit; either way it is skipped when nothing would be
    // covered by it.
    bool sync = options_.sync_wal;
    for (PendingWrite* writer : group) {
      if (writer->batch == nullptr) {
        sync = true;
      } else {
        records += writer->batch->size();
      }
    }
    sync = sync && (records > 0 || wal_unsynced_);
    if (records > 0 || sync) {
      // Log the whole group with mu_ released: one write(), at most one
      // fsync. Exclusive WAL access without the lock is guaranteed by queue
      // position (only the front writer commits) plus commit_in_flight_,
      // which blocks WAL rotation until we reacquire mu_. Readers proceed
      // during the encode, the write and the fsync.
      commit_in_flight_ = true;
      lock.unlock();
      if (records > 0) {
        Stopwatch append_phase;
        std::string encoded;
        for (PendingWrite* writer : group) {
          if (writer->batch != nullptr) {
            WalWriter::EncodeBatch(*writer->batch, &encoded);
          }
        }
        log_status = wal_->AppendRecords(encoded, records);
        wal_append_phase_us.Record(append_phase.ElapsedMicros());
        FlightRecorder::Default().Record(FlightEventType::kWalAppend, records);
      }
      if (log_status.ok() && sync) {
        Stopwatch fsync_phase;
        log_status = wal_->Sync();
        wal_fsync_phase_us.Record(fsync_phase.ElapsedMicros());
      }
      lock.lock();
      commit_in_flight_ = false;
      if (log_status.ok()) {
        // The leader is the only appender, so a successful fsync covers every
        // record the log has ever received.
        wal_unsynced_ = !sync && (wal_unsynced_ || records > 0);
      }
    }
    group_commits.Inc();
    group_size.Record(records);
    FlightRecorder::Default().Record(FlightEventType::kGroupCommitLead, group.size(), records);
  }
  if (!log_status.ok()) {
    // A failed append may have left a torn record; a failed fsync leaves
    // records on disk while their writers are told they failed. Either way
    // the log can no longer be trusted to match what we acknowledged, so
    // poison it: the whole group fails, and every subsequent write fails
    // fast instead of acknowledging data that might replay inconsistently.
    if (!wal_poisoned_) {
      wal_poisoned_ = true;
      poison_total.Inc();
      SS_LOG(Warning) << "LsmStore: WAL write failed, store is now read-only: " << log_status;
      PoisonDumpLocked("wal-commit-poison", 0);
    }
  } else {
    // Apply to the memtable only after the full log step succeeded, in queue
    // order so later writes to the same key shadow earlier ones.
    Stopwatch apply_phase;
    ScopedTimer apply_timer(apply_us);
    for (PendingWrite* writer : group) {
      if (writer->batch == nullptr) {
        continue;
      }
      for (const WriteBatch::Op& op : writer->batch->ops()) {
        memtable_bytes_ += op.key.size() + (op.value ? op.value->size() : 0) + 32;
        memtable_.insert_or_assign(op.key, op.value);
      }
    }
    apply_phase_us.Record(apply_phase.ElapsedMicros());
    FlightRecorder::Default().Record(FlightEventType::kMemtableApply, records);
  }
  // Acknowledge the group (we are its first member) and hand leadership to
  // the next queued writer, if any.
  for (PendingWrite* writer : group) {
    write_queue_.pop_front();
    writer->status = log_status;
    writer->done = true;
  }
  Status result = log_status;
  if (log_status.ok() && memtable_bytes_ >= options_.memtable_bytes) {
    // Only the leader flushes; group members were already acknowledged (their
    // data is durable in the WAL), so a flush failure surfaces on the leader.
    Status flush_status = FlushMemtableLocked();
    if (!flush_status.ok()) {
      result = flush_status;
    }
#if defined(__GLIBC__)
    // The memtable now lives until it reaches memtable_bytes, and its freed
    // strings stay parked in glibc's per-thread arenas; hand the free pages
    // back so resident memory tracks live data (ssbench mixed: peak RSS
    // 75-80 MiB without this, 59 MiB with it).
    malloc_trim(0);
#endif
  }
  write_cv_.notify_all();
  return result;
}

StatusOr<std::string> LsmStore::Get(std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = memtable_.find(key);
  if (it != memtable_.end()) {
    if (!it->second.has_value()) {
      return Status::NotFound("deleted");
    }
    return *it->second;
  }
  for (auto table = tables_.rbegin(); table != tables_.rend(); ++table) {
    auto result = (*table)->Get(key, &block_cache_);
    if (result.ok()) {
      if (result->tombstone) {
        return Status::NotFound("deleted");
      }
      return std::move(result->value);
    }
    if (result.status().code() != StatusCode::kNotFound) {
      return result.status();
    }
  }
  return Status::NotFound("key not present");
}

Status LsmStore::Scan(std::string_view start, std::string_view end, const ScanVisitor& visit) {
  std::lock_guard<std::mutex> lock(mu_);
  // K-way merge across the memtable and all tables; on duplicate keys the
  // newest source wins (memtable first, then tables in reverse age order).
  std::vector<std::unique_ptr<SsTable::Iterator>> iters;
  iters.reserve(tables_.size());
  for (const auto& table : tables_) {
    auto iter = std::make_unique<SsTable::Iterator>(table.get(), &block_cache_);
    SS_RETURN_IF_ERROR(iter->Seek(start));
    iters.push_back(std::move(iter));
  }
  auto mem_it = memtable_.lower_bound(start);

  auto in_range = [&end](std::string_view key) { return end.empty() || key < end; };

  std::string last_emitted;
  bool emitted_any = false;
  while (true) {
    // Find the smallest current key across all cursors; prefer the newest
    // source on ties.
    std::string_view best_key;
    int best_source = -1;  // -2 = memtable, >=0 = table index (older = smaller)
    bool have = false;
    if (mem_it != memtable_.end() && in_range(mem_it->first)) {
      best_key = mem_it->first;
      best_source = -2;
      have = true;
    }
    for (size_t i = 0; i < iters.size(); ++i) {
      if (!iters[i]->Valid()) {
        continue;
      }
      std::string_view key = iters[i]->entry().key;
      if (!in_range(key)) {
        continue;
      }
      // Memtable and newer tables shadow this entry on equal keys, and newer
      // tables appear later in iters; ">= best" on later entries would pick
      // older duplicates, so use strict "<".
      if (!have || key < best_key) {
        best_key = key;
        best_source = static_cast<int>(i);
        have = true;
      }
    }
    if (!have) {
      break;
    }

    std::string key(best_key);
    bool tombstone;
    std::string value;
    if (best_source == -2) {
      tombstone = !mem_it->second.has_value();
      if (!tombstone) {
        value = *mem_it->second;
      }
    } else {
      // Among tables with this same key, the newest (largest index) wins —
      // but the memtable still outranks all of them (handled above because
      // the memtable cursor was preferred on ties via best_source order).
      int winner = best_source;
      for (size_t i = static_cast<size_t>(best_source) + 1; i < iters.size(); ++i) {
        if (iters[i]->Valid() && iters[i]->entry().key == key) {
          winner = static_cast<int>(i);
        }
      }
      tombstone = iters[static_cast<size_t>(winner)]->entry().tombstone;
      value = iters[static_cast<size_t>(winner)]->entry().value;
    }

    bool keep_going = true;
    if (!tombstone && (!emitted_any || key != last_emitted)) {
      keep_going = visit(key, value);
      last_emitted = key;
      emitted_any = true;
    }

    // Advance every cursor positioned at `key`.
    if (mem_it != memtable_.end() && mem_it->first == key) {
      ++mem_it;
    }
    for (auto& iter : iters) {
      while (iter->Valid() && iter->entry().key == key) {
        SS_RETURN_IF_ERROR(iter->Next());
      }
    }
    if (!keep_going) {
      break;
    }
  }
  return Status::Ok();
}

Status LsmStore::RotateWalLocked() {
  static Counter& poison_total =
      MetricRegistry::Default().GetCounter("ss_storage_wal_poison_total");
  FlightRecorder::Default().Record(FlightEventType::kWalRotate);
  auto rotated = WalWriter::RotateAndOpen(dir_ + "/" + kWalName);
  if (!rotated.ok()) {
    // The rename may have committed before a later step failed, in which
    // case the old writer's fd points at an unlinked inode and its appends
    // would silently vanish. Poison rather than guess.
    wal_poisoned_ = true;
    poison_total.Inc();
    SS_LOG(Warning) << "LsmStore: WAL rotation failed, store is now read-only: "
                    << rotated.status();
    PoisonDumpLocked("wal-rotate-poison", 1);
    return rotated.status();
  }
  wal_ = std::move(rotated).value();
  wal_unsynced_ = false;  // every record of the old log is in a table now
  return Status::Ok();
}

std::string LsmStore::StateTextLocked() const {
  std::string state;
  state += "dir=" + dir_ + "\n";
  state += "wal=" + dir_ + "/" + kWalName + (wal_poisoned_ ? " (poisoned)\n" : "\n");
  state += "memtable_entries=" + std::to_string(memtable_.size()) +
           " memtable_bytes=" + std::to_string(memtable_bytes_) + "\n";
  state += "next_file_id=" + std::to_string(next_file_id_) + "\n";
  state += "tables=";
  for (size_t i = 0; i < tables_.size(); ++i) {
    state += (i == 0 ? "" : ",") + std::to_string(tables_[i]->file_id());
  }
  state += "\n";
  state += "write_queue_depth=" + std::to_string(write_queue_.size()) + "\n";
  return state;
}

void LsmStore::PoisonDumpLocked(const char* reason, uint64_t site) {
  FlightRecorder::Default().Record(FlightEventType::kStorePoison, site);
  auto path = FlightRecorder::Default().Dump(dir_ + "/debug", reason, StateTextLocked());
  if (path.ok()) {
    SS_LOG(Warning) << "LsmStore: flight bundle dumped to " << *path;
  } else {
    SS_LOG(Warning) << "LsmStore: flight dump failed: " << path.status();
  }
}

Status LsmStore::FlushMemtableLocked() {
  if (memtable_.empty()) {
    return Status::Ok();
  }
  static Counter& flush_total =
      MetricRegistry::Default().GetCounter("ss_storage_memtable_flush_total");
  static LatencyHistogram& flush_us =
      MetricRegistry::Default().GetHistogram("ss_storage_memtable_flush_us");
  flush_total.Inc();
  ScopedTimer timer(flush_us);
  FlightRecorder::Default().Record(FlightEventType::kMemtableFlush, memtable_.size(),
                                   next_file_id_);
  // Write ordering (each step durable before the next): (0) the WAL's
  // unsynced tail, (1) SST data + fsync, (2) directory entry, (3) MANIFEST
  // referencing it (atomic replace + dir fsync inside WriteManifestLocked),
  // (4) WAL restart via rotate-then-swap. A crash between any two steps
  // leaves either the old manifest + full WAL, or the new manifest + a WAL
  // whose replay is idempotent over the new table. Step 0 is what makes the
  // "full WAL" true: a rotation rolled back by power loss restores the old
  // log's synced bytes only, and replaying a stale prefix of it over the
  // newer table would regress every key the prefix touches.
  if (wal_unsynced_ && wal_.has_value()) {
    if (Status synced = wal_->Sync(); !synced.ok()) {
      // Same rule as a failed commit fsync: the log can no longer be trusted.
      static Counter& poison_total =
          MetricRegistry::Default().GetCounter("ss_storage_wal_poison_total");
      wal_poisoned_ = true;
      poison_total.Inc();
      SS_LOG(Warning) << "LsmStore: WAL sync before memtable flush failed, store is now "
                         "read-only: "
                      << synced;
      PoisonDumpLocked("wal-sync-poison", 2);
      return synced;
    }
    wal_unsynced_ = false;
  }
  uint32_t file_id = next_file_id_++;
  SS_ASSIGN_OR_RETURN(SstBuilder builder, SstBuilder::Create(TablePath(file_id)));
  for (const auto& [key, value] : memtable_) {
    SS_RETURN_IF_ERROR(builder.Add(key, !value.has_value(), value ? *value : std::string_view()));
  }
  SS_RETURN_IF_ERROR(builder.Finish().status());
  SS_RETURN_IF_ERROR(SyncDir(dir_));
  SS_ASSIGN_OR_RETURN(std::shared_ptr<SsTable> table, SsTable::Open(TablePath(file_id), file_id));
  tables_.push_back(std::move(table));
  SS_RETURN_IF_ERROR(WriteManifestLocked());
  memtable_.clear();
  memtable_bytes_ = 0;
  // The memtable is durable in the table now; restart the WAL.
  SS_RETURN_IF_ERROR(RotateWalLocked());
  if (tables_.size() >= options_.compaction_trigger) {
    SS_RETURN_IF_ERROR(CompactLocked());
  }
  return Status::Ok();
}

Status LsmStore::CompactLocked() {
  if (tables_.size() <= 1) {
    return Status::Ok();
  }
  static Counter& compaction_total =
      MetricRegistry::Default().GetCounter("ss_storage_compaction_total");
  static LatencyHistogram& compaction_us =
      MetricRegistry::Default().GetHistogram("ss_storage_compaction_us");
  compaction_total.Inc();
  ScopedTimer timer(compaction_us);
  FlightRecorder::Default().Record(FlightEventType::kCompaction, tables_.size(), next_file_id_);
  uint32_t file_id = next_file_id_++;
  SS_ASSIGN_OR_RETURN(SstBuilder builder, SstBuilder::Create(TablePath(file_id)));

  // Merge all tables, newest wins, tombstones dropped (full compaction).
  std::vector<std::unique_ptr<SsTable::Iterator>> iters;
  for (const auto& table : tables_) {
    auto iter = std::make_unique<SsTable::Iterator>(table.get(), &block_cache_);
    SS_RETURN_IF_ERROR(iter->Seek(""));
    iters.push_back(std::move(iter));
  }
  while (true) {
    std::string_view best_key;
    bool have = false;
    for (const auto& iter : iters) {
      if (iter->Valid() && (!have || iter->entry().key < best_key)) {
        best_key = iter->entry().key;
        have = true;
      }
    }
    if (!have) {
      break;
    }
    std::string key(best_key);
    bool tombstone = false;
    std::string value;
    for (const auto& iter : iters) {  // last (newest) match wins
      if (iter->Valid() && iter->entry().key == key) {
        tombstone = iter->entry().tombstone;
        value = iter->entry().value;
      }
    }
    if (!tombstone) {
      SS_RETURN_IF_ERROR(builder.Add(key, false, value));
    }
    for (auto& iter : iters) {
      while (iter->Valid() && iter->entry().key == key) {
        SS_RETURN_IF_ERROR(iter->Next());
      }
    }
  }
  SS_RETURN_IF_ERROR(builder.Finish().status());
  SS_RETURN_IF_ERROR(SyncDir(dir_));

  std::vector<std::shared_ptr<SsTable>> old_tables = std::move(tables_);
  tables_.clear();
  SS_ASSIGN_OR_RETURN(std::shared_ptr<SsTable> merged, SsTable::Open(TablePath(file_id), file_id));
  tables_.push_back(std::move(merged));
  SS_RETURN_IF_ERROR(WriteManifestLocked());
  block_cache_.Clear();  // old file blocks are dead
  for (const auto& table : old_tables) {
    SS_RETURN_IF_ERROR(RemoveFileIfExists(table->path()));
  }
  return Status::Ok();
}

Status LsmStore::WriteManifestLocked() {
  Writer body;
  body.PutU8(kManifestVersion);
  body.PutVarint(tables_.size());
  for (const auto& table : tables_) {
    body.PutVarint(table->file_id());
  }
  Writer manifest;
  manifest.PutFixed32(kManifestMagic);
  manifest.PutRaw(body.data().data(), body.size());
  manifest.PutFixed32(Crc32c(body.data()));
  return WriteFileAtomic(dir_ + "/" + kManifestName, manifest.data(), /*sync_dir=*/true);
}

Status LsmStore::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  if (wal_poisoned_) {
    return Status::IoError("LsmStore: WAL poisoned by an earlier write failure");
  }
  // Every acknowledged write is either in a table or in the current log, and
  // the leader updates wal_unsynced_ before acknowledging: when it is clear,
  // there is nothing for a barrier to cover.
  if (!wal_unsynced_) {
    return Status::Ok();
  }
  PendingWrite barrier;  // null batch: sync only
  return EnqueueAndCommit(&barrier, lock);
}

Status LsmStore::FlushMemtable() {
  std::unique_lock<std::mutex> lock(mu_);
  // FlushMemtableLocked rotates the WAL; wait until no leader is appending
  // to it outside the lock. Queued-but-uncommitted writers are fine: they
  // have not touched the log yet and will append to the rotated one.
  write_cv_.wait(lock, [this] { return !commit_in_flight_; });
  if (wal_poisoned_) {
    return Status::IoError("LsmStore: WAL poisoned by an earlier write failure");
  }
  return FlushMemtableLocked();
}

uint64_t LsmStore::ApproximateSizeBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t bytes = memtable_bytes_;
  for (const auto& table : tables_) {
    bytes += table->file_size();
  }
  return bytes;
}

void LsmStore::DropCaches() {
  std::lock_guard<std::mutex> lock(mu_);
  block_cache_.Clear();
}

size_t LsmStore::sstable_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.size();
}

size_t LsmStore::memtable_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return memtable_.size();
}

uint64_t LsmStore::cache_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return block_cache_.hits();
}

uint64_t LsmStore::cache_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return block_cache_.misses();
}

KvBackend::CacheStats LsmStore::GetCacheStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {block_cache_.hits(), block_cache_.misses()};
}

bool LsmStore::Poisoned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_poisoned_;
}

}  // namespace ss
