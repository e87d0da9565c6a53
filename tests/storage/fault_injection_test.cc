// Crash-matrix harness: run a write/flush/compact workload under FaultFs,
// kill the store at every mutating-syscall boundary in turn, apply simulated
// power loss, reopen, and assert that
//   - every acknowledged write (sync_wal=true) survives with its exact value,
//   - writes never attempted are absent,
//   - orphaned .sst/.tmp files and half-rotated WALs are collected,
// for every single crash point. A second matrix does the same for the
// durable-ack contract on a sync_wal=false SummaryStore: every append made
// before a Flush() that returned OK survives a crash at any step of that
// Flush (stream WAL appends, the fsync, the return that would send the ack).
// Also covers the transient-error paths: a failed WAL fsync must poison the
// store instead of letting the log run ahead of the memtable.
//
// The default workload keeps the matrix small enough for tier-1; setting
// SS_FAULT_INJECT=1 (the CI fault leg) enlarges it.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>

#include "src/common/logging.h"
#include "src/core/summary_store.h"
#include "src/storage/fault_fs.h"
#include "src/storage/lsm_store.h"

namespace ss {
namespace {

using Model = std::map<std::string, std::optional<std::string>>;

// Simulates a hard kill of a store running on `fs`: the file system crashes
// at its next mutating op, so destroying the store afterwards persists
// nothing (no close-time memtable flush) and leaks nothing.
void HardKill(FaultFs& fs) {
  if (!fs.crashed()) {
    fs.CrashAtOpIndex(fs.mutating_op_count() + 1);
  }
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ss_faultinj_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
    ASSERT_TRUE(CreateDirIfMissing(dir_).ok());
    // The matrix deliberately provokes hundreds of I/O failures; the
    // resulting warnings would drown the test output.
    saved_log_level_ = MinLogLevel();
    MinLogLevel() = LogLevel::kError;
  }
  void TearDown() override {
    SetFileOpsForTest(nullptr);
    MinLogLevel() = saved_log_level_;
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }

  static LsmOptions MatrixOptions() {
    LsmOptions options;
    options.memtable_bytes = 512;    // frequent flushes
    options.compaction_trigger = 3;  // frequent compactions
    options.sync_wal = true;         // every acked write is a durability promise
    return options;
  }

  static std::string Key(int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%05d", i);
    return buf;
  }

  static std::string BatchKey(int i, int j) {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "bat%05d_%d", i, j);
    return buf;
  }

  static constexpr int kBatchRecords = 3;

  // Runs the standard workload. Keys that were acknowledged land in `acked`
  // (nullopt = acknowledged tombstone); the in-flight op at the crash, whose
  // fate is legitimately indeterminate, lands in `indeterminate` — for a
  // batch op, every record in the batch (a crash at a group boundary may
  // replay any prefix of it; each record must be exact-or-absent). Stops at
  // the first failure (the store poisons itself). Returns the number of ops
  // attempted.
  static int RunWorkload(const std::string& dir, int num_ops, Model* acked,
                         Model* indeterminate) {
    auto store = LsmStore::Open(dir, MatrixOptions());
    if (!store.ok()) {
      return 0;  // crash hit during open; nothing was acknowledged
    }
    for (int i = 0; i < num_ops; ++i) {
      if (i % 5 == 4) {
        // Multi-record group: puts plus (past the first few) a tombstone for
        // an earlier batch key, acknowledged as one unit.
        std::string value = "batch-" + std::to_string(i) + "-" + std::string(30, 'b');
        WriteBatch batch;
        for (int j = 0; j < kBatchRecords; ++j) {
          batch.Put(BatchKey(i, j), value);
        }
        const bool with_delete = i >= 10;
        if (with_delete) {
          batch.Delete(BatchKey(i - 5, 0));
        }
        Status s = (*store)->PutBatch(batch);
        if (!s.ok()) {
          for (int j = 0; j < kBatchRecords; ++j) {
            (*indeterminate)[BatchKey(i, j)] = value;
          }
          if (with_delete) {
            (*indeterminate)[BatchKey(i - 5, 0)] = std::nullopt;
          }
          return i + 1;
        }
        for (int j = 0; j < kBatchRecords; ++j) {
          (*acked)[BatchKey(i, j)] = value;
        }
        if (with_delete) {
          (*acked)[BatchKey(i - 5, 0)] = std::nullopt;
        }
      } else if (i % 7 == 6) {
        std::string victim = Key(i - 3);
        Status s = (*store)->Delete(victim);
        if (!s.ok()) {
          (*indeterminate)[victim] = std::nullopt;
          return i + 1;
        }
        (*acked)[victim] = std::nullopt;
      } else {
        std::string key = Key(i);
        std::string value = "value-" + std::to_string(i) + "-" + std::string(40, 'v');
        Status s = (*store)->Put(key, value);
        if (!s.ok()) {
          (*indeterminate)[key] = value;
          return i + 1;
        }
        (*acked)[key] = value;
      }
    }
    (void)(*store)->FlushMemtable();
    return num_ops;
  }

  // Reopens `dir` with faults cleared and checks the durability contract.
  // `ops_attempted` is RunWorkload's return value.
  void VerifyAfterReopen(const std::string& dir, int num_ops, int ops_attempted,
                         const Model& acked, const Model& indeterminate, uint64_t crash_at) {
    auto store = LsmStore::Open(dir, MatrixOptions());
    ASSERT_TRUE(store.ok()) << "reopen failed after crash at op " << crash_at << ": "
                            << store.status();
    for (const auto& [key, value] : acked) {
      if (indeterminate.count(key)) {
        continue;  // a later in-flight op targeted this key
      }
      auto got = (*store)->Get(key);
      if (value.has_value()) {
        ASSERT_TRUE(got.ok()) << "acked write lost: " << key << " (crash at op " << crash_at
                              << "): " << got.status();
        EXPECT_EQ(*got, *value) << key << " (crash at op " << crash_at << ")";
      } else {
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound)
            << "acked delete lost: " << key << " (crash at op " << crash_at << ")";
      }
    }
    // The in-flight op may or may not have landed, but it must never surface
    // as corruption, and a landed put must carry the exact attempted value.
    for (const auto& [key, value] : indeterminate) {
      auto got = (*store)->Get(key);
      if (got.ok() && value.has_value() && !acked.count(key)) {
        EXPECT_EQ(*got, *value) << key << " (crash at op " << crash_at << ")";
      } else if (!got.ok()) {
        EXPECT_EQ(got.status().code(), StatusCode::kNotFound)
            << key << " (crash at op " << crash_at << ")";
      }
    }
    // Put keys past the failure point were never attempted: must be absent.
    for (int i = ops_attempted; i < num_ops; ++i) {
      if (i % 5 == 4) {
        // Unattempted batch: none of its records may surface.
        for (int j = 0; j < kBatchRecords; ++j) {
          auto got = (*store)->Get(BatchKey(i, j));
          EXPECT_EQ(got.status().code(), StatusCode::kNotFound)
              << "phantom batch write " << BatchKey(i, j) << " (crash at op " << crash_at << ")";
        }
        continue;
      }
      if (i % 7 == 6) {
        continue;  // delete op: its victim key legitimately exists
      }
      auto got = (*store)->Get(Key(i));
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound)
          << "phantom write " << Key(i) << " (crash at op " << crash_at << ")";
    }
    // Orphan GC: no temp files or half-rotated WALs survive Open, and every
    // .sst on disk is referenced (counted) by the recovered store.
    auto names = ListDir(dir);
    ASSERT_TRUE(names.ok());
    size_t sst_files = 0;
    for (const std::string& name : *names) {
      EXPECT_FALSE(name.size() > 4 && name.substr(name.size() - 4) == ".tmp")
          << name << " (crash at op " << crash_at << ")";
      EXPECT_NE(name, "wal.log.new") << "crash at op " << crash_at;
      if (name.size() > 4 && name.substr(name.size() - 4) == ".sst") {
        ++sst_files;
      }
    }
    EXPECT_EQ(sst_files, (*store)->sstable_count()) << "crash at op " << crash_at;
  }

  std::string dir_;
  LogLevel saved_log_level_ = LogLevel::kInfo;
};

TEST_F(FaultInjectionTest, CrashMatrixLosesNoAcknowledgedWrite) {
  const bool full = std::getenv("SS_FAULT_INJECT") != nullptr;
  const int num_ops = full ? 120 : 40;

  // Dry run with no fault scheduled: sizes the matrix and sanity-checks the
  // workload itself.
  uint64_t total_ops = 0;
  {
    FaultFs fs;
    SetFileOpsForTest(&fs);
    Model acked, indeterminate;
    std::string dry_dir = dir_ + "/dry";
    int attempted = RunWorkload(dry_dir, num_ops, &acked, &indeterminate);
    SetFileOpsForTest(nullptr);
    total_ops = fs.mutating_op_count();
    ASSERT_EQ(attempted, num_ops);
    ASSERT_TRUE(indeterminate.empty());
    VerifyAfterReopen(dry_dir, num_ops, attempted, acked, indeterminate, 0);
    ASSERT_TRUE(RemoveDirRecursive(dry_dir).ok());
  }
  ASSERT_GT(total_ops, 20u);

  for (uint64_t crash_at = 1; crash_at <= total_ops; ++crash_at) {
    std::string dir = dir_ + "/crash";
    ASSERT_TRUE(RemoveDirRecursive(dir).ok());
    FaultFs fs;
    fs.CrashAtOpIndex(crash_at);
    if (crash_at % 2 == 0) {
      fs.SetTornWriteBytes(3);  // exercise torn tails on half the matrix
    }
    SetFileOpsForTest(&fs);
    Model acked, indeterminate;
    int attempted = RunWorkload(dir, num_ops, &acked, &indeterminate);  // store dies inside
    EXPECT_TRUE(fs.crashed()) << crash_at;
    ASSERT_TRUE(fs.ApplyPowerLoss().ok()) << crash_at;
    // Reopen + verify under a fresh, schedule-free FaultFs: behavior is
    // identical to the real FS, but simulated fsyncs keep the matrix fast.
    FaultFs clean_fs;
    SetFileOpsForTest(&clean_fs);
    VerifyAfterReopen(dir, num_ops, attempted, acked, indeterminate, crash_at);
    SetFileOpsForTest(nullptr);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

// Flush() is a durability barrier, not a memtable flush: it writes no table
// file, costs one WAL fsync (none when nothing is unsynced), and what it
// covered survives a power loss that drops every unsynced byte — while
// writes after it, which no fsync covered, are really dropped.
TEST_F(FaultInjectionTest, FlushIsSyncedWalBarrierWithoutTables) {
  LsmOptions options;  // sync_wal=false, 4 MiB memtable: no threshold flush
  FaultFs fs;
  SetFileOpsForTest(&fs);
  const std::string dir = dir_ + "/barrier";
  {
    auto store = LsmStore::Open(dir, options);
    ASSERT_TRUE(store.ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*store)->Put(Key(i), "covered").ok());
    }
    const uint64_t fsyncs_before = fs.op_count(FaultOp::kFsync);
    ASSERT_TRUE((*store)->Flush().ok());
    EXPECT_EQ(fs.op_count(FaultOp::kFsync), fsyncs_before + 1);
    ASSERT_TRUE((*store)->Flush().ok());  // nothing new to cover
    EXPECT_EQ(fs.op_count(FaultOp::kFsync), fsyncs_before + 1);
    EXPECT_EQ((*store)->sstable_count(), 0u);
    auto names = ListDir(dir);
    ASSERT_TRUE(names.ok());
    for (const std::string& name : *names) {
      EXPECT_FALSE(name.size() > 4 && name.substr(name.size() - 4) == ".sst") << name;
    }
    for (int i = 50; i < 60; ++i) {
      ASSERT_TRUE((*store)->Put(Key(i), "unsynced").ok());
    }
    HardKill(fs);
  }
  ASSERT_TRUE(fs.ApplyPowerLoss().ok());
  FaultFs clean_fs;
  SetFileOpsForTest(&clean_fs);
  auto store = LsmStore::Open(dir, options);
  ASSERT_TRUE(store.ok());
  for (int i = 0; i < 50; ++i) {
    auto got = (*store)->Get(Key(i));
    ASSERT_TRUE(got.ok()) << Key(i) << " lost although Flush covered it";
    EXPECT_EQ(*got, "covered");
  }
  for (int i = 50; i < 60; ++i) {
    EXPECT_EQ((*store)->Get(Key(i)).status().code(), StatusCode::kNotFound)
        << Key(i) << " survived a power loss no fsync covered";
  }
  store->reset();
  SetFileOpsForTest(nullptr);
}

// The durable-ack path of sserver/ssbench (sync_wal=false, SummaryStore::
// Flush as the ack), killed at every mutating syscall of a workload of
// appends and ack flushes, then power loss: every append acked by a Flush
// that returned OK must be back after reopen, nothing never attempted may
// be. A crash between a stream's WAL append and the fsync fails the Flush
// (no ack); a crash after the fsync leaves an OK Flush whose ack is lost
// with the process — its appends must survive either way.
TEST_F(FaultInjectionTest, AckCrashMatrixLosesNoFlushedAppend) {
  const bool full = std::getenv("SS_FAULT_INJECT") != nullptr;
  const int rounds = full ? 24 : 8;
  constexpr int kStreams = 3;
  constexpr int kPerRound = 5;
  StoreOptions options;
  options.lsm.memtable_bytes = 4096;  // threshold flushes + compactions in range
  options.lsm.compaction_trigger = 3;
  auto config = [] {
    StreamConfig c;
    c.decay = std::make_shared<PowerLawDecay>(1, 1, 1, 1);
    c.raw_threshold = 4;
    return c;
  };
  // Appends per stream: `acked` were covered by an OK Flush, `attempted`
  // were issued. Returns false when the store died before the workload ended.
  auto run = [&](FaultFs& fs, const std::string& dir, std::vector<uint64_t>* acked,
                 std::vector<uint64_t>* attempted) {
    options.dir = dir;
    acked->assign(kStreams, 0);
    attempted->assign(kStreams, 0);
    auto store = SummaryStore::Open(options);
    if (!store.ok()) {
      return false;
    }
    for (int s = 0; s < kStreams; ++s) {
      if (!(*store)->CreateStreamWithId(static_cast<StreamId>(s + 1), config()).ok() ||
          !(*store)->Flush().ok()) {
        HardKill(fs);
        return false;
      }
    }
    for (int round = 0; round < rounds; ++round) {
      for (int i = 0; i < kPerRound; ++i) {
        // Touch a rotating subset of streams so some commits skip some.
        const int s = (round + i) % kStreams;
        const Timestamp ts = static_cast<Timestamp>(++(*attempted)[s]);
        if (!(*store)->Append(static_cast<StreamId>(s + 1), ts, 1.0).ok()) {
          HardKill(fs);
          return false;
        }
      }
      if (!(*store)->Flush().ok()) {
        HardKill(fs);  // the ack never went out
        return false;
      }
      *acked = *attempted;  // the ack
    }
    HardKill(fs);  // even on success: no close-time flush
    return true;
  };
  auto verify = [&](const std::string& dir, const std::vector<uint64_t>& acked,
                    const std::vector<uint64_t>& attempted, uint64_t crash_at) {
    options.dir = dir;
    auto store = SummaryStore::Open(options);
    ASSERT_TRUE(store.ok()) << "reopen failed after crash at op " << crash_at << ": "
                            << store.status();
    for (int s = 0; s < kStreams; ++s) {
      const StreamId id = static_cast<StreamId>(s + 1);
      auto stream = (*store)->GetStream(id);
      if (acked[s] == 0 && !stream.ok()) {
        continue;  // creation itself was never acked
      }
      ASSERT_TRUE(stream.ok()) << "stream " << id << " lost (crash at op " << crash_at << ")";
      const uint64_t count = (*stream)->element_count();
      EXPECT_GE(count, acked[s]) << "acked appends lost on stream " << id << " (crash at op "
                                 << crash_at << ")";
      EXPECT_LE(count, attempted[s]) << "phantom appends on stream " << id << " (crash at op "
                                     << crash_at << ")";
      // The recovered windows must answer for exactly what the meta counts.
      if (count > 0) {
        QuerySpec spec{.t1 = 1, .t2 = static_cast<Timestamp>(count), .op = QueryOp::kCount};
        auto result = (*store)->Query(id, spec);
        ASSERT_TRUE(result.ok()) << result.status() << " (crash at op " << crash_at << ")";
        EXPECT_DOUBLE_EQ(result->estimate, static_cast<double>(count))
            << "stream " << id << " (crash at op " << crash_at << ")";
      }
    }
  };

  uint64_t total_ops = 0;
  {
    FaultFs fs;
    SetFileOpsForTest(&fs);
    std::vector<uint64_t> acked, attempted;
    const std::string dry_dir = dir_ + "/ack_dry";
    ASSERT_TRUE(run(fs, dry_dir, &acked, &attempted));
    total_ops = fs.mutating_op_count();
    ASSERT_EQ(acked, attempted);
    ASSERT_TRUE(fs.ApplyPowerLoss().ok());
    FaultFs clean_fs;
    SetFileOpsForTest(&clean_fs);
    verify(dry_dir, acked, attempted, 0);
    SetFileOpsForTest(nullptr);
    ASSERT_TRUE(RemoveDirRecursive(dry_dir).ok());
  }
  ASSERT_GT(total_ops, 2u * static_cast<uint64_t>(rounds));

  for (uint64_t crash_at = 1; crash_at <= total_ops; ++crash_at) {
    const std::string dir = dir_ + "/ack_crash";
    ASSERT_TRUE(RemoveDirRecursive(dir).ok());
    FaultFs fs;
    fs.CrashAtOpIndex(crash_at);
    if (crash_at % 2 == 0) {
      fs.SetTornWriteBytes(5);
    }
    SetFileOpsForTest(&fs);
    std::vector<uint64_t> acked, attempted;
    (void)run(fs, dir, &acked, &attempted);
    EXPECT_TRUE(fs.crashed()) << crash_at;
    ASSERT_TRUE(fs.ApplyPowerLoss().ok()) << crash_at;
    FaultFs clean_fs;
    SetFileOpsForTest(&clean_fs);
    verify(dir, acked, attempted, crash_at);
    SetFileOpsForTest(nullptr);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
  }
}

TEST_F(FaultInjectionTest, WalSyncFailurePoisonsStoreWithoutApplying) {
  LsmOptions options;
  options.sync_wal = true;
  FaultFs fs;
  SetFileOpsForTest(&fs);
  {
    auto store = LsmStore::Open(dir_ + "/poison", options);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->Put("before", "ok").ok());

    fs.FailAt(FaultOp::kFsync, fs.op_count(FaultOp::kFsync) + 1, EIO);
    Status failed = (*store)->Put("doomed", "value");
    ASSERT_FALSE(failed.ok());
    // The record reached the log but the caller was told it failed; the
    // memtable must NOT have applied it.
    EXPECT_EQ((*store)->Get("doomed").status().code(), StatusCode::kNotFound);

    // Poisoned: subsequent writes fail fast without touching the disk.
    uint64_t ops_before = fs.mutating_op_count();
    EXPECT_FALSE((*store)->Put("after", "x").ok());
    EXPECT_FALSE((*store)->Delete("before").ok());
    EXPECT_FALSE((*store)->Flush().ok());
    EXPECT_EQ(fs.mutating_op_count(), ops_before);

    // Reads keep working.
    auto got = (*store)->Get("before");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "ok");
  }
  SetFileOpsForTest(nullptr);
}

TEST_F(FaultInjectionTest, WalAppendFailurePoisonsStore) {
  LsmOptions options;  // sync_wal=false: the append itself fails
  FaultFs fs;
  SetFileOpsForTest(&fs);
  {
    auto store = LsmStore::Open(dir_ + "/poison2", options);
    ASSERT_TRUE(store.ok());
    fs.FailAt(FaultOp::kWrite, fs.op_count(FaultOp::kWrite) + 1, ENOSPC);
    ASSERT_FALSE((*store)->Put("doomed", "value").ok());
    EXPECT_EQ((*store)->Get("doomed").status().code(), StatusCode::kNotFound);
    EXPECT_FALSE((*store)->Put("after", "x").ok());
  }
  SetFileOpsForTest(nullptr);
}

}  // namespace
}  // namespace ss
