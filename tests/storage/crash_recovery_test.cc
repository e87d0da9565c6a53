// Failure-injection tests for the storage engine: torn WAL tails, deleted
// SSTables, corrupted manifests, and mid-compaction states must either
// recover losslessly (acknowledged+flushed data) or fail loudly with
// kCorruption — never silently return wrong data.
#include <gtest/gtest.h>

#include <map>

#include "src/common/logging.h"
#include "src/common/serde.h"
#include "src/random/rng.h"
#include "src/storage/lsm_store.h"

namespace ss {
namespace {

class CrashRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ss_crash_" + std::to_string(reinterpret_cast<uintptr_t>(this));
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override { ASSERT_TRUE(RemoveDirRecursive(dir_).ok()); }

  LsmOptions SmallOptions() {
    LsmOptions options;
    options.memtable_bytes = 2048;
    options.compaction_trigger = 3;
    return options;
  }

  std::string dir_;
};

TEST_F(CrashRecoveryTest, TornWalTailLosesOnlyUnsyncedSuffix) {
  {
    auto store = LsmStore::Open(dir_, SmallOptions());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*store)->Put("key" + std::to_string(i), "value" + std::to_string(i)).ok());
    }
    // Simulate crash: do NOT flush; destructor would flush, so truncate the
    // WAL *after* closing to emulate a torn final record.
  }
  std::string wal = dir_ + "/wal.log";
  if (FileExists(wal)) {
    auto contents = ReadFileToString(wal);
    if (contents.ok() && contents->size() > 4) {
      ASSERT_TRUE(WriteFileAtomic(wal, contents->substr(0, contents->size() - 3)).ok());
    }
  }
  auto store = LsmStore::Open(dir_, SmallOptions());
  ASSERT_TRUE(store.ok());
  // Everything except possibly the last record must be intact.
  for (int i = 0; i < 9; ++i) {
    auto got = (*store)->Get("key" + std::to_string(i));
    EXPECT_TRUE(got.ok()) << i;
  }
}

TEST_F(CrashRecoveryTest, MissingSstableFailsLoudly) {
  {
    auto store = LsmStore::Open(dir_, SmallOptions());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE((*store)->Put("key" + std::to_string(i), std::string(64, 'x')).ok());
    }
    ASSERT_TRUE((*store)->FlushMemtable().ok());
    ASSERT_GE((*store)->sstable_count(), 1u);
  }
  // Delete one .sst file out from under the manifest.
  auto names = ListDir(dir_);
  ASSERT_TRUE(names.ok());
  for (const std::string& name : *names) {
    if (name.ends_with(".sst")) {
      ASSERT_TRUE(RemoveFileIfExists(dir_ + "/" + name).ok());
      break;
    }
  }
  auto reopened = LsmStore::Open(dir_, SmallOptions());
  EXPECT_FALSE(reopened.ok());
}

TEST_F(CrashRecoveryTest, CorruptSstableBlockSurfacesAsCorruption) {
  {
    auto store = LsmStore::Open(dir_, SmallOptions());
    for (int i = 0; i < 500; ++i) {
      ASSERT_TRUE((*store)->Put("key" + std::to_string(1000 + i), std::string(64, 'x')).ok());
    }
    ASSERT_TRUE((*store)->FlushMemtable().ok());
  }
  auto names = ListDir(dir_);
  for (const std::string& name : *names) {
    if (name.ends_with(".sst")) {
      std::string path = dir_ + "/" + name;
      auto contents = ReadFileToString(path);
      std::string data = *contents;
      data[64] ^= 0xff;  // flip a data byte, leave index+footer intact
      ASSERT_TRUE(WriteFileAtomic(path, data).ok());
    }
  }
  auto store = LsmStore::Open(dir_, SmallOptions());
  ASSERT_TRUE(store.ok());  // index loads fine
  bool saw_corruption = false;
  for (int i = 0; i < 500; ++i) {
    auto got = (*store)->Get("key" + std::to_string(1000 + i));
    if (!got.ok() && got.status().code() == StatusCode::kCorruption) {
      saw_corruption = true;
      break;
    }
  }
  EXPECT_TRUE(saw_corruption);
}

TEST_F(CrashRecoveryTest, RepeatedReopenUnderChurnIsLossless) {
  // Model across 10 "sessions" with flush-at-end: every acknowledged +
  // flushed write must survive arbitrary reopen sequences.
  std::map<std::string, std::string> model;
  Rng rng(42);
  for (int session = 0; session < 10; ++session) {
    auto store = LsmStore::Open(dir_, SmallOptions());
    ASSERT_TRUE(store.ok());
    // Verify everything from prior sessions first.
    for (const auto& [key, value] : model) {
      auto got = (*store)->Get(key);
      ASSERT_TRUE(got.ok()) << key << " lost in session " << session;
      ASSERT_EQ(*got, value);
    }
    for (int op = 0; op < 300; ++op) {
      std::string key = "k" + std::to_string(rng.NextBounded(150));
      if (rng.NextBernoulli(0.8)) {
        std::string value = "s" + std::to_string(session) + "v" + std::to_string(op);
        ASSERT_TRUE((*store)->Put(key, value).ok());
        model[key] = value;
      } else {
        ASSERT_TRUE((*store)->Delete(key).ok());
        model.erase(key);
      }
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
}

TEST_F(CrashRecoveryTest, OrphanSstGcOnOpen) {
  {
    auto store = LsmStore::Open(dir_, SmallOptions());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*store)->Put("key" + std::to_string(i), std::string(64, 'x')).ok());
    }
    ASSERT_TRUE((*store)->FlushMemtable().ok());
  }
  // Plant debris a crash could leave behind: an SST that never made the
  // manifest, a half-written temp file, and a half-rotated WAL.
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/99.sst", "orphan bytes").ok());
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/foo.tmp", "temp bytes").ok());
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/wal.log.new", "half-rotated").ok());

  auto store = LsmStore::Open(dir_, SmallOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_FALSE(FileExists(dir_ + "/99.sst"));
  EXPECT_FALSE(FileExists(dir_ + "/foo.tmp"));
  EXPECT_FALSE(FileExists(dir_ + "/wal.log.new"));
  // The orphan's id must not be reused: a future flush would otherwise
  // collide with debris from a prior incarnation.
  for (int i = 100; i < 300; ++i) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(i), std::string(64, 'y')).ok());
  }
  ASSERT_TRUE((*store)->FlushMemtable().ok());
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE((*store)->Get("key" + std::to_string(i)).ok()) << i;
  }
}

TEST_F(CrashRecoveryTest, SalvageModeSkipsUnreadableTables) {
  LogLevel saved = MinLogLevel();
  MinLogLevel() = LogLevel::kError;  // salvage warns per skipped table
  LsmOptions options = SmallOptions();
  options.compaction_trigger = 100;  // keep the two tables separate
  {
    auto store = LsmStore::Open(dir_, options);
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*store)->Put("a" + std::to_string(i), "first").ok());
    }
    ASSERT_TRUE((*store)->FlushMemtable().ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE((*store)->Put("b" + std::to_string(i), "second").ok());
    }
    ASSERT_TRUE((*store)->FlushMemtable().ok());
    ASSERT_EQ((*store)->sstable_count(), 2u);
  }
  // Destroy the first (older) table.
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/1.sst", "not an sstable").ok());

  // Default open must fail loudly...
  ASSERT_FALSE(LsmStore::Open(dir_, options).ok());

  // ...but salvage mode brings the survivors online.
  options.salvage = true;
  auto store = LsmStore::Open(dir_, options);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->sstable_count(), 1u);
  for (int i = 0; i < 50; ++i) {
    auto got = (*store)->Get("b" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << i;
    EXPECT_EQ(*got, "second");
  }
  // The damaged file stays on disk for forensics.
  EXPECT_TRUE(FileExists(dir_ + "/1.sst"));
  MinLogLevel() = saved;
}

TEST_F(CrashRecoveryTest, RotatedWalRecovery) {
  {
    auto store = LsmStore::Open(dir_, SmallOptions());
    ASSERT_TRUE((*store)->Put("committed", "yes").ok());
    (void)store->release();  // hard kill: no destructor flush
  }
  // Crash mid-rotation: a fresh wal.log.new exists but the swap never
  // happened. Recovery must replay wal.log and discard the .new file.
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/wal.log.new", "").ok());
  auto store = LsmStore::Open(dir_, SmallOptions());
  ASSERT_TRUE(store.ok());
  auto got = (*store)->Get("committed");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "yes");
  EXPECT_FALSE(FileExists(dir_ + "/wal.log.new"));
}

TEST_F(CrashRecoveryTest, CorruptManifestFailsLoudly) {
  {
    auto store = LsmStore::Open(dir_, SmallOptions());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*store)->Put("key" + std::to_string(i), std::string(64, 'x')).ok());
    }
    ASSERT_TRUE((*store)->FlushMemtable().ok());
  }
  std::string path = dir_ + "/MANIFEST";
  auto contents = ReadFileToString(path);
  ASSERT_TRUE(contents.ok());
  std::string data = *contents;
  data[data.size() / 2] ^= 0xff;
  ASSERT_TRUE(WriteFileAtomic(path, data).ok());
  auto reopened = LsmStore::Open(dir_, SmallOptions());
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
}

TEST_F(CrashRecoveryTest, LegacyManifestStillReadable) {
  {
    auto store = LsmStore::Open(dir_, SmallOptions());
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*store)->Put("key" + std::to_string(i), std::string(64, 'x')).ok());
    }
    ASSERT_TRUE((*store)->FlushMemtable().ok());
    ASSERT_EQ((*store)->sstable_count(), 1u);
  }
  // Find the live table id and rewrite the manifest in the pre-versioning
  // format: bare varint count + ids, no magic, no checksum.
  auto names = ListDir(dir_);
  ASSERT_TRUE(names.ok());
  uint32_t id = 0;
  for (const std::string& name : *names) {
    if (name.ends_with(".sst")) {
      id = static_cast<uint32_t>(std::stoul(name.substr(0, name.size() - 4)));
    }
  }
  ASSERT_GT(id, 0u);
  Writer legacy;
  legacy.PutVarint(1);
  legacy.PutVarint(id);
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/MANIFEST", legacy.data()).ok());

  auto store = LsmStore::Open(dir_, SmallOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->sstable_count(), 1u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE((*store)->Get("key" + std::to_string(i)).ok()) << i;
  }
}

TEST_F(CrashRecoveryTest, RecoveryFlushesOversizedMemtable) {
  {
    auto store = LsmStore::Open(dir_, LsmOptions());  // 4 MiB threshold
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE((*store)->Put("key" + std::to_string(i), std::string(64, 'x')).ok());
    }
    ASSERT_EQ((*store)->sstable_count(), 0u);  // all in the memtable + WAL
    (void)store->release();  // hard kill
  }
  // Reopen with a tiny threshold: the replayed memtable is over it and must
  // be flushed at the end of recovery, not parked until the next write.
  auto store = LsmStore::Open(dir_, SmallOptions());
  ASSERT_TRUE(store.ok());
  EXPECT_EQ((*store)->memtable_entries(), 0u);
  EXPECT_GE((*store)->sstable_count(), 1u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE((*store)->Get("key" + std::to_string(i)).ok()) << i;
  }
}

TEST_F(CrashRecoveryTest, WritesAfterTornTailSurviveNextCrash) {
  LsmOptions options = SmallOptions();
  options.sync_wal = true;  // every acknowledged Put is a durability promise
  {
    auto store = LsmStore::Open(dir_, options);
    ASSERT_TRUE((*store)->Put("before", "1").ok());
    (void)store->release();  // hard kill
  }
  {
    // A torn final record: bytes after the last intact one.
    auto wal = AppendFile::Open(dir_ + "/wal.log");
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(std::string("\x07\x00\x00", 3)).ok());
  }
  {
    auto store = LsmStore::Open(dir_, options);
    ASSERT_TRUE(store.ok());
    // Must not land behind the torn bytes, where replay would never reach.
    ASSERT_TRUE((*store)->Put("after", "2").ok());
    (void)store->release();  // second hard kill
  }
  auto store = LsmStore::Open(dir_, options);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE((*store)->Get("before").ok());
  auto got = (*store)->Get("after");
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(*got, "2");
}

TEST_F(CrashRecoveryTest, UnflushedWritesRecoverViaWal) {
  {
    auto store = LsmStore::Open(dir_, SmallOptions());
    ASSERT_TRUE((*store)->Put("durable", "1").ok());
    // Simulate a hard kill by leaking the store: no destructor flush.
    (void)store->release();
  }
  auto store = LsmStore::Open(dir_, SmallOptions());
  ASSERT_TRUE(store.ok());
  auto got = (*store)->Get("durable");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "1");
}

}  // namespace
}  // namespace ss
