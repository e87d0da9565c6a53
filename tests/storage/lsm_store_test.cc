#include <gtest/gtest.h>

#include <map>
#include <string>

#include "src/random/rng.h"
#include "src/storage/lsm_store.h"
#include "src/storage/memory_backend.h"

namespace ss {
namespace {

class LsmStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ss_lsm_" + std::to_string(reinterpret_cast<uintptr_t>(this));
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override { ASSERT_TRUE(RemoveDirRecursive(dir_).ok()); }

  LsmOptions SmallOptions() {
    LsmOptions options;
    options.memtable_bytes = 4096;  // force frequent flushes
    options.compaction_trigger = 4;
    return options;
  }

  std::string dir_;
};

TEST_F(LsmStoreTest, PutGetDelete) {
  auto store = LsmStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->Put("k", "v").ok());
  EXPECT_EQ(*(*store)->Get("k"), "v");
  ASSERT_TRUE((*store)->Delete("k").ok());
  EXPECT_EQ((*store)->Get("k").status().code(), StatusCode::kNotFound);
}

TEST_F(LsmStoreTest, OverwriteReturnsLatest) {
  auto store = LsmStore::Open(dir_, SmallOptions());
  for (int v = 0; v < 50; ++v) {
    ASSERT_TRUE((*store)->Put("key", "v" + std::to_string(v)).ok());
    // Interleave other keys to force memtable flushes between versions.
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*store)->Put("pad" + std::to_string(v * 100 + i), std::string(64, 'x')).ok());
    }
  }
  EXPECT_EQ(*(*store)->Get("key"), "v49");
}

TEST_F(LsmStoreTest, SurvivesReopenViaWal) {
  {
    auto store = LsmStore::Open(dir_);
    ASSERT_TRUE((*store)->Put("persisted", "yes").ok());
    ASSERT_TRUE((*store)->Put("deleted", "no").ok());
    ASSERT_TRUE((*store)->Delete("deleted").ok());
    // No Flush: rely on WAL replay (destructor flush also exercises it, so
    // bypass the destructor path by leaking intentionally? No — the
    // destructor flushes; WAL replay is tested by the torn-tail case in
    // wal_test. Here we verify reopen equivalence either way.)
  }
  auto store = LsmStore::Open(dir_);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(*(*store)->Get("persisted"), "yes");
  EXPECT_EQ((*store)->Get("deleted").status().code(), StatusCode::kNotFound);
}

TEST_F(LsmStoreTest, FlushCreatesTablesAndCompactionBoundsThem) {
  auto store = LsmStore::Open(dir_, SmallOptions());
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(i), std::string(32, 'v')).ok());
  }
  ASSERT_TRUE((*store)->FlushMemtable().ok());
  EXPECT_LT((*store)->sstable_count(), 4u);  // compaction keeps table count low
  // All data still readable after compactions.
  for (int i = 0; i < 2000; i += 97) {
    EXPECT_TRUE((*store)->Get("key" + std::to_string(i)).ok()) << i;
  }
}

TEST_F(LsmStoreTest, ScanRangeOrderedAndShadowed) {
  auto store = LsmStore::Open(dir_, SmallOptions());
  for (int i = 0; i < 500; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE((*store)->Put(key, "old" + std::to_string(i)).ok());
  }
  ASSERT_TRUE((*store)->FlushMemtable().ok());
  // Overwrite a subset and delete another subset post-flush.
  for (int i = 100; i < 110; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE((*store)->Put(key, "new" + std::to_string(i)).ok());
  }
  for (int i = 200; i < 205; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE((*store)->Delete(key).ok());
  }

  std::vector<std::pair<std::string, std::string>> seen;
  ASSERT_TRUE((*store)
                  ->Scan("k0100", "k0210",
                         [&](std::string_view k, std::string_view v) {
                           seen.emplace_back(k, v);
                           return true;
                         })
                  .ok());
  ASSERT_EQ(seen.size(), 105u);  // 110 keys minus 5 deletions
  EXPECT_EQ(seen.front().first, "k0100");
  EXPECT_EQ(seen.front().second, "new100");
  EXPECT_EQ(seen[10].second, "old110");
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LT(seen[i - 1].first, seen[i].first);
  }
}

TEST_F(LsmStoreTest, ScanEarlyStop) {
  auto store = LsmStore::Open(dir_);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE((*store)->Put("k" + std::to_string(1000 + i), "v").ok());
  }
  int visited = 0;
  ASSERT_TRUE((*store)
                  ->Scan("", "",
                         [&](std::string_view, std::string_view) {
                           ++visited;
                           return visited < 10;
                         })
                  .ok());
  EXPECT_EQ(visited, 10);
}

TEST_F(LsmStoreTest, RandomOpsMatchReferenceModel) {
  auto store = LsmStore::Open(dir_, SmallOptions());
  std::map<std::string, std::string> model;
  Rng rng(20240601);
  for (int op = 0; op < 5000; ++op) {
    std::string key = "key" + std::to_string(rng.NextBounded(400));
    if (rng.NextBernoulli(0.7)) {
      std::string value = "v" + std::to_string(rng.NextU64() % 100000);
      ASSERT_TRUE((*store)->Put(key, value).ok());
      model[key] = value;
    } else {
      ASSERT_TRUE((*store)->Delete(key).ok());
      model.erase(key);
    }
    if (op % 500 == 0) {
      ASSERT_TRUE((*store)->FlushMemtable().ok());
    }
  }
  // Point lookups agree with the model.
  for (int i = 0; i < 400; ++i) {
    std::string key = "key" + std::to_string(i);
    auto it = model.find(key);
    auto got = (*store)->Get(key);
    if (it == model.end()) {
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << key;
    } else {
      ASSERT_TRUE(got.ok()) << key;
      EXPECT_EQ(*got, it->second) << key;
    }
  }
  // Full scan agrees with the model.
  std::map<std::string, std::string> scanned;
  ASSERT_TRUE((*store)
                  ->Scan("", "",
                         [&](std::string_view k, std::string_view v) {
                           scanned.emplace(std::string(k), std::string(v));
                           return true;
                         })
                  .ok());
  EXPECT_EQ(scanned, model);
}

TEST_F(LsmStoreTest, ReopenAfterHeavyChurnMatchesModel) {
  std::map<std::string, std::string> model;
  {
    auto store = LsmStore::Open(dir_, SmallOptions());
    Rng rng(77);
    for (int op = 0; op < 3000; ++op) {
      std::string key = "key" + std::to_string(rng.NextBounded(200));
      std::string value = "v" + std::to_string(op);
      ASSERT_TRUE((*store)->Put(key, value).ok());
      model[key] = value;
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto store = LsmStore::Open(dir_, SmallOptions());
  std::map<std::string, std::string> scanned;
  ASSERT_TRUE((*store)
                  ->Scan("", "",
                         [&](std::string_view k, std::string_view v) {
                           scanned.emplace(std::string(k), std::string(v));
                           return true;
                         })
                  .ok());
  EXPECT_EQ(scanned, model);
}

TEST_F(LsmStoreTest, DropCachesStillReads) {
  auto store = LsmStore::Open(dir_, SmallOptions());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE((*store)->Put("k" + std::to_string(i), std::string(64, 'd')).ok());
  }
  ASSERT_TRUE((*store)->FlushMemtable().ok());
  (*store)->DropCaches();
  EXPECT_TRUE((*store)->Get("k500").ok());
}

TEST(MemoryBackendTest, BasicOperationsAndScan) {
  MemoryBackend backend;
  ASSERT_TRUE(backend.Put("b", "2").ok());
  ASSERT_TRUE(backend.Put("a", "1").ok());
  ASSERT_TRUE(backend.Put("c", "3").ok());
  ASSERT_TRUE(backend.Delete("c").ok());
  EXPECT_EQ(*backend.Get("a"), "1");
  EXPECT_EQ(backend.Get("c").status().code(), StatusCode::kNotFound);
  std::vector<std::string> keys;
  ASSERT_TRUE(backend
                  .Scan("", "",
                        [&](std::string_view k, std::string_view) {
                          keys.emplace_back(k);
                          return true;
                        })
                  .ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b"}));
}

}  // namespace
}  // namespace ss
