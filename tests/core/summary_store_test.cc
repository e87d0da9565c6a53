#include <gtest/gtest.h>

#include <cmath>

#include "src/core/summary_store.h"
#include "src/storage/file_util.h"

namespace ss {
namespace {

StreamConfig SmallConfig() {
  StreamConfig config;
  config.decay = std::make_shared<PowerLawDecay>(1, 1, 1, 1);
  config.operators = OperatorSet::Microbench();
  config.operators.bloom_bits = 256;
  config.operators.cms_width = 64;
  config.raw_threshold = 8;
  return config;
}

TEST(SummaryStoreApi, CreateAppendQueryInMemory) {
  auto store = SummaryStore::Open(StoreOptions{});
  ASSERT_TRUE(store.ok());
  auto sid = (*store)->CreateStream(SmallConfig());
  ASSERT_TRUE(sid.ok());
  for (int t = 1; t <= 500; ++t) {
    ASSERT_TRUE((*store)->Append(*sid, t, static_cast<double>(t % 10)).ok());
  }
  QuerySpec spec{.t1 = 1, .t2 = 500, .op = QueryOp::kCount};
  auto result = (*store)->Query(*sid, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, 500.0);
}

TEST(SummaryStoreApi, MultipleIndependentStreams) {
  auto store = SummaryStore::Open(StoreOptions{});
  auto a = (*store)->CreateStream(SmallConfig());
  auto b = (*store)->CreateStream(SmallConfig());
  ASSERT_NE(*a, *b);
  for (int t = 1; t <= 100; ++t) {
    ASSERT_TRUE((*store)->Append(*a, t, 1.0).ok());
  }
  for (int t = 1; t <= 50; ++t) {
    ASSERT_TRUE((*store)->Append(*b, t, 2.0).ok());
  }
  QuerySpec spec{.t1 = 1, .t2 = 1000, .op = QueryOp::kSum};
  EXPECT_DOUBLE_EQ((*store)->Query(*a, spec)->estimate, 100.0);
  EXPECT_DOUBLE_EQ((*store)->Query(*b, spec)->estimate, 100.0);
  EXPECT_EQ((*store)->ListStreams().size(), 2u);
}

TEST(SummaryStoreApi, UnknownStreamErrors) {
  auto store = SummaryStore::Open(StoreOptions{});
  EXPECT_EQ((*store)->Append(99, 1, 1.0).code(), StatusCode::kNotFound);
  QuerySpec spec{.t1 = 0, .t2 = 1, .op = QueryOp::kCount};
  EXPECT_EQ((*store)->Query(99, spec).status().code(), StatusCode::kNotFound);
}

TEST(SummaryStoreApi, DeleteStreamRemovesData) {
  auto store = SummaryStore::Open(StoreOptions{});
  auto sid = (*store)->CreateStream(SmallConfig());
  for (int t = 1; t <= 100; ++t) {
    ASSERT_TRUE((*store)->Append(*sid, t, 1.0).ok());
  }
  ASSERT_TRUE((*store)->Flush().ok());
  ASSERT_TRUE((*store)->DeleteStream(*sid).ok());
  EXPECT_TRUE((*store)->ListStreams().empty());
  EXPECT_EQ((*store)->DeleteStream(*sid).code(), StatusCode::kNotFound);
}

TEST(SummaryStoreApi, QueryAggregateAcrossStreams) {
  auto store = SummaryStore::Open(StoreOptions{});
  std::vector<StreamId> ids;
  for (int s = 0; s < 3; ++s) {
    ids.push_back(*(*store)->CreateStream(SmallConfig()));
    for (int t = 1; t <= 400; ++t) {
      ASSERT_TRUE((*store)->Append(ids.back(), t, static_cast<double>(s + 1)).ok());
    }
  }
  QuerySpec count{.t1 = 1, .t2 = 400, .op = QueryOp::kCount};
  auto total = (*store)->QueryAggregate(ids, count);
  ASSERT_TRUE(total.ok());
  EXPECT_DOUBLE_EQ(total->estimate, 1200.0);
  EXPECT_TRUE(total->exact);

  QuerySpec sum{.t1 = 1, .t2 = 400, .op = QueryOp::kSum};
  auto sum_result = (*store)->QueryAggregate(ids, sum);
  ASSERT_TRUE(sum_result.ok());
  EXPECT_DOUBLE_EQ(sum_result->estimate, 400.0 * (1 + 2 + 3));

  QuerySpec max{.t1 = 1, .t2 = 400, .op = QueryOp::kMax};
  auto max_result = (*store)->QueryAggregate(ids, max);
  ASSERT_TRUE(max_result.ok());
  EXPECT_DOUBLE_EQ(max_result->estimate, 3.0);

  // Partial ranges combine CIs in quadrature: interval must contain truth.
  QuerySpec partial{.t1 = 100, .t2 = 250, .op = QueryOp::kCount};
  auto partial_result = (*store)->QueryAggregate(ids, partial);
  ASSERT_TRUE(partial_result.ok());
  EXPECT_LE(partial_result->ci_lo, 453.0);
  EXPECT_GE(partial_result->ci_hi, 453.0);

  // Unsupported ops and empty stream lists are rejected.
  QuerySpec mean{.t1 = 1, .t2 = 400, .op = QueryOp::kMean};
  EXPECT_EQ((*store)->QueryAggregate(ids, mean).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ((*store)->QueryAggregate({}, count).status().code(),
            StatusCode::kInvalidArgument);
}

class DurableStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ss_store_" + std::to_string(reinterpret_cast<uintptr_t>(this));
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override { ASSERT_TRUE(RemoveDirRecursive(dir_).ok()); }

  StoreOptions Options() {
    StoreOptions options;
    options.dir = dir_;
    return options;
  }

  std::string dir_;
};

TEST_F(DurableStoreTest, ReopenPreservesStreamsAndAnswers) {
  StreamId sid;
  double full_sum;
  {
    auto store = SummaryStore::Open(Options());
    ASSERT_TRUE(store.ok());
    auto created = (*store)->CreateStream(SmallConfig());
    ASSERT_TRUE(created.ok());
    sid = *created;
    for (int t = 1; t <= 2000; ++t) {
      ASSERT_TRUE((*store)->Append(sid, t, static_cast<double>(t % 7)).ok());
    }
    QuerySpec spec{.t1 = 1, .t2 = 2000, .op = QueryOp::kSum};
    full_sum = (*store)->Query(sid, spec)->estimate;
    ASSERT_TRUE((*store)->Flush().ok());
  }
  auto reopened = SummaryStore::Open(Options());
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ((*reopened)->ListStreams().size(), 1u);
  QuerySpec spec{.t1 = 1, .t2 = 2000, .op = QueryOp::kSum};
  auto result = (*reopened)->Query(sid, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->estimate, full_sum);
  // Partial-range queries agree too.
  QuerySpec partial{.t1 = 500, .t2 = 1500, .op = QueryOp::kCount};
  auto partial_result = (*reopened)->Query(sid, partial);
  ASSERT_TRUE(partial_result.ok());
  EXPECT_NEAR(partial_result->estimate, 1001.0, 25.0);
}

// Flush is a WAL barrier and writes no table, so a store reopened with a
// compaction trigger of two, given one small write and a Flush, reaches a
// single table through its close: the close-time memtable flush adds the
// second table and triggers a full compaction. Benchmarks bring loaded
// stores to one canonical table exactly this way.
TEST_F(DurableStoreTest, CloseAfterFlushCompactsToOneTable) {
  {
    StoreOptions options = Options();
    options.lsm.memtable_bytes = 16 << 10;  // many tables during the load
    options.lsm.compaction_trigger = 1000;  // and none merged yet
    auto store = SummaryStore::Open(options);
    ASSERT_TRUE(store.ok());
    for (StreamId id = 1; id <= 4; ++id) {
      ASSERT_TRUE((*store)->CreateStreamWithId(id, SmallConfig()).ok());
      for (int t = 1; t <= 3000; ++t) {
        ASSERT_TRUE((*store)->Append(id, t, 1.0).ok());
        if (t % 100 == 0) {
          ASSERT_TRUE((*store)->Flush().ok());
        }
      }
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    auto lsm = LsmStore::Open(dir_);
    ASSERT_TRUE(lsm.ok());
    ASSERT_GT((*lsm)->sstable_count(), 2u);
  }
  {
    StoreOptions options = Options();
    options.lsm.compaction_trigger = 2;
    auto store = SummaryStore::Open(options);
    ASSERT_TRUE(store.ok());
    const size_t tables_before = dynamic_cast<LsmStore&>((*store)->backend()).sstable_count();
    ASSERT_TRUE((*store)->CreateStreamWithId(1000, SmallConfig()).ok());
    ASSERT_TRUE((*store)->Flush().ok());
    // The barrier itself wrote no table.
    EXPECT_EQ(dynamic_cast<LsmStore&>((*store)->backend()).sstable_count(), tables_before);
  }
  auto lsm = LsmStore::Open(dir_);
  ASSERT_TRUE(lsm.ok());
  EXPECT_EQ((*lsm)->sstable_count(), 1u);
  lsm->reset();
  auto reopened = SummaryStore::Open(Options());
  ASSERT_TRUE(reopened.ok());
  for (StreamId id = 1; id <= 4; ++id) {
    QuerySpec spec{.t1 = 1, .t2 = 3000, .op = QueryOp::kCount};
    auto result = (*reopened)->Query(id, spec);
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result->estimate, 3000.0);
  }
}

TEST_F(DurableStoreTest, IngestContinuesAfterReopen) {
  StreamId sid;
  {
    auto store = SummaryStore::Open(Options());
    sid = *(*store)->CreateStream(SmallConfig());
    for (int t = 1; t <= 500; ++t) {
      ASSERT_TRUE((*store)->Append(sid, t, 1.0).ok());
    }
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    auto store = SummaryStore::Open(Options());
    for (int t = 501; t <= 1000; ++t) {
      ASSERT_TRUE((*store)->Append(sid, t, 1.0).ok());
    }
    QuerySpec spec{.t1 = 1, .t2 = 1000, .op = QueryOp::kCount};
    auto result = (*store)->Query(sid, spec);
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result->estimate, 1000.0);
    auto stream = (*store)->GetStream(sid);
    ASSERT_TRUE(stream.ok());
    EXPECT_EQ((*stream)->element_count(), 1000u);
  }
}

TEST_F(DurableStoreTest, ColdCacheQueryAfterEviction) {
  auto store = SummaryStore::Open(Options());
  StreamId sid = *(*store)->CreateStream(SmallConfig());
  for (int t = 1; t <= 3000; ++t) {
    ASSERT_TRUE((*store)->Append(sid, t, 1.0).ok());
  }
  ASSERT_TRUE((*store)->EvictAll().ok());
  (*store)->DropCaches();
  QuerySpec spec{.t1 = 100, .t2 = 2500, .op = QueryOp::kCount};
  auto result = (*store)->Query(sid, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->estimate, 2401.0, 60.0);
}

TEST_F(DurableStoreTest, WindowCacheBudgetBoundsResidentMemory) {
  auto store = SummaryStore::Open(Options());
  StreamConfig config = SmallConfig();
  config.window_cache_bytes = 16 << 10;  // keep only ~16 KiB of clean payloads
  StreamId sid = *(*store)->CreateStream(std::move(config));
  for (int t = 1; t <= 50000; ++t) {
    ASSERT_TRUE((*store)->Append(sid, t, static_cast<double>(t % 5)).ok());
  }
  ASSERT_TRUE((*store)->EvictAll().ok());

  auto* stream = (*store)->GetStream(sid).value();
  // Repeated wide queries load many windows; the budget must keep resident
  // clean payloads bounded while answers stay correct.
  for (int i = 0; i < 5; ++i) {
    QuerySpec spec{.t1 = 1, .t2 = 50000, .op = QueryOp::kCount};
    auto result = (*store)->Query(sid, spec);
    ASSERT_TRUE(result.ok());
    EXPECT_DOUBLE_EQ(result->estimate, 50000.0);
  }
  // After the query returns, the budget enforcement must have dropped the
  // bulk of the loaded payloads (allow one window of slack past the budget).
  uint64_t resident = stream->ResidentWindowBytes();
  EXPECT_LE(resident, (16u << 10) + 8192);
  EXPECT_LT(resident, stream->SizeBytes());
  // And answers stay correct afterwards.
  QuerySpec partial{.t1 = 10000, .t2 = 40000, .op = QueryOp::kSum};
  auto result = (*store)->Query(sid, partial);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->estimate, 0.0);
}

TEST_F(DurableStoreTest, TotalSizeGrowsSublinearly) {
  auto store = SummaryStore::Open(Options());
  StreamConfig config = SmallConfig();
  config.operators = OperatorSet::AggregatesOnly();
  config.raw_threshold = 4;
  StreamId sid = *(*store)->CreateStream(std::move(config));
  uint64_t size_at_10k = 0;
  for (int t = 1; t <= 100000; ++t) {
    ASSERT_TRUE((*store)->Append(sid, t, 1.0).ok());
    if (t == 10000) {
      size_at_10k = (*store)->TotalSizeBytes();
    }
  }
  uint64_t size_at_100k = (*store)->TotalSizeBytes();
  // Raw data grew 10x; a sqrt-decayed store should grow ~sqrt(10) ≈ 3.2x.
  double growth = static_cast<double>(size_at_100k) / static_cast<double>(size_at_10k);
  EXPECT_LT(growth, 5.0);
  EXPECT_GT(growth, 2.0);
}

// --- fleet-query CI regression coverage (PR 2 bugfixes) ---------------------

TEST(QueryAggregateCi, NegativeSumLowerBoundNotClampedAtZero) {
  auto store = SummaryStore::Open(StoreOptions{});
  std::vector<StreamId> ids;
  for (int s = 0; s < 2; ++s) {
    ids.push_back(*(*store)->CreateStream(SmallConfig()));
    for (int t = 1; t <= 2000; ++t) {
      ASSERT_TRUE((*store)->Append(ids.back(), t, -1.0).ok());
    }
  }
  // Unaligned sub-range: old windows are summarized, so partial coverage
  // forces estimation and a non-degenerate CI.
  QuerySpec spec{.t1 = 137, .t2 = 1721, .op = QueryOp::kSum};
  auto result = (*store)->QueryAggregate(ids, spec);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->exact);
  const double truth = 2.0 * -(1721 - 137 + 1);
  EXPECT_LT(result->estimate, 0.0);
  EXPECT_NEAR(result->estimate, truth, 0.05 * std::abs(truth));
  EXPECT_LE(result->ci_lo, result->estimate);
  EXPECT_GE(result->ci_hi, result->estimate);
  // The old clamp pinned ci_lo at 0, above the (negative) estimate.
  EXPECT_LT(result->ci_lo, 0.0);

  // Counts cannot be negative: their lower bound still clamps at zero.
  QuerySpec count{.t1 = 137, .t2 = 1721, .op = QueryOp::kCount};
  auto count_result = (*store)->QueryAggregate(ids, count);
  ASSERT_TRUE(count_result.ok());
  EXPECT_GE(count_result->ci_lo, 0.0);
}

TEST(QueryAggregateCi, InexactExtremumKeepsCandidateIntervals) {
  auto store = SummaryStore::Open(StoreOptions{});
  std::vector<StreamId> ids;
  for (int s = 0; s < 2; ++s) {
    ids.push_back(*(*store)->CreateStream(SmallConfig()));
    for (int t = 1; t <= 2000; ++t) {
      // A deep negative spike early in the stream, positive sawtooth after:
      // an old summarized window straddling the query start carries the
      // spike in its whole-window bound without witnessing it in range.
      double v = (t >= 140 && t <= 170) ? -1000.0 - s : (t % 10) + 1.0;
      ASSERT_TRUE((*store)->Append(ids.back(), t, v).ok());
    }
  }
  QuerySpec spec{.t1 = 171 + 4, .t2 = 1900, .op = QueryOp::kMin};
  auto result = (*store)->QueryAggregate(ids, spec);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->exact);
  // The old code collapsed the fleet CI to the estimate even when inexact.
  EXPECT_LT(result->ci_lo, result->ci_hi);
  EXPECT_LE(result->ci_lo, result->estimate);
  // True in-range min is 1.0 (sawtooth floor); the interval must contain it.
  EXPECT_LE(result->ci_lo, 1.0);
  EXPECT_GE(result->ci_hi, 1.0);

  // Mirrored for kMax over a negated query range.
  QuerySpec max_spec{.t1 = 171 + 4, .t2 = 1900, .op = QueryOp::kMax};
  auto max_result = (*store)->QueryAggregate(ids, max_spec);
  ASSERT_TRUE(max_result.ok());
  EXPECT_GE(max_result->ci_hi, max_result->ci_lo);
  EXPECT_GE(max_result->ci_hi, max_result->estimate - 1e-12);
}

TEST(QueryAggregateParallel, MatchesSerialBitwiseAnyIdOrder) {
  StoreOptions serial_options;
  serial_options.fleet_query_threads = 1;  // in-line, no pool
  StoreOptions parallel_options;
  parallel_options.fleet_query_threads = 4;
  auto serial = SummaryStore::Open(serial_options);
  auto parallel = SummaryStore::Open(parallel_options);
  std::vector<StreamId> ids;
  for (int s = 0; s < 9; ++s) {
    StreamId a = *(*serial)->CreateStream(SmallConfig());
    StreamId b = *(*parallel)->CreateStream(SmallConfig());
    ASSERT_EQ(a, b);
    ids.push_back(a);
    for (int t = 1; t <= 600; ++t) {
      double v = std::sin(0.1 * t) * (s + 1);
      ASSERT_TRUE((*serial)->Append(a, t, v).ok());
      ASSERT_TRUE((*parallel)->Append(b, t, v).ok());
    }
  }
  std::vector<StreamId> shuffled(ids.rbegin(), ids.rend());
  for (QueryOp op : {QueryOp::kCount, QueryOp::kSum, QueryOp::kMin, QueryOp::kMax}) {
    QuerySpec spec{.t1 = 50, .t2 = 487, .op = op};
    auto a = (*serial)->QueryAggregate(ids, spec);
    auto b = (*parallel)->QueryAggregate(shuffled, spec);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // Merges happen in ascending stream-id order on both paths, so the
    // floating-point results are bitwise identical.
    EXPECT_EQ(a->estimate, b->estimate) << QueryOpName(op);
    EXPECT_EQ(a->ci_lo, b->ci_lo) << QueryOpName(op);
    EXPECT_EQ(a->ci_hi, b->ci_hi) << QueryOpName(op);
    EXPECT_EQ(a->exact, b->exact) << QueryOpName(op);
  }
}

TEST(SummaryStoreApi, FailedCreateDoesNotLeakStreamIds) {
  auto store = SummaryStore::Open(StoreOptions{});
  StreamId a = *(*store)->CreateStream(SmallConfig());
  StreamConfig bad;  // null decay: rejected by CreateStream
  EXPECT_EQ((*store)->CreateStream(std::move(bad)).status().code(),
            StatusCode::kInvalidArgument);
  StreamId b = *(*store)->CreateStream(SmallConfig());
  // The id probed by the failed create is reused, not leaked.
  EXPECT_EQ(b, a + 1);
}

}  // namespace
}  // namespace ss
