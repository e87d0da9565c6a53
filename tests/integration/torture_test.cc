// Durability/consistency torture: a random interleaving of appends,
// flushes, evictions, cache drops, landmarks and store reopens must never
// change what queries see. Count/sum answers are compared against an exact
// oracle after every perturbation — full-range queries must stay exact,
// sub-range queries must stay inside their own confidence intervals.
#include <gtest/gtest.h>

#include "bench/bench_util.h"
#include "src/core/summary_store.h"
#include "src/workload/generators.h"

namespace ss {
namespace {

using bench::Oracle;

class TortureTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/ss_torture_" + std::to_string(GetParam()) + "_" +
           std::to_string(reinterpret_cast<uintptr_t>(this));
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override { ASSERT_TRUE(RemoveDirRecursive(dir_).ok()); }

  StoreOptions Options() {
    StoreOptions options;
    options.dir = dir_;
    options.lsm.memtable_bytes = 32 << 10;  // force real storage churn
    return options;
  }

  std::string dir_;
};

TEST_P(TortureTest, RandomOpInterleavingsPreserveAnswers) {
  uint64_t seed = 1000 + static_cast<uint64_t>(GetParam());
  Rng rng(seed);

  auto store = SummaryStore::Open(Options());
  ASSERT_TRUE(store.ok());
  StreamConfig config;
  config.decay = std::make_shared<PowerLawDecay>(1, 1, 2, 1);
  config.operators = OperatorSet::Microbench();
  config.operators.cms_width = 128;
  config.raw_threshold = 8;
  config.seed = seed;
  StreamId sid = *(*store)->CreateStream(std::move(config));

  Oracle oracle;
  SyntheticStreamSpec spec;
  spec.arrival = ArrivalKind::kPoisson;
  spec.mean_interarrival = 3.0;
  spec.seed = seed ^ 0xabc;
  SyntheticStream gen(spec);
  bool in_landmark = false;
  int landmarks_opened = 0;

  auto check = [&] {
    if (oracle.size() < 10) {
      return;
    }
    // Full range: exact (summaries + landmarks weave seamlessly).
    QuerySpec full{.t1 = oracle.first_ts(), .t2 = oracle.last_ts(), .op = QueryOp::kCount};
    auto count = (*store)->Query(sid, full);
    ASSERT_TRUE(count.ok());
    ASSERT_DOUBLE_EQ(count->estimate, oracle.Count(full.t1, full.t2));
    full.op = QueryOp::kSum;
    auto sum = (*store)->Query(sid, full);
    ASSERT_TRUE(sum.ok());
    ASSERT_NEAR(sum->estimate, oracle.Sum(full.t1, full.t2), 1e-6);
    // Random sub-range: truth within the CI (with a whisker of slack for
    // the boundary-straddling estimate).
    Timestamp span = oracle.last_ts() - oracle.first_ts();
    Timestamp t1 = oracle.first_ts() +
                   static_cast<Timestamp>(rng.NextBounded(static_cast<uint64_t>(span / 2 + 1)));
    Timestamp t2 = t1 + 1 + static_cast<Timestamp>(
                                rng.NextBounded(static_cast<uint64_t>(span / 2 + 1)));
    QuerySpec sub{.t1 = t1, .t2 = t2, .op = QueryOp::kCount, .confidence = 0.999};
    auto sub_count = (*store)->Query(sid, sub);
    ASSERT_TRUE(sub_count.ok());
    double truth = oracle.Count(t1, t2);
    double slack = 3.0 + truth * 0.02;
    EXPECT_GE(truth, sub_count->ci_lo - slack);
    EXPECT_LE(truth, sub_count->ci_hi + slack);
  };

  for (int step = 0; step < 1200; ++step) {
    uint64_t dice = rng.NextBounded(100);
    if (dice < 78) {  // append
      Event e = gen.Next();
      oracle.Add(e);
      ASSERT_TRUE((*store)->Append(sid, e.ts, e.value).ok());
    } else if (dice < 82 && !in_landmark && oracle.size() > 0) {  // open landmark
      ASSERT_TRUE((*store)->BeginLandmark(sid, oracle.last_ts()).ok());
      in_landmark = true;
      ++landmarks_opened;
    } else if (dice < 86 && in_landmark) {  // close landmark
      ASSERT_TRUE((*store)->EndLandmark(sid, oracle.last_ts()).ok());
      in_landmark = false;
    } else if (dice < 90) {  // flush
      ASSERT_TRUE((*store)->Flush().ok());
    } else if (dice < 93) {  // evict payloads
      ASSERT_TRUE((*store)->EvictAll().ok());
    } else if (dice < 96) {  // drop caches
      (*store)->DropCaches();
    } else {  // reopen the whole store
      ASSERT_TRUE((*store)->Flush().ok());
      store->reset();  // close before reopening: one live store per directory
      store = SummaryStore::Open(Options());
      ASSERT_TRUE(store.ok());
      in_landmark = (*(*store)->GetStream(sid))->in_landmark();
    }
    if (step % 60 == 59) {
      check();
    }
  }
  check();
  EXPECT_GT(oracle.size(), 500u);
  EXPECT_GT(landmarks_opened, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TortureTest, ::testing::Range(0, 4));

}  // namespace
}  // namespace ss
