// Self-tests of the benchmark's own machinery: the reference oracle against
// a brute-force scan, the ten-samples-beyond rule for tail percentiles, the
// interval score on hand-computed cases, and the correctness gate firing on
// deliberately corrupted answers.
//
//   cmake --build .bench_build/ssbench --target ssbench_selftest
//   .bench_build/ssbench/ssbench_selftest
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "harness/oracle.h"
#include "harness/score.h"
#include "harness/stats.h"
#include "src/random/rng.h"

namespace ssbench {
namespace {

std::vector<Event> SmallStream(uint64_t seed, size_t n) {
  ss::Rng rng(seed);
  std::vector<Event> events;
  Timestamp ts = 0;
  for (size_t i = 0; i < n; ++i) {
    ts += 1 + static_cast<Timestamp>(rng.NextBounded(5));
    events.push_back(Event{ts, static_cast<double>(1 + rng.NextBounded(12))});
  }
  return events;
}

// Brute-force answers by scanning every event.
std::vector<double> InRange(const std::vector<Event>& events, Timestamp t1, Timestamp t2) {
  std::vector<double> out;
  for (const Event& e : events) {
    if (e.ts >= t1 && e.ts <= t2) {
      out.push_back(e.value);
    }
  }
  return out;
}

TEST(Oracle, MatchesBruteForceScan) {
  std::vector<Event> events = SmallStream(7, 400);
  StreamReference ref;
  ref.AddAll(events);
  ss::Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    Timestamp a = static_cast<Timestamp>(rng.NextBounded(1300));
    Timestamp b = static_cast<Timestamp>(rng.NextBounded(1300));
    Timestamp t1 = std::min(a, b);
    Timestamp t2 = std::max(a, b);
    std::vector<double> v = InRange(events, t1, t2);
    std::sort(v.begin(), v.end());
    double sum = 0.0;
    for (double x : v) {
      sum += x;
    }
    EXPECT_EQ(ref.Count(t1, t2), static_cast<double>(v.size()));
    EXPECT_EQ(ref.Sum(t1, t2), sum);
    EXPECT_EQ(ref.Distinct(t1, t2),
              static_cast<double>(std::set<double>(v.begin(), v.end()).size()));
    double probe_value = static_cast<double>(1 + rng.NextBounded(14));
    EXPECT_EQ(ref.Frequency(t1, t2, probe_value),
              static_cast<double>(std::count(v.begin(), v.end(), probe_value)));
    EXPECT_EQ(ref.ValueRangeCount(t1, t2, 3.0, 8.0),
              static_cast<double>(std::count_if(v.begin(), v.end(),
                                                [](double x) { return x >= 3.0 && x < 8.0; })));
    if (v.empty()) {
      EXPECT_FALSE(ref.Min(t1, t2).has_value());
      EXPECT_FALSE(ref.Quantile(t1, t2, 0.5).has_value());
      continue;
    }
    EXPECT_EQ(ref.Min(t1, t2), v.front());
    EXPECT_EQ(ref.Max(t1, t2), v.back());
    for (double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
      // Smallest value whose cumulative count reaches q * n.
      double target = q * static_cast<double>(v.size());
      size_t rank = 0;
      while (rank + 1 < v.size() && static_cast<double>(rank + 1) < target) {
        ++rank;
      }
      EXPECT_EQ(ref.Quantile(t1, t2, q), v[rank]) << "q=" << q;
    }
  }
}

TEST(Oracle, FleetTruthCombinesStreams) {
  StreamReference a;
  StreamReference b;
  a.AddAll(std::vector<Event>{{1, 5.0}, {2, 7.0}});
  b.AddAll(std::vector<Event>{{2, 3.0}, {9, 10.0}});
  std::vector<const StreamReference*> fleet = {&a, &b};
  QuerySpec spec;
  spec.t1 = 1;
  spec.t2 = 2;
  spec.op = QueryOp::kCount;
  EXPECT_EQ(FleetTruth(fleet, spec), 3.0);
  spec.op = QueryOp::kSum;
  EXPECT_EQ(FleetTruth(fleet, spec), 15.0);
  spec.op = QueryOp::kMin;
  EXPECT_EQ(FleetTruth(fleet, spec), 3.0);
  spec.op = QueryOp::kMax;
  EXPECT_EQ(FleetTruth(fleet, spec), 7.0);
}

TEST(TailRule, P99NeedsTenSamplesBeyondIt) {
  std::vector<double> samples(999);
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<double>(i);
  }
  EXPECT_FALSE(TailQuantile(samples, 0.99).has_value());
  samples.push_back(999.0);
  ASSERT_TRUE(TailQuantile(samples, 0.99).has_value());
  EXPECT_NEAR(*TailQuantile(samples, 0.99), 989.01, 1e-9);
  std::vector<double> few(19, 1.0);
  EXPECT_FALSE(TailQuantile(few, 0.5).has_value());
  few.push_back(1.0);
  EXPECT_TRUE(TailQuantile(few, 0.5).has_value());
}

TEST(TailRule, HistogramSnapshotAppliesTheSameRule) {
  ss::LatencyHistogram hist;
  for (int i = 0; i < 999; ++i) {
    hist.Record(100);
  }
  HistSnapshot snap = HistSnapshot::Of(hist);
  EXPECT_FALSE(snap.TailQuantile(0.99).has_value());
  hist.Record(100);
  snap = HistSnapshot::Of(hist);
  ASSERT_TRUE(snap.TailQuantile(0.99).has_value());
  // 100 lies in bucket [64, 128); the interpolated quantile stays inside it.
  EXPECT_GE(*snap.TailQuantile(0.99), 64.0);
  EXPECT_LT(*snap.TailQuantile(0.99), 128.0);
  HistSnapshot none = snap.Minus(snap);
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.Quantile(0.5), 0.0);
}

TEST(IntervalScore, HandComputedCases) {
  // Covered: the score is the width.
  EXPECT_DOUBLE_EQ(IntervalScore(8.0, 12.0, 10.0, 0.05), 4.0);
  // Below the interval: width + (2 / 0.05) * 3 = 4 + 120.
  EXPECT_DOUBLE_EQ(IntervalScore(8.0, 12.0, 5.0, 0.05), 124.0);
  // Above: width + (2 / 0.1) * 0.5 = 4 + 10.
  EXPECT_DOUBLE_EQ(IntervalScore(8.0, 12.0, 12.5, 0.1), 14.0);
  // A zero-width "exact" interval that misses by 1 costs 40 at 95%.
  EXPECT_DOUBLE_EQ(IntervalScore(10.0, 10.0, 11.0, 0.05), 40.0);
  // Relative to max(1, |truth|).
  EXPECT_DOUBLE_EQ(RelativeIntervalScore(8.0, 12.0, 10.0, 0.05), 0.4);
  EXPECT_DOUBLE_EQ(RelativeIntervalScore(0.0, 0.5, 0.0, 0.05), 0.5);
  // A zero-width max of 987 when the truth is 3: 40 * 984 / 3 uncapped,
  // capped at 2 / alpha.
  EXPECT_DOUBLE_EQ(RelativeIntervalScore(987.0, 987.0, 3.0, 0.05), 13120.0);
  EXPECT_DOUBLE_EQ(CappedRelativeScore(987.0, 987.0, 3.0, 0.05), 40.0);
  EXPECT_DOUBLE_EQ(CappedRelativeScore(8.0, 12.0, 10.0, 0.05), 0.4);
}

QuerySpec WholeRange(const StreamReference& ref, QueryOp op) {
  QuerySpec spec;
  spec.t1 = ref.first_ts();
  spec.t2 = ref.last_ts();
  spec.op = op;
  return spec;
}

ss::QueryResult Exact(double v) {
  ss::QueryResult r;
  r.estimate = r.ci_lo = r.ci_hi = v;
  r.exact = true;
  return r;
}

TEST(Gate, PassesCorrectWholeRangeAnswers) {
  StreamReference ref;
  ref.AddAll(SmallStream(3, 50));
  Gate gate;
  Scorer scorer;
  for (QueryOp op : {QueryOp::kCount, QueryOp::kSum, QueryOp::kMin, QueryOp::kMax}) {
    QuerySpec spec = WholeRange(ref, op);
    scorer.Score(spec, Exact(*ref.Truth(spec)), &ref, std::nullopt, true, gate);
  }
  EXPECT_TRUE(gate.passed());
  EXPECT_EQ(scorer.exact_label_misses(), 0u);
  EXPECT_DOUBLE_EQ(scorer.MeanIntervalScore(), 0.0);
}

TEST(Gate, FiresOnCountOffByOne) {
  StreamReference ref;
  ref.AddAll(SmallStream(3, 50));
  Gate gate;
  Scorer scorer;
  QuerySpec spec = WholeRange(ref, QueryOp::kCount);
  scorer.Score(spec, Exact(*ref.Truth(spec) - 1.0), &ref, std::nullopt, true, gate);
  EXPECT_FALSE(gate.passed());
  ASSERT_FALSE(gate.messages().empty());
  EXPECT_EQ(gate.messages()[0].rfind("(a)", 0), 0u);
  EXPECT_EQ(scorer.exact_label_misses(), 1u);
  // 40 / 50 at 95% confidence: a miss by one on a count of fifty.
  EXPECT_NEAR(scorer.MeanIntervalScore(), 40.0 / 50.0, 1e-12);
}

TEST(Gate, FiresOnInvertedOrNonFiniteInterval) {
  Gate gate;
  ss::QueryResult r;
  r.estimate = 7.0;
  r.ci_lo = 9.0;
  r.ci_hi = 6.0;
  gate.CheckShape(r, "sum");
  EXPECT_FALSE(gate.passed());
  EXPECT_EQ(gate.messages()[0].rfind("(c)", 0), 0u);
  Gate gate2;
  r.ci_lo = 6.0;
  r.ci_hi = std::numeric_limits<double>::infinity();
  gate2.CheckShape(r, "sum");
  EXPECT_FALSE(gate2.passed());
}

TEST(Gate, CountsEstimateOutsideItsIntervalWithoutFailing) {
  Gate gate;
  ss::QueryResult r;
  r.estimate = 0.001;  // a binomial interval whose quantiles are both 0
  r.ci_lo = 0.0;
  r.ci_hi = 0.0;
  gate.CheckShape(r, "count");
  EXPECT_TRUE(gate.passed());
  EXPECT_EQ(gate.estimates_outside_ci(), 1u);
}

TEST(Gate, FiresOnTopKBracketMissAndZeroExistence) {
  StreamReference ref;
  ref.AddAll(std::vector<Event>{{1, 4.0}, {2, 4.0}, {3, 4.0}, {4, 9.0}});
  Gate gate;
  Scorer scorer;
  QuerySpec topk = WholeRange(ref, QueryOp::kTopK);
  ss::QueryResult r;
  r.exact = false;
  r.topk.push_back(ss::TopKEntry{4.0, 2.0, 1.0, 2.0});  // true frequency 3 is outside
  r.estimate = 2.0;
  r.ci_lo = 1.0;
  r.ci_hi = 2.0;
  scorer.Score(topk, r, &ref, std::nullopt, false, gate);
  EXPECT_FALSE(gate.passed());
  EXPECT_EQ(gate.messages()[0].rfind("(d)", 0), 0u);

  Gate gate2;
  QuerySpec exists = WholeRange(ref, QueryOp::kExistence);
  exists.value = 9.0;
  ss::QueryResult zero;
  zero.exact = false;
  zero.ci_hi = 0.2;
  scorer.Score(exists, zero, &ref, std::nullopt, false, gate2);
  EXPECT_FALSE(gate2.passed());
  EXPECT_EQ(gate2.messages()[0].rfind("(e)", 0), 0u);
}

TEST(Scorer, CountsBracketMissesOnMinMax) {
  StreamReference ref;
  ref.AddAll(std::vector<Event>{{1, 4.0}, {2, 940.0}, {3, 7.0}});
  Gate gate;
  Scorer scorer;
  QuerySpec spec = WholeRange(ref, QueryOp::kMax);
  spec.t1 = 2;
  spec.t2 = 2;
  ss::QueryResult r;
  r.exact = false;
  r.estimate = r.ci_lo = r.ci_hi = 987.0;  // a bound of a partially covered window
  scorer.Score(spec, r, &ref, std::nullopt, false, gate);
  EXPECT_TRUE(gate.passed());  // not a gated guarantee; measured instead
  EXPECT_EQ(scorer.bracket_misses(), 1u);
  EXPECT_EQ(scorer.op(QueryOp::kMax).covered, 0u);
}

}  // namespace
}  // namespace ssbench
