#include "harness/score.h"

#include <algorithm>
#include <cmath>

namespace ssbench {

namespace {

constexpr size_t kMaxMessages = 8;

bool NearlyEqual(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

// ci_lo <= x <= ci_hi up to floating-point rounding of the bounds.
bool Within(double lo, double x, double hi) {
  double slack = 1e-9 * std::max({1.0, std::abs(lo), std::abs(hi)});
  return lo - slack <= x && x <= hi + slack;
}

std::string Describe(const QuerySpec& spec) {
  return std::string(OpKey(spec.op)) + "[" + std::to_string(spec.t1) + "," +
         std::to_string(spec.t2) + "]";
}

}  // namespace

const char* OpKey(QueryOp op) {
  switch (op) {
    case QueryOp::kCount:
      return "count";
    case QueryOp::kSum:
      return "sum";
    case QueryOp::kMean:
      return "mean";
    case QueryOp::kMin:
      return "min";
    case QueryOp::kMax:
      return "max";
    case QueryOp::kExistence:
      return "existence";
    case QueryOp::kFrequency:
      return "frequency";
    case QueryOp::kDistinct:
      return "distinct";
    case QueryOp::kQuantile:
      return "quantile";
    case QueryOp::kValueRangeCount:
      return "value_range_count";
    case QueryOp::kTopK:
      return "topk";
  }
  return "unknown";
}

double IntervalScore(double lo, double hi, double x, double alpha) {
  double score = hi - lo;
  if (x < lo) {
    score += 2.0 / alpha * (lo - x);
  } else if (x > hi) {
    score += 2.0 / alpha * (x - hi);
  }
  return score;
}

double RelativeIntervalScore(double lo, double hi, double x, double alpha) {
  return IntervalScore(lo, hi, x, alpha) / std::max(1.0, std::abs(x));
}

double CappedRelativeScore(double lo, double hi, double x, double alpha) {
  return std::min(RelativeIntervalScore(lo, hi, x, alpha), 2.0 / alpha);
}

void Gate::Fail(char check, const std::string& message) {
  ++violations_;
  if (messages_.size() < kMaxMessages) {
    messages_.push_back(std::string("(") + check + ") " + message);
  }
}

void Gate::Merge(const Gate& other) {
  violations_ += other.violations_;
  for (const std::string& m : other.messages_) {
    if (messages_.size() < kMaxMessages) {
      messages_.push_back(m);
    }
  }
  estimates_outside_ci_ += other.estimates_outside_ci_;
  for (const std::string& m : other.outside_examples_) {
    if (outside_examples_.size() < kMaxMessages) {
      outside_examples_.push_back(m);
    }
  }
}

void Gate::CheckShape(const ss::QueryResult& result, const std::string& what) {
  bool outside = false;
  auto check = [&](double lo, double est, double hi, const std::string& label) {
    if (!std::isfinite(lo) || !std::isfinite(est) || !std::isfinite(hi) || !(lo <= hi)) {
      Fail('c', label + ": answer " + std::to_string(est) + " with CI [" + std::to_string(lo) +
                    ", " + std::to_string(hi) + "]");
      return false;
    }
    outside = outside || !Within(lo, est, hi);
    return true;
  };
  if (!check(result.ci_lo, result.estimate, result.ci_hi, what)) {
    return;
  }
  for (const ss::TopKEntry& entry : result.topk) {
    if (!check(entry.ci_lo, entry.estimate, entry.ci_hi,
               what + " candidate " + std::to_string(entry.value))) {
      return;
    }
  }
  if (outside) {
    ++estimates_outside_ci_;
    if (outside_examples_.size() < kMaxMessages) {
      outside_examples_.push_back(what + ": estimate " + std::to_string(result.estimate) +
                                  " outside CI [" + std::to_string(result.ci_lo) + ", " +
                                  std::to_string(result.ci_hi) + "]");
    }
  }
}

void Scorer::Add(OpAccuracy& acc, double capped, double uncapped) {
  ++acc.answers;
  rel_score_sum_ += capped;
  uncapped_sum_ += uncapped;
  ++answers_;
}

void Scorer::Record(QueryOp op, double lo, double hi, double truth, double alpha) {
  OpAccuracy& acc = ops_[static_cast<size_t>(op)];
  acc.covered += Within(lo, truth, hi) ? 1 : 0;
  acc.rel_widths.push_back((hi - lo) / std::max(1.0, std::abs(truth)));
  Add(acc, CappedRelativeScore(lo, hi, truth, alpha), RelativeIntervalScore(lo, hi, truth, alpha));
}

void Scorer::Score(const QuerySpec& spec, const ss::QueryResult& result,
                   const StreamReference* ref, std::optional<double> fleet_truth,
                   bool gate_whole_range, Gate& gate) {
  const std::string what = Describe(spec);
  gate.CheckShape(result, what);
  const double alpha = 1.0 - result.confidence;

  if (spec.op == QueryOp::kTopK) {
    // One score per query: the mean over candidates of each bracket's score
    // against that candidate's true frequency; covered only if all are.
    if (ref == nullptr || result.topk.empty()) {
      return;
    }
    OpAccuracy& acc = ops_[static_cast<size_t>(QueryOp::kTopK)];
    double capped_sum = 0.0;
    double uncapped_sum = 0.0;
    bool all_covered = true;
    bool exact_miss = false;
    double head_width = 0.0;
    for (size_t i = 0; i < result.topk.size(); ++i) {
      const ss::TopKEntry& entry = result.topk[i];
      double truth = ref->Frequency(spec.t1, spec.t2, entry.value);
      if (!Within(entry.ci_lo, truth, entry.ci_hi)) {
        all_covered = false;
        gate.Fail('d', what + ": candidate " + std::to_string(entry.value) + " true frequency " +
                           std::to_string(truth) + " outside [" + std::to_string(entry.ci_lo) +
                           ", " + std::to_string(entry.ci_hi) + "]");
      }
      if (result.exact && !NearlyEqual(entry.estimate, truth)) {
        exact_miss = true;
      }
      capped_sum += CappedRelativeScore(entry.ci_lo, entry.ci_hi, truth, alpha);
      uncapped_sum += RelativeIntervalScore(entry.ci_lo, entry.ci_hi, truth, alpha);
      if (i == 0) {
        head_width = (entry.ci_hi - entry.ci_lo) / std::max(1.0, truth);
      }
    }
    const double n = static_cast<double>(result.topk.size());
    acc.covered += all_covered ? 1 : 0;
    acc.rel_widths.push_back(head_width);
    Add(acc, capped_sum / n, uncapped_sum / n);
    exact_label_misses_ += exact_miss ? 1 : 0;
    return;
  }

  std::optional<double> truth = ref != nullptr ? ref->Truth(spec) : fleet_truth;
  if (!truth.has_value()) {
    return;
  }
  if (gate_whole_range) {
    if (result.estimate != *truth || !result.exact) {
      gate.Fail('a', what + ": whole-range answer " + std::to_string(result.estimate) +
                         (result.exact ? " (exact)" : " (not labelled exact)") + ", reference " +
                         std::to_string(*truth));
    }
  }
  if (spec.op == QueryOp::kExistence && *truth > 0.0 && !(result.estimate > 0.0)) {
    gate.Fail('e', what + ": value " + std::to_string(spec.value) +
                       " is present but existence probability is 0");
  }
  if (result.exact && !NearlyEqual(result.estimate, *truth)) {
    ++exact_label_misses_;
  }
  if ((spec.op == QueryOp::kMin || spec.op == QueryOp::kMax) &&
      !Within(result.ci_lo, *truth, result.ci_hi)) {
    ++bracket_misses_;
  }
  Record(spec.op, result.ci_lo, result.ci_hi, *truth, alpha);
}

double Scorer::MeanIntervalScore() const {
  return answers_ == 0 ? 0.0 : rel_score_sum_ / static_cast<double>(answers_);
}

double Scorer::MeanUncappedScore() const {
  return answers_ == 0 ? 0.0 : uncapped_sum_ / static_cast<double>(answers_);
}

}  // namespace ssbench
