// Answer scoring and the correctness gate.
//
// The gate asserts only guarantees the store's code makes (NOTES.md lists
// them with code references):
//   (a) whole-range count, sum, min and max equal the reference exactly and
//       are labelled exact — every acked append is stored;
//   (b) no non-OK response;
//   (c) every answer is finite with ci_lo <= ci_hi (the engine clamps its
//       bounds so; the estimate itself may fall outside them — see
//       estimates_outside_ci, measured but not gated);
//   (d) each top-k candidate's true in-range frequency lies in its bracket;
//   (e) a value present in the range never gets existence probability 0.
// Statistical coverage is measured (Scorer) but not gated.
#ifndef SSBENCH_HARNESS_SCORE_H_
#define SSBENCH_HARNESS_SCORE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/query.h"
#include "harness/oracle.h"

namespace ssbench {

inline constexpr size_t kNumOps = 11;  // QueryOp::kCount .. QueryOp::kTopK
// Metric-name spelling of each QueryOp (ss::QueryOpName order).
const char* OpKey(QueryOp op);

// Gneiting–Raftery interval score of the central (1 - alpha) interval
// [lo, hi] for outcome x: width plus 2/alpha times the distance by which x
// falls outside the interval.
double IntervalScore(double lo, double hi, double x, double alpha);
// The interval score relative to max(1, |x|), the benchmark's accuracy unit.
double RelativeIntervalScore(double lo, double hi, double x, double alpha);
// The relative score an answer counts for in the mean: capped at 2/alpha,
// the score of a zero-width interval that misses by the whole truth (40 at
// 95%). Uncapped, a single zero-width miss on a small truth scores in the
// tens of thousands and the mean swings with the seed; capped, every such
// answer still costs the most an answer can.
double CappedRelativeScore(double lo, double hi, double x, double alpha);

// Counts gate violations and keeps the first few messages for the report.
class Gate {
 public:
  void Fail(char check, const std::string& message);
  // Adds another gate's violations (per-thread gates merged after join).
  void Merge(const Gate& other);
  bool passed() const { return violations_ == 0; }
  uint64_t violations() const { return violations_; }
  const std::vector<std::string>& messages() const { return messages_; }

  // (c): finite estimate and bounds with ci_lo <= ci_hi (and the same for
  // every top-k candidate). Counts answers whose estimate lies outside
  // their own interval without failing the gate.
  void CheckShape(const ss::QueryResult& result, const std::string& what);
  uint64_t estimates_outside_ci() const { return estimates_outside_ci_; }
  // First few answers counted in estimates_outside_ci (for the report).
  const std::vector<std::string>& outside_examples() const { return outside_examples_; }

 private:
  uint64_t violations_ = 0;
  std::vector<std::string> messages_;
  uint64_t estimates_outside_ci_ = 0;
  std::vector<std::string> outside_examples_;
};

// Per-operator accuracy of scored answers.
struct OpAccuracy {
  uint64_t answers = 0;
  uint64_t covered = 0;            // truth inside [ci_lo, ci_hi]
  std::vector<double> rel_widths;  // (ci_hi - ci_lo) / max(1, |truth|)
};

class Scorer {
 public:
  // Scores one answer against the reference; applies gate checks (c), (d)
  // and (e). `fleet` answers carry their combined truth in `fleet_truth`.
  // `gate_whole_range` additionally applies check (a).
  void Score(const QuerySpec& spec, const ss::QueryResult& result, const StreamReference* ref,
             std::optional<double> fleet_truth, bool gate_whole_range, Gate& gate);

  // Mean capped relative interval score over every scored answer.
  double MeanIntervalScore() const;
  // The same mean without the cap (reported for reference).
  double MeanUncappedScore() const;
  uint64_t answers() const { return answers_; }
  // Answers labelled exact whose estimate differs from the truth.
  uint64_t exact_label_misses() const { return exact_label_misses_; }
  // Hard brackets (min/max, which the engine documents as bounding the true
  // extremum) that exclude the truth.
  uint64_t bracket_misses() const { return bracket_misses_; }
  const OpAccuracy& op(QueryOp op) const { return ops_[static_cast<size_t>(op)]; }

 private:
  void Record(QueryOp op, double lo, double hi, double truth, double alpha);
  void Add(OpAccuracy& acc, double capped, double uncapped);

  std::array<OpAccuracy, kNumOps> ops_{};
  double rel_score_sum_ = 0.0;  // capped
  double uncapped_sum_ = 0.0;
  uint64_t answers_ = 0;
  uint64_t exact_label_misses_ = 0;
  uint64_t bracket_misses_ = 0;
};

}  // namespace ssbench

#endif  // SSBENCH_HARNESS_SCORE_H_
