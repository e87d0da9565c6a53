// Reference answers: the load generator's own record of every acked event,
// indexed so each query operator's true answer over [t1, t2] is cheap to
// compute (prefix sums for count/sum, a per-value position index for the
// value-domain operators). The benchmark's values are small integers, so
// every per-value loop is over at most a thousand distinct values.
#ifndef SSBENCH_HARNESS_ORACLE_H_
#define SSBENCH_HARNESS_ORACLE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/core/query.h"

namespace ssbench {

using ss::Event;
using ss::QueryOp;
using ss::QuerySpec;
using ss::StreamId;
using ss::Timestamp;

class StreamReference {
 public:
  // Events must arrive in non-decreasing timestamp order (stream order).
  void Add(Timestamp ts, double value);
  void AddAll(std::span<const Event> events);

  size_t size() const { return ts_.size(); }
  bool empty() const { return ts_.empty(); }
  Timestamp ts(size_t i) const { return ts_[i]; }
  Timestamp first_ts() const { return ts_.front(); }
  Timestamp last_ts() const { return ts_.back(); }

  // Index range [lo, hi) of the events with t1 <= ts <= t2.
  std::pair<size_t, size_t> IndexRange(Timestamp t1, Timestamp t2) const;

  double Count(Timestamp t1, Timestamp t2) const;
  double Sum(Timestamp t1, Timestamp t2) const;
  std::optional<double> Min(Timestamp t1, Timestamp t2) const;
  std::optional<double> Max(Timestamp t1, Timestamp t2) const;
  double Frequency(Timestamp t1, Timestamp t2, double value) const;
  double Distinct(Timestamp t1, Timestamp t2) const;
  // Smallest value v whose in-range cumulative count reaches q * n (the
  // convention of the store's quantile sketch).
  std::optional<double> Quantile(Timestamp t1, Timestamp t2, double q) const;
  // Events with value in [lo, hi).
  double ValueRangeCount(Timestamp t1, Timestamp t2, double lo, double hi) const;

  // The true scalar answer of `spec` (the value the estimate and CI aim at):
  // existence is 1/0, top-k is the true frequency of the strongest
  // candidate's value (see Scorer). nullopt when the range holds no event
  // and the operator has no answer (min/max/mean/quantile).
  std::optional<double> Truth(const QuerySpec& spec) const;

 private:
  size_t CountInRange(const std::vector<uint32_t>& positions, size_t lo, size_t hi) const;

  std::vector<Timestamp> ts_;
  std::vector<double> prefix_sum_{0.0};  // prefix_sum_[i] = sum of the first i values
  std::map<double, std::vector<uint32_t>> positions_;  // value -> ascending indices
};

// Fleet answer over several streams (QueryAggregate semantics: count and
// sum add up, min and max take the extreme of the non-empty streams).
std::optional<double> FleetTruth(std::span<const StreamReference* const> streams,
                                 const QuerySpec& spec);

}  // namespace ssbench

#endif  // SSBENCH_HARNESS_ORACLE_H_
