#include "harness/oracle.h"

#include <algorithm>
#include <cmath>

namespace ssbench {

void StreamReference::Add(Timestamp ts, double value) {
  positions_[value].push_back(static_cast<uint32_t>(ts_.size()));
  ts_.push_back(ts);
  prefix_sum_.push_back(prefix_sum_.back() + value);
}

void StreamReference::AddAll(std::span<const Event> events) {
  for (const Event& e : events) {
    Add(e.ts, e.value);
  }
}

std::pair<size_t, size_t> StreamReference::IndexRange(Timestamp t1, Timestamp t2) const {
  if (t2 < t1) {
    return {0, 0};
  }
  size_t lo = static_cast<size_t>(std::lower_bound(ts_.begin(), ts_.end(), t1) - ts_.begin());
  size_t hi = static_cast<size_t>(std::upper_bound(ts_.begin(), ts_.end(), t2) - ts_.begin());
  return {lo, std::max(lo, hi)};
}

size_t StreamReference::CountInRange(const std::vector<uint32_t>& positions, size_t lo,
                                     size_t hi) const {
  auto first = std::lower_bound(positions.begin(), positions.end(), static_cast<uint32_t>(lo));
  auto last = std::lower_bound(first, positions.end(), static_cast<uint32_t>(hi));
  return static_cast<size_t>(last - first);
}

double StreamReference::Count(Timestamp t1, Timestamp t2) const {
  auto [lo, hi] = IndexRange(t1, t2);
  return static_cast<double>(hi - lo);
}

double StreamReference::Sum(Timestamp t1, Timestamp t2) const {
  auto [lo, hi] = IndexRange(t1, t2);
  return prefix_sum_[hi] - prefix_sum_[lo];
}

std::optional<double> StreamReference::Min(Timestamp t1, Timestamp t2) const {
  auto [lo, hi] = IndexRange(t1, t2);
  for (const auto& [value, positions] : positions_) {
    if (CountInRange(positions, lo, hi) > 0) {
      return value;
    }
  }
  return std::nullopt;
}

std::optional<double> StreamReference::Max(Timestamp t1, Timestamp t2) const {
  auto [lo, hi] = IndexRange(t1, t2);
  for (auto it = positions_.rbegin(); it != positions_.rend(); ++it) {
    if (CountInRange(it->second, lo, hi) > 0) {
      return it->first;
    }
  }
  return std::nullopt;
}

double StreamReference::Frequency(Timestamp t1, Timestamp t2, double value) const {
  auto it = positions_.find(value);
  if (it == positions_.end()) {
    return 0.0;
  }
  auto [lo, hi] = IndexRange(t1, t2);
  return static_cast<double>(CountInRange(it->second, lo, hi));
}

double StreamReference::Distinct(Timestamp t1, Timestamp t2) const {
  auto [lo, hi] = IndexRange(t1, t2);
  double distinct = 0.0;
  for (const auto& [value, positions] : positions_) {
    if (CountInRange(positions, lo, hi) > 0) {
      distinct += 1.0;
    }
  }
  return distinct;
}

std::optional<double> StreamReference::Quantile(Timestamp t1, Timestamp t2, double q) const {
  auto [lo, hi] = IndexRange(t1, t2);
  if (hi == lo) {
    return std::nullopt;
  }
  double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(hi - lo);
  double acc = 0.0;
  std::optional<double> last;
  for (const auto& [value, positions] : positions_) {
    size_t n = CountInRange(positions, lo, hi);
    if (n == 0) {
      continue;
    }
    acc += static_cast<double>(n);
    last = value;
    if (acc >= target) {
      return value;
    }
  }
  return last;
}

double StreamReference::ValueRangeCount(Timestamp t1, Timestamp t2, double lo_value,
                                        double hi_value) const {
  auto [lo, hi] = IndexRange(t1, t2);
  double count = 0.0;
  for (auto it = positions_.lower_bound(lo_value); it != positions_.end() && it->first < hi_value;
       ++it) {
    count += static_cast<double>(CountInRange(it->second, lo, hi));
  }
  return count;
}

std::optional<double> StreamReference::Truth(const QuerySpec& spec) const {
  const Timestamp t1 = spec.t1;
  const Timestamp t2 = spec.t2;
  switch (spec.op) {
    case QueryOp::kCount:
      return Count(t1, t2);
    case QueryOp::kSum:
      return Sum(t1, t2);
    case QueryOp::kMean: {
      double n = Count(t1, t2);
      if (n == 0.0) {
        return std::nullopt;
      }
      return Sum(t1, t2) / n;
    }
    case QueryOp::kMin:
      return Min(t1, t2);
    case QueryOp::kMax:
      return Max(t1, t2);
    case QueryOp::kExistence:
      return Frequency(t1, t2, spec.value) > 0.0 ? 1.0 : 0.0;
    case QueryOp::kFrequency:
      return Frequency(t1, t2, spec.value);
    case QueryOp::kDistinct:
      return Distinct(t1, t2);
    case QueryOp::kQuantile:
      return Quantile(t1, t2, spec.quantile_q);
    case QueryOp::kValueRangeCount:
      return ValueRangeCount(t1, t2, spec.value_lo, spec.value_hi);
    case QueryOp::kTopK:
      return std::nullopt;  // scored per candidate, not as one scalar
  }
  return std::nullopt;
}

std::optional<double> FleetTruth(std::span<const StreamReference* const> streams,
                                 const QuerySpec& spec) {
  std::optional<double> out;
  for (const StreamReference* ref : streams) {
    std::optional<double> part;
    switch (spec.op) {
      case QueryOp::kCount:
      case QueryOp::kSum:
        part = ref->Truth(spec);
        out = out.value_or(0.0) + *part;
        continue;
      case QueryOp::kMin:
        part = ref->Min(spec.t1, spec.t2);
        if (part.has_value()) {
          out = out.has_value() ? std::min(*out, *part) : *part;
        }
        continue;
      case QueryOp::kMax:
        part = ref->Max(spec.t1, spec.t2);
        if (part.has_value()) {
          out = out.has_value() ? std::max(*out, *part) : *part;
        }
        continue;
      default:
        return std::nullopt;
    }
  }
  return out;
}

}  // namespace ssbench
