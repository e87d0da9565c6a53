// Sample statistics for the benchmark report: exact percentiles over
// recorded samples (with the "ten samples beyond it" rule for tail
// percentiles), deltas of the store's MetricRegistry histograms, and a small
// JSON writer for the result line.
#ifndef SSBENCH_HARNESS_STATS_H_
#define SSBENCH_HARNESS_STATS_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"

namespace ssbench {

// Linear-interpolated q-quantile (q in [0, 1]) of `samples`; 0 when empty.
// Sorts the vector in place.
double Quantile(std::vector<double>& samples, double q);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

// The q-quantile only when at least `min_beyond` samples lie strictly above
// its rank, i.e. (1 - q) * n >= min_beyond; nullopt otherwise. A p99 thus
// needs at least 1000 samples.
std::optional<double> TailQuantile(std::vector<double>& samples, double q,
                                   size_t min_beyond = 10);

// Snapshot of one LatencyHistogram (bucket counts, count, sum) so that two
// snapshots give the distribution recorded between them.
struct HistSnapshot {
  std::array<uint64_t, ss::LatencyHistogram::kNumBuckets> buckets{};
  uint64_t count = 0;
  uint64_t sum = 0;

  static HistSnapshot Of(const ss::LatencyHistogram& hist);
  HistSnapshot Minus(const HistSnapshot& earlier) const;
  double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }
  // q-quantile interpolated linearly inside the covering power-of-two bucket
  // ([2^(k-1), 2^k) for bucket k >= 1, {0} for bucket 0).
  double Quantile(double q) const;
  // Tail quantile under the same ten-beyond rule as TailQuantile.
  std::optional<double> TailQuantile(double q, size_t min_beyond = 10) const;
};

// Builds the one-line JSON objects the benchmark prints.
class JsonWriter {
 public:
  JsonWriter& Key(std::string_view key);
  JsonWriter& String(std::string_view value);
  JsonWriter& Number(double value);
  JsonWriter& Int(int64_t value);
  JsonWriter& Bool(bool value);
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  const std::string& str() const { return out_; }

 private:
  void Separate();

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace ssbench

#endif  // SSBENCH_HARNESS_STATS_H_
