#include "harness/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace ssbench {

double Quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) { return Quantile(samples, 0.5); }

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    return 0.0;
  }
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::optional<double> TailQuantile(std::vector<double>& samples, double q, size_t min_beyond) {
  double beyond = (1.0 - q) * static_cast<double>(samples.size());
  if (samples.empty() || beyond + 1e-9 < static_cast<double>(min_beyond)) {
    return std::nullopt;
  }
  return Quantile(samples, q);
}

HistSnapshot HistSnapshot::Of(const ss::LatencyHistogram& hist) {
  HistSnapshot snap;
  for (size_t k = 0; k < snap.buckets.size(); ++k) {
    snap.buckets[k] = hist.BucketCount(k);
  }
  snap.count = hist.count();
  snap.sum = hist.sum();
  return snap;
}

HistSnapshot HistSnapshot::Minus(const HistSnapshot& earlier) const {
  HistSnapshot out;
  for (size_t k = 0; k < buckets.size(); ++k) {
    out.buckets[k] = buckets[k] - earlier.buckets[k];
  }
  out.count = count - earlier.count;
  out.sum = sum - earlier.sum;
  return out;
}

double HistSnapshot::Quantile(double q) const {
  uint64_t total = 0;
  for (uint64_t b : buckets) {
    total += b;
  }
  if (total == 0) {
    return 0.0;
  }
  double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  double seen = 0.0;
  for (size_t k = 0; k < buckets.size(); ++k) {
    if (buckets[k] == 0) {
      continue;
    }
    double next = seen + static_cast<double>(buckets[k]);
    if (next >= target) {
      if (k == 0) {
        return 0.0;
      }
      double lo = std::ldexp(1.0, static_cast<int>(k) - 1);
      double frac = (target - seen) / static_cast<double>(buckets[k]);
      return lo + lo * frac;  // bucket spans [lo, 2 lo)
    }
    seen = next;
  }
  return std::ldexp(1.0, static_cast<int>(buckets.size()) - 1);
}

std::optional<double> HistSnapshot::TailQuantile(double q, size_t min_beyond) const {
  double beyond = (1.0 - q) * static_cast<double>(count);
  if (count == 0 || beyond + 1e-9 < static_cast<double>(min_beyond)) {
    return std::nullopt;
  }
  return Quantile(q);
}

void JsonWriter::Separate() {
  if (need_comma_) {
    out_ += ',';
  }
  need_comma_ = true;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Separate();
  out_ += '"';
  out_ += key;
  out_ += "\":";
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view value) {
  Separate();
  out_ += '"';
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out_ += ' ';
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Number(double value) {
  Separate();
  if (!std::isfinite(value)) {
    out_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  Separate();
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

}  // namespace ssbench
