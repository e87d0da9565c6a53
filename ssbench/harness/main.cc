// ssbench: the repository's end-to-end benchmark program.
//
//   ssbench --workload query|mixed --seed N --seconds S --trace 0|1
//           --work-dir DIR --out-dir DIR
//
// Prints human-readable lines (host fingerprint, every metric with its
// sample count, gate violations) and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the workload runs twice —
// untraced, then traced — and the metrics are the per-layer set plus
// trace.overhead.<metric>: how much worse the traced pass read than the
// untraced one, relative to the untraced figure, so positive is a cost.
// A full report with the fingerprint goes to --out-dir, and a traced run
// also writes its spans there.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "harness/host.h"
#include "harness/stats.h"
#include "harness/tracing.h"
#include "harness/workloads.h"
#include "src/net/socket.h"
#include "src/storage/file_util.h"

namespace {

using namespace ssbench;

int Usage(const char* msg) {
  std::fprintf(stderr,
               "ssbench: %s\nusage: ssbench --workload query|mixed --seed N --seconds S "
               "--trace 0|1 --work-dir DIR --out-dir DIR\n",
               msg);
  return 2;
}

void PrintMetrics(const char* title, const std::map<std::string, Measured>& metrics) {
  std::printf("# %s\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("#   %-44s %14.6g %-12s n=%llu%s%s\n", name.c_str(), m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples), m.note.empty() ? "" : "  ",
                m.note.c_str());
  }
}

void WriteMetrics(JsonWriter& json, const std::map<std::string, Measured>& metrics,
                  bool with_detail) {
  json.BeginObject();
  for (const auto& [name, m] : metrics) {
    json.Key(name).BeginObject().Key("value").Number(m.value).Key("unit").String(m.unit);
    if (with_detail) {
      json.Key("samples").Int(static_cast<int64_t>(m.samples));
      if (!m.note.empty()) {
        json.Key("note").String(m.note);
      }
    }
    json.EndObject();
  }
  json.EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  int trace = -1;
  std::string out_dir;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) {
    return Usage("flags take one value each");
  }
  if (!IsWorkload(config.workload) || config.seconds < 1 || (trace != 0 && trace != 1) ||
      config.work_dir.empty() || out_dir.empty()) {
    return Usage("missing or invalid arguments");
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);
  std::filesystem::create_directories(out_dir, ec);

  CountingNetOps net_ops;
  ss::net::SetNetOpsForTest(&net_ops);
  TimingFileOps file_ops;

  const HostFingerprint fp = Fingerprint();
  const double cpu_ref_ms = CpuReferenceMs();
  const double fsync_ref_ms = FsyncReferenceMs(config.work_dir);
  const double wakeup_p99_ms = WakeupLatenessP99Ms();
  JsonWriter host;
  host.BeginObject()
      .Key("nproc").Int(fp.nproc)
      .Key("cpu_model").String(fp.cpu_model)
      .Key("kernel").String(fp.kernel)
      .Key("build_type").String(fp.build_type)
      .Key("sketch_kernel").String(fp.sketch_kernel)
      .Key("cpu_ref_ms").Number(cpu_ref_ms)
      .Key("fsync_ref_ms").Number(fsync_ref_ms)
      .Key("wakeup_p99_ms").Number(wakeup_p99_ms)
      .EndObject();
  std::printf("# host %s\n", host.str().c_str());
  std::printf("# workload=%s seed=%llu seconds=%d trace=%d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds, trace);
  std::fflush(stdout);

  // The untraced pass runs without the FileOps timing wrapper, as a
  // --trace 0 run does, so the overhead below includes the wrapper's cost.
  PassReport plain = RunPass(config, /*traced=*/false, net_ops, nullptr);
  if (!plain.error.empty()) {
    std::fprintf(stderr, "ssbench: %s\n", plain.error.c_str());
    return 1;
  }
  std::map<std::string, Measured> metrics = plain.e2e;
  uint64_t attempted = plain.attempted;
  uint64_t failed = plain.failed();
  bool correct = plain.gate.passed() && plain.non_ok == 0;
  std::vector<const PassReport*> passes = {&plain};
  PassReport traced;
  if (trace == 1) {
    ss::SetFileOpsForTest(&file_ops);
    traced = RunPass(config, /*traced=*/true, net_ops, &file_ops);
    if (!traced.error.empty()) {
      std::fprintf(stderr, "ssbench: %s\n", traced.error.c_str());
      return 1;
    }
    passes.push_back(&traced);
    attempted += traced.attempted;
    failed += traced.failed();
    correct = correct && traced.gate.passed() && traced.non_ok == 0;
    metrics = traced.layer;
    metrics["host.cpu_ref_ms"] = Measured{cpu_ref_ms, 5, "ms", ""};
    metrics["host.fsync_ref_ms"] = Measured{fsync_ref_ms, 8, "ms", ""};
    metrics["host.wakeup_p99_ms"] = Measured{wakeup_p99_ms, 1600, "ms", ""};
    std::map<std::string, Measured> plain_all = plain.e2e;
    plain_all.insert(plain.e2e_unbounded.begin(), plain.e2e_unbounded.end());
    std::map<std::string, Measured> traced_all = traced.e2e;
    traced_all.insert(traced.e2e_unbounded.begin(), traced.e2e_unbounded.end());
    for (const auto& [name, m] : plain_all) {
      const Measured& t = traced_all.at(name);
      // Rates get worse as they fall, times and sizes as they rise.
      const bool higher_is_better = name == "append_events_per_s" || name == "queries_per_s";
      const double worse_by = higher_is_better ? m.value - t.value : t.value - m.value;
      double overhead = m.value != 0.0 ? worse_by / m.value : 0.0;
      metrics["trace.overhead." + name] = Measured{overhead, t.samples, "ratio", ""};
    }
    std::string spans = out_dir + "/spans-" + config.workload + "-seed" +
                         std::to_string(config.seed) + ".tsv";
    size_t written = tracing::WriteSpans(spans);
    std::printf("# spans: %zu written to %s, %zu dropped over the in-memory cap\n", written,
                spans.c_str(), tracing::Dropped());
  }

  for (size_t p = 0; p < passes.size(); ++p) {
    const PassReport& r = *passes[p];
    const char* which = p == 0 ? "untraced pass" : "traced pass";
    std::printf("# %s: attempted=%llu non_ok=%llu conn_errors=%llu blocked=%llu gate=%s\n", which,
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.non_ok),
                static_cast<unsigned long long>(r.conn_errors),
                static_cast<unsigned long long>(r.blocked),
                r.gate.passed() ? "pass" : "FAIL");
    for (const std::string& m : r.gate.messages()) {
      std::printf("#   gate violation %s\n", m.c_str());
    }
    std::printf("# %s: %llu answers with the estimate outside its own CI (not gated)\n", which,
                static_cast<unsigned long long>(r.gate.estimates_outside_ci()));
    for (const std::string& m : r.gate.outside_examples()) {
      std::printf("#   e.g. %s\n", m.c_str());
    }
    std::printf("# %s: mean interval score without the cap: %.6g\n", which, r.uncapped_score);
    PrintMetrics(p == 0 ? "end-to-end (untraced)" : "end-to-end (traced)", r.e2e);
    PrintMetrics(p == 0 ? "end-to-end without a bound (untraced)"
                        : "end-to-end without a bound (traced)",
                 r.e2e_unbounded);
  }
  if (trace == 1) {
    PrintMetrics("per-layer (traced)", metrics);
  }

  JsonWriter report;
  report.BeginObject().Key("host").BeginObject()
      .Key("nproc").Int(fp.nproc)
      .Key("cpu_model").String(fp.cpu_model)
      .Key("kernel").String(fp.kernel)
      .Key("build_type").String(fp.build_type)
      .Key("sketch_kernel").String(fp.sketch_kernel)
      .EndObject();
  report.Key("workload").String(config.workload).Key("seed").Int(static_cast<int64_t>(config.seed));
  report.Key("seconds").Int(config.seconds).Key("trace").Int(trace);
  report.Key("correct").Bool(correct).Key("attempted").Int(static_cast<int64_t>(attempted));
  report.Key("failed").Int(static_cast<int64_t>(failed));
  report.Key("end_to_end");
  WriteMetrics(report, plain.e2e, true);
  report.Key("end_to_end_unbounded");
  WriteMetrics(report, plain.e2e_unbounded, true);
  if (trace == 1) {
    report.Key("per_layer");
    WriteMetrics(report, metrics, true);
  }
  report.EndObject();
  std::ofstream(out_dir + "/report-" + config.workload + "-seed" + std::to_string(config.seed) +
                "-trace" + std::to_string(trace) + ".json")
      << report.str() << "\n";

  JsonWriter result;
  result.BeginObject()
      .Key("correct").Bool(correct)
      .Key("attempted").Int(static_cast<int64_t>(attempted))
      .Key("failed").Int(static_cast<int64_t>(failed))
      .Key("metrics");
  WriteMetrics(result, metrics, false);
  result.EndObject();
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  ss::net::SetNetOpsForTest(nullptr);
  ss::SetFileOpsForTest(nullptr);
  return 0;
}
