// The two workloads, each driven through an in-process net::Server on
// loopback backed by a durable SummaryStore:
//
//   query  — bulk-loaded history, store reopened, then a closed loop of 4
//            connections running a seeded query mix that overflows the
//            sketch streams' window caches;
//   mixed  — open loop on a smaller preloaded fleet: 2 connections append at
//            a fixed rate while 2 issue recent-range queries at a fixed rate.
//
// Every workload ends with the accuracy probe: a seeded, fixed set of
// queries over every operator, scored against the generator's reference.
#ifndef SSBENCH_HARNESS_WORKLOADS_H_
#define SSBENCH_HARNESS_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>

#include "harness/score.h"
#include "harness/tracing.h"

namespace ssbench {

struct RunConfig {
  std::string workload;  // query | mixed
  uint64_t seed = 1;
  int seconds = 10;
  std::string work_dir;  // stores and replay copies live here
};

bool IsWorkload(const std::string& name);

// One measured value with the number of samples behind it; `note` says how
// a tail percentile was taken when fewer than 1000 samples exist.
struct Measured {
  double value = 0.0;
  uint64_t samples = 0;
  std::string unit;
  std::string note;
};

struct PassReport {
  std::string error;  // non-empty: the pass could not run at all
  uint64_t attempted = 0;
  uint64_t non_ok = 0;       // non-OK responses
  uint64_t conn_errors = 0;  // connect/send/receive failures
  uint64_t blocked = 0;      // admission intervals the server stopped reading
  Gate gate;
  double uncapped_score = 0.0;  // answer_interval_score without its cap
  std::map<std::string, Measured> e2e;
  // End-to-end latencies: printed with their sample counts and kept in the
  // report file, but left out of the result line and its bounds (see
  // NOTES.md, "Steadiness").
  std::map<std::string, Measured> e2e_unbounded;
  std::map<std::string, Measured> layer;  // traced passes only

  uint64_t failed() const { return non_ok + conn_errors + blocked; }
};

// Runs one full pass of `config.workload` (set-up, timed phase, probe). A
// traced pass also records spans, collects the per-layer metrics and
// replays the operation sequence directly against a SummaryStore.
// `file_ops` is null when no FileOps wrapper is installed.
PassReport RunPass(const RunConfig& config, bool traced, CountingNetOps& net_ops,
                   TimingFileOps* file_ops);

}  // namespace ssbench

#endif  // SSBENCH_HARNESS_WORKLOADS_H_
