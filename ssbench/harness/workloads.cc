#include "harness/workloads.h"

#include <fcntl.h>
#include <poll.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "harness/host.h"
#include "harness/oracle.h"
#include "harness/stats.h"
#include "src/core/summary_store.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/random/arrival.h"
#include "src/random/rng.h"
#include "src/random/zipf.h"

namespace ssbench {

namespace {

namespace fs = std::filesystem;
using ss::Rng;
using ss::Status;
using ss::net::Client;

constexpr int kConnections = 4;
constexpr int64_t kValueDomain = 1000;
constexpr double kMeanInterarrival = 1000.0;  // stream time units per event
constexpr size_t kLoadWindow = 4;             // in-flight batches per connection
constexpr size_t kLoadBatchEvents = 400;      // events per bulk-load AppendBatch
constexpr size_t kMinTailSamples = 1000;      // a p99 with ten samples beyond it
constexpr size_t kReplayQueryCap = 4000;
// Windows of more than this many events are summarized. PowerLaw(1,1,1,1)
// grows window lengths as the cube root of the stream length, so with the
// store's default (64) every window of a stream shorter than ~87k events
// stays raw and every answer is exact; 8 makes a fleet sized for a short
// run decay the way much longer streams do.
constexpr uint64_t kRawThreshold = 8;

uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t x = a * 0x9e3779b97f4a7c15ull ^ (b + 0x632be59bd9b4e019ull) * 0xbf58476d1ce4e5b9ull ^
               (c + 0x8cb92ba72f3d8dd7ull) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  x *= 0xd6e8feb86659fd93ull;
  return x ^ (x >> 29);
}

// Log-uniform integer in [1, max].
uint64_t LogUniform(Rng& rng, uint64_t max) {
  if (max <= 1) {
    return 1;
  }
  double v = std::exp(rng.NextDouble() * std::log(static_cast<double>(max) + 1.0));
  return std::clamp<uint64_t>(static_cast<uint64_t>(v), 1, max);
}

// Completes the file system's pending writeback and discards (the store
// directories removed before this point) so they do not land inside the
// next measured interval.
void SettleFileSystem(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

// Sleeps until shortly before `when_ns`, then spins to it: an open loop
// times requests from their scheduled send, so a late wake-up of the
// generator's own thread would be charged to the server.
void SleepUntil(uint64_t when_ns) {
  constexpr uint64_t kSpinNs = 200'000;
  uint64_t now = NowNanos();
  if (when_ns > now + kSpinNs) {
    uint64_t d = when_ns - now - kSpinNs;
    timespec ts{static_cast<time_t>(d / 1'000'000'000), static_cast<long>(d % 1'000'000'000)};
    nanosleep(&ts, nullptr);
  }
  while (NowNanos() < when_ns) {
  }
}

// CPU seconds used by the load generator's threads. Each generator thread
// adds its own CPU clock when it ends; the threads are created per phase,
// so the clock covers that phase alone. The cost metrics subtract it from
// the process's CPU time, leaving the server's and the store's.
std::atomic<double> generator_cpu_s{0.0};

struct GeneratorThread {
  ~GeneratorThread() { generator_cpu_s.fetch_add(ThreadCpuSeconds()); }
};

// CPU seconds the process has used outside the load generator's threads.
double ServerCpuSeconds() { return ProcessCpuSeconds() - generator_cpu_s.load(); }

// ------------------------------------------------------------- the fleet

struct StreamSpec {
  StreamId id = 0;
  bool sketch = false;
  bool poisson = false;
};

// One stream in eight is a sketch stream (alternating between the Poisson
// and the Pareto half from one block of eight to the next); odd ids have
// Poisson arrivals, even ids Pareto(1.2).
std::vector<StreamSpec> MakeFleet(int n) {
  std::vector<StreamSpec> fleet;
  for (int i = 0; i < n; ++i) {
    StreamId id = static_cast<StreamId>(i + 1);
    fleet.push_back(StreamSpec{id, i % 8 == (i / 8) % 2, id % 2 == 1});
  }
  return fleet;
}

ss::StreamConfig ConfigFor(const StreamSpec& s, uint64_t seed, uint64_t sketch_cache_bytes) {
  ss::StreamConfig config;
  config.decay = std::make_shared<ss::PowerLawDecay>(1, 1, 1, 1);
  config.arrival_model = s.poisson ? ss::ArrivalModel::kPoisson : ss::ArrivalModel::kGeneric;
  config.seed = Mix(seed, s.id, 0);
  config.raw_threshold = kRawThreshold;
  if (s.sketch) {
    config.operators = ss::OperatorSet::Full();
    config.operators.hist_lo = 1.0;
    config.operators.hist_hi = static_cast<double>(kValueDomain + 1);
    config.window_cache_bytes = sketch_cache_bytes;
  }
  return config;
}

const ss::ZipfSampler& Values() {
  static const ss::ZipfSampler zipf(kValueDomain, 1.1);
  return zipf;
}

// A stream's deterministic event sequence: arrivals from the stream's
// arrival model, Zipf(1.1) integer values in 1..1000.
class EventSource {
 public:
  EventSource(const StreamSpec& s, uint64_t seed) : rng_(Mix(seed, s.id, 1)) {
    uint64_t arrival_seed = Mix(seed, s.id, 2);
    if (s.poisson) {
      arrivals_ = std::make_unique<ss::PoissonArrivals>(1.0 / kMeanInterarrival, arrival_seed);
    } else {
      arrivals_ = std::make_unique<ss::ParetoArrivals>(kMeanInterarrival, 1.2, arrival_seed);
    }
  }

  Event Next() {
    last_ = std::max(arrivals_->Next(), last_ + 1);
    return Event{last_, static_cast<double>(Values().Sample(rng_))};
  }

 private:
  Rng rng_;
  std::unique_ptr<ss::ArrivalProcess> arrivals_;
  Timestamp last_ = 0;
};

// --------------------------------------------------------- workload shape

struct Shape {
  int streams = 32;
  uint64_t preload_metric = 0;  // events per metric stream loaded at set-up
  uint64_t preload_sketch = 0;  // events per sketch stream loaded at set-up
  int setup_reps = 5;
  bool reopen = false;  // stop the server and reopen the store after loading
  uint64_t sketch_cache_bytes = 0;
  size_t block_cache_bytes = ss::LsmOptions{}.block_cache_bytes;
  // mixed only: fixed per-connection rates
  double append_rate = 0.0;
  double query_rate = 0.0;
};

Shape ShapeFor(const std::string& workload) {
  Shape shape;
  if (workload == "query") {
    shape.preload_metric = 16000;
    shape.preload_sketch = 12000;
    shape.reopen = true;
    // Both far below the sketch streams' decayed size (~10 MB each), so
    // sketch windows are read back through the LSM and its files.
    shape.sketch_cache_bytes = 1 << 20;
    shape.block_cache_bytes = 8 << 20;
  } else {
    shape.streams = 16;
    shape.preload_metric = 4000;
    shape.preload_sketch = 4000;
    shape.setup_reps = 7;
    shape.append_rate = 3000.0;
    shape.query_rate = 400.0;
  }
  return shape;
}

// ------------------------------------------------------------ op log

// One operation as the load generator issued it, for the direct replay.
struct LoggedOp {
  enum class Kind : uint8_t { kAppend, kBatch, kQuery, kFleet };
  Kind kind = Kind::kAppend;
  uint64_t send_ns = 0;
  StreamId id = 0;
  Event event{};
  std::vector<Event> batch;
  QuerySpec spec;
};
using OpLog = std::vector<LoggedOp>;

// Counts shared by the connection threads of one phase.
struct Tally {
  std::atomic<uint64_t> attempted{0};
  std::atomic<uint64_t> non_ok{0};
  std::atomic<uint64_t> conn_errors{0};
};

// ------------------------------------------------------------ fixture

// One set-up: a store directory, the store, the server on loopback and the
// four client connections, plus the generator's per-stream state.
struct Fixture {
  std::string dir;
  size_t block_cache_bytes = ss::LsmOptions{}.block_cache_bytes;
  std::vector<StreamSpec> fleet;
  std::vector<EventSource> sources;
  std::vector<StreamReference> refs;  // index = id - 1
  std::vector<StreamId> metric_ids;
  std::unique_ptr<ss::SummaryStore> store;
  std::unique_ptr<ss::net::Server> server;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<int> client_fds;

  Fixture() = default;
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;
  ~Fixture() {
    Stop();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  Status Start() {
    ss::StoreOptions options;
    options.dir = dir;
    options.lsm.block_cache_bytes = block_cache_bytes;
    SS_ASSIGN_OR_RETURN(store, ss::SummaryStore::Open(options));
    SS_ASSIGN_OR_RETURN(server, ss::net::Server::Start(store.get(), ss::net::ServerOptions{}));
    for (int c = 0; c < kConnections; ++c) {
      SS_ASSIGN_OR_RETURN(std::unique_ptr<Client> client,
                          Client::Connect("127.0.0.1", server->port()));
      client_fds.push_back(CountingNetOps::ThreadConnectedFd());
      clients.push_back(std::move(client));
    }
    return Status::Ok();
  }

  void Stop() {
    clients.clear();
    client_fds.clear();
    if (server != nullptr) {
      server->Stop();
    }
    server.reset();
    store.reset();
  }

  uint64_t TotalEvents() const {
    uint64_t n = 0;
    for (const auto& ref : refs) {
      n += ref.size();
    }
    return n;
  }
};

// Index of the connection that owns stream index `i` when `owners`
// connections split the fleet into contiguous blocks.
int Owner(size_t i, size_t fleet_size, int owners) {
  return static_cast<int>(i / ((fleet_size + owners - 1) / owners));
}

// ------------------------------------------------------------ query plans

struct QueryPlan {
  bool fleet = false;
  size_t index = 0;  // stream index (single-stream queries)
  QuerySpec spec;
};

const QueryOp kMetricOps[] = {QueryOp::kCount, QueryOp::kSum, QueryOp::kMean, QueryOp::kMin,
                              QueryOp::kMax};
const QueryOp kSketchOps[] = {QueryOp::kFrequency, QueryOp::kExistence, QueryOp::kDistinct,
                              QueryOp::kQuantile,  QueryOp::kValueRangeCount, QueryOp::kTopK};
const QueryOp kFleetOps[] = {QueryOp::kCount, QueryOp::kSum, QueryOp::kMin, QueryOp::kMax};

void FillOperands(QuerySpec& spec, Rng& rng) {
  // Half the value operands follow the data's own skew (mostly present),
  // half are uniform over the domain (often absent).
  spec.value = rng.NextBernoulli(0.5) ? static_cast<double>(Values().Sample(rng))
                                      : static_cast<double>(1 + rng.NextBounded(kValueDomain));
  static const double kQs[] = {0.5, 0.9, 0.99};
  spec.quantile_q = kQs[rng.NextBounded(3)];
  double lo = rng.NextBernoulli(0.5) ? 1.0 : static_cast<double>(1 + rng.NextBounded(kValueDomain));
  double width = static_cast<double>(LogUniform(rng, kValueDomain));
  spec.value_lo = lo;
  spec.value_hi = std::min(lo + width, static_cast<double>(kValueDomain + 1));
  spec.top_k = 5;
}

std::pair<Timestamp, Timestamp> WholeRange(const StreamReference& ref) {
  return {ref.first_ts(), ref.last_ts()};
}

// Log-uniform age (how far back the newest event of the range is) and
// log-uniform length, both counted in events, so the range holds data.
std::pair<Timestamp, Timestamp> RandomRange(const StreamReference& ref, Rng& rng) {
  size_t n = ref.size();
  size_t newest = n - LogUniform(rng, n);
  size_t len = LogUniform(rng, newest + 1);
  return {ref.ts(newest + 1 - len), ref.ts(newest)};
}

// One to three events deep in the oldest fifth of the stream: such a range
// lies inside a single large, old window.
std::pair<Timestamp, Timestamp> OldShortRange(const StreamReference& ref, Rng& rng) {
  size_t newest = rng.NextBounded(std::max<size_t>(1, ref.size() / 5));
  size_t len = std::min<size_t>(1 + rng.NextBounded(3), newest + 1);
  return {ref.ts(newest + 1 - len), ref.ts(newest)};
}

QuerySpec Spec(QueryOp op, std::pair<Timestamp, Timestamp> range, Rng& rng) {
  QuerySpec spec;
  spec.op = op;
  spec.t1 = range.first;
  spec.t2 = range.second;
  FillOperands(spec, rng);
  return spec;
}

class Planner {
 public:
  explicit Planner(const Fixture& fx) : fx_(fx) {}

  // The query workload's mix over the loaded history.
  QueryPlan Historical(Rng& rng) const {
    if (rng.NextBernoulli(0.05)) {
      return Fleet(rng);
    }
    QueryPlan plan;
    do {
      plan.index = rng.NextBounded(fx_.fleet.size());
    } while (fx_.refs[plan.index].empty());
    const StreamReference& ref = fx_.refs[plan.index];
    double kind = rng.NextDouble();
    auto range = kind < 0.15   ? WholeRange(ref)
                 : kind < 0.30 ? OldShortRange(ref, rng)
                               : RandomRange(ref, rng);
    plan.spec = Spec(PickOp(plan.index, rng), range, rng);
    return plan;
  }

  // Fleet aggregate over the metric streams. min/max need data in every
  // stream's range (QueryAggregate fails if one stream has none), so a
  // range that misses a stream falls back to count.
  QueryPlan Fleet(Rng& rng) const {
    QueryPlan plan;
    plan.fleet = true;
    const StreamReference* anchor = nullptr;
    do {
      anchor = &fx_.refs[fx_.metric_ids[rng.NextBounded(fx_.metric_ids.size())] - 1];
    } while (anchor->empty());
    auto range = rng.NextBernoulli(0.2) ? WholeRange(*anchor) : RandomRange(*anchor, rng);
    plan.spec = Spec(kFleetOps[rng.NextBounded(4)], range, rng);
    if (plan.spec.op == QueryOp::kMin || plan.spec.op == QueryOp::kMax) {
      for (StreamId id : fx_.metric_ids) {
        if (fx_.refs[id - 1].Count(range.first, range.second) == 0.0) {
          plan.spec.op = QueryOp::kCount;
          break;
        }
      }
    }
    return plan;
  }

  // A dashboard query over the recent past of a stream that is being
  // appended to: the range ends at the stream's newest acked event.
  QueryPlan Recent(Rng& rng, const std::vector<std::atomic<Timestamp>>& acked) const {
    QueryPlan plan;
    Timestamp span = static_cast<Timestamp>(kMeanInterarrival) *
                     static_cast<Timestamp>(LogUniform(rng, 4096));
    if (rng.NextBernoulli(0.05)) {
      plan.fleet = true;
      Timestamp lo = ss::kMaxTimestamp;
      Timestamp hi = ss::kMinTimestamp;
      for (StreamId id : fx_.metric_ids) {
        Timestamp t = acked[id - 1].load(std::memory_order_acquire);
        lo = std::min(lo, t);
        hi = std::max(hi, t);
      }
      plan.spec = Spec(kFleetOps[rng.NextBounded(4)], {lo - span, hi}, rng);
      return plan;
    }
    plan.index = rng.NextBounded(fx_.fleet.size());
    Timestamp t2 = acked[plan.index].load(std::memory_order_acquire);
    plan.spec = Spec(PickOp(plan.index, rng), {t2 - span, t2}, rng);
    return plan;
  }

  QueryOp PickOp(size_t index, Rng& rng) const {
    return fx_.fleet[index].sketch ? kSketchOps[rng.NextBounded(6)]
                                   : kMetricOps[rng.NextBounded(5)];
  }

 private:
  const Fixture& fx_;
};

// Probe size per stream of a 32-stream fleet (random ranges and old-window
// ranges, each asked of every operator the stream serves; smaller fleets get
// proportionally more per stream) and fleet-wide.
constexpr int kProbeRanges = 18;
constexpr int kProbeOldRanges = 9;
constexpr int kProbeFleetQueries = 120;

struct ProbeQuery {
  QueryPlan plan;
  bool gate_whole_range = false;
};

// The accuracy probe: per stream the whole-range gate queries, then seeded
// historical, whole-range and old-window ranges over every operator the
// stream serves; then fleet aggregates.
std::vector<ProbeQuery> BuildProbe(const Fixture& fx, uint64_t seed) {
  Rng rng(Mix(seed, 0xa11ce, 7));
  Planner planner(fx);
  const int scale = std::max<int>(1, 32 / static_cast<int>(fx.fleet.size()));
  const int ranges = kProbeRanges * scale;
  const int old_ranges = kProbeOldRanges * scale;
  std::vector<ProbeQuery> probe;
  auto add = [&](size_t index, QueryOp op, std::pair<Timestamp, Timestamp> range,
                 bool gate = false) {
    ProbeQuery q;
    q.plan.index = index;
    q.plan.spec = Spec(op, range, rng);
    q.gate_whole_range = gate;
    probe.push_back(q);
  };
  for (size_t i = 0; i < fx.fleet.size(); ++i) {
    const StreamReference& ref = fx.refs[i];
    if (ref.empty()) {
      continue;
    }
    for (QueryOp op : kFleetOps) {
      add(i, op, WholeRange(ref), /*gate=*/true);
    }
    if (!fx.fleet[i].sketch) {
      add(i, QueryOp::kMean, WholeRange(ref));
      for (int r = 0; r < ranges; ++r) {
        auto range = RandomRange(ref, rng);
        for (QueryOp op : kMetricOps) {
          add(i, op, range);
        }
      }
      for (int r = 0; r < old_ranges; ++r) {
        auto range = OldShortRange(ref, rng);
        for (QueryOp op : {QueryOp::kMin, QueryOp::kMax, QueryOp::kCount}) {
          add(i, op, range);
        }
      }
      continue;
    }
    for (int r = 0; r < 4; ++r) {
      add(i, QueryOp::kValueRangeCount, WholeRange(ref));
    }
    for (QueryOp op : {QueryOp::kTopK, QueryOp::kDistinct, QueryOp::kQuantile}) {
      add(i, op, WholeRange(ref));
    }
    for (int r = 0; r < ranges; ++r) {
      auto range = RandomRange(ref, rng);
      for (QueryOp op : kSketchOps) {
        add(i, op, range);
      }
    }
    for (int r = 0; r < old_ranges; ++r) {
      auto range = OldShortRange(ref, rng);
      for (QueryOp op : {QueryOp::kMin, QueryOp::kMax, QueryOp::kValueRangeCount,
                         QueryOp::kExistence}) {
        add(i, op, range);
      }
    }
  }
  for (int r = 0; r < kProbeFleetQueries; ++r) {
    ProbeQuery q;
    q.plan = planner.Fleet(rng);
    probe.push_back(q);
  }
  return probe;
}

// ------------------------------------------------------- answers & timing

struct Answer {
  QueryPlan plan;
  bool ok = false;
  ss::QueryResult result;
  double latency_ms = 0.0;
  uint64_t done_ns = 0;
};

// Issues one query on `client`, inside a client RPC span.
Answer Issue(Client& client, const Fixture& fx, const QueryPlan& plan, uint64_t request_id,
             uint64_t scheduled_ns, Tally& tally, Gate* gate) {
  Answer answer;
  answer.plan = plan;
  tally.attempted.fetch_add(1, std::memory_order_relaxed);
  ss::StatusOr<ss::net::WireQueryResult> wire = ss::Status::Ok();
  {
    tracing::Span span(plan.fleet ? "client.query_aggregate" : "client.query", request_id);
    if (plan.fleet) {
      wire = client.QueryAggregate(fx.metric_ids, plan.spec);
    } else {
      wire = client.Query(fx.fleet[plan.index].id, plan.spec);
    }
  }
  answer.done_ns = NowNanos();
  answer.latency_ms = static_cast<double>(answer.done_ns - scheduled_ns) / 1e6;
  if (!wire.ok()) {
    // A remote error arrives as a whole response; a transport failure does not.
    bool transport = wire.status().code() == ss::StatusCode::kIoError;
    (transport ? tally.conn_errors : tally.non_ok).fetch_add(1, std::memory_order_relaxed);
    if (gate != nullptr) {
      gate->Fail('b', std::string(OpKey(plan.spec.op)) + ": " + wire.status().ToString());
    }
    return answer;
  }
  answer.ok = true;
  answer.result = std::move(wire->result);
  return answer;
}

// -------------------------------------------------------------- phases

struct AppendPhase {
  double seconds = 0.0;
  uint64_t events = 0;
  std::vector<double> ack_ms;
  std::vector<uint64_t> ack_at_ns;  // when each ack_ms sample completed
};

struct LoopStats {
  std::vector<double> latency_ms;        // single-stream queries
  std::vector<uint64_t> latency_at_ns;   // when each latency_ms sample completed
  std::vector<double> fleet_latency_ms;  // fleet aggregates
  std::vector<double> late_ms;           // open loop: send time minus scheduled time
  std::vector<double> windows_read;
  std::vector<uint64_t> done_ns;         // completion time of each answer
  uint64_t scheduled = 0;
  uint64_t completed = 0;
  uint64_t start_ns = 0;
  double seconds = 0.0;
};

// Completions per second: the median over the phase's whole one-second
// slices, so a stall or burst from a neighbour on a shared host moves one
// slice, not the figure. Phases shorter than two seconds use the plain
// average.
double SliceRate(std::vector<uint64_t> done_ns, uint64_t start_ns, double seconds) {
  const size_t slices = static_cast<size_t>(seconds);
  if (slices < 2) {
    return seconds > 0.0 ? static_cast<double>(done_ns.size()) / seconds : 0.0;
  }
  std::vector<double> counts(slices, 0.0);
  for (uint64_t t : done_ns) {
    size_t k = static_cast<size_t>((t - start_ns) / 1'000'000'000ull);
    if (t >= start_ns && k < slices) {
      counts[k] += 1.0;
    }
  }
  return Median(counts);
}

// Per-thread output merged after join.
template <typename T>
void Append(std::vector<T>& into, const std::vector<T>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

void MergeLog(OpLog* into, std::vector<OpLog>& parts) {
  if (into == nullptr) {
    return;
  }
  for (OpLog& part : parts) {
    for (LoggedOp& op : part) {
      into->push_back(std::move(op));
    }
  }
}

// Set-up bulk load: each connection loads its quarter of the fleet with
// pipelined AppendBatch frames, round-robin over its streams.
AppendPhase BulkLoad(Fixture& fx, const Shape& shape, Tally& tally, Gate& gate, OpLog* log) {
  AppendPhase out;
  std::vector<std::vector<double>> ack_ms(kConnections);
  std::vector<std::vector<uint64_t>> ack_at(kConnections);
  std::vector<OpLog> logs(kConnections);
  std::mutex gate_mu;
  uint64_t start = NowNanos();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      GeneratorThread generator;
      Client& client = *fx.clients[c];
      std::vector<size_t> own;
      std::vector<uint64_t> remaining;
      for (size_t i = 0; i < fx.fleet.size(); ++i) {
        if (Owner(i, fx.fleet.size(), kConnections) == c) {
          own.push_back(i);
          remaining.push_back(fx.fleet[i].sketch ? shape.preload_sketch : shape.preload_metric);
        }
      }
      std::unordered_map<uint64_t, uint64_t> sent_ns;
      auto receive = [&]() -> bool {
        auto ack = client.ReceiveAck();
        if (!ack.ok()) {
          tally.conn_errors.fetch_add(1);
          return false;
        }
        auto it = sent_ns.find(ack->request_id);
        if (it != sent_ns.end()) {
          uint64_t now = NowNanos();
          ack_ms[c].push_back(static_cast<double>(now - it->second) / 1e6);
          ack_at[c].push_back(now);
          tracing::Record("client.append_batch", it->second, now, ack->request_id);
          sent_ns.erase(it);
        }
        if (!ack->status.ok()) {
          tally.non_ok.fetch_add(1);
          std::lock_guard<std::mutex> lock(gate_mu);
          gate.Fail('b', "append_batch: " + ack->status.ToString());
        }
        return true;
      };
      bool more = true;
      while (more) {
        more = false;
        for (size_t k = 0; k < own.size(); ++k) {
          if (remaining[k] == 0) {
            continue;
          }
          more = true;
          size_t i = own[k];
          size_t n = static_cast<size_t>(std::min<uint64_t>(kLoadBatchEvents, remaining[k]));
          remaining[k] -= n;
          std::vector<Event> batch(n);
          for (Event& e : batch) {
            e = fx.sources[i].Next();
          }
          fx.refs[i].AddAll(batch);
          tally.attempted.fetch_add(1);
          uint64_t now = NowNanos();
          auto id = client.SendAppendBatch(fx.fleet[i].id, batch);
          if (!id.ok()) {
            tally.conn_errors.fetch_add(1);
            return;
          }
          sent_ns[*id] = now;
          if (log != nullptr) {
            LoggedOp op;
            op.kind = LoggedOp::Kind::kBatch;
            op.send_ns = now;
            op.id = fx.fleet[i].id;
            op.batch = std::move(batch);
            logs[c].push_back(std::move(op));
          }
          while (client.inflight() >= kLoadWindow) {
            if (!receive()) {
              return;
            }
          }
        }
      }
      while (client.inflight() > 0) {
        if (!receive()) {
          return;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  out.seconds = static_cast<double>(NowNanos() - start) / 1e9;
  out.events = fx.TotalEvents();
  for (int c = 0; c < kConnections; ++c) {
    Append(out.ack_ms, ack_ms[c]);
    Append(out.ack_at_ns, ack_at[c]);
  }
  MergeLog(log, logs);
  return out;
}

void Record(LoopStats& stats, const Answer& a) {
  if (!a.ok) {
    return;
  }
  (a.plan.fleet ? stats.fleet_latency_ms : stats.latency_ms).push_back(a.latency_ms);
  if (!a.plan.fleet) {
    stats.latency_at_ns.push_back(a.done_ns);
  }
  stats.done_ns.push_back(a.done_ns);
  if (!a.plan.fleet) {
    stats.windows_read.push_back(static_cast<double>(a.result.windows_read));
  }
}

void LogQuery(OpLog* log, const QueryPlan& plan, const Fixture& fx, uint64_t send_ns) {
  if (log == nullptr) {
    return;
  }
  LoggedOp op;
  op.kind = plan.fleet ? LoggedOp::Kind::kFleet : LoggedOp::Kind::kQuery;
  op.send_ns = send_ns;
  op.id = plan.fleet ? 0 : fx.fleet[plan.index].id;
  op.spec = plan.spec;
  log->push_back(std::move(op));
}

// query: closed loop of 4 connections over the seeded historical mix. Runs
// past `seconds` only if needed to collect enough samples for a p99.
LoopStats QueryLoop(Fixture& fx, uint64_t seed, int seconds, Tally& tally, Gate& gate,
                    OpLog* log) {
  LoopStats out;
  std::vector<LoopStats> per(kConnections);
  std::vector<Gate> gates(kConnections);
  std::vector<OpLog> logs(kConnections);
  std::atomic<uint64_t> done{0};
  Planner planner(fx);
  const uint64_t start = NowNanos();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds) * 1'000'000'000ull;
  const uint64_t hard_deadline = start + 3ull * static_cast<uint64_t>(seconds) * 1'000'000'000ull;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      GeneratorThread generator;
      Rng rng(Mix(seed, c, 4));
      uint64_t request = static_cast<uint64_t>(c) << 32;
      while (true) {
        uint64_t now = NowNanos();
        bool enough = done.load(std::memory_order_relaxed) >= kMinTailSamples + kMinTailSamples / 10;
        if (now >= hard_deadline || (now >= deadline && enough)) {
          break;
        }
        QueryPlan plan = planner.Historical(rng);
        LogQuery(log != nullptr ? &logs[c] : nullptr, plan, fx, now);
        Answer a = Issue(*fx.clients[c], fx, plan, ++request, now, tally, &gates[c]);
        if (a.ok) {
          gates[c].CheckShape(a.result, OpKey(plan.spec.op));
          done.fetch_add(1, std::memory_order_relaxed);
        }
        Record(per[c], a);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  out.start_ns = start;
  out.seconds = static_cast<double>(NowNanos() - start) / 1e9;
  for (int c = 0; c < kConnections; ++c) {
    Append(out.latency_ms, per[c].latency_ms);
    Append(out.latency_at_ns, per[c].latency_at_ns);
    Append(out.fleet_latency_ms, per[c].fleet_latency_ms);
    Append(out.windows_read, per[c].windows_read);
    Append(out.done_ns, per[c].done_ns);
    gate.Merge(gates[c]);
  }
  out.completed = out.latency_ms.size() + out.fleet_latency_ms.size();
  out.scheduled = out.completed;
  MergeLog(log, logs);
  return out;
}

// One connection's open loop of queries: a plan from `next` every 1/rate
// seconds from `start` until `end`, latency timed from the scheduled send.
void OpenQueryLoop(Client& client, const Fixture& fx,
                   const std::function<QueryPlan(Rng&)>& next, Rng rng, double rate,
                   uint64_t start, uint64_t end, uint64_t request, Tally& tally, Gate& gate,
                   LoopStats& stats, OpLog* log) {
  const double period_ns = 1e9 / rate;
  for (uint64_t k = 0;; ++k) {
    uint64_t due = start + static_cast<uint64_t>(period_ns * static_cast<double>(k));
    if (due >= end) {
      break;
    }
    SleepUntil(due);
    ++stats.scheduled;
    QueryPlan plan = next(rng);
    uint64_t send = NowNanos();
    stats.late_ms.push_back(static_cast<double>(send - due) / 1e6);
    LogQuery(log, plan, fx, send);
    Answer a = Issue(client, fx, plan, ++request, due, tally, &gate);
    if (a.ok) {
      gate.CheckShape(a.result, OpKey(plan.spec.op));
    }
    Record(stats, a);
  }
}

// Merges per-connection query stats; the achieved rate runs from `start` to
// the last completion.
LoopStats MergeQueries(std::vector<LoopStats>& per, uint64_t start) {
  LoopStats out;
  out.start_ns = start;
  uint64_t last = start + 1;
  for (LoopStats& s : per) {
    Append(out.latency_ms, s.latency_ms);
    Append(out.latency_at_ns, s.latency_at_ns);
    Append(out.fleet_latency_ms, s.fleet_latency_ms);
    Append(out.windows_read, s.windows_read);
    Append(out.late_ms, s.late_ms);
    Append(out.done_ns, s.done_ns);
    out.scheduled += s.scheduled;
    for (uint64_t t : s.done_ns) {
      last = std::max(last, t);
    }
  }
  out.completed = out.latency_ms.size() + out.fleet_latency_ms.size();
  out.seconds = static_cast<double>(last - start) / 1e9;
  return out;
}

struct MixedResult {
  AppendPhase appends;
  LoopStats queries;
  uint64_t scheduled_appends = 0;
};

// mixed: open loop. Connections 0 and 1 append single events at a fixed rate
// to their halves of the fleet; connections 2 and 3 issue recent-range
// dashboard queries at a fixed rate. Latency runs from each request's
// scheduled send time, so a stall is charged to the requests it delays.
MixedResult MixedLoop(Fixture& fx, const Shape& shape, uint64_t seed, int seconds, Tally& tally,
                      Gate& gate, OpLog* log) {
  MixedResult out;
  const size_t n = fx.fleet.size();
  std::vector<std::atomic<Timestamp>> acked(n);
  for (size_t i = 0; i < n; ++i) {
    acked[i].store(fx.refs[i].last_ts());
  }
  std::vector<std::vector<double>> ack_ms(2);
  std::vector<std::vector<uint64_t>> ack_at(2);
  std::vector<std::vector<double>> late_ms(2);
  std::vector<uint64_t> acked_events(2, 0);
  std::vector<uint64_t> scheduled(2, 0);
  std::vector<uint64_t> last_done_ns(2, 0);
  std::vector<LoopStats> per(2);
  std::vector<Gate> gates(kConnections);
  std::vector<OpLog> logs(kConnections);
  Planner planner(fx);
  const uint64_t start = NowNanos();
  const uint64_t end = start + static_cast<uint64_t>(seconds) * 1'000'000'000ull;
  std::vector<std::thread> threads;

  auto appender = [&](int c) {
    Client& client = *fx.clients[c];
    const int fd = fx.client_fds[c];
    Rng rng(Mix(seed, c, 5));
    std::vector<size_t> own;
    for (size_t i = 0; i < n; ++i) {
      if (Owner(i, n, 2) == c) {
        own.push_back(i);
      }
    }
    struct Sent {
      uint64_t scheduled_ns;
      size_t index;
      Timestamp ts;
    };
    std::unordered_map<uint64_t, Sent> sent;
    const double period_ns = 1e9 / shape.append_rate;
    uint64_t k = 0;
    auto due = [&](uint64_t i) { return start + static_cast<uint64_t>(period_ns * i); };
    size_t current = own[0];
    uint64_t run_left = 0;
    auto receive = [&]() -> bool {
      auto ack = client.ReceiveAck();
      if (!ack.ok()) {
        tally.conn_errors.fetch_add(1);
        return false;
      }
      uint64_t now = NowNanos();
      auto it = sent.find(ack->request_id);
      if (it != sent.end()) {
        ack_ms[c].push_back(static_cast<double>(now - it->second.scheduled_ns) / 1e6);
        ack_at[c].push_back(now);
        tracing::Record("client.append", it->second.scheduled_ns, now, ack->request_id);
        if (ack->status.ok()) {
          ++acked_events[c];
          last_done_ns[c] = now;
          Timestamp prev = acked[it->second.index].load();
          if (it->second.ts > prev) {
            acked[it->second.index].store(it->second.ts, std::memory_order_release);
          }
        }
        sent.erase(it);
      }
      if (!ack->status.ok()) {
        tally.non_ok.fetch_add(1);
        gates[c].Fail('b', "append: " + ack->status.ToString());
      }
      return true;
    };
    while (true) {
      uint64_t now = NowNanos();
      while (due(k) <= now && due(k) < end) {
        if (run_left == 0) {
          current = own[rng.NextBounded(own.size())];
          run_left = 1 + rng.NextBounded(8);
        }
        --run_left;
        Event e = fx.sources[current].Next();
        fx.refs[current].Add(e.ts, e.value);
        tally.attempted.fetch_add(1, std::memory_order_relaxed);
        uint64_t send = NowNanos();
        auto id = client.SendAppend(fx.fleet[current].id, e.ts, e.value);
        if (!id.ok()) {
          tally.conn_errors.fetch_add(1);
          return;
        }
        late_ms[c].push_back(static_cast<double>(send - due(k)) / 1e6);
        sent[*id] = Sent{due(k), current, e.ts};
        if (log != nullptr) {
          LoggedOp op;
          op.kind = LoggedOp::Kind::kAppend;
          op.send_ns = send;
          op.id = fx.fleet[current].id;
          op.event = e;
          logs[c].push_back(std::move(op));
        }
        ++k;
        ++scheduled[c];
      }
      bool sending = due(k) < end;
      if (!sending && client.inflight() == 0) {
        break;
      }
      if (client.inflight() == 0) {
        SleepUntil(due(k));
        continue;
      }
      // Wait for a response, but no later than the next scheduled send.
      uint64_t wait_ns = sending ? (due(k) > now ? due(k) - now : 0) : 100'000'000ull;
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                  static_cast<long>(wait_ns % 1'000'000'000)};
      pollfd pfd{fd, POLLIN, 0};
      int rc = ppoll(&pfd, 1, &ts, nullptr);
      if (rc > 0) {
        if (!receive()) {
          return;
        }
      }
    }
  };

  auto next = [&](Rng& rng) { return planner.Recent(rng, acked); };
  auto querier = [&](int c) {
    OpenQueryLoop(*fx.clients[c], fx, next, Rng(Mix(seed, c, 6)), shape.query_rate, start, end,
                  static_cast<uint64_t>(c) << 32, tally, gates[c], per[c - 2],
                  log != nullptr ? &logs[c] : nullptr);
  };

  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      GeneratorThread generator;
      c < 2 ? appender(c) : querier(c);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // Achieved rates run to the last completion, not to the schedule's end.
  uint64_t last = std::max({last_done_ns[0], last_done_ns[1], start + 1});
  out.appends.seconds = static_cast<double>(last - start) / 1e9;
  out.queries = MergeQueries(per, start);
  for (int c = 0; c < 2; ++c) {
    Append(out.queries.late_ms, late_ms[c]);
    out.appends.events += acked_events[c];
    Append(out.appends.ack_ms, ack_ms[c]);
    Append(out.appends.ack_at_ns, ack_at[c]);
    out.scheduled_appends += scheduled[c];
  }
  for (const Gate& g : gates) {
    gate.Merge(g);
  }
  MergeLog(log, logs);
  return out;
}

// The accuracy probe over the wire (4 connections, closed loop), then scored
// against the reference.
void RunProbe(Fixture& fx, uint64_t seed, Tally& tally, Gate& gate, Scorer& scorer,
              OpLog* log) {
  std::vector<ProbeQuery> probe = BuildProbe(fx, seed);
  std::vector<Answer> answers(probe.size());
  std::vector<Gate> gates(kConnections);
  std::vector<OpLog> logs(kConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      uint64_t request = (static_cast<uint64_t>(c) << 32) | (1ull << 31);
      for (size_t i = static_cast<size_t>(c); i < probe.size(); i += kConnections) {
        uint64_t now = NowNanos();
        LogQuery(log != nullptr ? &logs[c] : nullptr, probe[i].plan, fx, now);
        answers[i] = Issue(*fx.clients[c], fx, probe[i].plan, ++request, now, tally, &gates[c]);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  for (const Gate& g : gates) {
    gate.Merge(g);
  }
  std::vector<const StreamReference*> metric_refs;
  for (StreamId id : fx.metric_ids) {
    metric_refs.push_back(&fx.refs[id - 1]);
  }
  for (size_t i = 0; i < probe.size(); ++i) {
    const Answer& a = answers[i];
    if (!a.ok) {
      continue;
    }
    if (a.plan.fleet) {
      scorer.Score(a.plan.spec, a.result, nullptr, FleetTruth(metric_refs, a.plan.spec), false,
                   gate);
    } else {
      scorer.Score(a.plan.spec, a.result, &fx.refs[a.plan.index], std::nullopt,
                   probe[i].gate_whole_range, gate);
    }
  }
  MergeLog(log, logs);
}

// ------------------------------------------------------------ set-up

// Stream id of the marker stream CompactStore creates (outside every fleet).
constexpr StreamId kCompactionMarkerId = 1'000'000;

// Brings a loaded store to one canonical LSM state — a single table. How
// many tables a load leaves depends on how the server happened to group its
// durable-ack flushes, and read cost grows with the table count. Reopening
// with a compaction trigger of two and flushing one small write (the
// creation of an empty marker stream) compacts every table into one.
Status CompactStore(const std::string& dir) {
  ss::StoreOptions options;
  options.dir = dir;
  options.lsm.compaction_trigger = 2;
  SS_ASSIGN_OR_RETURN(std::unique_ptr<ss::SummaryStore> store, ss::SummaryStore::Open(options));
  ss::StreamConfig marker;
  marker.decay = std::make_shared<ss::PowerLawDecay>(1, 1, 1, 1);
  SS_RETURN_IF_ERROR(store->CreateStreamWithId(kCompactionMarkerId, marker));
  return store->Flush();
}

// Builds one fixture: fresh store, server, connections, fleet, and for the
// query and mixed workloads the preloaded history (then, for query, a
// server stop and store reopen so windows come from storage).
Status SetUp(Fixture& fx, const RunConfig& config, const Shape& shape, const std::string& dir,
             Tally& tally, Gate& gate, AppendPhase* load, OpLog* log) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  fx.dir = dir;
  fx.block_cache_bytes = shape.block_cache_bytes;
  fx.fleet = MakeFleet(shape.streams);
  fx.refs.assign(fx.fleet.size(), StreamReference());
  for (const StreamSpec& s : fx.fleet) {
    fx.sources.emplace_back(s, config.seed);
    if (!s.sketch) {
      fx.metric_ids.push_back(s.id);
    }
  }
  SS_RETURN_IF_ERROR(fx.Start());
  for (const StreamSpec& s : fx.fleet) {
    tally.attempted.fetch_add(1);
    auto created =
        fx.clients[0]->CreateStream(s.id, ConfigFor(s, config.seed, shape.sketch_cache_bytes));
    if (!created.ok()) {
      return created.status();
    }
  }
  if (shape.preload_metric + shape.preload_sketch > 0) {
    *load = BulkLoad(fx, shape, tally, gate, log);
  }
  if (shape.reopen) {
    fx.Stop();
    SS_RETURN_IF_ERROR(CompactStore(fx.dir));
    SS_RETURN_IF_ERROR(fx.Start());
    // Warm the caches the timed phase will use: one whole-range scan per
    // stream loads every metric window (they fit their caches) and cycles
    // the sketch windows through theirs (they do not).
    for (size_t i = 0; i < fx.fleet.size(); ++i) {
      QuerySpec spec;
      spec.op = fx.fleet[i].sketch ? QueryOp::kFrequency : QueryOp::kCount;
      spec.t1 = fx.refs[i].first_ts();
      spec.t2 = fx.refs[i].last_ts();
      spec.value = 1.0;
      tally.attempted.fetch_add(1);
      auto warm = fx.clients[0]->Query(fx.fleet[i].id, spec);
      if (!warm.ok()) {
        return warm.status();
      }
    }
  }
  return Status::Ok();
}

// ------------------------------------------------------- registry deltas

// The store's MetricRegistry series a traced pass differences.
const char* const kCounters[][2] = {
    {"ss_net_requests_total", "op=\"append\""},
    {"ss_net_requests_total", "op=\"append_batch\""},
    {"ss_net_bytes_read_total", ""},
    {"ss_net_bytes_written_total", ""},
    {"ss_net_backpressure_blocked_total", ""},
    {"ss_core_append_total", ""},
    {"ss_core_window_merges_total", ""},
    {"ss_core_query_total", ""},
    {"ss_core_window_cache_hits_total", ""},
    {"ss_core_window_cache_misses_total", ""},
    {"ss_core_window_load_bytes_total", ""},
    {"ss_storage_wal_fsync_total", ""},
    {"ss_storage_wal_bytes_total", ""},
    {"ss_storage_memtable_flush_total", ""},
    {"ss_storage_compaction_total", ""},
    {"ss_storage_block_cache_hits_total", ""},
    {"ss_storage_block_cache_misses_total", ""},
};
const char* const kHistograms[][2] = {
    {"ss_net_ack_flush_us", ""},
    {"ss_net_ack_batch_requests", ""},
    {"ss_net_request_us", "op=\"append\""},
    {"ss_net_request_us", "op=\"append_batch\""},
    {"ss_net_request_us", "op=\"query\""},
    {"ss_core_flush_batch_records", ""},
    {"ss_core_stream_lock_wait_us", "op=\"append\""},
    {"ss_core_stream_lock_wait_us", "op=\"query\""},
    {"ss_core_query_us", ""},
    {"ss_core_query_phase_us", "phase=\"plan\""},
    {"ss_core_query_phase_us", "phase=\"window_scan\""},
    {"ss_core_query_phase_us", "phase=\"sketch_merge\""},
    {"ss_core_query_phase_us", "phase=\"ci_combine\""},
    {"ss_core_query_phase_us", "phase=\"degrade\""},
    {"ss_core_fleet_task_queue_us", ""},
    {"ss_storage_group_commit_size", ""},
    {"ss_storage_compaction_us", ""},
};

std::string Key(const char* name, const char* label) {
  return *label == '\0' ? std::string(name) : std::string(name) + "{" + label + "}";
}

struct Snap {
  uint64_t ns = 0;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistSnapshot> hists;
  FileIoTotals io;
  uint64_t net_calls = 0;
  CpuTimes cpu;
};

Snap TakeSnap(const CountingNetOps& net_ops, const TimingFileOps* file_ops) {
  ss::MetricRegistry& registry = ss::MetricRegistry::Default();
  Snap snap;
  snap.ns = NowNanos();
  for (const auto& c : kCounters) {
    snap.counters[Key(c[0], c[1])] = registry.GetCounter(c[0], c[1]).value();
  }
  for (const auto& h : kHistograms) {
    snap.hists[Key(h[0], h[1])] = HistSnapshot::Of(registry.GetHistogram(h[0], h[1]));
  }
  if (file_ops != nullptr) {
    snap.io = file_ops->Totals();
  }
  snap.net_calls = net_ops.calls();
  snap.cpu = ReadCpuTimes();
  return snap;
}

struct Delta {
  const Snap& a;
  const Snap& b;
  double Counter(const std::string& key) const {
    return static_cast<double>(b.counters.at(key) - a.counters.at(key));
  }
  HistSnapshot Hist(const std::string& key) const { return b.hists.at(key).Minus(a.hists.at(key)); }
  double Seconds() const { return static_cast<double>(b.ns - a.ns) / 1e9; }
  FileIoTotals Io() const { return b.io.Minus(a.io); }
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

Measured Value(double v, uint64_t samples, const std::string& unit);

// A tail percentile under the ten-beyond rule: the true q-quantile when
// enough samples exist, otherwise the highest quantile that has ten samples
// beyond it, with a note saying which.
Measured Tail(std::vector<double> samples, double q, const std::string& unit) {
  Measured m;
  m.unit = unit;
  m.samples = samples.size();
  if (samples.empty()) {
    m.note = "no samples";
    return m;
  }
  if (auto v = TailQuantile(samples, q)) {
    m.value = *v;
    return m;
  }
  double q_eff = std::max(0.5, 1.0 - 10.0 / static_cast<double>(samples.size()));
  m.value = Quantile(samples, q_eff);
  char note[96];
  std::snprintf(note, sizeof(note), "p%.1f: too few samples for p%g", q_eff * 100.0, q * 100.0);
  m.note = note;
  return m;
}

// An end-to-end tail percentile that one stall on a shared host cannot
// dominate: the samples, in completion order, are cut into k equal groups
// of at least 1000 (3 <= k <= 8) and the figure is the median of the
// groups' q-quantiles, each with at least ten samples beyond it. With
// fewer than 3000 samples it is the pooled quantile.
Measured GroupedTail(const std::vector<double>& values, const std::vector<uint64_t>& at_ns,
                     double q, const std::string& unit) {
  const size_t groups = std::min<size_t>(8, values.size() / kMinTailSamples);
  if (groups < 3 || at_ns.size() != values.size()) {
    return Tail(values, q, unit);
  }
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) { return at_ns[a] < at_ns[b]; });
  std::vector<double> tails;
  for (size_t g = 0; g < groups; ++g) {
    std::vector<double> group;
    for (size_t i = g * values.size() / groups; i < (g + 1) * values.size() / groups; ++i) {
      group.push_back(values[order[i]]);
    }
    tails.push_back(TailQuantile(group, q).value_or(Quantile(group, q)));
  }
  Measured m = Value(Median(tails), values.size(), unit);
  m.note = "median of " + std::to_string(groups) + " group tails";
  return m;
}

Measured HistTail(const HistSnapshot& h, double q, const std::string& unit) {
  Measured m;
  m.unit = unit;
  m.samples = h.count;
  if (h.count == 0) {
    m.note = "no samples";
    return m;
  }
  if (auto v = h.TailQuantile(q)) {
    m.value = *v;
    return m;
  }
  double q_eff = std::max(0.5, 1.0 - 10.0 / static_cast<double>(h.count));
  m.value = h.Quantile(q_eff);
  char note[96];
  std::snprintf(note, sizeof(note), "p%.1f: too few samples for p%g", q_eff * 100.0, q * 100.0);
  m.note = note;
  return m;
}

Measured Value(double v, uint64_t samples, const std::string& unit) {
  Measured m;
  m.value = v;
  m.samples = samples;
  m.unit = unit;
  return m;
}

Measured Med(std::vector<double> samples, const std::string& unit) {
  Measured m = Value(Median(samples), samples.size(), unit);
  if (samples.empty()) {
    m.note = "no samples";
  }
  return m;
}

// ------------------------------------------------------------ replay

struct ReplayResult {
  double append_ns = 0.0;
  uint64_t events = 0;
  std::vector<double> flush_us;
  std::array<std::vector<double>, kNumOps> query_us;
  std::vector<double> fleet_us;
  uint64_t queries = 0;
  std::string error;
};

// Replays the logged operations, in send order, directly against a fresh
// SummaryStore: appends and batches as issued, Flush after every
// `flush_every` appended events (the ack cadence the server recorded), and
// up to kReplayQueryCap queries. For the query workload the store is
// reopened between the load and the queries, as in the served run.
ReplayResult Replay(const std::string& dir, const Fixture& fx, const RunConfig& config,
                    const Shape& shape, OpLog& ops, double flush_every) {
  ReplayResult out;
  std::sort(ops.begin(), ops.end(),
            [](const LoggedOp& x, const LoggedOp& y) { return x.send_ns < y.send_ns; });
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  ss::StoreOptions options;
  options.dir = dir;
  options.lsm.block_cache_bytes = shape.block_cache_bytes;
  auto opened = ss::SummaryStore::Open(options);
  if (!opened.ok()) {
    out.error = opened.status().ToString();
    return out;
  }
  std::unique_ptr<ss::SummaryStore> store = std::move(*opened);
  for (const StreamSpec& s : fx.fleet) {
    Status st = store->CreateStreamWithId(s.id, ConfigFor(s, config.seed, shape.sketch_cache_bytes));
    if (!st.ok()) {
      out.error = st.ToString();
      return out;
    }
  }
  double since_flush = 0.0;
  auto flush = [&]() {
    tracing::Span span("replay.flush");
    uint64_t t0 = NowNanos();
    Status st = store->Flush();
    out.flush_us.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
    if (!st.ok() && out.error.empty()) {
      out.error = st.ToString();
    }
    since_flush = 0.0;
  };
  bool reopened = !shape.reopen;
  uint64_t request = 0;
  for (const LoggedOp& op : ops) {
    ++request;
    if (op.kind == LoggedOp::Kind::kAppend || op.kind == LoggedOp::Kind::kBatch) {
      uint64_t t0 = NowNanos();
      Status st = Status::Ok();
      size_t n = 1;
      if (op.kind == LoggedOp::Kind::kAppend) {
        tracing::Span span("replay.append", request);
        st = store->Append(op.id, op.event.ts, op.event.value);
      } else {
        tracing::Span span("replay.append_batch", request);
        n = op.batch.size();
        st = store->AppendBatch(op.id, op.batch);
      }
      out.append_ns += static_cast<double>(NowNanos() - t0);
      out.events += n;
      if (!st.ok() && out.error.empty()) {
        out.error = st.ToString();
      }
      since_flush += static_cast<double>(n);
      if (since_flush >= flush_every) {
        flush();
      }
      continue;
    }
    if (!reopened) {
      flush();
      store.reset();
      auto again = ss::SummaryStore::Open(options);
      if (!again.ok()) {
        out.error = again.status().ToString();
        return out;
      }
      store = std::move(*again);
      reopened = true;
    }
    if (out.queries >= kReplayQueryCap) {
      continue;
    }
    ++out.queries;
    uint64_t t0 = NowNanos();
    if (op.kind == LoggedOp::Kind::kFleet) {
      tracing::Span span("replay.query_aggregate", request);
      auto r = store->QueryAggregate(fx.metric_ids, op.spec);
      out.fleet_us.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
      (void)r;  // answers were checked on the served path
    } else {
      tracing::Span span("replay.query", request);
      auto r = store->Query(op.id, op.spec);
      out.query_us[static_cast<size_t>(op.spec.op)].push_back(
          static_cast<double>(NowNanos() - t0) / 1e3);
      (void)r;
    }
  }
  store.reset();
  fs::remove_all(dir, ec);
  return out;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      bytes += entry.file_size(ec);
    }
  }
  return bytes;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "query" || name == "mixed";
}

PassReport RunPass(const RunConfig& config, bool traced, CountingNetOps& net_ops,
                   TimingFileOps* file_ops) {
  PassReport report;
  const Shape shape = ShapeFor(config.workload);
  const bool is_query = config.workload == "query";
  Tally tally;
  const uint64_t blocked_before =
      ss::MetricRegistry::Default().GetCounter("ss_net_backpressure_blocked_total").value();
  const CpuTimes cpu_before = ReadCpuTimes();

  // ---- set-up, repeated; the last fixture is the one measured.
  std::vector<double> setup_s;
  std::vector<double> setup_cpu_s;
  std::vector<double> load_rates;
  std::vector<double> load_ack_ms;
  std::vector<uint64_t> load_ack_at;
  std::unique_ptr<Fixture> fx;
  AppendPhase load;
  OpLog log;
  Snap load_a;
  Snap load_b;
  // A traced pass sets up once: its per-layer figures come from the last
  // set-up only, and a --trace 1 run must still end within its time limit.
  const int setup_reps = traced ? 1 : shape.setup_reps;
  for (int rep = 0; rep < setup_reps; ++rep) {
    const bool last = rep + 1 == setup_reps;
    fx.reset();
    SettleFileSystem(config.work_dir);
    fx = std::make_unique<Fixture>();
    if (traced && last) {
      tracing::SetEnabled(true);
      load_a = TakeSnap(net_ops, file_ops);
    }
    uint64_t t0 = NowNanos();
    const double cpu0 = ServerCpuSeconds();
    Status st = SetUp(*fx, config, shape,
                      config.work_dir + "/" + config.workload + "-store" + std::to_string(rep),
                      tally, report.gate, &load, traced && last ? &log : nullptr);
    setup_s.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
    setup_cpu_s.push_back(ServerCpuSeconds() - cpu0);
    if (traced && last) {
      load_b = TakeSnap(net_ops, file_ops);
    }
    if (!st.ok()) {
      report.error = "set-up failed: " + st.ToString();
      return report;
    }
    if (load.events > 0) {
      load_rates.push_back(static_cast<double>(load.events) / load.seconds);
      Append(load_ack_ms, load.ack_ms);
      Append(load_ack_at, load.ack_at_ns);
    }
  }

  // ---- timed phase
  SettleFileSystem(config.work_dir);
  const Snap timed_a = TakeSnap(net_ops, file_ops);
  const double timed_cpu0 = ServerCpuSeconds();
  AppendPhase appends;
  LoopStats queries;
  uint64_t scheduled = 0;
  uint64_t completed = 0;
  std::vector<double> late_ms;
  OpLog* timed_log = traced ? &log : nullptr;
  if (is_query) {
    queries = QueryLoop(*fx, config.seed, config.seconds, tally, report.gate, timed_log);
    scheduled = queries.scheduled;
    completed = queries.completed;
  } else {
    MixedResult mixed =
        MixedLoop(*fx, shape, config.seed, config.seconds, tally, report.gate, timed_log);
    appends = std::move(mixed.appends);
    queries = std::move(mixed.queries);
    scheduled = mixed.scheduled_appends + queries.scheduled;
    completed = appends.ack_ms.size() + queries.completed;
    late_ms = queries.late_ms;
  }
  const double timed_cpu_s = ServerCpuSeconds() - timed_cpu0;
  const Snap timed_b = TakeSnap(net_ops, file_ops);

  // ---- accuracy probe (after the workload has quiesced)
  Scorer scorer;
  RunProbe(*fx, config.seed, tally, report.gate, scorer, timed_log);
  tracing::SetEnabled(false);

  // Where this workload appends, and where it queries (see NOTES.md).
  const AppendPhase& append_phase = is_query ? load : appends;
  const LoopStats& query_phase = queries;
  std::vector<double> ack_ms = is_query ? load_ack_ms : appends.ack_ms;
  std::vector<uint64_t> ack_at = is_query ? load_ack_at : appends.ack_at_ns;

  // ---- end-to-end metrics. Latencies and rates go to e2e_unbounded: on a
  // shared host they follow the host more than the store (NOTES.md,
  // "Steadiness"), so they are printed but carry no regression bound. CPU
  // time is not charged for time the hypervisor takes away or for waiting
  // to be woken, so the cost figures carry the bounds.
  auto& e = report.e2e;
  auto& u = report.e2e_unbounded;
  e["setup_s"] = Value(Median(setup_s), setup_s.size(), "s");
  e["setup_cpu_s"] = Value(Median(setup_cpu_s), setup_cpu_s.size(), "s");
  e["server_cpu_us_per_op"] =
      Value(Ratio(timed_cpu_s * 1e6, static_cast<double>(completed)), completed, "us");
  const double append_rate = is_query
                                 ? Median(load_rates)
                                 : Ratio(static_cast<double>(appends.events), appends.seconds);
  u["append_events_per_s"] = Value(append_rate, is_query ? load_rates.size() : appends.events,
                                   "1/s");
  u["ack_p50_ms"] = Med(ack_ms, "ms");
  u["ack_p99_ms"] = GroupedTail(ack_ms, ack_at, 0.99, "ms");
  const double query_count =
      static_cast<double>(query_phase.latency_ms.size() + query_phase.fleet_latency_ms.size());
  const double query_rate =
      is_query ? SliceRate(query_phase.done_ns, query_phase.start_ns, config.seconds)
               : Ratio(query_count, query_phase.seconds);
  u["queries_per_s"] = Value(query_rate, static_cast<uint64_t>(query_count), "1/s");
  u["query_p50_ms"] = Med(query_phase.latency_ms, "ms");
  u["query_p99_ms"] = GroupedTail(query_phase.latency_ms, query_phase.latency_at_ns, 0.99, "ms");
  u["fleet_query_p50_ms"] = Med(query_phase.fleet_latency_ms, "ms");
  e["answer_interval_score"] = Value(scorer.MeanIntervalScore(), scorer.answers(), "score");
  report.uncapped_score = scorer.MeanUncappedScore();
  const uint64_t total_events = fx->TotalEvents();
  e["decayed_bytes_per_event"] =
      Value(Ratio(static_cast<double>(fx->store->TotalSizeBytes()),
                  static_cast<double>(total_events)),
            total_events, "bytes");
  e["peak_rss_mb"] = Value(PeakRssMb(), 1, "MiB");

  report.attempted = tally.attempted.load();
  report.non_ok = tally.non_ok.load();
  report.conn_errors = tally.conn_errors.load();
  report.blocked =
      ss::MetricRegistry::Default().GetCounter("ss_net_backpressure_blocked_total").value() -
      blocked_before;

  if (!traced) {
    return report;
  }

  // ---- per-layer metrics (traced pass)
  auto& l = report.layer;
  const Delta ad = is_query ? Delta{load_a, load_b} : Delta{timed_a, timed_b};
  const Delta td{timed_a, timed_b};
  const double events = static_cast<double>(append_phase.events);
  const double kevents = events / 1000.0;

  HistSnapshot ack_flush = ad.Hist("ss_net_ack_flush_us");
  l["net.ack_flush_us_p50"] = Value(ack_flush.Quantile(0.5), ack_flush.count, "us");
  l["net.ack_flush_us_p99"] = HistTail(ack_flush, 0.99, "us");
  HistSnapshot acks = ad.Hist("ss_net_ack_batch_requests");
  l["net.acks_per_flush"] = Value(acks.Mean(), acks.count, "count");
  const double frames = ad.Counter("ss_net_requests_total{op=\"append\"}") +
                        ad.Counter("ss_net_requests_total{op=\"append_batch\"}");
  l["net.frames_per_event"] = Value(Ratio(frames, events), append_phase.events, "count");
  l["net.bytes_per_event"] =
      Value(Ratio(ad.Counter("ss_net_bytes_read_total") + ad.Counter("ss_net_bytes_written_total"),
                  events),
            append_phase.events, "bytes");
  HistSnapshot append_req = ad.Hist("ss_net_request_us{op=\"append\"}");
  HistSnapshot batch_req = ad.Hist("ss_net_request_us{op=\"append_batch\"}");
  for (size_t k = 0; k < append_req.buckets.size(); ++k) {
    append_req.buckets[k] += batch_req.buckets[k];
  }
  append_req.count += batch_req.count;
  append_req.sum += batch_req.sum;
  l["net.append_request_us_p50"] = Value(append_req.Quantile(0.5), append_req.count, "us");
  l["net.append_request_us_p99"] = HistTail(append_req, 0.99, "us");
  HistSnapshot query_req = td.Hist("ss_net_request_us{op=\"query\"}");
  l["net.query_request_us_p50"] = Value(query_req.Quantile(0.5), query_req.count, "us");
  l["net.backpressure_blocked_per_kevent"] =
      Value(Ratio(ad.Counter("ss_net_backpressure_blocked_total"), kevents), append_phase.events,
            "count/kevent");
  const double timed_ops = static_cast<double>(completed);
  l["net.socket_calls_per_op"] =
      Value(Ratio(static_cast<double>(td.b.net_calls - td.a.net_calls), timed_ops),
            static_cast<uint64_t>(timed_ops), "count");

  l["core.window_merges_per_event"] =
      Value(Ratio(ad.Counter("ss_core_window_merges_total"), ad.Counter("ss_core_append_total")),
            append_phase.events, "count");
  HistSnapshot flush_records = ad.Hist("ss_core_flush_batch_records");
  l["core.flush_records_per_flush"] = Value(flush_records.Mean(), flush_records.count, "count");
  l["core.lock_wait_append_us_p99"] =
      HistTail(ad.Hist("ss_core_stream_lock_wait_us{op=\"append\"}"), 0.99, "us");
  l["core.lock_wait_query_us_p99"] =
      HistTail(td.Hist("ss_core_stream_lock_wait_us{op=\"query\"}"), 0.99, "us");
  HistSnapshot core_query = td.Hist("ss_core_query_us");
  l["core.query_us_p50"] = Value(core_query.Quantile(0.5), core_query.count, "us");
  l["core.query_us_p99"] = HistTail(core_query, 0.99, "us");
  const double core_queries = td.Counter("ss_core_query_total");
  for (const char* phase : {"plan", "window_scan", "sketch_merge", "ci_combine", "degrade"}) {
    HistSnapshot h = td.Hist(std::string("ss_core_query_phase_us{phase=\"") + phase + "\"}");
    l[std::string("core.query_phase_us.") + phase] =
        Value(Ratio(static_cast<double>(h.sum), core_queries), h.count, "us");
  }
  l["core.windows_read_per_query"] =
      Value(Mean(query_phase.windows_read), query_phase.windows_read.size(), "count");
  const double wc_hits = td.Counter("ss_core_window_cache_hits_total");
  const double wc_misses = td.Counter("ss_core_window_cache_misses_total");
  l["core.window_cache_hit_ratio"] =
      Value(Ratio(wc_hits, wc_hits + wc_misses), static_cast<uint64_t>(wc_hits + wc_misses),
            "ratio");
  l["core.window_load_bytes_per_query"] =
      Value(Ratio(td.Counter("ss_core_window_load_bytes_total"), core_queries),
            static_cast<uint64_t>(core_queries), "bytes");
  l["common.fleet_task_queue_us_p99"] =
      HistTail(td.Hist("ss_core_fleet_task_queue_us"), 0.99, "us");

  // Decayed size per stream class, and the distribution of sketch windows.
  double metric_bytes = 0.0;
  double metric_events = 0.0;
  double sketch_bytes = 0.0;
  double sketch_events = 0.0;
  std::vector<double> window_bytes;
  for (size_t i = 0; i < fx->fleet.size(); ++i) {
    auto stream = fx->store->GetStream(fx->fleet[i].id);
    if (!stream.ok()) {
      continue;
    }
    std::shared_lock<std::shared_mutex> lock((*stream)->mutex());
    double bytes = static_cast<double>((*stream)->SizeBytes());
    double n = static_cast<double>(fx->refs[i].size());
    (fx->fleet[i].sketch ? sketch_bytes : metric_bytes) += bytes;
    (fx->fleet[i].sketch ? sketch_events : metric_events) += n;
    if (fx->fleet[i].sketch) {
      auto views = (*stream)->WindowsOverlapping(ss::kMinTimestamp, ss::kMaxTimestamp);
      if (views.ok()) {
        for (const auto& view : *views) {
          if (view.window != nullptr && !view.window->is_raw()) {
            window_bytes.push_back(static_cast<double>(view.window->SizeBytes()));
          }
        }
      }
    }
  }
  l["core.decayed_bytes_per_event.metric"] =
      Value(Ratio(metric_bytes, metric_events), static_cast<uint64_t>(metric_events), "bytes");
  l["core.decayed_bytes_per_event.sketch"] =
      Value(Ratio(sketch_bytes, sketch_events), static_cast<uint64_t>(sketch_events), "bytes");
  l["sketch.window_bytes_p50"] = Med(window_bytes, "bytes");

  for (size_t k = 0; k < kNumOps; ++k) {
    const OpAccuracy& acc = scorer.op(static_cast<QueryOp>(k));
    std::string op = OpKey(static_cast<QueryOp>(k));
    l["core.query." + op + ".ci_coverage"] =
        Value(Ratio(static_cast<double>(acc.covered), static_cast<double>(acc.answers)),
              acc.answers, "ratio");
    l["core.query." + op + ".rel_ci_width_p50"] = Med(acc.rel_widths, "ratio");
  }
  l["core.query.exact_label_misses"] =
      Value(static_cast<double>(scorer.exact_label_misses()), scorer.answers(), "count");
  l["core.query.bracket_misses"] =
      Value(static_cast<double>(scorer.bracket_misses()), scorer.answers(), "count");
  l["core.query.estimates_outside_ci"] =
      Value(static_cast<double>(report.gate.estimates_outside_ci()), report.attempted, "count");

  // Storage: the append phase's write path, the query phase's read path.
  const FileIoTotals aio = ad.Io();
  const FileIoTotals tio = td.Io();
  l["storage.wal_fsyncs_per_kevent"] =
      Value(Ratio(ad.Counter("ss_storage_wal_fsync_total"), kevents), append_phase.events,
            "count/kevent");
  std::vector<double> fsync_us =
      file_ops != nullptr ? file_ops->FsyncSamplesUs(ad.a.ns, ad.b.ns) : std::vector<double>{};
  l["storage.fsync_us_p50"] = Med(fsync_us, "us");
  l["storage.fsync_us_p99"] = Tail(fsync_us, 0.99, "us");
  HistSnapshot group = ad.Hist("ss_storage_group_commit_size");
  l["storage.group_commit_size_mean"] = Value(group.Mean(), group.count, "count");
  l["storage.write_bytes_per_event"] =
      Value(Ratio(static_cast<double>(aio.write_bytes), events), append_phase.events, "bytes");
  l["storage.wal_bytes_per_event"] =
      Value(Ratio(ad.Counter("ss_storage_wal_bytes_total"), events), append_phase.events, "bytes");
  l["storage.memtable_flushes_per_kevent"] =
      Value(Ratio(ad.Counter("ss_storage_memtable_flush_total"), kevents), append_phase.events,
            "count/kevent");
  l["storage.compactions_per_kevent"] =
      Value(Ratio(ad.Counter("ss_storage_compaction_total"), kevents), append_phase.events,
            "count/kevent");
  HistSnapshot compaction = ad.Hist("ss_storage_compaction_us");
  l["storage.compaction_busy_share"] =
      Value(Ratio(static_cast<double>(compaction.sum), ad.Seconds() * 1e6), compaction.count,
            "ratio");
  const double bc_hits = td.Counter("ss_storage_block_cache_hits_total");
  const double bc_misses = td.Counter("ss_storage_block_cache_misses_total");
  l["storage.block_cache_hit_ratio"] =
      Value(Ratio(bc_hits, bc_hits + bc_misses), static_cast<uint64_t>(bc_hits + bc_misses),
            "ratio");
  l["storage.pread_bytes_per_query"] =
      Value(Ratio(static_cast<double>(tio.pread_bytes), query_count),
            static_cast<uint64_t>(query_count), "bytes");
  std::vector<double> pread_us =
      file_ops != nullptr ? file_ops->PreadSamplesUs(td.a.ns, td.b.ns) : std::vector<double>{};
  l["storage.pread_us_p99"] = Tail(pread_us, 0.99, "us");
  l["storage.disk_bytes_per_event"] =
      Value(Ratio(static_cast<double>(DirectoryBytes(fx->dir)), static_cast<double>(total_events)),
            total_events, "bytes");
  l["storage.io_busy_share"] =
      Value(Ratio(static_cast<double>(tio.busy_ns), td.Seconds() * 1e9),
            tio.writes + tio.preads + tio.fsyncs + tio.other_calls, "ratio");

  // Run validity.
  l["loadgen.late_p99_ms"] = Tail(late_ms, 0.99, "ms");
  l["loadgen.achieved_over_offered"] =
      Value(Ratio(static_cast<double>(completed), static_cast<double>(scheduled)), scheduled,
            "ratio");
  l["host.steal_pct"] = Value(StealPercent(cpu_before, ReadCpuTimes()), 1, "pct");

  const uint64_t ack_flushes = ack_flush.count;

  // ---- direct replay of the logged operation sequence
  fx->Stop();
  const double flush_every =
      ack_flushes > 0 ? std::max(1.0, events / static_cast<double>(ack_flushes)) : events + 1.0;
  tracing::SetEnabled(true);
  ReplayResult replay =
      Replay(config.work_dir + "/" + config.workload + "-replay", *fx, config, shape, log,
             flush_every);
  tracing::SetEnabled(false);
  if (!replay.error.empty()) {
    report.error = "replay failed: " + replay.error;
    return report;
  }
  l["core.append_us_per_event"] =
      Value(Ratio(replay.append_ns / 1e3, static_cast<double>(replay.events)), replay.events, "us");
  l["core.flush_us_p50"] = Med(replay.flush_us, "us");
  l["core.flush_us_p99"] = Tail(replay.flush_us, 0.99, "us");
  std::vector<double> all_query_us;
  for (size_t k = 0; k < kNumOps; ++k) {
    l[std::string("core.query_us_p50.") + OpKey(static_cast<QueryOp>(k))] =
        Med(replay.query_us[k], "us");
    Append(all_query_us, replay.query_us[k]);
  }
  l["core.fleet_query_us_p50"] = Med(replay.fleet_us, "us");
  // Client RPC time not spent in the core: mean served latency minus the
  // mean direct-replay time of the same query sequence.
  const double served_mean_us = Mean(query_phase.latency_ms) * 1e3;
  l["net.client_rpc_self_us_per_query"] =
      Value(all_query_us.empty() ? 0.0 : served_mean_us - Mean(all_query_us),
            all_query_us.size(), "us");
  return report;
}

}  // namespace ssbench
