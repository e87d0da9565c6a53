// Multi-connection load driver for sserver's service core (src/net/server.h),
// run in-process against a loopback listener. Six phases:
//
//   1. load        — N pipelined connections (default 32), each appending to
//                    its own stream with a bounded in-flight window; reports
//                    aggregate appends/s and durable-ack latency percentiles,
//                    then repeats the run with durable acks off and reports
//                    durable over non-durable appends/s (same host, same
//                    run, so the ratio travels between machines).
//   2. shed        — tiny admission budget + kShed: pipelined batches must be
//                    rejected with kFailedPrecondition, never queued; the
//                    ss_net_backpressure_shed_total delta proves the policy.
//   3. block       — tiny admission budget + kBlock: the server stops reading
//                    saturating connections (TCP pushback) instead of
//                    shedding; every append is eventually acked, and the
//                    ss_net_backpressure_blocked_total delta proves it.
//   4. kill        — pipelined appends, Server::Abort() mid stream (store
//                    leaked: no destructor flush); the store is reopened and
//                    every acked append must have survived via WAL replay.
//                    Two variants: a sync-WAL store, and a sync_wal=false
//                    store (the sserver default) under FaultFs whose
//                    simulated power loss drops every byte no fsync covered,
//                    so its acks stand only on the ack flush's WAL barrier.
//                    acked_lost must be 0 in both.
//   5. noisy       — two-tenant fair-share isolation: a hot tenant saturates
//                    far beyond its per-tenant share under kShed while a
//                    quiet tenant trickles small appends. The quiet tenant
//                    must see zero sheds and a bounded ack p99 — the whole
//                    point of per-tenant admission budgets.
//   6. flaky       — FaultNet severs connections mid-load while RetryingClient
//                    fleets pipeline appends under the (session, seq) replay
//                    contract. Gates: every append acked, and the store holds
//                    EXACTLY the acked count per stream — zero acked-append
//                    loss AND zero duplicate application across reconnects.
//
// SS_NET_CONNS / SS_NET_EVENTS override the shape; SS_BENCH_PROFILE=ci
// shrinks the per-connection event count for the CI perf-trajectory leg.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/net/client.h"
#include "src/net/fault_net.h"
#include "src/net/retry_client.h"
#include "src/net/server.h"
#include "src/net/socket.h"
#include "src/net/tenant.h"
#include "src/obs/metrics.h"
#include "src/storage/fault_fs.h"

namespace {

using namespace ss;
using namespace ss::bench;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  return std::strtoull(v, nullptr, 10);
}

StreamConfig BenchConfig() {
  StreamConfig config;
  config.decay = std::make_shared<PowerLawDecay>(1, 1, 1, 1);
  return config;
}

StatusOr<std::unique_ptr<SummaryStore>> OpenStore(const std::string& dir, bool sync_wal) {
  StoreOptions options;
  options.dir = dir;
  options.lsm.sync_wal = sync_wal;
  return SummaryStore::Open(options);
}

Counter& ShedCounter() {
  return MetricRegistry::Default().GetCounter("ss_net_backpressure_shed_total");
}
Counter& BlockedCounter() {
  return MetricRegistry::Default().GetCounter("ss_net_backpressure_blocked_total");
}

// One connection's worth of windowed pipelined appends: keeps up to `window`
// requests in flight, records per-request ack latency, and returns the
// number of successfully acked appends.
struct ConnResult {
  uint64_t acked = 0;
  uint64_t rejected = 0;  // non-OK acks (sheds)
  std::vector<double> ack_ms;
  bool io_error = false;
};

ConnResult DriveConnection(uint16_t port, StreamId sid, uint64_t events, size_t window,
                           const Stopwatch& epoch, uint32_t tenant = 0,
                           std::string_view token = {}) {
  ConnResult out;
  auto client = net::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    out.io_error = true;
    return out;
  }
  net::Client& c = **client;
  if (tenant != 0 && !c.Hello(tenant, token).ok()) {
    out.io_error = true;
    return out;
  }
  if (!c.CreateStream(sid, BenchConfig()).ok()) {
    out.io_error = true;
    return out;
  }
  out.ack_ms.reserve(events);
  std::unordered_map<uint64_t, double> sent_us;
  sent_us.reserve(window * 2);
  uint64_t sent = 0;
  Timestamp ts = 0;
  while (sent < events || c.inflight() > 0) {
    while (sent < events && c.inflight() < window) {
      auto id = c.SendAppend(sid, ++ts, 1.0);
      if (!id.ok()) {
        out.io_error = true;
        return out;
      }
      sent_us[*id] = epoch.ElapsedMicros();
      ++sent;
    }
    auto ack = c.ReceiveAck();
    if (!ack.ok()) {
      out.io_error = true;  // server gone (kill phase) — acks so far stand
      return out;
    }
    auto it = sent_us.find(ack->request_id);
    if (it != sent_us.end()) {
      out.ack_ms.push_back((epoch.ElapsedMicros() - it->second) / 1000.0);
      sent_us.erase(it);
    }
    if (ack->status.ok()) {
      ++out.acked;
    } else {
      ++out.rejected;
    }
  }
  return out;
}

struct LoadResult {
  bool ok = false;
  double rate = 0.0;  // acked appends per second
  std::vector<double> ack_ms;
};

// Phase 1: `conns` pipelined connections, each appending `events` to its own
// stream on a fresh sync_wal=false store. Prints the rate; ok=false (after a
// message) if any connection failed or any append went unacked.
LoadResult RunLoad(int conns, uint64_t events, size_t window, bool durable_acks) {
  LoadResult out;
  ScopedTempDir dir(durable_acks ? "net_load" : "net_load_nondurable");
  auto store = OpenStore(dir.path(), /*sync_wal=*/false);
  if (!store.ok()) {
    std::fprintf(stderr, "open failed: %s\n", store.status().ToString().c_str());
    return out;
  }
  net::ServerOptions options;
  options.durable_acks = durable_acks;
  auto server = net::Server::Start(store->get(), options);
  if (!server.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", server.status().ToString().c_str());
    return out;
  }
  Stopwatch epoch;
  std::vector<ConnResult> results(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (int t = 0; t < conns; ++t) {
    threads.emplace_back([&, t] {
      results[t] =
          DriveConnection((*server)->port(), static_cast<StreamId>(t + 1), events, window, epoch);
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const double wall_s = epoch.ElapsedSeconds();
  (*server)->Stop();
  uint64_t acked = 0;
  for (const auto& r : results) {
    if (r.io_error) {
      std::fprintf(stderr, "load phase: connection hit an I/O error\n");
      return out;
    }
    acked += r.acked;
    out.ack_ms.insert(out.ack_ms.end(), r.ack_ms.begin(), r.ack_ms.end());
  }
  const uint64_t expected = static_cast<uint64_t>(conns) * events;
  if (acked != expected) {
    std::fprintf(stderr, "load phase: acked %llu of %llu appends\n",
                 static_cast<unsigned long long>(acked),
                 static_cast<unsigned long long>(expected));
    return out;
  }
  out.rate = static_cast<double>(acked) / wall_s;
  std::printf("load (%s acks): %llu appends acked in %.2f s -> %.0f appends/s\n",
              durable_acks ? "durable" : "non-durable", static_cast<unsigned long long>(acked),
              wall_s, out.rate);
  out.ok = true;
  return out;
}

struct KillResult {
  bool ok = false;
  uint64_t acked = 0;
  uint64_t lost = 0;
};

// Phase 4: pipelined appends, Server::Abort() once a quarter of them are
// acked, the store leaked (no close-time memtable flush), then reopened.
// With sync_wal=false the store runs under FaultFs and the kill ends in a
// simulated power loss that drops every byte no fsync covered, so only the
// ack flush's WAL barrier can keep an acked append. ok=false (after a
// message) on any setup failure or any acked append lost.
KillResult RunKill(int conns, uint64_t events, bool sync_wal) {
  KillResult out;
  const char* variant = sync_wal ? "sync_wal" : "sync_wal=false + power loss";
  ScopedTempDir dir(sync_wal ? "net_kill" : "net_kill_nosync");
  std::vector<ConnResult> results(conns);
  std::atomic<uint64_t> acks_seen{0};
  FaultFs fault_fs;
  if (!sync_wal) {
    SetFileOpsForTest(&fault_fs);
  }
  {
    auto store = OpenStore(dir.path(), sync_wal);
    if (!store.ok()) {
      std::fprintf(stderr, "kill store open failed\n");
      SetFileOpsForTest(nullptr);
      return out;
    }
    auto server = net::Server::Start(store->get(), net::ServerOptions{});
    if (!server.ok()) {
      std::fprintf(stderr, "kill server start failed\n");
      SetFileOpsForTest(nullptr);
      return out;
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < conns; ++t) {
      threads.emplace_back([&, t] {
        auto client = net::Client::Connect("127.0.0.1", (*server)->port());
        if (!client.ok()) {
          results[t].io_error = true;
          return;
        }
        net::Client& c = **client;
        if (!c.CreateStream(static_cast<StreamId>(t + 1), BenchConfig()).ok()) {
          results[t].io_error = true;
          return;
        }
        Timestamp ts = 0;
        uint64_t sent = 0;
        while (sent < events || c.inflight() > 0) {
          while (sent < events && c.inflight() < 64) {
            if (!c.SendAppend(static_cast<StreamId>(t + 1), ++ts, 1.0).ok()) {
              return;  // server killed mid-send: acks so far stand
            }
            ++sent;
          }
          auto ack = c.ReceiveAck();
          if (!ack.ok()) {
            return;  // reset/EOF: the kill
          }
          if (ack->status.ok()) {
            ++results[t].acked;
            acks_seen.fetch_add(1);
          }
        }
      });
    }
    // Kill the server once a quarter of the fleet's appends are acked:
    // enough traffic that acks are genuinely in flight everywhere.
    const uint64_t kill_at = static_cast<uint64_t>(conns) * events / 4;
    while (acks_seen.load() < kill_at) {
      std::this_thread::yield();
    }
    (*server)->Abort();
    for (auto& th : threads) {
      th.join();
    }
    // Hard kill: leak the store so no destructor flush cleans up after us.
    // WAL replay alone must account for every acked append.
    (void)store->release();
  }
  if (!sync_wal) {
    Status power_loss = fault_fs.ApplyPowerLoss();
    SetFileOpsForTest(nullptr);
    if (!power_loss.ok()) {
      std::fprintf(stderr, "kill phase: power loss failed: %s\n",
                   power_loss.ToString().c_str());
      return out;
    }
  }

  auto reopened = OpenStore(dir.path(), sync_wal);
  if (!reopened.ok()) {
    std::fprintf(stderr, "kill phase (%s): reopen failed: %s\n", variant,
                 reopened.status().ToString().c_str());
    return out;
  }
  uint64_t total_recovered = 0;
  for (int t = 0; t < conns; ++t) {
    out.acked += results[t].acked;
    auto stream = (*reopened)->GetStream(static_cast<StreamId>(t + 1));
    const uint64_t recovered = stream.ok() ? (*stream)->element_count() : 0;
    total_recovered += recovered;
    if (recovered < results[t].acked) {
      out.lost += results[t].acked - recovered;
    }
  }
  std::printf("kill (%s): %llu acked before abort, %llu recovered after replay, %llu lost\n",
              variant, static_cast<unsigned long long>(out.acked),
              static_cast<unsigned long long>(total_recovered),
              static_cast<unsigned long long>(out.lost));
  if (out.lost != 0) {
    std::fprintf(stderr, "kill phase (%s): acked appends lost across kill+replay\n", variant);
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace

int main() {
  const char* profile_env = std::getenv("SS_BENCH_PROFILE");
  const bool ci = profile_env != nullptr && std::strcmp(profile_env, "ci") == 0;
  const int kConns = static_cast<int>(EnvU64("SS_NET_CONNS", 32));
  const uint64_t kEvents = EnvU64("SS_NET_EVENTS", ci ? 2000 : 20000);
  const size_t kWindow = 128;

  BenchReport report("net");
  report.AddMeta("profile", profile_env != nullptr ? profile_env : "default");
  report.AddMeta("connections", std::to_string(kConns));
  report.AddMeta("events_per_conn", std::to_string(kEvents));

  // ------------------------------------------------------------ phase 1: load
  std::printf("=== net: %d pipelined connections x %llu appends (window %zu) ===\n", kConns,
              static_cast<unsigned long long>(kEvents), kWindow);
  {
    auto durable = RunLoad(kConns, kEvents, kWindow, /*durable_acks=*/true);
    auto fast = RunLoad(kConns, kEvents, kWindow, /*durable_acks=*/false);
    if (!durable.ok || !fast.ok) {
      return 1;
    }
    std::vector<double>& ack_ms = durable.ack_ms;
    std::printf("ack latency: p50 %.2f ms  p95 %.2f ms  p99 %.2f ms\n", Percentile(ack_ms, 50),
                Percentile(ack_ms, 95), Percentile(ack_ms, 99));
    const double ratio = durable.rate / fast.rate;
    std::printf("durable / non-durable ingest: %.0f / %.0f appends/s = %.3f\n", durable.rate,
                fast.rate, ratio);
    report.Add("load_appends_per_sec", durable.rate, "appends/s", "higher");
    report.Add("nondurable_load_appends_per_sec", fast.rate, "appends/s", "higher");
    report.Add("durable_over_nondurable_ratio", ratio, "x", "higher");
    report.Add("ack_p50_ms", Percentile(ack_ms, 50), "ms", "lower");
    report.Add("ack_p95_ms", Percentile(ack_ms, 95), "ms", "lower");
    report.Add("ack_p99_ms", Percentile(ack_ms, 99), "ms", "lower");
  }

  // ------------------------------------------------------------ phase 2: shed
  {
    ScopedTempDir dir("net_shed");
    auto store = OpenStore(dir.path(), /*sync_wal=*/false);
    net::ServerOptions options;
    options.ingest_queue_events = 512;
    options.backpressure = net::ServerOptions::Backpressure::kShed;
    auto server = net::Server::Start(store->get(), options);
    if (!server.ok()) {
      std::fprintf(stderr, "shed server start failed\n");
      return 1;
    }
    const uint64_t shed_before = ShedCounter().value();
    const uint64_t shed_events = std::min<uint64_t>(kEvents, 4096);
    Stopwatch epoch;
    std::vector<ConnResult> results(kConns);
    std::vector<std::thread> threads;
    for (int t = 0; t < kConns; ++t) {
      threads.emplace_back([&, t] {
        // Window far beyond the global budget: most in-flight appends must
        // be shed, and the connection must survive every rejection.
        results[t] = DriveConnection((*server)->port(), static_cast<StreamId>(t + 1), shed_events,
                                     /*window=*/1024, epoch);
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    uint64_t acked = 0, rejected = 0;
    for (const auto& r : results) {
      if (r.io_error) {
        std::fprintf(stderr, "shed phase: connection hit an I/O error\n");
        return 1;
      }
      acked += r.acked;
      rejected += r.rejected;
    }
    const uint64_t shed_delta = ShedCounter().value() - shed_before;
    std::printf("shed: %llu acked, %llu shed (metric delta %llu) with budget 512\n",
                static_cast<unsigned long long>(acked), static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(shed_delta));
    if (shed_delta == 0 || rejected == 0) {
      std::fprintf(stderr, "shed phase: backpressure never engaged\n");
      return 1;
    }
    report.Add("shed_rejected_requests", static_cast<double>(rejected), "requests", "higher");
    (*server)->Stop();
  }

  // ----------------------------------------------------------- phase 3: block
  {
    ScopedTempDir dir("net_block");
    auto store = OpenStore(dir.path(), /*sync_wal=*/false);
    net::ServerOptions options;
    options.ingest_queue_events = 512;
    options.backpressure = net::ServerOptions::Backpressure::kBlock;
    auto server = net::Server::Start(store->get(), options);
    if (!server.ok()) {
      std::fprintf(stderr, "block server start failed\n");
      return 1;
    }
    const uint64_t blocked_before = BlockedCounter().value();
    const uint64_t block_events = std::min<uint64_t>(kEvents, 4096);
    Stopwatch epoch;
    std::vector<ConnResult> results(kConns);
    std::vector<std::thread> threads;
    for (int t = 0; t < kConns; ++t) {
      threads.emplace_back([&, t] {
        results[t] = DriveConnection((*server)->port(), static_cast<StreamId>(t + 1), block_events,
                                     /*window=*/256, epoch);
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    const double wall_s = epoch.ElapsedSeconds();
    uint64_t acked = 0;
    for (const auto& r : results) {
      if (r.io_error || r.rejected != 0) {
        std::fprintf(stderr, "block phase: lost or rejected appends under kBlock\n");
        return 1;
      }
      acked += r.acked;
    }
    const uint64_t blocked_delta = BlockedCounter().value() - blocked_before;
    const double rate = static_cast<double>(acked) / wall_s;
    std::printf("block: all %llu appends acked at %.0f appends/s; %llu block events\n",
                static_cast<unsigned long long>(acked), rate,
                static_cast<unsigned long long>(blocked_delta));
    if (blocked_delta == 0) {
      std::fprintf(stderr, "block phase: backpressure never engaged\n");
      return 1;
    }
    report.Add("block_throttled_appends_per_sec", rate, "appends/s", "higher");
    (*server)->Stop();
  }

  // ------------------------------------------------------------ phase 4: kill
  {
    const uint64_t kill_events = std::min<uint64_t>(kEvents, 2000);
    KillResult synced = RunKill(kConns, kill_events, /*sync_wal=*/true);
    KillResult barrier = RunKill(kConns, kill_events, /*sync_wal=*/false);
    if (!synced.ok || !barrier.ok) {
      return 1;
    }
    report.Add("kill_acked_appends", static_cast<double>(synced.acked), "appends", "higher");
    report.Add("kill_acked_lost", static_cast<double>(synced.lost), "appends", "lower");
    report.Add("kill_nosync_acked_appends", static_cast<double>(barrier.acked), "appends",
               "higher");
    report.Add("kill_nosync_acked_lost", static_cast<double>(barrier.lost), "appends", "lower");
  }

  // ----------------------------------------------------------- phase 5: noisy
  {
    ScopedTempDir dir("net_noisy");
    auto store = OpenStore(dir.path(), /*sync_wal=*/false);
    auto registry = net::TenantRegistry::Parse(
        "1 hot   hot-token   0 0 0\n"
        "2 quiet quiet-token 0 0 0\n");
    if (!registry.ok()) {
      std::fprintf(stderr, "noisy phase: registry parse failed\n");
      return 1;
    }
    net::ServerOptions options;
    options.ingest_queue_events = 512;  // per-tenant share: 256
    options.backpressure = net::ServerOptions::Backpressure::kShed;
    options.tenants = std::make_shared<const net::TenantRegistry>(std::move(registry).value());
    auto server = net::Server::Start(store->get(), options);
    if (!server.ok()) {
      std::fprintf(stderr, "noisy server start failed\n");
      return 1;
    }
    Counter& hot_shed =
        MetricRegistry::Default().GetCounter("ss_net_backpressure_shed_total", "tenant=\"hot\"");
    Counter& quiet_shed =
        MetricRegistry::Default().GetCounter("ss_net_backpressure_shed_total", "tenant=\"quiet\"");
    const uint64_t hot_shed_before = hot_shed.value();
    const uint64_t quiet_shed_before = quiet_shed.value();

    const int hot_conns = std::min(kConns, 8);
    const uint64_t hot_events = std::min<uint64_t>(kEvents, 4096);
    const uint64_t quiet_events = std::min<uint64_t>(kEvents, 512);
    Stopwatch epoch;
    std::vector<ConnResult> hot_results(hot_conns);
    ConnResult quiet_result;
    std::vector<std::thread> threads;
    for (int t = 0; t < hot_conns; ++t) {
      threads.emplace_back([&, t] {
        // Window far beyond the hot tenant's 256-event share: the hot tenant
        // lives in permanent shed.
        hot_results[t] = DriveConnection((*server)->port(), static_cast<StreamId>(t + 1),
                                         hot_events, /*window=*/1024, epoch, 1, "hot-token");
      });
    }
    threads.emplace_back([&] {
      // Quiet tenant: a trickle (4 in flight) far below its own share.
      quiet_result = DriveConnection((*server)->port(), /*sid=*/1, quiet_events,
                                     /*window=*/4, epoch, 2, "quiet-token");
    });
    for (auto& th : threads) {
      th.join();
    }
    uint64_t hot_rejected = 0;
    for (const auto& r : hot_results) {
      if (r.io_error) {
        std::fprintf(stderr, "noisy phase: hot connection hit an I/O error\n");
        return 1;
      }
      hot_rejected += r.rejected;
    }
    if (quiet_result.io_error) {
      std::fprintf(stderr, "noisy phase: quiet connection hit an I/O error\n");
      return 1;
    }
    const uint64_t hot_shed_delta = hot_shed.value() - hot_shed_before;
    const uint64_t quiet_shed_delta = quiet_shed.value() - quiet_shed_before;
    const double quiet_p99 = Percentile(quiet_result.ack_ms, 99);
    std::printf("noisy: hot rejected %llu (tenant shed metric %llu); quiet acked %llu, "
                "rejected %llu, ack p99 %.2f ms\n",
                static_cast<unsigned long long>(hot_rejected),
                static_cast<unsigned long long>(hot_shed_delta),
                static_cast<unsigned long long>(quiet_result.acked),
                static_cast<unsigned long long>(quiet_result.rejected), quiet_p99);
    // Gates: the hot tenant must actually be shedding (the load is real), the
    // quiet tenant must never be shed (fair share isolates it), and its ack
    // p99 must stay bounded (generous absolute bound — the point is that it
    // is not starved, not that it is fast).
    if (hot_rejected == 0 || hot_shed_delta == 0) {
      std::fprintf(stderr, "noisy phase: hot tenant was never shed — load too small\n");
      return 1;
    }
    if (quiet_result.rejected != 0 || quiet_shed_delta != 0) {
      std::fprintf(stderr, "noisy phase: quiet tenant was shed under fair share\n");
      return 1;
    }
    if (quiet_result.acked != quiet_events) {
      std::fprintf(stderr, "noisy phase: quiet tenant lost appends\n");
      return 1;
    }
    if (quiet_p99 > 250.0) {
      std::fprintf(stderr, "noisy phase: quiet tenant ack p99 %.2f ms exceeds 250 ms\n",
                   quiet_p99);
      return 1;
    }
    report.Add("noisy_hot_rejected_requests", static_cast<double>(hot_rejected), "requests",
               "higher");
    report.Add("noisy_quiet_rejected_requests", static_cast<double>(quiet_result.rejected),
               "requests", "lower");
    report.Add("noisy_quiet_ack_p99_ms", quiet_p99, "ms", "lower");
    (*server)->Stop();
  }

  // ----------------------------------------------------------- phase 6: flaky
  {
    ScopedTempDir dir("net_flaky");
    auto store = OpenStore(dir.path(), /*sync_wal=*/false);
    if (!store.ok()) {
      std::fprintf(stderr, "flaky store open failed\n");
      return 1;
    }
    net::FaultNet fault;
    net::SetNetOpsForTest(&fault);
    auto server = net::Server::Start(store->get(), net::ServerOptions{});
    if (!server.ok()) {
      std::fprintf(stderr, "flaky server start failed\n");
      net::SetNetOpsForTest(nullptr);
      return 1;
    }
    const int flaky_conns = std::min(kConns, 4);
    const uint64_t flaky_events = std::min<uint64_t>(kEvents, 1000);
    net::ClientOptions client_options;
    client_options.rpc_timeout_ms = 5000;
    client_options.max_retries = 10;
    client_options.backoff_initial_ms = 1;
    client_options.backoff_max_ms = 50;

    // Chaos thread: whenever no fault is armed, schedule the next sever a few
    // hundred frames ahead (alternating send/recv side). The workload never
    // sees a quiet network for long.
    std::atomic<bool> chaos_stop{false};
    std::thread chaos([&] {
      bool recv_side = false;
      while (!chaos_stop.load()) {
        if (!fault.armed()) {
          if (recv_side) {
            fault.SeverAfterRecvFrames(fault.frames_received() + 200);
          } else {
            fault.SeverAfterSentFrames(fault.frames_sent() + 200);
          }
          recv_side = !recv_side;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });

    Stopwatch epoch;
    std::vector<ConnResult> results(flaky_conns);
    std::vector<uint64_t> retries(flaky_conns, 0), reconnects(flaky_conns, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < flaky_conns; ++t) {
      threads.emplace_back([&, t] {
        const StreamId sid = static_cast<StreamId>(t + 1);
        auto client =
            net::RetryingClient::Connect("127.0.0.1", (*server)->port(), client_options);
        if (!client.ok()) {
          results[t].io_error = true;
          return;
        }
        net::RetryingClient& c = **client;
        if (!c.CreateStream(sid, BenchConfig()).ok()) {
          results[t].io_error = true;
          return;
        }
        Timestamp ts = 0;
        uint64_t sent = 0;
        while (sent < flaky_events || c.inflight() > 0) {
          while (sent < flaky_events && c.inflight() < 32) {
            if (!c.SendAppend(sid, ++ts, 1.0).ok()) {
              results[t].io_error = true;
              return;
            }
            ++sent;
          }
          auto ack = c.ReceiveAck();
          if (!ack.ok()) {
            results[t].io_error = true;  // max_retries of recovery exhausted
            return;
          }
          if (ack->status.ok()) {
            ++results[t].acked;
          } else {
            ++results[t].rejected;
          }
        }
        retries[t] = c.retries();
        reconnects[t] = c.reconnects();
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    chaos_stop.store(true);
    chaos.join();
    const double wall_s = epoch.ElapsedSeconds();

    uint64_t acked = 0, total_retries = 0, total_reconnects = 0;
    for (int t = 0; t < flaky_conns; ++t) {
      if (results[t].io_error || results[t].rejected != 0) {
        std::fprintf(stderr, "flaky phase: connection %d did not converge\n", t);
        net::SetNetOpsForTest(nullptr);
        return 1;
      }
      acked += results[t].acked;
      total_retries += retries[t];
      total_reconnects += reconnects[t];
    }
    // The ledger: the server must hold EXACTLY the acked count per stream.
    // A shortfall is an acked append lost to a sever; an excess is a replayed
    // append applied twice past the (session, seq) dedup.
    uint64_t lost = 0, duplicated = 0;
    for (int t = 0; t < flaky_conns; ++t) {
      auto stream = (*store)->GetStream(static_cast<StreamId>(t + 1));
      const uint64_t count = stream.ok() ? (*stream)->element_count() : 0;
      if (count < results[t].acked) {
        lost += results[t].acked - count;
      } else {
        duplicated += count - results[t].acked;
      }
    }
    const uint64_t resets = fault.injected_resets();
    const double rate = static_cast<double>(acked) / wall_s;
    std::printf("flaky: %llu appends acked at %.0f appends/s through %llu injected resets "
                "(%llu retries, %llu reconnects); %llu lost, %llu duplicated\n",
                static_cast<unsigned long long>(acked), rate,
                static_cast<unsigned long long>(resets),
                static_cast<unsigned long long>(total_retries),
                static_cast<unsigned long long>(total_reconnects),
                static_cast<unsigned long long>(lost),
                static_cast<unsigned long long>(duplicated));
    (*server)->Stop();
    net::SetNetOpsForTest(nullptr);
    if (acked != static_cast<uint64_t>(flaky_conns) * flaky_events) {
      std::fprintf(stderr, "flaky phase: not every append was acked\n");
      return 1;
    }
    if (lost != 0 || duplicated != 0) {
      std::fprintf(stderr, "flaky phase: acked-append ledger diverged (lost %llu, dup %llu)\n",
                   static_cast<unsigned long long>(lost),
                   static_cast<unsigned long long>(duplicated));
      return 1;
    }
    if (resets == 0) {
      std::fprintf(stderr, "flaky phase: chaos never fired — gate proved nothing\n");
      return 1;
    }
    report.Add("flaky_appends_per_sec", rate, "appends/s", "higher");
    // injected_resets is deliberately NOT reported: the count scales with
    // wall time, so a faster machine would read as a "regression". The
    // resets>0 gate above already proves the chaos was real.
    report.Add("flaky_acked_lost", static_cast<double>(lost), "appends", "lower");
    report.Add("flaky_acked_duplicated", static_cast<double>(duplicated), "appends", "lower");
  }

  std::printf("\nshape check: pipelining sustains the fleet, backpressure engages under "
              "overload, no acked append is lost to a hard kill, fair-share admission "
              "isolates a quiet tenant from a noisy neighbor, and retrying clients ride "
              "out injected connection faults without losing or double-applying an acked "
              "append.\n");
  const char* out = std::getenv("SS_BENCH_OUT");
  std::string report_path = out != nullptr ? out : "BENCH_net.json";
  if (report.WriteFile(report_path)) {
    std::printf("bench report written to %s\n", report_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write bench report to %s\n", report_path.c_str());
    return 1;
  }
  return 0;
}
