// End-to-end tests for the sserver service core: request routing, per-
// connection pipelining, shed/block backpressure, and the durable-ack
// guarantee under a hard server kill (acked appends must survive WAL replay).
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/summary_store.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/net/tenant.h"
#include "src/obs/metrics.h"
#include "src/storage/fault_fs.h"
#include "src/storage/file_util.h"

namespace ss::net {
namespace {

StreamConfig SmallConfig() {
  StreamConfig config;
  config.decay = std::make_shared<PowerLawDecay>(1, 1, 1, 1);
  return config;
}

class NetServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps the dir unique across processes: ctest runs each test as
    // its own filtered process, so a process-local counter alone collides
    // when tests from this binary run concurrently (-j), and SetUp's cleanup
    // would wipe a sibling test's live store.
    static std::atomic<int> counter{0};
    dir_ = ::testing::TempDir() + "/ss_net_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter.fetch_add(1));
    (void)RemoveDirRecursive(dir_);  // stale store from a previous run
  }
  // A test that failed with a FaultFs installed must not leave it behind.
  void TearDown() override { SetFileOpsForTest(nullptr); }

  StatusOr<std::unique_ptr<SummaryStore>> OpenStore(bool sync_wal = false) {
    StoreOptions options;
    options.dir = dir_;
    options.lsm.sync_wal = sync_wal;
    return SummaryStore::Open(options);
  }

  std::string dir_;
};

TEST_F(NetServerTest, RoundtripAllOps) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok()) << store.status();
  auto server = Server::Start(store->get(), ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status();

  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status();
  Client& c = **client;

  ASSERT_TRUE(c.Ping().ok());

  auto sid = c.CreateStream(0, SmallConfig());
  ASSERT_TRUE(sid.ok()) << sid.status();
  EXPECT_EQ(*sid, 1u);
  auto sid2 = c.CreateStream(9, SmallConfig());
  ASSERT_TRUE(sid2.ok()) << sid2.status();
  EXPECT_EQ(*sid2, 9u);

  auto listed = c.ListStreams();
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(listed->size(), 2u);

  ASSERT_TRUE(c.Append(*sid, 10, 1.5).ok());
  std::vector<Event> batch;
  for (int i = 0; i < 100; ++i) {
    batch.push_back(Event{static_cast<Timestamp>(20 + i), static_cast<double>(i)});
  }
  ASSERT_TRUE(c.AppendBatch(*sid, batch).ok());

  QuerySpec spec;
  spec.op = QueryOp::kCount;
  spec.t1 = 0;
  spec.t2 = 1000;
  auto result = c.Query(*sid, spec);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_DOUBLE_EQ(result->result.estimate, 101.0);
  EXPECT_TRUE(result->result.exact);

  // Remote explain ships the rendered trace text.
  spec.collect_trace = true;
  auto traced = c.Query(*sid, spec);
  ASSERT_TRUE(traced.ok());
  EXPECT_NE(traced->trace_text.find("query trace"), std::string::npos);

  spec.collect_trace = false;
  std::vector<StreamId> both = {*sid, *sid2};
  auto agg = c.QueryAggregate(both, spec);
  ASSERT_TRUE(agg.ok()) << agg.status();
  EXPECT_DOUBLE_EQ(agg->result.estimate, 101.0);

  ASSERT_TRUE(c.BeginLandmark(*sid2, 5).ok());
  ASSERT_TRUE(c.Append(*sid2, 6, 42.0).ok());
  ASSERT_TRUE(c.EndLandmark(*sid2, 7).ok());
  ASSERT_TRUE(c.Flush().ok());

  auto scrub = c.Scrub(/*repair=*/false);
  ASSERT_TRUE(scrub.ok()) << scrub.status();
  EXPECT_GT(scrub->windows_checked, 0u);
  EXPECT_EQ(scrub->errors, 0u);

  auto stats = c.Stats(/*prometheus=*/true);
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("ss_net_requests_total"), std::string::npos);

  auto infos = c.StreamInfos(0);
  ASSERT_TRUE(infos.ok());
  ASSERT_EQ(infos->size(), 2u);
  EXPECT_EQ((*infos)[0].id, *sid);
  EXPECT_EQ((*infos)[0].element_count, 101u);
  EXPECT_EQ((*infos)[1].landmark_window_count, 1u);

  // Errors come back as statuses, not closed connections.
  EXPECT_EQ(c.DeleteStream(777).code(), StatusCode::kNotFound);
  EXPECT_TRUE(c.Ping().ok());
  ASSERT_TRUE(c.DeleteStream(*sid2).ok());
}

TEST_F(NetServerTest, PipelinedAppendsAckOutOfOrderSafe) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  auto server = Server::Start(store->get(), ServerOptions{});
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  Client& c = **client;
  auto sid = c.CreateStream(0, SmallConfig());
  ASSERT_TRUE(sid.ok());

  constexpr int kAppends = 256;
  std::set<uint64_t> sent;
  for (int i = 0; i < kAppends; ++i) {
    auto id = c.SendAppend(*sid, i + 1, 1.0);
    ASSERT_TRUE(id.ok()) << id.status();
    sent.insert(*id);
  }
  EXPECT_EQ(c.inflight(), static_cast<size_t>(kAppends));
  std::set<uint64_t> acked;
  for (int i = 0; i < kAppends; ++i) {
    auto ack = c.ReceiveAck();
    ASSERT_TRUE(ack.ok()) << ack.status();
    EXPECT_TRUE(ack->status.ok()) << ack->status;
    EXPECT_TRUE(sent.contains(ack->request_id));
    acked.insert(ack->request_id);
  }
  EXPECT_EQ(acked, sent);  // every request acked exactly once
  EXPECT_EQ(c.inflight(), 0u);

  QuerySpec spec;
  spec.op = QueryOp::kCount;
  spec.t1 = 0;
  spec.t2 = kAppends + 1;
  auto result = c.Query(*sid, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->result.estimate, static_cast<double>(kAppends));

  // Graceful stop: the next read observes a clean close, not a hang.
  (*server)->Stop();
  EXPECT_FALSE(c.Ping().ok());
}

TEST_F(NetServerTest, ShedPolicyRejectsOversizedBacklog) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  ServerOptions options;
  options.backpressure = ServerOptions::Backpressure::kShed;
  options.ingest_queue_events = 8;
  auto server = Server::Start(store->get(), options);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  Client& c = **client;
  auto sid = c.CreateStream(0, SmallConfig());
  ASSERT_TRUE(sid.ok());

  Counter& shed = MetricRegistry::Default().GetCounter("ss_net_backpressure_shed_total");
  const uint64_t shed_before = shed.value();

  // One batch bigger than the whole admission budget: shed outright.
  std::vector<Event> big;
  for (int i = 0; i < 64; ++i) {
    big.push_back(Event{static_cast<Timestamp>(i + 1), 1.0});
  }
  Status s = c.AppendBatch(*sid, big);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << s;
  EXPECT_GT(shed.value(), shed_before);

  // The connection survives a shed and small batches still land.
  std::vector<Event> small = {Event{100, 1.0}, Event{101, 2.0}};
  EXPECT_TRUE(c.AppendBatch(*sid, small).ok());
}

TEST_F(NetServerTest, BlockPolicyThrottlesAndLosesNothing) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  ServerOptions options;
  options.backpressure = ServerOptions::Backpressure::kBlock;
  options.ingest_queue_events = 4;  // tiny budget: a pipelined storm must block
  auto server = Server::Start(store->get(), options);
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  Client& c = **client;
  auto sid = c.CreateStream(0, SmallConfig());
  ASSERT_TRUE(sid.ok());

  Counter& blocked = MetricRegistry::Default().GetCounter("ss_net_backpressure_blocked_total");
  const uint64_t blocked_before = blocked.value();

  // All 300 tiny frames fit in the kernel socket buffers, so the sends
  // complete even while the server's reads are withheld (TCP backpressure);
  // Client is not thread-safe, so send first and drain the acks after.
  constexpr int kAppends = 300;
  for (int i = 0; i < kAppends; ++i) {
    auto id = c.SendAppend(*sid, i + 1, 1.0);
    ASSERT_TRUE(id.ok()) << id.status();
  }
  int acked = 0;
  for (int i = 0; i < kAppends; ++i) {
    auto ack = c.ReceiveAck();
    ASSERT_TRUE(ack.ok()) << ack.status();
    ASSERT_TRUE(ack->status.ok()) << ack->status;
    ++acked;
  }
  EXPECT_EQ(acked, kAppends);
  EXPECT_GT(blocked.value(), blocked_before);  // the budget actually engaged

  QuerySpec spec;
  spec.op = QueryOp::kCount;
  spec.t1 = 0;
  spec.t2 = kAppends + 1;
  auto result = c.Query(*sid, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->result.estimate, static_cast<double>(kAppends));
}

// An ack frees admission budget, but only a blocked connection is waiting
// for it: with none blocked, releasing must not wake the event loop (one
// eventfd write plus a RetryBlocked sweep per ack).
TEST_F(NetServerTest, AcksWakeLoopOnlyWhenAConnectionIsBlocked) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  auto server = Server::Start(store->get(), ServerOptions{});  // 64k-event budget
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  Client& c = **client;
  auto sid = c.CreateStream(0, SmallConfig());
  ASSERT_TRUE(sid.ok());

  Counter& wakeups = MetricRegistry::Default().GetCounter("ss_net_loop_wakeups_total");
  const uint64_t before = wakeups.value();
  constexpr int kAppends = 200;
  for (int i = 0; i < kAppends; ++i) {
    ASSERT_TRUE(c.Append(*sid, i + 1, 1.0).ok());  // one ack flush each
  }
  // Responses normally go out by the workers' opportunistic send; the odd
  // EAGAIN fallback may still wake the loop, never once per ack.
  EXPECT_LT(wakeups.value() - before, static_cast<uint64_t>(kAppends / 4));
}

// The block/release race: the loop decides to block on a stale budget read
// while a worker frees the last budget and — seeing no blocked connection —
// skips the wake-up. The publish-then-recheck in admission must leave no
// connection stranded: every append of every connection gets its ack.
TEST_F(NetServerTest, BlockReleaseRaceNeverStrandsAConnection) {
  for (bool durable : {false, true}) {
    (void)RemoveDirRecursive(dir_);
    auto store = OpenStore();
    ASSERT_TRUE(store.ok());
    ServerOptions options;
    options.backpressure = ServerOptions::Backpressure::kBlock;
    options.ingest_queue_events = 1;  // every append past the first blocks
    options.durable_acks = durable;
    auto server = Server::Start(store->get(), options);
    ASSERT_TRUE(server.ok());
    constexpr int kConns = 4;
    constexpr int kAppends = 250;
    std::vector<int> acked(kConns, 0);
    std::vector<std::thread> threads;
    for (int t = 0; t < kConns; ++t) {
      threads.emplace_back([&, t] {
        auto client = Client::Connect("127.0.0.1", (*server)->port());
        ASSERT_TRUE(client.ok());
        Client& c = **client;
        auto sid = c.CreateStream(static_cast<StreamId>(t + 1), SmallConfig());
        ASSERT_TRUE(sid.ok());
        for (int i = 0; i < kAppends; ++i) {
          ASSERT_TRUE(c.SendAppend(*sid, i + 1, 1.0).ok());
        }
        for (int i = 0; i < kAppends; ++i) {
          auto ack = c.ReceiveAck();
          ASSERT_TRUE(ack.ok()) << ack.status();
          ASSERT_TRUE(ack->status.ok()) << ack->status;
          ++acked[t];
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    for (int t = 0; t < kConns; ++t) {
      EXPECT_EQ(acked[t], kAppends) << "connection " << t << " durable=" << durable;
    }
    (*server)->Stop();
  }
}

// Hard kill mid-stream, then a simulated power loss that drops every byte
// no fsync covered: every acked append must replay. With sync_wal each write
// syncs on its own; without it (the sserver default) an ack stands only on
// its ack flush's synced WAL group commit.
TEST_F(NetServerTest, AckedAppendsSurviveHardKill) {
  constexpr int kAppends = 200;
  for (bool sync_wal : {true, false}) {
    SCOPED_TRACE(sync_wal ? "sync_wal" : "sync_wal=false");
    (void)RemoveDirRecursive(dir_);
    int acked = 0;
    FaultFs fs;
    SetFileOpsForTest(&fs);
    {
      auto store = OpenStore(sync_wal);
      ASSERT_TRUE(store.ok());
      auto server = Server::Start(store->get(), ServerOptions{});
      ASSERT_TRUE(server.ok());
      auto client = Client::Connect("127.0.0.1", (*server)->port());
      ASSERT_TRUE(client.ok());
      Client& c = **client;
      auto sid = c.CreateStream(3, SmallConfig());
      ASSERT_TRUE(sid.ok());

      for (int i = 0; i < kAppends; ++i) {
        ASSERT_TRUE(c.SendAppend(*sid, i + 1, 1.0).ok());
      }
      // Take roughly half the acks, then kill the server mid-stream.
      for (int i = 0; i < kAppends / 2; ++i) {
        auto ack = c.ReceiveAck();
        ASSERT_TRUE(ack.ok()) << ack.status();
        if (ack->status.ok()) {
          ++acked;
        }
      }
      (*server)->Abort();
      // Drain whatever raced out before the close; acks already on the wire
      // still count (the server flushed before sending them).
      for (;;) {
        auto ack = c.ReceiveAck();
        if (!ack.ok()) {
          break;  // reset/EOF: the kill
        }
        if (ack->status.ok()) {
          ++acked;
        }
      }
      // Hard kill: the file system crashes at its next mutating op, so no
      // close-time flush makes recovery look better than it is. WAL replay
      // alone must cover every acked append.
      fs.CrashAtOpIndex(fs.mutating_op_count() + 1);
    }
    ASSERT_TRUE(fs.ApplyPowerLoss().ok());
    SetFileOpsForTest(nullptr);
    ASSERT_GT(acked, 0);

    auto reopened = OpenStore(sync_wal);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    auto stream = (*reopened)->GetStream(3);
    ASSERT_TRUE(stream.ok()) << stream.status();
    EXPECT_GE((*stream)->element_count(), static_cast<uint64_t>(acked))
        << "acked appends lost across kill + power loss";
  }
}

TEST_F(NetServerTest, ManyConnectionsConcurrently) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  auto server = Server::Start(store->get(), ServerOptions{});
  ASSERT_TRUE(server.ok());

  // One stream per connection: appends from different connections interleave
  // arbitrarily, and a shared monotone stream would reject out-of-order ts.
  constexpr int kConns = 32;
  constexpr int kPerConn = 50;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kConns; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect("127.0.0.1", (*server)->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      Client& c = **client;
      const StreamId sid = static_cast<StreamId>(t + 1);
      if (!c.CreateStream(sid, SmallConfig()).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kPerConn; ++i) {
        if (!c.SendAppend(sid, i + 1, 1.0).ok()) {
          failures.fetch_add(1);
          return;
        }
      }
      for (int i = 0; i < kPerConn; ++i) {
        auto ack = c.ReceiveAck();
        if (!ack.ok() || !ack->status.ok()) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);

  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  std::vector<StreamId> all;
  for (int t = 0; t < kConns; ++t) {
    all.push_back(static_cast<StreamId>(t + 1));
  }
  QuerySpec spec;
  spec.op = QueryOp::kCount;
  spec.t1 = 0;
  spec.t2 = kPerConn + 1;
  auto result = (*client)->QueryAggregate(all, spec);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_DOUBLE_EQ(result->result.estimate, static_cast<double>(kConns * kPerConn));
}

// ------------------------------------------------------------- multi-tenancy

std::shared_ptr<const TenantRegistry> Registry(std::string_view text) {
  auto parsed = TenantRegistry::Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status();
  if (!parsed.ok()) {
    return nullptr;
  }
  return std::make_shared<const TenantRegistry>(std::move(parsed).value());
}

// Two tenants with no resource quotas (isolation/auth tests).
std::shared_ptr<const TenantRegistry> TwoTenants() {
  return Registry(
      "1 alpha alpha-secret 0 0 0\n"
      "2 beta  beta-secret  0 0 0\n");
}

TEST_F(NetServerTest, HelloRequiredAndTokenChecked) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  ServerOptions options;
  options.tenants = TwoTenants();
  ASSERT_NE(options.tenants, nullptr);
  auto server = Server::Start(store->get(), options);
  ASSERT_TRUE(server.ok()) << server.status();

  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  Client& c = **client;

  // Anything before a hello is denied — and the connection survives it.
  EXPECT_EQ(c.Ping().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(c.CreateStream(0, SmallConfig()).status().code(), StatusCode::kPermissionDenied);

  // Bad token and unknown tenant earn the same denial.
  EXPECT_EQ(c.Hello(1, "wrong").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(c.Hello(42, "alpha-secret").code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(c.Ping().code(), StatusCode::kPermissionDenied);  // still locked out

  ASSERT_TRUE(c.Hello(1, "alpha-secret").ok());
  EXPECT_TRUE(c.Ping().ok());
  // A second hello on an authenticated connection is an error, not a switch.
  EXPECT_EQ(c.Hello(2, "beta-secret").code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(c.Ping().ok());
}

TEST_F(NetServerTest, LegacyServerIgnoresHello) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  auto server = Server::Start(store->get(), ServerOptions{});
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  // Tenant-configured clients work against a single-tenant server.
  EXPECT_TRUE((*client)->Hello(7, "whatever").ok());
  EXPECT_TRUE((*client)->Ping().ok());
}

TEST_F(NetServerTest, TenantNamespacesIsolateStreams) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  ServerOptions options;
  options.tenants = TwoTenants();
  auto server = Server::Start(store->get(), options);
  ASSERT_TRUE(server.ok());

  auto alpha = Client::Connect("127.0.0.1", (*server)->port());
  auto beta = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(alpha.ok() && beta.ok());
  Client& a = **alpha;
  Client& b = **beta;
  ASSERT_TRUE(a.Hello(1, "alpha-secret").ok());
  ASSERT_TRUE(b.Hello(2, "beta-secret").ok());

  // Both tenants own a "stream 7" — distinct store keys.
  ASSERT_TRUE(a.CreateStream(7, SmallConfig()).ok());
  ASSERT_TRUE(b.CreateStream(7, SmallConfig()).ok());
  ASSERT_TRUE(a.Append(7, 1, 10.0).ok());
  ASSERT_TRUE(b.Append(7, 1, 20.0).ok());
  std::vector<Event> more = {{2, 10.0}, {3, 10.0}};
  ASSERT_TRUE(a.AppendBatch(7, more).ok());

  QuerySpec spec;
  spec.op = QueryOp::kCount;
  spec.t1 = 0;
  spec.t2 = 100;
  auto a_count = a.Query(7, spec);
  auto b_count = b.Query(7, spec);
  ASSERT_TRUE(a_count.ok() && b_count.ok());
  EXPECT_DOUBLE_EQ(a_count->result.estimate, 3.0);
  EXPECT_DOUBLE_EQ(b_count->result.estimate, 1.0);

  // Listings are namespace-local (and report local ids).
  auto a_list = a.ListStreams();
  auto b_list = b.ListStreams();
  ASSERT_TRUE(a_list.ok() && b_list.ok());
  EXPECT_EQ(*a_list, std::vector<StreamId>{7});
  EXPECT_EQ(*b_list, std::vector<StreamId>{7});
  auto b_infos = b.StreamInfos(0);
  ASSERT_TRUE(b_infos.ok());
  ASSERT_EQ(b_infos->size(), 1u);
  EXPECT_EQ((*b_infos)[0].id, 7u);
  EXPECT_EQ((*b_infos)[0].element_count, 1u);

  // Cross-tenant reach-through: a stream id that does not exist in the
  // caller's namespace is NotFound, and a forged global id (tenant bits set)
  // is a flat denial.
  EXPECT_EQ(b.DeleteStream(8).code(), StatusCode::kNotFound);
  const StreamId forged = (StreamId{1} << 48) | 7;  // alpha's stream 7
  EXPECT_EQ(b.Query(forged, spec).status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(b.DeleteStream(forged).code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(b.Append(forged, 9, 1.0).code(), StatusCode::kPermissionDenied);

  // Deleting beta's stream 7 leaves alpha's intact.
  ASSERT_TRUE(b.DeleteStream(7).ok());
  EXPECT_TRUE(a.Query(7, spec).ok());

  // Auto-assigned ids are tenant-local too (first free local id, not a
  // global sequence).
  auto b_auto = b.CreateStream(0, SmallConfig());
  ASSERT_TRUE(b_auto.ok()) << b_auto.status();
  EXPECT_EQ(*b_auto, 1u);
}

TEST_F(NetServerTest, TenantQuotasReturnTypedErrors) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  ServerOptions options;
  // Each quota gets its own tenant so one limit can't mask another:
  // alpha: 2 streams max + 32 events/s; gamma: ~1 KiB resident; beta: none.
  options.tenants = Registry(
      "1 alpha alpha-secret 2 0    32\n"
      "2 beta  beta-secret  0 0    0\n"
      "3 gamma gamma-secret 0 1024 0\n");
  ASSERT_NE(options.tenants, nullptr);
  auto server = Server::Start(store->get(), options);
  ASSERT_TRUE(server.ok());

  auto alpha = Client::Connect("127.0.0.1", (*server)->port());
  auto beta = Client::Connect("127.0.0.1", (*server)->port());
  auto gamma = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(alpha.ok() && beta.ok() && gamma.ok());
  Client& a = **alpha;
  Client& b = **beta;
  Client& g = **gamma;
  ASSERT_TRUE(a.Hello(1, "alpha-secret").ok());
  ASSERT_TRUE(b.Hello(2, "beta-secret").ok());
  ASSERT_TRUE(g.Hello(3, "gamma-secret").ok());

  // Stream-count quota: the third create is a typed error.
  ASSERT_TRUE(a.CreateStream(1, SmallConfig()).ok());
  ASSERT_TRUE(a.CreateStream(2, SmallConfig()).ok());
  EXPECT_EQ(a.CreateStream(3, SmallConfig()).status().code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(a.DeleteStream(2).ok());
  EXPECT_TRUE(a.CreateStream(3, SmallConfig()).ok());  // freed a slot

  // Ingest-rate quota: the bucket holds one second's worth (32 events);
  // pipelining far more than that in one burst must hit the limiter.
  std::vector<Event> chunk;
  for (int i = 0; i < 16; ++i) {
    chunk.push_back(Event{static_cast<Timestamp>(i + 1), 1.0});
  }
  Status first = a.AppendBatch(1, chunk);
  ASSERT_TRUE(first.ok()) << first;
  bool rate_limited = false;
  for (int burst = 0; burst < 4 && !rate_limited; ++burst) {
    for (Event& e : chunk) {
      e.ts += 16;
    }
    Status s = a.AppendBatch(1, chunk);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;
      rate_limited = true;
    }
  }
  EXPECT_TRUE(rate_limited);

  // Byte quota: appends must eventually turn into typed errors as resident
  // bytes cross ~1 KiB. beta (no quota) keeps ingesting the same load.
  bool byte_limited = false;
  ASSERT_TRUE(b.CreateStream(1, SmallConfig()).ok());
  ASSERT_TRUE(g.CreateStream(1, SmallConfig()).ok());
  std::vector<Event> wave;
  for (int round = 0; round < 200 && !byte_limited; ++round) {
    wave.clear();
    for (int i = 0; i < 64; ++i) {
      wave.push_back(Event{static_cast<Timestamp>(round * 64 + i + 1000), 1.0});
    }
    Status s = g.AppendBatch(1, wave);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted) << s;
      byte_limited = true;
    }
    ASSERT_TRUE(b.AppendBatch(1, wave).ok());
  }
  EXPECT_TRUE(byte_limited);
}

TEST_F(NetServerTest, FairShareShedIsolatesQuietTenant) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  ServerOptions options;
  options.tenants = TwoTenants();
  options.backpressure = ServerOptions::Backpressure::kShed;
  options.ingest_queue_events = 16;  // per-tenant share: 8
  auto server = Server::Start(store->get(), options);
  ASSERT_TRUE(server.ok());

  auto hot = Client::Connect("127.0.0.1", (*server)->port());
  auto quiet = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(hot.ok() && quiet.ok());
  Client& h = **hot;
  Client& q = **quiet;
  ASSERT_TRUE(h.Hello(1, "alpha-secret").ok());
  ASSERT_TRUE(q.Hello(2, "beta-secret").ok());
  ASSERT_TRUE(h.CreateStream(1, SmallConfig()).ok());
  ASSERT_TRUE(q.CreateStream(1, SmallConfig()).ok());

  // Hot tenant: every batch exceeds its 8-event share, so each one is shed —
  // under the old single global budget (16) these would have been admitted
  // and quiet's headroom consumed.
  std::vector<Event> oversized;
  for (int i = 0; i < 10; ++i) {
    oversized.push_back(Event{static_cast<Timestamp>(i + 1), 1.0});
  }
  std::vector<Event> small = {{0, 1.0}};
  for (int round = 0; round < 10; ++round) {
    Status hs = h.AppendBatch(1, oversized);
    EXPECT_EQ(hs.code(), StatusCode::kFailedPrecondition) << hs;
    // Quiet tenant's small appends never shed while the hot tenant hammers.
    small[0].ts = round + 1;
    Status qs = q.AppendBatch(1, small);
    EXPECT_TRUE(qs.ok()) << qs;
  }
}

TEST_F(NetServerTest, FairShareBlockThrottlesOnlyHotTenant) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  ServerOptions options;
  options.tenants = TwoTenants();
  options.backpressure = ServerOptions::Backpressure::kBlock;
  options.ingest_queue_events = 16;  // per-tenant share: 8
  auto server = Server::Start(store->get(), options);
  ASSERT_TRUE(server.ok());

  auto hot = Client::Connect("127.0.0.1", (*server)->port());
  auto quiet = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(hot.ok() && quiet.ok());
  Client& h = **hot;
  Client& q = **quiet;
  ASSERT_TRUE(h.Hello(1, "alpha-secret").ok());
  ASSERT_TRUE(q.Hello(2, "beta-secret").ok());
  ASSERT_TRUE(h.CreateStream(1, SmallConfig()).ok());
  ASSERT_TRUE(q.CreateStream(1, SmallConfig()).ok());

  Counter& blocked = MetricRegistry::Default().GetCounter("ss_net_backpressure_blocked_total",
                                                          "tenant=\"alpha\"");
  const uint64_t blocked_before = blocked.value();

  // Pipeline far more than the hot tenant's share; its connection throttles
  // (TCP backpressure) but nothing is lost.
  constexpr int kHotAppends = 200;
  for (int i = 0; i < kHotAppends; ++i) {
    ASSERT_TRUE(h.SendAppend(1, i + 1, 1.0).ok());
  }
  // Meanwhile the quiet tenant's synchronous appends sail through.
  for (int i = 0; i < 20; ++i) {
    Status s = q.Append(1, i + 1, 2.0);
    EXPECT_TRUE(s.ok()) << s;
  }
  int acked = 0;
  for (int i = 0; i < kHotAppends; ++i) {
    auto ack = h.ReceiveAck();
    ASSERT_TRUE(ack.ok()) << ack.status();
    ASSERT_TRUE(ack->status.ok()) << ack->status;
    ++acked;
  }
  EXPECT_EQ(acked, kHotAppends);
  EXPECT_GT(blocked.value(), blocked_before);  // hot tenant's share engaged
}

// --------------------------------------------- pipelined shed ordering (pin)

// Reads one response frame from a raw socket and returns its request id.
uint64_t ReadResponseId(int fd) {
  char prefix[4];
  EXPECT_TRUE(ReadFully(fd, prefix, sizeof(prefix)).ok());
  uint32_t len = 0;
  std::memcpy(&len, prefix, sizeof(len));
  EXPECT_GT(len, 0u);
  EXPECT_LE(len, kMaxFrameBytes);
  std::string payload(len, '\0');
  EXPECT_TRUE(ReadFully(fd, payload.data(), len).ok());
  Reader reader(payload);
  auto id = reader.ReadVarint();
  EXPECT_TRUE(id.ok());
  return id.ok() ? *id : 0;
}

// Pin for the pipelined-ordering contract (DESIGN.md §12): a shed rejection
// must be delivered after the responses of every earlier request on the
// connection. The old code answered sheds synchronously from the epoll
// thread while earlier frames still sat in exec_queue, so the rejection
// could overtake them.
TEST_F(NetServerTest, ShedResponsesArriveInPipelineOrder) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  ServerOptions options;
  options.backpressure = ServerOptions::Backpressure::kShed;
  options.ingest_queue_events = 8;
  auto server = Server::Start(store->get(), options);
  ASSERT_TRUE(server.ok());

  auto fd = ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd.ok()) << fd.status();

  // Create the stream (and seed it) synchronously first.
  {
    Writer req;
    EncodeRequestHeader(RequestHeader{1, Opcode::kCreateStream}, req);
    req.PutVarint(5);
    SmallConfig().Serialize(req);
    std::string frame;
    ASSERT_TRUE(AppendFrame(req.data(), &frame).ok());
    ASSERT_TRUE(WriteFully(fd->get(), frame).ok());
    EXPECT_EQ(ReadResponseId(fd->get()), 1u);
  }

  // One write carrying: queries with ids 2..17, then an oversized append
  // batch (id 18) that the shed policy must reject. Its rejection must
  // arrive LAST.
  std::string burst;
  QuerySpec spec;
  spec.op = QueryOp::kCount;
  spec.t1 = 0;
  spec.t2 = 1000;
  constexpr uint64_t kQueries = 16;
  for (uint64_t id = 2; id <= 1 + kQueries; ++id) {
    Writer req;
    EncodeRequestHeader(RequestHeader{id, Opcode::kQuery}, req);
    req.PutVarint(5);
    EncodeQuerySpec(spec, req);
    ASSERT_TRUE(AppendFrame(req.data(), &burst).ok());
  }
  {
    Writer req;
    EncodeRequestHeader(RequestHeader{2 + kQueries, Opcode::kAppendBatch}, req);
    req.PutVarint(5);
    std::vector<Event> big;
    for (int i = 0; i < 64; ++i) {  // 64 > the whole 8-event budget: shed
      big.push_back(Event{static_cast<Timestamp>(i + 1), 1.0});
    }
    EncodeEventBatch(big, req);
    ASSERT_TRUE(AppendFrame(req.data(), &burst).ok());
  }
  ASSERT_TRUE(WriteFully(fd->get(), burst).ok());

  for (uint64_t id = 2; id <= 2 + kQueries; ++id) {
    EXPECT_EQ(ReadResponseId(fd->get()), id) << "response overtook an earlier request";
  }
}

// ------------------------------------------- resilient RPC (DESIGN.md §15)

// A legacy client's frames — plain opcode byte, no flag bits, no trailing
// header fields — must behave bit-for-bit as before the deadline/session
// extension: same request bytes, same response bytes.
TEST_F(NetServerTest, LegacyFramesBitForBitUnaffected) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  auto server = Server::Start(store->get(), ServerOptions{});
  ASSERT_TRUE(server.ok());
  auto fd = ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd.ok());

  // Hand-rolled legacy header: varint request id, then the bare opcode byte.
  auto legacy_frame = [](uint64_t id, Opcode op, const Writer& body) {
    Writer req;
    req.PutVarint(id);
    req.PutU8(static_cast<uint8_t>(op));
    req.PutRaw(body.data().data(), body.data().size());
    std::string frame;
    EXPECT_TRUE(AppendFrame(req.data(), &frame).ok());
    return frame;
  };

  ASSERT_TRUE(WriteFully(fd->get(), legacy_frame(1, Opcode::kPing, Writer())).ok());
  EXPECT_EQ(ReadResponseId(fd->get()), 1u);

  Writer create;
  create.PutVarint(4);
  SmallConfig().Serialize(create);
  ASSERT_TRUE(WriteFully(fd->get(), legacy_frame(2, Opcode::kCreateStream, create)).ok());
  EXPECT_EQ(ReadResponseId(fd->get()), 2u);

  Writer append;
  append.PutVarint(4);
  append.PutSignedVarint(10);
  append.PutDouble(1.0);
  ASSERT_TRUE(WriteFully(fd->get(), legacy_frame(3, Opcode::kAppend, append)).ok());
  EXPECT_EQ(ReadResponseId(fd->get()), 3u);

  // And the modern Client agrees on what landed.
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  QuerySpec spec;
  spec.op = QueryOp::kCount;
  spec.t1 = 0;
  spec.t2 = 100;
  auto result = (*client)->Query(4, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->result.estimate, 1.0);
}

// The (session, seq) dedup contract: a replayed ingest seq is acked OK but
// applied exactly once — the replay after a lost ack cannot double-count.
TEST_F(NetServerTest, SessionReplayIsDeduplicated) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  auto server = Server::Start(store->get(), ServerOptions{});
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  Client& c = **client;
  ASSERT_TRUE(c.CreateStream(1, SmallConfig()).ok());

  Counter& dups = MetricRegistry::Default().GetCounter("ss_net_dup_suppressed_total");
  const uint64_t dups_before = dups.value();

  c.SetSession(0xABCD);
  ASSERT_TRUE(c.Append(1, 10, 1.0).ok());  // seq 1
  ASSERT_TRUE(c.Append(1, 20, 2.0).ok());  // seq 2

  // Replay seq 2 — as a reconnecting client would after losing the ack. Even
  // from a brand-new connection (the realistic shape), same session id.
  auto replayer = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(replayer.ok());
  (*replayer)->SetSession(0xABCD);
  (*replayer)->SetNextSeq(2);
  Status replay = (*replayer)->Append(1, 20, 2.0);
  EXPECT_TRUE(replay.ok()) << replay;  // dup is acked OK, not an error
  EXPECT_EQ(dups.value(), dups_before + 1);

  // A batch replay dedups too.
  std::vector<Event> batch = {{30, 3.0}, {31, 3.5}};
  ASSERT_TRUE(c.AppendBatch(1, batch).ok());  // seq 3
  (*replayer)->SetNextSeq(3);
  EXPECT_TRUE((*replayer)->AppendBatch(1, batch).ok());
  EXPECT_EQ(dups.value(), dups_before + 2);

  QuerySpec spec;
  spec.op = QueryOp::kCount;
  spec.t1 = 0;
  spec.t2 = 100;
  auto result = c.Query(1, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->result.estimate, 4.0) << "replayed ingest was double-applied";
}

// deadline_ms = 0 with the deadline flag set means "already expired": the
// server must answer kDeadlineExceeded without executing. (A real expiry is
// the same code path with a non-deterministic clock; 0 pins it.)
TEST_F(NetServerTest, ExpiredWireDeadlineIsRejectedTyped) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  auto server = Server::Start(store->get(), ServerOptions{});
  ASSERT_TRUE(server.ok());
  auto fd = ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd.ok());

  Counter& expired = MetricRegistry::Default().GetCounter("ss_net_deadline_exceeded_total");
  const uint64_t expired_before = expired.value();

  RequestHeader header;
  header.request_id = 1;
  header.op = Opcode::kListStreams;
  header.has_deadline = true;
  header.deadline_ms = 0;
  Writer req;
  EncodeRequestHeader(header, req);
  std::string frame;
  ASSERT_TRUE(AppendFrame(req.data(), &frame).ok());
  ASSERT_TRUE(WriteFully(fd->get(), frame).ok());

  char prefix[4];
  ASSERT_TRUE(ReadFully(fd->get(), prefix, sizeof(prefix)).ok());
  uint32_t len = 0;
  std::memcpy(&len, prefix, sizeof(len));
  ASSERT_GT(len, 0u);
  ASSERT_LE(len, kMaxFrameBytes);
  std::string payload(len, '\0');
  ASSERT_TRUE(ReadFully(fd->get(), payload.data(), len).ok());
  Reader reader(payload);
  auto id = reader.ReadVarint();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 1u);
  Status remote = Status::Ok();
  ASSERT_TRUE(DecodeStatus(reader, &remote).ok());
  EXPECT_EQ(remote.code(), StatusCode::kDeadlineExceeded) << remote;
  EXPECT_EQ(expired.value(), expired_before + 1);

  // A generous deadline sails through on the same connection.
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ClientOptions generous;
  generous.deadline_ms = 60'000;
  auto client2 = Client::Connect("127.0.0.1", (*server)->port(), generous);
  ASSERT_TRUE(client2.ok());
  EXPECT_TRUE((*client2)->ListStreams().ok());
}

// Slow-peer defense: a client that stops reading while responses pile up
// past max_conn_buffer_bytes is disconnected after slow_peer_timeout_ms
// instead of pinning server memory forever.
TEST_F(NetServerTest, SlowPeerIsDisconnected) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  ServerOptions options;
  options.max_conn_buffer_bytes = 16 * 1024;
  options.slow_peer_timeout_ms = 200;
  auto server = Server::Start(store->get(), options);
  ASSERT_TRUE(server.ok());
  auto fd = ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(fd.ok());

  Counter& disconnects =
      MetricRegistry::Default().GetCounter("ss_net_slow_peer_disconnects_total");
  const uint64_t before = disconnects.value();

  // Pipeline a pile of stats requests (multi-KB responses each) and never
  // read: kernel buffers fill (both sides can autotune to megabytes, hence
  // the request count), conn->out crosses the bound, the stall clock runs
  // out.
  std::string burst;
  for (uint64_t id = 1; id <= 8192; ++id) {
    Writer req;
    EncodeRequestHeader(RequestHeader{id, Opcode::kStats}, req);
    req.PutU8(1);  // prometheus text
    ASSERT_TRUE(AppendFrame(req.data(), &burst).ok());
  }
  ASSERT_TRUE(WriteFully(fd->get(), burst).ok());

  // The server must cut us loose within a few timeout periods.
  bool dropped = false;
  for (int i = 0; i < 100 && !dropped; ++i) {
    dropped = disconnects.value() > before;
    usleep(50 * 1000);
  }
  EXPECT_TRUE(dropped) << "slow peer was never disconnected";
  EXPECT_EQ((*server)->active_connections(), 0u);
}

// kPing doubles as a health probe: ok on a fresh server, draining after
// BeginDrain, and legacy empty-body responses decode as ok.
TEST_F(NetServerTest, HealthProbeReflectsDrain) {
  auto store = OpenStore();
  ASSERT_TRUE(store.ok());
  auto server = Server::Start(store->get(), ServerOptions{});
  ASSERT_TRUE(server.ok());
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  auto health = (*client)->Health();
  ASSERT_TRUE(health.ok()) << health.status();
  EXPECT_EQ(*health, ServerHealth::kOk);

  (*server)->BeginDrain();
  health = (*client)->Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, ServerHealth::kDraining);

  // Plain Ping still succeeds while draining — the probe is advisory.
  EXPECT_TRUE((*client)->Ping().ok());
}

}  // namespace
}  // namespace ss::net
