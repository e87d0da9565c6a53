// sserver's service core: a TCP daemon serving the SummaryStore API over the
// length-prefixed binary protocol of src/net/protocol.h (DESIGN.md §12).
//
// Architecture:
//   - One epoll event-loop thread owns all sockets: it accepts, reads,
//     frames, and performs admission control; request execution fans out to
//     a ThreadPool (src/common/thread_pool) so slow queries never stall the
//     loop. Responses are queued per connection and written by the loop
//     (workers attempt an opportunistic non-blocking send first).
//   - Per-connection pipelining: clients may send many requests without
//     waiting. Requests from one connection EXECUTE in arrival order (a
//     pipelined create-then-append is safe, and appends keep a monotone
//     stream monotone); responses still carry the echoed request_id because
//     durable ingest acks complete out of band and may interleave with later
//     non-ingest responses.
//   - Admission control / backpressure: ingest requests (append and
//     append-batch) are admitted against a bounded budget of
//     not-yet-acknowledged events. At the bound, policy kShed answers
//     kFailedPrecondition immediately, while kBlock simply stops reading
//     that connection (frames stay in the kernel/receive buffer and TCP
//     flow control pushes back on the client) until capacity frees up.
//   - Durable acks: ingest responses are withheld until a store Flush
//     covering the request completes (group-flush: one Flush acks every
//     append executed before it began). That Flush logs the dirty windows of
//     the streams touched since the previous one and covers them with one
//     synced WAL group commit — no table file is written — so an acked
//     append survives a hard server kill or a power loss, with or without
//     LsmOptions::sync_wal; WAL replay restores it. Disable via
//     ServerOptions::durable_acks for throughput experiments.
//
// Every frame decoder treats input as hostile (see protocol.h); a frame that
// cannot be parsed closes the connection, a valid frame with a malformed
// body earns an error response, and neither can crash or wedge the server.
#ifndef SUMMARYSTORE_SRC_NET_SERVER_H_
#define SUMMARYSTORE_SRC_NET_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/status.h"
#include "src/common/thread_pool.h"
#include "src/core/summary_store.h"
#include "src/net/protocol.h"
#include "src/net/socket.h"
#include "src/net/tenant.h"

namespace ss::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;        // 0 = ephemeral; read back via Server::port()
  size_t worker_threads = 0;  // 0 = ThreadPool::DefaultThreadCount()
  size_t max_frame_bytes = kMaxFrameBytes;
  // Ingest admission budget: events admitted but not yet acknowledged. A
  // single batch larger than the whole budget is admitted when the queue is
  // empty (it could never run otherwise) under kBlock, and shed under kShed.
  size_t ingest_queue_events = 1u << 16;
  enum class Backpressure { kBlock = 0, kShed = 1 };
  Backpressure backpressure = Backpressure::kBlock;
  // Withhold ingest acks until a covering SummaryStore::Flush completes.
  bool durable_acks = true;
  // Slow-peer defense (DESIGN.md §15): a connection whose outbound response
  // buffer stays above max_conn_buffer_bytes for slow_peer_timeout_ms is
  // disconnected (ss_net_slow_peer_disconnects_total), so one client that
  // stops reading cannot pin unbounded server memory. 0 = unbounded (legacy).
  size_t max_conn_buffer_bytes = 0;
  uint64_t slow_peer_timeout_ms = 5000;
  // Multi-tenant mode (DESIGN.md §14): non-null makes kHello mandatory,
  // scopes every stream id to the authenticated tenant's namespace, and
  // splits the ingest budget into per-tenant fair shares. Null keeps the
  // legacy single-tenant behavior exactly.
  std::shared_ptr<const TenantRegistry> tenants;
};

class Server {
 public:
  // Binds, registers the listener, and spawns the loop/worker/ack threads.
  // `store` must outlive the server (the caller owns it — bench harnesses
  // deliberately leak it to simulate kills).
  static StatusOr<std::unique_ptr<Server>> Start(SummaryStore* store, ServerOptions options);
  ~Server();  // graceful Stop() unless already stopped

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  uint16_t port() const { return port_; }

  // Graceful shutdown: stop accepting, drain in-flight requests, flush and
  // ack the ingest tail, write out queued responses, close. Idempotent.
  void Stop();

  // Hard shutdown (kill simulation): close every socket immediately, drop
  // pending acks un-flushed and un-answered. Clients see a reset; appends
  // they never got an ack for are allowed to be lost. Idempotent.
  void Abort();

  // Flags the server as draining: it keeps serving, but kPing health probes
  // answer "draining" so load balancers / retrying clients fail over before
  // the actual Stop(). sserver calls this on SIGTERM, sleeps the drain grace
  // period, then stops.
  void BeginDrain() { draining_.store(true, std::memory_order_release); }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  // Introspection for tests.
  size_t active_connections() const;

 private:
  struct Connection;
  struct TenantState;
  struct PendingAck {
    std::shared_ptr<Connection> conn;
    TenantState* tenant = nullptr;
    uint64_t request_id = 0;
    uint64_t events = 0;  // admission budget to release once acked
  };

  Server(SummaryStore* store, ServerOptions options);
  Status Init();

  // --- event-loop thread ---------------------------------------------------
  void LoopThread();
  void AcceptAll();
  void ReadInput(const std::shared_ptr<Connection>& conn);
  // Parses and dispatches every complete frame buffered on `conn`; applies
  // admission control; may mark the connection blocked.
  void ProcessInput(const std::shared_ptr<Connection>& conn);
  void RetryBlocked();
  void FlushOutput(const std::shared_ptr<Connection>& conn);
  void CloseConnection(const std::shared_ptr<Connection>& conn);
  void UpdateEpoll(const std::shared_ptr<Connection>& conn, bool want_read, bool want_write);
  void Wake();

  // --- request execution (worker threads) ----------------------------------
  // Drains the connection's FIFO request queue; at most one worker runs this
  // per connection at a time, so pipelined requests execute in arrival order.
  void RunRequests(const std::shared_ptr<Connection>& conn);
  // `deadline_at_us` is the absolute MonotonicMicros() instant the request's
  // wire deadline expires (0 = none); ExecuteRequest answers
  // kDeadlineExceeded without touching the store if it is already past.
  void ExecuteRequest(const std::shared_ptr<Connection>& conn, std::string payload,
                      TenantState* tenant, uint64_t admitted_events, uint64_t deadline_at_us);
  std::string HandleRequest(TenantState* tenant, const RequestHeader& header, Reader& body,
                            bool* defer_ack, Status* ingest_status);
  void SendResponse(const std::shared_ptr<Connection>& conn, std::string frame);
  void ReleaseIngest(TenantState* tenant, uint64_t events);
  // Slow-peer bookkeeping, called with conn->out_mu held after conn->out
  // changes size: starts/clears the stall clock and maintains the global
  // over-bound count that switches the loop to timed epoll waits.
  void UpdateStallLocked(Connection* conn);
  // Loop thread: disconnects every connection whose stall clock has exceeded
  // slow_peer_timeout_ms.
  void SweepSlowPeers();

  // --- multi-tenancy (loop thread unless noted) -----------------------------
  bool multi_tenant() const { return options_.tenants != nullptr; }
  // Handles a kHello frame synchronously on the loop thread (the connection's
  // tenant must be set before later frames in the same buffer sweep reach
  // admission); the pre-encoded response is queued through exec_queue so it
  // stays in pipeline order.
  void HandleHello(const std::shared_ptr<Connection>& conn, uint64_t request_id, Reader& body);
  // Enqueues a pre-encoded response frame in FIFO position (shed rejections,
  // auth errors, hello acks).
  void EnqueueReadyFrame(const std::shared_ptr<Connection>& conn, uint64_t request_id,
                         const Status& status);
  // Worker-side append gate: tenant byte quota (approximate, cached).
  Status CheckByteQuota(TenantState* tenant, uint64_t events);

  // --- durability ack thread ----------------------------------------------
  void AckThread();

  SummaryStore* const store_;
  const ServerOptions options_;
  uint16_t port_ = 0;

  Fd epoll_;
  Fd listener_;
  Fd wake_;  // eventfd: workers/Stop wake the loop

  std::unique_ptr<ThreadPool> pool_;
  std::thread loop_thread_;
  std::thread ack_thread_;

  // Loop-thread-owned connection registry (fd -> connection). Only the loop
  // thread touches the map; workers hold shared_ptrs handed out at dispatch.
  std::map<int, std::shared_ptr<Connection>> conns_;
  mutable std::mutex conns_mu_;  // guards size() for active_connections()
  std::atomic<size_t> conn_count_{0};

  // Connections with queued output that need the loop to arm EPOLLOUT.
  std::mutex pending_writes_mu_;
  std::vector<std::shared_ptr<Connection>> pending_writes_;

  // Ingest admission budget (events admitted, ack not yet sent).
  std::atomic<uint64_t> ingest_pending_{0};
  std::atomic<bool> recheck_blocked_{false};
  // Connections with Connection::blocked set (loop thread writes; workers
  // read it in ReleaseIngest to decide whether the loop needs a wake-up).
  std::atomic<size_t> blocked_conns_{0};

  // Tenant table, fixed at Init: index 0 is the implicit legacy tenant (id 0,
  // unlimited quotas, the whole ingest budget); multi-tenant mode appends one
  // entry per registry tenant. TenantState pointers stay valid for the
  // server's lifetime.
  std::vector<std::unique_ptr<TenantState>> tenants_;
  std::mutex create_mu_;  // serializes tenant-local stream id auto-assignment

  // Durable-ack batcher state.
  std::mutex ack_mu_;
  std::condition_variable ack_cv_;
  std::vector<PendingAck> pending_acks_;
  bool ack_stop_ = false;

  // Connections currently holding more than max_conn_buffer_bytes of queued
  // output. Non-zero switches the loop to timed epoll waits so stall clocks
  // are checked even when no socket events arrive.
  std::atomic<size_t> over_bound_{0};

  std::atomic<bool> draining_{false};   // health probes answer "draining"
  std::atomic<bool> stopping_{false};   // stop accepting + dispatching
  std::atomic<bool> loop_stop_{false};  // loop should flush/close and exit
  std::atomic<bool> abort_{false};      // hard kill: no final flush, no acks
  std::mutex state_mu_;
  bool stopped_ = false;  // Stop()/Abort() already ran
};

}  // namespace ss::net

#endif  // SUMMARYSTORE_SRC_NET_SERVER_H_
