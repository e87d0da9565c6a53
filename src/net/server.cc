#include "src/net/server.h"

#include <errno.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"

namespace ss::net {
namespace {

constexpr size_t kReadChunk = 64 * 1024;

Counter& AcceptTotal() {
  static Counter& c = MetricRegistry::Default().GetCounter("ss_net_accept_total");
  return c;
}
Gauge& ConnActive() {
  static Gauge& g = MetricRegistry::Default().GetGauge("ss_net_conn_active");
  return g;
}
Counter& FrameErrors() {
  static Counter& c = MetricRegistry::Default().GetCounter("ss_net_frame_errors_total");
  return c;
}
Counter& RequestErrors() {
  static Counter& c = MetricRegistry::Default().GetCounter("ss_net_request_errors_total");
  return c;
}
Counter& ShedTotal() {
  static Counter& c = MetricRegistry::Default().GetCounter("ss_net_backpressure_shed_total");
  return c;
}
Counter& BlockedTotal() {
  static Counter& c = MetricRegistry::Default().GetCounter("ss_net_backpressure_blocked_total");
  return c;
}
Counter& LoopWakeups() {
  static Counter& c = MetricRegistry::Default().GetCounter("ss_net_loop_wakeups_total");
  return c;
}
Counter& BytesRead() {
  static Counter& c = MetricRegistry::Default().GetCounter("ss_net_bytes_read_total");
  return c;
}
Counter& BytesWritten() {
  static Counter& c = MetricRegistry::Default().GetCounter("ss_net_bytes_written_total");
  return c;
}
Gauge& IngestPending() {
  static Gauge& g = MetricRegistry::Default().GetGauge("ss_net_ingest_pending_events");
  return g;
}
LatencyHistogram& AckFlushUs() {
  static LatencyHistogram& h = MetricRegistry::Default().GetHistogram("ss_net_ack_flush_us");
  return h;
}
LatencyHistogram& AckBatch() {
  static LatencyHistogram& h =
      MetricRegistry::Default().GetHistogram("ss_net_ack_batch_requests");
  return h;
}

Counter& AuthFailTotal() {
  static Counter& c = MetricRegistry::Default().GetCounter("ss_net_auth_fail_total");
  return c;
}
Counter& DeadlineExceededTotal() {
  static Counter& c = MetricRegistry::Default().GetCounter("ss_net_deadline_exceeded_total");
  return c;
}
Counter& DupSuppressedTotal() {
  static Counter& c = MetricRegistry::Default().GetCounter("ss_net_dup_suppressed_total");
  return c;
}
Counter& SlowPeerDisconnects() {
  static Counter& c =
      MetricRegistry::Default().GetCounter("ss_net_slow_peer_disconnects_total");
  return c;
}

Counter& RequestsFor(Opcode op) {
  return MetricRegistry::Default().GetCounter(
      "ss_net_requests_total", std::string("op=\"") + OpcodeName(op) + "\"");
}

// Per-tenant series of an ss_net metric, e.g.
// ss_net_backpressure_shed_total{tenant="acme"}.
std::string TenantLabel(const std::string& name) { return "tenant=\"" + name + "\""; }
LatencyHistogram& RequestUsFor(Opcode op) {
  return MetricRegistry::Default().GetHistogram(
      "ss_net_request_us", std::string("op=\"") + OpcodeName(op) + "\"");
}

// Refreshes the store-level gauges `sstool stats` documents, then renders.
std::string RenderStats(SummaryStore* store, bool json) {
  MetricRegistry& registry = MetricRegistry::Default();
  std::vector<StreamId> ids = store->ListStreams();
  registry.GetGauge("ss_store_streams").Set(static_cast<int64_t>(ids.size()));
  registry.GetGauge("ss_store_size_bytes").Set(static_cast<int64_t>(store->TotalSizeBytes()));
  registry.GetGauge("ss_store_backend_bytes")
      .Set(static_cast<int64_t>(store->backend().ApproximateSizeBytes()));
  uint64_t windows = 0;
  uint64_t events = 0;
  uint64_t landmarks = 0;
  for (StreamId id : ids) {
    auto stream = store->GetStream(id);
    if (!stream.ok()) {
      continue;  // deleted concurrently
    }
    windows += (*stream)->window_count();
    events += (*stream)->element_count();
    landmarks += (*stream)->landmark_window_count();
  }
  registry.GetGauge("ss_store_windows").Set(static_cast<int64_t>(windows));
  registry.GetGauge("ss_store_events").Set(static_cast<int64_t>(events));
  registry.GetGauge("ss_store_landmark_windows").Set(static_cast<int64_t>(landmarks));
  return json ? registry.RenderJson() : registry.RenderPrometheusText();
}

}  // namespace

// Per-tenant runtime state (DESIGN.md §14). The token bucket is touched only
// by the loop thread during admission; `pending` and the byte-quota cache are
// shared with workers through atomics. Entry 0 is the implicit legacy tenant
// (id 0: identity stream-id mapping, unlimited quotas, the whole budget).
struct Server::TenantState {
  TenantConfig config;
  uint64_t budget_events = 0;  // this tenant's share of ingest_queue_events

  std::atomic<uint64_t> pending{0};  // events admitted, ack not yet sent

  // Token bucket: rate = quotas.ingest_events_per_sec, burst = one second's
  // worth; 0 = unlimited. Loop thread only.
  double bucket_tokens = 0;
  Stopwatch bucket_clock;

  // Byte-quota bookkeeping (workers): exact recount of the tenant's stream
  // sizes every kByteQuotaRecountEvents admitted events, estimated growth in
  // between — see Server::CheckByteQuota.
  std::atomic<uint64_t> resident_bytes{0};
  std::atomic<uint64_t> events_since_recount{0};

  // Idempotent ingest replay dedup (DESIGN.md §15): highest applied seq per
  // client session. The per-session mutex is held across check + apply +
  // update, so a retransmit racing its original (the old connection's worker
  // may still be executing when the replay arrives on a fresh connection)
  // cannot double-apply. shared_ptr so a looked-up session survives eviction.
  struct SessionState {
    std::mutex mu;
    uint64_t last_seq = 0;
  };
  std::mutex sessions_mu;
  std::map<uint64_t, std::shared_ptr<SessionState>> sessions;

  std::shared_ptr<SessionState> GetSession(uint64_t session_id) {
    std::lock_guard<std::mutex> lock(sessions_mu);
    auto it = sessions.find(session_id);
    if (it != sessions.end()) {
      return it->second;
    }
    // Bounded: a hostile client minting fresh session ids must not grow this
    // map without limit. Evicting an entry only weakens dedup for a session
    // idle long enough to age out of 4096 — a replay there degrades to the
    // legacy at-least-once behavior, never to data loss.
    constexpr size_t kMaxSessions = 4096;
    if (sessions.size() >= kMaxSessions) {
      sessions.erase(sessions.begin());
    }
    auto session = std::make_shared<SessionState>();
    sessions.emplace(session_id, session);
    return session;
  }

  // Tenant-labeled series of the ss_net admission metrics.
  Counter* requests = nullptr;
  Counter* shed = nullptr;
  Counter* blocked = nullptr;
  Counter* rate_limited = nullptr;
  Gauge* pending_gauge = nullptr;

  void InitMetrics() {
    MetricRegistry& registry = MetricRegistry::Default();
    const std::string label = TenantLabel(config.name);
    requests = &registry.GetCounter("ss_net_requests_total", label);
    shed = &registry.GetCounter("ss_net_backpressure_shed_total", label);
    blocked = &registry.GetCounter("ss_net_backpressure_blocked_total", label);
    rate_limited = &registry.GetCounter("ss_net_rate_limited_total", label);
    pending_gauge = &registry.GetGauge("ss_net_ingest_pending_events", label);
  }
};

// Per-connection state. The loop thread owns `in` and the epoll interest;
// `out` is shared with workers under out_mu, the request queue under exec_mu.
struct Server::Connection {
  explicit Connection(Fd sock) : fd(std::move(sock)) {}

  Fd fd;
  std::string in;        // loop thread only: bytes read, not yet framed
  bool blocked = false;  // loop thread only: EPOLLIN disarmed (backpressure)

  // Authenticated tenant. Loop thread only: set at accept (legacy) or by a
  // successful hello; workers see the pointer frozen into each PendingExec
  // at admission time, so requests enqueued before a hello stay denied even
  // if they execute after it.
  TenantState* tenant = nullptr;

  std::mutex out_mu;
  std::string out;          // response bytes not yet written to the socket
  bool want_write = false;  // EPOLLOUT armed
  bool want_read = true;    // current EPOLLIN interest (mirrors !blocked)
  bool closed = false;      // fd closed; drop any late responses
  // Slow-peer stall clock (under out_mu): MonotonicMicros() instant `out`
  // first exceeded ServerOptions::max_conn_buffer_bytes, 0 while under the
  // bound. The loop disconnects once it ages past slow_peer_timeout_ms.
  uint64_t stall_since_us = 0;

  // FIFO of dispatched-but-unexecuted requests. At most one pool worker
  // drains it at a time (exec_running), so pipelined requests from this
  // connection execute strictly in arrival order while distinct connections
  // still fan out across the pool.
  struct PendingExec {
    std::string payload;
    TenantState* tenant = nullptr;  // admission-time tenant of this request
    uint64_t admitted = 0;          // ingest events admitted for this request
    // Absolute expiry of the request's wire deadline (0 = none), stamped at
    // admission so queue time counts against the client's budget.
    uint64_t deadline_at = 0;
    // Pre-encoded response frame (shed rejections, hello acks, auth errors):
    // non-empty means "send this instead of executing". Routing these through
    // the queue keeps even loop-thread-generated responses in per-connection
    // FIFO order — DESIGN.md §12 promises a client never observes response
    // N+1 before response N.
    std::string ready_frame;
  };
  std::mutex exec_mu;
  std::deque<PendingExec> exec_queue;
  bool exec_running = false;
};

StatusOr<std::unique_ptr<Server>> Server::Start(SummaryStore* store, ServerOptions options) {
  std::unique_ptr<Server> server(new Server(store, std::move(options)));
  SS_RETURN_IF_ERROR(server->Init());
  return server;
}

Server::Server(SummaryStore* store, ServerOptions options)
    : store_(store), options_(std::move(options)) {}

Status Server::Init() {
  {
    auto legacy = std::make_unique<TenantState>();
    legacy->config.id = 0;
    legacy->config.name = "default";
    legacy->budget_events = options_.ingest_queue_events;
    legacy->InitMetrics();
    tenants_.push_back(std::move(legacy));
  }
  if (multi_tenant()) {
    // Fair share: the admission budget splits evenly across tenants, so one
    // tenant saturating its share cannot push another tenant's ingest into
    // shed/block (a global cap still bounds the total).
    const uint64_t share =
        std::max<uint64_t>(1, options_.ingest_queue_events / options_.tenants->size());
    for (const TenantConfig& config : options_.tenants->tenants()) {
      auto tenant = std::make_unique<TenantState>();
      tenant->config = config;
      tenant->budget_events = share;
      tenant->bucket_tokens = static_cast<double>(config.quotas.ingest_events_per_sec);
      tenant->InitMetrics();
      tenants_.push_back(std::move(tenant));
    }
  }

  SS_ASSIGN_OR_RETURN(listener_, ListenTcp(options_.host, options_.port));
  SS_RETURN_IF_ERROR(SetNonBlocking(listener_.get(), true));
  SS_ASSIGN_OR_RETURN(port_, LocalPort(listener_.get()));

  epoll_ = Fd(::epoll_create1(0));
  if (!epoll_.valid()) {
    return Status::IoError(std::string("epoll_create1: ") + std::strerror(errno));
  }
  wake_ = Fd(::eventfd(0, EFD_NONBLOCK));
  if (!wake_.valid()) {
    return Status::IoError(std::string("eventfd: ") + std::strerror(errno));
  }
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;
  ev.data.fd = listener_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, listener_.get(), &ev) < 0) {
    return Status::IoError(std::string("epoll_ctl(listener): ") + std::strerror(errno));
  }
  ev.data.fd = wake_.get();
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, wake_.get(), &ev) < 0) {
    return Status::IoError(std::string("epoll_ctl(wake): ") + std::strerror(errno));
  }

  size_t workers =
      options_.worker_threads > 0 ? options_.worker_threads : ThreadPool::DefaultThreadCount();
  pool_ = std::make_unique<ThreadPool>(workers);
  ack_thread_ = std::thread([this] { AckThread(); });
  loop_thread_ = std::thread([this] { LoopThread(); });
  return Status::Ok();
}

Server::~Server() { Stop(); }

void Server::Wake() {
  LoopWakeups().Inc();
  uint64_t one = 1;
  // A full eventfd counter still wakes the loop; short writes cannot happen.
  [[maybe_unused]] ssize_t n = ::write(wake_.get(), &one, sizeof(one));
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
  }
  stopping_.store(true, std::memory_order_release);
  Wake();
  // Drain in-flight requests; responses land in per-connection buffers and
  // the still-running loop writes them out. Drain (not reset): the loop
  // thread still dereferences pool_ to submit work for late-arriving frames,
  // which now runs inline; the pointer itself dies only after the join.
  // Null when Init() failed before the pool came up.
  if (pool_ != nullptr) {
    pool_->Drain();
  }
  // Flush + ack the ingest tail, then retire the batcher.
  {
    std::lock_guard<std::mutex> lock(ack_mu_);
    ack_stop_ = true;
  }
  ack_cv_.notify_all();
  if (ack_thread_.joinable()) {
    ack_thread_.join();
  }
  // Final write-out + close.
  loop_stop_.store(true, std::memory_order_release);
  Wake();
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  pool_.reset();
}

void Server::Abort() {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (stopped_) {
      return;
    }
    stopped_ = true;
  }
  abort_.store(true, std::memory_order_release);
  stopping_.store(true, std::memory_order_release);
  loop_stop_.store(true, std::memory_order_release);
  Wake();
  // Sockets die first — clients see a reset, unacked requests stay unacked.
  if (loop_thread_.joinable()) {
    loop_thread_.join();
  }
  pool_.reset();
  {
    std::lock_guard<std::mutex> lock(ack_mu_);
    ack_stop_ = true;
  }
  ack_cv_.notify_all();
  if (ack_thread_.joinable()) {
    ack_thread_.join();
  }
}

size_t Server::active_connections() const {
  return conn_count_.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------- event loop

void Server::LoopThread() {
  std::vector<struct epoll_event> events(64);
  bool listener_closed = false;
  for (;;) {
    // Timed waits only while some connection is over its output bound: stall
    // clocks must advance even when no socket event ever arrives (the
    // defining behavior of a peer that stopped reading).
    const int timeout_ms = over_bound_.load(std::memory_order_acquire) > 0 ? 50 : -1;
    int n = ::epoll_wait(epoll_.get(), events.data(), static_cast<int>(events.size()),
                         timeout_ms);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // epoll fd gone; shutting down
    }
    for (int i = 0; i < n; ++i) {
      const struct epoll_event& ev = events[static_cast<size_t>(i)];
      if (ev.data.fd == wake_.get()) {
        uint64_t drain;
        while (::read(wake_.get(), &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (ev.data.fd == listener_.get()) {
        if (!stopping_.load(std::memory_order_acquire)) {
          AcceptAll();
        }
        continue;
      }
      auto it = conns_.find(ev.data.fd);
      if (it == conns_.end()) {
        continue;  // closed earlier in this batch
      }
      std::shared_ptr<Connection> conn = it->second;
      if ((ev.events & (EPOLLERR | EPOLLHUP)) != 0) {
        CloseConnection(conn);
        continue;
      }
      if ((ev.events & EPOLLOUT) != 0) {
        FlushOutput(conn);
      }
      if ((ev.events & EPOLLIN) != 0) {
        ReadInput(conn);
      }
    }

    if (stopping_.load(std::memory_order_acquire) && !listener_closed) {
      (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, listener_.get(), nullptr);
      listener_.Reset();
      listener_closed = true;
    }
    if (over_bound_.load(std::memory_order_acquire) > 0) {
      SweepSlowPeers();
    }
    if (recheck_blocked_.exchange(false, std::memory_order_acq_rel)) {
      RetryBlocked();
    }
    {
      std::vector<std::shared_ptr<Connection>> pending;
      {
        std::lock_guard<std::mutex> lock(pending_writes_mu_);
        pending.swap(pending_writes_);
      }
      for (const auto& conn : pending) {
        FlushOutput(conn);
      }
    }
    if (loop_stop_.load(std::memory_order_acquire)) {
      const bool hard = abort_.load(std::memory_order_acquire);
      std::vector<std::shared_ptr<Connection>> all;
      all.reserve(conns_.size());
      for (auto& [fd, conn] : conns_) {
        (void)fd;
        all.push_back(conn);
      }
      for (const auto& conn : all) {
        if (!hard) {
          // Graceful: push out whatever is queued before closing. The fd is
          // non-blocking; WriteFully polls out EAGAIN.
          std::lock_guard<std::mutex> lock(conn->out_mu);
          if (!conn->out.empty() && !conn->closed) {
            if (WriteFully(conn->fd.get(), conn->out).ok()) {
              BytesWritten().Inc(conn->out.size());
            }
            conn->out.clear();
          }
        }
        CloseConnection(conn);
      }
      break;
    }
  }
}

void Server::AcceptAll() {
  for (;;) {
    int fd = ::accept(listener_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // EAGAIN or transient error; epoll will re-notify
    }
    Fd sock(fd);
    if (!SetNonBlocking(fd, true).ok()) {
      continue;  // drops the connection (Fd closes it)
    }
    SetNoDelay(fd);
    auto conn = std::make_shared<Connection>(std::move(sock));
    // Multi-tenant mode: no tenant until a hello authenticates one.
    conn->tenant = multi_tenant() ? nullptr : tenants_[0].get();
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_[fd] = std::move(conn);
    }
    conn_count_.fetch_add(1, std::memory_order_relaxed);
    AcceptTotal().Inc();
    ConnActive().Add(1);
  }
}

void Server::ReadInput(const std::shared_ptr<Connection>& conn) {
  char buf[kReadChunk];
  for (;;) {
    ssize_t r = ::recv(conn->fd.get(), buf, sizeof(buf), 0);
    if (r > 0) {
      BytesRead().Inc(static_cast<uint64_t>(r));
      conn->in.append(buf, static_cast<size_t>(r));
      if (static_cast<size_t>(r) < sizeof(buf)) {
        break;  // drained the socket
      }
      continue;
    }
    if (r == 0) {
      // Peer closed. Process what is already buffered (a complete final
      // frame deserves its response even if the client half-closed), then
      // close our side.
      ProcessInput(conn);
      CloseConnection(conn);
      return;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      break;
    }
    CloseConnection(conn);
    return;
  }
  ProcessInput(conn);
}

// Cheap pre-decode of an ingest frame's event count for admission control.
// Malformed bodies admit a nominal 1 event; the worker rejects them properly
// and releases the admission.
static uint64_t PeekIngestEvents(Opcode op, Reader reader) {
  if (op == Opcode::kAppend) {
    return 1;
  }
  if (op != Opcode::kAppendBatch) {
    return 0;
  }
  if (!reader.ReadVarint().ok()) {  // stream id
    return 1;
  }
  auto count = reader.ReadVarint();
  if (!count.ok()) {
    return 1;
  }
  // Clamp to what the payload could physically hold (9 bytes/event min), so
  // a garbage count cannot wedge the admission budget.
  uint64_t cap = reader.remaining() / 9;
  return std::max<uint64_t>(1, std::min(*count, cap));
}

void Server::ProcessInput(const std::shared_ptr<Connection>& conn) {
  if (stopping_.load(std::memory_order_acquire) || conn->blocked) {
    return;
  }
  size_t consumed = 0;
  bool close = false;
  while (true) {
    std::string_view rest = std::string_view(conn->in).substr(consumed);
    auto scan = ScanFrame(rest, options_.max_frame_bytes);
    if (!scan.ok()) {
      FrameErrors().Inc();
      close = true;  // framing is unrecoverable: fail the connection closed
      break;
    }
    if (!scan->complete) {
      break;
    }
    Reader peek(scan->payload);
    auto header = DecodeRequestHeader(peek);
    if (!header.ok()) {
      FrameErrors().Inc();
      close = true;
      break;
    }
    uint64_t admitted = 0;
    // Wire deadline → absolute expiry, stamped at admission so time spent in
    // the exec queue counts against the client's budget. deadline_ms == 0
    // with the flag present means "already expired" (a deterministic hook:
    // the client's budget ran out before the frame finished encoding).
    uint64_t deadline_at = 0;
    if (header->has_deadline) {
      deadline_at =
          header->deadline_ms == 0 ? 1 : MonotonicMicros() + header->deadline_ms * 1000;
    }
    const Opcode op = header->op;
    if (op == Opcode::kHello) {
      // Authenticate on the loop thread, so later frames in this same buffer
      // sweep already see the connection's tenant at admission.
      RequestsFor(op).Inc();
      HandleHello(conn, header->request_id, peek);
      consumed += scan->frame_end;
      continue;
    }
    TenantState* tenant = conn->tenant;
    if (tenant == nullptr) {
      // Multi-tenant mode before a successful hello: deny (in FIFO position)
      // and keep unauthenticated traffic away from the admission budget.
      RequestErrors().Inc();
      AuthFailTotal().Inc();
      EnqueueReadyFrame(conn, header->request_id,
                        Status::PermissionDenied("hello required before any other request"));
      consumed += scan->frame_end;
      continue;
    }
    if (op == Opcode::kAppend || op == Opcode::kAppendBatch) {
      uint64_t events = PeekIngestEvents(op, peek);
      // Tenant rate quota (token bucket, burst = one second's worth). Rate
      // exhaustion is a typed per-tenant error under either backpressure
      // policy — blocking would let one tenant's quota masquerade as global
      // backpressure.
      const uint64_t rate = tenant->config.quotas.ingest_events_per_sec;
      if (rate > 0) {
        tenant->bucket_tokens = std::min(
            static_cast<double>(rate),
            tenant->bucket_tokens +
                tenant->bucket_clock.ElapsedSeconds() * static_cast<double>(rate));
        tenant->bucket_clock.Reset();
        if (tenant->bucket_tokens < static_cast<double>(events)) {
          tenant->rate_limited->Inc();
          RequestErrors().Inc();
          EnqueueReadyFrame(conn, header->request_id,
                            Status::ResourceExhausted("tenant ingest rate quota exceeded (" +
                                                      std::to_string(rate) + " events/s)"));
          consumed += scan->frame_end;
          continue;
        }
        tenant->bucket_tokens -= static_cast<double>(events);
      }
      const bool block = options_.backpressure == ServerOptions::Backpressure::kBlock;
      // A single batch larger than the whole share is admitted when the
      // share is idle under kBlock (it could never run otherwise). The
      // global cap only binds once multiple tenants' admitted shares overlap.
      auto over_budget = [&] {
        const uint64_t tenant_pending = tenant->pending.load();
        const uint64_t global_pending = ingest_pending_.load();
        const bool tenant_over = tenant_pending + events > tenant->budget_events &&
                                 !(tenant_pending == 0 && block);
        const bool global_over = global_pending + events > options_.ingest_queue_events &&
                                 !(global_pending == 0 && block);
        return tenant_over || global_over;
      };
      bool over = over_budget();
      if (over && block) {
        // ReleaseIngest wakes the loop only while some connection is
        // blocked. Publish this one before re-reading the budget (both
        // seq_cst, as in ReleaseIngest), so a release that raced past the
        // first read either sees the count and wakes us, or freed budget
        // this second read sees.
        blocked_conns_.fetch_add(1);
        over = over_budget();
        if (!over) {
          blocked_conns_.fetch_sub(1);
        }
      }
      if (over) {
        if (!block) {
          ShedTotal().Inc();
          tenant->shed->Inc();
          // Through exec_queue, NOT straight to the socket: earlier frames
          // may still be queued, and a shed rejection sent ahead of their
          // responses would break the pipelined-ordering contract.
          EnqueueReadyFrame(
              conn, header->request_id,
              Status::FailedPrecondition("backpressure: ingest queue full (shed policy)"));
          consumed += scan->frame_end;
          continue;
        }
        // kBlock: leave this frame (and everything behind it) buffered and
        // stop reading; TCP pushes back on the client until capacity frees.
        BlockedTotal().Inc();
        tenant->blocked->Inc();
        conn->blocked = true;
        UpdateEpoll(conn, /*want_read=*/false, /*want_write=*/false);
        break;
      }
      admitted = events;
      tenant->pending.fetch_add(events, std::memory_order_acq_rel);
      tenant->pending_gauge->Add(static_cast<int64_t>(events));
      ingest_pending_.fetch_add(events, std::memory_order_acq_rel);
      IngestPending().Add(static_cast<int64_t>(events));
    }
    bool start_worker = false;
    {
      std::lock_guard<std::mutex> lock(conn->exec_mu);
      conn->exec_queue.push_back(
          Connection::PendingExec{std::string(scan->payload), tenant, admitted, deadline_at, {}});
      if (!conn->exec_running) {
        conn->exec_running = true;
        start_worker = true;
      }
    }
    consumed += scan->frame_end;
    if (start_worker) {
      pool_->Submit([this, conn] { RunRequests(conn); });
    }
  }
  if (consumed > 0) {
    conn->in.erase(0, consumed);
  }
  if (close) {
    CloseConnection(conn);
  }
}

void Server::HandleHello(const std::shared_ptr<Connection>& conn, uint64_t request_id,
                         Reader& body) {
  auto tenant_id = body.ReadVarint();
  if (!tenant_id.ok()) {
    RequestErrors().Inc();
    EnqueueReadyFrame(conn, request_id, tenant_id.status());
    return;
  }
  auto token = body.ReadString();
  if (!token.ok()) {
    RequestErrors().Inc();
    EnqueueReadyFrame(conn, request_id, token.status());
    return;
  }
  if (!multi_tenant()) {
    // Legacy single-tenant server: accept and ignore, so tenant-configured
    // clients can talk to either kind of deployment.
    EnqueueReadyFrame(conn, request_id, Status::Ok());
    return;
  }
  if (conn->tenant != nullptr) {
    RequestErrors().Inc();
    EnqueueReadyFrame(conn, request_id,
                      Status::FailedPrecondition("connection is already authenticated"));
    return;
  }
  if (*tenant_id == 0 || *tenant_id > kMaxTenantId ||
      !options_.tenants->Authenticate(static_cast<uint32_t>(*tenant_id), *token)) {
    // One error for every failure mode: the response must not reveal whether
    // the tenant id exists.
    RequestErrors().Inc();
    AuthFailTotal().Inc();
    EnqueueReadyFrame(conn, request_id,
                      Status::PermissionDenied("unknown tenant or bad token"));
    return;
  }
  for (const auto& tenant : tenants_) {
    if (tenant->config.id == *tenant_id) {
      conn->tenant = tenant.get();
      break;
    }
  }
  EnqueueReadyFrame(conn, request_id, Status::Ok());
}

void Server::EnqueueReadyFrame(const std::shared_ptr<Connection>& conn, uint64_t request_id,
                               const Status& status) {
  Writer w;
  w.PutVarint(request_id);
  EncodeStatus(status, w);
  std::string frame;
  if (!AppendFrame(w.data(), &frame).ok()) {
    return;
  }
  bool start_worker = false;
  {
    std::lock_guard<std::mutex> lock(conn->exec_mu);
    Connection::PendingExec task;
    task.ready_frame = std::move(frame);
    conn->exec_queue.push_back(std::move(task));
    if (!conn->exec_running) {
      conn->exec_running = true;
      start_worker = true;
    }
  }
  if (start_worker) {
    pool_->Submit([this, conn] { RunRequests(conn); });
  }
}

void Server::RetryBlocked() {
  // Collect first: ProcessInput can re-block and mutate epoll state.
  std::vector<std::shared_ptr<Connection>> blocked;
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    if (conn->blocked) {
      blocked.push_back(conn);
    }
  }
  for (const auto& conn : blocked) {
    conn->blocked = false;
    blocked_conns_.fetch_sub(1);
    ProcessInput(conn);
    if (!conn->blocked) {
      UpdateEpoll(conn, /*want_read=*/true, /*want_write=*/false);
      ReadInput(conn);  // pick up bytes that arrived while paused
    }
  }
}

void Server::UpdateEpoll(const std::shared_ptr<Connection>& conn, bool want_read,
                         bool want_write) {
  std::lock_guard<std::mutex> lock(conn->out_mu);
  if (conn->closed) {
    return;
  }
  conn->want_read = want_read;
  conn->want_write = conn->want_write || want_write;
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = (conn->want_read ? EPOLLIN : 0u) | (conn->want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn->fd.get();
  (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn->fd.get(), &ev);
}

void Server::FlushOutput(const std::shared_ptr<Connection>& conn) {
  std::lock_guard<std::mutex> lock(conn->out_mu);
  if (conn->closed) {
    return;
  }
  size_t off = 0;
  while (off < conn->out.size()) {
    ssize_t n = ::send(conn->fd.get(), conn->out.data() + off, conn->out.size() - off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      BytesWritten().Inc(static_cast<uint64_t>(n));
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    break;  // EAGAIN (retry on EPOLLOUT) or a dead peer (EPOLLERR follows)
  }
  conn->out.erase(0, off);
  UpdateStallLocked(conn.get());
  const bool need_out = !conn->out.empty();
  if (need_out != conn->want_write) {
    conn->want_write = need_out;
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = (conn->want_read ? EPOLLIN : 0u) | (need_out ? EPOLLOUT : 0u);
    ev.data.fd = conn->fd.get();
    (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, conn->fd.get(), &ev);
  }
}

void Server::CloseConnection(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) {
      return;
    }
    conn->closed = true;
    if (conn->blocked) {
      conn->blocked = false;
      blocked_conns_.fetch_sub(1);
    }
    if (conn->stall_since_us != 0) {
      conn->stall_since_us = 0;
      over_bound_.fetch_sub(1, std::memory_order_acq_rel);
    }
    (void)::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, conn->fd.get(), nullptr);
    {
      std::lock_guard<std::mutex> conns_lock(conns_mu_);
      conns_.erase(conn->fd.get());
    }
    conn->fd.Reset();
  }
  conn_count_.fetch_sub(1, std::memory_order_relaxed);
  ConnActive().Add(-1);
}

// --------------------------------------------------------- request execution

void Server::SendResponse(const std::shared_ptr<Connection>& conn, std::string frame) {
  bool need_loop = false;
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->closed) {
      return;
    }
    const bool was_empty = conn->out.empty();
    conn->out += frame;
    if (was_empty) {
      // Opportunistic non-blocking write; leftovers go through the loop.
      size_t off = 0;
      while (off < conn->out.size()) {
        ssize_t n = ::send(conn->fd.get(), conn->out.data() + off, conn->out.size() - off,
                           MSG_NOSIGNAL);
        if (n > 0) {
          BytesWritten().Inc(static_cast<uint64_t>(n));
          off += static_cast<size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) {
          continue;
        }
        break;
      }
      conn->out.erase(0, off);
    }
    UpdateStallLocked(conn.get());
    need_loop = !conn->out.empty() && !conn->want_write;
  }
  if (need_loop) {
    {
      std::lock_guard<std::mutex> lock(pending_writes_mu_);
      pending_writes_.push_back(conn);
    }
    Wake();
  }
}

void Server::UpdateStallLocked(Connection* conn) {
  if (options_.max_conn_buffer_bytes == 0 || conn->closed) {
    return;
  }
  const bool over = conn->out.size() > options_.max_conn_buffer_bytes;
  if (over && conn->stall_since_us == 0) {
    conn->stall_since_us = MonotonicMicros();
    if (over_bound_.fetch_add(1, std::memory_order_acq_rel) == 0) {
      Wake();  // break the loop out of its indefinite wait into timed waits
    }
  } else if (!over && conn->stall_since_us != 0) {
    conn->stall_since_us = 0;
    over_bound_.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void Server::SweepSlowPeers() {
  const uint64_t now = MonotonicMicros();
  const uint64_t limit_us = options_.slow_peer_timeout_ms * 1000;
  std::vector<std::pair<std::shared_ptr<Connection>, uint64_t>> expired;
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->stall_since_us != 0 && now - conn->stall_since_us >= limit_us) {
      expired.emplace_back(conn, conn->out.size());
    }
  }
  for (const auto& [conn, buffered] : expired) {
    SlowPeerDisconnects().Inc();
    FlightRecorder::Default().Record(FlightEventType::kNetSlowPeerDisconnect,
                                     static_cast<uint64_t>(conn->fd.get()), buffered);
    CloseConnection(conn);
  }
}

void Server::ReleaseIngest(TenantState* tenant, uint64_t events) {
  if (events == 0) {
    return;
  }
  if (tenant != nullptr) {
    tenant->pending.fetch_sub(events);
    tenant->pending_gauge->Add(-static_cast<int64_t>(events));
  }
  ingest_pending_.fetch_sub(events);
  IngestPending().Add(-static_cast<int64_t>(events));
  // Only a blocked connection waits on freed budget; with none, skip the
  // eventfd write and the loop's RetryBlocked sweep. The seq_cst pairing
  // with ProcessInput's publish-then-recheck closes the block/release race.
  if (blocked_conns_.load() > 0) {
    recheck_blocked_.store(true, std::memory_order_release);
    Wake();
  }
}

void Server::RunRequests(const std::shared_ptr<Connection>& conn) {
  for (;;) {
    Connection::PendingExec task;
    {
      std::lock_guard<std::mutex> lock(conn->exec_mu);
      if (conn->exec_queue.empty()) {
        conn->exec_running = false;
        return;
      }
      task = std::move(conn->exec_queue.front());
      conn->exec_queue.pop_front();
    }
    if (!task.ready_frame.empty()) {
      // Pre-encoded by the loop thread (shed rejection, hello ack, auth
      // error); it waited here for its FIFO turn.
      SendResponse(conn, std::move(task.ready_frame));
      ReleaseIngest(task.tenant, task.admitted);
      continue;
    }
    ExecuteRequest(conn, std::move(task.payload), task.tenant, task.admitted, task.deadline_at);
  }
}

void Server::ExecuteRequest(const std::shared_ptr<Connection>& conn, std::string payload,
                            TenantState* tenant, uint64_t admitted_events,
                            uint64_t deadline_at_us) {
  Reader reader(payload);
  auto header = DecodeRequestHeader(reader);
  if (!header.ok()) {
    // The loop validated the header already; a failure here means the
    // connection was already failed closed. Release and drop.
    ReleaseIngest(tenant, admitted_events);
    return;
  }
  RequestsFor(header->op).Inc();
  tenant->requests->Inc();
  if (deadline_at_us != 0 && MonotonicMicros() >= deadline_at_us) {
    // The client's budget expired while this sat in the exec queue: answer a
    // typed rejection without touching the store. The client has long since
    // given up locally; doing the work would only add load exactly when the
    // server is too slow to be worth talking to.
    DeadlineExceededTotal().Inc();
    RequestErrors().Inc();
    FlightRecorder::Default().Record(FlightEventType::kNetDeadlineExceeded,
                                     static_cast<uint64_t>(header->op), header->deadline_ms);
    Writer w;
    w.PutVarint(header->request_id);
    EncodeStatus(Status::DeadlineExceeded("deadline expired before execution"), w);
    std::string frame;
    if (AppendFrame(w.data(), &frame).ok()) {
      SendResponse(conn, std::move(frame));
    }
    ReleaseIngest(tenant, admitted_events);
    return;
  }
  ScopedTimer timer(RequestUsFor(header->op));
  bool defer_ack = false;
  Status ingest_status = Status::Ok();
  std::string response = HandleRequest(tenant, *header, reader, &defer_ack, &ingest_status);
  if (defer_ack && ingest_status.ok() && options_.durable_acks) {
    if (abort_.load(std::memory_order_acquire)) {
      // Hard kill mid-request: the ack thread is gone (or will drop the
      // batch), and falling through would send an OK ack with no covering
      // Flush — the client would count an append WAL replay may not
      // recover. Drop the response; an unacked append is allowed to be
      // lost.
      ReleaseIngest(tenant, admitted_events);
      return;
    }
    // Ingest succeeded in memory: the ack waits for a covering Flush.
    {
      std::lock_guard<std::mutex> lock(ack_mu_);
      pending_acks_.push_back(PendingAck{conn, tenant, header->request_id, admitted_events});
    }
    ack_cv_.notify_one();
    return;
  }
  if (!response.empty()) {
    std::string frame;
    if (AppendFrame(response, &frame).ok()) {
      SendResponse(conn, std::move(frame));
    }
  }
  ReleaseIngest(tenant, admitted_events);
}

Status Server::CheckByteQuota(TenantState* tenant, uint64_t events) {
  const uint64_t quota = tenant->config.quotas.max_resident_bytes;
  if (quota == 0 || tenant->config.id == 0) {
    return Status::Ok();
  }
  // Exact recount every kRecountEvents admitted events; in between, charge a
  // flat per-event estimate on top of the last recount. The quota is a
  // capacity guard, not an invoice — off by a few KiB is fine, scanning every
  // tenant stream per append is not.
  constexpr uint64_t kRecountEvents = 64;
  constexpr uint64_t kBytesPerEventEstimate = 16;
  uint64_t since =
      tenant->events_since_recount.fetch_add(events, std::memory_order_relaxed) + events;
  if (since >= kRecountEvents) {
    tenant->events_since_recount.store(0, std::memory_order_relaxed);
    uint64_t total = 0;
    for (StreamId sid : store_->ListStreams()) {
      if (TenantOfStream(sid) != tenant->config.id) {
        continue;
      }
      auto stream = store_->GetStream(sid);
      if (stream.ok()) {
        total += (*stream)->SizeBytes();
      }
    }
    tenant->resident_bytes.store(total, std::memory_order_relaxed);
    since = 0;
  }
  const uint64_t estimate =
      tenant->resident_bytes.load(std::memory_order_relaxed) + since * kBytesPerEventEstimate;
  if (estimate > quota) {
    return Status::ResourceExhausted("tenant byte quota exceeded (~" +
                                     std::to_string(estimate) + " of " +
                                     std::to_string(quota) + " bytes resident)");
  }
  return Status::Ok();
}

std::string Server::HandleRequest(TenantState* tenant, const RequestHeader& header, Reader& body,
                                  bool* defer_ack, Status* ingest_status) {
  Writer resp;
  resp.PutVarint(header.request_id);
  auto fail = [&](const Status& status) {
    RequestErrors().Inc();
    Writer err;
    err.PutVarint(header.request_id);
    EncodeStatus(status, err);
    return err.Release();
  };
  const uint32_t tenant_id = tenant->config.id;
  // Maps a wire (tenant-local) stream id into the store's namespace. The
  // legacy tenant keeps the identity mapping over the full 64-bit space; real
  // tenants get the top 16 bits, so a forged high-bit id is a denial, not a
  // way into a neighbor's namespace.
  auto map_id = [&](uint64_t local, StreamId* global) -> Status {
    if (tenant_id == 0) {
      *global = local;
      return Status::Ok();
    }
    if (local > kMaxLocalStreamId) {
      return Status::PermissionDenied("stream id outside tenant namespace");
    }
    *global = GlobalStreamId(tenant_id, local);
    return Status::Ok();
  };

  switch (header.op) {
    case Opcode::kPing: {
      EncodeStatus(Status::Ok(), resp);
      // Trailing health byte (DESIGN.md §15): 0 = ok, 1 = poisoned (the
      // backend is rejecting writes until reopen), 2 = draining (shutdown
      // imminent; fail over now). Old clients ignore trailing response
      // bytes; old servers send none and clients decode that as ok.
      uint8_t health = 0;
      if (store_->Poisoned()) {
        health = 1;
      } else if (draining()) {
        health = 2;
      }
      resp.PutU8(health);
      return resp.Release();
    }
    case Opcode::kCreateStream: {
      auto id = body.ReadVarint();
      if (!id.ok()) {
        return fail(id.status());
      }
      auto config = StreamConfig::Deserialize(body);
      if (!config.ok()) {
        return fail(config.status());
      }
      StreamId created = 0;
      if (tenant_id == 0) {
        if (*id == 0) {
          auto sid = store_->CreateStream(std::move(*config));
          if (!sid.ok()) {
            return fail(sid.status());
          }
          created = *sid;
        } else {
          Status s = store_->CreateStreamWithId(*id, std::move(*config));
          if (!s.ok()) {
            return fail(s);
          }
          created = *id;
        }
      } else {
        if (*id > kMaxLocalStreamId) {
          return fail(Status::PermissionDenied("stream id outside tenant namespace"));
        }
        // Serialized so two concurrent auto-assigns in the same namespace
        // cannot race to the same local id; creates are rare.
        std::lock_guard<std::mutex> lock(create_mu_);
        uint64_t owned = 0;
        StreamId max_local = 0;
        for (StreamId sid : store_->ListStreams()) {
          if (TenantOfStream(sid) != tenant_id) {
            continue;
          }
          ++owned;
          max_local = std::max(max_local, LocalStreamId(sid));
        }
        const uint64_t max_streams = tenant->config.quotas.max_streams;
        if (max_streams > 0 && owned >= max_streams) {
          return fail(Status::ResourceExhausted("tenant stream quota exceeded (" +
                                                std::to_string(max_streams) + " streams)"));
        }
        const StreamId local = *id != 0 ? *id : max_local + 1;
        if (local > kMaxLocalStreamId) {
          return fail(Status::ResourceExhausted("tenant stream namespace exhausted"));
        }
        Status s = store_->CreateStreamWithId(GlobalStreamId(tenant_id, local),
                                              std::move(*config));
        if (!s.ok()) {
          return fail(s);
        }
        created = local;
      }
      if (Status s = store_->Flush(); !s.ok()) {
        return fail(s);
      }
      EncodeStatus(Status::Ok(), resp);
      resp.PutVarint(created);
      return resp.Release();
    }
    case Opcode::kDeleteStream: {
      auto id = body.ReadVarint();
      if (!id.ok()) {
        return fail(id.status());
      }
      StreamId target = 0;
      if (Status s = map_id(*id, &target); !s.ok()) {
        return fail(s);
      }
      if (Status s = store_->DeleteStream(target); !s.ok()) {
        return fail(s);
      }
      EncodeStatus(Status::Ok(), resp);
      return resp.Release();
    }
    case Opcode::kListStreams: {
      std::vector<StreamId> ids = store_->ListStreams();
      if (tenant_id != 0) {
        std::vector<StreamId> mine;
        for (StreamId id : ids) {
          if (TenantOfStream(id) == tenant_id) {
            mine.push_back(LocalStreamId(id));
          }
        }
        ids = std::move(mine);
      }
      EncodeStatus(Status::Ok(), resp);
      resp.PutVarint(ids.size());
      for (StreamId id : ids) {
        resp.PutVarint(id);
      }
      return resp.Release();
    }
    case Opcode::kAppend: {
      *defer_ack = true;
      auto id = body.ReadVarint();
      if (!id.ok()) {
        *ingest_status = id.status();
        return fail(id.status());
      }
      auto ts = body.ReadSignedVarint();
      if (!ts.ok()) {
        *ingest_status = ts.status();
        return fail(ts.status());
      }
      auto value = body.ReadDouble();
      if (!value.ok()) {
        *ingest_status = value.status();
        return fail(value.status());
      }
      StreamId target = 0;
      Status s = map_id(*id, &target);
      if (s.ok()) {
        s = CheckByteQuota(tenant, 1);
      }
      if (s.ok()) {
        // Session replay dedup (DESIGN.md §15). The session lock spans
        // check + apply + update: a replay racing its original on another
        // worker serializes here instead of double-applying.
        std::shared_ptr<TenantState::SessionState> session;
        std::unique_lock<std::mutex> session_lock;
        if (header.has_session) {
          session = tenant->GetSession(header.session_id);
          session_lock = std::unique_lock<std::mutex>(session->mu);
          if (header.seq <= session->last_seq) {
            // Already applied: ack OK without re-applying. defer_ack stays
            // set, so even the duplicate's ack rides a covering flush.
            DupSuppressedTotal().Inc();
            FlightRecorder::Default().Record(FlightEventType::kNetDupSuppressed,
                                             header.session_id, header.seq);
            *ingest_status = Status::Ok();
            EncodeStatus(Status::Ok(), resp);
            return resp.Release();
          }
        }
        s = store_->Append(target, *ts, *value);
        if (s.ok() && session != nullptr) {
          session->last_seq = header.seq;
        }
      }
      *ingest_status = s;
      if (!s.ok()) {
        return fail(s);
      }
      EncodeStatus(Status::Ok(), resp);
      return resp.Release();
    }
    case Opcode::kAppendBatch: {
      *defer_ack = true;
      auto id = body.ReadVarint();
      if (!id.ok()) {
        *ingest_status = id.status();
        return fail(id.status());
      }
      auto events = DecodeEventBatch(body);
      if (!events.ok()) {
        *ingest_status = events.status();
        return fail(events.status());
      }
      StreamId target = 0;
      Status s = map_id(*id, &target);
      if (s.ok()) {
        s = CheckByteQuota(tenant, events->size());
      }
      if (s.ok()) {
        // Same session replay dedup as kAppend; one seq covers the whole
        // batch, which applies atomically from the session's point of view.
        std::shared_ptr<TenantState::SessionState> session;
        std::unique_lock<std::mutex> session_lock;
        if (header.has_session) {
          session = tenant->GetSession(header.session_id);
          session_lock = std::unique_lock<std::mutex>(session->mu);
          if (header.seq <= session->last_seq) {
            DupSuppressedTotal().Inc();
            FlightRecorder::Default().Record(FlightEventType::kNetDupSuppressed,
                                             header.session_id, header.seq);
            *ingest_status = Status::Ok();
            EncodeStatus(Status::Ok(), resp);
            return resp.Release();
          }
        }
        s = store_->AppendBatch(target, *events);
        if (s.ok() && session != nullptr) {
          session->last_seq = header.seq;
        }
      }
      *ingest_status = s;
      if (!s.ok()) {
        return fail(s);
      }
      EncodeStatus(Status::Ok(), resp);
      return resp.Release();
    }
    case Opcode::kQuery: {
      auto id = body.ReadVarint();
      if (!id.ok()) {
        return fail(id.status());
      }
      auto spec = DecodeQuerySpec(body);
      if (!spec.ok()) {
        return fail(spec.status());
      }
      StreamId target = 0;
      if (Status s = map_id(*id, &target); !s.ok()) {
        return fail(s);
      }
      auto result = store_->Query(target, *spec);
      if (!result.ok()) {
        return fail(result.status());
      }
      EncodeStatus(Status::Ok(), resp);
      std::string trace;
      if (spec->collect_trace && result->trace != nullptr) {
        trace = result->trace->Render();
      }
      EncodeQueryResult(*result, trace, resp);
      return resp.Release();
    }
    case Opcode::kQueryAggregate: {
      auto n = body.ReadVarint();
      if (!n.ok()) {
        return fail(n.status());
      }
      if (*n > body.remaining()) {  // >= 1 byte per id on the wire
        return fail(Status::Corruption("stream-id count exceeds payload"));
      }
      std::vector<StreamId> ids;
      ids.reserve(static_cast<size_t>(*n));
      for (uint64_t i = 0; i < *n; ++i) {
        auto id = body.ReadVarint();
        if (!id.ok()) {
          return fail(id.status());
        }
        StreamId target = 0;
        if (Status s = map_id(*id, &target); !s.ok()) {
          return fail(s);
        }
        ids.push_back(target);
      }
      auto spec = DecodeQuerySpec(body);
      if (!spec.ok()) {
        return fail(spec.status());
      }
      auto result = store_->QueryAggregate(ids, *spec);
      if (!result.ok()) {
        return fail(result.status());
      }
      EncodeStatus(Status::Ok(), resp);
      std::string trace;
      if (spec->collect_trace && result->trace != nullptr) {
        trace = result->trace->Render();
      }
      EncodeQueryResult(*result, trace, resp);
      return resp.Release();
    }
    case Opcode::kBeginLandmark:
    case Opcode::kEndLandmark: {
      auto id = body.ReadVarint();
      if (!id.ok()) {
        return fail(id.status());
      }
      auto ts = body.ReadSignedVarint();
      if (!ts.ok()) {
        return fail(ts.status());
      }
      StreamId target = 0;
      if (Status s = map_id(*id, &target); !s.ok()) {
        return fail(s);
      }
      Status s = header.op == Opcode::kBeginLandmark ? store_->BeginLandmark(target, *ts)
                                                     : store_->EndLandmark(target, *ts);
      if (!s.ok()) {
        return fail(s);
      }
      if (Status flush = store_->Flush(); !flush.ok()) {
        return fail(flush);
      }
      EncodeStatus(Status::Ok(), resp);
      return resp.Release();
    }
    case Opcode::kFlush: {
      if (Status s = store_->Flush(); !s.ok()) {
        return fail(s);
      }
      EncodeStatus(Status::Ok(), resp);
      return resp.Release();
    }
    case Opcode::kScrub: {
      auto repair = body.ReadU8();
      if (!repair.ok()) {
        return fail(repair.status());
      }
      ScrubReport report;
      Status s = store_->Scrub(*repair != 0, &report);
      if (!s.ok()) {
        return fail(s);
      }
      EncodeStatus(Status::Ok(), resp);
      EncodeScrubReport(report, resp);
      return resp.Release();
    }
    case Opcode::kStats: {
      auto format = body.ReadU8();
      if (!format.ok()) {
        return fail(format.status());
      }
      if (*format > 1) {
        return fail(Status::Corruption("unknown stats format"));
      }
      EncodeStatus(Status::Ok(), resp);
      resp.PutString(RenderStats(store_, /*json=*/*format == 0));
      return resp.Release();
    }
    case Opcode::kStreamInfo: {
      auto want = body.ReadVarint();
      if (!want.ok()) {
        return fail(want.status());
      }
      std::vector<StreamId> ids;
      if (*want != 0) {
        StreamId target = 0;
        if (Status s = map_id(*want, &target); !s.ok()) {
          return fail(s);
        }
        ids.push_back(target);
      } else {
        ids = store_->ListStreams();
        if (tenant_id != 0) {
          std::erase_if(ids, [&](StreamId id) { return TenantOfStream(id) != tenant_id; });
        }
      }
      std::vector<StreamInfo> rows;
      for (StreamId id : ids) {
        auto stream = store_->GetStream(id);
        if (!stream.ok()) {
          return fail(stream.status());
        }
        StreamInfo info;
        info.id = tenant_id != 0 ? LocalStreamId(id) : id;
        info.element_count = (*stream)->element_count();
        info.landmark_element_count = (*stream)->landmark_element_count();
        info.window_count = (*stream)->window_count();
        info.landmark_window_count = (*stream)->landmark_window_count();
        info.size_bytes = (*stream)->SizeBytes();
        info.decay = (*stream)->config().decay->Describe();
        rows.push_back(std::move(info));
      }
      EncodeStatus(Status::Ok(), resp);
      resp.PutVarint(rows.size());
      for (const StreamInfo& row : rows) {
        EncodeStreamInfo(row, resp);
      }
      return resp.Release();
    }
    case Opcode::kHello: {
      // The loop thread intercepts hellos before dispatch; if one lands here
      // anyway it is a no-op on an already-resolved tenant.
      EncodeStatus(Status::Ok(), resp);
      return resp.Release();
    }
  }
  return fail(Status::Unimplemented("unhandled opcode"));
}

// ----------------------------------------------------------- durability acks

void Server::AckThread() {
  for (;;) {
    std::vector<PendingAck> batch;
    {
      std::unique_lock<std::mutex> lock(ack_mu_);
      ack_cv_.wait(lock, [this] { return ack_stop_ || !pending_acks_.empty(); });
      if (pending_acks_.empty() && ack_stop_) {
        return;
      }
      batch.swap(pending_acks_);
    }
    if (abort_.load(std::memory_order_acquire)) {
      // Hard kill: never acked, allowed to be lost. Release the budget so
      // teardown doesn't hinge on it.
      for (const PendingAck& ack : batch) {
        ReleaseIngest(ack.tenant, ack.events);
      }
      continue;
    }
    Status flush;
    {
      ScopedTimer timer(AckFlushUs());
      flush = store_->Flush();
    }
    AckBatch().Record(batch.size());
    for (PendingAck& ack : batch) {
      Writer w;
      w.PutVarint(ack.request_id);
      EncodeStatus(flush, w);
      std::string frame;
      if (AppendFrame(w.data(), &frame).ok()) {
        SendResponse(ack.conn, std::move(frame));
      }
      ReleaseIngest(ack.tenant, ack.events);
    }
  }
}

}  // namespace ss::net
