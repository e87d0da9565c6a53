#include "harness/tracing.h"

#include <cstdio>
#include <ctime>
#include <memory>

namespace ssbench {

uint64_t NowNanos() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

namespace tracing {

namespace {

// At most this many spans stay in memory (~56 bytes each); later spans are
// only counted, so a long traced run cannot grow without bound.
constexpr size_t kMaxSpans = 600'000;

struct SpanRecord {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t request_id;
  uint32_t thread;
};

struct ThreadBuffer {
  uint32_t index = 0;
  uint64_t next_local_id = 0;
  std::vector<SpanRecord> spans;
};

std::atomic<bool> g_enabled{false};
std::atomic<size_t> g_recorded{0};
std::atomic<size_t> g_dropped{0};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_buffers_mu

thread_local ThreadBuffer* t_buffer = nullptr;
thread_local uint64_t t_current = 0;  // id of the span current on this thread

ThreadBuffer& Buffer() {
  if (t_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    t_buffer = g_buffers.back().get();
    t_buffer->index = static_cast<uint32_t>(g_buffers.size());
  }
  return *t_buffer;
}

void Store(const char* name, uint64_t start_ns, uint64_t end_ns, uint64_t id, uint64_t parent,
           uint64_t request_id) {
  if (g_recorded.fetch_add(1, std::memory_order_relaxed) >= kMaxSpans) {
    g_recorded.fetch_sub(1, std::memory_order_relaxed);
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  ThreadBuffer& buffer = Buffer();
  buffer.spans.push_back(SpanRecord{name, start_ns, end_ns, id, parent, request_id, buffer.index});
}

}  // namespace

void SetEnabled(bool enabled) { g_enabled.store(enabled, std::memory_order_release); }
bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, uint64_t request_id) : name_(name), request_id_(request_id) {
  if (!Enabled()) {
    return;
  }
  ThreadBuffer& buffer = Buffer();
  id_ = (static_cast<uint64_t>(buffer.index) << 40) | ++buffer.next_local_id;
  parent_ = t_current;
  t_current = id_;
  start_ns_ = NowNanos();
}

Span::~Span() {
  if (id_ == 0) {
    return;
  }
  uint64_t end_ns = NowNanos();
  t_current = parent_;
  Store(name_, start_ns_, end_ns, id_, parent_, request_id_);
}

void Record(const char* name, uint64_t start_ns, uint64_t end_ns, uint64_t request_id) {
  if (!Enabled()) {
    return;
  }
  ThreadBuffer& buffer = Buffer();
  uint64_t id = (static_cast<uint64_t>(buffer.index) << 40) | ++buffer.next_local_id;
  Store(name, start_ns, end_ns, id, t_current, request_id);
}

size_t WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return 0;
  }
  std::fprintf(f, "name\tstart_ns\tend_ns\tspan_id\tparent_id\trequest_id\tthread\n");
  size_t written = 0;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    for (const SpanRecord& s : buffer->spans) {
      std::fprintf(f, "%s\t%llu\t%llu\t%llu\t%llu\t%llu\t%u\n", s.name,
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request_id), s.thread);
      ++written;
    }
  }
  std::fclose(f);
  return written;
}

size_t Dropped() { return g_dropped.load(std::memory_order_relaxed); }

}  // namespace tracing

namespace {
thread_local int t_connected_fd = -1;
// Bound on kept latency samples per kind (8 bytes each).
constexpr size_t kMaxSamples = 1'000'000;
}  // namespace

int CountingNetOps::Connect(int fd, const struct sockaddr* addr, unsigned int addrlen) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  tracing::Span span("net.connect");
  int rc = NetOps::Connect(fd, addr, addrlen);
  t_connected_fd = fd;  // non-blocking connects report EINPROGRESS; the fd is still ours
  return rc;
}

long CountingNetOps::Send(int fd, const void* buf, size_t len) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  tracing::Span span("net.send");
  return NetOps::Send(fd, buf, len);
}

long CountingNetOps::Recv(int fd, void* buf, size_t len) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  tracing::Span span("net.recv");
  return NetOps::Recv(fd, buf, len);
}

int CountingNetOps::PollOne(int fd, short events, int timeout_ms) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  tracing::Span span("net.poll");
  return NetOps::PollOne(fd, events, timeout_ms);
}

int CountingNetOps::Close(int fd) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  if (t_connected_fd == fd) {
    t_connected_fd = -1;
  }
  return NetOps::Close(fd);
}

int CountingNetOps::ThreadConnectedFd() { return t_connected_fd; }

FileIoTotals FileIoTotals::Minus(const FileIoTotals& e) const {
  return FileIoTotals{writes - e.writes,           write_bytes - e.write_bytes,
                      preads - e.preads,           pread_bytes - e.pread_bytes,
                      fsyncs - e.fsyncs,           other_calls - e.other_calls,
                      busy_ns - e.busy_ns};
}

void TimingFileOps::Account(uint64_t start_ns, std::atomic<uint64_t>& calls) {
  calls.fetch_add(1, std::memory_order_relaxed);
  busy_ns_.fetch_add(NowNanos() - start_ns, std::memory_order_relaxed);
}

int TimingFileOps::Open(const std::string& path, int flags, int mode) {
  tracing::Span span("storage.open");
  uint64_t start = NowNanos();
  int rc = FileOps::Open(path, flags, mode);
  Account(start, other_);
  return rc;
}

ssize_t TimingFileOps::Write(int fd, const void* buf, size_t n) {
  tracing::Span span("storage.write");
  uint64_t start = NowNanos();
  ssize_t rc = FileOps::Write(fd, buf, n);
  Account(start, writes_);
  if (rc > 0) {
    write_bytes_.fetch_add(static_cast<uint64_t>(rc), std::memory_order_relaxed);
  }
  return rc;
}

ssize_t TimingFileOps::Pread(int fd, void* buf, size_t n, uint64_t offset) {
  tracing::Span span("storage.pread");
  uint64_t start = NowNanos();
  ssize_t rc = FileOps::Pread(fd, buf, n, offset);
  Keep(pread_samples_, start);
  Account(start, preads_);
  if (rc > 0) {
    pread_bytes_.fetch_add(static_cast<uint64_t>(rc), std::memory_order_relaxed);
  }
  return rc;
}

int TimingFileOps::Fsync(int fd) {
  tracing::Span span("storage.fsync");
  uint64_t start = NowNanos();
  int rc = FileOps::Fsync(fd);
  Keep(fsync_samples_, start);
  Account(start, fsyncs_);
  return rc;
}

int TimingFileOps::Close(int fd) {
  uint64_t start = NowNanos();
  int rc = FileOps::Close(fd);
  Account(start, other_);
  return rc;
}

int TimingFileOps::Rename(const std::string& from, const std::string& to) {
  uint64_t start = NowNanos();
  int rc = FileOps::Rename(from, to);
  Account(start, other_);
  return rc;
}

int TimingFileOps::Unlink(const std::string& path) {
  uint64_t start = NowNanos();
  int rc = FileOps::Unlink(path);
  Account(start, other_);
  return rc;
}

int TimingFileOps::Mkdir(const std::string& path, int mode) {
  uint64_t start = NowNanos();
  int rc = FileOps::Mkdir(path, mode);
  Account(start, other_);
  return rc;
}

int TimingFileOps::FsyncDir(const std::string& path) {
  tracing::Span span("storage.fsync_dir");
  uint64_t start = NowNanos();
  int rc = FileOps::FsyncDir(path);
  Account(start, other_);
  return rc;
}

FileIoTotals TimingFileOps::Totals() const {
  return FileIoTotals{writes_.load(),      write_bytes_.load(), preads_.load(),
                      pread_bytes_.load(), fsyncs_.load(),      other_.load(),
                      busy_ns_.load()};
}

void TimingFileOps::Keep(std::vector<Sample>& samples, uint64_t start_ns) {
  uint64_t end_ns = NowNanos();
  std::lock_guard<std::mutex> lock(samples_mu_);
  if (samples.size() < kMaxSamples) {
    samples.push_back(Sample{end_ns, static_cast<double>(end_ns - start_ns) / 1e3});
  }
}

std::vector<double> TimingFileOps::Select(const std::vector<Sample>& samples, uint64_t from_ns,
                                          uint64_t to_ns) const {
  std::lock_guard<std::mutex> lock(samples_mu_);
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.end_ns >= from_ns && s.end_ns < to_ns) {
      out.push_back(s.us);
    }
  }
  return out;
}

std::vector<double> TimingFileOps::FsyncSamplesUs(uint64_t from_ns, uint64_t to_ns) const {
  return Select(fsync_samples_, from_ns, to_ns);
}

std::vector<double> TimingFileOps::PreadSamplesUs(uint64_t from_ns, uint64_t to_ns) const {
  return Select(pread_samples_, from_ns, to_ns);
}

}  // namespace ssbench
