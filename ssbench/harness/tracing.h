// The benchmark's own tracing: spans recorded from the benchmark's code
// around each call into the store (client RPCs, direct store replay) and
// from timing wrappers installed on the store's two I/O seams — NetOps
// (client sockets) and FileOps (storage file I/O). A span's parent is the
// span current on the calling thread, so a socket call made inside an RPC
// is attributed to that RPC.
//
// Spans are kept in per-thread memory buffers and written out once, at
// exit. Recording is off unless SetEnabled(true); the seam wrappers still
// count calls and time file I/O when it is off, but record no spans.
#ifndef SSBENCH_HARNESS_TRACING_H_
#define SSBENCH_HARNESS_TRACING_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/net/socket.h"
#include "src/storage/file_util.h"

namespace ssbench {

uint64_t NowNanos();

namespace tracing {

void SetEnabled(bool enabled);
bool Enabled();

// RAII span. Does nothing while tracing is disabled.
class Span {
 public:
  explicit Span(const char* name, uint64_t request_id = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t request_id_;
  uint64_t start_ns_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
};

// Records a span whose start and end were taken by the caller (an RPC whose
// request and response are handled in different loop iterations). Its
// parent is the span current on the calling thread.
void Record(const char* name, uint64_t start_ns, uint64_t end_ns, uint64_t request_id);

// Writes every recorded span as tab-separated lines
// (name, start_ns, end_ns, span_id, parent_id, request_id, thread) and
// returns the number written; spans beyond the in-memory cap are counted in
// Dropped() instead.
size_t WriteSpans(const std::string& path);
size_t Dropped();

}  // namespace tracing

// NetOps wrapper: counts client socket calls, records a span per call while
// tracing, and remembers the fd each thread last connected so an open-loop
// sender can wait for responses with poll(2) while it keeps its schedule.
class CountingNetOps : public ss::net::NetOps {
 public:
  int Connect(int fd, const struct sockaddr* addr, unsigned int addrlen) override;
  long Send(int fd, const void* buf, size_t len) override;
  long Recv(int fd, void* buf, size_t len) override;
  int PollOne(int fd, short events, int timeout_ms) override;
  int Close(int fd) override;

  uint64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  // The fd of the calling thread's most recent successful Connect.
  static int ThreadConnectedFd();

 private:
  std::atomic<uint64_t> calls_{0};
};

// Totals of the storage layer's file I/O, read by snapshot difference.
struct FileIoTotals {
  uint64_t writes = 0;
  uint64_t write_bytes = 0;
  uint64_t preads = 0;
  uint64_t pread_bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t other_calls = 0;
  uint64_t busy_ns = 0;  // time inside any wrapped call, summed over threads

  FileIoTotals Minus(const FileIoTotals& earlier) const;
};

// FileOps wrapper: times every storage file call. Fsync and pread durations
// are also kept as samples (for percentiles), stamped with their end time
// so a phase can select its own.
class TimingFileOps : public ss::FileOps {
 public:
  int Open(const std::string& path, int flags, int mode) override;
  ssize_t Write(int fd, const void* buf, size_t n) override;
  ssize_t Pread(int fd, void* buf, size_t n, uint64_t offset) override;
  int Fsync(int fd) override;
  int Close(int fd) override;
  int Rename(const std::string& from, const std::string& to) override;
  int Unlink(const std::string& path) override;
  int Mkdir(const std::string& path, int mode) override;
  int FsyncDir(const std::string& path) override;

  FileIoTotals Totals() const;
  // Durations in microseconds of the calls that ended in [from_ns, to_ns).
  std::vector<double> FsyncSamplesUs(uint64_t from_ns, uint64_t to_ns) const;
  std::vector<double> PreadSamplesUs(uint64_t from_ns, uint64_t to_ns) const;

 private:
  struct Sample {
    uint64_t end_ns;
    double us;
  };
  void Account(uint64_t start_ns, std::atomic<uint64_t>& calls);
  void Keep(std::vector<Sample>& samples, uint64_t start_ns);
  std::vector<double> Select(const std::vector<Sample>& samples, uint64_t from_ns,
                             uint64_t to_ns) const;

  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> write_bytes_{0};
  std::atomic<uint64_t> preads_{0};
  std::atomic<uint64_t> pread_bytes_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> other_{0};
  std::atomic<uint64_t> busy_ns_{0};

  mutable std::mutex samples_mu_;
  std::vector<Sample> fsync_samples_;  // guarded by samples_mu_
  std::vector<Sample> pread_samples_;  // guarded by samples_mu_
};

}  // namespace ssbench

#endif  // SSBENCH_HARNESS_TRACING_H_
