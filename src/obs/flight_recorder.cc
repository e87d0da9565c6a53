#include "src/obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <thread>

#include "src/common/serde.h"
#include "src/obs/metrics.h"

#if defined(__linux__)
#include <sys/syscall.h>
#endif

namespace ss {

namespace {

constexpr uint32_t kBundleMagic = 0x42465353;  // "SSFB" little-endian
constexpr uint8_t kBundleVersion = 1;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t WallMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

uint32_t CurrentTid() {
#if defined(__linux__)
  return static_cast<uint32_t>(::syscall(SYS_gettid));
#else
  return static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()));
#endif
}

}  // namespace

const char* FlightEventTypeName(FlightEventType type) {
  switch (type) {
    case FlightEventType::kAppend:
      return "append";
    case FlightEventType::kAppendBatch:
      return "append_batch";
    case FlightEventType::kGroupCommitLead:
      return "group_commit_lead";
    case FlightEventType::kGroupCommitFollow:
      return "group_commit_follow";
    case FlightEventType::kWalAppend:
      return "wal_append";
    case FlightEventType::kWalFsync:
      return "wal_fsync";
    case FlightEventType::kWalRotate:
      return "wal_rotate";
    case FlightEventType::kMemtableApply:
      return "memtable_apply";
    case FlightEventType::kMemtableFlush:
      return "memtable_flush";
    case FlightEventType::kCompaction:
      return "compaction";
    case FlightEventType::kBlockCacheMiss:
      return "block_cache_miss";
    case FlightEventType::kScrubCycle:
      return "scrub_cycle";
    case FlightEventType::kScrubRepair:
      return "scrub_repair";
    case FlightEventType::kWindowQuarantine:
      return "window_quarantine";
    case FlightEventType::kDegradedQuery:
      return "degraded_query";
    case FlightEventType::kStorePoison:
      return "store_poison";
    case FlightEventType::kFaultInjected:
      return "fault_injected";
    case FlightEventType::kFlushChunk:
      return "flush_chunk";
    case FlightEventType::kDump:
      return "dump";
    case FlightEventType::kNetFaultInjected:
      return "net_fault_injected";
    case FlightEventType::kNetRetry:
      return "net_retry";
    case FlightEventType::kNetReconnect:
      return "net_reconnect";
    case FlightEventType::kNetDeadlineExceeded:
      return "net_deadline_exceeded";
    case FlightEventType::kNetDupSuppressed:
      return "net_dup_suppressed";
    case FlightEventType::kNetSlowPeerDisconnect:
      return "net_slow_peer_disconnect";
  }
  return "unknown";
}

// One thread's journal. Only the owning thread stores into slots; drains read
// them with relaxed loads, so the only (deliberate) imprecision is a torn
// event at the wrap frontier of a ring being written concurrently.
struct FlightRecorder::Ring {
  struct Slot {
    std::atomic<uint64_t> ts_nanos{0};
    std::atomic<uint64_t> tid_type{0};  // tid << 16 | type
    std::atomic<uint64_t> arg0{0};
    std::atomic<uint64_t> arg1{0};
  };

  void Write(uint64_t ts, uint32_t tid, FlightEventType type, uint64_t a0, uint64_t a1) {
    uint64_t h = head.load(std::memory_order_relaxed);
    Slot& slot = slots[h & (kRingEvents - 1)];
    slot.ts_nanos.store(ts, std::memory_order_relaxed);
    slot.tid_type.store((static_cast<uint64_t>(tid) << 16) |
                            static_cast<uint64_t>(type),
                        std::memory_order_relaxed);
    slot.arg0.store(a0, std::memory_order_relaxed);
    slot.arg1.store(a1, std::memory_order_relaxed);
    head.store(h + 1, std::memory_order_release);
  }

  Slot slots[kRingEvents];
  std::atomic<uint64_t> head{0};
  std::atomic<bool> in_use{false};
};

namespace {

// Parks the thread's ring back on the recorder's free list at thread exit so
// long-lived processes with thread churn reuse rings instead of growing.
struct RingLease {
  FlightRecorder::Ring* ring = nullptr;
  ~RingLease() {
    if (ring != nullptr) {
      ring->in_use.store(false, std::memory_order_release);
    }
  }
};

thread_local RingLease tls_lease;

}  // namespace

FlightRecorder& FlightRecorder::Default() {
  static FlightRecorder* recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::Ring* FlightRecorder::ThreadRing() {
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (size_t i = 0; i < rings_.size(); ++i) {
    if (!rings_[i]->in_use.load(std::memory_order_acquire)) {
      rings_[i]->in_use.store(true, std::memory_order_relaxed);
      return rings_[i].get();
    }
  }
  rings_.push_back(std::make_shared<Ring>());
  rings_.back()->in_use.store(true, std::memory_order_relaxed);
  return rings_.back().get();
}

void FlightRecorder::Record(FlightEventType type, uint64_t arg0, uint64_t arg1) {
  if (!enabled_.load(std::memory_order_relaxed)) {
    return;
  }
  if (tls_lease.ring == nullptr) {
    tls_lease.ring = ThreadRing();
  }
  static thread_local uint32_t tid = CurrentTid();
  tls_lease.ring->Write(NowNanos(), tid, type, arg0, arg1);
}

std::vector<FlightEvent> FlightRecorder::Snapshot(size_t max_events) const {
  std::vector<FlightEvent> events;
  {
    std::lock_guard<std::mutex> lock(rings_mu_);
    for (const auto& ring : rings_) {
      uint64_t head = ring->head.load(std::memory_order_acquire);
      uint64_t n = std::min<uint64_t>(head, kRingEvents);
      for (uint64_t i = head - n; i < head; ++i) {
        const Ring::Slot& slot = ring->slots[i & (kRingEvents - 1)];
        FlightEvent event;
        event.ts_nanos = slot.ts_nanos.load(std::memory_order_relaxed);
        uint64_t tt = slot.tid_type.load(std::memory_order_relaxed);
        event.tid = static_cast<uint32_t>(tt >> 16);
        event.type = static_cast<uint16_t>(tt & 0xFFFF);
        event.arg0 = slot.arg0.load(std::memory_order_relaxed);
        event.arg1 = slot.arg1.load(std::memory_order_relaxed);
        if (event.ts_nanos != 0) {
          events.push_back(event);
        }
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const FlightEvent& a, const FlightEvent& b) { return a.ts_nanos < b.ts_nanos; });
  if (max_events != 0 && events.size() > max_events) {
    events.erase(events.begin(), events.end() - static_cast<ptrdiff_t>(max_events));
  }
  return events;
}

void FlightRecorder::ResetForTest() {
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (auto& ring : rings_) {
    for (auto& slot : ring->slots) {
      slot.ts_nanos.store(0, std::memory_order_relaxed);
      slot.tid_type.store(0, std::memory_order_relaxed);
      slot.arg0.store(0, std::memory_order_relaxed);
      slot.arg1.store(0, std::memory_order_relaxed);
    }
    ring->head.store(0, std::memory_order_relaxed);
  }
}

StatusOr<std::string> FlightRecorder::Dump(const std::string& dir, const std::string& reason,
                                           const std::string& store_state) {
  static Counter& dumps = MetricRegistry::Default().GetCounter("ss_obs_flight_dump_total");
  std::string target = dir;
  if (const char* env = std::getenv("SS_FLIGHT_DIR"); env != nullptr && env[0] != '\0') {
    target = env;
  }
  // Raw POSIX below the FileOps seam: a dump triggered by an injected fault
  // must not be eaten by the same injector, and the crash path must not
  // re-enter the storage layer that just failed.
  if (::mkdir(target.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("flight dump: mkdir " + target);
  }
  Record(FlightEventType::kDump, 0, 0);
  std::vector<FlightEvent> events = Snapshot();
  dumps.Inc();

  Writer writer;
  writer.PutFixed32(kBundleMagic);
  writer.PutU8(kBundleVersion);
  writer.PutFixed64(WallMicros());
  writer.PutFixed64(NowNanos());
  writer.PutString(reason);
  writer.PutString(store_state);
  writer.PutString(MetricRegistry::Default().RenderJson());
  writer.PutVarint(events.size());
  for (const FlightEvent& event : events) {
    writer.PutVarint(event.ts_nanos);
    writer.PutVarint(event.tid);
    writer.PutVarint(event.type);
    writer.PutVarint(event.arg0);
    writer.PutVarint(event.arg1);
  }

  char name[64];
  std::snprintf(name, sizeof(name), "/flight-%" PRIu64 ".bin", WallMicros());
  std::string path = target + name;
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("flight dump: open " + path);
  }
  const std::string& data = writer.data();
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n <= 0) {
      ::close(fd);
      return Status::IoError("flight dump: write " + path);
    }
    off += static_cast<size_t>(n);
  }
  ::fsync(fd);
  ::close(fd);
  return path;
}

namespace {

void CrashDumpHandler(int signo) {
  // Restore the default disposition first: if the dump itself faults, the
  // process dies the normal way instead of recursing.
  ::signal(signo, SIG_DFL);
  const char* dir = std::getenv("SS_FLIGHT_DIR");
  (void)FlightRecorder::Default().Dump(dir != nullptr && dir[0] != '\0' ? dir : ".",
                                       std::string("fatal signal ") + std::to_string(signo),
                                       "");
  ::raise(signo);
}

}  // namespace

void FlightRecorder::InstallCrashHandler() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = CrashDumpHandler;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGSEGV, &action, nullptr);
  ::sigaction(SIGBUS, &action, nullptr);
  ::sigaction(SIGABRT, &action, nullptr);
}

StatusOr<FlightBundle> ReadFlightBundle(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("flight bundle: open " + path);
  }
  std::string contents;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      ::close(fd);
      return Status::IoError("flight bundle: read " + path);
    }
    if (n == 0) {
      break;
    }
    contents.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  Reader reader(contents);
  SS_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadFixed32());
  if (magic != kBundleMagic) {
    return Status::Corruption("flight bundle: bad magic in " + path);
  }
  SS_ASSIGN_OR_RETURN(uint8_t version, reader.ReadU8());
  if (version > kBundleVersion) {
    return Status::Corruption("flight bundle: unsupported version " + std::to_string(version));
  }
  FlightBundle bundle;
  SS_ASSIGN_OR_RETURN(bundle.wall_anchor_micros, reader.ReadFixed64());
  SS_ASSIGN_OR_RETURN(bundle.mono_anchor_nanos, reader.ReadFixed64());
  SS_ASSIGN_OR_RETURN(std::string_view reason, reader.ReadString());
  bundle.reason = std::string(reason);
  SS_ASSIGN_OR_RETURN(std::string_view state, reader.ReadString());
  bundle.store_state = std::string(state);
  SS_ASSIGN_OR_RETURN(std::string_view metrics, reader.ReadString());
  bundle.metrics_json = std::string(metrics);
  SS_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
  bundle.events.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    FlightEvent event;
    SS_ASSIGN_OR_RETURN(event.ts_nanos, reader.ReadVarint());
    SS_ASSIGN_OR_RETURN(uint64_t tid, reader.ReadVarint());
    event.tid = static_cast<uint32_t>(tid);
    SS_ASSIGN_OR_RETURN(uint64_t type, reader.ReadVarint());
    event.type = static_cast<uint16_t>(type);
    SS_ASSIGN_OR_RETURN(event.arg0, reader.ReadVarint());
    SS_ASSIGN_OR_RETURN(event.arg1, reader.ReadVarint());
    bundle.events.push_back(event);
  }
  return bundle;
}

std::string RenderFlightTimeline(const FlightBundle& bundle, double since_micros) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line),
                "flight bundle: reason=\"%s\" wall_anchor_us=%" PRIu64 " events=%zu\n",
                bundle.reason.c_str(), bundle.wall_anchor_micros, bundle.events.size());
  out += line;
  if (!bundle.store_state.empty()) {
    out += "store state:\n";
    // Indent each state line for readability.
    size_t start = 0;
    while (start < bundle.store_state.size()) {
      size_t end = bundle.store_state.find('\n', start);
      if (end == std::string::npos) {
        end = bundle.store_state.size();
      }
      out += "  " + bundle.store_state.substr(start, end - start) + "\n";
      start = end + 1;
    }
  }
  out += "timeline:\n";
  uint64_t t0 = bundle.events.empty() ? 0 : bundle.events.front().ts_nanos;
  size_t shown = 0;
  for (const FlightEvent& event : bundle.events) {
    double rel_us = static_cast<double>(event.ts_nanos - t0) / 1000.0;
    if (rel_us < since_micros) {
      continue;
    }
    std::snprintf(line, sizeof(line),
                  "  +%12.1fus tid=%-7u %-20s arg0=%-12" PRIu64 " arg1=%" PRIu64 "\n", rel_us,
                  event.tid, FlightEventTypeName(static_cast<FlightEventType>(event.type)),
                  event.arg0, event.arg1);
    out += line;
    ++shown;
  }
  if (shown == 0) {
    out += "  (no events)\n";
  }
  return out;
}

}  // namespace ss
