// Flight recorder (`ss_obs` v2): a low-overhead, always-on structured event
// journal. Every thread that records gets a fixed-size ring of typed binary
// events (32 bytes each: nanosecond timestamp, thread id, event type, two
// type-dependent arguments); writers touch only their own ring, so recording
// is one clock read plus four relaxed atomic stores. Readers drain rings
// lock-free with relaxed loads — a snapshot taken mid-write may observe one
// torn event at the wrap frontier, which is the classic flight-recorder
// trade: the journal never slows the plane down.
//
// On store poison, fatal status, or a fatal signal, Dump() writes the last-N
// events plus a full MetricRegistry snapshot and caller-supplied store state
// to `<dir>/flight-<wall-us>.bin` (SS_FLIGHT_DIR overrides <dir> so CI can
// collect bundles from any test). `sstool flight <bundle|dir>` decodes the
// bundle into a human-readable timeline via ReadFlightBundle/RenderFlightTimeline.
#ifndef SUMMARYSTORE_SRC_OBS_FLIGHT_RECORDER_H_
#define SUMMARYSTORE_SRC_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/status.h"

namespace ss {

enum class FlightEventType : uint16_t {
  kAppend = 1,           // arg0 = stream id, arg1 = events (sampled 1-in-64)
  kAppendBatch = 2,      // arg0 = stream id, arg1 = batch events
  kGroupCommitLead = 3,  // arg0 = group size (writers), arg1 = records logged
  kGroupCommitFollow = 4,  // arg0 = wait-as-follower us
  kWalAppend = 5,        // arg0 = records appended this group
  kWalFsync = 6,         // arg0 = fsync us, arg1 = 0 ok / 1 failed
  kWalRotate = 7,
  kMemtableApply = 8,    // arg0 = records applied
  kMemtableFlush = 9,    // arg0 = memtable entries, arg1 = new sst file id
  kCompaction = 10,      // arg0 = input tables, arg1 = new sst file id
  kBlockCacheMiss = 11,  // arg0 = sst file id, arg1 = block index
  kScrubCycle = 12,      // arg0 = windows checked, arg1 = errors
  kScrubRepair = 13,     // arg0 = stream id, arg1 = windows repaired/absorbed
  kWindowQuarantine = 14,  // arg0 = stream id, arg1 = window cs
  kDegradedQuery = 15,   // arg0 = query op enum, arg1 = skipped spans
  kStorePoison = 16,     // arg0 = 0 commit / 1 rotate / 2 pre-flush sync
  kFaultInjected = 17,   // arg0 = FaultOp enum, arg1 = op index
  kFlushChunk = 18,      // arg0 = stream id, arg1 = records in chunk
  kDump = 19,            // arg0 = events captured in the bundle
  // 20-22 are retired: bundles written by older builds may still hold them.
  kNetFaultInjected = 23,   // arg0 = fd, arg1 = NetFaultKind enum (fault_net.h)
  kNetRetry = 24,           // arg0 = opcode, arg1 = attempt number
  kNetReconnect = 25,       // arg0 = reconnect count, arg1 = replayed ingest frames
  kNetDeadlineExceeded = 26,  // arg0 = opcode, arg1 = deadline_ms
  kNetDupSuppressed = 27,   // arg0 = session id, arg1 = seq
  kNetSlowPeerDisconnect = 28,  // arg0 = fd, arg1 = buffered bytes at disconnect
};

const char* FlightEventTypeName(FlightEventType type);

// Decoded event (the in-ring layout packs tid+type into one word).
struct FlightEvent {
  uint64_t ts_nanos = 0;  // steady-clock nanoseconds (monotonic, process-local)
  uint32_t tid = 0;
  uint16_t type = 0;
  uint64_t arg0 = 0;
  uint64_t arg1 = 0;
};

class FlightRecorder {
 public:
  static constexpr size_t kRingEvents = 4096;  // per thread, power of two

  static FlightRecorder& Default();

  // Hot path: one steady-clock read + four relaxed stores into the calling
  // thread's ring. Safe from any thread; allocates the ring on first use.
  void Record(FlightEventType type, uint64_t arg0 = 0, uint64_t arg1 = 0);

  // Global kill switch (the recorder-on-vs-off overhead benchmark, and any
  // deployment that wants the last nanosecond back). Default: enabled.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Merged snapshot of every thread's ring, ascending timestamp. max_events
  // keeps only the newest N (0 = everything retained).
  std::vector<FlightEvent> Snapshot(size_t max_events = 0) const;

  // Writes a bundle `<dir>/flight-<wall-us>.bin` — last events + a full
  // MetricRegistry snapshot + `store_state` (free-form "key=value" lines from
  // the caller: stream counts, WAL/manifest file ids, quarantine list...).
  // The SS_FLIGHT_DIR environment variable overrides `dir` when set. Writes
  // with raw POSIX io, deliberately below the FileOps test seam, so a dump
  // triggered by an injected fault cannot itself be failed by the injector.
  StatusOr<std::string> Dump(const std::string& dir, const std::string& reason,
                             const std::string& store_state);

  // Installs SIGSEGV/SIGBUS/SIGABRT handlers that best-effort Dump() to
  // SS_FLIGHT_DIR (or ".") and re-raise. Not strictly async-signal-safe (the
  // metrics snapshot allocates); a second fault inside the handler just
  // falls through to the default disposition.
  void InstallCrashHandler();

  // Zeroes every ring (benchmarks and tests isolate runs).
  void ResetForTest();

  struct Ring;  // opaque; defined in flight_recorder.cc

 private:
  FlightRecorder() = default;
  Ring* ThreadRing();

  std::atomic<bool> enabled_{true};
  mutable std::mutex rings_mu_;
  std::vector<std::shared_ptr<Ring>> rings_;  // never shrinks; exited threads' rings are reused
};

// Decoded dump bundle.
struct FlightBundle {
  uint64_t wall_anchor_micros = 0;  // wall clock at dump time
  uint64_t mono_anchor_nanos = 0;   // steady clock at dump time (event domain)
  std::string reason;
  std::string store_state;
  std::string metrics_json;
  std::vector<FlightEvent> events;  // ascending timestamp
};

StatusOr<FlightBundle> ReadFlightBundle(const std::string& path);

// Human-readable timeline: one line per event, offsets relative to the first
// event. since_micros > 0 keeps only events at or after that offset.
std::string RenderFlightTimeline(const FlightBundle& bundle, double since_micros = 0.0);

}  // namespace ss

#endif  // SUMMARYSTORE_SRC_OBS_FLIGHT_RECORDER_H_
