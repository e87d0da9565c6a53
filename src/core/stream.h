// Stream: one time series inside a SummaryStore — the owner of its decayed
// summary windows, landmark windows, stream-level statistics, and the
// window-merge ingest machinery (Algorithm 1 of the paper).
//
// Ingest path: every non-landmark append creates a fresh single-element
// window and registers a merge candidate for the (previous tail, new tail)
// pair in a min-heap ordered by "earliest stream length N at which the pair
// fits inside one decay target bucket". Candidates are validated lazily
// (windows may have merged away) and recomputed on pop — this is the
// "efficient heap used by the merge procedure to identify candidate window
// merges" from §6. Amortized cost is O(log W) per append.
#ifndef SUMMARYSTORE_SRC_CORE_STREAM_H_
#define SUMMARYSTORE_SRC_CORE_STREAM_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <set>
#include <shared_mutex>
#include <span>
#include <vector>

#include "src/core/decay.h"
#include "src/core/keys.h"
#include "src/core/window.h"
#include "src/obs/trace.h"
#include "src/stats/welford.h"
#include "src/storage/kv_backend.h"

namespace ss {

// Arrival-process model assumed by the error estimators (§5.2 / Table 6):
// kPoisson enables the tighter Binomial bounds; kGeneric uses the
// renewal-theoretic normal approximation valid for any i.i.d. interarrivals.
enum class ArrivalModel : uint8_t { kGeneric = 0, kPoisson = 1 };

// Dimension in which decay target-window lengths (and element ages) are
// measured. kCountBased matches the reference implementation: D[k] counts
// elements, so storage follows Table 4 exactly regardless of arrival gaps.
// kTimeBased follows the paper's prose ("windows span progressively-longer
// time lengths", §3.2): D[k] is a time span, so wall-clock-uniform queries
// see uniform per-bucket resolution even under bursty arrivals.
enum class WindowingMode : uint8_t { kCountBased = 0, kTimeBased = 1 };

struct StreamConfig {
  std::shared_ptr<const DecayFunction> decay;
  OperatorSet operators;
  ArrivalModel arrival_model = ArrivalModel::kGeneric;
  WindowingMode windowing = WindowingMode::kCountBased;
  // Windows at most this many elements keep raw events (exact answers);
  // larger windows materialize into the operator set.
  uint64_t raw_threshold = 64;
  uint64_t seed = 1;
  // Memory budget for clean (persisted, reloadable) window payloads kept
  // resident after queries; 0 = unlimited (everything stays in memory, the
  // ingest-heavy default). Long-lived query servers set a budget so cold
  // queries don't accrete the whole store into RAM.
  uint64_t window_cache_bytes = 0;
  // Bounded out-of-order tolerance: appends are staged in a min-heap of this
  // capacity and released in timestamp order, so events may arrive up to
  // `reorder_buffer` positions early/late. 0 (default) = appends must be
  // monotone. Staged events are not yet queryable; Flush() drains them.
  uint64_t reorder_buffer = 0;

  void Serialize(Writer& writer) const;
  static StatusOr<StreamConfig> Deserialize(Reader& reader);
};

// The four per-stream scalars of §5.2: mean/stddev of interarrival times and
// of values, tracked online over the whole stream.
struct StreamStats {
  WelfordAccumulator interarrival;
  WelfordAccumulator values;

  double MeanInterarrival() const { return interarrival.Mean(); }
  double StdDevInterarrival() const { return interarrival.StdDev(); }
  double MeanValue() const { return values.Mean(); }
  double StdDevValue() const { return values.StdDev(); }
};

// Tally of one scrub pass (Stream::Scrub / SummaryStore::Scrub): how much was
// verified, what failed, and what the repair pass did about it.
struct ScrubReport {
  uint64_t windows_checked = 0;
  uint64_t landmarks_checked = 0;
  uint64_t errors = 0;       // KV copies that failed envelope/decode/identity
  uint64_t quarantined = 0;  // newly quarantined (no in-memory copy to repair)
  uint64_t repaired = 0;     // re-flushed from memory or merged into a neighbor
  uint64_t healed = 0;       // previously quarantined windows that verify again
};

class Stream {
 public:
  // Index entry + (possibly evicted) payload for one summary window.
  struct WindowSlot {
    uint64_t ce = 0;
    Timestamp ts_start = 0;
    Timestamp ts_last = 0;
    size_t size_bytes = 0;  // last known logical size (valid when evicted)
    bool dirty = false;
    bool persisted = false;  // a KV entry exists; merging it away needs a delete
    // The persisted payload failed its checksum/decode and there is no clean
    // in-memory copy: the slot keeps its index entry (so covers still tile
    // stream time) but window stays null and queries treat the span as
    // fully uncertain. Cleared when scrub re-verifies or repairs it.
    bool quarantined = false;
    uint64_t last_access = 0;  // LRU stamp for the window-cache budget
    std::shared_ptr<SummaryWindow> window;  // null when evicted to the KV store
  };

  Stream(StreamId id, StreamConfig config, KvBackend* kv);

  // Rebuilds a stream (meta, window index, landmarks) from the KV store.
  static StatusOr<std::unique_ptr<Stream>> Load(StreamId id, KvBackend* kv);

  // --- ingest -----------------------------------------------------------
  Status Append(Timestamp ts, double value);
  // Ingests `events` with the same ordering rules — and byte-identical
  // final window state — as repeated Append. Merges deliberately drain per
  // event, not per batch: ComputeMergeAt picks a decay bucket from the
  // *current* stream position, so deferring the drain ages candidates into
  // deeper buckets and changes the final window partition (covered by
  // reorder_buffer_test BatchedAppendsMatchSingleAppends). The batch win is
  // upstream: one registry lookup + one stream lock per span at the
  // SummaryStore layer, and one group commit per Flush at the KV layer. On
  // error the prefix before the failing event is ingested (same as a failed
  // Append mid-loop).
  Status AppendBatch(std::span<const Event> events);
  Status BeginLandmark(Timestamp ts);
  Status EndLandmark(Timestamp ts);
  bool in_landmark() const { return in_landmark_; }
  // Events staged in the reorder buffer, not yet ingested/queryable.
  size_t reorder_buffered() const { return reorder_.size(); }
  // Ingests everything still staged in the reorder buffer (also runs on
  // Flush). After draining, the watermark advances to the newest staged ts.
  Status DrainReorderBuffer();

  // Persists dirty windows, landmarks and metadata to the KV store, as write
  // batches through the backend's group commit. Cost follows what changed
  // since the last Flush (the dirty-window list), not the window count. The
  // records are logged but not yet synced: durability comes from the
  // backend's Flush barrier (SummaryStore::Flush issues both).
  Status Flush();
  // Flush + drop all in-memory window payloads (queries reload on demand).
  Status EvictAllWindows();
  // Drops clean payloads only (cold-cache experiments).
  void DropCleanWindowPayloads();
  // Removes every persisted key for this stream (DeleteStream).
  Status Erase();

  // Verifies every persisted window/landmark KV copy against its checksum
  // envelope and decoder (forcing real backend reads), quarantines windows
  // whose only copy is corrupt, un-quarantines windows that verify again,
  // and — with `repair` — re-flushes corrupt-on-disk windows still resident
  // in memory and merges unrepairable quarantined windows into their left
  // neighbor as an explicit lost-element span. Requires exclusive ownership
  // of mutex(). Tallies into `report` (never null).
  Status Scrub(bool repair, ScrubReport* report);

  // --- concurrency --------------------------------------------------------
  // Stream-level reader/writer lock, acquired by SummaryStore (lock order:
  // registry -> stream -> window cache -> backend). Mutating calls (Append,
  // landmarks, Flush, Evict*, Erase) require exclusive ownership; the query
  // surface (WindowsOverlapping, Landmarks*, SizeBytes, getters) is safe
  // under shared ownership — the window payload cache, the only state the
  // read path mutates, is internally guarded by cache_mu_. Code that drives
  // a Stream directly (tools, benches, single-threaded tests) may skip
  // locking entirely.
  std::shared_mutex& mutex() const { return mu_; }

  // Whether this stream sits in its SummaryStore's dirty-stream list (the
  // streams the next SummaryStore::Flush visits). Owned by the store; read
  // and written only under exclusive ownership of mutex().
  bool commit_listed() const { return commit_listed_; }
  void set_commit_listed(bool listed) { commit_listed_ = listed; }

  // --- introspection ------------------------------------------------------
  StreamId id() const { return id_; }
  const StreamConfig& config() const { return config_; }
  const StreamStats& stats() const { return stats_; }
  uint64_t element_count() const { return n_; }           // summarized elements
  uint64_t landmark_element_count() const { return landmark_elements_; }
  size_t window_count() const { return windows_.size(); }
  size_t landmark_window_count() const { return landmarks_.size(); }
  Timestamp start_time() const { return first_ts_; }
  Timestamp watermark() const { return last_ts_; }
  uint64_t merge_count() const { return merges_; }
  // Observed [min, max] over every ingested value (landmarks included), or
  // nullopt for an empty or legacy-loaded stream. Degraded queries use these
  // as worst-case bounds for corruption-lost elements.
  std::optional<std::pair<double, double>> value_bounds() const {
    if (!has_value_bounds_) {
      return std::nullopt;
    }
    return std::make_pair(value_min_, value_max_);
  }
  // Non-OK when Load skipped a landmark window whose persisted copy was
  // corrupt. Landmarks are lossless by contract, so queries over them must
  // fail hard rather than degrade.
  const Status& landmark_status() const { return landmark_status_; }
  // Windows currently quarantined (persisted copy corrupt, no clean copy).
  size_t quarantined_window_count() const;
  // Logical decayed size: Σ window SizeBytes + landmark bytes (the "s" in
  // the paper's compaction factor S/s, measured pre-serialization like §7).
  uint64_t SizeBytes() const;
  // Bytes of window payloads currently resident in memory (cache telemetry).
  uint64_t ResidentWindowBytes() const;

  // --- query support (used by the query engine) ---------------------------
  // Windows whose covered time span intersects [t1, t2], oldest first; loads
  // evicted payloads from the KV store. Each entry carries the *cover* span:
  // cover_start = window ts_start, cover_end = next window's ts_start (or
  // watermark+1 for the tail) so that windows tile stream time contiguously.
  struct WindowView {
    std::shared_ptr<SummaryWindow> window;  // null iff the span is quarantined
    Timestamp cover_start;
    Timestamp cover_end;  // exclusive
    // Elements in this cover whose data is unavailable (quarantined window).
    // 0 for a healthy view; when non-zero, window is null and the query
    // layer must fold the span into the answer's uncertainty.
    uint64_t missing_count = 0;
  };
  // `trace`, when non-null, accumulates window-scan and payload-load
  // accounting (explain mode).
  StatusOr<std::vector<WindowView>> WindowsOverlapping(Timestamp t1, Timestamp t2,
                                                       QueryTrace* trace = nullptr);

  // Landmark windows intersecting [t1, t2].
  std::vector<const LandmarkWindow*> LandmarksOverlapping(Timestamp t1, Timestamp t2) const;

  // Raw-event enumeration over landmarks (the Ql query of Table 3).
  std::vector<Event> QueryLandmarks(Timestamp t1, Timestamp t2) const;

 private:
  struct MergeCandidate {
    uint64_t merge_at;  // earliest N at which the pair fits one target bucket
    uint64_t left_cs;
    uint64_t right_cs;
    bool operator>(const MergeCandidate& other) const { return merge_at > other.merge_at; }
  };

  // Shared body of Append/AppendBatch: reorder-buffer staging, then ordered
  // ingest (merge drain included — see the AppendBatch contract above).
  Status AppendOne(Timestamp ts, double value);
  // The monotone ingest path Append delegates to (after reorder staging).
  Status AppendOrdered(Timestamp ts, double value);
  // Current position along the decay axis: element count (count-based) or
  // watermark timestamp (time-based).
  uint64_t Position() const;
  // A window's start/end coordinates along the decay axis.
  uint64_t StartPos(const WindowSlot& slot, uint64_t cs) const;
  uint64_t EndPos(const WindowSlot& slot) const;
  std::optional<uint64_t> ComputeMergeAt(uint64_t left_start, uint64_t right_end) const;
  void PushCandidate(uint64_t left_cs);  // candidate for (left, successor(left))
  // Sets slot.dirty; on a clean->dirty transition of a window older than
  // the last flush, lists `cs` in dirty_windows_.
  void MarkDirty(uint64_t cs, WindowSlot& slot);
  Status DrainMerges();
  Status MergePair(uint64_t left_cs, uint64_t right_cs);
  StatusOr<std::shared_ptr<SummaryWindow>> LoadWindow(uint64_t cs, WindowSlot& slot,
                                                      QueryTrace* trace = nullptr);
  // Loads every evicted window with cs in [cs_first, cs_last] through one
  // backend range scan — decoding each storage block once instead of once
  // per window (large range queries touch thousands of adjacent windows).
  Status BulkLoadWindows(uint64_t cs_first, uint64_t cs_last, QueryTrace* trace = nullptr);
  // Drops least-recently-used clean payloads until resident clean bytes fit
  // the configured window_cache_bytes budget. No-op when the budget is 0.
  void EnforceWindowCacheBudget();
  void SerializeMeta(Writer& writer) const;
  // Fetches the persisted copy of window `cs` and fully verifies it:
  // envelope CRC, deserialization, and identity (decoded cs == key cs).
  Status VerifyWindowKv(uint64_t cs) const;

  StreamId id_;
  StreamConfig config_;
  KvBackend* kv_;
  DecaySequence seq_;

  // See mutex() above. cache_mu_ serializes the query path's only mutations
  // — window payload loads/evictions and LRU stamps — so concurrent queries
  // holding mu_ shared stay race-free; the expensive aggregation over the
  // returned WindowViews still runs fully in parallel.
  mutable std::shared_mutex mu_;
  mutable std::mutex cache_mu_;

  uint64_t n_ = 0;  // summarized (non-landmark) elements ingested
  uint64_t landmark_elements_ = 0;
  Timestamp first_ts_ = kMaxTimestamp;
  Timestamp last_ts_ = kMinTimestamp;
  StreamStats stats_;
  // Observed value extremes (see value_bounds()); persisted as trailing
  // optional meta fields, so streams written before the corruption-defense
  // release load with has_value_bounds_ == false.
  double value_min_ = 0;
  double value_max_ = 0;
  bool has_value_bounds_ = false;
  Status landmark_status_ = Status::Ok();  // see landmark_status()
  bool in_landmark_ = false;
  uint64_t next_landmark_id_ = 0;
  uint64_t merges_ = 0;

  std::map<uint64_t, WindowSlot> windows_;  // keyed by cs
  // Time index for query routing: (ts_start, cs) pairs, one per live window.
  // cs disambiguates windows sharing a start timestamp.
  std::set<std::pair<Timestamp, uint64_t>> ts_index_;
  std::vector<LandmarkWindow> landmarks_;   // ordered by ts_start
  size_t first_dirty_landmark_ = 0;
  std::priority_queue<MergeCandidate, std::vector<MergeCandidate>, std::greater<>> heap_;
  std::vector<uint64_t> pending_deletes_;  // cs of merged-away windows
  // What Flush must visit, so it never scans every window: each window with
  // cs > flushed_n_ (created since the last successful Flush, so never
  // persisted), plus dirty_windows_, the older windows marked dirty since
  // then (merge targets, scrub repairs). Entries go stale when a window
  // merges away or is quarantined (slot gone, or no longer dirty); Flush
  // skips them. At most one entry per window that existed at the last
  // Flush, since a clean->dirty transition lists a window once.
  uint64_t flushed_n_ = 0;
  std::vector<uint64_t> dirty_windows_;
  bool meta_dirty_ = true;
  bool commit_listed_ = false;  // see commit_listed()
  uint64_t access_clock_ = 0;  // monotone stamp source for slot.last_access
  // Min-heap (by timestamp) staging out-of-order arrivals; see
  // StreamConfig::reorder_buffer.
  std::priority_queue<std::pair<Timestamp, double>, std::vector<std::pair<Timestamp, double>>,
                      std::greater<>>
      reorder_;
};

}  // namespace ss

#endif  // SUMMARYSTORE_SRC_CORE_STREAM_H_
