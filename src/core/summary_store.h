// SummaryStore: the public API of the system (Table 3 of the paper).
//
//   CreateStream(decay, [operators])  -> CreateStream(StreamConfig)
//   DeleteStream(stream)              -> DeleteStream(id)
//   Append(stream, [ts], value)       -> Append(id, ts, value)
//   Begin/EndLandmark(stream)         -> Begin/EndLandmark(id, ts)
//   Query(stream, Ts, Te, op, params) -> Query(id, QuerySpec)
//   QueryLandmark(stream, Ts, Te)     -> QueryLandmark(id, t1, t2)
//
// A store owns one KV backend (durable LSM directory, or in-memory) shared
// by all streams.
#ifndef SUMMARYSTORE_SRC_CORE_SUMMARY_STORE_H_
#define SUMMARYSTORE_SRC_CORE_SUMMARY_STORE_H_

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/core/query.h"
#include "src/core/stream.h"
#include "src/storage/lsm_store.h"
#include "src/storage/memory_backend.h"

namespace ss {

struct StoreOptions {
  // Directory for the durable LSM backend; empty selects the in-memory
  // backend (tests, ephemeral analysis).
  std::string dir;
  LsmOptions lsm;
  // Worker threads for QueryAggregate's per-stream fan-out: 0 picks
  // ThreadPool::DefaultThreadCount(), 1 forces the serial in-line path (no
  // pool; benchmark baseline), N > 1 sizes the pool explicitly. The pool is
  // spawned lazily on the first multi-stream QueryAggregate.
  size_t fleet_query_threads = 0;
  // Background scrub cadence in milliseconds; 0 (the default) disables the
  // scrub thread. Each cycle drops caches and re-verifies every persisted
  // window and landmark checksum (see Scrub below).
  uint64_t scrub_interval_ms = 0;
  // Whether background scrub cycles repair what they find (merge quarantined
  // windows into their left neighbors, rewrite corrupt-but-resident windows)
  // or only detect and quarantine.
  bool scrub_repair = true;
};

// Thread-safety: all public methods are safe to call concurrently. A
// shared_mutex guards the stream registry (exclusive for Create/Delete,
// shared elsewhere) and each Stream carries its own reader/writer lock, so
// appends to different streams and queries against any stream — including
// one being appended to from another thread — proceed in parallel. Lock
// order is registry -> stream -> window cache -> backend; see DESIGN.md
// "Threading model". GetStream() hands out a raw Stream* for tools and
// benchmarks: driving it while other threads use the store is on the caller,
// and so is persisting what it changes (Flush only visits streams changed
// through this API).
class SummaryStore {
 public:
  // Opens (or creates) a store and reloads every registered stream's index.
  static StatusOr<std::unique_ptr<SummaryStore>> Open(const StoreOptions& options);

  // Stops and joins the background scrub thread, if one is running.
  ~SummaryStore();

  // --- stream lifecycle --------------------------------------------------
  StatusOr<StreamId> CreateStream(StreamConfig config);
  Status CreateStreamWithId(StreamId id, StreamConfig config);
  Status DeleteStream(StreamId id);
  std::vector<StreamId> ListStreams() const;

  // --- writes (Table 3) ----------------------------------------------------
  Status Append(StreamId id, Timestamp ts, double value);
  // Timestamp-less variant: stamps with the system clock (µs since epoch).
  Status Append(StreamId id, double value);
  // Batched ingest: one registry lookup and one stream-lock acquisition for
  // the whole span (Stream::AppendBatch), amortizing per-event overhead for
  // callers that already buffer arrivals. Window state is identical to
  // appending each event in order (merges drain per event — see
  // Stream::AppendBatch); on error the prefix before the failing event is
  // ingested.
  Status AppendBatch(StreamId id, std::span<const Event> events);
  Status BeginLandmark(StreamId id, Timestamp ts);
  Status EndLandmark(StreamId id, Timestamp ts);

  // --- reads (Table 3) -----------------------------------------------------
  StatusOr<QueryResult> Query(StreamId id, const QuerySpec& spec);
  StatusOr<std::vector<Event>> QueryLandmark(StreamId id, Timestamp t1, Timestamp t2);

  // Fleet query: one additive aggregate (count / sum) or extremum
  // (min / max) over several streams at once. Additive estimates sum and
  // their CI half-widths combine in quadrature (streams are independent);
  // extrema take the min/max of the per-stream answers, with the combined
  // CI spanning every stream whose interval overlaps the winner's (any of
  // them could hold the true extremum). Per-stream queries fan out on the
  // worker pool (StoreOptions::fleet_query_threads) and merge in ascending
  // stream-id order, so the result is deterministic for a given id set
  // regardless of scheduling or the order ids were passed in.
  StatusOr<QueryResult> QueryAggregate(std::span<const StreamId> ids, const QuerySpec& spec);

  // --- maintenance ---------------------------------------------------------
  // Durable commit: every write that returned before Flush was called
  // survives a crash once Flush returns OK. Logs the dirty state of the
  // streams mutated since the last Flush (only those are locked and
  // visited) and then issues the backend's durability barrier — for the LSM
  // backend one synced WAL group commit, never a new table file.
  Status Flush();
  // Flush + evict all in-memory window payloads.
  Status EvictAll();
  // Simulates a cold cache: drops window payloads and backend block caches.
  void DropCaches();
  // Integrity scrub: drops caches, then re-reads and checksum-verifies every
  // persisted window and landmark across all streams. Corrupt windows are
  // quarantined; with repair=true, quarantined windows are merged into their
  // intact left neighbors (element counts survive as lost_count, priced into
  // future CIs) and corrupt-but-resident payloads are rewritten. `report`
  // accumulates across streams and may be null. Landmark corruption is
  // reported (and re-persisted from memory when repair=true and the events
  // are resident) but never dropped. Runs with each stream exclusively
  // locked, one stream at a time; queries on other streams proceed.
  Status Scrub(bool repair, ScrubReport* report);

  // --- introspection -------------------------------------------------------
  StatusOr<Stream*> GetStream(StreamId id);
  // Logical decayed size across streams (the "s" of compaction S/s).
  uint64_t TotalSizeBytes() const;
  KvBackend& backend() { return *kv_; }
  // Health probe: true once the backend is rejecting writes (poisoned WAL).
  bool Poisoned() const { return kv_->Poisoned(); }

 private:
  SummaryStore(std::unique_ptr<KvBackend> kv, size_t fleet_query_threads)
      : kv_(std::move(kv)), fleet_query_threads_(fleet_query_threads) {}

  // Starts the background scrub loop (Open calls this when
  // StoreOptions::scrub_interval_ms > 0).
  void StartScrubThread(uint64_t interval_ms, bool repair);

  // Callers must hold registry_mu_ (shared suffices for Find, exclusive for
  // Create); the returned pointer stays valid only while the lock is held.
  StatusOr<Stream*> FindStreamLocked(StreamId id);
  // Puts `stream` on the dirty-stream list unless it is already there.
  // Caller holds stream->mutex() exclusively (or is the stream's only user).
  void ListDirty(Stream* stream);
  Status CreateStreamWithIdLocked(StreamId id, StreamConfig config);
  Status PersistStreamList();
  // Lazily spawns the fleet-query pool; returns null when configured serial.
  ThreadPool* FleetPool();

  std::unique_ptr<KvBackend> kv_;

  // Guards streams_ and next_stream_id_. Stream lifecycle (create/delete,
  // flush-all, reload) takes it exclusive; per-stream traffic takes it
  // shared and then the stream's own lock, so the registry is never a
  // bottleneck on the append/query hot paths.
  mutable std::shared_mutex registry_mu_;
  std::map<StreamId, std::unique_ptr<Stream>> streams_;
  StreamId next_stream_id_ = 1;

  // Dirty-stream list: ids of streams mutated since a Flush last took them,
  // so a commit costs what changed, not the stream count. Ids may repeat or
  // name deleted streams; Flush skips both. dirty_mu_ is a leaf lock.
  std::mutex dirty_mu_;
  std::vector<StreamId> dirty_streams_;
  // Serializes Flush's stream phase, so a Flush cannot reach the backend
  // barrier while streams that a concurrent Flush took off the list are
  // still unlogged. Taken before registry_mu_.
  std::mutex commit_mu_;

  const size_t fleet_query_threads_;
  std::once_flag pool_once_;
  std::unique_ptr<ThreadPool> fleet_pool_;

  // Background scrub thread: sleeps on scrub_cv_ between cycles so shutdown
  // is prompt regardless of the configured interval.
  std::mutex scrub_mu_;
  std::condition_variable scrub_cv_;
  bool scrub_stop_ = false;
  std::thread scrub_thread_;
};

}  // namespace ss

#endif  // SUMMARYSTORE_SRC_CORE_SUMMARY_STORE_H_
