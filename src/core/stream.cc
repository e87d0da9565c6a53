#include "src/core/stream.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/storage/checksum_envelope.h"

namespace ss {

namespace {

uint64_t SatAdd(uint64_t a, uint64_t b) { return a > UINT64_MAX - b ? UINT64_MAX : a + b; }

void SerializeWelford(Writer& writer, const WelfordAccumulator& acc) {
  writer.PutVarint(static_cast<uint64_t>(acc.count()));
  writer.PutDouble(acc.Mean());
  writer.PutDouble(acc.m2());
}

StatusOr<WelfordAccumulator> DeserializeWelford(Reader& reader) {
  SS_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
  SS_ASSIGN_OR_RETURN(double mean, reader.ReadDouble());
  SS_ASSIGN_OR_RETURN(double m2, reader.ReadDouble());
  return WelfordAccumulator::FromParts(static_cast<int64_t>(count), mean, m2);
}

}  // namespace

// ----------------------------------------------------------------- StreamConfig

void StreamConfig::Serialize(Writer& writer) const {
  decay->Serialize(writer);
  operators.Serialize(writer);
  writer.PutU8(static_cast<uint8_t>(arrival_model));
  writer.PutU8(static_cast<uint8_t>(windowing));
  writer.PutVarint(raw_threshold);
  writer.PutFixed64(seed);
  writer.PutVarint(window_cache_bytes);
  writer.PutVarint(reorder_buffer);
}

StatusOr<StreamConfig> StreamConfig::Deserialize(Reader& reader) {
  StreamConfig config;
  SS_ASSIGN_OR_RETURN(std::unique_ptr<DecayFunction> decay, DeserializeDecay(reader));
  config.decay = std::shared_ptr<const DecayFunction>(std::move(decay));
  SS_ASSIGN_OR_RETURN(config.operators, OperatorSet::Deserialize(reader));
  SS_ASSIGN_OR_RETURN(uint8_t model, reader.ReadU8());
  config.arrival_model = static_cast<ArrivalModel>(model);
  SS_ASSIGN_OR_RETURN(uint8_t windowing, reader.ReadU8());
  if (windowing > static_cast<uint8_t>(WindowingMode::kTimeBased)) {
    return Status::Corruption("StreamConfig: bad windowing mode");
  }
  config.windowing = static_cast<WindowingMode>(windowing);
  SS_ASSIGN_OR_RETURN(config.raw_threshold, reader.ReadVarint());
  SS_ASSIGN_OR_RETURN(config.seed, reader.ReadFixed64());
  SS_ASSIGN_OR_RETURN(config.window_cache_bytes, reader.ReadVarint());
  SS_ASSIGN_OR_RETURN(config.reorder_buffer, reader.ReadVarint());
  return config;
}

// ----------------------------------------------------------------------- Stream

Stream::Stream(StreamId id, StreamConfig config, KvBackend* kv)
    : id_(id), config_(std::move(config)), kv_(kv), seq_(config_.decay) {
  SS_CHECK(config_.decay != nullptr) << "stream requires a decay function";
}

Status Stream::Append(Timestamp ts, double value) { return AppendOne(ts, value); }

Status Stream::AppendBatch(std::span<const Event> events) {
  for (const Event& event : events) {
    SS_RETURN_IF_ERROR(AppendOne(event.ts, event.value));
  }
  return Status::Ok();
}

Status Stream::AppendOne(Timestamp ts, double value) {
  if (config_.reorder_buffer > 0 && !in_landmark_) {
    // Stage in the reorder heap; release the oldest event once the buffer
    // is full. Arrivals displaced by more than the buffer capacity still
    // surface as out-of-order errors below.
    reorder_.push({ts, value});
    if (reorder_.size() <= config_.reorder_buffer) {
      return Status::Ok();
    }
    auto [release_ts, release_value] = reorder_.top();
    reorder_.pop();
    return AppendOrdered(release_ts, release_value);
  }
  return AppendOrdered(ts, value);
}

Status Stream::DrainReorderBuffer() {
  while (!reorder_.empty()) {
    auto [ts, value] = reorder_.top();
    reorder_.pop();
    SS_RETURN_IF_ERROR(AppendOrdered(ts, value));
  }
  return Status::Ok();
}

Status Stream::AppendOrdered(Timestamp ts, double value) {
  if (last_ts_ != kMinTimestamp && ts < last_ts_) {
    return Status::InvalidArgument("out-of-order append: ts " + std::to_string(ts) +
                                   " < watermark " + std::to_string(last_ts_));
  }
  if (config_.windowing == WindowingMode::kTimeBased && ts < 0) {
    return Status::InvalidArgument("time-based windowing requires non-negative timestamps");
  }
  // Stream model (§5.2): four scalars over the whole stream.
  if (last_ts_ != kMinTimestamp) {
    stats_.interarrival.Add(static_cast<double>(ts - last_ts_));
  }
  stats_.values.Add(value);
  if (!has_value_bounds_) {
    value_min_ = value_max_ = value;
    has_value_bounds_ = true;
  } else {
    value_min_ = std::min(value_min_, value);
    value_max_ = std::max(value_max_, value);
  }
  first_ts_ = std::min(first_ts_, ts);
  last_ts_ = ts;
  meta_dirty_ = true;

  if (in_landmark_) {
    LandmarkWindow& lm = landmarks_.back();
    lm.events.push_back(Event{ts, value});
    lm.ts_end = ts;
    ++landmark_elements_;
    return Status::Ok();
  }

  ++n_;
  uint64_t prev_tail_cs = windows_.empty() ? 0 : windows_.rbegin()->first;
  WindowSlot slot;
  slot.ce = n_;
  slot.ts_start = ts;
  slot.ts_last = ts;
  slot.window = std::make_shared<SummaryWindow>(n_, ts, value);
  slot.size_bytes = slot.window->SizeBytes();
  MarkDirty(n_, windows_.emplace(n_, std::move(slot)).first->second);
  ts_index_.insert({ts, n_});
  if (prev_tail_cs != 0) {
    PushCandidate(prev_tail_cs);
  }
  return DrainMerges();
}

uint64_t Stream::Position() const {
  if (config_.windowing == WindowingMode::kTimeBased) {
    return last_ts_ == kMinTimestamp ? 0 : static_cast<uint64_t>(last_ts_);
  }
  return n_;
}

uint64_t Stream::StartPos(const WindowSlot& slot, uint64_t cs) const {
  return config_.windowing == WindowingMode::kTimeBased
             ? static_cast<uint64_t>(slot.ts_start)
             : cs;
}

uint64_t Stream::EndPos(const WindowSlot& slot) const {
  return config_.windowing == WindowingMode::kTimeBased
             ? static_cast<uint64_t>(slot.ts_last)
             : slot.ce;
}

std::optional<uint64_t> Stream::ComputeMergeAt(uint64_t left_start, uint64_t right_end) const {
  // Positions are element counts (count-based windowing) or timestamps
  // (time-based); the containment arithmetic is identical in both.
  uint64_t len = right_end - left_start + 1;
  uint64_t k_fit = seq_.FirstBucketWithLengthAtLeast(len);
  if (k_fit == DecaySequence::kNoBucket) {
    return std::nullopt;
  }
  // The pair fits bucket K at position P iff
  //   P >= right_end + B_K    (the pair is old enough to be inside the bucket)
  //   P <  left_start + B_{K+1} (and hasn't aged past it)
  // Candidates queued long ago may have aged past several buckets, so pick
  // K directly: the smallest K >= k_fit with B_{K+1} > P − left_start. Then
  // merge_at = max(P, right_end + B_K) always satisfies both bounds: if the
  // max is P the second bound holds by choice of K, and otherwise it holds
  // because D[K] >= len for every K >= k_fit.
  uint64_t position = Position();
  uint64_t aged = position > left_start ? position - left_start : 0;
  uint64_t k = std::max(k_fit, seq_.FirstBoundaryGreaterThan(aged) - 1);
  uint64_t merge_at = std::max(position, SatAdd(right_end, seq_.BucketBoundary(k)));
  if (merge_at == UINT64_MAX) {
    return std::nullopt;  // bucket so deep the pair will never merge in practice
  }
  SS_DCHECK(merge_at < SatAdd(left_start, seq_.BucketBoundary(k + 1)))
      << "merge_at " << merge_at << " outside bucket " << k;
  return merge_at;
}

void Stream::MarkDirty(uint64_t cs, WindowSlot& slot) {
  if (slot.dirty) {
    return;
  }
  slot.dirty = true;
  if (cs <= flushed_n_) {
    dirty_windows_.push_back(cs);
  }
}

void Stream::PushCandidate(uint64_t left_cs) {
  auto it = windows_.find(left_cs);
  if (it == windows_.end()) {
    return;
  }
  auto succ = std::next(it);
  if (succ == windows_.end()) {
    return;
  }
  if (it->second.quarantined || succ->second.quarantined) {
    return;  // corrupt payloads can't merge; scrub repair handles them
  }
  std::optional<uint64_t> merge_at =
      ComputeMergeAt(StartPos(it->second, left_cs), EndPos(succ->second));
  if (merge_at.has_value()) {
    heap_.push(MergeCandidate{*merge_at, left_cs, succ->first});
  }
}

Status Stream::DrainMerges() {
  while (!heap_.empty() && heap_.top().merge_at <= Position()) {
    MergeCandidate candidate = heap_.top();
    heap_.pop();
    auto it = windows_.find(candidate.left_cs);
    if (it == windows_.end()) {
      continue;  // left window merged away; fresh candidates were pushed then
    }
    auto succ = std::next(it);
    if (succ == windows_.end() || succ->first != candidate.right_cs) {
      continue;  // pair changed since this entry was queued
    }
    if (it->second.quarantined || succ->second.quarantined) {
      continue;  // a side was quarantined after queuing; leave it for scrub
    }
    std::optional<uint64_t> merge_at =
        ComputeMergeAt(StartPos(it->second, candidate.left_cs), EndPos(succ->second));
    if (!merge_at.has_value()) {
      continue;
    }
    if (*merge_at > Position()) {
      heap_.push(MergeCandidate{*merge_at, candidate.left_cs, candidate.right_cs});
      continue;
    }
    SS_RETURN_IF_ERROR(MergePair(candidate.left_cs, candidate.right_cs));
  }
  return Status::Ok();
}

Status Stream::MergePair(uint64_t left_cs, uint64_t right_cs) {
  auto left_it = windows_.find(left_cs);
  auto right_it = windows_.find(right_cs);
  SS_CHECK(left_it != windows_.end() && right_it != windows_.end()) << "merge of missing window";
  WindowSlot& left = left_it->second;
  WindowSlot& right = right_it->second;

  Status load = LoadWindow(left_cs, left).status();
  if (load.ok()) {
    load = LoadWindow(right_cs, right).status();
  }
  if (!load.ok()) {
    if (left.quarantined || right.quarantined) {
      return Status::Ok();  // side turned out corrupt: drop the candidate,
                            // keep ingesting; scrub repair owns the cleanup
    }
    return load;
  }

  SS_RETURN_IF_ERROR(left.window->MergeFrom(std::move(*right.window), config_.operators,
                                            config_.raw_threshold, config_.seed));
  left.ce = right.ce;
  left.ts_last = right.ts_last;
  MarkDirty(left_cs, left);
  left.size_bytes = left.window->SizeBytes();

  ts_index_.erase({right.ts_start, right_cs});
  // Only windows that ever reached the KV store need a tombstone; the vast
  // majority of tail windows merge away between flushes.
  if (right.persisted) {
    pending_deletes_.push_back(right_cs);
  }
  windows_.erase(right_it);
  ++merges_;
  static Counter& merge_total =
      MetricRegistry::Default().GetCounter("ss_core_window_merges_total");
  merge_total.Inc();

  // Both neighbor pairs changed; queue fresh candidates.
  if (left_it != windows_.begin()) {
    PushCandidate(std::prev(left_it)->first);
  }
  PushCandidate(left_cs);
  return Status::Ok();
}

Status Stream::BeginLandmark(Timestamp ts) {
  if (in_landmark_) {
    return Status::FailedPrecondition("landmark already active");
  }
  // Landmark routing is decided at arrival time; settle any staged events
  // first so the boundary is unambiguous.
  SS_RETURN_IF_ERROR(DrainReorderBuffer());
  LandmarkWindow lm;
  lm.id = next_landmark_id_++;
  lm.ts_start = ts;
  lm.ts_end = ts;
  landmarks_.push_back(std::move(lm));
  in_landmark_ = true;
  meta_dirty_ = true;
  return Status::Ok();
}

Status Stream::EndLandmark(Timestamp ts) {
  if (!in_landmark_) {
    return Status::FailedPrecondition("no active landmark");
  }
  LandmarkWindow& lm = landmarks_.back();
  lm.ts_end = std::max(lm.ts_end, ts);
  lm.closed = true;
  in_landmark_ = false;
  meta_dirty_ = true;
  return Status::Ok();
}

StatusOr<std::shared_ptr<SummaryWindow>> Stream::LoadWindow(uint64_t cs, WindowSlot& slot,
                                                            QueryTrace* trace) {
  // Hit/miss attribution lives in WindowsOverlapping (the only caller that
  // distinguishes query traffic); here we only account bytes actually read.
  static Counter& bytes_loaded =
      MetricRegistry::Default().GetCounter("ss_core_window_load_bytes_total");
  static Counter& read_retries =
      MetricRegistry::Default().GetCounter("ss_storage_read_retry_total");
  static Counter& quarantine_total =
      MetricRegistry::Default().GetCounter("ss_core_window_quarantine_total");
  if (slot.window != nullptr) {
    return slot.window;
  }
  if (slot.quarantined) {
    return Status::Corruption("window " + std::to_string(cs) + " quarantined");
  }
  auto fetch = [&]() -> StatusOr<SummaryWindow> {
    SS_ASSIGN_OR_RETURN(std::string stored, kv_->Get(WindowKey(id_, cs)));
    SS_ASSIGN_OR_RETURN(std::string_view payload, OpenEnvelope(stored));
    Reader reader(payload);
    SS_ASSIGN_OR_RETURN(SummaryWindow window, SummaryWindow::Deserialize(reader));
    // Identity cross-check closes the envelope's blind spot: a flipped magic
    // byte demotes the value to "legacy unchecked", but a decode that then
    // happens to succeed still has to produce *this* window.
    if (window.cs() != cs) {
      return Status::Corruption("window identity mismatch: key cs " + std::to_string(cs) +
                                " decoded cs " + std::to_string(window.cs()));
    }
    bytes_loaded.Inc(payload.size());
    if (trace != nullptr) {
      trace->bytes_fetched += payload.size();
    }
    return window;
  };
  StatusOr<SummaryWindow> window = fetch();
  if (!window.ok()) {
    // One immediate retry: a transient backend hiccup (or a repair racing
    // this read) should not quarantine a healthy window.
    read_retries.Inc();
    window = fetch();
  }
  if (!window.ok()) {
    const Status& status = window.status();
    if (status.code() == StatusCode::kCorruption || status.code() == StatusCode::kNotFound) {
      // Checksum/decode failure — or outright loss — of the only remaining
      // copy. Quarantine the slot so queries degrade instead of erroring.
      slot.quarantined = true;
      slot.dirty = false;
      quarantine_total.Inc();
      FlightRecorder::Default().Record(FlightEventType::kWindowQuarantine, id_, cs);
      return Status::Corruption("window " + std::to_string(cs) +
                                " quarantined: " + status.ToString());
    }
    return status;
  }
  slot.window = std::make_shared<SummaryWindow>(std::move(window).value());
  return slot.window;
}

void Stream::SerializeMeta(Writer& writer) const {
  config_.Serialize(writer);
  writer.PutVarint(n_);
  writer.PutVarint(landmark_elements_);
  writer.PutSignedVarint(first_ts_);
  writer.PutSignedVarint(last_ts_);
  writer.PutU8(in_landmark_ ? 1 : 0);
  writer.PutVarint(next_landmark_id_);
  writer.PutVarint(merges_);
  SerializeWelford(writer, stats_.interarrival);
  SerializeWelford(writer, stats_.values);
  // Trailing optional fields — metas written before this release simply end
  // above, so Load only reads these when bytes remain.
  writer.PutU8(has_value_bounds_ ? 1 : 0);
  writer.PutDouble(value_min_);
  writer.PutDouble(value_max_);
}

Status Stream::Flush() {
  static LatencyHistogram& flush_records =
      MetricRegistry::Default().GetHistogram("ss_core_flush_batch_records");
  SS_RETURN_IF_ERROR(DrainReorderBuffer());
  // Everything dirty — windows, tombstones for merged-away windows,
  // landmarks, metadata — goes to the backend as write batches, so a flush
  // pays one group commit (one WAL fsync under sync_wal) instead of one per
  // key. Chunked to bound the serialized copy held in memory; in-memory
  // bookkeeping is updated only after its chunk is acknowledged, so a failed
  // chunk leaves the remainder dirty for the next flush.
  constexpr size_t kFlushChunkBytes = 4 << 20;
  WriteBatch batch;
  std::vector<uint64_t> chunk_cs;
  size_t records = 0;
  static LatencyHistogram& chunk_us =
      MetricRegistry::Default().GetHistogram("ss_core_flush_chunk_us");
  auto commit_chunk = [&]() -> Status {
    if (batch.empty()) {
      return Status::Ok();
    }
    records += batch.size();
    FlightRecorder::Default().Record(FlightEventType::kFlushChunk, id_, batch.size());
    ScopedTimer chunk_timer(chunk_us);
    SS_RETURN_IF_ERROR(kv_->PutBatch(batch));
    for (uint64_t cs : chunk_cs) {
      WindowSlot& slot = windows_.find(cs)->second;
      slot.size_bytes = slot.window->SizeBytes();
      slot.dirty = false;
      slot.persisted = true;
    }
    chunk_cs.clear();
    batch.Clear();
    return Status::Ok();
  };
  auto add_window = [&](uint64_t cs, WindowSlot& slot) -> Status {
    SS_CHECK(slot.window != nullptr) << "persisting evicted window";
    Writer writer;
    slot.window->Serialize(writer);
    batch.Put(WindowKey(id_, cs), SealEnvelope(writer.data()));
    chunk_cs.push_back(cs);
    return batch.ApproximateBytes() >= kFlushChunkBytes ? commit_chunk() : Status::Ok();
  };
  // Older windows first, then the new ones: the batch stays in key order.
  // De-duplicated because a scrub repair can re-list a reused key.
  std::sort(dirty_windows_.begin(), dirty_windows_.end());
  dirty_windows_.erase(std::unique(dirty_windows_.begin(), dirty_windows_.end()),
                       dirty_windows_.end());
  for (uint64_t cs : dirty_windows_) {
    auto it = windows_.find(cs);
    if (it != windows_.end() && it->second.dirty) {  // else merged away or quarantined
      SS_RETURN_IF_ERROR(add_window(cs, it->second));
    }
  }
  for (auto it = windows_.upper_bound(flushed_n_); it != windows_.end(); ++it) {
    if (it->second.dirty) {  // clean only if an earlier, failed Flush got its chunk in
      SS_RETURN_IF_ERROR(add_window(it->first, it->second));
    }
  }
  for (uint64_t cs : pending_deletes_) {
    batch.Delete(WindowKey(id_, cs));
  }
  for (size_t i = first_dirty_landmark_; i < landmarks_.size(); ++i) {
    Writer writer;
    landmarks_[i].Serialize(writer);
    batch.Put(LandmarkKey(id_, landmarks_[i].id), SealEnvelope(writer.data()));
  }
  if (meta_dirty_) {
    Writer writer;
    SerializeMeta(writer);
    batch.Put(StreamMetaKey(id_), SealEnvelope(writer.data()));
  }
  SS_RETURN_IF_ERROR(commit_chunk());
  dirty_windows_.clear();
  flushed_n_ = n_;
  pending_deletes_.clear();
  // The active (unclosed) landmark keeps mutating; re-persist it next flush.
  first_dirty_landmark_ = in_landmark_ && !landmarks_.empty() ? landmarks_.size() - 1
                                                              : landmarks_.size();
  meta_dirty_ = false;
  if (records > 0) {
    flush_records.Record(records);
  }
  return Status::Ok();
}

Status Stream::EvictAllWindows() {
  SS_RETURN_IF_ERROR(Flush());
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  for (auto& [cs, slot] : windows_) {
    if (slot.window != nullptr) {
      slot.size_bytes = slot.window->SizeBytes();
      slot.window = nullptr;
    }
  }
  return Status::Ok();
}

void Stream::DropCleanWindowPayloads() {
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  for (auto& [cs, slot] : windows_) {
    if (slot.window != nullptr && !slot.dirty) {
      slot.size_bytes = slot.window->SizeBytes();
      slot.window = nullptr;
    }
  }
}

Status Stream::Erase() {
  // Collect keys first: mutating while scanning is undefined for backends.
  std::vector<std::string> keys;
  auto collect = [&keys](std::string_view key, std::string_view) {
    keys.emplace_back(key);
    return true;
  };
  SS_RETURN_IF_ERROR(
      kv_->Scan(WindowKeyPrefix(id_), PrefixEnd(WindowKeyPrefix(id_)), collect));
  SS_RETURN_IF_ERROR(
      kv_->Scan(LandmarkKeyPrefix(id_), PrefixEnd(LandmarkKeyPrefix(id_)), collect));
  keys.push_back(StreamMetaKey(id_));
  for (const std::string& key : keys) {
    SS_RETURN_IF_ERROR(kv_->Delete(key));
  }
  windows_.clear();
  ts_index_.clear();
  landmarks_.clear();
  return Status::Ok();
}

StatusOr<std::unique_ptr<Stream>> Stream::Load(StreamId id, KvBackend* kv) {
  SS_ASSIGN_OR_RETURN(std::string meta, kv->Get(StreamMetaKey(id)));
  // Stream meta has no redundant copy to degrade to: a corrupt meta fails
  // the whole load (and Open), by design.
  SS_ASSIGN_OR_RETURN(std::string_view meta_payload, OpenEnvelope(meta));
  Reader reader(meta_payload);
  SS_ASSIGN_OR_RETURN(StreamConfig config, StreamConfig::Deserialize(reader));
  auto stream = std::make_unique<Stream>(id, std::move(config), kv);
  SS_ASSIGN_OR_RETURN(stream->n_, reader.ReadVarint());
  SS_ASSIGN_OR_RETURN(stream->landmark_elements_, reader.ReadVarint());
  SS_ASSIGN_OR_RETURN(stream->first_ts_, reader.ReadSignedVarint());
  SS_ASSIGN_OR_RETURN(stream->last_ts_, reader.ReadSignedVarint());
  SS_ASSIGN_OR_RETURN(uint8_t in_landmark, reader.ReadU8());
  stream->in_landmark_ = in_landmark != 0;
  SS_ASSIGN_OR_RETURN(stream->next_landmark_id_, reader.ReadVarint());
  SS_ASSIGN_OR_RETURN(stream->merges_, reader.ReadVarint());
  SS_ASSIGN_OR_RETURN(stream->stats_.interarrival, DeserializeWelford(reader));
  SS_ASSIGN_OR_RETURN(stream->stats_.values, DeserializeWelford(reader));
  if (!reader.AtEnd()) {  // trailing optional fields (absent in legacy metas)
    SS_ASSIGN_OR_RETURN(uint8_t has_bounds, reader.ReadU8());
    SS_ASSIGN_OR_RETURN(stream->value_min_, reader.ReadDouble());
    SS_ASSIGN_OR_RETURN(stream->value_max_, reader.ReadDouble());
    stream->has_value_bounds_ = has_bounds != 0;
  }

  // Rebuild the window index from the persisted windows; payloads stay
  // evicted until queried. Pass 1: index every verifiable header, remember
  // the cs of windows whose stored value fails envelope/decode/identity.
  static Counter& quarantine_total =
      MetricRegistry::Default().GetCounter("ss_core_window_quarantine_total");
  std::vector<uint64_t> corrupt_cs;
  SS_RETURN_IF_ERROR(kv->Scan(
      WindowKeyPrefix(id), PrefixEnd(WindowKeyPrefix(id)),
      [&](std::string_view key, std::string_view value) {
        uint64_t cs = ReadBigEndian64(key.substr(9));
        auto payload = OpenEnvelope(value);
        if (!payload.ok()) {
          corrupt_cs.push_back(cs);
          return true;
        }
        Reader header(*payload);
        WindowSlot slot;
        // Header layout: cs, ce, ts_start, ts_last (see SummaryWindow serde).
        auto cs_field = header.ReadVarint();
        auto ce_field = header.ReadVarint();
        auto ts_start = header.ReadSignedVarint();
        auto ts_last = header.ReadSignedVarint();
        if (!cs_field.ok() || !ce_field.ok() || !ts_start.ok() || !ts_last.ok() ||
            *cs_field != cs || *ce_field < cs) {
          // Legacy (unenveloped) value with a mangled header, or an envelope
          // whose payload lies about its identity: quarantine, don't fail
          // the whole stream.
          corrupt_cs.push_back(cs);
          return true;
        }
        slot.ce = *ce_field;
        slot.ts_start = *ts_start;
        slot.ts_last = *ts_last;
        slot.size_bytes = payload->size();
        slot.persisted = true;
        stream->windows_.emplace(cs, std::move(slot));
        stream->ts_index_.insert({*ts_start, cs});
        return true;
      }));
  // Pass 2: give each corrupt window a quarantined index slot whose span is
  // reconstructed from its intact neighbors, so window covers still tile
  // stream time and queries can price the loss into their intervals.
  // Conservative time span: start at the predecessor's last event (events
  // may share timestamps, so ts_last — not ts_last + 1 — keeps the span a
  // superset of the truth) and end at the successor's first.
  std::sort(corrupt_cs.begin(), corrupt_cs.end());
  for (size_t i = 0; i < corrupt_cs.size(); ++i) {
    uint64_t cs = corrupt_cs[i];
    WindowSlot slot;
    slot.persisted = true;
    slot.quarantined = true;
    // Processing ascending means earlier corrupt windows are already in the
    // map, so lower_bound past them lands on the next *intact* window; the
    // element range must still stop before the next corrupt key.
    auto succ = stream->windows_.lower_bound(cs + 1);
    uint64_t next_cs = succ != stream->windows_.end() ? succ->first : UINT64_MAX;
    if (i + 1 < corrupt_cs.size()) {
      next_cs = std::min(next_cs, corrupt_cs[i + 1]);
    }
    slot.ce = next_cs != UINT64_MAX ? next_cs - 1 : stream->n_;
    slot.ts_last = succ != stream->windows_.end() ? succ->second.ts_start : stream->last_ts_;
    // Nearest intact predecessor: a run of adjacent corrupt windows shares
    // one [pred.ts_last, succ.ts_start] span, each member carrying its own
    // lost-element count.
    slot.ts_start = stream->first_ts_ == kMaxTimestamp ? 0 : stream->first_ts_;
    for (auto pred = stream->windows_.lower_bound(cs);
         pred != stream->windows_.begin();) {
      --pred;
      if (!pred->second.quarantined) {
        slot.ts_start = pred->second.ts_last;
        break;
      }
    }
    slot.size_bytes = 0;
    stream->windows_.emplace(cs, slot);
    stream->ts_index_.insert({slot.ts_start, cs});
    quarantine_total.Inc();
    FlightRecorder::Default().Record(FlightEventType::kWindowQuarantine, id, cs);
  }

  SS_RETURN_IF_ERROR(kv->Scan(LandmarkKeyPrefix(id), PrefixEnd(LandmarkKeyPrefix(id)),
                              [&](std::string_view, std::string_view value) {
                                auto payload = OpenEnvelope(value);
                                if (!payload.ok()) {
                                  stream->landmark_status_ = payload.status();
                                  return true;  // keep loading the others
                                }
                                Reader lm_reader(*payload);
                                auto lm = LandmarkWindow::Deserialize(lm_reader);
                                if (!lm.ok()) {
                                  stream->landmark_status_ = lm.status();
                                  return true;
                                }
                                stream->landmarks_.push_back(std::move(lm).value());
                                return true;
                              }));
  std::sort(stream->landmarks_.begin(), stream->landmarks_.end(),
            [](const LandmarkWindow& a, const LandmarkWindow& b) {
              return a.ts_start != b.ts_start ? a.ts_start < b.ts_start : a.id < b.id;
            });
  // An open landmark keeps mutating after reload; treat it as dirty so the
  // next Flush re-persists it (closed landmarks are immutable).
  stream->first_dirty_landmark_ = stream->in_landmark_ && !stream->landmarks_.empty()
                                      ? stream->landmarks_.size() - 1
                                      : stream->landmarks_.size();

  // Re-arm the merge heap for every adjacent pair.
  for (auto it = stream->windows_.begin(); it != stream->windows_.end(); ++it) {
    stream->PushCandidate(it->first);
  }
  stream->meta_dirty_ = false;
  stream->flushed_n_ = stream->n_;  // every window came from the store
  return stream;
}

uint64_t Stream::ResidentWindowBytes() const {
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  uint64_t bytes = 0;
  for (const auto& [cs, slot] : windows_) {
    if (slot.window != nullptr) {
      bytes += slot.window->SizeBytes();
    }
  }
  return bytes;
}

uint64_t Stream::SizeBytes() const {
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  uint64_t bytes = 0;
  for (const auto& [cs, slot] : windows_) {
    bytes += slot.window != nullptr ? slot.window->SizeBytes() : slot.size_bytes;
  }
  for (const auto& lm : landmarks_) {
    bytes += lm.SizeBytes();
  }
  return bytes;
}

Status Stream::BulkLoadWindows(uint64_t cs_first, uint64_t cs_last, QueryTrace* trace) {
  static Counter& bytes_loaded =
      MetricRegistry::Default().GetCounter("ss_core_window_load_bytes_total");
  Status scan = kv_->Scan(
      WindowKey(id_, cs_first), WindowKey(id_, cs_last + 1),
      [&](std::string_view key, std::string_view value) {
        uint64_t cs = ReadBigEndian64(key.substr(9));
        auto it = windows_.find(cs);
        if (it == windows_.end() || it->second.window != nullptr ||
            it->second.quarantined) {
          return true;  // merged away, already resident, or known-corrupt
        }
        auto payload = OpenEnvelope(value);
        if (!payload.ok()) {
          return true;  // leave evicted; the per-window load quarantines it
        }
        Reader reader(*payload);
        auto window = SummaryWindow::Deserialize(reader);
        if (!window.ok() || window->cs() != cs) {
          return true;  // same: precise handling happens in LoadWindow
        }
        bytes_loaded.Inc(payload->size());
        if (trace != nullptr) {
          trace->bytes_fetched += payload->size();
        }
        it->second.window = std::make_shared<SummaryWindow>(std::move(window).value());
        return true;
      });
  if (!scan.ok() && scan.code() == StatusCode::kCorruption) {
    // A corrupt backend block can fail the whole range scan; fall back to
    // per-window point loads, which detect and quarantine precisely.
    return Status::Ok();
  }
  return scan;
}

StatusOr<std::vector<Stream::WindowView>> Stream::WindowsOverlapping(Timestamp t1, Timestamp t2,
                                                                    QueryTrace* trace) {
  static Counter& cache_hits =
      MetricRegistry::Default().GetCounter("ss_core_window_cache_hits_total");
  static Counter& cache_misses =
      MetricRegistry::Default().GetCounter("ss_core_window_cache_misses_total");
  std::vector<WindowView> views;
  if (windows_.empty() || t2 < t1) {
    return views;
  }
  QueryPhaseSpan scan_span(QueryPhase::kWindowScan, trace);
  // Queries run under a shared stream lock; payload loads, LRU stamps and
  // budget eviction are the read path's only writes, so serialize just this
  // scan (the caller's aggregation over the returned views stays parallel).
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  // Start from the first window with ts_start >= t1, plus one predecessor
  // whose cover may extend past t1. (All duplicates at ts_start == t1 must
  // be visited: with quantized clocks several windows can share a start.)
  auto begin_idx = ts_index_.lower_bound({t1, 0});
  if (begin_idx != ts_index_.begin()) {
    --begin_idx;
    // A quarantined predecessor's uncertainty span can reach past its cover
    // (adjacent corrupt windows share one reconstructed span); cross the
    // whole run so none of the loss is silently skipped.
    while (begin_idx != ts_index_.begin() &&
           windows_.find(begin_idx->second)->second.quarantined) {
      --begin_idx;
    }
  }
  // Collect evicted windows in range; past a handful, one range scan beats
  // per-window point lookups by decoding each storage block only once. The
  // evicted set also attributes per-window cache hits/misses below.
  std::vector<uint64_t> evicted;
  for (auto idx = begin_idx; idx != ts_index_.end() && idx->first <= t2; ++idx) {
    auto slot_it = windows_.find(idx->second);
    SS_CHECK(slot_it != windows_.end()) << "ts_index out of sync";
    if (slot_it->second.window == nullptr && !slot_it->second.quarantined) {
      evicted.push_back(idx->second);
    }
  }
  std::sort(evicted.begin(), evicted.end());
  const bool bulk = evicted.size() > 16;
  if (bulk) {
    SS_RETURN_IF_ERROR(BulkLoadWindows(evicted.front(), evicted.back(), trace));
  }

  for (auto idx = begin_idx; idx != ts_index_.end() && idx->first <= t2; ++idx) {
    uint64_t cs = idx->second;
    auto slot_it = windows_.find(cs);
    WindowSlot& slot = slot_it->second;
    auto next_idx = std::next(idx);
    Timestamp cover_end = next_idx != ts_index_.end() ? next_idx->first : last_ts_ + 1;
    if (slot.quarantined) {
      // The slot's reconstructed span can extend past the ts_index cover
      // (adjacent corrupt windows share a span); the missing view must blame
      // the whole span so the query prices in every possible position of the
      // lost elements.
      Timestamp missing_end = std::max(cover_end, slot.ts_last);
      if (missing_end <= t1 && slot.ts_start < t1) {
        continue;
      }
      if (trace != nullptr) {
        ++trace->quarantined_windows;
      }
      views.push_back(WindowView{nullptr, slot.ts_start, missing_end, slot.ce - cs + 1});
      continue;
    }
    if (cover_end <= t1 && slot.ts_start < t1) {
      continue;  // the stepped-back window ends before the query starts
    }
    bool was_resident = !std::binary_search(evicted.begin(), evicted.end(), cs);
    auto loaded = LoadWindow(cs, slot, trace);
    if (!loaded.ok()) {
      if (!slot.quarantined) {
        return loaded.status();  // transient backend failure: real error
      }
      // LoadWindow just quarantined this window (corrupt payload, retried
      // once): degrade instead of failing the query. The in-memory metadata
      // is still exact, so the missing span is the true cover.
      cache_misses.Inc();
      if (trace != nullptr) {
        ++trace->quarantined_windows;
      }
      views.push_back(WindowView{nullptr, slot.ts_start, cover_end, slot.ce - cs + 1});
      continue;
    }
    std::shared_ptr<SummaryWindow> window = std::move(loaded).value();
    (was_resident ? cache_hits : cache_misses).Inc();
    if (trace != nullptr) {
      ++trace->windows_scanned;
      (window->is_raw() ? trace->raw_windows : trace->summary_windows) += 1;
      (was_resident ? trace->window_cache_hits : trace->window_cache_misses) += 1;
    }
    slot.last_access = ++access_clock_;
    views.push_back(WindowView{std::move(window), slot.ts_start, cover_end});
  }
  EnforceWindowCacheBudget();
  return views;
}

void Stream::EnforceWindowCacheBudget() {
  if (config_.window_cache_bytes == 0) {
    return;
  }
  uint64_t resident = 0;
  for (const auto& [cs, slot] : windows_) {
    if (slot.window != nullptr && !slot.dirty && slot.persisted) {
      resident += slot.window->SizeBytes();
    }
  }
  if (resident <= config_.window_cache_bytes) {
    return;
  }
  // Collect clean resident slots oldest-access first and drop until we fit.
  // (Dirty or never-persisted windows must stay: they are the only copy.)
  std::vector<std::pair<uint64_t, uint64_t>> victims;  // (last_access, cs)
  for (const auto& [cs, slot] : windows_) {
    if (slot.window != nullptr && !slot.dirty && slot.persisted) {
      victims.emplace_back(slot.last_access, cs);
    }
  }
  std::sort(victims.begin(), victims.end());
  for (const auto& [access, cs] : victims) {
    if (resident <= config_.window_cache_bytes) {
      break;
    }
    WindowSlot& slot = windows_.find(cs)->second;
    resident -= slot.window->SizeBytes();
    slot.size_bytes = slot.window->SizeBytes();
    slot.window = nullptr;
  }
}

size_t Stream::quarantined_window_count() const {
  std::lock_guard<std::mutex> cache_lock(cache_mu_);
  size_t count = 0;
  for (const auto& [cs, slot] : windows_) {
    count += slot.quarantined ? 1 : 0;
  }
  return count;
}

Status Stream::VerifyWindowKv(uint64_t cs) const {
  SS_ASSIGN_OR_RETURN(std::string stored, kv_->Get(WindowKey(id_, cs)));
  SS_ASSIGN_OR_RETURN(std::string_view payload, OpenEnvelope(stored));
  Reader reader(payload);
  SS_ASSIGN_OR_RETURN(SummaryWindow window, SummaryWindow::Deserialize(reader));
  if (window.cs() != cs) {
    return Status::Corruption("window identity mismatch: key cs " + std::to_string(cs) +
                              " decoded cs " + std::to_string(window.cs()));
  }
  return Status::Ok();
}

Status Stream::Scrub(bool repair, ScrubReport* report) {
  static Counter& scrub_windows =
      MetricRegistry::Default().GetCounter("ss_core_scrub_windows_total");
  static Counter& scrub_errors =
      MetricRegistry::Default().GetCounter("ss_core_scrub_errors_total");
  static Counter& scrub_repaired =
      MetricRegistry::Default().GetCounter("ss_core_scrub_repaired_total");
  static Counter& quarantine_total =
      MetricRegistry::Default().GetCounter("ss_core_window_quarantine_total");

  // Pass 1: verify every persisted window's KV copy end to end.
  for (auto& [cs, slot] : windows_) {
    if (!slot.persisted) {
      continue;  // only copy is in memory; nothing on disk to verify
    }
    ++report->windows_checked;
    scrub_windows.Inc();
    Status verify = VerifyWindowKv(cs);
    if (verify.ok()) {
      if (slot.quarantined) {
        // The stored copy verifies again (e.g. a transient read fault, or an
        // external restore): lift the quarantine. Span metadata from a
        // load-time reconstruction stays conservative, which is safe.
        slot.quarantined = false;
        ++report->healed;
      }
      continue;
    }
    ++report->errors;
    scrub_errors.Inc();
    if (slot.window != nullptr) {
      // Memory still holds a clean copy: re-flushing rewrites the bad KV
      // value. Only mutate when repairing (dry runs just report).
      if (repair) {
        MarkDirty(cs, slot);
        ++report->repaired;
        scrub_repaired.Inc();
      }
    } else if (!slot.quarantined) {
      slot.quarantined = true;
      slot.dirty = false;
      ++report->quarantined;
      quarantine_total.Inc();
      FlightRecorder::Default().Record(FlightEventType::kWindowQuarantine, id_, cs);
    }
  }

  // Verify landmark KV copies. Landmarks are lossless and fully resident, so
  // a corrupt stored copy is always repairable by re-persisting from memory.
  for (size_t i = 0; i < landmarks_.size(); ++i) {
    ++report->landmarks_checked;
    auto verify = [&]() -> Status {
      SS_ASSIGN_OR_RETURN(std::string stored, kv_->Get(LandmarkKey(id_, landmarks_[i].id)));
      SS_ASSIGN_OR_RETURN(std::string_view payload, OpenEnvelope(stored));
      Reader lm_reader(payload);
      SS_ASSIGN_OR_RETURN(LandmarkWindow lm, LandmarkWindow::Deserialize(lm_reader));
      if (lm.id != landmarks_[i].id) {
        return Status::Corruption("landmark identity mismatch");
      }
      return Status::Ok();
    }();
    if (!verify.ok()) {
      ++report->errors;
      scrub_errors.Inc();
      if (repair) {
        first_dirty_landmark_ = std::min(first_dirty_landmark_, i);
        ++report->repaired;
        scrub_repaired.Inc();
      }
    }
  }

  if (!repair) {
    return Status::Ok();
  }

  // Repair pass: a quarantined window's data is gone, but its *span* is
  // known. Merging it into its left neighbor as an explicit lost-element
  // range keeps covers tiling with one fewer degraded slot and survives
  // restarts (lost_count is serialized). Left is preferred — the merged
  // window keeps its key, so no KV key dance is needed; a quarantined run
  // at the stream head merges rightward instead.
  std::vector<uint64_t> quarantined_cs;
  for (auto& [cs, slot] : windows_) {
    if (slot.quarantined) {
      quarantined_cs.push_back(cs);
    }
  }
  for (uint64_t cs : quarantined_cs) {
    auto it = windows_.find(cs);
    if (it == windows_.end()) {
      continue;  // already absorbed as part of an earlier head run
    }
    if (it == windows_.begin()) {
      // No left neighbor: absorb the whole quarantined head run into the
      // first intact window to its right. That survivor's cs changes, so it
      // moves to a new KV key (tombstones for every old key in the run) —
      // the key dance is only worth it at the stream head.
      auto right_it = std::next(it);
      while (right_it != windows_.end() && right_it->second.quarantined) {
        ++right_it;
      }
      if (right_it == windows_.end()) {
        continue;  // nothing intact to absorb the span; stays quarantined
      }
      auto right_window = LoadWindow(right_it->first, right_it->second);
      if (!right_window.ok()) {
        continue;  // survivor went bad too; a later scrub pass will retry
      }
      uint64_t right_cs = right_it->first;
      uint64_t lost = right_cs - cs;  // head-run element counts tile [cs, right_cs)
      (*right_window)->AbsorbLostLeft(cs, it->second.ts_start, lost);
      WindowSlot moved = std::move(right_it->second);
      ts_index_.erase({moved.ts_start, right_cs});
      if (moved.persisted) {
        pending_deletes_.push_back(right_cs);
        moved.persisted = false;
      }
      moved.ts_start = it->second.ts_start;
      moved.dirty = false;  // re-listed under its new key below
      moved.size_bytes = (*right_window)->SizeBytes();
      uint64_t absorbed = 0;
      for (auto run = it; run != right_it;) {
        ts_index_.erase({run->second.ts_start, run->first});
        // No tombstone for `cs` itself: the survivor is re-put at that key,
        // and batch deletes land after puts.
        if (run->second.persisted && run->first != cs) {
          pending_deletes_.push_back(run->first);
        }
        run = windows_.erase(run);
        ++absorbed;
      }
      windows_.erase(right_it);
      ts_index_.insert({moved.ts_start, cs});
      MarkDirty(cs, windows_.emplace(cs, std::move(moved)).first->second);
      report->repaired += absorbed;
      scrub_repaired.Inc(absorbed);
      FlightRecorder::Default().Record(FlightEventType::kScrubRepair, id_, absorbed);
      PushCandidate(cs);  // re-arm the merge pair with the new right neighbor
      continue;
    }
    auto left_it = std::prev(it);
    WindowSlot& left = left_it->second;
    if (left.quarantined) {
      continue;
    }
    auto left_window = LoadWindow(left_it->first, left);
    if (!left_window.ok()) {
      continue;  // left went bad too; a later scrub pass will retry
    }
    uint64_t lost = it->second.ce - cs + 1;
    (*left_window)->AbsorbLost(it->second.ce, it->second.ts_last, lost);
    left.ce = it->second.ce;
    left.ts_last = std::max(left.ts_last, it->second.ts_last);
    MarkDirty(left_it->first, left);
    left.size_bytes = (*left_window)->SizeBytes();
    ts_index_.erase({it->second.ts_start, cs});
    if (it->second.persisted) {
      pending_deletes_.push_back(cs);
    }
    windows_.erase(it);
    ++report->repaired;
    scrub_repaired.Inc();
    FlightRecorder::Default().Record(FlightEventType::kScrubRepair, id_, 1);
    // Neighbor pairs changed; re-arm merge candidates around the survivor.
    if (left_it != windows_.begin()) {
      PushCandidate(std::prev(left_it)->first);
    }
    PushCandidate(left_it->first);
  }
  return Flush();
}

std::vector<const LandmarkWindow*> Stream::LandmarksOverlapping(Timestamp t1,
                                                                Timestamp t2) const {
  std::vector<const LandmarkWindow*> out;
  for (const auto& lm : landmarks_) {
    if (lm.ts_start > t2) {
      break;
    }
    if (lm.ts_end >= t1) {
      out.push_back(&lm);
    }
  }
  return out;
}

std::vector<Event> Stream::QueryLandmarks(Timestamp t1, Timestamp t2) const {
  std::vector<Event> out;
  for (const LandmarkWindow* lm : LandmarksOverlapping(t1, t2)) {
    for (const Event& event : lm->events) {
      if (event.ts >= t1 && event.ts <= t2) {
        out.push_back(event);
      }
    }
  }
  return out;
}

}  // namespace ss
