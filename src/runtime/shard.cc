#include "src/runtime/shard.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "src/checkpoint/checkpoint.h"

namespace sharon::runtime {

namespace {

std::vector<std::unique_ptr<BatchChannel>> MakeChannels(
    const RuntimeOptions& options) {
  const size_t n = options.ingest_partitions > 0 ? options.ingest_partitions : 1;
  std::vector<std::unique_ptr<BatchChannel>> channels;
  channels.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    channels.push_back(std::make_unique<BatchChannel>(options.queue_capacity));
  }
  return channels;
}

}  // namespace

Shard::Shard(size_t index, std::shared_ptr<const MultiEnginePlan> plan,
             const RuntimeOptions& options)
    : index_(index),
      channels_(MakeChannels(options)),
      channel_frontier_(channels_.size(), kNoWatermark),
      marker_seen_(channels_.size(), 0),
      held_(channels_.size()),
      executor_(std::move(plan)),
      disorder_(options.disorder) {
  if (!executor_.ok()) error_ = executor_.error();
  if (executor_.ok() && options.disorder.enabled) {
    executor_.SetDisorderPolicy(options.disorder);
  }
}

Shard::~Shard() {
  SignalDone();
  Join();
}

void Shard::Start() {
  if (started_ || !ok()) return;
  started_ = true;
  thread_ = std::thread(&Shard::WorkerLoop, this);
}

void Shard::Join() {
  if (thread_.joinable()) thread_.join();
}

void Shard::MergeWatermark(size_t p, Timestamp t) {
  const bool channel_regression = t <= channel_frontier_[p];
  if (!channel_regression) channel_frontier_[p] = t;
  // The executor may only advance to ticks EVERY producer has vouched
  // for: the merged watermark is the minimum over producer frontiers
  // (kNoWatermark until all producers punctuated at least once).
  Timestamp merged = channel_frontier_[0];
  for (size_t i = 1; i < channel_frontier_.size(); ++i) {
    merged = std::min(merged, channel_frontier_[i]);
  }
  if (merged != kNoWatermark && merged > merged_watermark_) {
    merged_watermark_ = merged;
    // Publish before applying so a reader never observes a finalized
    // window whose shard watermark it cannot see.
    watermark_.store(merged, std::memory_order_release);
    ApplyWatermark(merged);
    return;
  }
  if (channel_regression && merged_watermark_ != kNoWatermark &&
      t <= merged_watermark_) {
    // A producer re-announced an old frontier. Keep the executor's loud
    // regression accounting (WatermarkStats::regressions): deliver the
    // stale punctuation — but ONLY when it does not exceed the merged
    // minimum already applied, so the executor sees it as the regression
    // it is. A stale-per-channel value ABOVE the merged minimum (other
    // producers lag behind this one) must never reach the executor: it
    // would advance past ticks those producers have not vouched for.
    // Punctuations that advance their own frontier but not the merged
    // minimum are likewise folded silently.
    ApplyWatermark(t);
  }
}

void Shard::Process(const EventBatch& batch, size_t channel_idx) {
  StopWatch watch;
  batch_data_events_ = 0;
  for (const Event& e : batch) HandleEvent(e, channel_idx);
  stats_.busy_seconds += watch.ElapsedSeconds();
  stats_.events += batch_data_events_;
  ++stats_.batches;
  if (obs_cells_) {
    if (obs_cells_->events) obs_cells_->events->Add(batch_data_events_);
    if (obs_cells_->batches) obs_cells_->batches->Inc();
    if (obs_cells_->batch_occupancy) {
      obs_cells_->batch_occupancy->Record(batch_data_events_);
    }
  }
}

void Shard::HandleEvent(const Event& e, size_t p) {
  if (IsControlMarker(e)) {
    OnControlMarker(e, p);
    return;
  }
  if (markers_seen_ > 0 && marker_seen_[p]) {
    // This channel already delivered its marker for the pending control
    // op: everything behind it is part of the POST-cut stream and must
    // wait until the remaining channels align. The producer ends a batch
    // at its marker, but this channel's next batches can arrive while
    // another channel's marker is still queued behind older data.
    held_[p].push_back(e);
    return;
  }
  if (IsWatermark(e)) {
    MergeWatermark(p, e.time);
    return;
  }
  ++batch_data_events_;
  if (!swap_active_) {
    executor_.OnEvent(e);
    return;
  }
  // Dual run: the old engine owns windows closing <= boundary (events
  // below the boundary), the new engine owns windows closing above it
  // (events at or past the overlap start). Events in the overlap feed
  // both — each window still sees its events exactly once per engine.
  const bool to_old = e.time < swap_.boundary;
  const bool to_new = e.time >= tee_from_;
  if (to_old) executor_.OnEvent(e);
  if (to_new) next_engine_->OnEvent(e);
  if (to_old && to_new) ++swap_record_.teed_events;
}

void Shard::OnControlMarker(const Event& e, size_t p) {
  if (marker_seen_[p]) {
    // A marker for a LATER control op behind the pending one (defensive:
    // the runtime serializes control ops, so this is unreachable through
    // the public API). Park it with the channel's held events; the replay
    // below re-delivers it and starts a fresh alignment round.
    held_[p].push_back(e);
    return;
  }
  marker_seen_[p] = 1;
  if (++markers_seen_ < channels_.size()) return;
  // Every producer channel delivered its marker: the shard is quiesced at
  // a cut ordered after everything every producer routed before the
  // request. Reset the alignment state BEFORE executing so the replayed
  // events (and any held next-op marker) see a fresh round.
  std::fill(marker_seen_.begin(), marker_seen_.end(), 0);
  markers_seen_ = 0;
  while (hold_at_marker_.load(std::memory_order_acquire) &&
         !done_.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  ControlCommand cmd;
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    cmd = std::exchange(staged_, ControlCommand{});
  }
  if (cmd.kind == ControlKind::kSwap) {
    BeginSwap(std::move(cmd));
  } else if (cmd.kind == ControlKind::kCheckpoint) {
    WriteCheckpoint(cmd);
  }  // kNone: spurious marker, nothing staged
  for (size_t q = 0; q < held_.size(); ++q) {
    if (held_[q].empty()) continue;
    EventBatch replay = std::move(held_[q]);
    held_[q] = EventBatch();
    for (const Event& held_event : replay) HandleEvent(held_event, q);
  }
}

void Shard::BeginSwap(ControlCommand cmd) {
  // Stage admits a swap only on a uniform plan with a disorder policy,
  // and only into an empty slot — so no earlier swap is still active.
  assert(executor_.plan()->uniform() && disorder_.enabled && !swap_active_ &&
         cmd.plan);
  swap_ = std::move(cmd);
  const Engine& current = *executor_.engines().front();
  const WindowSpec& window = current.compiled().window;
  tee_from_ = window.Valid()
                  ? swap_.boundary + window.slide - window.length
                  : swap_.boundary;
  next_engine_ = std::make_unique<Engine>(current.workload(), swap_.plan);
  next_engine_->SetDisorderPolicy(disorder_);
  next_engine_->SetResultsFloor(swap_.boundary);
  next_engine_->SetObservability(obs_engine_);
  swap_record_ = ShardSwapRecord{};
  swap_record_.id = swap_.id;
  swap_record_.boundary = swap_.boundary;
  swap_watch_.Reset();
  swap_active_ = true;
  if (obs_cells_ && obs_cells_->swaps_started) obs_cells_->swaps_started->Inc();
  if (obs_ring_) {
    obs_ring_->Emit(obs::TraceKind::kSwapDualRunStart, swap_.boundary,
                    static_cast<int64_t>(swap_.id));
  }
}

void Shard::ApplyWatermark(Timestamp t) {
  if (!swap_active_) {
    executor_.AdvanceWatermark(t);
    return;
  }
  // The old engine's watermark is capped so its safe point never passes
  // the boundary: it finalizes exactly the windows it owns, and the
  // windows it does not own stay staged (discarded at retirement).
  const Timestamp cap = SwapWatermarkCap();
  executor_.AdvanceWatermark(std::min(t, cap));
  next_engine_->AdvanceWatermark(t);
  swap_record_.peak_dual_bytes =
      std::max(swap_record_.peak_dual_bytes,
               executor_.EstimatedBytes() + next_engine_->EstimatedBytes());
  // Once the uncapped watermark implies safe point >= boundary, every
  // window the old engine owns is finalized — hand off.
  if (t >= cap) RetireOldEngine();
}

void Shard::RetireOldEngine() {
  swap_record_.dual_run_seconds = swap_watch_.ElapsedSeconds();
  const std::unique_ptr<Engine> old =
      executor_.ReplaceSegmentEngine(0, std::move(next_engine_));
  retired_peak_bytes_ = std::max(
      retired_peak_bytes_, std::max(old->peak_bytes(), old->EstimatedBytes()));
  // Fold the retiring engine's counters (its watermark/safe point are
  // frozen at the cap and would poison a MIN-rollup; counters are sums).
  retired_wm_.MergeCountersFrom(old->watermark_stats());
  // Drain the finalized results (windows closing <= boundary, complete
  // and immutable) into the shard archive; staged cells of windows the
  // new engine owns die with the old engine.
  old->mutable_results().ExtractWindowsBefore(
      std::numeric_limits<WindowId>::max(), archived_);
  swap_active_ = false;
  swap_record_.post_swap_bytes =
      executor_.EstimatedBytes() + archived_.EstimatedBytes();
  swap_records_.push_back(swap_record_);
  if (obs_cells_ && obs_cells_->swaps_retired) obs_cells_->swaps_retired->Inc();
  if (obs_ring_) {
    obs_ring_->Emit(obs::TraceKind::kSwapRetired, swap_record_.boundary,
                    static_cast<int64_t>(swap_record_.id),
                    static_cast<int64_t>(swap_record_.teed_events));
  }
  in_flight_.store(ControlKind::kNone, std::memory_order_release);
}

bool Shard::Stage(const ControlCommand& cmd) {
  if (in_flight() != ControlKind::kNone) return false;
  if (cmd.kind == ControlKind::kSwap &&
      (!executor_.plan()->uniform() || !disorder_.enabled || !cmd.plan)) {
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    staged_ = cmd;
  }
  in_flight_.store(cmd.kind, std::memory_order_release);
  return true;
}

void Shard::Unstage() {
  std::lock_guard<std::mutex> lock(control_mu_);
  if (staged_.kind == ControlKind::kNone) return;  // worker picked it up
  staged_ = ControlCommand{};
  in_flight_.store(ControlKind::kNone, std::memory_order_release);
}

Shard::CheckpointOutcome Shard::checkpoint_outcome() const {
  std::lock_guard<std::mutex> lock(control_mu_);
  return checkpoint_outcome_;
}

void Shard::WriteCheckpoint(const ControlCommand& cmd) {
  // The slot admits a checkpoint only once a swap retired, so the cut
  // never lands mid-dual-run (it would need both engines and the tee).
  assert(!swap_active_);
  CheckpointOutcome outcome;
  outcome.watermark = merged_watermark_;
  if (obs_cells_ && obs_cells_->checkpoints_quiesced) {
    obs_cells_->checkpoints_quiesced->Inc();
  }
  if (obs_ring_) {
    obs_ring_->Emit(obs::TraceKind::kCheckpointQuiesce, merged_watermark_,
                    static_cast<int64_t>(cmd.id));
  }
  checkpoint::ShardCheckpointInput in;
  in.checkpoint_id = cmd.id;
  in.boundary = cmd.boundary;
  in.shard_index = index_;
  in.num_shards = cmd.num_shards;
  in.merged_watermark = merged_watermark_;
  in.executor = &executor_;
  in.archive = &archived_;
  in.retired = &retired_wm_;
  const std::vector<uint8_t> bytes = checkpoint::EncodeShardCheckpoint(in);
  outcome.bytes = bytes.size();
  outcome.error = checkpoint::WriteFileBytes(
      cmd.dir + "/" + checkpoint::ShardFileName(index_), bytes);
  if (outcome.error.empty()) {
    if (obs_cells_ && obs_cells_->checkpoint_bytes) {
      obs_cells_->checkpoint_bytes->Add(outcome.bytes);
    }
    if (obs_ring_) {
      obs_ring_->Emit(obs::TraceKind::kCheckpointShardDone, cmd.boundary,
                      static_cast<int64_t>(cmd.id),
                      static_cast<int64_t>(outcome.bytes));
    }
  }
  {
    std::lock_guard<std::mutex> lock(control_mu_);
    checkpoint_outcome_ = std::move(outcome);
  }
  in_flight_.store(ControlKind::kNone, std::memory_order_release);
}

void Shard::RestoreFrontier(Timestamp merged) {
  if (merged == kNoWatermark) return;
  for (Timestamp& frontier : channel_frontier_) frontier = merged;
  merged_watermark_ = merged;
  watermark_.store(merged, std::memory_order_release);
}

void Shard::Recycle(size_t p, EventBatch&& batch) {
  batch.clear();  // keeps capacity: the producer reuses the buffer as-is
  if (!channels_[p]->free.TryPush(std::move(batch))) {
    ++stats_.recycle_drops;  // free ring is sized to make this unreachable
  }
}

void Shard::WorkerLoop() {
  EventBatch batch;
  const size_t nch = channels_.size();
  for (;;) {
    bool popped = false;
    for (size_t p = 0; p < nch; ++p) {
      if (channels_[p]->full.TryPop(batch)) {
        Process(batch, p);
        Recycle(p, std::move(batch));
        batch = EventBatch();
        popped = true;
      }
    }
    if (popped) continue;
    if (done_.load(std::memory_order_acquire)) {
      // done_ was set after the final pushes; drain whatever is left on
      // every channel.
      for (;;) {
        bool drained_any = false;
        for (size_t p = 0; p < nch; ++p) {
          while (channels_[p]->full.TryPop(batch)) {
            Process(batch, p);
            Recycle(p, std::move(batch));
            batch = EventBatch();
            drained_any = true;
          }
        }
        if (!drained_any) return;
      }
    }
    ++stats_.idle_spins;
    std::this_thread::yield();
  }
}

AggState Shard::Get(QueryId query, WindowId window, AttrValue group) const {
  // A cell lives in exactly one store: retired engines archived their
  // windows (closing <= their boundary); the current executor owns the
  // rest. Probe the archive by key so a legitimately zero-valued archived
  // cell is not shadowed by the current engine's Zero().
  if (const AggState* cell = archived_.FindCell(query, window, group)) {
    return *cell;
  }
  AggState state = executor_.Get(query, window, group);
  // A swap stalled at shutdown leaves the incoming engine holding the
  // finalized cells of its windows — the same cells ForEachCell
  // enumerates, so Get must see them too. Only a uniform plan swaps, and
  // its ids are the original ids.
  if (state.IsZero() && swap_active_) {
    state = next_engine_->results().Get(query, window, group);
  }
  return state;
}

void Shard::ForEachCell(
    const std::function<void(const ResultKey&, const AggState&)>& fn) const {
  archived_.ForEachCell(fn);
  executor_.ForEachCell(fn);
  // A swap that never completed (stalled watermark at shutdown) leaves
  // the incoming engine holding finalized cells of its own windows.
  if (swap_active_) next_engine_->results().ForEachCell(fn);
}

size_t Shard::NumCells() const {
  size_t n = archived_.size();
  for (const auto& e : executor_.engines()) n += e->results().size();
  if (swap_active_) n += next_engine_->results().size();
  return n;
}

size_t Shard::EstimatedBytes() const {
  size_t n = executor_.EstimatedBytes() + archived_.EstimatedBytes();
  if (swap_active_) n += next_engine_->EstimatedBytes();
  return n;
}

size_t Shard::PeakBytes() const {
  // Engine's meter is updated at sweep time; fold in the current figure
  // the way Engine::Run's final Set() would.
  size_t peak = archived_.EstimatedBytes();
  for (const auto& e : executor_.engines()) {
    peak += std::max(e->peak_bytes(), e->EstimatedBytes());
  }
  peak = std::max(peak, retired_peak_bytes_);
  for (const ShardSwapRecord& r : swap_records_) {
    peak = std::max(peak, r.peak_dual_bytes);
  }
  return peak;
}

size_t Shard::num_shared_counters() const {
  return executor_.num_shared_counters();
}

WatermarkStats Shard::watermark_stats() const {
  // Watermark/safe point come from the CURRENT engines (retired engines
  // were deliberately capped at their swap boundary); counters sum over
  // every engine this shard ever ran.
  WatermarkStats out = executor_.watermark_stats();
  out.MergeCountersFrom(retired_wm_);
  return out;
}

bool Shard::Finalized(QueryId query, WindowId window) const {
  return executor_.Finalized(query, window);
}

LiveState Shard::LiveStateSnapshot() const {
  LiveState live = executor_.LiveStateSnapshot();
  if (swap_active_) live.MergeFrom(next_engine_->LiveStateSnapshot());
  return live;
}

}  // namespace sharon::runtime
