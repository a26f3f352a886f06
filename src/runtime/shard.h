// One shard of the sharded runtime: a worker thread that owns a private
// MultiEngine (one segment for a uniform workload, one per uniform segment
// otherwise) and drains event batches from bounded SPSC channels — one
// per ingest partition, so any number of producer threads feed the shard
// without sharing a queue.
//
// Each channel is a PAIR of rings: `full` carries filled batches from
// the producer, `free` carries the emptied buffers back for reuse, so a
// warmed-up channel moves events with zero steady-state allocations
// (DESIGN.md "Hot-path memory layout").
//
// With several producers the shard is where their watermarks merge: the
// worker tracks one frontier per channel and advances its executor to
// the MINIMUM across producer frontiers — only ticks every producer has
// vouched for are treated as complete.
//
// Control markers (swap/checkpoint, src/runtime/plan_swap.h) follow the
// same per-channel discipline: the runtime broadcasts one marker per
// channel, and the worker quiesces at the cut only once the marker of
// EVERY channel arrived. After a channel delivers its marker, events
// behind it are held in a worker-owned buffer; when the last channel
// aligns, the control operation executes at a position ordered after
// everything every producer routed before the request, and the held
// events replay in order. With one channel the first marker completes
// the alignment immediately — identical to the single-producer path.
//
// The shard never shares mutable state with other shards — the executor,
// its group state and its ResultCollector are all private — so no locks
// are taken on the event path. Results are read only after Join().

#ifndef SHARON_RUNTIME_SHARD_H_
#define SHARON_RUNTIME_SHARD_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/exec/multi_engine.h"
#include "src/runtime/plan_swap.h"
#include "src/runtime/runtime_stats.h"
#include "src/runtime/spsc_queue.h"

namespace sharon::runtime {

/// A batch of events owned by the queue while in flight.
using EventBatch = std::vector<Event>;

/// One (producer, shard) link: filled batches travel producer -> worker
/// through `full`; emptied buffers travel worker -> producer through
/// `free` for reuse. Exactly one producer thread touches full.TryPush /
/// free.TryPop; the worker touches the opposite ends.
struct BatchChannel {
  explicit BatchChannel(size_t capacity)
      // free holds every buffer the channel can have in circulation:
      // everything `full` can hold + 1 pending at the producer + 1 in
      // the worker, so a recycle push never drops (recycle_drops counts
      // the impossible case). Sized from full.capacity(), the ROUNDED-UP
      // power of two, not the requested capacity.
      : full(capacity), free(full.capacity() + 2) {}

  SpscQueue<EventBatch> full;
  SpscQueue<EventBatch> free;
};

/// Worker shard. Construct, Start(), feed each channel from its ONE
/// producer thread, then SignalDone() + Join() before reading results.
class Shard {
 public:
  /// Instantiates the shard's MultiEngine from a plan shared by all
  /// shards (one planning pass; a uniform workload is a UniformPlan).
  Shard(size_t index, std::shared_ptr<const MultiEnginePlan> plan,
        const RuntimeOptions& options);

  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }
  size_t index() const { return index_; }

  /// Spawns the worker thread. Idempotent.
  void Start();

  /// Attaches telemetry (src/obs/) BEFORE Start: `eo` feeds the executor
  /// (and any engine a later hot-swap instantiates), `cells` the shard's
  /// own counters, `ring` the lifecycle trace. All nullable, all owned by
  /// the caller (RuntimeTelemetry) and written only from the worker
  /// thread afterwards.
  void SetObservability(const obs::EngineObs* eo, obs::ShardCells* cells,
                        obs::TraceRing* ring) {
    obs_engine_ = eo;
    obs_cells_ = cells;
    obs_ring_ = ring;
    executor_.SetObservability(eo);
  }

  /// The channel of ingest partition `p` (stable address; the partition
  /// keeps pushing to it for the lifetime of the runtime).
  BatchChannel& channel(size_t p) { return *channels_[p]; }
  size_t num_channels() const { return channels_.size(); }

  /// Producer side: no more batches will be enqueued on any channel.
  void SignalDone() { done_.store(true, std::memory_order_release); }

  /// Producer side: stages `cmd` in this shard's control slot for the
  /// next in-band control marker (src/runtime/plan_swap.h). Must be
  /// followed by a marker broadcast ordered after it. False while the
  /// slot is taken — one swap or checkpoint at a time — or for a swap
  /// this shard cannot run (plan not uniform, no disorder policy, null
  /// plan).
  bool Stage(const ControlCommand& cmd);

  /// Producer side: empties a slot filled by Stage whose marker has NOT
  /// been broadcast (partial-broadcast rollback).
  void Unstage();

  /// The kind of control op holding the slot: set by Stage, cleared by
  /// Unstage or by the worker once the op completed (swap: old engine
  /// retired; checkpoint: shard file written or failed).
  ControlKind in_flight() const {
    return in_flight_.load(std::memory_order_acquire);
  }

  /// True from staging a swap until the worker retires the old engine.
  bool swap_in_flight() const { return in_flight() == ControlKind::kSwap; }

  /// Test-only: while held, the worker stops at its next aligned control
  /// marker before running the staged command, so a control op stays in
  /// flight for as long as a test needs it to (the marker itself leaves
  /// the producer with the request). SignalDone releases the hold, so
  /// Finish never waits on it. Release it before ingesting more than the
  /// channel holds: a held worker pops nothing.
  void HoldAtControlMarkerForTest(bool hold) {
    hold_at_marker_.store(hold, std::memory_order_release);
  }

  /// Outcome of the most recent completed checkpoint on this shard.
  /// Meaningful once in_flight() dropped back from kCheckpoint.
  struct CheckpointOutcome {
    std::string error;  ///< empty on success
    size_t bytes = 0;   ///< shard file size
    Timestamp watermark = kNoWatermark;  ///< merged frontier at the cut
  };
  CheckpointOutcome checkpoint_outcome() const;

  /// Blocks until the worker drained every channel and exited. Idempotent.
  void Join();

  /// Folds producer-side stall counts into this shard's stats. Called by
  /// the runtime at Finish, after the producers stopped (post-join).
  void AddProducerStalls(uint64_t n) { stats_.queue_full_stalls += n; }

  /// Highest watermark this shard's worker has applied. Safe to read
  /// while the worker runs (atomic); kNoWatermark before the first
  /// punctuation or when the runtime has no disorder policy.
  Timestamp watermark() const {
    return watermark_.load(std::memory_order_acquire);
  }

  // --- post-Join reads -------------------------------------------------

  const ShardStats& stats() const { return stats_; }

  /// Watermark/eviction counters of this shard's executor (post-join).
  WatermarkStats watermark_stats() const;

  /// True once the executor finalized `window` of `query` (post-join).
  bool Finalized(QueryId query, WindowId window) const;

  /// Live-state census of this shard's executor (post-join).
  LiveState LiveStateSnapshot() const;

  /// Result cell for an ORIGINAL-workload query id.
  AggState Get(QueryId query, WindowId window, AttrValue group) const;

  /// Visits every result cell, with cell keys in ORIGINAL query ids.
  /// Iteration order is unspecified.
  void ForEachCell(
      const std::function<void(const ResultKey&, const AggState&)>& fn) const;

  size_t NumCells() const;
  size_t EstimatedBytes() const;
  /// Peak logical state bytes (Engine::peak_bytes convention, summed over
  /// segments). Includes retired pre-swap engines and the dual-run
  /// overlap.
  size_t PeakBytes() const;
  size_t num_shared_counters() const;

  /// Completed plan swaps this shard executed, in order (post-join).
  const std::vector<ShardSwapRecord>& swap_records() const {
    return swap_records_;
  }

  // --- checkpoint restore hooks (pre-Start only) ------------------------
  // Used exclusively by ShardedRuntime::Restore before the worker thread
  // exists, so none of them synchronize.

  MultiEngine& restore_executor() { return executor_; }
  ResultCollector& restore_archive() { return archived_; }
  void RestoreRetiredCounters(const WatermarkStats& wm) {
    retired_wm_.MergeCountersFrom(wm);
  }

  /// Seeds every producer frontier and the published shard watermark with
  /// the checkpointed merged frontier, so a stale post-restore
  /// punctuation is treated exactly as the uninterrupted run would have
  /// treated it (regression accounting instead of a frontier rewind).
  void RestoreFrontier(Timestamp merged);

 private:
  void WorkerLoop();
  void Process(const EventBatch& batch, size_t channel_idx);
  /// Dispatches one event from channel `p`: control-marker alignment,
  /// watermark merging, or executor delivery (data). Also the replay path
  /// for events held behind an aligned channel's marker.
  void HandleEvent(const Event& e, size_t p);
  /// Folds a control marker from channel `p` into the alignment state;
  /// runs the command in the control slot once every channel's marker
  /// arrived, then replays the held events.
  void OnControlMarker(const Event& e, size_t p);
  /// Returns the emptied buffer to channel `p`'s free ring.
  void Recycle(size_t p, EventBatch&& batch);
  /// Applies producer `p`'s watermark `t` and advances the executor to
  /// the new minimum over producer frontiers (if it moved).
  void MergeWatermark(size_t p, Timestamp t);

  // --- plan hot-swap (worker thread only; see plan_swap.h) -------------
  // A swap replaces segment 0, the one segment of a uniform plan.
  void BeginSwap(ControlCommand cmd);
  void ApplyWatermark(Timestamp t);
  void RetireOldEngine();
  Timestamp SwapWatermarkCap() const {
    return swap_.boundary + disorder_.max_lateness;
  }

  size_t index_;
  std::string error_;
  /// One channel per ingest partition (created at construction; the
  /// vector itself is immutable afterwards).
  std::vector<std::unique_ptr<BatchChannel>> channels_;
  /// Worker-owned: highest watermark seen per channel (kNoWatermark
  /// until the producer punctuates) and the merged minimum applied.
  std::vector<Timestamp> channel_frontier_;
  Timestamp merged_watermark_ = kNoWatermark;
  // Control-marker alignment (worker-owned). marker_seen_[p] is set when
  // channel p delivered its marker for the pending control op;
  // markers_seen_ counts the set flags. Events arriving on an aligned
  // channel are parked in held_[p] and replayed once the operation ran.
  std::vector<uint8_t> marker_seen_;
  size_t markers_seen_ = 0;
  std::vector<EventBatch> held_;
  uint64_t batch_data_events_ = 0;  ///< data events of the batch in Process
  /// The worker's executor. Its plan() never changes, so the producer
  /// thread may read it in Stage; swap retirement replaces segment 0.
  MultiEngine executor_;
  std::thread thread_;
  std::atomic<bool> done_{false};
  std::atomic<Timestamp> watermark_{kNoWatermark};
  bool started_ = false;
  ShardStats stats_;
  DisorderPolicy disorder_;

  // Telemetry handles (src/obs/); null when observability is off. The
  // worker thread is the only writer after Start.
  const obs::EngineObs* obs_engine_ = nullptr;
  obs::ShardCells* obs_cells_ = nullptr;
  obs::TraceRing* obs_ring_ = nullptr;

  /// Worker thread only: serializes the executor state at the marker
  /// and writes this shard's file of checkpoint `cmd` (src/checkpoint/).
  /// Workers write their files in parallel; the coordinator only writes
  /// the manifest afterwards.
  void WriteCheckpoint(const ControlCommand& cmd);

  // Control slot. The producer stages under control_mu_; the worker owns
  // everything else. in_flight_ is the cross-thread handshake: set by the
  // producer on Stage, cleared by the worker when the op completes. The
  // checkpoint outcome is written under control_mu_ before it clears.
  mutable std::mutex control_mu_;
  ControlCommand staged_;  ///< kind kNone while the slot is empty
  std::atomic<ControlKind> in_flight_{ControlKind::kNone};
  std::atomic<bool> hold_at_marker_{false};  ///< HoldAtControlMarkerForTest
  CheckpointOutcome checkpoint_outcome_;
  bool swap_active_ = false;       ///< worker picked the command up
  ControlCommand swap_;            ///< the active swap
  Timestamp tee_from_ = 0;         ///< overlap start B + slide - length
  std::unique_ptr<Engine> next_engine_;
  StopWatch swap_watch_;
  ShardSwapRecord swap_record_;    ///< being accumulated for the active swap
  std::vector<ShardSwapRecord> swap_records_;

  // Results of retired engines (windows closing <= their boundary) plus
  // their folded-in counters; owned by the worker, read post-join.
  ResultCollector archived_;
  WatermarkStats retired_wm_;      ///< counter fields only (sums)
  size_t retired_peak_bytes_ = 0;  ///< max peak among retired engines
};

}  // namespace sharon::runtime

#endif  // SHARON_RUNTIME_SHARD_H_
