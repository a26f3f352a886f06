// ShardedRuntime: parallel streaming execution of a Sharon workload.
//
// Sharon partitions all executor state by the workload's grouping
// attribute (§2.1 assumption 2), so groups are independent by
// construction. The runtime exploits exactly that: incoming events are
// hash-partitioned by group value across N worker shards, each owning a
// private MultiEngine instantiated from ONE shared plan — a uniform
// workload is its one-segment plan (UniformPlan), a non-uniform one is
// split into uniform segments (§7.2). Batches travel through bounded
// SPSC ring buffers; a full ring stalls the ingest thread (backpressure)
// rather than growing memory without bound. Emptied batch buffers ride a
// free ring back to the producer, so steady-state ingest allocates
// nothing (DESIGN.md "Hot-path memory layout").
//
// The ingest side itself shards: `options.ingest_partitions` creates N
// independent producers (IngestPartition), each with a private channel
// to every shard, so the one-ingest-thread serial bottleneck disappears
// for sources that are naturally split (kafka-style partitions, one
// socket per NIC queue). Multi-producer mode requires a disorder policy:
// each producer punctuates its own observed high-mark, every shard
// advances to the MINIMUM across producer frontiers, and the shard-side
// reorder buffer restores deterministic time order before the
// order-dependent executors run.
//
// Determinism: a shard sees the events of its groups in stream order
// (single producer) or releases them in time order from the reorder
// buffer (multi-producer + watermarks), and result cells are keyed by
// group, so every cell is computed by the same operations in the same
// order as in the single-threaded engine — results are bit-identical for
// any shard count and any producer count (tests/runtime_test.cc,
// tests/hotpath_diff_test.cc). See DESIGN.md for the full invariant.

#ifndef SHARON_RUNTIME_SHARDED_RUNTIME_H_
#define SHARON_RUNTIME_SHARDED_RUNTIME_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/checkpoint/checkpoint.h"
#include "src/exec/engine.h"
#include "src/exec/multi_engine.h"
#include "src/runtime/plan_swap.h"
#include "src/runtime/result_merger.h"
#include "src/runtime/runtime_stats.h"
#include "src/runtime/shard.h"
#include "src/sharing/cost_model.h"

namespace sharon::runtime {

class ShardedRuntime;

/// One ingest producer: a single-threaded routing front-end with a
/// private batch channel to every shard. Obtain via
/// ShardedRuntime::ingest_partition(i); all methods must be called from
/// ONE thread per partition (different partitions may run on different
/// threads concurrently). The runtime's own Ingest/IngestWatermark are
/// partition 0.
class IngestPartition {
 public:
  IngestPartition(const IngestPartition&) = delete;
  IngestPartition& operator=(const IngestPartition&) = delete;

  /// Routes one event to its owning shard's pending batch; pushes the
  /// batch when full, stalling (with yield) while that shard's channel
  /// is full. Events of THIS partition must be in timestamp order up to
  /// the runtime's disorder bound; watermark punctuations route to
  /// IngestWatermark.
  void Ingest(const Event& e);

  /// Broadcasts this producer's watermark to every shard, ordered after
  /// everything this partition ingested so far, and pushes it at once:
  /// the punctuation ends each shard's pending batch, so the windows it
  /// seals do not wait for that batch to fill. Shards advance to the
  /// minimum across producer frontiers.
  void IngestWatermark(Timestamp t);

  /// Pushes all non-empty pending batches regardless of occupancy.
  void Flush();

  /// This producer's counters (stable after the runtime finished).
  const IngestStats& stats() const { return stats_; }

  /// Max data-event time this partition ingested.
  Timestamp high_mark() const { return high_mark_; }

 private:
  friend class ShardedRuntime;

  IngestPartition(ShardedRuntime* runtime, size_t index);

  /// Pending batch for `shard_idx`, backed by a recycled buffer.
  EventBatch& PendingFor(size_t shard_idx);
  void PushBatch(size_t shard_idx);
  /// Appends `cut` (a watermark punctuation or a control marker) to every
  /// shard's pending batch and pushes each batch at once, so a cut always
  /// ends its batch. Data events alone fill batches up to batch_size.
  void Broadcast(const Event& cut);

  ShardedRuntime* runtime_;
  size_t index_;
  std::vector<EventBatch> pending_;        ///< per-shard fill buffers
  std::vector<uint64_t> stalls_by_shard_;  ///< folded into ShardStats at Finish
  IngestStats stats_;
  Timestamp high_mark_ = 0;
  // Telemetry handles (src/obs/), wired by the runtime at construction;
  // null when observability is off. This partition's thread is the only
  // writer.
  obs::IngestCells* obs_cells_ = nullptr;
  obs::TraceRing* obs_ring_ = nullptr;
};

/// Parallel workload executor with the same result surface as Engine.
///
/// Lifecycle: construct -> [Start -> Ingest... -> Finish] -> read results;
/// or simply Run(events, duration) which does all of it. A runtime is
/// single-use: after Finish() the workers are gone and further Ingest/Run
/// calls are ignored (construct a new runtime to process another stream).
/// `workload` (and the sharing plan sources) must outlive the runtime.
class ShardedRuntime {
 public:
  /// Uniform workload, explicit sharing plan (empty = A-Seq). The plan is
  /// compiled once into a one-segment UniformPlan shared by all shards;
  /// only this constructor builds a runtime that can hot-swap its plan.
  explicit ShardedRuntime(const Workload& workload,
                          const SharingPlan& plan = {},
                          const RuntimeOptions& options = {});

  /// Non-uniform workload: one PlanMultiEngine pass (optimizer included),
  /// shared by all shards. Requires every query to agree on the grouping
  /// attribute — windows may differ, the partitioning may not, since a
  /// shard must own all state of the groups routed to it.
  ShardedRuntime(const Workload& workload, const CostModel& cost_model,
                 const OptimizerConfig& config = {},
                 const RuntimeOptions& options = {});

  /// Non-uniform workload from a pre-computed shared plan.
  ShardedRuntime(const Workload& workload,
                 std::shared_ptr<const MultiEnginePlan> plan,
                 const RuntimeOptions& options = {});

  ~ShardedRuntime();

  ShardedRuntime(const ShardedRuntime&) = delete;
  ShardedRuntime& operator=(const ShardedRuntime&) = delete;

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  size_t num_shards() const { return shards_.size(); }
  const RuntimeOptions& options() const { return options_; }

  /// Spawns the shard workers and starts the wall clock. Idempotent and
  /// thread-safe (multi-producer drivers may race the first call).
  void Start();

  /// Number of ingest partitions (options.ingest_partitions, clamped to
  /// at least 1).
  size_t num_ingest_partitions() const { return partitions_.size(); }

  /// Producer handle of partition `i`. Each partition must be driven by
  /// ONE thread; partitions may run concurrently. Call Start() before
  /// driving partitions from their own threads, and stop all producer
  /// threads before Finish().
  IngestPartition& ingest_partition(size_t i) { return *partitions_[i]; }

  /// Single-producer convenience: partition 0's Ingest. Routes one event
  /// to its owning shard's pending batch; pushes the batch when full,
  /// stalling (with yield) while that shard's channel is full. Call from
  /// ONE thread, events in timestamp order — unless `options.disorder`
  /// is enabled, in which case arrival may trail the observed high-mark
  /// by up to max_lateness ticks (the shards reorder). Watermark
  /// punctuations (IsWatermark) route to IngestWatermark.
  void Ingest(const Event& e);

  /// Single-producer convenience: partition 0's watermark broadcast,
  /// ordered after everything partition 0 ingested so far and pushed to
  /// every shard with the call — no Flush needed, and no wait for a batch
  /// to fill: under a disorder policy a result is as fresh as the
  /// punctuation cadence plus the shards' release work. Each shard
  /// advances to the minimum across producer frontiers; the merged
  /// finalization frontier is the minimum across shards (ResultMerger).
  /// Ignored without a disorder policy.
  void IngestWatermark(Timestamp t);

  /// Outcome of a control request (RequestPlanSwap, RequestCheckpoint).
  struct ControlRequest {
    bool accepted = false;
    OpRefusal code = OpRefusal::kNone;  ///< typed refusal (when !accepted)
    std::string reason;      ///< why it was refused (when !accepted)
    uint64_t id = 0;         ///< sequence number of its kind (when accepted)
    Timestamp boundary = 0;  ///< chosen window-aligned boundary B of the cut
  };
  using SwapRequest = ControlRequest;
  using CheckpointRequest = ControlRequest;

  /// Hot-swaps the sharing plan of every shard at a watermark-aligned
  /// boundary (src/runtime/plan_swap.h). `plan` must be compiled from the
  /// SAME workload this runtime was built with (uniform constructor).
  /// The boundary is the first window close past the ingest high-mark
  /// (max over producers), so every window closing at or before it is
  /// finalized by the current engines and every later window is computed
  /// by the new plan — finalized results stay exactly-once and
  /// bit-identical to a single-plan oracle run.
  ///
  /// Works with any producer count: the marker is broadcast through EVERY
  /// partition's channels and each shard quiesces only once all channels'
  /// markers arrived (Shard::OnControlMarker). With several partitions the
  /// caller must be externally synchronized with all producer threads — no
  /// partition may have a concurrent Ingest in progress (a single thread
  /// driving all partitions satisfies this trivially).
  ///
  /// Refused (accepted=false), checked in this order, when: the runtime
  /// failed or finished (kNotRunning), was built from a MultiEnginePlan
  /// (kNotUniform), has no disorder policy (kNoDisorderPolicy — swaps
  /// need watermarks to drain the old engines), `plan` is null or foreign
  /// (kBadPlan), or a control op is in flight (kSwapInFlight,
  /// kCheckpointInFlight — one swap or checkpoint at a time). Every
  /// refusal emits a kSwapRejected trace event and bumps
  /// sharon_swaps_rejected_total.
  SwapRequest RequestPlanSwap(CompiledPlanHandle plan);

  /// Plan swaps ACCEPTED so far: counted when RequestPlanSwap accepts,
  /// rolled back when a shard refuses the staged command, and seeded from
  /// the manifest by Restore. Readable at any time from the control
  /// thread. Completed swaps are stats().CompletedSwaps().
  uint64_t swaps_requested() const { return swaps_requested_; }

  // --- checkpoint/restore (src/checkpoint/; docs/OPERATIONS.md) ---------

  /// Outcome of a completed (or refused/failed) checkpoint.
  struct CheckpointResult {
    bool ok = false;
    OpRefusal code = OpRefusal::kNone;
    std::string reason;
    uint64_t id = 0;
    Timestamp boundary = 0;
    std::string manifest_path;  ///< written LAST; presence = validity
    size_t bytes = 0;           ///< total serialized shard-file bytes
    double seconds = 0;         ///< request to manifest, wall time
  };

  /// Snapshots the COMPLETE executor state of every shard into `dir`
  /// (created if missing) and blocks until the manifest is written:
  /// RequestCheckpoint (whose marker leaves with the request), then a
  /// wait for each worker to quiesce at the marker and write its shard
  /// file, then the manifest. With several partitions the caller must be
  /// externally synchronized with all producer threads, exactly as for
  /// RequestPlanSwap. The stall is the time the workers take to drain
  /// what was queued before the marker plus the slowest shard's
  /// serialization.
  ///
  /// Refused with a typed code, checked in this order, when: the runtime
  /// failed/finished (kNotRunning), has no disorder policy
  /// (kNoDisorderPolicy — the consistent cut is defined by watermark
  /// frontiers), a control op is in flight (kCheckpointInFlight,
  /// kSwapInFlight — regression-tested in both orders in
  /// tests/checkpoint_test.cc), or `dir` cannot be created (kIoError).
  /// Every refusal emits a kCheckpointRejected trace event and bumps
  /// sharon_checkpoints_rejected_total.
  CheckpointResult Checkpoint(const std::string& dir);

  /// Asynchronous half of Checkpoint: stages a command in every shard's
  /// control slot and broadcasts the in-band control marker ordered after
  /// everything ingested so far, through every partition's channels. The
  /// marker ends each pending batch and is pushed with the request, so the
  /// checkpoint completes without a Flush or further ingest: each worker
  /// writes its file once all its channels' markers arrived, and the
  /// manifest is written at the next Checkpoint/RequestPlanSwap/
  /// RequestCheckpoint/Finish call that finds all shards done (query
  /// last_checkpoint() afterwards). Does not wait. While the checkpoint
  /// is in flight (CheckpointInFlight()), RequestPlanSwap refuses with
  /// kCheckpointInFlight.
  CheckpointRequest RequestCheckpoint(const std::string& dir);

  /// True while a requested checkpoint has not completed on every shard.
  bool CheckpointInFlight() const;

  /// Outcome of the most recently completed checkpoint (empty-path
  /// default before the first one).
  const CheckpointResult& last_checkpoint() const { return last_checkpoint_; }

  /// Everything Restore needs besides the checkpoint directory. The
  /// workload (and plan) must be the SAME the checkpointed runtime ran —
  /// restore verifies a structural fingerprint of the compiled templates
  /// and refuses a mismatch. `runtime.num_shards` may differ from the
  /// checkpointed count: group state is re-partitioned by the hash
  /// attribute. The disorder policy is taken from the manifest (it is
  /// part of the checkpoint's semantics), not from `runtime`.
  struct RestoreOptions {
    RuntimeOptions runtime;
    const Workload* workload = nullptr;
    SharingPlan plan;  ///< the incumbent sharing plan at the cut
    /// Set instead of `plan` when the checkpointed runtime was built from
    /// a MultiEnginePlan.
    std::shared_ptr<const MultiEnginePlan> multi_plan;
  };

  /// Outcome of Restore: a ready-to-ingest runtime (not yet started) or a
  /// diagnostic. Corrupt frames (CRC), truncated files, version
  /// mismatches and plan-fingerprint mismatches all refuse loudly.
  struct RestoreOutcome {
    std::unique_ptr<ShardedRuntime> runtime;
    std::string error;                ///< empty on success
    checkpoint::Manifest manifest;    ///< valid when runtime is non-null
  };

  /// Reconstructs a runtime from a checkpoint directory, re-partitioning
  /// state across `opts.runtime.num_shards` shards. Resume ingestion with
  /// the events after the checkpointed cut: finalized cells end up
  /// bit-identical to an uninterrupted run (tests/checkpoint_diff_test.cc,
  /// same and different shard counts).
  static RestoreOutcome Restore(const std::string& dir,
                                const RestoreOptions& opts);

  /// Manifest this runtime was restored from; nullptr for a fresh one.
  const checkpoint::Manifest* restored_from() const {
    return restored_ ? &*restored_ : nullptr;
  }

  /// Pushes all non-empty pending batches of every partition regardless
  /// of occupancy. Punctuations and control markers push their batches
  /// themselves, so this only matters for data events ingested since the
  /// last of them (or for a runtime without a disorder policy). With
  /// several partitions, only call once their producer threads have
  /// stopped (Finish does this for you).
  void Flush();

  /// Flushes every partition (broadcasting each producer's closing
  /// watermark under a disorder policy), signals end-of-stream, joins
  /// all workers and stops the wall clock. Results and stats are valid
  /// afterwards. Idempotent. All producer threads must have stopped
  /// before the call.
  void Finish();

  /// Convenience: Start + Ingest(all) + Finish, reporting RunStats that
  /// are comparable with Engine::Run (events_processed counts each event
  /// once per query, the paper's convention).
  RunStats Run(const std::vector<Event>& events, Duration duration);

  /// Merged result view (valid after Finish()).
  const ResultMerger& results() const { return merger_; }
  AggState Get(QueryId query, WindowId window, AttrValue group) const {
    return merger_.Get(query, window, group);
  }
  double Value(QueryId query, WindowId window, AttrValue group,
               AggFunction fn) const {
    return merger_.Value(query, window, group, fn);
  }

  /// Per-shard and aggregate counters (valid after Finish()).
  RuntimeStats stats() const;

  /// Logical state bytes across all shards (valid after Finish()).
  size_t EstimatedBytes() const;

  /// Aggregated live-state census across shards (valid after Finish()).
  LiveState LiveStateSnapshot() const;

  /// Shared counters per shard template (same for every shard).
  size_t num_shared_counters() const;

  /// The grouping attribute events are partitioned by.
  AttrIndex partition() const { return partition_; }

  // --- observability (src/obs/; enabled via RuntimeOptions::obs) --------

  /// The telemetry hub, or null when options().obs is fully off.
  obs::RuntimeTelemetry* telemetry() { return telemetry_.get(); }

  /// Snapshot of every registered metric cell. Safe to call while the
  /// workers run (cells are atomics); after Finish() the RuntimeStats
  /// rollups (busy time, stalls, eviction counters, swap figures, wall
  /// clock) are folded onto their gauges first, so the snapshot is the
  /// single export surface. Empty when observability is off.
  obs::MetricsSnapshot TelemetrySnapshot() const;

  /// Merge-sorted lifecycle trace across every ring (empty when tracing
  /// is off). Call after Finish() for a complete run, or concurrently for
  /// a live sample (in-progress slots are skipped, never torn).
  std::vector<obs::TraceEvent> DumpTrace() const;

  /// The control thread's trace ring (swap/checkpoint/re-opt lifecycle),
  /// for co-located emitters like adaptive::PlanManager. Null when
  /// tracing is off.
  obs::TraceRing* control_trace() {
    return telemetry_ ? telemetry_->control_ring() : nullptr;
  }

  /// Test-only direct shard access (e.g. planting a control command to
  /// exercise the shard-refusal unwind paths). Not part of the stable
  /// API; `i` must be a valid shard index.
  Shard& shard_for_test(size_t i) { return *shards_[i]; }

 private:
  friend class IngestPartition;

  /// Checks the common-grouping invariant and records workload size /
  /// partition attribute; sets error_ and returns false on violation.
  bool ValidateForSharding(const Workload& workload);
  /// Validates ingest options (partitions > 1 need a disorder policy)
  /// and creates the partition handles; false on violation.
  bool InitIngest();
  /// Builds one shard per options_ shard from `plan`, then ingest and
  /// telemetry; sets error_ on a failed plan or shard.
  void InitShards(std::shared_ptr<const MultiEnginePlan> plan);
  /// Builds the telemetry hub and hands every shard/partition its cells
  /// and ring (no-op when options_.obs is off). Runs after InitIngest.
  void InitTelemetry();
  /// Folds the post-join RuntimeStats rollups onto their snapshot gauges
  /// (mutates atomic cells only, hence const).
  void FoldFinalStats() const;

  /// Completes a fully-staged checkpoint whose shards all finished:
  /// collects per-shard outcomes and writes the manifest. Pre-condition:
  /// a job is pending and no shard has it in flight.
  CheckpointResult FinalizeCheckpoint();

  /// Max data-event time routed across ALL partitions — the high-mark
  /// control-op boundaries are computed from.
  Timestamp IngestHighMark() const;

  // --- the control path both RequestPlanSwap and RequestCheckpoint run --
  /// Refuses a `kind` request: bumps the kind's rejection counter and
  /// emits its rejection trace event (a = the code's number).
  ControlRequest Refuse(ControlKind kind, OpRefusal code, std::string reason);
  /// The control op holding the first busy shard slot (kNone if none).
  ControlKind InFlightKind() const;
  /// Refuses a `kind` request while a control op is in flight; otherwise
  /// seals a checkpoint whose shards all finished and returns nullopt.
  std::optional<ControlRequest> RefuseIfInFlight(ControlKind kind);
  /// Numbers `cmd`, sets its boundary past the ingest high-mark, stages
  /// it on every shard (unwinding on a shard refusal) and broadcasts one
  /// control marker per channel — the alignment set Shard::OnControlMarker
  /// waits for. Producer threads must be quiescent.
  ControlRequest StageControl(ControlCommand& cmd);

  std::string error_;
  RuntimeOptions options_;
  AttrIndex partition_ = kNoAttr;
  size_t workload_size_ = 0;
  /// The segments the shards run: a UniformPlan that follows accepted
  /// swaps, or the MultiEnginePlan the runtime was built from.
  std::shared_ptr<const MultiEnginePlan> plan_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<IngestPartition>> partitions_;
  /// Telemetry hub (src/obs/); null unless options_.obs enables it. Its
  /// writers are the shard workers and producer threads, all joined or
  /// stopped by Finish() — which ~ShardedRuntime runs first — so the
  /// hub is never destroyed under a live writer.
  std::unique_ptr<obs::RuntimeTelemetry> telemetry_;
  ResultMerger merger_;
  StopWatch wall_;
  double wall_seconds_ = 0;
  uint64_t swaps_requested_ = 0;
  /// Pending checkpoint job (ingest-thread-only, like the swap request
  /// path): set by RequestCheckpoint, cleared by FinalizeCheckpoint.
  struct CheckpointJob {
    uint64_t id = 0;
    Timestamp boundary = 0;
    std::string dir;
    StopWatch watch;
    /// Ingest figures sampled at REQUEST time — the marker cut — so an
    /// asynchronously-sealed manifest records the cut, not whatever was
    /// ingested between the request and FinalizeCheckpoint.
    Timestamp high_mark_at_cut = 0;
    uint64_t events_at_cut = 0;
  };
  std::optional<CheckpointJob> checkpoint_job_;
  uint64_t checkpoints_requested_ = 0;
  CheckpointResult last_checkpoint_;
  std::optional<checkpoint::Manifest> restored_;  ///< set by Restore
  std::mutex start_mu_;             ///< serializes the first Start()
  std::atomic<bool> started_{false};
  bool finished_ = false;
};

}  // namespace sharon::runtime

#endif  // SHARON_RUNTIME_SHARDED_RUNTIME_H_
