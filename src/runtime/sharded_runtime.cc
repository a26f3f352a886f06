#include "src/runtime/sharded_runtime.h"

#include <algorithm>
#include <filesystem>
#include <thread>

#include "src/runtime/partition.h"

namespace sharon::runtime {

// --- IngestPartition -------------------------------------------------------

IngestPartition::IngestPartition(ShardedRuntime* runtime, size_t index)
    : runtime_(runtime),
      index_(index),
      pending_(runtime->shards_.size()),
      stalls_by_shard_(runtime->shards_.size(), 0) {}

EventBatch& IngestPartition::PendingFor(size_t shard_idx) {
  EventBatch& batch = pending_[shard_idx];
  if (batch.capacity() == 0) {
    // Prefer a buffer the worker recycled through the free ring; fall
    // back to a fresh allocation (warm-up, or a worker that has not
    // returned buffers yet).
    BatchChannel& ch = runtime_->shards_[shard_idx]->channel(index_);
    if (ch.free.TryPop(batch)) {
      ++stats_.batches_recycled;
      if (obs_cells_ && obs_cells_->batches_recycled) {
        obs_cells_->batches_recycled->Inc();
      }
    } else {
      ++stats_.batch_allocs;
      if (obs_cells_ && obs_cells_->batch_allocs) {
        obs_cells_->batch_allocs->Inc();
      }
    }
    if (batch.capacity() < runtime_->options_.batch_size) {
      batch.reserve(runtime_->options_.batch_size);
    }
  }
  return batch;
}

void IngestPartition::PushBatch(size_t shard_idx) {
  EventBatch& batch = pending_[shard_idx];
  if (batch.empty()) return;
  Shard& shard = *runtime_->shards_[shard_idx];
  BatchChannel& ch = shard.channel(index_);
  bool stalled = false;
  while (!ch.full.TryPush(std::move(batch))) {
    ++stalls_by_shard_[shard_idx];
    ++stats_.queue_full_stalls;
    if (obs_cells_ && obs_cells_->queue_full_stalls) {
      obs_cells_->queue_full_stalls->Inc();
    }
    if (!stalled && obs_ring_) {
      // One trace event per stall EPISODE (the counter tracks the spins):
      // the episode marks backpressure onset, which is what lines up
      // against watermark stalls in the merged trace.
      obs_ring_->Emit(obs::TraceKind::kQueueFullStall, kNoWatermark,
                      static_cast<int64_t>(shard_idx));
      stalled = true;
    }
    std::this_thread::yield();
  }
  ++stats_.batches;
  if (obs_cells_ && obs_cells_->batches) obs_cells_->batches->Inc();
  batch = EventBatch();  // next PendingFor pulls a recycled buffer
}

void IngestPartition::Ingest(const Event& e) {
  ShardedRuntime& rt = *runtime_;
  // A failed runtime has no shards to index; a finished one has no
  // workers left to drain the queues, so pushing would livelock.
  if (!rt.ok() || rt.finished_) return;
  if (IsWatermark(e)) {
    IngestWatermark(e.time);
    return;
  }
  if (!rt.started_.load(std::memory_order_acquire)) {
    rt.Start();  // otherwise a full channel would stall forever
  }
  const size_t idx = ShardIndexFor(GroupOf(e, rt.partition_), rt.shards_.size());
  EventBatch& batch = PendingFor(idx);
  batch.push_back(e);
  ++stats_.events;
  if (obs_cells_ && obs_cells_->events) obs_cells_->events->Inc();
  if (e.time > high_mark_) high_mark_ = e.time;
  if (batch.size() >= rt.options_.batch_size) PushBatch(idx);
}

void IngestPartition::IngestWatermark(Timestamp t) {
  ShardedRuntime& rt = *runtime_;
  if (!rt.ok() || rt.finished_) return;
  // Without a disorder policy the executors ignore watermarks and the
  // shard.h contract keeps shard watermark() at kNoWatermark — drop the
  // punctuation here so a pre-stamped feed cannot fake a frontier.
  if (!rt.options_.disorder.enabled) return;
  if (!rt.started_.load(std::memory_order_acquire)) rt.Start();
  // Shards fold the punctuation into their per-producer frontier and
  // advance to the minimum.
  Broadcast(WatermarkEvent(t));
  ++stats_.watermarks;
  if (obs_cells_ && obs_cells_->watermarks) obs_cells_->watermarks->Inc();
}

void IngestPartition::Broadcast(const Event& cut) {
  // Appending to every pending batch orders the cut after all events THIS
  // producer ingested before it — on every shard, through the same
  // channels the events travel. Pushing at once ends the batch there: a
  // cut only declares a prefix of the stream complete, so holding it back
  // until the batch fills would delay every window it seals and gain
  // nothing.
  for (size_t i = 0; i < pending_.size(); ++i) {
    PendingFor(i).push_back(cut);
    PushBatch(i);
  }
}

void IngestPartition::Flush() {
  for (size_t i = 0; i < pending_.size(); ++i) PushBatch(i);
}

// --- ShardedRuntime --------------------------------------------------------

ShardedRuntime::ShardedRuntime(const Workload& workload,
                               const SharingPlan& plan,
                               const RuntimeOptions& options)
    : options_(options) {
  if (!ValidateForSharding(workload)) return;
  CompiledPlanHandle compiled = CompilePlanShared(workload, plan, &error_);
  if (compiled) InitShards(UniformPlan(workload, std::move(compiled)));
}

ShardedRuntime::ShardedRuntime(const Workload& workload,
                               const CostModel& cost_model,
                               const OptimizerConfig& config,
                               const RuntimeOptions& options)
    : options_(options) {
  // Validate before PlanMultiEngine: planning runs the optimizer per
  // segment, far too expensive to spend on a workload we then reject.
  if (!ValidateForSharding(workload)) return;
  InitShards(PlanMultiEngine(workload, cost_model, config));
}

ShardedRuntime::ShardedRuntime(const Workload& workload,
                               std::shared_ptr<const MultiEnginePlan> plan,
                               const RuntimeOptions& options)
    : options_(options) {
  if (ValidateForSharding(workload)) InitShards(std::move(plan));
}

bool ShardedRuntime::ValidateForSharding(const Workload& workload) {
  if (workload.empty()) {
    error_ = "empty workload";
    return false;
  }
  workload_size_ = workload.size();
  // All state of a group must live on the group's shard (DESIGN.md), so
  // every segment has to partition by the same attribute.
  partition_ = workload.queries().front().partition_attr;
  for (const Query& q : workload.queries()) {
    if (q.partition_attr != partition_) {
      error_ =
          "sharding requires a common grouping attribute across queries; "
          "this workload mixes partition attributes (run segments in "
          "separate runtimes instead)";
      return false;
    }
  }
  return true;
}

bool ShardedRuntime::InitIngest() {
  if (options_.ingest_partitions == 0) options_.ingest_partitions = 1;
  if (options_.ingest_partitions > 1 && !options_.disorder.enabled) {
    // Without the reorder buffer a group's events would reach its shard
    // in whatever order the producers interleave — silently
    // nondeterministic. Refuse loudly instead.
    error_ =
        "ingest_partitions > 1 requires a disorder policy: only the "
        "watermark reorder buffer restores deterministic time order when "
        "several producers interleave (src/common/watermark.h)";
    return false;
  }
  partitions_.reserve(options_.ingest_partitions);
  for (size_t i = 0; i < options_.ingest_partitions; ++i) {
    partitions_.push_back(
        std::unique_ptr<IngestPartition>(new IngestPartition(this, i)));
  }
  return true;
}

void ShardedRuntime::InitShards(std::shared_ptr<const MultiEnginePlan> plan) {
  if (!plan || !plan->ok()) {
    error_ = plan ? plan->error : "null multi-engine plan";
    return;
  }
  plan_ = std::move(plan);
  const size_t n = options_.ResolvedShards();
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>(i, plan_, options_));
    if (!shards_.back()->ok()) {
      error_ = shards_.back()->error();
      return;
    }
  }
  if (!InitIngest()) return;
  InitTelemetry();
  merger_ = ResultMerger(&shards_, partition_);
}

void ShardedRuntime::InitTelemetry() {
  if (!options_.obs.enabled()) return;
  telemetry_ = std::make_unique<obs::RuntimeTelemetry>(
      shards_.size(), partitions_.size(), options_.obs);
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i]->SetObservability(telemetry_->engine_obs(i),
                                 &telemetry_->shard_cells(i),
                                 telemetry_->shard_ring(i));
  }
  for (size_t p = 0; p < partitions_.size(); ++p) {
    partitions_[p]->obs_cells_ = &telemetry_->ingest_cells(p);
    partitions_[p]->obs_ring_ = telemetry_->partition_ring(p);
  }
}

ShardedRuntime::~ShardedRuntime() {
  if (started_.load(std::memory_order_acquire) && !finished_) Finish();
}

void ShardedRuntime::Start() {
  if (!ok()) return;
  std::lock_guard<std::mutex> lock(start_mu_);
  if (started_.load(std::memory_order_relaxed)) return;
  for (auto& shard : shards_) shard->Start();
  wall_.Reset();
  started_.store(true, std::memory_order_release);
}

void ShardedRuntime::Ingest(const Event& e) {
  if (partitions_.empty()) return;  // failed construction
  partitions_[0]->Ingest(e);
}

void ShardedRuntime::IngestWatermark(Timestamp t) {
  if (partitions_.empty()) return;
  partitions_[0]->IngestWatermark(t);
}

ShardedRuntime::SwapRequest ShardedRuntime::RequestPlanSwap(
    CompiledPlanHandle plan) {
  constexpr ControlKind kSwap = ControlKind::kSwap;
  if (!ok() || finished_) {
    return Refuse(kSwap, OpRefusal::kNotRunning, "runtime not running");
  }
  if (!plan_->uniform()) {
    return Refuse(
        kSwap, OpRefusal::kNotUniform,
        "plan swap requires a runtime built from a sharing plan (a "
        "MultiEnginePlan re-plans per segment; rebuild the runtime instead)");
  }
  if (!options_.disorder.enabled) {
    return Refuse(
        kSwap, OpRefusal::kNoDisorderPolicy,
        "plan swap requires a disorder policy: watermarks are what drain "
        "and retire the old engines");
  }
  if (!plan) return Refuse(kSwap, OpRefusal::kBadPlan, "null compiled plan");
  const MultiEnginePlan::Segment& incumbent = plan_->segments.front();
  if (plan->partition != partition_ ||
      !(plan->window == incumbent.compiled->window)) {
    return Refuse(kSwap, OpRefusal::kBadPlan,
                  "new plan was compiled for a different workload");
  }
  if (auto busy = RefuseIfInFlight(kSwap)) return *busy;
  ControlCommand cmd;
  cmd.kind = kSwap;
  cmd.plan = std::move(plan);
  const SwapRequest req = StageControl(cmd);
  // The accepted plan is the incumbent from here on. A checkpoint is only
  // allowed once no swap is in flight — i.e. once every shard runs THIS
  // plan — so the plan the checkpoint fingerprints must follow the swap,
  // not stay at the constructor plan. (The segment keeps its workload
  // copy: engines read it only for Run's per-query event count.)
  if (req.accepted) {
    plan_ = UniformPlan(incumbent.workload, std::move(cmd.plan));
  }
  return req;
}

void ShardedRuntime::Flush() {
  for (auto& partition : partitions_) partition->Flush();
}

Timestamp ShardedRuntime::IngestHighMark() const {
  Timestamp high_mark = 0;
  for (const auto& partition : partitions_) {
    high_mark = std::max(high_mark, partition->high_mark());
  }
  return high_mark;
}

// --- the shared control path --------------------------------------------

ShardedRuntime::ControlRequest ShardedRuntime::Refuse(ControlKind kind,
                                                      OpRefusal code,
                                                      std::string reason) {
  // Every refusal is visible to operators: PlanManager counts only its
  // own rejections, so without this the runtime-side refusals (direct
  // callers, races with in-flight ops) would be silent.
  if (telemetry_) {
    const bool swap = kind == ControlKind::kSwap;
    obs::ControlCells& cc = telemetry_->control_cells();
    obs::CounterCell* rejected =
        swap ? cc.swaps_rejected : cc.checkpoints_rejected;
    if (rejected) rejected->Inc();
    if (obs::TraceRing* ring = telemetry_->control_ring()) {
      ring->Emit(swap ? obs::TraceKind::kSwapRejected
                      : obs::TraceKind::kCheckpointRejected,
                 kNoWatermark, static_cast<int64_t>(code));
    }
  }
  ControlRequest req;
  req.code = code;
  req.reason = std::move(reason);
  return req;
}

ControlKind ShardedRuntime::InFlightKind() const {
  for (const auto& shard : shards_) {
    const ControlKind kind = shard->in_flight();
    if (kind != ControlKind::kNone) return kind;
  }
  return ControlKind::kNone;
}

std::optional<ShardedRuntime::ControlRequest>
ShardedRuntime::RefuseIfInFlight(ControlKind kind) {
  // One control slot per shard holds either op, so whichever is in flight
  // refuses both: a checkpoint cut mid-dual-run would have to serialize
  // two engines plus the tee position, and a swap staged while a
  // checkpoint marker is still in the queues would let that marker land
  // mid-dual-run. Callers retry once the op completed.
  const ControlKind busy = InFlightKind();
  if (busy == ControlKind::kSwap) {
    return Refuse(kind, OpRefusal::kSwapInFlight,
                  "plan swap still in flight: retry once it retires");
  }
  if (checkpoint_job_) {
    if (busy == ControlKind::kCheckpoint) {
      return Refuse(kind, OpRefusal::kCheckpointInFlight,
                    "checkpoint still in flight: its marker has not "
                    "reached every shard yet");
    }
    FinalizeCheckpoint();  // all shards done — seal it first
  }
  return std::nullopt;
}

ShardedRuntime::ControlRequest ShardedRuntime::StageControl(
    ControlCommand& cmd) {
  if (!started_.load(std::memory_order_acquire)) Start();
  uint64_t& requested = cmd.kind == ControlKind::kSwap
                            ? swaps_requested_
                            : checkpoints_requested_;
  cmd.id = ++requested;
  // Boundary: the close of the last window whose start covers the ingest
  // high-mark — the MAX over all producers' high marks, since with
  // several partitions each has routed events up to its own. Every event
  // routed so far has time <= that high-mark, and the first window
  // closing after B starts at B + slide - length > high-mark — so no
  // event of a new-plan window has been routed yet, and the overlap tee
  // (shard.cc) sees all of them. A MultiEnginePlan's segments may have
  // several grids; its checkpoints record the high-mark itself.
  const Timestamp high_mark = IngestHighMark();
  const WindowSpec& window = plan_->segments.front().compiled->window;
  cmd.boundary = plan_->uniform() && window.Valid()
                     ? window.WindowEnd(window.LastWindowCovering(high_mark))
                     : high_mark;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!shards_[i]->Stage(cmd)) {
      // Un-arm the shards already staged: their markers were not
      // broadcast yet, so unstaging producer-side is safe and leaves no
      // shard with its control slot stuck.
      for (size_t j = 0; j < i; ++j) shards_[j]->Unstage();
      --requested;
      return Refuse(cmd.kind, OpRefusal::kShardRefused,
                    "shard refused the staged command");
    }
  }
  // The request is traced before its markers leave: a worker may pick a
  // marker up (and trace its side of the op) as soon as it is pushed.
  if (telemetry_) {
    obs::ControlCells& cc = telemetry_->control_cells();
    obs::TraceRing* ring = telemetry_->control_ring();
    const int64_t id = static_cast<int64_t>(cmd.id);
    if (cmd.kind == ControlKind::kSwap) {
      if (cc.swap_requests) cc.swap_requests->Inc();
      if (ring) {
        ring->Emit(obs::TraceKind::kSwapRequested, kNoWatermark, id);
        ring->Emit(obs::TraceKind::kSwapBoundary, cmd.boundary, id);
      }
    } else {
      if (cc.checkpoint_requests) cc.checkpoint_requests->Inc();
      if (ring) {
        ring->Emit(obs::TraceKind::kCheckpointRequested, cmd.boundary, id);
      }
    }
  }
  // In-band markers, ordered after everything ingested so far — same
  // broadcast as watermarks, through EVERY partition's channels. Each
  // shard runs the command only once the marker of every channel arrived
  // (Shard::OnControlMarker), so the cut is ordered after everything
  // every producer routed. The caller must have externally synchronized
  // with all producer threads (see the header contract).
  const Event marker = ControlMarkerEvent();
  for (auto& partition : partitions_) partition->Broadcast(marker);
  ControlRequest req;
  req.accepted = true;
  req.id = cmd.id;
  req.boundary = cmd.boundary;
  return req;
}

// --- checkpoint/restore ------------------------------------------------------

bool ShardedRuntime::CheckpointInFlight() const {
  return checkpoint_job_ && InFlightKind() == ControlKind::kCheckpoint;
}

ShardedRuntime::CheckpointRequest ShardedRuntime::RequestCheckpoint(
    const std::string& dir) {
  constexpr ControlKind kCheckpoint = ControlKind::kCheckpoint;
  if (!ok() || finished_) {
    return Refuse(kCheckpoint, OpRefusal::kNotRunning, "runtime not running");
  }
  if (!options_.disorder.enabled) {
    return Refuse(
        kCheckpoint, OpRefusal::kNoDisorderPolicy,
        "checkpoint requires a disorder policy: the consistent cut is "
        "defined by watermark frontiers (src/checkpoint/checkpoint.h)");
  }
  if (auto busy = RefuseIfInFlight(kCheckpoint)) return *busy;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Refuse(kCheckpoint, OpRefusal::kIoError,
                  "cannot create checkpoint directory " + dir + ": " +
                      ec.message());
  }
  ControlCommand cmd;
  cmd.kind = kCheckpoint;
  cmd.num_shards = shards_.size();
  cmd.dir = dir;
  const CheckpointRequest req = StageControl(cmd);
  if (!req.accepted) return req;
  checkpoint_job_.emplace();
  checkpoint_job_->id = cmd.id;
  checkpoint_job_->boundary = cmd.boundary;
  checkpoint_job_->dir = dir;
  checkpoint_job_->watch.Reset();
  checkpoint_job_->high_mark_at_cut = IngestHighMark();
  for (const auto& partition : partitions_) {
    checkpoint_job_->events_at_cut += partition->stats().events;
  }
  return req;
}

ShardedRuntime::CheckpointResult ShardedRuntime::FinalizeCheckpoint() {
  CheckpointResult res;
  res.id = checkpoint_job_->id;
  res.boundary = checkpoint_job_->boundary;
  const std::string dir = checkpoint_job_->dir;
  Timestamp merged = kWatermarkMax;
  uint64_t total_bytes = 0;
  for (const auto& shard : shards_) {
    const Shard::CheckpointOutcome outcome = shard->checkpoint_outcome();
    if (!outcome.error.empty()) {
      res.code = OpRefusal::kIoError;
      res.reason = "shard " + std::to_string(shard->index()) + ": " +
                   outcome.error;
      checkpoint_job_.reset();
      last_checkpoint_ = res;
      return res;
    }
    total_bytes += outcome.bytes;
    // Min over shard frontiers; one shard without a frontier pins the
    // merged value at "none" (kNoWatermark is negative, so min sticks).
    merged = std::min(merged, outcome.watermark);
  }
  checkpoint::Manifest m;
  m.checkpoint_id = res.id;
  m.boundary = res.boundary;
  m.num_shards = shards_.size();
  m.num_segments = plan_->segments.size();
  m.partition = partition_;
  m.plan_fingerprint = checkpoint::PlanFingerprint(*plan_);
  m.disorder = options_.disorder;
  m.merged_watermark = merged == kWatermarkMax ? kNoWatermark : merged;
  m.ingest_high_mark = checkpoint_job_->high_mark_at_cut;
  m.swaps_requested = swaps_requested_;
  m.events_ingested = checkpoint_job_->events_at_cut;
  const std::string manifest_path =
      dir + "/" + checkpoint::kManifestFileName;
  const std::string err = checkpoint::SaveManifest(m, manifest_path);
  if (!err.empty()) {
    res.code = OpRefusal::kIoError;
    res.reason = err;
    checkpoint_job_.reset();
    last_checkpoint_ = res;
    return res;
  }
  res.ok = true;
  res.manifest_path = manifest_path;
  res.bytes = total_bytes;
  res.seconds = checkpoint_job_->watch.ElapsedSeconds();
  checkpoint_job_.reset();
  last_checkpoint_ = res;
  if (telemetry_) {
    obs::ControlCells& cc = telemetry_->control_cells();
    if (cc.checkpoints_sealed) cc.checkpoints_sealed->Inc();
    if (cc.checkpoint_bytes) cc.checkpoint_bytes->Add(total_bytes);
    if (obs::TraceRing* ring = telemetry_->control_ring()) {
      ring->Emit(obs::TraceKind::kCheckpointSealed, res.boundary,
                 static_cast<int64_t>(res.id),
                 static_cast<int64_t>(total_bytes));
    }
  }
  return res;
}

ShardedRuntime::CheckpointResult ShardedRuntime::Checkpoint(
    const std::string& dir) {
  const CheckpointRequest req = RequestCheckpoint(dir);
  if (!req.accepted) {
    CheckpointResult res;
    res.code = req.code;
    res.reason = req.reason;
    return res;
  }
  // The request already pushed every partition's marker to the workers.
  while (CheckpointInFlight()) std::this_thread::yield();
  return FinalizeCheckpoint();
}

ShardedRuntime::RestoreOutcome ShardedRuntime::Restore(
    const std::string& dir, const RestoreOptions& opts) {
  RestoreOutcome out;
  checkpoint::Manifest m;
  std::string err = checkpoint::LoadManifest(
      dir + "/" + checkpoint::kManifestFileName, &m);
  if (!err.empty()) {
    out.error = "checkpoint manifest: " + err;
    return out;
  }
  if (!opts.workload) {
    out.error = "RestoreOptions::workload is required";
    return out;
  }
  RuntimeOptions ropts = opts.runtime;
  // The policy is part of the checkpoint's semantics (it decides what is
  // late and when windows seal); restoring under a different one would
  // silently change results.
  ropts.disorder = m.disorder;
  std::unique_ptr<ShardedRuntime> rt(
      opts.multi_plan
          ? new ShardedRuntime(*opts.workload, opts.multi_plan, ropts)
          : new ShardedRuntime(*opts.workload, opts.plan, ropts));
  if (!rt->ok()) {
    out.error = rt->error();
    return out;
  }
  if (checkpoint::PlanFingerprint(*rt->plan_) != m.plan_fingerprint) {
    out.error =
        "plan fingerprint mismatch: the supplied workload/plan compiles to "
        "different executor templates than the checkpointed ones";
    return out;
  }
  const size_t num_segments = static_cast<size_t>(m.num_segments);
  const size_t new_shards = rt->shards_.size();
  const bool same_topology = new_shards == m.num_shards;

  // The engine of (new shard j, segment s).
  auto engine_of = [&](size_t j, size_t s) {
    return rt->shards_[j]->restore_executor().mutable_segment_engine(s);
  };

  // Pass 1: decode every old shard file (integrity-checked frame by
  // frame), so scalars can be composed across old shards before anything
  // is applied.
  std::vector<checkpoint::ShardCheckpointData> data(m.num_shards);
  for (size_t i = 0; i < m.num_shards; ++i) {
    std::vector<uint8_t> bytes;
    const std::string file = dir + "/" + checkpoint::ShardFileName(i);
    err = checkpoint::ReadFileBytes(file, &bytes);
    if (err.empty()) err = checkpoint::DecodeShardCheckpoint(bytes, &data[i]);
    if (err.empty() && (data[i].shard_index != i ||
                        data[i].checkpoint_id != m.checkpoint_id ||
                        data[i].num_shards != m.num_shards ||
                        data[i].segments.size() != num_segments)) {
      err = "shard header does not match the manifest";
    }
    if (!err.empty()) {
      out.error = file + ": " + err;
      return out;
    }
  }

  // Pass 2: scalars. Frontier fields are identical across the shards of a
  // consistent cut (every shard saw the same punctuation sequence), so
  // they restore onto every new engine; high marks are per-shard data and
  // fold by MAX; monotone counters are per-shard sums — with an unchanged
  // topology they restore per index, otherwise they cannot be split by
  // group and land on new shard 0 (rollups stay exact, per-shard
  // attribution does not — see docs/OPERATIONS.md).
  for (size_t s = 0; s < num_segments; ++s) {
    Engine::ScalarState base = data[0].segments[s].scalars;
    for (size_t i = 1; i < data.size(); ++i) {
      const Engine::ScalarState& o = data[i].segments[s].scalars;
      base.now = std::max(base.now, o.now);
      base.high_mark = std::max(base.high_mark, o.high_mark);
    }
    for (size_t j = 0; j < new_shards; ++j) {
      Engine::ScalarState applied = base;
      if (same_topology) {
        applied = data[j].segments[s].scalars;
        applied.now = base.now;
        applied.high_mark = base.high_mark;
      } else {
        WatermarkStats counters;  // zero counters, frontier fields kept
        counters.watermark = base.wm.watermark;
        counters.safe_point = base.wm.safe_point;
        applied.wm = counters;
        applied.events_since_sweep = 0;
        if (j == 0) {
          for (const auto& d : data) {
            applied.wm.MergeCountersFrom(d.segments[s].scalars.wm);
          }
        }
      }
      engine_of(j, s)->RestoreScalarState(applied);
    }
  }

  // Pass 3: group-keyed state, re-partitioned with the SAME hash the
  // ingest path routes by — the sharding invariant (all state of a group
  // on the group's shard) holds again by construction.
  for (size_t i = 0; i < data.size(); ++i) {
    for (size_t s = 0; s < num_segments; ++s) {
      const auto& seg = data[i].segments[s];
      for (const auto& [group, payload] : seg.groups) {
        serde::BinaryReader r(payload);
        const size_t j = ShardIndexFor(group, new_shards);
        err = engine_of(j, s)->LoadGroupState(group, r);
        if (!err.empty()) {
          out.error = checkpoint::ShardFileName(i) + ": group " +
                      std::to_string(group) + ": " + err;
          return out;
        }
      }
      for (const checkpoint::CellRecord& c : seg.cells) {
        Engine* e = engine_of(ShardIndexFor(c.group, new_shards), s);
        ResultCollector& store =
            c.store == 0 ? e->mutable_staged_results() : e->mutable_results();
        store.RestoreCell(c.query, c.window, c.group, c.state);
      }
      for (const Event& e : seg.buffered) {
        const size_t j =
            ShardIndexFor(GroupOf(e, rt->partition_), new_shards);
        engine_of(j, s)->RestoreBufferedEvent(e);
      }
    }
    for (const checkpoint::CellRecord& c : data[i].archive) {
      rt->shards_[ShardIndexFor(c.group, new_shards)]
          ->restore_archive()
          .RestoreCell(c.query, c.window, c.group, c.state);
    }
    const size_t retired_target = same_topology ? i : 0;
    rt->shards_[retired_target]->RestoreRetiredCounters(data[i].retired);
  }

  // Pass 4: frontiers and runtime-level baselines.
  for (auto& shard : rt->shards_) shard->RestoreFrontier(m.merged_watermark);
  rt->swaps_requested_ = m.swaps_requested;
  // Checkpoint ids keep counting across incarnations, so two checkpoints
  // of one logical deployment never share an id (mixing shard files from
  // different checkpoints then fails the header validation above).
  rt->checkpoints_requested_ = m.checkpoint_id;
  // The routed high-mark survives so a post-restore plan swap picks its
  // boundary past everything the PREVIOUS incarnation routed — on every
  // partition, since the boundary is the max over producer high marks and
  // the restored topology may have any producer count.
  for (auto& partition : rt->partitions_) {
    partition->high_mark_ = m.ingest_high_mark;
  }
  rt->restored_ = m;
  out.manifest = m;
  out.runtime = std::move(rt);
  return out;
}

void ShardedRuntime::Finish() {
  if (!started_.load(std::memory_order_acquire) || finished_) return;
  if (options_.disorder.enabled && options_.disorder.close_on_finish) {
    // Closing watermark from EVERY producer: the per-shard minimum over
    // producer frontiers reaches kWatermarkMax, releasing every reorder
    // buffer and finalizing every window, so results() is complete.
    for (auto& partition : partitions_) {
      partition->IngestWatermark(kWatermarkMax);
    }
  }
  Flush();
  for (auto& shard : shards_) shard->SignalDone();
  for (auto& shard : shards_) shard->Join();
  // Producer-side stall counts become visible in ShardStats only now,
  // post-join, so readers never race the producers.
  for (auto& partition : partitions_) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      shards_[s]->AddProducerStalls(partition->stalls_by_shard_[s]);
    }
  }
  wall_seconds_ = wall_.ElapsedSeconds();
  finished_ = true;
  // A checkpoint requested asynchronously (RequestCheckpoint without the
  // blocking wrapper) completes here at the latest: the workers are
  // joined, so every marker was processed and every shard file written —
  // seal the manifest (query last_checkpoint() for the outcome).
  if (checkpoint_job_) FinalizeCheckpoint();
}

RunStats ShardedRuntime::Run(const std::vector<Event>& events,
                             Duration duration) {
  RunStats stats;
  if (!ok() || finished_) return stats;
  Start();
  for (const Event& e : events) Ingest(e);
  Finish();
  stats.wall_seconds = wall_seconds_;
  // Per-query convention of Engine::Run: each event counts once per query.
  stats.events_processed = events.size() * workload_size_;
  stats.results_emitted = merger_.NumCells();
  // Engine::Run convention: report the PEAK, not the post-sweep figure.
  size_t peak = 0;
  for (const auto& shard : shards_) peak += shard->PeakBytes();
  stats.peak_state_bytes = peak;
  (void)duration;
  return stats;
}

RuntimeStats ShardedRuntime::stats() const {
  RuntimeStats out;
  out.shards.reserve(shards_.size());
  for (const auto& shard : shards_) out.shards.push_back(shard->stats());
  out.ingest.reserve(partitions_.size());
  for (const auto& partition : partitions_) {
    out.ingest.push_back(partition->stats());
  }
  if (options_.disorder.enabled) {
    out.shard_watermarks.reserve(shards_.size());
    for (const auto& shard : shards_) {
      out.shard_watermarks.push_back(shard->watermark_stats());
    }
  }
  for (const auto& partition : partitions_) {
    out.events_ingested += partition->stats().events;
    out.watermarks_ingested += partition->stats().watermarks;
  }
  out.wall_seconds = wall_seconds_;
  // Roll completed swaps up across shards: a swap counts once it
  // completed on EVERY shard; its stall is the slowest shard's dual run.
  size_t completed = shards_.empty() ? 0 : shards_.front()->swap_records().size();
  for (const auto& shard : shards_) {
    completed = std::min(completed, shard->swap_records().size());
  }
  for (size_t k = 0; k < completed; ++k) {
    PlanSwapStats swap;
    for (const auto& shard : shards_) {
      const ShardSwapRecord& r = shard->swap_records()[k];
      swap.id = r.id;
      swap.boundary = r.boundary;
      swap.max_dual_run_seconds =
          std::max(swap.max_dual_run_seconds, r.dual_run_seconds);
      swap.teed_events += r.teed_events;
      swap.peak_dual_bytes += r.peak_dual_bytes;
      swap.post_swap_bytes += r.post_swap_bytes;
      ++swap.shards_completed;
    }
    out.plan_swaps.push_back(swap);
  }
  return out;
}

size_t ShardedRuntime::EstimatedBytes() const {
  size_t n = 0;
  for (const auto& shard : shards_) n += shard->EstimatedBytes();
  return n;
}

LiveState ShardedRuntime::LiveStateSnapshot() const {
  LiveState live;
  for (const auto& shard : shards_) live.MergeFrom(shard->LiveStateSnapshot());
  return live;
}

size_t ShardedRuntime::num_shared_counters() const {
  return shards_.empty() ? 0 : shards_.front()->num_shared_counters();
}

void ShardedRuntime::FoldFinalStats() const {
  const RuntimeStats rs = stats();
  auto set = [](obs::GaugeCell* g, int64_t v) {
    if (g) g->Set(v);
  };
  for (size_t i = 0; i < shards_.size(); ++i) {
    obs::ShardCells& c = telemetry_->shard_cells(i);
    const ShardStats& s = rs.shards[i];
    set(c.busy_micros, static_cast<int64_t>(s.busy_seconds * 1e6));
    set(c.idle_spins, static_cast<int64_t>(s.idle_spins));
    set(c.queue_full_stalls, static_cast<int64_t>(s.queue_full_stalls));
    if (i < rs.shard_watermarks.size()) {
      const WatermarkStats& w = rs.shard_watermarks[i];
      set(c.evicted_panes, static_cast<int64_t>(w.evicted_panes));
      set(c.evicted_groups, static_cast<int64_t>(w.evicted_groups));
      set(c.buffered_peak, static_cast<int64_t>(w.buffered_peak));
    }
  }
  obs::ControlCells& cc = telemetry_->control_cells();
  set(cc.wall_micros, static_cast<int64_t>(rs.wall_seconds * 1e6));
  set(cc.completed_swaps, static_cast<int64_t>(rs.CompletedSwaps()));
  int64_t teed = 0;
  for (const PlanSwapStats& p : rs.plan_swaps) {
    teed += static_cast<int64_t>(p.teed_events);
  }
  set(cc.swap_teed_events, teed);
  set(cc.swap_max_stall_micros,
      static_cast<int64_t>(rs.MaxSwapStallSeconds() * 1e6));
}

obs::MetricsSnapshot ShardedRuntime::TelemetrySnapshot() const {
  if (!telemetry_) return {};
  // Post-run, the RuntimeStats rollups (worker-owned plain counters,
  // unreadable mid-run) become safe to read — fold them onto their
  // gauges so the snapshot is the one export surface for everything.
  if (finished_ && options_.obs.metrics) FoldFinalStats();
  return telemetry_->Snapshot();
}

std::vector<obs::TraceEvent> ShardedRuntime::DumpTrace() const {
  if (!telemetry_) return {};
  return telemetry_->DumpTrace();
}

}  // namespace sharon::runtime
