// The three benchmark workloads and the paced ingest loop they share.
//
// Every workload is generated in-process from the seed, then driven from
// ONE thread through the public API: OptimizeSharon, a ShardedRuntime
// with 2 shards and 1 producer (which compiles the plan with
// CompilePlanShared), and — on drift_control — a PlanManager with query
// churn and blocking checkpoints. Finalized cells are diffed against the
// twostep reference after timing stops.

#include "perfbench/src/workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

namespace perfbench {
namespace {

using namespace sharon;  // NOLINT: benchmark-local convenience
using adaptive::PlanManager;
using adaptive::PlanManagerOptions;
using runtime::RuntimeOptions;
using runtime::ShardedRuntime;

/// Set-ups per run: at least kMinSetups, and more until kSetupSpanS of
/// wall time has passed (at most kMaxSetups), kSetupGapMs apart. setup_s
/// is their median. Spreading them out samples more than one host state:
/// on a shared host a short set-up's speed swings by about half from one
/// moment to the next.
constexpr size_t kMinSetups = 7;
constexpr size_t kMaxSetups = 21;
constexpr double kSetupSpanS = 4.0;
constexpr int kSetupGapMs = 50;
constexpr size_t kMinWindows = 200;  ///< sealed windows a run must sample
constexpr int64_t kDrainTimeoutNs = 20'000'000'000;
/// The standing query sets and the rates the planner starts from are
/// fixed: both are drawn with this seed, the rates from the first
/// kRateSpan of a stream like the measured one. The run's seed draws only
/// the measured stream, so every run plans the same graph.
constexpr uint64_t kQuerySeed = 1;
constexpr Duration kRateSpan = Seconds(300);

/// One workload, fully generated from the seed before any measurement.
struct Spec {
  std::string name;
  Workload workload;
  Scenario stream;              ///< sorted data events: the oracle's input
  std::vector<Event> arrivals;  ///< ingest order, punctuations stamped in
  size_t punctuations = 0;      ///< watermark events among the arrivals
  WindowSpec window;
  Duration max_lateness = 0;
  std::optional<CostModel> cost_model;
  OptimizerConfig optimizer;
  double speedup = 0;  ///< stream seconds replayed per wall second
  /// A window sealed later than this counts as failed.
  double latency_limit_ms = 0;
  /// drift_control: PlanManager, query churn and periodic checkpoints.
  bool adaptive = false;
  PlanManagerOptions manager;
  Duration checkpoint_every = 0;
};

/// Executor-focused planner limits (the figure benches' settings): the
/// unexpanded graph and a sharp plan-finder budget.
OptimizerConfig FastOptimizer() {
  OptimizerConfig config;
  config.expand = false;
  config.finder.time_limit_seconds = 3.0;
  config.finder.max_level_plans = 200'000;
  return config;
}

std::vector<Event> Punctuate(const std::vector<Event>& sorted,
                             Duration max_lateness, Duration period,
                             uint64_t seed) {
  DisorderConfig inj;
  inj.max_lateness = max_lateness;
  inj.punctuation_period = period;
  inj.seed = seed * 0x9e3779b97f4a7c15ULL + 1;
  return InjectDisorder(sorted, inj);
}

Duration StreamTicks(double seconds) {
  return static_cast<Duration>(seconds * static_cast<double>(kTicksPerSecond));
}

// --- workload definitions ---------------------------------------------------

// lr_sparse: a constant-rate LR stream of many cars under short patterns,
// paced well below capacity. About a hundred events per group per window
// keep executor work small, so freshness is set by the runtime's
// batching and release path, and the never-drained result store sets
// peak memory.
Spec LrSparse(uint64_t seed, double seconds) {
  Spec s;
  s.name = "lr_sparse";
  s.speedup = 20;
  s.window = {Seconds(5), Seconds(1)};
  LinearRoadConfig cfg;
  cfg.num_segments = 20;
  cfg.num_cars = 256;
  cfg.start_rate = cfg.end_rate = 5000;  // offered: 100k events/s wall
  cfg.duration = s.window.length + StreamTicks(seconds * s.speedup);
  cfg.seed = seed;
  s.stream = GenerateLinearRoad(cfg);
  WorkloadGenConfig w;
  w.num_queries = 20;
  w.pattern_length = 3;
  w.cluster_size = 5;
  w.backbone_extra = 2;
  w.window = s.window;
  w.partition_attr = 0;
  w.seed = kQuerySeed;
  s.workload = GenerateWorkload(w, cfg.num_segments);
  cfg.duration = kRateSpan;
  cfg.seed = kQuerySeed;
  s.cost_model.emplace(EstimateRates(GenerateLinearRoad(cfg)));
  s.optimizer = FastOptimizer();
  s.arrivals = Punctuate(s.stream.events, 0, Seconds(1) / 10, seed);
  s.latency_limit_ms = 250;
  return s;
}

// drift_control: the chaos soak's composition without kill/restore — a
// rate-flipping stream with bounded disorder, a PlanManager that must
// swap plans, register/retire churn and periodic blocking checkpoints.
// The only workload that runs adaptive, the swap dual-run,
// sharing/incremental and checkpoint.
Spec DriftControl(uint64_t seed, double seconds) {
  Spec s;
  s.name = "drift_control";
  s.adaptive = true;
  s.speedup = 20;
  s.window = {Seconds(4), Seconds(1)};
  s.max_lateness = Seconds(1) / 2;
  DriftConfig cfg;
  cfg.num_types = 8;
  cfg.num_groups = 16;
  cfg.events_per_second = 2000;  // offered: 40k events/s wall
  cfg.phase_length = Seconds(50);
  const Duration total = s.window.length + StreamTicks(seconds * s.speedup);
  cfg.num_phases = static_cast<uint32_t>(total / cfg.phase_length + 1);
  cfg.seed = seed;
  s.stream = GenerateDrift(cfg);
  s.workload = DriftWorkload(cfg, s.window, /*anchors_per_side=*/6,
                             /*bridges=*/3);
  // The starting plan only knows phase 0, so the first flip makes it stale.
  cfg.num_phases = 1;
  cfg.seed = kQuerySeed;
  s.cost_model.emplace(RatesOfSlice(GenerateDrift(cfg).events, 0,
                                    cfg.phase_length, cfg.num_types));
  s.optimizer = FastOptimizer();
  s.arrivals = Punctuate(s.stream.events, s.max_lateness, Seconds(1) / 4, seed);
  s.latency_limit_ms = 500;
  s.manager.epoch = Seconds(4);
  s.manager.window_epochs = 2;
  s.manager.drift_threshold = 0.3;
  s.manager.hysteresis = 0.05;
  s.manager.optimizer = FastOptimizer();
  s.checkpoint_every = Seconds(50);
  return s;
}

// plan_scale: 100 overlapping EC queries planned by the full SO pipeline
// (expansion, reduction, plan finder), then a short stream paced at under
// half the runtime's capacity. Set-up dominates, which is what measures
// graph, planner and sharing. The expansion budget is sized so the plan
// finder completes (no GWMIN fallback) in a few hundred milliseconds.
Spec PlanScale(uint64_t seed, double seconds) {
  Spec s;
  s.name = "plan_scale";
  s.speedup = 50;
  s.window = {Seconds(5), Seconds(1)};
  EcommerceConfig cfg;
  cfg.num_items = 50;
  cfg.num_customers = 20;
  cfg.events_per_second = 1500;  // offered: 75k events/s wall
  cfg.duration = s.window.length + StreamTicks(seconds * s.speedup);
  cfg.seed = seed;
  s.stream = GenerateEcommerce(cfg);
  WorkloadGenConfig w;
  w.num_queries = 100;
  w.pattern_length = 8;
  w.cluster_size = 10;
  w.backbone_extra = 2;
  w.window = s.window;
  w.partition_attr = 0;
  w.seed = kQuerySeed;
  s.workload = GenerateWorkload(w, cfg.num_items);
  cfg.duration = kRateSpan;
  cfg.seed = kQuerySeed;
  s.cost_model.emplace(EstimateRates(GenerateEcommerce(cfg)));
  // The Fig. 15 SO pipeline: expansion on, bounded options per candidate.
  s.optimizer.finder.time_limit_seconds = 20.0;
  s.optimizer.expansion.max_options_per_candidate = 32;
  s.optimizer.expansion.max_total_candidates = 1536;
  s.arrivals = Punctuate(s.stream.events, 0, Seconds(1) / 10, seed);
  s.latency_limit_ms = 250;
  return s;
}

// --- set-up ----------------------------------------------------------------

/// One runtime instance with its own copy of the workload (churn mutates
/// it) and the timestamps of its set-up steps.
struct Instance {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<query::QueryRegistry> registry;
  OptimizerResult opt;
  std::unique_ptr<ShardedRuntime> rt;
  std::unique_ptr<PlanManager> mgr;
  int64_t begin_ns = 0, optimized_ns = 0, constructed_ns = 0, started_ns = 0,
          end_ns = 0;
  /// Traced runs: estimated steady-clock time of the telemetry hub's
  /// trace epoch, in NowNs() units (ring stamps count from it).
  int64_t trace_epoch_ns = 0;
  double Seconds() const { return NsToS(end_ns - begin_ns); }

  /// Finishes the runtime and frees everything, dependents first.
  void Release() {
    if (rt) rt->Finish();
    mgr.reset();
    rt.reset();
    registry.reset();
    workload.reset();
  }
};

RuntimeOptions OptionsFor(const Spec& spec, bool trace) {
  RuntimeOptions opts;
  opts.num_shards = 2;
  opts.ingest_partitions = 1;
  opts.disorder.enabled = true;
  opts.disorder.max_lateness = spec.max_lateness;
  // Every window is finalized by a punctuation the freshness probe saw
  // (DrivePass closes the stream with one), not by Finish.
  opts.disorder.close_on_finish = false;
  opts.obs.metrics = true;  // the freshness probe reads the safe-point gauges
  opts.obs.trace = trace;
  // Each punctuation leaves up to two events (advance, release) on every
  // shard ring; size the rings so a whole pass survives until the dump.
  opts.obs.trace_ring_capacity =
      std::max<size_t>(4096, 2 * spec.punctuations + 1024);
  return opts;
}

/// Time from the telemetry hub's trace epoch to the end of its
/// construction (the rings are allocated after the epoch is taken). The
/// runtime builds its hub last, so its epoch is about this long before
/// the runtime's constructor returns.
int64_t TraceEpochLagNs(const RuntimeOptions& opts) {
  const int64_t b = NowNs();
  obs::RuntimeTelemetry probe(opts.num_shards, opts.ingest_partitions, opts.obs);
  return NowNs() - b;
}

/// The timed set-up: OptimizeSharon, runtime construction (which compiles
/// the plan once for both shards) and Start, plus the PlanManager where
/// the workload adapts. Stream generation and rate estimation are done.
Instance SetUp(const Spec& spec, bool trace) {
  Instance in;
  in.workload = std::make_unique<Workload>(spec.workload);
  const RuntimeOptions opts = OptionsFor(spec, trace);
  in.begin_ns = NowNs();
  in.opt = OptimizeSharon(*in.workload, *spec.cost_model, spec.optimizer);
  in.optimized_ns = NowNs();
  in.rt = std::make_unique<ShardedRuntime>(*in.workload, in.opt.plan, opts);
  in.constructed_ns = NowNs();
  in.rt->Start();
  in.started_ns = NowNs();
  if (spec.adaptive) {
    in.mgr = std::make_unique<PlanManager>(*in.workload, in.rt.get(),
                                           in.opt.plan, spec.manager);
  }
  in.end_ns = NowNs();
  if (spec.adaptive) {
    in.registry = std::make_unique<query::QueryRegistry>(in.workload.get());
    in.mgr->AttachRegistry(in.registry.get());
  }
  if (trace) in.trace_epoch_ns = in.constructed_ns - TraceEpochLagNs(opts);
  return in;
}

// --- the measured pass -----------------------------------------------------

/// A control call of the ingest thread (traced runs), joined after Finish with
/// the ring events that carry its id.
struct ControlCall {
  std::string name;
  int64_t begin_ns = 0;
  int64_t end_ns = 0;
  Timestamp key = -1;
  int64_t swap_id = -1;        ///< kSwap* events with a == swap_id
  int64_t checkpoint_id = -1;  ///< kCheckpoint* events with a == checkpoint_id
  int64_t query_id = -1;       ///< kQuery* events with a == query_id
};

/// What the paced pass over the arrivals measured.
struct Pass {
  int64_t measure_begin_ns = -1;  ///< due time of the first measured event
  int64_t end_ns = 0;             ///< Finish returned
  uint64_t measured_events = 0;
  uint64_t data_events = 0;
  uint64_t allocations = 0;  ///< operator new calls, first ingest to Finish
  std::vector<double> fresh_ms;
  std::vector<double> lag_ms;  ///< lateness of each punctuation's ingest
  double ingest_call_ns = 0;   ///< traced: time inside ingest calls
  double finish_ms = 0;
  uint64_t control_attempted = 0;
  uint64_t control_failed = 0;
  std::vector<std::string> errors;  ///< failed control ops
  std::string probe_error;          ///< freshness self-check ("" = passed)
  double churn_call_ms = 0;
  std::vector<double> checkpoint_stall_ms;
  uint64_t checkpoint_bytes = 0;
  bool fell_behind = false;
  std::vector<ControlCall> calls;  ///< traced runs only
  double Throughput() const {
    return end_ns > measure_begin_ns
               ? static_cast<double>(measured_events) /
                     NsToS(end_ns - measure_begin_ns)
               : 0;
  }
};

/// drift_control's control plane: blocking checkpoints on a stream-time
/// cadence (retried while a swap drains) and three churn ops at fixed
/// shares of the stream.
class ControlPlan {
 public:
  ControlPlan(const Spec& spec, Instance& in, const std::string& ckpt_dir,
              bool traced)
      : spec_(spec), in_(in), dir_(ckpt_dir), traced_(traced) {
    const Timestamp end = spec.stream.events.back().time;
    churn_at_ = {end * 3 / 10, end / 2, end * 3 / 4};
    next_checkpoint_ = spec.checkpoint_every;
  }

  /// Runs every control op due at stream time `t` (called per punctuation).
  void OnPunctuation(Timestamp t, Pass* pass) {
    if (churn_done_ < churn_at_.size() && t >= churn_at_[churn_done_]) {
      Churn(pass);
      ++churn_done_;
    }
    if (t >= next_checkpoint_) Checkpoint(pass);
  }

  /// End-of-stream verdicts: pending checkpoints and churn must be done.
  void Close(Pass* pass) {
    if (checkpoint_pending_) {
      ++pass->control_failed;
      pass->errors.push_back("checkpoint never got past an in-flight swap");
    }
    if (in_.mgr->pending_churn() != 0) {
      ++pass->control_failed;
      pass->errors.push_back("churn ops left uncommitted at stream end");
    }
    ++pass->control_attempted;  // the run must see a drift-driven swap
    if (in_.mgr->stats().swaps_accepted == 0) {
      ++pass->control_failed;
      pass->errors.push_back("no drift swap accepted");
    }
  }

 private:
  void Churn(Pass* pass) {
    const uint64_t swaps_before = in_.rt->swaps_requested();
    const int64_t b = NowNs();
    query::ChurnResult r;
    const char* what = "churn_retire";
    if (churn_done_ == 0) {
      Query q = in_.workload->query(0);
      q.pattern = q.pattern.Sub(0, 2);
      r = in_.mgr->RegisterQuery(std::move(q));
      registered_ = r.id;
      what = "churn_register";
    } else if (churn_done_ == 1) {
      r = in_.mgr->RetireQuery(1);
    } else {
      r = in_.mgr->RetireQuery(registered_);
    }
    const int64_t e = NowNs();
    pass->churn_call_ms += NsToMs(e - b);
    ++pass->control_attempted;
    if (!r.accepted) {
      ++pass->control_failed;
      pass->errors.push_back(std::string(what) + " refused: " + r.reason);
    }
    if (traced_) {
      const uint64_t swaps = in_.rt->swaps_requested();
      pass->calls.push_back(
          {what, b, e, -1, swaps != swaps_before ? static_cast<int64_t>(swaps) : -1,
           -1, static_cast<int64_t>(r.id)});
    }
  }

  void Checkpoint(Pass* pass) {
    if (!checkpoint_pending_) ++pass->control_attempted;
    std::filesystem::remove_all(dir_);
    const int64_t b = NowNs();
    const ShardedRuntime::CheckpointResult cp = in_.rt->Checkpoint(dir_);
    const int64_t e = NowNs();
    if (!cp.ok && cp.code == runtime::OpRefusal::kSwapInFlight) {
      checkpoint_pending_ = true;  // retried at the next punctuation
      return;
    }
    checkpoint_pending_ = false;
    next_checkpoint_ += spec_.checkpoint_every;
    if (!cp.ok) {
      ++pass->control_failed;
      pass->errors.push_back("checkpoint failed: " + cp.reason);
      return;
    }
    pass->checkpoint_stall_ms.push_back(NsToMs(e - b));
    pass->checkpoint_bytes += cp.bytes;
    if (traced_) {
      pass->calls.push_back({"checkpoint", b, e, cp.boundary, -1,
                             static_cast<int64_t>(cp.id), -1});
    }
  }

  const Spec& spec_;
  Instance& in_;
  std::string dir_;
  bool traced_;
  std::vector<Timestamp> churn_at_;
  size_t churn_done_ = 0;
  QueryId registered_ = 0;
  Timestamp next_checkpoint_ = 0;
  bool checkpoint_pending_ = false;
};

/// Records the traced pass's spans: one `window` span per sealed window
/// (due time to sealed, with its IngestWatermark call as a child and the
/// shards' watermark-advance stamps joined by stream time), and one span
/// per control call with its lifecycle ring events joined by id. Ring
/// stamps count from the telemetry hub's epoch (Instance::trace_epoch_ns).
void AddPassSpans(const Spec& spec, const Instance& in,
                  const FreshnessProbe& probe, const Pass& pass,
                  SpanRecorder* spans) {
  const std::vector<obs::TraceEvent> ring = in.rt->DumpTrace();
  const int64_t epoch = in.trace_epoch_ns;
  auto stamp = [&](const obs::TraceEvent& t) {
    return std::to_string(epoch + static_cast<int64_t>(t.nanos));
  };
  std::unordered_map<Timestamp, std::string> advances;
  for (const obs::TraceEvent& t : ring) {
    if (t.kind != obs::TraceKind::kWatermarkAdvance) continue;
    std::string& list = advances[t.stream_time];
    list += (list.empty() ? "" : ", ") + stamp(t);
  }
  for (const FreshnessProbe::Sealed& s : probe.sealed()) {
    const int64_t id = spans->Add(
        "window", -1, s.due_ns, s.sealed_ns, spec.window.WindowEnd(s.window),
        "\"watermark\": " + std::to_string(s.watermark) +
            ", \"shard_advance_ns\": [" + advances[s.watermark] + "]");
    if (s.call_end_ns > s.call_begin_ns) {
      spans->Add("ingest_watermark", id, s.call_begin_ns, s.call_end_ns,
                 s.watermark);
    }
  }
  for (const ControlCall& c : pass.calls) {
    std::string events;
    for (const obs::TraceEvent& t : ring) {
      int64_t want = -1;
      switch (t.kind) {
        case obs::TraceKind::kSwapRequested:
        case obs::TraceKind::kSwapBoundary:
        case obs::TraceKind::kSwapDualRunStart:
        case obs::TraceKind::kSwapRetired:
          want = c.swap_id;
          break;
        case obs::TraceKind::kCheckpointRequested:
        case obs::TraceKind::kCheckpointQuiesce:
        case obs::TraceKind::kCheckpointShardDone:
        case obs::TraceKind::kCheckpointSealed:
          want = c.checkpoint_id;
          break;
        case obs::TraceKind::kQueryRegistered:
        case obs::TraceKind::kQueryRetired:
          want = c.query_id;
          break;
        default:
          break;
      }
      if (want < 0 || t.a != want) continue;
      events += std::string(events.empty() ? "" : ", ") + "{\"event\": \"" +
                obs::TraceKindName(t.kind) + "\", \"ns\": " + stamp(t) +
                ", \"source\": " + std::to_string(t.source) +
                ", \"b\": " + std::to_string(t.b) + "}";
    }
    spans->Add(c.name, -1, c.begin_ns, c.end_ns, c.key,
               "\"ring\": [" + events + "]");
  }
}

/// Drives the arrivals through `in` from this thread, each at its due time
/// (from the running stream high-mark), probing freshness between calls.
/// The stream ends with one more punctuation past every window's end, due
/// with the last arrival; then Finish.
Pass DrivePass(const Spec& spec, Instance& in, const std::string& ckpt_dir,
               SpanRecorder* spans) {
  Pass pass;
  ShardedRuntime& rt = *in.rt;
  PlanManager* mgr = in.mgr.get();
  FreshnessProbe probe(rt, spec.window, spec.max_lateness);
  std::optional<ControlPlan> control;
  if (spec.adaptive) control.emplace(spec, in, ckpt_dir, spans != nullptr);
  const bool timed_calls = spans != nullptr;
  const double ns_per_tick =
      1e9 / static_cast<double>(kTicksPerSecond) / spec.speedup;
  pass.fresh_ms.reserve(4096);
  pass.lag_ms.reserve(1 << 16);
  uint64_t swaps_seen = mgr ? mgr->stats().swaps_requested : 0;

  const alloc_stats::Counters allocs_before = alloc_stats::Snapshot();
  const int64_t origin = NowNs() + 1'000'000;
  auto offer = [&](const Event& e, int64_t due) {
    int64_t now;
    while ((now = NowNs()) < due) probe.Poll(now);
    const bool punctuation = IsWatermark(e);
    const int64_t b = (punctuation || timed_calls) ? NowNs() : 0;
    if (mgr) {
      mgr->Ingest(e);
    } else if (punctuation) {
      rt.IngestWatermark(e.time);
    } else {
      rt.Ingest(e);
    }
    const int64_t end = NowNs();
    if (timed_calls) {
      pass.ingest_call_ns += static_cast<double>(end - b);
      if (mgr && mgr->stats().swaps_requested != swaps_seen) {
        swaps_seen = mgr->stats().swaps_requested;
        pass.calls.push_back({"plan_swap_request", b, end, e.time,
                              static_cast<int64_t>(rt.swaps_requested()), -1,
                              -1});
      }
    }
    if (punctuation) {
      probe.OnPunctuation(e.time, due, b, end);
      pass.lag_ms.push_back(NsToMs(b - due));
    } else {
      ++pass.data_events;
      if (pass.measure_begin_ns < 0 && e.time >= spec.window.length) {
        pass.measure_begin_ns = due;
      }
      if (pass.measure_begin_ns >= 0) ++pass.measured_events;
    }
    probe.Poll(end);
  };
  Timestamp high = 0;
  int64_t due = origin;
  for (const Event& e : spec.arrivals) {
    high = std::max(high, e.time);
    due = origin + static_cast<int64_t>(static_cast<double>(high) * ns_per_tick);
    offer(e, due);
    // Control ops run on the stream's own punctuations, not on the closing
    // one, after which nothing could retry a refused op. A blocking op
    // holds up the probe too: windows it sees sealed afterwards are
    // stamped when the op returns.
    if (control && IsWatermark(e)) {
      control->OnPunctuation(e.time, &pass);
      probe.Poll(NowNs());
    }
  }
  offer(WatermarkEvent(high + spec.window.length + spec.max_lateness), due);
  // The closing punctuation waits in a pending batch until it fills;
  // nothing else will fill it.
  rt.Flush();
  const int64_t drain_begin = NowNs();
  while (!probe.Drained() && NowNs() - drain_begin < kDrainTimeoutNs) {
    probe.Poll(NowNs());
  }
  if (control) control->Close(&pass);
  const int64_t finish_begin = NowNs();
  rt.Finish();
  pass.end_ns = NowNs();
  pass.finish_ms = NsToMs(pass.end_ns - finish_begin);
  pass.allocations = (alloc_stats::Snapshot() - allocs_before).allocations;

  for (const FreshnessProbe::Sealed& s : probe.sealed()) {
    pass.fresh_ms.push_back(NsToMs(s.sealed_ns - s.due_ns));
  }
  const std::function<bool(QueryId, Timestamp)> owns =
      [&](QueryId q, Timestamp close) {
        return in.registry ? in.registry->OwnsWindowClose(q, close) : true;
      };
  pass.probe_error = CheckProbe(probe, rt.results(), *in.workload, owns);

  // Fell behind: the generator's lag in the last quarter of the run
  // exceeds the latency limit, i.e. a backlog built up.
  const size_t q = pass.lag_ms.size() * 3 / 4;
  std::vector<double> tail(pass.lag_ms.begin() + static_cast<long>(q),
                           pass.lag_ms.end());
  pass.fell_behind = Quantile(tail, 0.5) > spec.latency_limit_ms;

  if (spans) AddPassSpans(spec, in, probe, pass, spans);
  return pass;
}

// --- oracle ----------------------------------------------------------------

/// The twostep reference over the sorted stream, restricted to the cells
/// each query owns (query churn) when a registry is given.
ResultCollector Oracle(const Workload& workload, const Scenario& stream,
                       const query::QueryRegistry* registry) {
  ResultCollector full = ReferenceResults(workload, stream.events);
  if (!registry) return full;
  ResultCollector owned;
  full.ForEachCell([&](const ResultKey& k, const AggState& state) {
    const WindowSpec& w = workload.query(k.query).window;
    if (registry->OwnsWindowClose(k.query, w.WindowEnd(k.window))) {
      owned.RestoreCell(k.query, k.window, k.group, state);
    }
  });
  return owned;
}

// --- the run ---------------------------------------------------------------

double PhaseMs(const OptimizerResult& opt, const std::string& name) {
  double ms = 0;
  for (const OptimizerPhase& p : opt.phases) {
    if (p.name == name) ms += p.millis;
  }
  return ms;
}

/// Everything one measured half of a run saw (a traced run has two).
struct Measured {
  std::vector<double> setup_s;  ///< one per set-up repetition
  uint64_t fallbacks = 0;       ///< set-ups whose planner fell back to GWMIN
  OptimizerResult opt;          ///< of the last set-up, which drives the pass
  int64_t start_ns = 0;         ///< its Start()
  Pass pass;
  runtime::RuntimeStats stats;
  uint64_t released = 0;  ///< reorder-buffer releases
  adaptive::PlanManagerStats manager;
  double peak_rss_mb = 0;
  size_t result_cells = 0;
  OracleDiff diff;
  double check_s = 0;  ///< oracle diff time

  /// Shard busy seconds per data event, the tracing-overhead basis.
  double BusyPerEvent() const {
    return pass.data_events > 0 ? stats.TotalBusySeconds() /
                                      static_cast<double>(pass.data_events)
                                : 0;
  }
};

/// One measured half: repeated set-ups, then one paced pass on the last
/// set-up's runtime, diffed against the oracle after its Finish.
/// drift_control's oracle depends on the churn and is built after the
/// peak RSS was read.
Measured Measure(const Spec& spec, const ResultCollector* oracle,
                 const std::string& ckpt_dir, SpanRecorder* spans) {
  Measured m;
  const bool trace = spans != nullptr;
  const int64_t rss_base = ResetPeakRss();
  Instance in;
  const int64_t setup_begin = NowNs();
  while (m.setup_s.size() < kMinSetups ||
         (NsToS(NowNs() - setup_begin) < kSetupSpanS &&
          m.setup_s.size() < kMaxSetups)) {
    if (in.rt) {
      in.Release();
      std::this_thread::sleep_for(std::chrono::milliseconds(kSetupGapMs));
    }
    in = SetUp(spec, trace);
    m.setup_s.push_back(in.Seconds());
    m.fallbacks += in.opt.used_fallback ? 1 : 0;
  }
  m.opt = in.opt;
  m.start_ns = in.started_ns - in.constructed_ns;
  if (spans) {
    const int64_t root = spans->Add("setup", -1, in.begin_ns, in.end_ns);
    const int64_t optimize =
        spans->Add("optimize", root, in.begin_ns, in.optimized_ns);
    int64_t at = in.begin_ns;
    for (const OptimizerPhase& p : in.opt.phases) {
      const int64_t len = static_cast<int64_t>(p.millis * 1e6);
      spans->Add("optimize." + p.name, optimize, at, at + len);
      at += len;
    }
    spans->Add("construct_and_compile", root, in.optimized_ns, in.constructed_ns);
    spans->Add("start", root, in.constructed_ns, in.started_ns);
    if (in.mgr) spans->Add("plan_manager", root, in.started_ns, in.end_ns);
  }

  m.pass = DrivePass(spec, in, ckpt_dir, spans);
  m.stats = in.rt->stats();
  for (size_t i = 0; i < in.rt->num_shards(); ++i) {
    m.released += in.rt->telemetry()->engine_obs(i)->released_events->value();
  }
  m.peak_rss_mb = PeakRssGrowthMb(rss_base);
  m.result_cells = in.rt->results().NumCells();
  if (in.mgr) m.manager = in.mgr->stats();
  const int64_t b = NowNs();
  if (oracle) {
    m.diff = DiffAgainstOracle(*oracle, in.rt->results());
  } else {
    const ResultCollector churned =
        Oracle(*in.workload, spec.stream, in.registry.get());
    m.diff = DiffAgainstOracle(churned, in.rt->results());
  }
  m.check_s = NsToS(NowNs() - b);
  in.Release();
  return m;
}

/// Counts one half's correctness and operation outcomes into `report`.
void Count(const Spec& spec, const Measured& m, Report* report) {
  report->attempted += m.diff.checked;
  if (m.diff.Failed() > 0) {
    report->correct = false;
    report->Fail("oracle diff: " + std::to_string(m.diff.mismatched) +
                     " mismatched, " + std::to_string(m.diff.missing) +
                     " missing, " + std::to_string(m.diff.extra) + " extra, " +
                     std::to_string(m.diff.unfinalized) + " unfinalized cells",
                 m.diff.Failed());
  }
  // Every set-up's plan search must complete: a GWMIN fallback would
  // also make set-up look faster.
  report->attempted += m.setup_s.size();
  if (m.fallbacks > 0) {
    report->Fail(std::to_string(m.fallbacks) + " of " +
                     std::to_string(m.setup_s.size()) +
                     " set-ups fell back to GWMIN",
                 m.fallbacks);
  }
  const Pass& pass = m.pass;
  report->attempted += pass.control_attempted;
  report->failed += pass.control_failed;
  for (const std::string& e : pass.errors) report->notes.push_back("FAILED: " + e);
  ++report->attempted;  // the freshness probe's self-check
  if (!pass.probe_error.empty()) {
    report->correct = false;
    report->Fail("freshness probe: " + pass.probe_error);
  }
  ++report->attempted;  // enough windows for a p95
  if (pass.fresh_ms.size() < kMinWindows) {
    report->Fail("only " + std::to_string(pass.fresh_ms.size()) +
                 " windows sealed (need " + std::to_string(kMinWindows) + ")");
  }
  uint64_t late = 0;
  for (const double f : pass.fresh_ms) late += f > spec.latency_limit_ms;
  if (late > 0) {
    report->Fail(std::to_string(late) + " windows sealed later than " +
                     std::to_string(spec.latency_limit_ms) + " ms",
                 late);
  }
  if (pass.fell_behind) report->Fail("fell behind the offered rate");
}

}  // namespace

int RunWorkload(const RunOptions& opt, Report* report) {
  Spec spec;
  if (opt.workload == "lr_sparse") {
    spec = LrSparse(opt.seed, opt.seconds);
  } else if (opt.workload == "drift_control") {
    spec = DriftControl(opt.seed, opt.seconds);
  } else if (opt.workload == "plan_scale") {
    spec = PlanScale(opt.seed, opt.seconds);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  for (const Event& e : spec.arrivals) spec.punctuations += IsWatermark(e) ? 1 : 0;
  const std::string ckpt_dir = opt.out_dir + "/checkpoint-" + spec.name;

  // The unchurned workloads' oracle is built before measuring, so its
  // memory is part of the RSS baseline rather than the peak growth.
  const int64_t oracle_begin = NowNs();
  std::optional<ResultCollector> oracle;
  if (!spec.adaptive) oracle.emplace(Oracle(spec.workload, spec.stream, nullptr));
  const double oracle_s = NsToS(NowNs() - oracle_begin);
  const ResultCollector* oracle_ptr = oracle ? &*oracle : nullptr;

  const Measured m = Measure(spec, oracle_ptr, ckpt_dir, nullptr);
  Count(spec, m, report);

  report->notes.push_back(
      "windows sampled " + std::to_string(m.pass.fresh_ms.size()) +
      ", data events " + std::to_string(m.pass.data_events) + ", offered " +
      std::to_string(static_cast<int64_t>(spec.stream.EventsPerSecond() *
                                          spec.speedup)) +
      " events/s, latency limit " +
      std::to_string(static_cast<int>(spec.latency_limit_ms)) +
      " ms per window");
  report->notes.push_back(
      "setup_s is the median of " + std::to_string(m.setup_s.size()) +
      " set-ups; the oracle took " + std::to_string(oracle_s + m.check_s) +
      " s, outside every metric");

  report->end_to_end = {
      {"throughput_eps", m.pass.Throughput(), "1/s"},
      {"fresh_p50_ms", Quantile(m.pass.fresh_ms, 0.50), "ms"},
      {"fresh_p95_ms", Quantile(m.pass.fresh_ms, 0.95), "ms"},
      {"setup_s", Median(m.setup_s), "s"},
      {"peak_rss_mb", m.peak_rss_mb, "MB"},
  };
  if (!opt.trace) return 0;

  // --- traced run: the same work again with tracing and call clocks ----
  SpanRecorder spans;
  const Measured t = Measure(spec, oracle_ptr, ckpt_dir, &spans);
  Count(spec, t, report);

  // A single-threaded Engine over the same arrivals: the stream sheet's
  // baseline and the executor's own state peak.
  Engine engine(spec.workload, m.opt.plan);
  DisorderPolicy policy;
  policy.enabled = true;
  policy.max_lateness = spec.max_lateness;
  engine.SetDisorderPolicy(policy);
  const int64_t engine_begin = NowNs();
  for (const Event& e : spec.arrivals) engine.OnEvent(e);
  engine.CloseStream();
  const double engine_eps = static_cast<double>(spec.stream.events.size()) /
                            NsToS(NowNs() - engine_begin);

  const int64_t compile_begin = NowNs();
  const CompiledPlanHandle compiled = CompilePlanShared(spec.workload, m.opt.plan);
  const double compile_ms = NsToMs(NowNs() - compile_begin);
  if (!compiled) report->Fail("CompilePlanShared failed");

  const runtime::RuntimeStats& st = m.stats;
  const WatermarkStats wm = st.Watermarks();
  double busy_max = 0, busy_sum = 0;
  uint64_t idle = 0;
  for (const runtime::ShardStats& s : st.shards) {
    busy_max = std::max(busy_max, s.busy_seconds);
    busy_sum += s.busy_seconds;
    idle += s.idle_spins;
  }
  const OptimizerResult& o = m.opt;
  const double events = static_cast<double>(m.pass.data_events);
  auto count = [](auto v) { return static_cast<double>(v); };
  // Metrics every workload measures, none of them 0 on a good run: the
  // JSON line's set. Failure counts (0 on a good run) and the figures of
  // mechanisms only some workloads run are printed as layer_extra.
  report->per_layer = {
      {"planner.optimize_ms", o.TotalMillis(), "ms"},
      {"graph.construct_ms", PhaseMs(o, "graph construction"), "ms"},
      {"graph.reduce_ms", PhaseMs(o, "graph reduction"), "ms"},
      {"planner.search_ms", PhaseMs(o, "plan finder") + PhaseMs(o, "GWMIN"), "ms"},
      {"sharing.candidates", count(o.candidates), "count"},
      {"graph.vertices", count(o.graph_vertices), "count"},
      {"planner.score", o.score, "score"},
      {"exec.compile_ms", compile_ms, "ms"},
      {"exec.engine_eps", engine_eps, "1/s"},
      {"exec.state_peak_mb", count(engine.peak_bytes()) / (1 << 20), "MB"},
      {"exec.allocs_per_event", events > 0 ? count(m.pass.allocations) / events : 0, "count"},
      {"exec.released_events", count(m.released), "count"},
      {"exec.evicted_panes", count(wm.evicted_panes), "count"},
      {"exec.buffered_peak", count(wm.buffered_peak), "count"},
      {"exec.result_cells", count(m.result_cells), "count"},
      {"runtime.start_ms", NsToMs(m.start_ns), "ms"},
      {"runtime.finish_ms", m.pass.finish_ms, "ms"},
      {"runtime.ingest_call_s", t.pass.ingest_call_ns / 1e9, "s"},
      {"runtime.busy_s", busy_sum, "s"},
      {"runtime.busy_skew", busy_sum > 0 ? busy_max * count(st.shards.size()) / busy_sum : 0, "ratio"},
      {"runtime.idle_spins", count(idle), "count"},
      {"runtime.batch_occupancy", st.AvgBatchOccupancy(), "count"},
      {"runtime.batch_allocs", count(st.TotalBatchAllocs()), "count"},
      {"streamgen.lag_p95_ms", Quantile(m.pass.lag_ms, 0.95), "ms"},
      {"streamgen.windows_sealed", count(m.pass.fresh_ms.size()), "count"},
      {"twostep.cells_checked", count(m.diff.checked), "count"},
      {"twostep.check_s", oracle_s + m.check_s, "s"},
      {"obs.trace_overhead_pct",
       m.BusyPerEvent() > 0 ? (t.BusyPerEvent() / m.BusyPerEvent() - 1.0) * 100.0 : 0,
       "%"},
  };
  std::vector<Metric>& extra = report->layer_extra;
  extra.push_back({"exec.late_dropped", count(wm.late_dropped), "count"});
  extra.push_back({"runtime.queue_full_stalls", count(st.TotalStalls()), "count"});
  if (o.plans_considered > 0) {
    extra.push_back({"planner.plans_considered", count(o.plans_considered), "count"});
  }
  if (o.expanded_vertices > 0) {
    extra.push_back({"graph.expanded_vertices", count(o.expanded_vertices), "count"});
    extra.push_back({"graph.expand_ms", PhaseMs(o, "graph expansion"), "ms"});
  }
  if (spec.adaptive) {
    double swap_stall_ms = 0, teed = 0, dual_mb = 0;
    for (const runtime::PlanSwapStats& p : st.plan_swaps) {
      swap_stall_ms = std::max(swap_stall_ms, p.max_dual_run_seconds * 1e3);
      teed += static_cast<double>(p.teed_events);
      dual_mb = std::max(dual_mb, static_cast<double>(p.peak_dual_bytes) / (1 << 20));
    }
    const adaptive::PlanManagerStats& a = m.manager;
    extra.push_back({"runtime.swap_max_stall_ms", swap_stall_ms, "ms"});
    extra.push_back({"runtime.swap_teed_events", teed, "count"});
    extra.push_back({"runtime.swap_peak_dual_mb", dual_mb, "MB"});
    extra.push_back({"adaptive.evaluations", count(a.evaluations), "count"});
    extra.push_back({"adaptive.planning_ms", a.planning_millis, "ms"});
    extra.push_back({"adaptive.swaps_accepted", count(a.swaps_accepted), "count"});
    extra.push_back({"adaptive.swaps_rejected", count(a.swaps_rejected), "count"});
    extra.push_back({"adaptive.churn_call_ms", m.pass.churn_call_ms, "ms"});
    extra.push_back({"checkpoint.count", count(m.pass.checkpoint_stall_ms.size()), "count"});
    extra.push_back({"checkpoint.bytes", count(m.pass.checkpoint_bytes), "bytes"});
    extra.push_back({"checkpoint.stall_ms", Median(m.pass.checkpoint_stall_ms), "ms"});
  }
  for (const auto& [name, ms] : spans.SelfMsByName()) {
    report->notes.push_back("span self time " + name + ": " + std::to_string(ms) + " ms");
  }
  const std::string span_path = opt.out_dir + "/spans-" + spec.name + "-" +
                                std::to_string(opt.seed) + ".jsonl";
  report->notes.push_back(spans.Write(span_path)
                              ? "spans written to " + span_path
                              : "could not write spans to " + span_path);
  return 0;
}

}  // namespace perfbench
