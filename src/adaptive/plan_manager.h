// Adaptive rate-driven re-optimization (paper §7.4, closing the loop).
//
// Sharon's sharing benefit (Def. 8) is a pure function of per-type event
// rates, so a plan chosen at startup degrades silently when rates drift:
// patterns it shares go cold (benefit evaporates) while newly-hot
// patterns run non-shared (work the optimizer would now share). The
// PlanManager closes the monitor -> optimizer -> executor loop:
//
//   RateMonitor      sliding per-type rate estimate + drift detection
//        │ epoch cadence
//   Reoptimize       re-cost incumbent under fresh rates, run GO, and
//        │           SO too when GO's graph has a conflict edge
//   hysteresis       swap only when the predicted relative gain clears
//        │           a margin (re-planning is cheap, swapping is not:
//        │           the dual-run overlap costs memory and CPU)
//   RequestPlanSwap  watermark-aligned hot-swap into the running
//                    ShardedRuntime (src/runtime/plan_swap.h): finalized
//                    results stay exactly-once and bit-identical to a
//                    single-plan oracle run under any swap schedule
//
// The manager wraps the runtime's ingest path: feed every event (and
// in-band watermark punctuation) through Ingest(). It is single-threaded
// by construction — it runs on the ingest thread, the only thread allowed
// to call ShardedRuntime::Ingest/RequestPlanSwap — so re-planning happens
// inline between events. Query churn re-plans with the same Reoptimize
// pass over the changed active set, so one active set at one set of rates
// gets one plan whichever trigger planned it. Keep optimizer limits sharp
// (the default OptimizerConfig expands the graph) if ingest latency
// matters: every drift evaluation and every churn call runs a full pass.

#ifndef SHARON_ADAPTIVE_PLAN_MANAGER_H_
#define SHARON_ADAPTIVE_PLAN_MANAGER_H_

#include <cstdint>

#include "src/planner/optimizer.h"
#include "src/query/registration.h"
#include "src/runtime/sharded_runtime.h"
#include "src/streamgen/rate_monitor.h"

namespace sharon::adaptive {

/// Policy knobs of the adaptive planner.
struct PlanManagerOptions {
  /// Rate-sampling epoch (stream time). Re-optimization is considered at
  /// most once per epoch; the estimate averages over `window_epochs`.
  Duration epoch = Seconds(5);
  size_t window_epochs = 2;

  /// RateMonitor drift threshold (relative per-type deviation from the
  /// rates the active plan was last validated against).
  double drift_threshold = 0.4;

  /// When true (default), an epoch runs the optimizer only on detected
  /// drift or while a churn call's zero-rate plan (made before the first
  /// full window) awaits evaluation; false re-optimizes every epoch
  /// regardless (bench/diagnostics mode).
  bool require_drift = true;

  /// Minimum predicted relative gain (ReoptimizeResult::GainRatio) before
  /// a swap is requested. The margin absorbs estimation noise so the
  /// runtime does not thrash between near-equal plans.
  double hysteresis = 0.10;

  /// SO pipeline configuration of every Reoptimize pass, drift and churn.
  OptimizerConfig optimizer;
};

/// Counters of one adaptive run (monotone; inspect any time).
struct PlanManagerStats {
  uint64_t epochs_seen = 0;        ///< epoch boundaries crossed
  uint64_t evaluations = 0;        ///< epoch re-optimization passes run
                                   ///< (drift or zero-rate churn plan)
  uint64_t drift_detections = 0;   ///< evaluations triggered by drift
  uint64_t escalations = 0;        ///< evaluations that ran SO
  uint64_t holds = 0;              ///< gain below hysteresis, kept plan
  uint64_t swaps_requested = 0;
  uint64_t swaps_accepted = 0;
  uint64_t swaps_rejected = 0;     ///< runtime refused (swap in flight...)
  uint64_t queries_registered = 0;  ///< accepted Register/Reactivate calls
  uint64_t queries_retired = 0;     ///< accepted Retire calls
  uint64_t churn_swaps = 0;         ///< churn-driven swaps accepted
  uint64_t churn_swap_retries = 0;  ///< churn swaps refused, left pending
  double last_current_score = 0;   ///< incumbent score at last evaluation
  double last_candidate_score = 0; ///< challenger score at last evaluation
  double planning_millis = 0;      ///< Reoptimize time, drift and churn
};

/// Drives adaptive re-optimization of a uniform-workload ShardedRuntime.
/// Construct with the runtime's workload and the plan the runtime started
/// with, then feed the stream through Ingest(). The runtime must have a
/// disorder policy enabled (plan swaps retire old engines via watermarks)
/// and must outlive the manager.
class PlanManager {
 public:
  PlanManager(const Workload& workload, runtime::ShardedRuntime* rt,
              SharingPlan initial_plan, const PlanManagerOptions& options = {});

  /// Forwards `e` to the runtime (ingest partition 0) and samples it into
  /// the rate monitor; on an epoch boundary, considers re-optimization
  /// and a plan swap.
  void Ingest(const Event& e);

  /// Multi-producer variant: routes `e` through ingest partition
  /// `partition` instead of partition 0. The manager stays single-
  /// threaded — ALL partitions must be driven from the manager's one
  /// thread (which also satisfies the quiescence contract of
  /// RequestPlanSwap); watermark punctuations reach only the given
  /// partition, so the caller broadcasts them per producer as usual.
  void Ingest(const Event& e, size_t partition);

  /// The plan currently executing (initial plan until the first accepted
  /// swap; updated at swap REQUEST time — the runtime applies it at the
  /// watermark-aligned boundary).
  const SharingPlan& current_plan() const { return current_plan_; }

  /// Identifier of the incumbent plan: the runtime's accepted-swap count
  /// when the plan became current (0 for a never-swapped initial plan).
  /// Checkpoints persist it (checkpoint::Manifest::swaps_requested) and
  /// restore seeds the runtime's swap counter from it, so a manager
  /// constructed on a restored runtime — with the checkpoint-time
  /// incumbent as its initial plan — continues the id sequence and
  /// re-optimizes from the right baseline instead of restarting at 0.
  uint64_t incumbent_plan_id() const { return incumbent_plan_id_; }

  const PlanManagerStats& stats() const { return stats_; }
  const RateMonitor& monitor() const { return monitor_; }

  /// Outcome of the most recent epoch evaluation (phase stats included).
  const ReoptimizeResult& last_reoptimize() const { return last_reopt_; }

  // --- live query churn (src/query/registration.h) ----------------------
  //
  // The attached registry is the DESIRED standing query set; the manager
  // turns accepted churn calls into a plan swap at the next watermark-
  // aligned boundary, reusing the drift hot-swap machinery. Every accepted
  // churn call re-plans the changed active set with the drift rule
  // (Reoptimize at the monitor's current rates) and always swaps: the old
  // plan no longer covers the query set. All churn calls are ingest-thread
  // only, like Ingest itself.

  /// Attaches the registry (must wrap the SAME workload this manager was
  /// constructed with, and outlive the manager). Churn calls without an
  /// attached registry are refused with kBadQuery.
  void AttachRegistry(query::QueryRegistry* registry);

  /// Registers a new standing query. On acceptance the active set is
  /// re-planned and a churn swap is attempted immediately (retried with
  /// the same plan on later watermark punctuations while refused). The
  /// returned id produces results beginning at the commit boundary.
  query::ChurnResult RegisterQuery(Query q);

  /// Retires a live query at the next boundary; its id keeps already-
  /// finalized windows readable forever (result-surface identity).
  query::ChurnResult RetireQuery(QueryId id);

  /// Re-opens a retired id's result surface at the next boundary.
  query::ChurnResult ReactivateQuery(QueryId id);

  /// Churn ops accepted but not yet committed at a swap boundary.
  size_t pending_churn() const {
    return registry_ ? registry_->pending().size() : 0;
  }

  /// Outcome of the most recent churn swap attempt (typed OpRefusal when
  /// the runtime refused, e.g. kSwapInFlight/kCheckpointInFlight).
  const runtime::ShardedRuntime::SwapRequest& last_churn_swap() const {
    return last_churn_swap_;
  }

 private:
  void EvaluateEpoch();

  /// Reoptimize over the active set at the monitor's current rates (zero
  /// before the first full window: a zero-rate plan shares nothing, the
  /// right cold-start plan, and that window evaluates it) with the
  /// configured SO pipeline.
  ReoptimizeResult Replan();

  /// One accepted churn call: trace + metrics, a re-plan of the changed
  /// active set, and the churn swap.
  void OnChurn(obs::TraceKind kind, QueryId id);

  /// Compiles churn_plan_ and requests the swap that commits every
  /// pending churn op. Refusals leave the ops pending; the caller retries
  /// on watermark punctuations.
  void TryChurnSwap();

  const Workload* workload_;
  runtime::ShardedRuntime* runtime_;
  SharingPlan current_plan_;
  PlanManagerOptions options_;
  RateMonitor monitor_;
  PlanManagerStats stats_;
  ReoptimizeResult last_reopt_;
  uint64_t incumbent_plan_id_ = 0;
  int64_t last_evaluated_epoch_ = -1;
  bool baselined_ = false;
  /// A churn call before the first full window planned at zero rates:
  /// every epoch from that window on evaluates, drift or not, until an
  /// evaluation holds or its swap is accepted. A hold with churn still
  /// pending hands its plan to the churn retry.
  bool zero_rate_plan_ = false;
  query::QueryRegistry* registry_ = nullptr;
  /// The last churn call's plan over the active set (or a later held
  /// evaluation's); a refused churn swap retries with it.
  SharingPlan churn_plan_;
  runtime::ShardedRuntime::SwapRequest last_churn_swap_;
};

}  // namespace sharon::adaptive

#endif  // SHARON_ADAPTIVE_PLAN_MANAGER_H_
