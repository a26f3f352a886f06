#include "src/adaptive/plan_manager.h"

namespace sharon::adaptive {

PlanManager::PlanManager(const Workload& workload,
                         runtime::ShardedRuntime* rt, SharingPlan initial_plan,
                         const PlanManagerOptions& options)
    : workload_(&workload),
      runtime_(rt),
      current_plan_(std::move(initial_plan)),
      options_(options),
      monitor_(options.epoch, options.window_epochs,
               options.drift_threshold),
      // On a checkpoint-restored runtime the swap counter was seeded from
      // the manifest, so the id sequence continues across incarnations
      // (the caller passes the checkpoint-time incumbent as initial_plan).
      incumbent_plan_id_(rt ? rt->swaps_requested() : 0) {}

void PlanManager::Ingest(const Event& e) { Ingest(e, 0); }

void PlanManager::Ingest(const Event& e, size_t partition) {
  runtime_->ingest_partition(partition).Ingest(e);
  if (IsWatermark(e)) {
    // A watermark may have cleared whatever refused the last churn swap
    // (old engines retire and checkpoints seal on watermark progress), so
    // pending churn retries here rather than waiting for the next call.
    if (registry_ && !registry_->pending().empty()) TryChurnSwap();
    return;
  }
  monitor_.OnEvent(e);
  const int64_t epoch_id = e.time / options_.epoch;
  if (epoch_id <= last_evaluated_epoch_) return;
  if (last_evaluated_epoch_ >= 0) {
    stats_.epochs_seen +=
        static_cast<uint64_t>(epoch_id - last_evaluated_epoch_);
  }
  last_evaluated_epoch_ = epoch_id;
  // A full estimation window must close before rates mean anything.
  if (monitor_.epochs_closed() < options_.window_epochs) return;
  if (!baselined_) {
    // First complete window: take it as the rates the INITIAL plan stands
    // for (the caller optimized against startup rates; drift is measured
    // from here). A churn call before it planned at zero rates, though,
    // so that plan is evaluated here instead.
    monitor_.RebaseOnCurrent();
    baselined_ = true;
    if (!zero_rate_plan_) return;
  }
  EvaluateEpoch();
}

void PlanManager::EvaluateEpoch() {
  const bool drifted = monitor_.DriftDetected();
  if (options_.require_drift && !drifted && !zero_rate_plan_) return;
  if (drifted) ++stats_.drift_detections;
  ++stats_.evaluations;

  // Lifecycle trace (src/obs/): the manager runs on the ingest thread —
  // the control ring's designated writer — so emitting here keeps the
  // one-writer contract. Decision events carry the predicted gain in
  // parts-per-million (the ring payload is integral).
  obs::TraceRing* ring = runtime_ ? runtime_->control_trace() : nullptr;
  if (ring) {
    ring->Emit(obs::TraceKind::kReoptTriggered, kNoWatermark,
               last_evaluated_epoch_, drifted ? 1 : 0);
  }
  auto decide = [&](obs::ReoptOutcome outcome, double gain) {
    if (ring) {
      ring->Emit(obs::TraceKind::kReoptDecision, kNoWatermark,
                 static_cast<int64_t>(outcome),
                 static_cast<int64_t>(gain * 1e6));
    }
  };

  last_reopt_ = Replan();
  if (last_reopt_.escalated) ++stats_.escalations;
  stats_.last_current_score = last_reopt_.current_score;
  stats_.last_candidate_score = last_reopt_.chosen.score;

  if (last_reopt_.GainRatio() <= options_.hysteresis ||
      last_reopt_.chosen.plan == current_plan_) {
    ++stats_.holds;
    // The incumbent survived a fresh evaluation: it now stands for the
    // CURRENT rates, so drift is measured from here on. Without the
    // rebase a one-time rate shift would re-trigger the optimizer every
    // epoch forever even though the answer never changes.
    monitor_.RebaseOnCurrent();
    zero_rate_plan_ = false;
    // Pending churn still needs its swap: retry it with this pass's plan,
    // the same active set at fresher rates, so a zero-rate churn plan
    // refused before the first full window does not land unevaluated.
    if (registry_ && !registry_->pending().empty()) {
      churn_plan_ = last_reopt_.chosen.plan;
    }
    decide(obs::ReoptOutcome::kHold, last_reopt_.GainRatio());
    return;
  }

  std::string error;
  CompiledPlanHandle compiled =
      CompilePlanShared(*workload_, last_reopt_.chosen.plan, &error);
  ++stats_.swaps_requested;
  if (!compiled) {
    // An optimizer plan that fails compilation is a bug upstream; count
    // the refusal and keep the incumbent rather than crash the stream.
    ++stats_.swaps_rejected;
    decide(obs::ReoptOutcome::kSwapRejected, last_reopt_.GainRatio());
    return;
  }
  runtime::ShardedRuntime::SwapRequest req =
      runtime_->RequestPlanSwap(std::move(compiled));
  if (!req.accepted) {
    // Typically "previous swap still in flight": retry next epoch.
    ++stats_.swaps_rejected;
    decide(obs::ReoptOutcome::kSwapRejected, last_reopt_.GainRatio());
    return;
  }
  ++stats_.swaps_accepted;
  current_plan_ = last_reopt_.chosen.plan;
  incumbent_plan_id_ = req.id;
  // A drift swap compiles from the same active mask as a churn swap, so
  // it realizes any pending churn at its boundary: commit the ops there.
  if (registry_) registry_->CommitPending(req.boundary);
  monitor_.RebaseOnCurrent();
  zero_rate_plan_ = false;
  decide(obs::ReoptOutcome::kSwapAccepted, last_reopt_.GainRatio());
}

void PlanManager::AttachRegistry(query::QueryRegistry* registry) {
  registry_ = registry;
}

query::ChurnResult PlanManager::RegisterQuery(Query q) {
  if (!registry_) {
    return {false, query::ChurnRefusal::kBadQuery, "no registry attached", 0};
  }
  query::ChurnResult r = registry_->Register(std::move(q));
  if (!r.accepted) return r;
  ++stats_.queries_registered;
  OnChurn(obs::TraceKind::kQueryRegistered, r.id);
  return r;
}

query::ChurnResult PlanManager::RetireQuery(QueryId id) {
  if (!registry_) {
    return {false, query::ChurnRefusal::kBadQuery, "no registry attached", 0};
  }
  query::ChurnResult r = registry_->Retire(id);
  if (!r.accepted) return r;
  ++stats_.queries_retired;
  OnChurn(obs::TraceKind::kQueryRetired, id);
  return r;
}

query::ChurnResult PlanManager::ReactivateQuery(QueryId id) {
  if (!registry_) {
    return {false, query::ChurnRefusal::kBadQuery, "no registry attached", 0};
  }
  query::ChurnResult r = registry_->Reactivate(id);
  if (!r.accepted) return r;
  ++stats_.queries_registered;
  OnChurn(obs::TraceKind::kQueryRegistered, id);
  return r;
}

ReoptimizeResult PlanManager::Replan() {
  ReoptimizeResult r =
      Reoptimize(*workload_, CostModel(monitor_.CurrentRates()),
                 current_plan_, options_.optimizer);
  stats_.planning_millis += r.TotalMillis();
  return r;
}

void PlanManager::OnChurn(obs::TraceKind kind, QueryId id) {
  obs::TraceRing* ring = runtime_ ? runtime_->control_trace() : nullptr;
  if (ring) {
    ring->Emit(kind, kNoWatermark, static_cast<int64_t>(id),
               static_cast<int64_t>(registry_->pending().size()));
  }
  obs::RuntimeTelemetry* tel = runtime_ ? runtime_->telemetry() : nullptr;
  if (tel) {
    obs::CounterCell* cell = kind == obs::TraceKind::kQueryRegistered
                                 ? tel->control_cells().queries_registered
                                 : tel->control_cells().queries_retired;
    if (cell) cell->Inc();
  }
  zero_rate_plan_ = !baselined_;
  churn_plan_ = Replan().chosen.plan;
  TryChurnSwap();
}

void PlanManager::TryChurnSwap() {
  if (!registry_ || registry_->pending().empty()) return;
  std::string error;
  CompiledPlanHandle compiled =
      CompilePlanShared(*workload_, churn_plan_, &error);
  if (!compiled) {
    ++stats_.churn_swap_retries;
    last_churn_swap_ = {};
    last_churn_swap_.code = runtime::OpRefusal::kBadPlan;
    last_churn_swap_.reason = error;
    return;
  }
  last_churn_swap_ = runtime_->RequestPlanSwap(std::move(compiled));
  if (!last_churn_swap_.accepted) {
    // Typed refusal (kSwapInFlight, kCheckpointInFlight, ...): the ops
    // stay pending and retry on the next watermark punctuation.
    ++stats_.churn_swap_retries;
    return;
  }
  registry_->CommitPending(last_churn_swap_.boundary);
  current_plan_ = churn_plan_;
  incumbent_plan_id_ = last_churn_swap_.id;
  // The swapped-in plan stands for the current rates: measure drift from
  // here, exactly as after a drift-triggered swap.
  monitor_.RebaseOnCurrent();
  ++stats_.churn_swaps;
  obs::RuntimeTelemetry* tel = runtime_ ? runtime_->telemetry() : nullptr;
  if (tel && tel->control_cells().churn_swaps) {
    tel->control_cells().churn_swaps->Inc();
  }
}

}  // namespace sharon::adaptive
