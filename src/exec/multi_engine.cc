#include "src/exec/multi_engine.h"

#include <algorithm>
#include <map>
#include <tuple>

namespace sharon {

std::shared_ptr<const MultiEnginePlan> PlanMultiEngine(
    const Workload& workload, const CostModel& cost_model,
    const OptimizerConfig& config) {
  auto plan = std::make_shared<MultiEnginePlan>();
  if (workload.empty()) {
    plan->error = "empty workload";
    return plan;
  }
  plan->total_queries = workload.size();
  plan->routes.resize(workload.size());

  // Group queries into uniform segments by (window, partition attribute).
  std::map<std::tuple<Duration, Duration, AttrIndex>, size_t> index;
  for (const Query& q : workload.queries()) {
    auto key = std::make_tuple(q.window.length, q.window.slide,
                               q.partition_attr);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, plan->segments.size()).first;
      plan->segments.emplace_back();
    }
    MultiEnginePlan::Segment& seg = plan->segments[it->second];
    Query local = q;  // re-keyed by Workload::Add
    QueryId local_id = seg.workload.Add(std::move(local));
    seg.original_ids.push_back(q.id);
    plan->routes[q.id] = {it->second, local_id};
  }

  // Optimize and compile each segment independently (§7.2: sharing within
  // segments only).
  for (MultiEnginePlan::Segment& seg : plan->segments) {
    OptimizerResult opt = OptimizeSharon(seg.workload, cost_model, config);
    seg.compiled = CompilePlanShared(seg.workload, opt.plan, &plan->error);
    if (!seg.compiled) return plan;
    plan->plans.push_back(std::move(opt));
  }
  return plan;
}

std::shared_ptr<const MultiEnginePlan> UniformPlan(
    const Workload& workload, CompiledPlanHandle compiled) {
  auto plan = std::make_shared<MultiEnginePlan>();
  plan->segments.push_back({workload, {}, std::move(compiled)});
  plan->total_queries = workload.size();
  return plan;
}

MultiEngine::MultiEngine(const Workload& workload, const CostModel& cost_model,
                         const OptimizerConfig& config)
    : MultiEngine(PlanMultiEngine(workload, cost_model, config)) {}

MultiEngine::MultiEngine(std::shared_ptr<const MultiEnginePlan> plan)
    : plan_(std::move(plan)) {
  if (!plan_) {
    error_ = "null multi-engine plan";
    plan_ = std::make_shared<MultiEnginePlan>();
    return;
  }
  if (!plan_->ok()) {
    error_ = plan_->error;
    return;
  }
  engines_.reserve(plan_->segments.size());
  for (const MultiEnginePlan::Segment& seg : plan_->segments) {
    engines_.push_back(std::make_unique<Engine>(seg.workload, seg.compiled));
    if (!engines_.back()->ok()) {
      error_ = engines_.back()->error();
      return;
    }
  }
}

void MultiEngine::SetDisorderPolicy(const DisorderPolicy& policy) {
  for (auto& engine : engines_) engine->SetDisorderPolicy(policy);
}

void MultiEngine::AdvanceWatermark(Timestamp t) {
  for (auto& engine : engines_) engine->AdvanceWatermark(t);
}

void MultiEngine::CloseStream() {
  for (auto& engine : engines_) engine->CloseStream();
}

bool MultiEngine::Finalized(QueryId query, WindowId window) const {
  return engines_[plan_->RouteOf(query).segment]->Finalized(window);
}

WatermarkStats MultiEngine::watermark_stats() const {
  // Every segment engine sees the SAME arrival stream, so stream-level
  // counters (late drops, regressions, buffer peak) must not be summed
  // across segments — that would overcount by the segment count. They
  // combine by max (identical in practice); per-engine state counters
  // (eviction, finalization, suppression) are disjoint and sum; the
  // frontier is the minimum. Contrast WatermarkStats::MergeFrom, whose
  // additive semantics fit shards that each see a disjoint slice of the
  // stream.
  WatermarkStats out;
  for (const auto& engine : engines_) {
    const WatermarkStats& ws = engine->watermark_stats();
    if (out.watermark == kNoWatermark || ws.watermark < out.watermark) {
      out.watermark = ws.watermark;
    }
    if (out.safe_point == kNoWatermark || ws.safe_point < out.safe_point) {
      out.safe_point = ws.safe_point;
    }
    out.late_dropped = std::max(out.late_dropped, ws.late_dropped);
    out.regressions = std::max(out.regressions, ws.regressions);
    out.buffered_peak = std::max(out.buffered_peak, ws.buffered_peak);
    out.evicted_panes += ws.evicted_panes;
    out.evicted_groups += ws.evicted_groups;
    out.finalized_windows += ws.finalized_windows;
    out.finalized_cells += ws.finalized_cells;
    out.suppressed_cells += ws.suppressed_cells;
  }
  return out;
}

LiveState MultiEngine::LiveStateSnapshot() const {
  LiveState live;
  for (const auto& engine : engines_) {
    live.MergeFrom(engine->LiveStateSnapshot());
  }
  return live;
}

double MultiEngine::Value(QueryId query, WindowId window, AttrValue group,
                          AggFunction fn) const {
  return Get(query, window, group).Final(fn);
}

AggState MultiEngine::Get(QueryId query, WindowId window,
                          AttrValue group) const {
  const MultiEnginePlan::Route r = plan_->RouteOf(query);
  return engines_[r.segment]->results().Get(r.local, window, group);
}

void MultiEngine::ForEachCell(
    const std::function<void(const ResultKey&, const AggState&)>& fn) const {
  for (size_t s = 0; s < engines_.size(); ++s) {
    engines_[s]->results().ForEachCell(
        [&](const ResultKey& key, const AggState& state) {
          ResultKey original = key;
          original.query = plan_->OriginalId(s, key.query);
          fn(original, state);
        });
  }
}

size_t MultiEngine::num_shared_counters() const {
  size_t n = 0;
  for (const auto& engine : engines_) n += engine->num_shared_counters();
  return n;
}

size_t MultiEngine::EstimatedBytes() const {
  size_t n = 0;
  for (const auto& engine : engines_) n += engine->EstimatedBytes();
  return n;
}

}  // namespace sharon
