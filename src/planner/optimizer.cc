#include "src/planner/optimizer.h"

#include <algorithm>

#include "src/common/metrics.h"
#include "src/graph/gwmin.h"
#include "src/graph/reduction.h"
#include "src/sharing/ccspan.h"

namespace sharon {
namespace {

SharonGraph BuildTimed(const Workload& workload,
                       const std::vector<Candidate>& candidates,
                       const SharonGraph::WeightFn& weight,
                       OptimizerResult* r) {
  StopWatch watch;
  SharonGraph g = SharonGraph::Build(workload, candidates, weight);
  r->candidates = candidates.size();
  r->graph_vertices = g.num_vertices();
  r->graph_edges = g.num_edges();
  r->phases.push_back(
      {"graph construction", watch.ElapsedMillis(), g.EstimatedBytes(), ""});
  return g;
}

// Algorithm 6, timed. The phase note says when max_total_candidates cut
// expansion short, since the graph then lacks some vertices' options.
SharonGraph ExpandTimed(const SharonGraph& g, const Workload& workload,
                        const SharonGraph::WeightFn& weight,
                        const ExpansionOptions& opts, OptimizerResult* r) {
  StopWatch watch;
  ExpansionStats stats;
  SharonGraph expanded = ExpandGraph(g, workload, weight, opts, &stats);
  r->expanded_vertices = expanded.num_vertices();
  std::string note;
  if (stats.budget_reached) {
    note = "expansion budget reached after " +
           std::to_string(stats.expanded) + " of " +
           std::to_string(g.num_vertices()) + " candidates";
  }
  r->phases.push_back({"graph expansion", watch.ElapsedMillis(),
                       expanded.EstimatedBytes(), std::move(note)});
  return expanded;
}

}  // namespace

OptimizerResult OptimizeGreedy(const Workload& workload,
                               const std::vector<Candidate>& candidates,
                               const SharonGraph::WeightFn& weight) {
  OptimizerResult r;
  SharonGraph g = BuildTimed(workload, candidates, weight, &r);

  StopWatch watch;
  GwminResult greedy = RunGwmin(g);
  r.score = greedy.weight;
  r.plan = g.ToPlan(greedy.independent_set);
  r.plans_considered = greedy.independent_set.size();
  r.phases.push_back({"GWMIN", watch.ElapsedMillis(), g.EstimatedBytes(), ""});
  return r;
}

OptimizerResult OptimizeExhaustive(const Workload& workload,
                                   const std::vector<Candidate>& candidates,
                                   const SharonGraph::WeightFn& weight,
                                   const OptimizerConfig& config) {
  OptimizerResult r;
  SharonGraph g = BuildTimed(workload, candidates, weight, &r);

  if (config.expand) {
    g = ExpandTimed(g, workload, weight, config.expansion, &r);
  }

  StopWatch watch;
  PlanFinderResult found = ExhaustiveSearch(g, config.finder);
  r.completed = found.completed;
  r.limit = found.limit;
  r.plans_considered = found.plans_considered;
  r.score = found.best_score;
  r.plan = g.ToPlan(found.best);
  // The naive exhaustive optimizer materialises every plan it considers;
  // model that storage explicitly (Fig. 15(b) exponential memory).
  const size_t per_plan_bytes =
      g.num_vertices() / 2 * sizeof(VertexId) + sizeof(double);
  r.phases.push_back({"exhaustive search", watch.ElapsedMillis(),
                      g.EstimatedBytes() +
                          found.plans_considered * per_plan_bytes,
                      found.completed ? "" : PlanFinderLimitName(found.limit)});
  return r;
}

OptimizerResult OptimizeSharon(const Workload& workload,
                               const std::vector<Candidate>& candidates,
                               const SharonGraph::WeightFn& weight,
                               const OptimizerConfig& config) {
  OptimizerResult r;
  SharonGraph g = BuildTimed(workload, candidates, weight, &r);

  if (config.expand) {
    g = ExpandTimed(g, workload, weight, config.expansion, &r);
  }

  std::vector<VertexId> conflict_free;
  if (config.reduce) {
    StopWatch watch;
    ReductionResult red = ReduceGraph(g);
    conflict_free = std::move(red.conflict_free);
    r.conflict_free = conflict_free.size();
    r.pruned_ridden = red.pruned_ridden.size();
    r.reduced_vertices = red.remaining;
    r.phases.push_back(
        {"graph reduction", watch.ElapsedMillis(), g.EstimatedBytes(), ""});
  } else {
    r.reduced_vertices = g.num_vertices();
  }

  StopWatch watch;
  PlanFinderResult found = FindOptimalPlan(g, config.finder);
  r.plans_considered = found.plans_considered;

  std::vector<VertexId> chosen;
  if (found.completed) {
    chosen = found.best;
  } else {
    // §6 extreme case 1: fall back to GWMIN's polynomial-time plan. The
    // phase note names the limit that triggered the fallback so Fig. 15
    // output (and adaptive-planner logs) show time-outs and level
    // overflows as distinct events.
    r.used_fallback = true;
    r.completed = false;
    r.limit = found.limit;
    chosen = RunGwmin(g).independent_set;
  }
  // Conflict-free candidates always join the final plan (Alg. 4 line 11).
  chosen.insert(chosen.end(), conflict_free.begin(), conflict_free.end());
  r.score = g.WeightOf(chosen);
  r.plan = g.ToPlan(chosen);
  r.phases.push_back(
      {"plan finder", watch.ElapsedMillis(),
       g.EstimatedBytes() + found.peak_bytes,
       found.completed
           ? ""
           : std::string(PlanFinderLimitName(found.limit)) +
                 " -> GWMIN fallback"});
  return r;
}

OptimizerResult OptimizeGreedy(const Workload& workload, const CostModel& cm) {
  auto cands = FindSharableCandidates(workload);
  return OptimizeGreedy(workload, cands, [&](const Candidate& c) {
    return cm.BValue(c, workload);
  });
}

OptimizerResult OptimizeExhaustive(const Workload& workload,
                                   const CostModel& cm,
                                   const OptimizerConfig& config) {
  auto cands = FindSharableCandidates(workload);
  return OptimizeExhaustive(
      workload, cands,
      [&](const Candidate& c) { return cm.BValue(c, workload); }, config);
}

OptimizerResult OptimizeSharon(const Workload& workload, const CostModel& cm,
                               const OptimizerConfig& config) {
  auto cands = FindSharableCandidates(workload);
  return OptimizeSharon(
      workload, cands,
      [&](const Candidate& c) { return cm.BValue(c, workload); }, config);
}

ReoptimizeResult Reoptimize(const Workload& workload, const CostModel& cm,
                            const SharingPlan& current,
                            const OptimizerConfig& config) {
  ReoptimizeResult r;
  StopWatch watch;
  r.current_score = PlanScore(current, workload, cm);
  r.phases.push_back({"re-cost current", watch.ElapsedMillis(), 0, ""});

  watch.Reset();
  OptimizerResult go = OptimizeGreedy(workload, cm);
  r.phases.push_back({"GO", watch.ElapsedMillis(), go.PeakBytes(), ""});
  if (go.graph_edges == 0) {
    r.chosen = std::move(go);
    return r;
  }

  watch.Reset();
  OptimizerResult so = OptimizeSharon(workload, cm, config);
  r.escalated = true;
  r.phases.push_back({"SO", watch.ElapsedMillis(), so.PeakBytes(),
                      so.completed ? "" : PlanFinderLimitName(so.limit)});
  r.chosen = so.score > go.score ? std::move(so) : std::move(go);
  return r;
}

}  // namespace sharon
