// The three optimizer pipelines compared in the paper's §8.3 (Fig. 15):
//
//  - Greedy optimizer (GO):     graph construction -> GWMIN.
//  - Exhaustive optimizer (EO): graph construction -> expansion (§7.1) ->
//                               exhaustive search over all 2^|V| plans.
//  - Sharon optimizer (SO):     graph construction -> expansion ->
//                               reduction (§5) -> sharing plan finder (§6);
//                               falls back to GWMIN when the time limit
//                               expires (§6 extreme case 1).
//
// Every pipeline reports per-phase latency and memory so the Fig. 15
// bench can print phase-segmented bars.

#ifndef SHARON_PLANNER_OPTIMIZER_H_
#define SHARON_PLANNER_OPTIMIZER_H_

#include <string>
#include <vector>

#include "src/graph/expansion.h"
#include "src/graph/sharon_graph.h"
#include "src/planner/plan_finder.h"
#include "src/sharing/cost_model.h"

namespace sharon {

/// Latency/memory of one optimizer phase (Fig. 15 bar segment).
struct OptimizerPhase {
  std::string name;
  double millis = 0;
  size_t bytes = 0;
  /// Diagnostic annotation, e.g. which limit cut the phase short
  /// ("time limit", "level-size limit"). Empty for clean phases.
  std::string note;
};

/// Outcome of an optimizer pipeline.
struct OptimizerResult {
  SharingPlan plan;
  double score = 0;            ///< sum of candidate benefits (Def. 8)
  bool completed = true;       ///< false: EO/SO hit its limits
  bool used_fallback = false;  ///< SO timed out and returned GWMIN's plan
  /// The specific limit behind completed=false (kNone when completed):
  /// time expired vs. an oversized lattice level vs. too many vertices.
  PlanFinderLimit limit = PlanFinderLimit::kNone;
  std::vector<OptimizerPhase> phases;

  // Pipeline statistics.
  size_t candidates = 0;        ///< sharable candidates found (Alg. 7)
  size_t graph_vertices = 0;    ///< beneficial candidates (Alg. 1)
  size_t graph_edges = 0;
  size_t expanded_vertices = 0; ///< after §7.1 expansion
  size_t conflict_free = 0;     ///< |F| from reduction
  size_t pruned_ridden = 0;     ///< conflict-ridden candidates pruned
  size_t reduced_vertices = 0;  ///< remaining after reduction
  uint64_t plans_considered = 0;

  double TotalMillis() const {
    double t = 0;
    for (const auto& p : phases) t += p.millis;
    return t;
  }
  size_t PeakBytes() const {
    size_t b = 0;
    for (const auto& p : phases) b = std::max(b, p.bytes);
    return b;
  }
};

/// Pipeline knobs.
struct OptimizerConfig {
  bool expand = true;  ///< §7.1 conflict resolution (EO and SO)
  bool reduce = true;  ///< §5 candidate pruning (SO)
  ExpansionOptions expansion;
  PlanFinderOptions finder;
};

/// Low-level entry points taking precomputed candidates and a weight
/// function (tests inject the paper's Fig. 4 weights through these).
OptimizerResult OptimizeGreedy(const Workload& workload,
                               const std::vector<Candidate>& candidates,
                               const SharonGraph::WeightFn& weight);
OptimizerResult OptimizeExhaustive(const Workload& workload,
                                   const std::vector<Candidate>& candidates,
                                   const SharonGraph::WeightFn& weight,
                                   const OptimizerConfig& config = {});
OptimizerResult OptimizeSharon(const Workload& workload,
                               const std::vector<Candidate>& candidates,
                               const SharonGraph::WeightFn& weight,
                               const OptimizerConfig& config = {});

/// Convenience entry points: candidates via modified CCSpan, weights via
/// the §3 cost model.
OptimizerResult OptimizeGreedy(const Workload& workload, const CostModel& cm);
OptimizerResult OptimizeExhaustive(const Workload& workload,
                                   const CostModel& cm,
                                   const OptimizerConfig& config = {});
OptimizerResult OptimizeSharon(const Workload& workload, const CostModel& cm,
                               const OptimizerConfig& config = {});

// --- re-optimization (§7.4 dynamic workloads) ------------------------------
//
// The one planning rule for a running workload: when the rates drift or
// the standing query set churns, src/adaptive/PlanManager re-plans the
// active set with Reoptimize and hot-swaps the winner
// (src/runtime/plan_swap.h). The pass re-costs the CURRENT plan under the
// new rates (Def. 8 is a pure function of rates), runs the polynomial GO
// pipeline, and pays for the exponential SO pipeline only when GO's graph
// carries a conflict edge: a conflict-free graph's GWMIN pick is already
// every positive vertex, so SO cannot improve it. SO's plan wins only
// when it scores strictly higher, so no pass scores below GO — not even
// where the expansion budget leaves SO's graph short of GO's.

/// Outcome of one re-optimization pass.
struct ReoptimizeResult {
  /// The incumbent plan's score (Def. 8 sum) under the NEW rates.
  double current_score = 0;
  /// The winning freshly-optimized pipeline outcome (GO, or SO when it
  /// ran and scored strictly higher).
  OptimizerResult chosen;
  bool escalated = false;  ///< SO pipeline ran (GO's graph had a conflict)
  /// Phase stats of the whole pass: "re-cost current", "GO", ["SO"].
  std::vector<OptimizerPhase> phases;

  /// Predicted benefit gain of swapping to the chosen plan.
  double Gain() const { return chosen.score - current_score; }

  /// Gain relative to the incumbent (denominator floored at 1 so an
  /// empty/zero-benefit incumbent still produces a finite ratio).
  double GainRatio() const {
    return Gain() / (current_score > 1.0 ? current_score : 1.0);
  }

  double TotalMillis() const {
    double t = 0;
    for (const auto& p : phases) t += p.millis;
    return t;
  }
};

/// Re-scores `current` under `cm`'s rates and plans the workload's active
/// set (GO, then SO with `config` when GO's graph has a conflict edge).
/// Pure planning: the caller decides whether to swap to the chosen plan.
ReoptimizeResult Reoptimize(const Workload& workload, const CostModel& cm,
                            const SharingPlan& current,
                            const OptimizerConfig& config = {});

}  // namespace sharon

#endif  // SHARON_PLANNER_OPTIMIZER_H_
