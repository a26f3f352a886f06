// The optimal sharing plan finder (paper §6, Algorithms 3 and 4).
//
// Visits ONLY the valid portion of the 2^|V| plan lattice (Fig. 8), one
// connected component at a time. By Lemma 6, the child P+u+x of a valid
// plan P+u is valid iff P+x is valid and x does not conflict with u — no
// other candidate needs checking — so invalid branches are cut at their
// roots (Lemma 4). Each plan therefore keeps the candidates that extend it
// as one bit mask over the component's vertices, and a child's mask is its
// parent's mask above u minus u's conflict row: one AND per word.
//
// The paper joins the lattice level by level; this walks the same lattice
// depth first, the enumeration scheme of Bron and Kerbosch (CACM 1973)
// applied to independent sets, and reports what the level-wise search
// reports: the same plans visited, per-size counts in place of level
// sizes, and the same best plan (see FindOptimalPlan). The walk holds the
// component's conflict bit matrix and one candidate mask per depth, in
// buffers reused across components: no lattice level is stored, so memory
// and allocations do not grow with the number of plans visited.

#ifndef SHARON_PLANNER_PLAN_FINDER_H_
#define SHARON_PLANNER_PLAN_FINDER_H_

#include <cstdint>
#include <vector>

#include "src/graph/sharon_graph.h"

namespace sharon {

/// Limits for the exponential worst case (§6 "extreme cases").
struct PlanFinderOptions {
  double time_limit_seconds = 60.0;
  /// Most plans of one size (one lattice level) a component may have; 0 is
  /// unlimited. Sizes >= 2 are checked. A component with a larger level
  /// stops the search with kLevelSize, reporting the levels below the
  /// smallest such level in full, as a level-wise search would.
  uint64_t max_level_plans = 2'000'000;
};

/// Which of the §6 extreme-case limits stopped an incomplete search.
enum class PlanFinderLimit {
  kNone,       ///< search completed
  kTime,       ///< time_limit_seconds expired
  kLevelSize,  ///< a lattice level of size >= 2 exceeded max_level_plans
  kVertexCount ///< too many vertices to enumerate at all (exhaustive)
};

/// Human-readable name of a limit ("time limit", "level-size limit", ...).
const char* PlanFinderLimitName(PlanFinderLimit limit);

/// Outcome of the search.
struct PlanFinderResult {
  std::vector<VertexId> best;   ///< optimal valid plan (vertex ids)
  double best_score = 0;
  uint64_t plans_considered = 0;
  size_t peak_level_plans = 0;  ///< widest lattice level (plans of one size)
  /// Fig. 15(b) memory proxy: bytes held by the finder's buffers (the
  /// conflict bit matrix, one candidate mask per depth, the weights, the
  /// current path and its scores, the per-size counts and the best plan).
  size_t peak_bytes = 0;
  bool completed = true;        ///< false: hit the time/size limit
  /// The limit that triggered completed=false (kNone when completed), so
  /// callers can report WHY a search fell back instead of a bare flag.
  PlanFinderLimit limit = PlanFinderLimit::kNone;
};

/// Algorithm 4: visits every valid plan, returning the best one. Within a
/// component, the best plan is the first one of maximal score in (size,
/// then lexicographic) order; scores sum left to right in ascending vertex
/// order, and component optima are summed in ConnectedComponents() order.
/// The time limit is checked at the first plan and every 16,384 after it.
PlanFinderResult FindOptimalPlan(const SharonGraph& graph,
                                 const PlanFinderOptions& opts = {});

/// Reference exhaustive search over ALL 2^|V| subsets (the paper's
/// "exhaustive optimizer"). Honors the same limits.
PlanFinderResult ExhaustiveSearch(const SharonGraph& graph,
                                  const PlanFinderOptions& opts = {});

}  // namespace sharon

#endif  // SHARON_PLANNER_PLAN_FINDER_H_
