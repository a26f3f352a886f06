// The optimal sharing plan finder (paper §6, Algorithms 3 and 4).
//
// Traverses ONLY the valid portion of the 2^|V| plan lattice (Fig. 8)
// breadth-first, one connected component at a time. Level s+1 is
// generated apriori-style from level s (Lemma 6): two valid plans sharing
// their first s-1 candidates join into a child, which is valid iff their
// two differing candidates are not in conflict — no other parent needs
// checking. Invalid branches are thereby cut at their roots (Lemma 4),
// and only the level being joined and the one it produces are held in
// memory.
//
// Layout: a level is stored flat — one array of width x n
// component-local vertex indices, one of scores and one of block starts.
// The children of one parent form exactly one block of the next level
// (the plans sharing a prefix), so the joins need no prefix comparison.
// Each component's conflicts are a bit matrix, and each block's last
// indices are one mask over the same indices, so a parent's valid
// partners (Lemma 6) are the mask minus the parent's conflict row, read
// upward with count-trailing-zeros in the order of a pairwise loop. The
// matrix, the weights and two level buffers are allocated once per
// FindOptimalPlan call and reused across levels and components, so the
// search allocates independently of the number of plans it visits.

#ifndef SHARON_PLANNER_PLAN_FINDER_H_
#define SHARON_PLANNER_PLAN_FINDER_H_

#include <cstdint>
#include <vector>

#include "src/graph/sharon_graph.h"

namespace sharon {

/// Limits for the exponential worst case (§6 "extreme cases").
struct PlanFinderOptions {
  double time_limit_seconds = 60.0;
  uint64_t max_level_plans = 2'000'000;
};

/// Which of the §6 extreme-case limits stopped an incomplete search.
enum class PlanFinderLimit {
  kNone,       ///< search completed
  kTime,       ///< time_limit_seconds expired
  kLevelSize,  ///< a lattice level exceeded max_level_plans
  kVertexCount ///< too many vertices to enumerate at all (exhaustive)
};

/// Human-readable name of a limit ("time limit", "level-size limit", ...).
const char* PlanFinderLimitName(PlanFinderLimit limit);

/// Outcome of the search.
struct PlanFinderResult {
  std::vector<VertexId> best;   ///< optimal valid plan (vertex ids)
  double best_score = 0;
  uint64_t plans_considered = 0;
  size_t peak_level_plans = 0;  ///< widest level held in memory
  /// Fig. 15(b) memory proxy: bytes held by the finder's flat buffers
  /// (two lattice levels, the conflict bit matrix and the weights).
  size_t peak_bytes = 0;
  bool completed = true;        ///< false: hit the time/size limit
  /// The limit that triggered completed=false (kNone when completed), so
  /// callers can report WHY a search fell back instead of a bare flag.
  PlanFinderLimit limit = PlanFinderLimit::kNone;
};

/// Algorithm 4: BFS over valid plans, returning the best one. Within a
/// component, the best plan is the first one of maximal score in (size,
/// then lexicographic) order; scores sum left to right in ascending vertex
/// order, and component optima are summed in ConnectedComponents() order.
PlanFinderResult FindOptimalPlan(const SharonGraph& graph,
                                 const PlanFinderOptions& opts = {});

/// Reference exhaustive search over ALL 2^|V| subsets (the paper's
/// "exhaustive optimizer"). Honors the same limits.
PlanFinderResult ExhaustiveSearch(const SharonGraph& graph,
                                  const PlanFinderOptions& opts = {});

}  // namespace sharon

#endif  // SHARON_PLANNER_PLAN_FINDER_H_
