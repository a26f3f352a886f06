#include "src/planner/plan_finder.h"

#include <algorithm>
#include <bit>

#include "src/common/metrics.h"

namespace sharon {
namespace {

/// Plans visited between two reads of the clock.
constexpr uint64_t kClockStride = 16384;

/// Buffers of one FindOptimalPlan call, reused across components: they
/// grow only when a component is wider than every earlier one. Rows are
/// `stride` words over component-local vertex indices.
struct Workspace {
  std::vector<uint32_t> local;      ///< vertex id -> index in its component
  std::vector<double> weights;      ///< by component-local index
  std::vector<uint64_t> conflicts;  ///< row i: the indices i conflicts with
  /// Row d: the candidates left to extend the current path's plan of size
  /// d with, all above its last index.
  std::vector<uint64_t> masks;
  std::vector<uint32_t> path;    ///< the current plan, ascending
  std::vector<double> scores;    ///< scores[d]: the score of path[0, d)
  std::vector<uint64_t> counts;  ///< counts[s]: plans of size s visited
  std::vector<uint32_t> best;    ///< the component's best plan so far
  uint64_t until_clock = 1;      ///< plans left before the next clock read

  size_t Bytes() const {
    return local.capacity() * sizeof(uint32_t) +
           weights.capacity() * sizeof(double) +
           conflicts.capacity() * sizeof(uint64_t) +
           masks.capacity() * sizeof(uint64_t) +
           path.capacity() * sizeof(uint32_t) +
           scores.capacity() * sizeof(double) +
           counts.capacity() * sizeof(uint64_t) +
           best.capacity() * sizeof(uint32_t);
  }
};

/// Algorithms 3 and 4 over one connected component (sorted vertex ids),
/// depth first. Returns the limit that stopped the walk, or kNone after
/// appending the component's optimal sub-plan to `result`.
PlanFinderLimit WalkComponent(const SharonGraph& graph,
                              const std::vector<VertexId>& component,
                              const PlanFinderOptions& opts,
                              const StopWatch& watch, Workspace* ws,
                              PlanFinderResult* result) {
  const size_t n = component.size();
  const size_t stride = (n + 63) / 64;
  for (uint32_t i = 0; i < n; ++i) ws->local[component[i]] = i;
  ws->weights.assign(n, 0);
  ws->conflicts.assign(n * stride, 0);
  for (uint32_t i = 0; i < n; ++i) {
    ws->weights[i] = graph.weight(component[i]);
    // Edges never leave a component, so every alive neighbour is local.
    for (VertexId u : graph.adjacency(component[i])) {
      if (!graph.alive(u)) continue;
      const uint32_t j = ws->local[u];
      ws->conflicts[i * stride + j / 64] |= uint64_t{1} << (j % 64);
    }
  }
  // Row 0 holds every candidate: the children of the empty plan.
  ws->masks.assign((n + 1) * stride, 0);
  for (uint32_t i = 0; i < n; ++i) {
    ws->masks[i / 64] |= uint64_t{1} << (i % 64);
  }
  ws->path.assign(n, 0);
  ws->scores.assign(n + 1, 0);
  ws->counts.assign(n + 1, 0);
  ws->best.clear();
  ws->best.reserve(n);
  // -0.0 is the identity of floating-point addition, so a one-candidate
  // plan scores exactly its weight, as level 1 of Alg. 4 does.
  ws->scores[0] = -0.0;

  const double* weights = ws->weights.data();
  const uint64_t* conflicts = ws->conflicts.data();
  uint32_t* path = ws->path.data();
  double* scores = ws->scores.data();
  uint64_t* counts = ws->counts.data();
  double best_score = 0;
  // Plans larger than `cap` are not visited. It drops below n only when a
  // size crosses max_level_plans.
  size_t cap = n;
  size_t depth = 0;  // the size of the plan whose children are visited
  PlanFinderLimit limit = PlanFinderLimit::kNone;
  while (limit != PlanFinderLimit::kTime) {
    uint64_t* mask = ws->masks.data() + depth * stride;
    size_t w = depth == 0 ? 0 : path[depth - 1] / 64;
    while (w < stride && mask[w] == 0) ++w;
    if (w == stride) {  // every child of this plan has been visited
      if (depth == 0) break;
      --depth;
      continue;
    }
    const uint32_t u =
        static_cast<uint32_t>(w * 64 + std::countr_zero(mask[w]));
    mask[w] &= mask[w] - 1;
    // Scores sum left to right in ascending vertex order, as Alg. 3 adds
    // each child's last candidate to its parent's score.
    const double score = scores[depth] + weights[u];
    const size_t size = depth + 1;
    path[depth] = u;
    ++counts[size];
    // The best plan is the first maximum in (size, then lexicographic)
    // order, the plan the level-wise strict-> rule keeps. Depth first, a
    // plan visited later is lexicographically larger than any earlier one
    // of its size, so only a smaller size breaks a tie.
    if (score > best_score ||
        (score == best_score && size < ws->best.size())) {
      best_score = score;
      ws->best.assign(path, path + size);
    }
    if (--ws->until_clock == 0) {
      ws->until_clock = kClockStride;
      if (watch.ElapsedSeconds() > opts.time_limit_seconds) {
        limit = PlanFinderLimit::kTime;
        continue;
      }
    }
    if (size >= 2 && opts.max_level_plans > 0 &&
        counts[size] > opts.max_level_plans) {
      // The level-wise search stops before it builds the smallest level
      // that exceeds the limit, having visited every smaller level in
      // full. So stop at this size, finish the smaller ones and report
      // those: a later crossing at a smaller size lowers the cap again.
      limit = PlanFinderLimit::kLevelSize;
      cap = depth;
      --depth;
      continue;
    }
    if (size >= cap) continue;
    // Lemma 6: the child P+u+x is valid iff x is left in P's mask, which
    // holds only candidates above u by now, and does not conflict with u.
    uint64_t* child = mask + stride;
    const uint64_t* row = conflicts + u * stride;
    uint64_t any = 0;
    for (size_t x = w; x < stride; ++x) any |= child[x] = mask[x] & ~row[x];
    if (any == 0) continue;  // a leaf
    scores[size] = score;
    depth = size;
  }

  for (size_t s = 1; s <= cap; ++s) {
    result->plans_considered += counts[s];
    result->peak_level_plans = std::max<size_t>(result->peak_level_plans,
                                                counts[s]);
  }
  if (limit != PlanFinderLimit::kNone) return limit;
  result->best_score += best_score;
  for (uint32_t i : ws->best) result->best.push_back(component[i]);
  return PlanFinderLimit::kNone;
}

}  // namespace

const char* PlanFinderLimitName(PlanFinderLimit limit) {
  switch (limit) {
    case PlanFinderLimit::kNone: return "none";
    case PlanFinderLimit::kTime: return "time limit";
    case PlanFinderLimit::kLevelSize: return "level-size limit";
    case PlanFinderLimit::kVertexCount: return "vertex-count limit";
  }
  return "unknown";
}

PlanFinderResult FindOptimalPlan(const SharonGraph& graph,
                                 const PlanFinderOptions& opts) {
  PlanFinderResult result;
  StopWatch watch;
  // Conflicts never cross connected components, so the optimal plan is
  // the union of per-component optima. Components are usually small after
  // reduction, which keeps the exponential Alg. 4 traversal tractable far
  // beyond what a whole-graph lattice would allow.
  Workspace ws;
  ws.local.resize(graph.capacity());
  for (const auto& component : graph.ConnectedComponents()) {
    result.limit = WalkComponent(graph, component, opts, watch, &ws, &result);
    if (result.limit != PlanFinderLimit::kNone) {
      result.completed = false;
      break;
    }
  }
  result.peak_bytes = ws.Bytes();
  if (result.completed) std::sort(result.best.begin(), result.best.end());
  return result;
}

PlanFinderResult ExhaustiveSearch(const SharonGraph& graph,
                                  const PlanFinderOptions& opts) {
  PlanFinderResult result;
  StopWatch watch;
  const std::vector<VertexId> vs = graph.AliveVertices();
  const size_t n = vs.size();
  if (n == 0) return result;
  if (n >= 63) {
    result.completed = false;
    result.limit = PlanFinderLimit::kVertexCount;
    return result;
  }

  std::vector<VertexId> current;
  // Depth-first enumeration of all subsets, validity checked incrementally
  // (no pruning of invalid branches: every subset is "considered").
  uint64_t checked_since_clock = 0;
  bool aborted = false;
  auto recurse = [&](auto&& self, size_t idx, double score,
                     bool valid) -> void {
    if (aborted) return;
    if (idx == n) {
      ++result.plans_considered;
      if (valid && score > result.best_score) {
        result.best_score = score;
        result.best = current;
      }
      if (++checked_since_clock >= 65536) {
        checked_since_clock = 0;
        if (watch.ElapsedSeconds() > opts.time_limit_seconds) {
          aborted = true;
        }
      }
      return;
    }
    self(self, idx + 1, score, valid);  // exclude vs[idx]
    bool still_valid = valid;
    if (valid) {
      for (VertexId u : current) {
        if (graph.HasEdge(u, vs[idx])) {
          still_valid = false;
          break;
        }
      }
    }
    current.push_back(vs[idx]);
    self(self, idx + 1, score + graph.weight(vs[idx]), still_valid);
    current.pop_back();
  };
  recurse(recurse, 0, 0.0, true);
  result.completed = !aborted;
  if (aborted) result.limit = PlanFinderLimit::kTime;
  result.peak_level_plans = result.plans_considered;
  result.peak_bytes =
      (uint64_t{1} << std::min<size_t>(n, 40)) / 8;  // subset bitmap proxy
  return result;
}

}  // namespace sharon
