#include "src/planner/plan_finder.h"

#include <algorithm>
#include <bit>

#include "src/common/metrics.h"

namespace sharon {
namespace {

/// One lattice level (Fig. 8), stored flat. Plan p is the `width`
/// ascending component-local vertex indices at
/// plans[p * width, (p + 1) * width), scored scores[p]. The level is
/// lexicographically sorted, so the plans sharing their first width-1
/// indices — the children of one parent — are contiguous: block b spans
/// plans [blocks[b], blocks[b + 1]), and blocks ends with a sentinel.
struct Level {
  size_t width = 0;
  std::vector<uint32_t> plans;
  std::vector<double> scores;
  std::vector<size_t> blocks;

  size_t size() const { return scores.size(); }
  const uint32_t* plan(size_t p) const { return plans.data() + p * width; }
  uint32_t last(size_t p) const { return plans[(p + 1) * width - 1]; }

  /// Empties the level, keeping its buffers.
  void Reset(size_t new_width) {
    width = new_width;
    plans.clear();
    scores.clear();
    blocks.clear();
  }

  size_t Bytes() const {
    return plans.capacity() * sizeof(uint32_t) +
           scores.capacity() * sizeof(double) +
           blocks.capacity() * sizeof(size_t);
  }
};

/// The conflict edges of one component as a bit matrix over
/// component-local indices: bit j of row i is set iff the component's
/// i-th and j-th vertices conflict (Def. 6).
class ConflictBits {
 public:
  void Reset(size_t n) {
    stride_ = (n + 63) / 64;
    bits_.assign(n * stride_, 0);
  }
  void Set(uint32_t i, uint32_t j) {
    bits_[i * stride_ + j / 64] |= uint64_t{1} << (j % 64);
  }
  const uint64_t* Row(uint32_t i) const { return bits_.data() + i * stride_; }
  size_t stride() const { return stride_; }
  void Reserve(size_t n) { bits_.reserve(n * ((n + 63) / 64)); }
  size_t Bytes() const { return bits_.capacity() * sizeof(uint64_t); }

 private:
  size_t stride_ = 0;
  std::vector<uint64_t> bits_;
};

/// Buffers of one FindOptimalPlan call, sized once and reused across the
/// levels and components it searches.
struct Workspace {
  std::vector<uint32_t> local;  ///< vertex id -> index in its component
  std::vector<double> weights;  ///< by component-local index
  ConflictBits conflicts;
  Level level, next;
  std::vector<uint32_t> best;   ///< the component's best plan so far
  /// One row over component-local indices: the last indices of the block
  /// being joined. All zero between blocks; not counted in Bytes().
  std::vector<uint64_t> members;

  size_t Bytes() const {
    return local.capacity() * sizeof(uint32_t) +
           weights.capacity() * sizeof(double) + conflicts.Bytes() +
           level.Bytes() + next.Bytes() + best.capacity() * sizeof(uint32_t);
  }
};

/// Algorithm 3: generates level s+1 (`children`) from level s (`parents`)
/// by joining the plans of each block pairwise. Returns false once the
/// level would exceed `max_plans` (0 = unlimited), so an oversized level
/// is never materialised. `members` is a zeroed row of the conflict
/// matrix's stride, and is zeroed again on return.
bool GetNextLevel(const ConflictBits& conflicts, const double* weights,
                  const Level& parents, uint64_t max_plans, Level* children,
                  uint64_t* members) {
  const size_t width = parents.width;
  children->Reset(width + 1);
  for (size_t b = 0; b + 1 < parents.blocks.size(); ++b) {
    const size_t block_begin = parents.blocks[b];
    const size_t block_end = parents.blocks[b + 1];
    // The block's plans share all but their last index, which ascends
    // with the plan, so a set bit names one plan of the block and an
    // upward scan of the mask visits the plans in block order.
    for (size_t j = block_begin; j < block_end; ++j) {
      const uint32_t vj = parents.last(j);
      members[vj / 64] |= uint64_t{1} << (vj % 64);
    }
    uint64_t* const first_word = members + parents.last(block_begin) / 64;
    uint64_t* const end_word = members + parents.last(block_end - 1) / 64 + 1;
    for (size_t i = block_begin; i < block_end; ++i) {
      const size_t first_child = children->size();
      const uint32_t* parent = parents.plan(i);
      const uint32_t vi = parent[width - 1];
      const uint64_t* row = conflicts.Row(vi);
      // Lemma 6: the child is valid iff the two differing candidates are
      // not in conflict, so plan i joins the block's members above vi
      // that are not in vi's conflict row.
      for (size_t w = vi / 64; members + w < end_word; ++w) {
        uint64_t partners = members[w] & ~row[w];
        if (w == vi / 64) partners &= ~uint64_t{0} << (vi % 64) << 1;
        for (; partners != 0; partners &= partners - 1) {
          if (max_plans > 0 && children->size() >= max_plans) {
            std::fill(first_word, end_word, 0);
            return false;
          }
          const uint32_t vj =
              static_cast<uint32_t>(w * 64 + std::countr_zero(partners));
          // vi < vj, so the child is sorted too.
          children->plans.insert(children->plans.end(), parent,
                                 parent + width);
          children->plans.push_back(vj);
          children->scores.push_back(parents.scores[i] + weights[vj]);
        }
      }
      if (children->size() > first_child) {
        children->blocks.push_back(first_child);
      }
    }
    std::fill(first_word, end_word, 0);
  }
  children->blocks.push_back(children->size());
  return true;
}

// Algorithm 4 over one connected component (sorted vertex ids). Appends
// the component's optimal sub-plan to `result->best`.
bool FindOptimalForComponent(const SharonGraph& graph,
                             const std::vector<VertexId>& component,
                             const PlanFinderOptions& opts,
                             const StopWatch& watch, Workspace* ws,
                             PlanFinderResult* result) {
  const size_t n = component.size();
  for (uint32_t i = 0; i < n; ++i) ws->local[component[i]] = i;
  ws->conflicts.Reset(n);
  ws->members.assign(ws->conflicts.stride(), 0);
  ws->weights.clear();
  for (uint32_t i = 0; i < n; ++i) {
    ws->weights.push_back(graph.weight(component[i]));
    // Edges never leave a component, so every alive neighbour is local.
    for (VertexId u : graph.adjacency(component[i])) {
      if (graph.alive(u)) ws->conflicts.Set(i, ws->local[u]);
    }
  }

  // Level 1: single candidates, one block (Alg. 4 lines 1-4).
  Level* level = &ws->level;
  Level* next = &ws->next;
  level->Reset(1);
  for (uint32_t i = 0; i < n; ++i) {
    level->plans.push_back(i);
    level->scores.push_back(ws->weights[i]);
  }
  level->blocks = {0, n};

  double best_score = 0;
  ws->best.clear();
  while (level->size() > 0) {
    result->plans_considered += level->size();
    result->peak_level_plans =
        std::max(result->peak_level_plans, level->size());
    size_t best_in_level = level->size();
    for (size_t p = 0; p < level->size(); ++p) {
      if (level->scores[p] > best_score) {
        best_score = level->scores[p];
        best_in_level = p;
      }
    }
    if (best_in_level < level->size()) {
      const uint32_t* plan = level->plan(best_in_level);
      ws->best.assign(plan, plan + level->width);
    }
    if (watch.ElapsedSeconds() > opts.time_limit_seconds) {
      result->limit = PlanFinderLimit::kTime;
      return false;
    }
    if (!GetNextLevel(ws->conflicts, ws->weights.data(), *level,
                      opts.max_level_plans, next, ws->members.data())) {
      result->limit = PlanFinderLimit::kLevelSize;
      return false;
    }
    std::swap(level, next);
  }
  result->best_score += best_score;
  for (uint32_t i : ws->best) result->best.push_back(component[i]);
  return true;
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
  const std::vector<std::vector<VertexId>> components =
      graph.ConnectedComponents();
  size_t widest = 0;
  for (const auto& component : components) {
    widest = std::max(widest, component.size());
  }
  Workspace ws;
  ws.local.resize(graph.capacity());
  ws.weights.reserve(widest);
  ws.conflicts.Reserve(widest);
  ws.members.reserve((widest + 63) / 64);
  for (const auto& component : components) {
    if (!FindOptimalForComponent(graph, component, opts, watch, &ws,
                                 &result)) {
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
