#include "src/graph/reduction.h"

#include <algorithm>
#include <cstdint>

namespace sharon {
namespace {

// GWMIN's guaranteed weight (Eq. 10) restricted to one component. Degrees
// within a component equal global degrees (edges never cross components).
double ComponentBound(const SharonGraph& g,
                      const std::vector<VertexId>& component) {
  double total = 0;
  for (VertexId v : component) {
    if (g.alive(v)) {
      total += g.weight(v) / static_cast<double>(g.Degree(v) + 1);
    }
  }
  return total;
}

// Scoremax (Def. 12) restricted to one component of alive vertices,
// v among them. v's neighbours are flagged in `mark` (all clear on entry
// and on return). The component is summed in its own order, so the sum,
// and with it the pruning decision, does not depend on how neighbours
// are found.
double ComponentScoreMax(const SharonGraph& g, VertexId v,
                         const std::vector<VertexId>& component,
                         std::vector<uint8_t>& mark) {
  for (VertexId u : g.adjacency(v)) mark[u] = 1;
  double total = 0;
  for (VertexId u : component) {
    if (g.alive(u) && !mark[u]) total += g.weight(u);
  }
  for (VertexId u : g.adjacency(v)) mark[u] = 0;
  return total;
}

}  // namespace

ReductionResult ReduceGraph(SharonGraph& graph) {
  ReductionResult result;
  // Conflicts never cross connected components, so an optimal plan is the
  // union of per-component optima. Evaluating the Def. 13 comparison per
  // component makes it strictly stronger than the paper's global bound —
  // weak candidates no longer hide behind unrelated components' weights —
  // while remaining sound for exactly the same Lemma 2 reason.
  //
  // A vertex is dirty when it lost a neighbour in the previous pass (all
  // are dirty in the first). A component without a dirty vertex is the
  // component it was in the previous pass, with the same alive set, Eq. 10
  // bound and Scoremax values; it removed nothing then and would remove
  // nothing now, so each pass evaluates only the components that hold a
  // dirty vertex.
  std::vector<uint8_t> mark(graph.capacity(), 0);
  std::vector<uint8_t> dirty(graph.capacity(), 1);
  std::vector<uint8_t> next_dirty(graph.capacity(), 0);
  auto remove = [&](VertexId v) {
    graph.Remove(v);
    for (VertexId u : graph.adjacency(v)) next_dirty[u] = 1;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& component : graph.ConnectedComponents()) {
      if (std::none_of(component.begin(), component.end(),
                       [&](VertexId v) { return dirty[v] != 0; })) {
        continue;
      }
      const double bound = ComponentBound(graph, component);
      // Conflict-ridden pruning (Def. 13): collect on one snapshot, then
      // remove, so the comparison is uniform within the pass.
      std::vector<VertexId> ridden;
      for (VertexId v : component) {
        if (ComponentScoreMax(graph, v, component, mark) < bound) {
          ridden.push_back(v);
        }
      }
      for (VertexId v : ridden) {
        remove(v);
        result.pruned_ridden.push_back(v);
        changed = true;
      }
      // Conflict-free extraction (Def. 14).
      for (VertexId v : component) {
        if (graph.alive(v) && graph.Degree(v) == 0) {
          remove(v);
          result.conflict_free.push_back(v);
          changed = true;
        }
      }
    }
    std::swap(dirty, next_dirty);
    std::fill(next_dirty.begin(), next_dirty.end(), 0);
  }
  std::sort(result.pruned_ridden.begin(), result.pruned_ridden.end());
  std::sort(result.conflict_free.begin(), result.conflict_free.end());
  result.remaining = graph.num_vertices();
  return result;
}

}  // namespace sharon
