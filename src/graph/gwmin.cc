#include "src/graph/gwmin.h"

#include <cstdint>

namespace sharon {

GwminResult RunGwmin(const SharonGraph& graph) {
  // Local alive flags and alive-neighbour counts stand in for the graph,
  // which the caller keeps unchanged.
  const size_t n = graph.capacity();
  std::vector<uint8_t> alive(n, 0);
  std::vector<size_t> degree(n, 0);
  size_t left = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (!graph.alive(v)) continue;
    alive[v] = 1;
    degree[v] = graph.Degree(v);
    ++left;
  }
  auto remove = [&](VertexId v) {
    alive[v] = 0;
    --left;
    for (VertexId u : graph.adjacency(v)) degree[u] -= alive[u];
  };

  GwminResult result;
  while (left > 0) {
    // Select v maximising weight / (degree + 1) (Alg. 8 lines 3-7); the
    // first maximum in ascending vertex order wins.
    VertexId best = 0;
    double best_ratio = -1;
    for (VertexId v = 0; v < n; ++v) {
      if (!alive[v]) continue;
      const double ratio =
          graph.weight(v) / static_cast<double>(degree[v] + 1);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = v;
      }
    }
    result.independent_set.push_back(best);
    result.weight += graph.weight(best);
    for (VertexId u : graph.adjacency(best)) {
      if (alive[u]) remove(u);
    }
    remove(best);
  }
  return result;
}

}  // namespace sharon
