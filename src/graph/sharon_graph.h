// The SHARON graph (paper §4, Def. 10, Algorithm 1).
//
// Vertices are beneficial sharing candidates weighted by BValue; undirected
// edges are sharing conflicts (Def. 6): two candidates conflict when their
// patterns overlap positionally inside a query they both want to share.
// The graph supports vertex removal (for reduction / GWMIN) via an alive
// mask so indices stay stable across the optimizer pipeline.

#ifndef SHARON_GRAPH_SHARON_GRAPH_H_
#define SHARON_GRAPH_SHARON_GRAPH_H_

#include <functional>
#include <string>
#include <vector>

#include "src/sharing/candidate.h"

namespace sharon {

/// Index of a vertex within a SharonGraph.
using VertexId = uint32_t;

/// Weighted conflict graph over sharing candidates.
class SharonGraph {
 public:
  /// Assigns each candidate its benefit value.
  using WeightFn = std::function<double(const Candidate&)>;

  /// Algorithm 1: keeps candidates with positive benefit and |Qp| > 1,
  /// inserting conflict edges. `workload` supplies the query patterns for
  /// the Def. 6 overlap test, which runs once per query and pair of
  /// same-pattern runs of candidates rather than once per candidate pair:
  /// keep candidates with one pattern consecutive (as CCSpan and
  /// expansion emit them) for the fastest build. The edges do not depend
  /// on the order; adjacency lists come out sorted. Scratch holds one
  /// query-id bitset per candidate: about candidates x (largest query id
  /// / 64) words.
  static SharonGraph Build(const Workload& workload,
                           const std::vector<Candidate>& candidates,
                           const WeightFn& weight);

  /// Def. 6: true if the candidates' patterns overlap in a common query.
  static bool InConflict(const Candidate& a, const Candidate& b,
                         const Workload& workload);

  size_t num_vertices() const { return alive_count_; }
  size_t capacity() const { return cands_.size(); }
  size_t num_edges() const;

  bool alive(VertexId v) const { return alive_[v]; }
  const Candidate& candidate(VertexId v) const { return cands_[v]; }
  double weight(VertexId v) const { return weights_[v]; }

  /// Alive neighbors of v.
  std::vector<VertexId> Neighbors(VertexId v) const;

  /// v's sorted neighbor list as stored, removed vertices included (filter
  /// with alive()). Unlike Neighbors() it does not copy.
  const std::vector<VertexId>& adjacency(VertexId v) const { return adj_[v]; }

  /// Degree of v counting alive neighbors only.
  size_t Degree(VertexId v) const;

  bool HasEdge(VertexId a, VertexId b) const;

  /// All alive vertex ids.
  std::vector<VertexId> AliveVertices() const;

  /// Connected components over alive vertices. Conflicts never cross
  /// component boundaries, so an optimal plan of the whole graph is the
  /// union of per-component optima — the decomposition behind the
  /// component-wise reduction and plan finder.
  std::vector<std::vector<VertexId>> ConnectedComponents() const;

  /// Removes v (and implicitly its edges) from the graph.
  void Remove(VertexId v);

  /// Sum over alive v of weight(v) / (degree(v) + 1): the guaranteed
  /// weight of GWMIN (Eq. 10).
  double GuaranteedWeight() const;

  /// Def. 12: sum of weights of alive candidates not in conflict with v
  /// (including v itself).
  double ScoreMax(VertexId v) const;

  /// Total weight of a vertex set.
  double WeightOf(const std::vector<VertexId>& vs) const;

  /// Materialises a vertex set as a sharing plan (sorted candidates).
  SharingPlan ToPlan(const std::vector<VertexId>& vs) const;

  /// Logical size in bytes (vertices, query lists, adjacency).
  size_t EstimatedBytes() const;

  std::string ToString(const TypeRegistry& reg) const;

 private:
  std::vector<Candidate> cands_;
  std::vector<double> weights_;
  std::vector<std::vector<VertexId>> adj_;  ///< sorted neighbor lists
  std::vector<bool> alive_;
  size_t alive_count_ = 0;
};

}  // namespace sharon

#endif  // SHARON_GRAPH_SHARON_GRAPH_H_
