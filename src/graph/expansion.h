// Sharing conflict resolution by candidate expansion
// (paper §7.1, Algorithms 5 and 6, Figs. 11-12).
//
// A conflict between candidates may be resolvable by *not* sharing the
// pattern with the conflict-causing queries: each candidate (p, Qp) is
// expanded into options (p, Q'p), Q'p ⊂ Qp obtained by dropping subsets of
// conflict-causing queries (BFS over subsets, Alg. 5). The expanded
// candidate set then gets a fresh conflict graph (Alg. 6) whose plans can
// strictly beat the original graph's best plan (Example 13).
//
// Option query sets are bitsets over the candidate's query list; the
// queries causing its conflict with each other vertex are found once per
// candidate, so a subset costs a mask and a set lookup, and only the
// options returned get a QueryList.

#ifndef SHARON_GRAPH_EXPANSION_H_
#define SHARON_GRAPH_EXPANSION_H_

#include <cstdint>
#include <vector>

#include "src/graph/sharon_graph.h"

namespace sharon {

/// Limits on expansion growth; the blow-up is combinatorial (Eq. 14).
struct ExpansionOptions {
  uint32_t max_options_per_candidate = 64;
  uint32_t max_total_candidates = 4096;
  uint32_t max_conflict_queries = 12;  ///< cap on |Qc| subset enumeration
};

/// Algorithm 5: the option set Op for vertex `v` of `graph` (the original
/// candidate first, then derived options in BFS order).
std::vector<Candidate> ExpandCandidate(const SharonGraph& graph, VertexId v,
                                       const Workload& workload,
                                       const ExpansionOptions& opts);

/// How far Algorithm 6 got before max_total_candidates stopped it.
struct ExpansionStats {
  size_t expanded = 0;          ///< vertices whose options were taken
  bool budget_reached = false;  ///< the budget left options out
};

/// Algorithm 6: expands every vertex in ascending order and rebuilds the
/// conflict graph over all options (weights recomputed; non-beneficial
/// options dropped). Expansion stops once max_total_candidates options
/// are taken; `stats`, if given, reports where.
SharonGraph ExpandGraph(const SharonGraph& graph, const Workload& workload,
                        const SharonGraph::WeightFn& weight,
                        const ExpansionOptions& opts,
                        ExpansionStats* stats = nullptr);

}  // namespace sharon

#endif  // SHARON_GRAPH_EXPANSION_H_
