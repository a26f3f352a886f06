#include "src/graph/expansion.h"

#include <algorithm>
#include <bit>
#include <set>

namespace sharon {
namespace {

/// True if the mask `m` has at least two bits set (an option needs
/// |Q'p| > 1).
bool HasTwoBits(const std::vector<uint64_t>& m) {
  bool one = false;
  for (uint64_t w : m) {
    if (w == 0) continue;
    if (one || (w & (w - 1)) != 0) return true;
    one = true;
  }
  return false;
}

}  // namespace

std::vector<Candidate> ExpandCandidate(const SharonGraph& graph, VertexId v,
                                       const Workload& workload,
                                       const ExpansionOptions& opts) {
  const Candidate& original = graph.candidate(v);
  const QueryList& queries = original.queries;
  // Option query sets are masks over `queries`: bit k stands for
  // queries[k], so low bits are low query ids.
  const size_t words = queries.size() / 64 + 1;
  std::vector<Candidate> options = {original};

  // C(v, u) for every other alive vertex u with a different pattern: the
  // positions of the queries that cause v's conflict with u (Def. 6 /
  // Def. 16). It does not depend on the option, so it is computed once
  // and kept only when non-empty, in ascending u (Alg. 5 line 5).
  std::vector<uint64_t> causes, mask(words);
  for (VertexId u = 0; u < graph.capacity(); ++u) {
    if (u == v || !graph.alive(u)) continue;
    const Candidate& other = graph.candidate(u);
    if (other.pattern == original.pattern) continue;
    std::fill(mask.begin(), mask.end(), 0);
    bool any = false;
    auto it = other.queries.begin();
    for (size_t k = 0; k < queries.size(); ++k) {
      while (it != other.queries.end() && *it < queries[k]) ++it;
      if (it == other.queries.end()) break;
      if (*it == queries[k] &&
          workload.query(queries[k])
              .pattern.Overlaps(original.pattern, other.pattern)) {
        mask[k / 64] |= uint64_t{1} << (k % 64);
        any = true;
      }
    }
    if (any) causes.insert(causes.end(), mask.begin(), mask.end());
  }

  std::fill(mask.begin(), mask.end(), 0);
  for (size_t k = 0; k < queries.size(); ++k) {
    mask[k / 64] |= uint64_t{1} << (k % 64);
  }
  std::set<std::vector<uint64_t>> seen = {mask};
  // The BFS queue: every option's mask in emission order, flat.
  std::vector<uint64_t> frontier = mask;
  std::vector<uint64_t> current, next;
  std::vector<uint32_t> qc;  // positions of Qc, ascending
  for (size_t head = 0; head < frontier.size() &&
                        options.size() < opts.max_options_per_candidate;
       head += words) {
    current.assign(frontier.begin() + head, frontier.begin() + head + words);
    for (size_t c = 0; c < causes.size(); c += words) {
      // Qc: the current option's conflict-causing queries, lowest first,
      // cut to max_conflict_queries.
      qc.clear();
      for (size_t w = 0; w < words; ++w) {
        for (uint64_t bits = current[w] & causes[c + w];
             bits != 0 && qc.size() < opts.max_conflict_queries;
             bits &= bits - 1) {
          qc.push_back(static_cast<uint32_t>(w * 64 +
                                             std::countr_zero(bits)));
        }
      }
      if (qc.empty()) continue;
      // Every non-empty subset C of Qc may resolve part of the conflict
      // (Alg. 5 line 7); dropping all of Qc resolves it fully.
      const uint32_t subsets = 1u << qc.size();
      for (uint32_t drop = 1; drop < subsets; ++drop) {
        next = current;
        for (size_t bit = 0; bit < qc.size(); ++bit) {
          if (drop & (1u << bit)) {
            next[qc[bit] / 64] &= ~(uint64_t{1} << (qc[bit] % 64));
          }
        }
        if (!HasTwoBits(next) || !seen.insert(next).second) continue;
        frontier.insert(frontier.end(), next.begin(), next.end());
        Candidate& option = options.emplace_back();
        option.pattern = original.pattern;
        for (size_t w = 0; w < words; ++w) {
          for (uint64_t bits = next[w]; bits != 0; bits &= bits - 1) {
            option.queries.push_back(
                queries[w * 64 + std::countr_zero(bits)]);
          }
        }
        if (options.size() >= opts.max_options_per_candidate) break;
      }
      if (options.size() >= opts.max_options_per_candidate) break;
    }
  }
  return options;
}

SharonGraph ExpandGraph(const SharonGraph& graph, const Workload& workload,
                        const SharonGraph::WeightFn& weight,
                        const ExpansionOptions& opts, ExpansionStats* stats) {
  const std::vector<VertexId> vertices = graph.AliveVertices();
  ExpansionStats local;
  std::vector<Candidate> all;
  for (VertexId v : vertices) {
    std::vector<Candidate> options = ExpandCandidate(graph, v, workload, opts);
    ++local.expanded;
    for (size_t i = 0; i < options.size(); ++i) {
      all.push_back(std::move(options[i]));
      if (all.size() >= opts.max_total_candidates) {
        local.budget_reached =
            i + 1 < options.size() || local.expanded < vertices.size();
        break;
      }
    }
    if (all.size() >= opts.max_total_candidates) break;
  }
  if (stats) *stats = local;
  // Alg. 6: rebuild the conflict graph over all options. Build() also
  // recomputes weights and drops non-beneficial options.
  return SharonGraph::Build(workload, all, weight);
}

}  // namespace sharon
