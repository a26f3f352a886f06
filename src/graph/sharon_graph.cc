#include "src/graph/sharon_graph.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

namespace sharon {

bool SharonGraph::InConflict(const Candidate& a, const Candidate& b,
                             const Workload& workload) {
  if (&a == &b) return false;
  // Walks the two sorted query lists' intersection in place.
  auto qa = a.queries.begin(), qb = b.queries.begin();
  while (qa != a.queries.end() && qb != b.queries.end()) {
    if (*qa < *qb) {
      ++qa;
    } else if (*qb < *qa) {
      ++qb;
    } else {
      if (workload.query(*qa).pattern.Overlaps(a.pattern, b.pattern)) {
        return true;
      }
      ++qa;
      ++qb;
    }
  }
  return false;
}

namespace {

/// True if the query bitsets a, b and o (`words` words each) share a bit.
bool Meet(const uint64_t* a, const uint64_t* b, const uint64_t* o,
          size_t words) {
  for (size_t w = 0; w < words; ++w) {
    if (a[w] & b[w] & o[w]) return true;
  }
  return false;
}

}  // namespace

SharonGraph SharonGraph::Build(const Workload& workload,
                               const std::vector<Candidate>& candidates,
                               const WeightFn& weight) {
  SharonGraph g;
  // Alg. 1 lines 2-5: beneficial candidates only.
  QueryId max_query = 0;
  g.cands_.reserve(candidates.size());
  g.weights_.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    if (c.queries.size() < 2) continue;
    double w = weight(c);
    if (w <= 0) continue;
    g.cands_.push_back(c);
    g.weights_.push_back(w);
    max_query = std::max(max_query, c.queries.back());
  }
  const size_t n = g.cands_.size();
  g.adj_.resize(n);
  g.alive_.assign(n, true);
  g.alive_count_ = n;

  // Alg. 1 lines 6-8: conflict edges. Def. 6 depends on a query only
  // through the two patterns, so the vertices are cut into groups, runs
  // of consecutive vertices with one pattern (CCSpan emits candidates
  // sorted by pattern, expansion emits each vertex's options together).
  // For each pair of groups, the queries of both groups' unions in which
  // the two patterns overlap form the set O, computed once; a vertex pair
  // of the two groups conflicts iff its query sets meet inside O.
  std::vector<VertexId> starts;  // group k spans [starts[k], starts[k+1])
  for (VertexId v = 0; v < n; ++v) {
    if (v == 0 || !(g.cands_[v].pattern == g.cands_[v - 1].pattern)) {
      starts.push_back(v);
    }
  }
  starts.push_back(static_cast<VertexId>(n));
  const size_t groups = starts.size() - 1;
  // Query-id bitsets: one per vertex, one union per group, and O.
  const size_t words = max_query / 64 + 1;
  std::vector<uint64_t> bits((n + groups + 1) * words, 0);
  uint64_t* const vertex_bits = bits.data();
  uint64_t* const group_bits = vertex_bits + n * words;
  uint64_t* const overlap = group_bits + groups * words;
  for (size_t k = 0; k < groups; ++k) {
    for (VertexId v = starts[k]; v < starts[k + 1]; ++v) {
      for (QueryId q : g.cands_[v].queries) {
        const uint64_t bit = uint64_t{1} << (q % 64);
        vertex_bits[v * words + q / 64] |= bit;
        group_bits[k * words + q / 64] |= bit;
      }
    }
  }
  // Group pairs in ascending order and vertex pairs in ascending order
  // within them, so every adjacency list comes out sorted. Edges are
  // collected flat first, so each list is allocated once at its degree.
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::vector<uint32_t> degree(n, 0);
  for (size_t a = 0; a < groups; ++a) {
    const Pattern& pa = g.cands_[starts[a]].pattern;
    const uint64_t* ua = group_bits + a * words;
    for (size_t b = a; b < groups; ++b) {
      const Pattern& pb = g.cands_[starts[b]].pattern;
      const uint64_t* ub = group_bits + b * words;
      bool any = false;
      for (size_t w = 0; w < words; ++w) {
        uint64_t o = 0;
        for (uint64_t common = ua[w] & ub[w]; common != 0;
             common &= common - 1) {
          const int bit = std::countr_zero(common);
          const QueryId q = static_cast<QueryId>(w * 64 + bit);
          if (workload.query(q).pattern.Overlaps(pa, pb)) {
            o |= uint64_t{1} << bit;
          }
        }
        overlap[w] = o;
        any |= o != 0;
      }
      if (!any) continue;
      for (VertexId i = starts[a]; i < starts[a + 1]; ++i) {
        const uint64_t* qi = vertex_bits + i * words;
        for (VertexId j = a == b ? i + 1 : starts[b]; j < starts[b + 1];
             ++j) {
          if (Meet(qi, vertex_bits + j * words, overlap, words)) {
            edges.emplace_back(i, j);
            ++degree[i];
            ++degree[j];
          }
        }
      }
    }
  }
  for (VertexId v = 0; v < n; ++v) g.adj_[v].reserve(degree[v]);
  for (const auto& [i, j] : edges) {
    g.adj_[i].push_back(j);
    g.adj_[j].push_back(i);
  }
  return g;
}

size_t SharonGraph::num_edges() const {
  size_t n = 0;
  for (VertexId v = 0; v < adj_.size(); ++v) {
    if (alive_[v]) n += Degree(v);
  }
  return n / 2;
}

std::vector<VertexId> SharonGraph::Neighbors(VertexId v) const {
  std::vector<VertexId> out;
  for (VertexId u : adj_[v]) {
    if (alive_[u]) out.push_back(u);
  }
  return out;
}

size_t SharonGraph::Degree(VertexId v) const {
  size_t d = 0;
  for (VertexId u : adj_[v]) d += alive_[u];
  return d;
}

bool SharonGraph::HasEdge(VertexId a, VertexId b) const {
  if (!alive_[a] || !alive_[b]) return false;
  return std::binary_search(adj_[a].begin(), adj_[a].end(), b);
}

std::vector<VertexId> SharonGraph::AliveVertices() const {
  std::vector<VertexId> out;
  out.reserve(alive_count_);
  for (VertexId v = 0; v < alive_.size(); ++v) {
    if (alive_[v]) out.push_back(v);
  }
  return out;
}

std::vector<std::vector<VertexId>> SharonGraph::ConnectedComponents() const {
  std::vector<std::vector<VertexId>> components;
  std::vector<bool> visited(alive_.size(), false);
  for (VertexId seed = 0; seed < alive_.size(); ++seed) {
    if (!alive_[seed] || visited[seed]) continue;
    std::vector<VertexId> component, stack = {seed};
    visited[seed] = true;
    while (!stack.empty()) {
      VertexId v = stack.back();
      stack.pop_back();
      component.push_back(v);
      for (VertexId u : adj_[v]) {
        if (alive_[u] && !visited[u]) {
          visited[u] = true;
          stack.push_back(u);
        }
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

void SharonGraph::Remove(VertexId v) {
  if (alive_[v]) {
    alive_[v] = false;
    --alive_count_;
  }
}

double SharonGraph::GuaranteedWeight() const {
  double total = 0;
  for (VertexId v = 0; v < alive_.size(); ++v) {
    if (alive_[v]) {
      total += weights_[v] / static_cast<double>(Degree(v) + 1);
    }
  }
  return total;
}

double SharonGraph::ScoreMax(VertexId v) const {
  double total = 0;
  for (VertexId u = 0; u < alive_.size(); ++u) {
    if (alive_[u] && !HasEdge(v, u)) total += weights_[u];
  }
  return total;
}

double SharonGraph::WeightOf(const std::vector<VertexId>& vs) const {
  double total = 0;
  for (VertexId v : vs) total += weights_[v];
  return total;
}

SharingPlan SharonGraph::ToPlan(const std::vector<VertexId>& vs) const {
  SharingPlan plan;
  plan.reserve(vs.size());
  for (VertexId v : vs) plan.push_back(cands_[v]);
  std::sort(plan.begin(), plan.end());
  return plan;
}

size_t SharonGraph::EstimatedBytes() const {
  size_t bytes = 0;
  for (VertexId v = 0; v < alive_.size(); ++v) {
    if (!alive_[v]) continue;
    bytes += sizeof(Candidate) + sizeof(double);
    bytes += cands_[v].pattern.length() * sizeof(EventTypeId);
    bytes += cands_[v].queries.size() * sizeof(QueryId);
    bytes += adj_[v].size() * sizeof(VertexId);
  }
  return bytes;
}

std::string SharonGraph::ToString(const TypeRegistry& reg) const {
  std::string s;
  for (VertexId v = 0; v < alive_.size(); ++v) {
    if (!alive_[v]) continue;
    s += cands_[v].ToString(reg);
    s += " weight=" + std::to_string(weights_[v]);
    s += " degree=" + std::to_string(Degree(v));
    s += "\n";
  }
  return s;
}

}  // namespace sharon
