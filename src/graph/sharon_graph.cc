#include "src/graph/sharon_graph.h"

#include <algorithm>

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

SharonGraph SharonGraph::Build(const Workload& workload,
                               const std::vector<Candidate>& candidates,
                               const WeightFn& weight) {
  SharonGraph g;
  // Alg. 1 lines 2-5: beneficial candidates only.
  for (const Candidate& c : candidates) {
    if (c.queries.size() < 2) continue;
    double w = weight(c);
    if (w <= 0) continue;
    g.cands_.push_back(c);
    g.weights_.push_back(w);
  }
  const size_t n = g.cands_.size();
  g.adj_.resize(n);
  g.alive_.assign(n, true);
  g.alive_count_ = n;
  // Alg. 1 lines 6-8: conflict edges.
  for (VertexId i = 0; i < n; ++i) {
    for (VertexId j = i + 1; j < n; ++j) {
      if (InConflict(g.cands_[i], g.cands_[j], workload)) {
        g.adj_[i].push_back(j);
        g.adj_[j].push_back(i);
      }
    }
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
