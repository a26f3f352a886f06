// Exactness of the Sharon optimizer's set arithmetic: every stage must
// return exactly what the plain list-based algorithms of the paper return,
// bit for bit and in the same order.
//  - SharonGraph::Build (Alg. 1) against the pairwise Def. 6 test;
//  - ExpandCandidate / ExpandGraph (Algs. 5-6) against a list-based
//    reference copy, BFS order and truncation included;
//  - ReduceGraph (§5, Alg. 2) against a loop that rescans every component
//    in every pass;
//  - RunGwmin (Alg. 8) against a version that copies the graph;
//  - FindOptimalPlan (Algs. 3-4) on components wider than one machine word
//    against a depth-first enumeration of independent sets, and against
//    the level-wise finder it replaced, unlimited and at the boundary of
//    the level-size limit;
//  - the planner's output on plan_scale's workload, pinned.
//
// Random cases honour SHARON_DISORDER_SEED_BASE like the other property
// suites, so each CI seed-matrix leg checks different graphs.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <deque>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/graph/expansion.h"
#include "src/graph/gwmin.h"
#include "src/graph/reduction.h"
#include "src/planner/optimizer.h"
#include "src/planner/plan_finder.h"
#include "src/sharing/ccspan.h"
#include "src/sharing/cost_model.h"
#include "src/streamgen/ecommerce.h"
#include "src/streamgen/rates.h"
#include "src/streamgen/workload_gen.h"

namespace sharon {
namespace {

uint64_t SweepBaseSeed() {
  const char* env = std::getenv("SHARON_DISORDER_SEED_BASE");
  return env ? static_cast<uint64_t>(std::atoll(env)) : 0;
}

Query MakeQuery(std::vector<EventTypeId> types) {
  Query q;
  q.pattern = Pattern(std::move(types));
  q.agg = AggSpec::CountStar();
  q.window = {100, 10};
  return q;
}

std::vector<EventTypeId> Slice(const std::vector<EventTypeId>& backbone,
                               size_t begin, size_t len) {
  return {backbone.begin() + begin, backbone.begin() + begin + len};
}

/// Deterministic weight of a candidate: a hash of its pattern and queries
/// mapped to [lo, lo + span).
double HashWeight(const Candidate& c, uint64_t seed, int64_t lo,
                  uint64_t span) {
  uint64_t h = seed ^ PatternHash()(c.pattern);
  for (QueryId q : c.queries) h = h * 0x100000001b3ULL ^ q;
  Rng rng(h);
  return static_cast<double>(lo + static_cast<int64_t>(rng.Below(span)));
}

// --- references: the list-based algorithms ---------------------------------

/// A conflict graph as plain arrays: what Build must produce.
struct RefGraph {
  std::vector<Candidate> cands;
  std::vector<double> weights;
  std::vector<std::vector<VertexId>> adj;
};

/// Alg. 1 with one Def. 6 test per candidate pair.
RefGraph RefBuild(const Workload& workload,
                  const std::vector<Candidate>& candidates,
                  const SharonGraph::WeightFn& weight) {
  RefGraph g;
  for (const Candidate& c : candidates) {
    if (c.queries.size() < 2) continue;
    const double w = weight(c);
    if (w <= 0) continue;
    g.cands.push_back(c);
    g.weights.push_back(w);
  }
  g.adj.resize(g.cands.size());
  for (VertexId i = 0; i < g.cands.size(); ++i) {
    for (VertexId j = i + 1; j < g.cands.size(); ++j) {
      if (SharonGraph::InConflict(g.cands[i], g.cands[j], workload)) {
        g.adj[i].push_back(j);
        g.adj[j].push_back(i);
      }
    }
  }
  return g;
}

void ExpectSameGraph(const SharonGraph& g, const RefGraph& ref,
                     const std::string& label) {
  ASSERT_EQ(g.capacity(), ref.cands.size()) << label;
  ASSERT_EQ(g.num_vertices(), ref.cands.size()) << label;
  for (VertexId v = 0; v < ref.cands.size(); ++v) {
    ASSERT_EQ(g.candidate(v), ref.cands[v]) << label << " vertex " << v;
    ASSERT_EQ(g.weight(v), ref.weights[v]) << label << " vertex " << v;
    ASSERT_EQ(g.adjacency(v), ref.adj[v]) << label << " vertex " << v;
  }
}

/// Alg. 5 over query lists, as the optimizer first implemented it.
QueryList RefConflictCausingQueries(const Candidate& a, const Candidate& b,
                                    const Workload& workload) {
  QueryList out;
  for (QueryId q : Intersect(a.queries, b.queries)) {
    if (workload.query(q).pattern.Overlaps(a.pattern, b.pattern)) {
      out.push_back(q);
    }
  }
  return out;
}

std::vector<Candidate> RefExpandCandidate(const SharonGraph& graph,
                                          VertexId v,
                                          const Workload& workload,
                                          const ExpansionOptions& opts) {
  const Candidate& original = graph.candidate(v);
  std::vector<Candidate> options = {original};
  std::set<QueryList> seen = {original.queries};
  std::deque<QueryList> frontier = {original.queries};
  while (!frontier.empty() &&
         options.size() < opts.max_options_per_candidate) {
    QueryList current = std::move(frontier.front());
    frontier.pop_front();
    Candidate cur_cand{original.pattern, current};
    for (VertexId u : graph.AliveVertices()) {
      if (u == v) continue;
      const Candidate& other = graph.candidate(u);
      if (other.pattern == original.pattern) continue;
      QueryList qc = RefConflictCausingQueries(cur_cand, other, workload);
      if (qc.empty()) continue;
      if (qc.size() > opts.max_conflict_queries) {
        qc.resize(opts.max_conflict_queries);
      }
      const uint32_t subsets = 1u << qc.size();
      for (uint32_t mask = 1; mask < subsets; ++mask) {
        QueryList drop;
        for (size_t bit = 0; bit < qc.size(); ++bit) {
          if (mask & (1u << bit)) drop.push_back(qc[bit]);
        }
        QueryList next;
        std::set_difference(current.begin(), current.end(), drop.begin(),
                            drop.end(), std::back_inserter(next));
        if (next.size() < 2) continue;
        if (!seen.insert(next).second) continue;
        options.push_back({original.pattern, next});
        frontier.push_back(std::move(next));
        if (options.size() >= opts.max_options_per_candidate) break;
      }
      if (options.size() >= opts.max_options_per_candidate) break;
    }
  }
  return options;
}

/// Alg. 6's option list before the graph is rebuilt over it.
std::vector<Candidate> RefExpandedCandidates(const SharonGraph& graph,
                                             const Workload& workload,
                                             const ExpansionOptions& opts) {
  std::vector<Candidate> all;
  for (VertexId v : graph.AliveVertices()) {
    for (Candidate& c : RefExpandCandidate(graph, v, workload, opts)) {
      all.push_back(std::move(c));
      if (all.size() >= opts.max_total_candidates) break;
    }
    if (all.size() >= opts.max_total_candidates) break;
  }
  return all;
}

double RefComponentBound(const SharonGraph& g,
                         const std::vector<VertexId>& component) {
  double total = 0;
  for (VertexId v : component) {
    if (g.alive(v)) {
      total += g.weight(v) / static_cast<double>(g.Degree(v) + 1);
    }
  }
  return total;
}

double RefComponentScoreMax(const SharonGraph& g, VertexId v,
                            const std::vector<VertexId>& component) {
  const std::vector<VertexId>& adj = g.adjacency(v);
  double total = 0;
  for (VertexId u : component) {
    if (g.alive(u) && !std::binary_search(adj.begin(), adj.end(), u)) {
      total += g.weight(u);
    }
  }
  return total;
}

/// Alg. 2 rescanning every component in every pass.
ReductionResult RefReduceGraph(SharonGraph& graph) {
  ReductionResult result;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& component : graph.ConnectedComponents()) {
      const double bound = RefComponentBound(graph, component);
      std::vector<VertexId> ridden;
      for (VertexId v : component) {
        if (RefComponentScoreMax(graph, v, component) < bound) {
          ridden.push_back(v);
        }
      }
      for (VertexId v : ridden) {
        graph.Remove(v);
        result.pruned_ridden.push_back(v);
        changed = true;
      }
      for (VertexId v : component) {
        if (graph.alive(v) && graph.Degree(v) == 0) {
          graph.Remove(v);
          result.conflict_free.push_back(v);
          changed = true;
        }
      }
    }
  }
  std::sort(result.pruned_ridden.begin(), result.pruned_ridden.end());
  std::sort(result.conflict_free.begin(), result.conflict_free.end());
  result.remaining = graph.num_vertices();
  return result;
}

/// Alg. 8 on a copy of the graph, degrees recomputed every round.
GwminResult RefGwmin(const SharonGraph& graph) {
  SharonGraph g = graph;
  GwminResult result;
  while (g.num_vertices() > 0) {
    VertexId best = 0;
    double best_ratio = -1;
    for (VertexId v : g.AliveVertices()) {
      const double ratio =
          g.weight(v) / static_cast<double>(g.Degree(v) + 1);
      if (ratio > best_ratio) {
        best_ratio = ratio;
        best = v;
      }
    }
    result.independent_set.push_back(best);
    result.weight += g.weight(best);
    for (VertexId u : g.Neighbors(best)) g.Remove(u);
    g.Remove(best);
  }
  return result;
}

// --- random cases -----------------------------------------------------------

/// A workload of `num_queries` slices of a few backbones of distinct
/// types, so that many queries contain each sub-pattern.
Workload BackboneWorkload(Rng& rng, uint32_t num_queries, uint32_t backbones,
                          uint32_t backbone_len, uint32_t min_len,
                          std::vector<std::vector<EventTypeId>>* out) {
  Workload w;
  out->clear();
  for (uint32_t b = 0; b < backbones; ++b) {
    std::vector<EventTypeId> types(backbone_len);
    for (uint32_t i = 0; i < backbone_len; ++i) {
      types[i] = b * backbone_len + i;
    }
    for (uint32_t i = backbone_len - 1; i > 0; --i) {
      std::swap(types[i], types[rng.Below(i + 1)]);
    }
    out->push_back(std::move(types));
  }
  for (uint32_t q = 0; q < num_queries; ++q) {
    const auto& bb = (*out)[rng.Below(backbones)];
    const uint32_t len =
        min_len + static_cast<uint32_t>(rng.Below(backbone_len - min_len + 1));
    const uint32_t off =
        static_cast<uint32_t>(rng.Below(backbone_len - len + 1));
    w.Add(MakeQuery(Slice(bb, off, len)));
  }
  return w;
}

/// A sorted random subset of [0, n) of the given size.
QueryList RandomQueries(Rng& rng, uint32_t n, uint32_t size) {
  std::vector<QueryId> all(n);
  for (uint32_t i = 0; i < n; ++i) all[i] = i;
  for (uint32_t i = 0; i < size && i < n; ++i) {
    std::swap(all[i], all[i + rng.Below(n - i)]);
  }
  all.resize(std::min(size, n));
  std::sort(all.begin(), all.end());
  return all;
}

struct BuildCase {
  Workload workload;
  std::vector<Candidate> candidates;
};

/// Candidates in runs that share one pattern, as CCSpan and expansion
/// emit them; the first run's pattern comes back as the last run, query
/// lists mix queries that contain the pattern with ones that do not, and
/// query ids reach past 64.
BuildCase MakeBuildCase(uint64_t seed) {
  Rng rng(seed);
  BuildCase c;
  std::vector<std::vector<EventTypeId>> backbones;
  const uint32_t num_queries = 70 + static_cast<uint32_t>(rng.Below(90));
  c.workload = BackboneWorkload(rng, num_queries, 3, 8, 3, &backbones);
  const uint32_t runs = 10 + static_cast<uint32_t>(rng.Below(20));
  for (uint32_t r = 0; r < runs; ++r) {
    const auto& bb = backbones[rng.Below(backbones.size())];
    const uint32_t len = 2 + static_cast<uint32_t>(rng.Below(3));
    const Pattern p(Slice(bb, rng.Below(bb.size() - len + 1), len));
    // Queries containing p, so that most pairs reach the overlap test.
    std::vector<QueryId> holders;
    for (QueryId q = 0; q < num_queries; ++q) {
      if (c.workload.query(q).pattern.Find(p)) holders.push_back(q);
    }
    const uint32_t options = 1 + static_cast<uint32_t>(rng.Below(6));
    for (uint32_t o = 0; o < options; ++o) {
      QueryList qs = RandomQueries(rng, num_queries,
                                   static_cast<uint32_t>(rng.Below(4)));
      for (QueryId q : holders) {
        if (rng.Chance(0.4)) qs.push_back(q);
      }
      std::sort(qs.begin(), qs.end());
      qs.erase(std::unique(qs.begin(), qs.end()), qs.end());
      c.candidates.push_back({p, std::move(qs)});
    }
  }
  // The first run's pattern again, as a separate run.
  const Pattern first = c.candidates.front().pattern;
  for (uint32_t o = 0; o < 3; ++o) {
    c.candidates.push_back(
        {first, RandomQueries(rng, num_queries, 2 + o * 20)});
  }
  return c;
}

TEST(OptimizerIdentity, BuildMatchesPairwiseConflicts) {
  const uint64_t base = SweepBaseSeed();
  size_t edges = 0, vertices = 0;
  for (uint64_t s = 0; s < 12; ++s) {
    const uint64_t seed = base + s;
    const BuildCase c = MakeBuildCase(seed);
    const SharonGraph::WeightFn weight = [seed](const Candidate& cand) {
      return HashWeight(cand, seed, -20, 120);  // some are dropped
    };
    const SharonGraph g = SharonGraph::Build(c.workload, c.candidates, weight);
    const RefGraph ref = RefBuild(c.workload, c.candidates, weight);
    ExpectSameGraph(g, ref, "seed " + std::to_string(seed));
    edges += g.num_edges();
    vertices += g.num_vertices();
  }
  // The cases are neither empty nor edgeless.
  EXPECT_GT(vertices, 100u);
  EXPECT_GT(edges, 100u);
}

// A query whose pattern lacks both candidates' patterns, or holds them
// apart, causes no conflict; one pattern in two separate runs is tested
// like any other pair; ids past 64 count like the others.
TEST(OptimizerIdentity, BuildHandCases) {
  Workload w;
  for (int i = 0; i < 70; ++i) w.Add(MakeQuery({0, 1, 2, 3}));
  w.Add(MakeQuery({5, 6, 7}));        // 70: lacks (0,1), (1,2) and (2,3)
  w.Add(MakeQuery({0, 1, 9, 2, 3}));  // 71: holds (0,1) and (2,3) apart
  w.Add(MakeQuery({0, 1, 9, 2, 3}));  // 72
  const std::vector<Candidate> cands = {
      {Pattern({0, 1}), {70, 71}},      // 0
      {Pattern({0, 1}), {3, 71}},       // 1
      {Pattern({2, 3}), {71, 72}},      // 2
      {Pattern({1, 2}), {3, 70}},       // 3
      {Pattern({0, 1}), {3, 72}},       // 4: the first run's pattern again
      {Pattern({5, 6}), {70, 71, 72}},  // 5: only 70 holds (5,6)
  };
  const SharonGraph::WeightFn weight = [](const Candidate&) { return 1.0; };
  const SharonGraph g = SharonGraph::Build(w, cands, weight);
  ExpectSameGraph(g, RefBuild(w, cands, weight), "hand cases");
  EXPECT_TRUE(g.HasEdge(0, 1));   // 71 holds (0,1), which overlaps itself
  EXPECT_FALSE(g.HasEdge(0, 2));  // 71 holds (0,1) and (2,3) apart
  EXPECT_FALSE(g.HasEdge(0, 3));  // 70 lacks both patterns
  EXPECT_TRUE(g.HasEdge(1, 3));   // 3 = (0,1,2,3) overlaps them
  EXPECT_TRUE(g.HasEdge(1, 4));   // two runs of (0,1), both list 3
  EXPECT_FALSE(g.HasEdge(0, 5));  // 70 lacks (0,1), 71 lacks (5,6)
  EXPECT_EQ(g.num_edges(), 4u);   // 0-1, 1-3, 1-4, 3-4
}

// --- Algorithms 5 and 6 -----------------------------------------------------

void ExpectSameOptions(const SharonGraph& g, const Workload& w,
                       const ExpansionOptions& opts,
                       const std::string& label) {
  for (VertexId v : g.AliveVertices()) {
    const std::vector<Candidate> got = ExpandCandidate(g, v, w, opts);
    const std::vector<Candidate> want = RefExpandCandidate(g, v, w, opts);
    ASSERT_EQ(got, want) << label << " vertex " << v;
  }
}

void ExpectSameExpandedGraph(const SharonGraph& g, const Workload& w,
                             const SharonGraph::WeightFn& weight,
                             const ExpansionOptions& opts,
                             const std::string& label) {
  ExpectSameGraph(ExpandGraph(g, w, weight, opts),
                  RefBuild(w, RefExpandedCandidates(g, w, opts), weight),
                  label);
}

ExpansionOptions Limits(uint32_t per_candidate, uint32_t total,
                        uint32_t conflict_queries) {
  ExpansionOptions opts;
  opts.max_options_per_candidate = per_candidate;
  opts.max_total_candidates = total;
  opts.max_conflict_queries = conflict_queries;
  return opts;
}

// 90 slices of one 10-type backbone: CCSpan's candidates list up to 90
// queries, so option masks span two words, and the truncation of Qc to
// max_conflict_queries decides which queries are dropped.
TEST(OptimizerIdentity, ExpandCandidateMatchesListReferenceOnLongLists) {
  const uint64_t base = SweepBaseSeed();
  for (uint64_t s = 0; s < 2; ++s) {
    Rng rng(base + s);
    std::vector<std::vector<EventTypeId>> backbones;
    const Workload w = BackboneWorkload(rng, 90, 1, 10, 6, &backbones);
    const SharonGraph g = SharonGraph::Build(
        w, FindSharableCandidates(w), [](const Candidate& c) {
          return 1.0 + static_cast<double>(c.queries.size());
        });
    size_t longest = 0;
    for (VertexId v : g.AliveVertices()) {
      longest = std::max(longest, g.candidate(v).queries.size());
    }
    ASSERT_GT(longest, 64u);
    const std::string label = "seed " + std::to_string(base + s);
    ExpectSameOptions(g, w, {}, label + " defaults");
    ExpectSameOptions(g, w, Limits(100, 4096, 3), label + " Qc cut to 3");
    ExpectSameOptions(g, w, Limits(40, 4096, 2), label + " Qc cut to 2");
    ExpectSameOptions(g, w, Limits(7, 4096, 12), label + " 7 options");
    ExpectSameOptions(g, w, Limits(1, 4096, 12), label + " 1 option");
  }
}

// Generated workloads with real cost-model weights, as the optimizer sees
// them, under both option caps.
TEST(OptimizerIdentity, ExpansionMatchesListReference) {
  const uint64_t base = SweepBaseSeed();
  for (uint64_t s = 0; s < 6; ++s) {
    WorkloadGenConfig cfg;
    cfg.num_queries = 10 + 5 * static_cast<uint32_t>(s % 3);
    cfg.pattern_length = 6;
    cfg.cluster_size = 5;
    cfg.seed = base + s;
    const Workload w = GenerateWorkload(cfg, 20);
    Rng rng(base + s);
    TypeRates rates;
    for (EventTypeId t = 0; t < 20; ++t) rates.Set(t, 1.0 + rng.Below(20));
    const CostModel cm(rates);
    const SharonGraph::WeightFn weight = [&](const Candidate& c) {
      return cm.BValue(c, w);
    };
    SharonGraph g = SharonGraph::Build(w, FindSharableCandidates(w), weight);
    const std::string label = "seed " + std::to_string(base + s);
    ExpectSameOptions(g, w, {}, label);
    ExpectSameOptions(g, w, Limits(5, 4096, 4), label + " small caps");
    ExpectSameExpandedGraph(g, w, weight, {}, label + " graph");
    // Budgets that stop Alg. 6 within a vertex's options and at its first.
    ExpectSameExpandedGraph(g, w, weight, Limits(16, 37, 12),
                            label + " budget 37");
    ExpectSameExpandedGraph(g, w, weight, Limits(16, 1, 12),
                            label + " budget 1");
    // Removed vertices neither conflict nor expand.
    for (VertexId v = 0; v < g.capacity(); v += 3) g.Remove(v);
    ExpectSameOptions(g, w, {}, label + " after removals");
    ExpectSameExpandedGraph(g, w, weight, {}, label + " graph after removals");
  }
}

// --- Algorithm 2 and GWMIN --------------------------------------------------

/// Returns the number of vertices the reference pruned as conflict-ridden.
size_t ExpectSameReduction(const SharonGraph& g, const std::string& label) {
  SharonGraph got_graph = g, want_graph = g;
  const ReductionResult got = ReduceGraph(got_graph);
  const ReductionResult want = RefReduceGraph(want_graph);
  EXPECT_EQ(got.pruned_ridden, want.pruned_ridden) << label;
  EXPECT_EQ(got.conflict_free, want.conflict_free) << label;
  EXPECT_EQ(got.remaining, want.remaining) << label;
  EXPECT_EQ(got_graph.AliveVertices(), want_graph.AliveVertices()) << label;
  return want.pruned_ridden.size();
}

void ExpectSameGwmin(const SharonGraph& g, const std::string& label) {
  const GwminResult got = RunGwmin(g);
  const GwminResult want = RefGwmin(g);
  EXPECT_EQ(got.independent_set, want.independent_set) << label;
  EXPECT_EQ(got.weight, want.weight) << label;  // bit-identical
}

TEST(OptimizerIdentity, ReductionAndGwminMatchReferences) {
  const uint64_t base = SweepBaseSeed();
  for (uint64_t s = 0; s < 8; ++s) {
    WorkloadGenConfig cfg;
    cfg.num_queries = 10 + 10 * static_cast<uint32_t>(s % 3);
    cfg.pattern_length = 8;
    cfg.cluster_size = 10;
    cfg.seed = base + s;
    const Workload w = GenerateWorkload(cfg, 24);
    Rng rng(base + s);
    TypeRates rates;
    for (EventTypeId t = 0; t < 24; ++t) rates.Set(t, 1.0 + rng.Below(4));
    const CostModel cm(rates);
    const SharonGraph::WeightFn weight = [&](const Candidate& c) {
      return cm.BValue(c, w);
    };
    const SharonGraph g =
        SharonGraph::Build(w, FindSharableCandidates(w), weight);
    ExpansionOptions opts;
    opts.max_options_per_candidate = 16;
    const SharonGraph expanded = ExpandGraph(g, w, weight, opts);
    const std::string label = "seed " + std::to_string(base + s);
    ExpectSameReduction(g, label);
    ExpectSameReduction(expanded, label + " expanded");
    ExpectSameGwmin(g, label);
    ExpectSameGwmin(expanded, label + " expanded");
    SharonGraph reduced = expanded;
    ReduceGraph(reduced);
    ExpectSameGwmin(reduced, label + " reduced");  // some vertices removed
  }
}

TEST(OptimizerIdentity, ReductionAndGwminMatchReferencesOnRandomLists) {
  const uint64_t base = SweepBaseSeed();
  for (uint64_t s = 0; s < 12; ++s) {
    const uint64_t seed = base + 1000 + s;
    const BuildCase c = MakeBuildCase(seed);
    const SharonGraph g = SharonGraph::Build(
        c.workload, c.candidates, [seed](const Candidate& cand) {
          return HashWeight(cand, seed, 1, 5);  // tie-heavy
        });
    ExpectSameReduction(g, "seed " + std::to_string(seed));
    ExpectSameGwmin(g, "seed " + std::to_string(seed));
  }
}

// --- Algorithms 3 and 4 -----------------------------------------------------

/// What FindOptimalPlan must report, found by a depth-first enumeration of
/// each component's independent sets.
struct Enumerated {
  uint64_t plans = 0;
  uint64_t widest = 0;
  double best_score = 0;
  std::vector<VertexId> best;  ///< sorted
  size_t largest_component = 0;
};

/// Scores sum left to right in ascending vertex order; the best plan of a
/// component is its first maximum in (size, then lexicographic) order;
/// component optima are added in ConnectedComponents() order.
Enumerated EnumerateIndependentSets(const SharonGraph& g) {
  Enumerated out;
  for (const std::vector<VertexId>& comp : g.ConnectedComponents()) {
    const size_t k = comp.size();
    out.largest_component = std::max(out.largest_component, k);
    std::vector<uint8_t> conflict(k * k, 0);
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) {
        conflict[i * k + j] = g.HasEdge(comp[i], comp[j]);
      }
    }
    std::vector<uint64_t> per_size(k + 1, 0);
    double best_score = 0;
    std::vector<uint32_t> best, plan;
    auto visit = [&](auto&& self, const std::vector<uint32_t>& allowed,
                     double score) -> void {
      for (size_t a = 0; a < allowed.size(); ++a) {
        const uint32_t i = allowed[a];
        const double s = score + g.weight(comp[i]);
        plan.push_back(i);
        ++per_size[plan.size()];
        const bool earlier = plan.size() < best.size() ||
                             (plan.size() == best.size() && plan < best);
        if (s > best_score || (s == best_score && earlier)) {
          best_score = s;
          best = plan;
        }
        std::vector<uint32_t> next;
        for (size_t b = a + 1; b < allowed.size(); ++b) {
          if (!conflict[i * k + allowed[b]]) next.push_back(allowed[b]);
        }
        self(self, next, s);
        plan.pop_back();
      }
    };
    std::vector<uint32_t> all(k);
    for (uint32_t i = 0; i < k; ++i) all[i] = i;
    visit(visit, all, 0.0);
    for (uint64_t n : per_size) {
      out.plans += n;
      out.widest = std::max(out.widest, n);
    }
    out.best_score += best_score;
    for (uint32_t i : best) out.best.push_back(comp[i]);
  }
  std::sort(out.best.begin(), out.best.end());
  return out;
}

/// Two 40-type backbones, each the pattern of four queries. Each backbone
/// gets 65-200 candidates: sub-patterns of 12-24 types listed with three
/// or four of its queries. Any two such lists meet, so candidates conflict
/// iff their sub-patterns overlap, and at most three fit side by side:
/// each component is wider than one machine word yet has few independent
/// sets.
SharonGraph MakeWideComponentGraph(uint64_t seed, uint64_t max_weight,
                                   Workload* w) {
  constexpr uint32_t kLen = 40;
  Rng rng(seed);
  *w = Workload();
  std::vector<Candidate> cands;
  for (uint32_t b = 0; b < 2; ++b) {
    std::vector<EventTypeId> backbone(kLen);
    for (uint32_t i = 0; i < kLen; ++i) backbone[i] = b * kLen + i;
    for (QueryId q = 0; q < 4; ++q) w->Add(MakeQuery(backbone));
    const uint32_t n = 65 + static_cast<uint32_t>(rng.Below(136));
    std::set<Candidate> distinct;
    while (distinct.size() < n) {
      const uint32_t len = 12 + static_cast<uint32_t>(rng.Below(13));
      const uint32_t off = static_cast<uint32_t>(rng.Below(kLen - len + 1));
      QueryList qs = {4 * b, 4 * b + 1, 4 * b + 2, 4 * b + 3};
      if (rng.Chance(0.7)) qs.erase(qs.begin() + rng.Below(4));
      distinct.insert({Pattern(Slice(backbone, off, len)), std::move(qs)});
    }
    cands.insert(cands.end(), distinct.begin(), distinct.end());
  }
  return SharonGraph::Build(*w, cands, [seed, max_weight](const Candidate& c) {
    return HashWeight(c, seed, 1, max_weight);
  });
}

TEST(OptimizerIdentity, FinderMatchesEnumerationOnWideComponents) {
  const uint64_t base = SweepBaseSeed();
  for (uint64_t s = 0; s < 4; ++s) {
    for (uint64_t max_weight : {100, 3}) {
      Workload w;
      const SharonGraph g = MakeWideComponentGraph(base + s, max_weight, &w);
      const Enumerated want = EnumerateIndependentSets(g);
      ASSERT_GT(want.largest_component, 64u);
      ASSERT_LE(want.plans, 100'000u);
      const PlanFinderResult got = FindOptimalPlan(g);
      const std::string label = "seed " + std::to_string(base + s) +
                                " max_weight " + std::to_string(max_weight);
      ASSERT_TRUE(got.completed) << label;
      EXPECT_EQ(got.plans_considered, want.plans) << label;
      EXPECT_EQ(got.peak_level_plans, want.widest) << label;
      EXPECT_EQ(got.best_score, want.best_score) << label;  // bit-identical
      EXPECT_EQ(got.best, want.best) << label;
    }
  }
}

/// One lattice level of the level-wise finder, stored flat. Plan p is the
/// `width` ascending component-local indices at
/// plans[p * width, (p + 1) * width), scored scores[p]. The children of one
/// parent are contiguous: block b spans plans [blocks[b], blocks[b + 1]),
/// and blocks ends with a sentinel.
struct RefLevel {
  size_t width = 0;
  std::vector<uint32_t> plans;
  std::vector<double> scores;
  std::vector<size_t> blocks;

  size_t size() const { return scores.size(); }
  const uint32_t* plan(size_t p) const { return plans.data() + p * width; }
  uint32_t last(size_t p) const { return plans[(p + 1) * width - 1]; }

  void Reset(size_t new_width) {
    width = new_width;
    plans.clear();
    scores.clear();
    blocks.clear();
  }
};

/// Alg. 3 as the finder ran it level by level: generates level s+1 from
/// level s by joining the plans of each block pairwise. Returns false once
/// the level would exceed `max_plans` (0 = unlimited). `conflicts` rows and
/// `members` are `stride` words over component-local indices; `members`
/// is zero on entry and on return.
bool RefGetNextLevel(const std::vector<uint64_t>& conflicts, size_t stride,
                     const std::vector<double>& weights,
                     const RefLevel& parents, uint64_t max_plans,
                     RefLevel* children, uint64_t* members) {
  const size_t width = parents.width;
  children->Reset(width + 1);
  for (size_t b = 0; b + 1 < parents.blocks.size(); ++b) {
    const size_t block_begin = parents.blocks[b];
    const size_t block_end = parents.blocks[b + 1];
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
      const uint64_t* row = conflicts.data() + vi * stride;
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

/// Alg. 4 level by level, per connected component, with the strict->
/// best rule; no time limit.
PlanFinderResult RefFindOptimalPlan(const SharonGraph& graph,
                                    uint64_t max_level_plans) {
  PlanFinderResult result;
  std::vector<uint32_t> local(graph.capacity());
  for (const std::vector<VertexId>& component : graph.ConnectedComponents()) {
    const size_t n = component.size();
    const size_t stride = (n + 63) / 64;
    for (uint32_t i = 0; i < n; ++i) local[component[i]] = i;
    std::vector<uint64_t> conflicts(n * stride, 0), members(stride, 0);
    std::vector<double> weights;
    for (uint32_t i = 0; i < n; ++i) {
      weights.push_back(graph.weight(component[i]));
      for (VertexId u : graph.adjacency(component[i])) {
        if (!graph.alive(u)) continue;
        conflicts[i * stride + local[u] / 64] |= uint64_t{1}
                                                 << (local[u] % 64);
      }
    }
    RefLevel level, next;
    level.Reset(1);
    for (uint32_t i = 0; i < n; ++i) {
      level.plans.push_back(i);
      level.scores.push_back(weights[i]);
    }
    level.blocks = {0, n};
    double best_score = 0;
    std::vector<uint32_t> best;
    while (level.size() > 0) {
      result.plans_considered += level.size();
      result.peak_level_plans =
          std::max(result.peak_level_plans, level.size());
      size_t best_in_level = level.size();
      for (size_t p = 0; p < level.size(); ++p) {
        if (level.scores[p] > best_score) {
          best_score = level.scores[p];
          best_in_level = p;
        }
      }
      if (best_in_level < level.size()) {
        const uint32_t* plan = level.plan(best_in_level);
        best.assign(plan, plan + level.width);
      }
      if (!RefGetNextLevel(conflicts, stride, weights, level,
                           max_level_plans, &next, members.data())) {
        result.completed = false;
        result.limit = PlanFinderLimit::kLevelSize;
        return result;
      }
      std::swap(level, next);
    }
    result.best_score += best_score;
    for (uint32_t i : best) result.best.push_back(component[i]);
  }
  std::sort(result.best.begin(), result.best.end());
  return result;
}

/// Compares FindOptimalPlan with the level-wise reference under one
/// max_level_plans; returns the reference's result.
PlanFinderResult ExpectSameSearch(const SharonGraph& g,
                                  uint64_t max_level_plans,
                                  const std::string& label) {
  PlanFinderOptions opts;
  opts.time_limit_seconds = 1e9;
  opts.max_level_plans = max_level_plans;
  const PlanFinderResult got = FindOptimalPlan(g, opts);
  const PlanFinderResult want = RefFindOptimalPlan(g, max_level_plans);
  const std::string at = label + " max_level_plans " +
                         std::to_string(max_level_plans);
  EXPECT_EQ(got.best, want.best) << at;
  EXPECT_EQ(got.best_score, want.best_score) << at;  // bit-identical
  EXPECT_EQ(got.plans_considered, want.plans_considered) << at;
  EXPECT_EQ(got.peak_level_plans, want.peak_level_plans) << at;
  EXPECT_EQ(got.completed, want.completed) << at;
  EXPECT_EQ(got.limit, want.limit) << at;
  return want;
}

/// Compares the finder with the level-wise reference unlimited, at a limit
/// of the widest level and at one below it. Returns the reference's
/// result at one below, so callers can check that the limit cut it.
PlanFinderResult ExpectSameSearchAtEveryLimit(const SharonGraph& g,
                                              const std::string& label) {
  const PlanFinderResult full = ExpectSameSearch(g, 0, label);
  ExpectSameSearch(g, full.peak_level_plans, label);
  if (full.peak_level_plans < 2) return full;
  return ExpectSameSearch(g, full.peak_level_plans - 1, label);
}

/// A random conflict graph: CCSpan's candidates over slices of two to four
/// shuffled backbones, weighted 1..max_weight.
SharonGraph MakeRandomFinderGraph(uint64_t seed, uint64_t max_weight,
                                  Workload* w) {
  Rng rng(seed);
  std::vector<std::vector<EventTypeId>> backbones;
  const uint32_t num_queries = 6 + static_cast<uint32_t>(rng.Below(11));
  const uint32_t num_backbones = 2 + static_cast<uint32_t>(rng.Below(3));
  const uint32_t backbone_len = 8 + static_cast<uint32_t>(rng.Below(5));
  *w = BackboneWorkload(rng, num_queries, num_backbones, backbone_len, 2,
                        &backbones);
  return SharonGraph::Build(
      *w, FindSharableCandidates(*w), [seed, max_weight](const Candidate& c) {
        return HashWeight(c, seed, 1, max_weight);
      });
}

TEST(OptimizerIdentity, FinderMatchesLevelWiseOnRandomGraphs) {
  const uint64_t base = SweepBaseSeed();
  size_t cut = 0;
  for (uint64_t s = 0; s < 16; ++s) {
    for (uint64_t max_weight : {100, 3}) {
      Workload w;
      const SharonGraph g = MakeRandomFinderGraph(base + s, max_weight, &w);
      const std::string label = "seed " + std::to_string(base + s) +
                                " max_weight " + std::to_string(max_weight);
      cut += !ExpectSameSearchAtEveryLimit(g, label).completed;
    }
  }
  EXPECT_GT(cut, 0u) << "no case reached the level-size limit";
}

TEST(OptimizerIdentity, FinderMatchesLevelWiseOnWideComponents) {
  const uint64_t base = SweepBaseSeed();
  for (uint64_t s = 0; s < 4; ++s) {
    for (uint64_t max_weight : {100, 3}) {
      Workload w;
      const SharonGraph g = MakeWideComponentGraph(base + s, max_weight, &w);
      const std::string label = "seed " + std::to_string(base + s) +
                                " max_weight " + std::to_string(max_weight);
      EXPECT_FALSE(ExpectSameSearchAtEveryLimit(g, label).completed) << label;
    }
  }
}

// --- plan_scale, pinned -----------------------------------------------------

/// The planner input of the plan_scale benchmark workload: 100 generated
/// EC queries, rates from the first 300 s of an EC stream, and the SO
/// pipeline with bounded expansion.
struct PlanScaleInput {
  Workload workload;
  CostModel cm{TypeRates()};
  OptimizerConfig config;
  SharonGraph::WeightFn weight;
};

const PlanScaleInput& PlanScale() {
  static const PlanScaleInput* input = [] {
    auto* in = new PlanScaleInput;
    WorkloadGenConfig w;
    w.num_queries = 100;
    w.pattern_length = 8;
    w.cluster_size = 10;
    w.backbone_extra = 2;
    w.window = {Seconds(5), Seconds(1)};
    w.partition_attr = 0;
    w.seed = 1;
    in->workload = GenerateWorkload(w, 50);
    EcommerceConfig ec;
    ec.num_items = 50;
    ec.num_customers = 20;
    ec.events_per_second = 1500;
    ec.duration = Seconds(300);
    ec.seed = 1;
    in->cm = CostModel(EstimateRates(GenerateEcommerce(ec)));
    in->config.finder.time_limit_seconds = 20.0;
    in->config.expansion.max_options_per_candidate = 32;
    in->config.expansion.max_total_candidates = 1536;
    in->weight = [in](const Candidate& c) {
      return in->cm.BValue(c, in->workload);
    };
    return in;
  }();
  return *input;
}

TEST(OptimizerIdentity, PlanScaleGolden) {
  const PlanScaleInput& in = PlanScale();
  const OptimizerResult r = OptimizeSharon(in.workload, in.cm, in.config);
  ASSERT_TRUE(r.completed);
  EXPECT_FALSE(r.used_fallback);
  EXPECT_EQ(r.score, 0x1.90e9d32aa4d75p+18);  // 410,535.299478...
  EXPECT_EQ(r.plans_considered, 646'797u);
  EXPECT_EQ(r.candidates, 409u);
  EXPECT_EQ(r.graph_vertices, 162u);
  EXPECT_EQ(r.expanded_vertices, 1'512u);
  EXPECT_EQ(r.reduced_vertices, 1'180u);
}

TEST(OptimizerIdentity, PlanScaleStagesMatchReferences) {
  const PlanScaleInput& in = PlanScale();
  const SharonGraph g = SharonGraph::Build(
      in.workload, FindSharableCandidates(in.workload), in.weight);
  ExpectSameGraph(g,
                  RefBuild(in.workload, FindSharableCandidates(in.workload),
                           in.weight),
                  "plan_scale graph");
  ExpectSameOptions(g, in.workload, in.config.expansion, "plan_scale");
  const SharonGraph expanded =
      ExpandGraph(g, in.workload, in.weight, in.config.expansion);
  ExpectSameGraph(
      expanded,
      RefBuild(in.workload,
               RefExpandedCandidates(g, in.workload, in.config.expansion),
               in.weight),
      "plan_scale expanded graph");
  // Def. 13 prunes 327 of its vertices over several passes.
  EXPECT_EQ(ExpectSameReduction(expanded, "plan_scale expanded graph"), 327u);
  ExpectSameGwmin(expanded, "plan_scale expanded graph");
}

// The graph the plan finder searches on plan_scale: expanded, then
// reduced. Its widest level holds 248,960 plans.
TEST(OptimizerIdentity, PlanScaleFinderMatchesLevelWise) {
  const PlanScaleInput& in = PlanScale();
  SharonGraph g = ExpandGraph(
      SharonGraph::Build(in.workload, FindSharableCandidates(in.workload),
                         in.weight),
      in.workload, in.weight, in.config.expansion);
  ReduceGraph(g);
  const PlanFinderResult cut = ExpectSameSearchAtEveryLimit(g, "plan_scale");
  EXPECT_EQ(cut.limit, PlanFinderLimit::kLevelSize);
}

}  // namespace
}  // namespace sharon
