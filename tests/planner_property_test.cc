// Randomized properties of the optimizer machinery on random conflict
// graphs:
//  - GWMIN returns an independent set meeting its Eq. 10 bound;
//  - graph reduction never changes the optimum (Lemmas 1-2);
//  - the plan finder's optimum equals exhaustive search's;
//  - plan finder plans are always valid (independent sets);
//  - the plan finder's exact contract against brute force per component:
//    plans visited, widest level, a bit-identical score and the
//    tie-breaking order of its best plan;
//  - the level-size limit's boundary (max_level_plans).
//
// Random graphs are built from random workloads so conflicts come from
// real pattern overlaps, not synthetic adjacency. Their seeds are offset by
// SHARON_DISORDER_SEED_BASE like the other property suites, so each CI
// seed-matrix leg checks different graphs; base 0 keeps seeds 0-23.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "src/common/rng.h"
#include "src/graph/gwmin.h"
#include "src/graph/reduction.h"
#include "src/planner/plan_finder.h"
#include "src/sharing/ccspan.h"

namespace sharon {
namespace {

uint64_t SweepBaseSeed() {
  const char* env = std::getenv("SHARON_DISORDER_SEED_BASE");
  return env ? static_cast<uint64_t>(std::atoll(env)) : 0;
}

struct RandomGraphCase {
  Workload workload;
  std::vector<Candidate> candidates;
  SharonGraph graph;
};

/// Weights are integers in [1, max_weight].
RandomGraphCase MakeRandomGraph(uint64_t seed, uint64_t max_weight = 100) {
  Rng rng(seed);
  RandomGraphCase c;
  const uint32_t num_types = 6 + static_cast<uint32_t>(rng.Below(4));
  const uint32_t num_queries = 4 + static_cast<uint32_t>(rng.Below(5));

  std::vector<EventTypeId> backbone(num_types);
  for (uint32_t i = 0; i < num_types; ++i) backbone[i] = i;
  for (uint32_t i = num_types - 1; i > 0; --i) {
    uint32_t j = static_cast<uint32_t>(rng.Below(i + 1));
    std::swap(backbone[i], backbone[j]);
  }
  for (uint32_t qi = 0; qi < num_queries; ++qi) {
    const uint32_t len =
        2 + static_cast<uint32_t>(rng.Below(num_types - 2));
    const uint32_t off = static_cast<uint32_t>(rng.Below(num_types - len + 1));
    Query q;
    q.pattern = Pattern(std::vector<EventTypeId>(
        backbone.begin() + off, backbone.begin() + off + len));
    q.agg = AggSpec::CountStar();
    q.window = {100, 10};
    c.workload.Add(std::move(q));
  }
  c.candidates = FindSharableCandidates(c.workload);
  // Deterministic pseudo-random positive weights.
  c.graph = SharonGraph::Build(
      c.workload, c.candidates, [seed, max_weight](const Candidate& cand) {
        Rng wrng(seed ^ PatternHash()(cand.pattern));
        return 1.0 + static_cast<double>(wrng.Below(max_weight));
      });
  return c;
}

bool IsIndependent(const SharonGraph& g, const std::vector<VertexId>& vs) {
  for (size_t i = 0; i < vs.size(); ++i) {
    for (size_t j = i + 1; j < vs.size(); ++j) {
      if (g.HasEdge(vs[i], vs[j])) return false;
    }
  }
  return true;
}

/// What the plan finder must report for a graph, found by enumerating
/// every subset of each connected component.
struct BruteForce {
  uint64_t independent_sets = 0;  ///< non-empty, over all components
  uint64_t widest = 0;            ///< most independent sets of one size
  uint64_t widest_beyond_1 = 0;   ///< the same, over sizes >= 2 only
  double best_score = 0;
  std::vector<VertexId> best;     ///< sorted
};

/// Summation and tie-breaking follow the finder: a plan's score sums its
/// weights left to right in ascending vertex order; the best plan of a
/// component is the first maximum in (size, then lexicographic) order;
/// component optima are added in ConnectedComponents() order.
BruteForce BruteForceByComponent(const SharonGraph& g) {
  BruteForce out;
  for (const std::vector<VertexId>& comp : g.ConnectedComponents()) {
    const size_t k = comp.size();
    std::vector<uint32_t> conflicts(k, 0);  // bit j: comp[i] -- comp[j]
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j < k; ++j) {
        if (g.HasEdge(comp[i], comp[j])) conflicts[i] |= 1u << j;
      }
    }
    std::vector<uint64_t> per_size(k + 1, 0);
    double best_score = 0;
    std::vector<VertexId> best;
    for (uint32_t mask = 1; mask < (1u << k); ++mask) {
      std::vector<VertexId> plan;
      bool independent = true;
      for (size_t i = 0; i < k && independent; ++i) {
        if ((mask >> i & 1u) == 0) continue;
        independent = (conflicts[i] & mask) == 0;
        plan.push_back(comp[i]);
      }
      if (!independent) continue;
      ++per_size[plan.size()];
      double score = g.weight(plan[0]);
      for (size_t i = 1; i < plan.size(); ++i) score += g.weight(plan[i]);
      const bool earlier =
          plan.size() < best.size() ||
          (plan.size() == best.size() && plan < best);
      if (score > best_score || (score == best_score && earlier)) {
        best_score = score;
        best = std::move(plan);
      }
    }
    for (size_t s = 1; s <= k; ++s) {
      out.independent_sets += per_size[s];
      out.widest = std::max(out.widest, per_size[s]);
      if (s >= 2) {
        out.widest_beyond_1 = std::max(out.widest_beyond_1, per_size[s]);
      }
    }
    out.best_score += best_score;
    out.best.insert(out.best.end(), best.begin(), best.end());
  }
  std::sort(out.best.begin(), out.best.end());
  return out;
}

/// Asserts the limit's boundary on a graph whose widest level is level 2
/// or deeper (level 1 is never checked against the limit): a limit equal
/// to the widest level completes with the unlimited run's output, one
/// lower ends the search with kLevelSize.
void ExpectLevelLimitBoundary(const SharonGraph& g) {
  PlanFinderOptions unlimited;
  unlimited.max_level_plans = 0;
  const PlanFinderResult full = FindOptimalPlan(g, unlimited);
  ASSERT_TRUE(full.completed);
  ASSERT_GE(full.peak_level_plans, 2u);

  PlanFinderOptions at_peak;
  at_peak.max_level_plans = full.peak_level_plans;
  const PlanFinderResult same = FindOptimalPlan(g, at_peak);
  EXPECT_TRUE(same.completed);
  EXPECT_EQ(same.limit, PlanFinderLimit::kNone);
  EXPECT_EQ(same.best, full.best);
  EXPECT_EQ(same.best_score, full.best_score);
  EXPECT_EQ(same.plans_considered, full.plans_considered);
  EXPECT_EQ(same.peak_level_plans, full.peak_level_plans);

  PlanFinderOptions below_peak;
  below_peak.max_level_plans = full.peak_level_plans - 1;
  const PlanFinderResult cut = FindOptimalPlan(g, below_peak);
  EXPECT_FALSE(cut.completed);
  EXPECT_EQ(cut.limit, PlanFinderLimit::kLevelSize);
}

class PlannerProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerProperty, GwminMeetsGuaranteedWeight) {
  RandomGraphCase c = MakeRandomGraph(SweepBaseSeed() + GetParam());
  if (c.graph.num_vertices() == 0) GTEST_SKIP();
  GwminResult r = RunGwmin(c.graph);
  EXPECT_TRUE(IsIndependent(c.graph, r.independent_set));
  EXPECT_GE(r.weight, c.graph.GuaranteedWeight() - 1e-9);
}

TEST_P(PlannerProperty, FinderMatchesExhaustiveAndIsValid) {
  RandomGraphCase c = MakeRandomGraph(SweepBaseSeed() + GetParam());
  if (c.graph.num_vertices() == 0 || c.graph.num_vertices() > 18) {
    GTEST_SKIP();
  }
  PlanFinderResult finder = FindOptimalPlan(c.graph);
  PlanFinderResult exhaustive = ExhaustiveSearch(c.graph);
  ASSERT_TRUE(finder.completed);
  ASSERT_TRUE(exhaustive.completed);
  EXPECT_TRUE(IsIndependent(c.graph, finder.best));
  EXPECT_DOUBLE_EQ(finder.best_score, exhaustive.best_score);
  // The finder visits only valid plans; exhaustive visits all subsets.
  EXPECT_LE(finder.plans_considered, exhaustive.plans_considered);
}

// Weights up to 3 make equal-score plans common, so the strict-> rule,
// not chance, decides which plan is best.
TEST_P(PlannerProperty, FinderMatchesBruteForceExactly) {
  for (uint64_t max_weight : {100, 3}) {
    RandomGraphCase c =
        MakeRandomGraph(SweepBaseSeed() + GetParam(), max_weight);
    if (c.graph.num_vertices() == 0 || c.graph.num_vertices() > 18) {
      GTEST_SKIP();
    }
    const BruteForce expected = BruteForceByComponent(c.graph);
    const PlanFinderResult finder = FindOptimalPlan(c.graph);
    ASSERT_TRUE(finder.completed);
    EXPECT_EQ(finder.plans_considered, expected.independent_sets);
    EXPECT_EQ(finder.peak_level_plans, expected.widest);
    EXPECT_EQ(finder.best_score, expected.best_score);  // bit-identical
    EXPECT_EQ(finder.best, expected.best) << "max_weight " << max_weight;
  }
}

TEST_P(PlannerProperty, LevelLimitBoundary) {
  RandomGraphCase c = MakeRandomGraph(SweepBaseSeed() + GetParam());
  if (c.graph.num_vertices() == 0 || c.graph.num_vertices() > 18) {
    GTEST_SKIP();
  }
  const BruteForce expected = BruteForceByComponent(c.graph);
  if (expected.widest_beyond_1 < expected.widest) {
    GTEST_SKIP() << "the widest level is level 1, which is never checked";
  }
  ExpectLevelLimitBoundary(c.graph);
}

TEST_P(PlannerProperty, ReductionPreservesTheOptimum) {
  RandomGraphCase c = MakeRandomGraph(SweepBaseSeed() + GetParam());
  if (c.graph.num_vertices() == 0 || c.graph.num_vertices() > 18) {
    GTEST_SKIP();
  }
  PlanFinderResult before = FindOptimalPlan(c.graph);
  SharonGraph reduced = c.graph;
  ReductionResult red = ReduceGraph(reduced);
  PlanFinderResult after = FindOptimalPlan(reduced);
  double reduced_score =
      after.best_score + reduced.WeightOf(red.conflict_free);
  ASSERT_TRUE(before.completed);
  ASSERT_TRUE(after.completed);
  EXPECT_DOUBLE_EQ(before.best_score, reduced_score)
      << "reduction changed the optimum (pruned "
      << red.pruned_ridden.size() << ", free " << red.conflict_free.size()
      << ")";
}

TEST_P(PlannerProperty, GwminNeverBeatsTheOptimum) {
  RandomGraphCase c = MakeRandomGraph(SweepBaseSeed() + GetParam());
  if (c.graph.num_vertices() == 0 || c.graph.num_vertices() > 18) {
    GTEST_SKIP();
  }
  GwminResult greedy = RunGwmin(c.graph);
  PlanFinderResult optimal = FindOptimalPlan(c.graph);
  EXPECT_LE(greedy.weight, optimal.best_score + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerProperty,
                         ::testing::Range<uint64_t>(0, 24));

// A path of seven conflicts, p0 -- p1 -- ... -- p6: consecutive 2-type
// sub-patterns of one shared query overlap. Its levels hold 7, 15, 10 and
// 1 plans, so the widest is level 2.
TEST(PlannerLevelLimit, PathGraphBoundaryIsItsWidestLevel) {
  Workload workload;
  for (int i = 0; i < 2; ++i) {
    Query q;
    q.pattern = Pattern({0, 1, 2, 3, 4, 5, 6, 7});
    q.agg = AggSpec::CountStar();
    q.window = {100, 10};
    workload.Add(std::move(q));
  }
  std::vector<Candidate> candidates;
  for (EventTypeId t = 0; t < 7; ++t) {
    candidates.push_back({Pattern({t, t + 1}), {0, 1}});
  }
  const SharonGraph g = SharonGraph::Build(
      workload, candidates, [](const Candidate& cand) {
        return 1.0 + static_cast<double>(cand.pattern.front() % 3);
      });
  ASSERT_EQ(g.num_vertices(), 7u);
  ASSERT_EQ(g.num_edges(), 6u);
  const PlanFinderResult full = FindOptimalPlan(g);
  EXPECT_EQ(full.plans_considered, 7u + 15u + 10u + 1u);
  EXPECT_EQ(full.peak_level_plans, 15u);
  ExpectLevelLimitBoundary(g);
}

}  // namespace
}  // namespace sharon
