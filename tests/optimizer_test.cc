// End-to-end optimizer pipeline tests over generated workloads and real
// cost-model weights: pipeline invariants, fallback behaviour, the
// executor actually getting faster state under a shared plan, and the one
// re-planning rule (Reoptimize) over seeded query-churn scripts.

#include "src/planner/optimizer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "src/exec/engine.h"
#include "src/sharing/ccspan.h"
#include "src/streamgen/ecommerce.h"
#include "src/streamgen/fixtures.h"
#include "src/streamgen/workload_gen.h"

namespace sharon {
namespace {

CostModel UniformModel(size_t num_types, double rate = 10.0) {
  return CostModel(TypeRates(std::vector<double>(num_types, rate)));
}

TEST(OptimizerTest, SharonBeatsOrMatchesGreedy) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    WorkloadGenConfig cfg;
    cfg.num_queries = 12;
    cfg.pattern_length = 5;
    cfg.seed = seed;
    Workload w = GenerateWorkload(cfg, 16);
    CostModel cm = UniformModel(16);
    OptimizerResult so = OptimizeSharon(w, cm);
    OptimizerResult go = OptimizeGreedy(w, cm);
    ASSERT_TRUE(so.completed);
    EXPECT_GE(so.score, go.score - 1e-9) << "seed " << seed;
  }
}

TEST(OptimizerTest, SharonMatchesExhaustiveOnSmallWorkloads) {
  for (uint64_t seed = 10; seed < 14; ++seed) {
    WorkloadGenConfig cfg;
    cfg.num_queries = 6;
    cfg.pattern_length = 4;
    cfg.seed = seed;
    Workload w = GenerateWorkload(cfg, 10);
    CostModel cm = UniformModel(10);
    OptimizerConfig config;
    config.expansion.max_options_per_candidate = 16;
    OptimizerResult so = OptimizeSharon(w, cm, config);
    OptimizerResult eo = OptimizeExhaustive(w, cm, config);
    if (!so.completed || !eo.completed) continue;
    EXPECT_DOUBLE_EQ(so.score, eo.score) << "seed " << seed;
  }
}

TEST(OptimizerTest, PlanIsExecutable) {
  // Every plan an optimizer emits must compile in the engine.
  WorkloadGenConfig cfg;
  cfg.num_queries = 20;
  cfg.pattern_length = 6;
  Workload w = GenerateWorkload(cfg, 16);
  CostModel cm = UniformModel(16);
  for (const OptimizerResult& r :
       {OptimizeSharon(w, cm), OptimizeGreedy(w, cm)}) {
    Engine engine(w, r.plan);
    EXPECT_TRUE(engine.ok()) << engine.error();
  }
}

TEST(OptimizerTest, TimeLimitTriggersGwminFallback) {
  WorkloadGenConfig cfg;
  cfg.num_queries = 40;
  cfg.pattern_length = 8;
  cfg.cluster_size = 8;
  Workload w = GenerateWorkload(cfg, 24);
  CostModel cm = UniformModel(24);
  OptimizerConfig config;
  config.finder.time_limit_seconds = 0.0;  // force immediate fallback
  OptimizerResult r = OptimizeSharon(w, cm, config);
  EXPECT_TRUE(r.used_fallback);
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.plan.empty());  // GWMIN still returns a usable plan
  Engine engine(w, r.plan);
  EXPECT_TRUE(engine.ok()) << engine.error();
  // The incomplete result names the limit that actually triggered — both
  // in the structured field and in the plan-finder phase's note, so
  // Fig. 15 output distinguishes time-outs from level overflows.
  EXPECT_EQ(r.limit, PlanFinderLimit::kTime);
  ASSERT_FALSE(r.phases.empty());
  const OptimizerPhase& finder_phase = r.phases.back();
  EXPECT_EQ(finder_phase.name, "plan finder");
  EXPECT_NE(finder_phase.note.find("time limit"), std::string::npos)
      << finder_phase.note;
}

TEST(OptimizerTest, LevelSizeLimitIsSurfacedDistinctly) {
  WorkloadGenConfig cfg;
  cfg.num_queries = 40;
  cfg.pattern_length = 8;
  cfg.cluster_size = 8;
  Workload w = GenerateWorkload(cfg, 24);
  CostModel cm = UniformModel(24);
  OptimizerConfig config;
  config.finder.time_limit_seconds = 1e9;  // time can never trigger
  config.finder.max_level_plans = 2;       // ...but the level size will
  OptimizerResult r = OptimizeSharon(w, cm, config);
  EXPECT_TRUE(r.used_fallback);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.limit, PlanFinderLimit::kLevelSize);
  ASSERT_FALSE(r.phases.empty());
  EXPECT_NE(r.phases.back().note.find("level-size limit"), std::string::npos)
      << r.phases.back().note;
  // A completed run reports no limit and clean phase notes.
  OptimizerResult clean = OptimizeSharon(w, cm);
  if (clean.completed) {
    EXPECT_EQ(clean.limit, PlanFinderLimit::kNone);
    EXPECT_TRUE(clean.phases.back().note.empty());
  }
}

// Alg. 6 stops taking options at max_total_candidates. The expansion
// phase notes after how many of the graph's vertices it stopped, and stays
// clean when the budget holds every option.
TEST(OptimizerTest, ExpansionBudgetCutIsNoted) {
  WorkloadGenConfig cfg;
  cfg.num_queries = 12;
  cfg.pattern_length = 5;
  cfg.seed = 3;
  Workload w = GenerateWorkload(cfg, 16);
  CostModel cm = UniformModel(16);
  const SharonGraph g = SharonGraph::Build(
      w, FindSharableCandidates(w),
      [&](const Candidate& c) { return cm.BValue(c, w); });
  ASSERT_GE(g.num_vertices(), 4u);
  OptimizerConfig config;
  std::vector<size_t> options;
  size_t total = 0;
  for (VertexId v : g.AliveVertices()) {
    options.push_back(ExpandCandidate(g, v, w, config.expansion).size());
    total += options.back();
  }

  // Room for the first two vertices' options and one more: the cut comes
  // at the third vertex.
  config.expansion.max_total_candidates =
      static_cast<uint32_t>(options[0] + options[1] + 1);
  const OptimizerResult cut = OptimizeSharon(w, cm, config);
  ASSERT_GE(cut.phases.size(), 2u);
  EXPECT_EQ(cut.phases[1].name, "graph expansion");
  EXPECT_EQ(cut.phases[1].note,
            "expansion budget reached after 3 of " +
                std::to_string(g.num_vertices()) + " candidates");

  config.expansion.max_total_candidates = static_cast<uint32_t>(total);
  const OptimizerResult whole = OptimizeSharon(w, cm, config);
  EXPECT_TRUE(whole.phases[1].note.empty()) << whole.phases[1].note;
}

TEST(OptimizerTest, PhasesAreReported) {
  TrafficFixture f = MakeTrafficFixture();
  CostModel cm = UniformModel(f.types.size());
  OptimizerResult so = OptimizeSharon(f.workload, cm);
  ASSERT_EQ(so.phases.size(), 4u);  // construct, expand, reduce, find
  EXPECT_EQ(so.phases[0].name, "graph construction");
  EXPECT_EQ(so.phases[1].name, "graph expansion");
  EXPECT_EQ(so.phases[2].name, "graph reduction");
  EXPECT_EQ(so.phases[3].name, "plan finder");
  OptimizerResult go = OptimizeGreedy(f.workload, cm);
  ASSERT_EQ(go.phases.size(), 2u);  // construct, GWMIN
  EXPECT_GT(so.TotalMillis(), 0);
  EXPECT_GT(so.PeakBytes(), 0u);
}

TEST(OptimizerTest, NoSharingOpportunitiesYieldsEmptyPlan) {
  // Disjoint patterns: CCSpan finds nothing; Sharon defaults to the
  // Non-Shared method (§6 extreme case 2).
  Workload w;
  Query q1, q2;
  q1.pattern = Pattern({0, 1});
  q2.pattern = Pattern({2, 3});
  q1.agg = q2.agg = AggSpec::CountStar();
  q1.window = q2.window = {100, 10};
  w.Add(q1);
  w.Add(q2);
  CostModel cm = UniformModel(4);
  OptimizerResult r = OptimizeSharon(w, cm);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.plan.empty());
  EXPECT_EQ(r.score, 0);
}

TEST(OptimizerTest, SharedPlanShrinksExecutorState) {
  // Identical queries sharing everything: the shared engine must keep
  // far less state than per-query A-Seq.
  Workload w;
  for (int i = 0; i < 8; ++i) {
    Query q;
    q.pattern = Pattern({0, 1, 2, 3});
    q.agg = AggSpec::CountStar();
    q.window = {Seconds(60), Seconds(10)};
    q.partition_attr = 0;
    w.Add(q);
  }
  EcommerceConfig ecfg;
  ecfg.num_items = 6;
  ecfg.events_per_second = 500;
  ecfg.duration = Minutes(3);
  Scenario s = GenerateEcommerce(ecfg);

  CostModel cm(EstimateRates(s));
  OptimizerResult opt = OptimizeSharon(w, cm);
  ASSERT_FALSE(opt.plan.empty());

  Engine shared(w, opt.plan);
  Engine nonshared(w);
  RunStats ss = shared.Run(s.events, s.duration);
  RunStats ns = nonshared.Run(s.events, s.duration);
  EXPECT_TRUE(ss.finished);
  EXPECT_LT(ss.peak_state_bytes, ns.peak_state_bytes);
}

// --- the one re-planning rule over query churn ------------------------------
//
// Drift and churn both re-plan the active set with Reoptimize. Seeded
// register / retire / reactivate scripts edit the query set; after every
// op the pass must plan only active queries, never score below GO or SO
// under the same config, and give the same plan on a rerun. Seeds honor
// SHARON_DISORDER_SEED_BASE, so the CI seed matrix sweeps disjoint
// script families.

uint64_t SweepBaseSeed() {
  const char* env = std::getenv("SHARON_DISORDER_SEED_BASE");
  return env ? static_cast<uint64_t>(std::atoll(env)) : 0;
}

constexpr uint32_t kChurnTypes = 6;

Query RandomChurnQuery(std::mt19937_64& rng) {
  std::uniform_int_distribution<size_t> len_dist(2, 4);
  const size_t len = len_dist(rng);
  // Distinct types (assumption 3), random order.
  std::vector<EventTypeId> types(kChurnTypes);
  for (uint32_t t = 0; t < kChurnTypes; ++t) types[t] = t;
  std::shuffle(types.begin(), types.end(), rng);
  types.resize(len);
  Query q;
  q.pattern = Pattern(types);
  q.agg = AggSpec::CountStar();
  q.window = {Seconds(10), Seconds(5)};
  q.partition_attr = 0;
  return q;
}

TypeRates RandomChurnRates(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> rate_dist(0.5, 12.0);
  TypeRates rates;
  for (uint32_t t = 0; t < kChurnTypes; ++t) rates.Set(t, rate_dist(rng));
  return rates;
}

/// Counts over one script, so the sweep can show it was not vacuous.
struct ChurnScriptCounts {
  size_t shared_plans = 0;  ///< passes whose plan shares something
  size_t escalations = 0;   ///< passes that ran SO
  size_t so_below_go = 0;   ///< passes where SO alone scored below GO
};

/// Runs one seeded edit script, feeding each pass's plan back in as the
/// next pass's incumbent the way PlanManager does, and checks the rule
/// after every op.
ChurnScriptCounts RunReoptimizeScript(uint64_t seed,
                                      const OptimizerConfig& config,
                                      size_t ops = 14) {
  std::mt19937_64 rng(seed);
  Workload w;
  for (size_t i = 0; i < 8; ++i) w.Add(RandomChurnQuery(rng));
  const CostModel cm(RandomChurnRates(rng));
  ChurnScriptCounts counts;
  SharingPlan incumbent;

  for (size_t op = 0; op < ops; ++op) {
    const std::string label = "seed=" + std::to_string(seed) +
                              " expand=" + std::to_string(config.expand) +
                              " op=" + std::to_string(op);
    std::vector<QueryId> active, inactive;
    for (const Query& q : w.queries()) {
      (w.active(q.id) ? active : inactive).push_back(q.id);
    }
    const uint64_t roll = rng() % 3;
    if (roll == 0 && active.size() > 1) {
      w.SetActive(active[rng() % active.size()], false);  // retire
    } else if (roll == 1 && !inactive.empty()) {
      w.SetActive(inactive[rng() % inactive.size()], true);  // reactivate
    } else {
      w.Add(RandomChurnQuery(rng));  // register
    }

    const ReoptimizeResult r = Reoptimize(w, cm, incumbent, config);
    EXPECT_EQ(r.current_score, PlanScore(incumbent, w, cm)) << label;
    for (const Candidate& c : r.chosen.plan) {
      for (QueryId q : c.queries) {
        EXPECT_TRUE(w.active(q)) << label << ": plan names retired query " << q;
      }
    }
    const double tol = 1e-9 * std::max(1.0, std::abs(r.chosen.score));
    EXPECT_NEAR(PlanScore(r.chosen.plan, w, cm), r.chosen.score, tol) << label;
    const double go = OptimizeGreedy(w, cm).score;
    const double so = OptimizeSharon(w, cm, config).score;
    EXPECT_GE(r.chosen.score + tol, go) << label;
    EXPECT_GE(r.chosen.score + tol, so) << label;

    const ReoptimizeResult rerun = Reoptimize(w, cm, incumbent, config);
    EXPECT_EQ(rerun.chosen.plan, r.chosen.plan) << label;
    EXPECT_EQ(rerun.chosen.score, r.chosen.score) << label;
    EXPECT_EQ(rerun.escalated, r.escalated) << label;

    counts.shared_plans += r.chosen.plan.empty() ? 0 : 1;
    counts.escalations += r.escalated ? 1 : 0;
    counts.so_below_go += so + tol < go ? 1 : 0;
    incumbent = r.chosen.plan;
  }
  return counts;
}

TEST(ReoptimizeProperty, ChurnScriptsKeepTheOneRule) {
  OptimizerConfig fast;  // the benches' executor-focused limits
  fast.expand = false;
  fast.finder.time_limit_seconds = 3.0;
  fast.finder.max_level_plans = 200'000;
  // An expansion budget that runs out before every vertex is expanded
  // drops the late vertices' originals, so SO alone can score below GO.
  OptimizerConfig tight;
  tight.expansion.max_total_candidates = 2;
  auto sweep = [](const OptimizerConfig& config) {
    ChurnScriptCounts total;
    for (uint64_t s = 0; s < 5; ++s) {
      const ChurnScriptCounts c =
          RunReoptimizeScript(SweepBaseSeed() + 101 + s, config);
      total.shared_plans += c.shared_plans;
      total.escalations += c.escalations;
      total.so_below_go += c.so_below_go;
    }
    EXPECT_GT(total.shared_plans, 0u) << "vacuous: no pass shared anything";
    EXPECT_GT(total.escalations, 0u) << "vacuous: SO never ran";
    return total;
  };
  sweep(OptimizerConfig{});
  sweep(fast);
  EXPECT_GT(sweep(tight).so_below_go, 0u) << "vacuous: the GO floor never bit";
}

}  // namespace
}  // namespace sharon
