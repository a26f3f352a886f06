// The zero-allocation contract of the executor hot path (DESIGN.md
// "Hot-path memory layout"), regression-tested with the process-wide
// allocation hook (src/common/alloc_stats.h):
//
// After warm-up — group state instantiated, ring buffers and recycling
// pools grown to the workload's high-water mark, finalized results
// drained once — a bounded-state Engine::Run over a shipped-schema
// stream performs ZERO heap allocations per event. Every per-event
// structure either lives inline (Event attrs), in a warmed flat table
// (groups, result rows), in a ring buffer (counter starts, snapshots),
// or rides a recycling pool (prefix vectors, pane vectors, batches).
//
// The test drives the full watermark pipeline (reorder buffer, window
// finalization, eviction) because that is the configuration whose steady
// state is genuinely bounded; grow-forever mode allocates for its
// monotonically growing result store by design.
//
// The optimizer's inner loops are held to the same discipline: the plan
// finder (§6, Algorithms 3 and 4) keeps its conflict matrix and one
// candidate mask per depth in buffers reused across components, so its
// allocations do not grow with the plans it visits; the Def. 6 conflict
// test and the cost model's benefit value allocate nothing; candidate
// expansion (§7.1, Algorithm 5) allocates per option it returns, not per
// query subset it tries; and building the conflict graph (Algorithm 1)
// allocates per vertex it keeps, not per edge it finds.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "src/common/alloc_stats.h"
#include "src/exec/engine.h"
#include "src/graph/expansion.h"
#include "src/graph/reduction.h"
#include "src/planner/optimizer.h"
#include "src/sharing/ccspan.h"
#include "src/sharing/cost_model.h"
#include "src/streamgen/rates.h"
#include "src/streamgen/workload_gen.h"

namespace sharon {
namespace {

constexpr EventTypeId kA = 0, kB = 1, kC = 2;
constexpr Duration kLength = 64, kSlide = 16;
constexpr Timestamp kPunctuate = 32;
constexpr AttrValue kGroups = 4;

Query CountQuery(std::vector<EventTypeId> pattern) {
  Query q;
  q.pattern = Pattern(std::move(pattern));
  q.agg = AggSpec::CountStar();
  q.window = {kLength, kSlide};
  q.partition_attr = 0;
  return q;
}

Workload MakeWorkload() {
  Workload w;
  w.Add(CountQuery({kA, kB}));
  w.Add(CountQuery({kA, kB, kC}));
  w.Add(CountQuery({kB, kC}));
  return w;
}

/// Deterministic PERIODIC stream: groups round-robin, types cycling, one
/// tick per event, a watermark punctuation every kPunctuate ticks. The
/// event pattern repeats every LCM(3 types, kGroups) = 12 ticks, and all
/// window/punctuation periods divide 192 — so a phase-aligned steady
/// phase replays exactly the warm-up's state trajectory and every pool
/// and ring buffer already sits at its high-water mark.
std::vector<Event> MakeStream(Timestamp from, size_t events) {
  std::vector<Event> out;
  out.reserve(events + events / kPunctuate + 1);
  Timestamp next_punctuation = from + kPunctuate;
  for (size_t i = 0; i < events; ++i) {
    Event e;
    e.time = from + static_cast<Timestamp>(i) + 1;
    e.type = static_cast<EventTypeId>(i % 3);
    e.attrs = {static_cast<AttrValue>(i % kGroups), 1};
    if (e.time >= next_punctuation) {
      out.push_back(WatermarkEvent(e.time - 1));
      next_punctuation += kPunctuate;
    }
    out.push_back(std::move(e));
  }
  return out;
}

void ExpectZeroSteadyStateAllocs(Engine& engine, const char* label) {
  ASSERT_TRUE(engine.ok()) << engine.error();
  DisorderPolicy policy;
  policy.enabled = true;
  policy.max_lateness = 0;
  engine.SetDisorderPolicy(policy);

  // 100 full 192-tick periods each; kWarm % 192 == 0 keeps the steady
  // phase aligned with warm-up (see MakeStream).
  constexpr size_t kWarm = 19200, kSteady = 19200;
  const std::vector<Event> warm = MakeStream(0, kWarm);
  const std::vector<Event> steady =
      MakeStream(static_cast<Timestamp>(kWarm), kSteady);

  // Warm-up: instantiate groups, grow rings/pools/tables to the
  // workload's high-water mark, cycle one full drain so the finalized
  // store's rows exist with capacity.
  engine.Run(warm, kWarm);
  uint64_t checksum = 0;
  std::function<void(const ResultKey&, const AggState&)> drain =
      [&checksum](const ResultKey& key, const AggState& state) {
        checksum += static_cast<uint64_t>(key.window) +
                    static_cast<uint64_t>(state.count);
      };
  ASSERT_GT(engine.DrainFinalized(drain), 0u) << label;

  const auto before = alloc_stats::Snapshot();
  engine.Run(steady, kSteady);
  const auto delta = alloc_stats::Snapshot() - before;
  EXPECT_EQ(delta.allocations, 0u)
      << label << ": the steady-state event path must not allocate ("
      << delta.allocations << " allocations over " << kSteady << " events)";

  // The run still did real work: events released, windows finalized.
  EXPECT_GT(engine.watermark_stats().finalized_windows, kWarm / kSlide)
      << label;
  EXPECT_GT(engine.DrainFinalized(drain), 0u) << label;
  (void)checksum;
}

TEST(ZeroAllocTest, AllocHookCounts) {
  const auto before = alloc_stats::Snapshot();
  auto* p = new int(7);
  const auto mid = alloc_stats::Snapshot() - before;
  EXPECT_GE(mid.allocations, 1u);
  EXPECT_GE(mid.bytes, sizeof(int));
  delete p;
  const auto delta = alloc_stats::Snapshot() - before;
  EXPECT_GE(delta.frees, 1u);
}

TEST(ZeroAllocTest, NonSharedEngineSteadyStateIsAllocationFree) {
  Workload w = MakeWorkload();
  Engine engine(w);  // A-Seq: one private chain per query
  ExpectZeroSteadyStateAllocs(engine, "non-shared");
}

TEST(ZeroAllocTest, SharedEngineSteadyStateIsAllocationFree) {
  Workload w = MakeWorkload();
  CostModel cm(TypeRates(std::vector<double>(3, 10.0)));
  OptimizerResult opt = OptimizeSharon(w, cm);
  ASSERT_FALSE(opt.plan.empty());
  Engine engine(w, opt.plan);
  ExpectZeroSteadyStateAllocs(engine, "shared");
}

// Metrics AND lifecycle tracing enabled: cells are preallocated at
// registration and the trace ring at construction, so the instrumented
// steady state stays allocation-free (the src/obs/metrics.h contract).
TEST(ZeroAllocTest, SteadyStateWithMetricsAndTracingIsAllocationFree) {
  Workload w = MakeWorkload();
  Engine engine(w);
  obs::MetricsRegistry registry;
  obs::EngineObs eo = obs::RegisterEngineObs(registry, /*shard=*/0);
  obs::TraceClock clock;
  obs::TraceRing ring(&clock, /*source=*/0, /*capacity=*/4096);
  eo.ring = &ring;
  engine.SetObservability(&eo);
  ExpectZeroSteadyStateAllocs(engine, "metrics+trace");

  // The instrumentation actually fired during the run.
  EXPECT_GT(eo.released_events->value(), 0u);
  EXPECT_GT(eo.finalized_windows->value(), 0u);
  EXPECT_GT(eo.event_lateness->count(), 0u);
  EXPECT_GT(ring.emitted(), 0u);
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_FALSE(snap.counters.empty());
}

/// 30 generated queries in clusters of 10 over 24 types: expansion and
/// reduction leave a graph whose lattice holds more than 10^5 valid plans.
Workload PlannerWorkload() {
  WorkloadGenConfig cfg;
  cfg.num_queries = 30;
  cfg.pattern_length = 8;
  cfg.cluster_size = 10;
  cfg.seed = 1;
  return GenerateWorkload(cfg, 24);
}

TEST(ZeroAllocTest, PlanFinderAllocationsDoNotGrowWithPlans) {
  const Workload w = PlannerWorkload();
  const CostModel cm(TypeRates(std::vector<double>(24, 10.0)));
  const SharonGraph::WeightFn weight = [&](const Candidate& c) {
    return cm.BValue(c, w);
  };
  ExpansionOptions expansion;
  expansion.max_options_per_candidate = 16;
  SharonGraph g = ExpandGraph(
      SharonGraph::Build(w, FindSharableCandidates(w), weight), w, weight,
      expansion);
  ReduceGraph(g);

  const auto before = alloc_stats::Snapshot();
  const PlanFinderResult found = FindOptimalPlan(g);
  const auto delta = alloc_stats::Snapshot() - before;
  ASSERT_TRUE(found.completed);
  ASSERT_GE(found.plans_considered, 100'000u);
  EXPECT_LT(delta.allocations, found.plans_considered / 100)
      << delta.allocations << " allocations for " << found.plans_considered
      << " plans";
}

TEST(ZeroAllocTest, ConflictTestIsAllocationFree) {
  const Workload w = PlannerWorkload();
  const std::vector<Candidate> cands = FindSharableCandidates(w);
  // Pairs that share a query, so every call reaches the Def. 6 overlap
  // test rather than stopping at disjoint query lists.
  std::vector<std::pair<size_t, size_t>> pairs;
  for (size_t i = 0; i < cands.size() && pairs.size() < 1000; ++i) {
    for (size_t j = i + 1; j < cands.size() && pairs.size() < 1000; ++j) {
      if (!Intersect(cands[i].queries, cands[j].queries).empty()) {
        pairs.emplace_back(i, j);
      }
    }
  }
  ASSERT_EQ(pairs.size(), 1000u);

  size_t conflicts = 0;
  const auto before = alloc_stats::Snapshot();
  for (const auto& [i, j] : pairs) {
    conflicts += SharonGraph::InConflict(cands[i], cands[j], w);
  }
  const auto delta = alloc_stats::Snapshot() - before;
  EXPECT_EQ(delta.allocations, 0u);
  // Both outcomes occur, so neither branch is skipped.
  EXPECT_GT(conflicts, 0u);
  EXPECT_LT(conflicts, pairs.size());
}

TEST(ZeroAllocTest, ExpansionAllocatesPerOptionNotPerSubset) {
  const Workload w = PlannerWorkload();
  const CostModel cm(TypeRates(std::vector<double>(24, 10.0)));
  const SharonGraph g = SharonGraph::Build(
      w, FindSharableCandidates(w),
      [&](const Candidate& c) { return cm.BValue(c, w); });
  ExpansionOptions expansion;
  expansion.max_options_per_candidate = 16;
  const std::vector<VertexId> vertices = g.AliveVertices();

  size_t options = 0;
  const auto before = alloc_stats::Snapshot();
  for (VertexId v : vertices) {
    options += ExpandCandidate(g, v, w, expansion).size();
  }
  const auto delta = alloc_stats::Snapshot() - before;
  ASSERT_GT(options, vertices.size());  // derived options, not only originals
  EXPECT_LT(delta.allocations, 16 * options)
      << delta.allocations << " allocations for " << options << " options";
}

TEST(ZeroAllocTest, GraphBuildAllocatesPerVertexNotPerEdge) {
  const Workload w = PlannerWorkload();
  const CostModel cm(TypeRates(std::vector<double>(24, 10.0)));
  const SharonGraph::WeightFn weight = [&](const Candidate& c) {
    return cm.BValue(c, w);
  };
  const SharonGraph g =
      SharonGraph::Build(w, FindSharableCandidates(w), weight);
  ExpansionOptions expansion;
  expansion.max_options_per_candidate = 16;
  std::vector<Candidate> options;
  for (VertexId v : g.AliveVertices()) {
    for (Candidate& c : ExpandCandidate(g, v, w, expansion)) {
      options.push_back(std::move(c));
    }
  }

  const auto before = alloc_stats::Snapshot();
  const SharonGraph expanded = SharonGraph::Build(w, options, weight);
  const auto delta = alloc_stats::Snapshot() - before;
  const size_t kept = expanded.capacity();
  // Far more edges than vertices, so growing lists edge by edge shows.
  ASSERT_GT(expanded.num_edges(), 10 * kept);
  // Each kept vertex copies its candidate (pattern and query list) and
  // owns one adjacency list; the rest is a constant number of buffers.
  EXPECT_LT(delta.allocations, 4 * kept)
      << delta.allocations << " allocations for " << kept << " of "
      << options.size() << " options and " << expanded.num_edges()
      << " edges";
}

TEST(ZeroAllocTest, CostModelBValueIsAllocationFree) {
  const Workload w = PlannerWorkload();
  TypeRates rates;
  for (EventTypeId t = 0; t < 24; ++t) rates.Set(t, 1.0 + t % 7);
  const CostModel cm(rates);
  const std::vector<Candidate> cands = FindSharableCandidates(w);
  ASSERT_FALSE(cands.empty());

  double total = 0;
  const auto before = alloc_stats::Snapshot();
  for (const Candidate& c : cands) total += cm.BValue(c, w);
  const auto delta = alloc_stats::Snapshot() - before;
  EXPECT_EQ(delta.allocations, 0u);
  EXPECT_NE(total, 0.0);
}

}  // namespace
}  // namespace sharon
