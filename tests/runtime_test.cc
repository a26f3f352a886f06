// Sharded runtime tests. The load-bearing property is DETERMINISM: for
// any shard count, every (query, window, group) aggregate must be
// bit-identical to the single-threaded Engine / MultiEngine — sharding by
// group is a pure repartitioning of independent state (DESIGN.md). Plus
// backpressure/stat accounting and the ingest lifecycle.

#include "src/runtime/sharded_runtime.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "src/planner/optimizer.h"
#include "src/query/parser.h"
#include "src/streamgen/disorder.h"
#include "src/streamgen/ecommerce.h"
#include "src/streamgen/rates.h"
#include "src/streamgen/taxi.h"
#include "src/streamgen/workload_gen.h"
#include "src/twostep/reference.h"

namespace sharon {
namespace {

using runtime::RuntimeOptions;
using runtime::RuntimeStats;
using runtime::ShardedRuntime;
using runtime::ShardIndexFor;

using CellMap = std::map<std::tuple<QueryId, WindowId, AttrValue>, AggState>;

CellMap CellsOf(const ResultCollector& collector) {
  CellMap cells;
  collector.ForEachCell([&](const ResultKey& key, const AggState& state) {
    cells[{key.query, key.window, key.group}] = state;
  });
  return cells;
}

CellMap CellsOf(const ShardedRuntime& rt) {
  CellMap cells;
  rt.results().ForEachCell([&](const ResultKey& key, const AggState& state) {
    cells[{key.query, key.window, key.group}] = state;
  });
  return cells;
}

void ExpectBitIdentical(const CellMap& expected, const CellMap& actual,
                        const char* label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (const auto& [key, state] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end())
        << label << ": missing cell query=" << std::get<0>(key)
        << " window=" << std::get<1>(key) << " group=" << std::get<2>(key);
    EXPECT_EQ(state, it->second)
        << label << ": cell differs at query=" << std::get<0>(key)
        << " window=" << std::get<1>(key) << " group=" << std::get<2>(key);
  }
}

RuntimeOptions Opts(size_t shards, size_t batch = 64, size_t queue = 8) {
  RuntimeOptions o;
  o.num_shards = shards;
  o.batch_size = batch;
  o.queue_capacity = queue;
  return o;
}

// --- determinism: taxi, uniform workload, shared plan ---------------------

TEST(ShardedRuntimeDeterminism, TaxiMatchesEngineAtAnyShardCount) {
  TaxiConfig cfg;
  cfg.num_streets = 12;
  cfg.num_vehicles = 24;
  cfg.events_per_second = 1000;
  cfg.duration = Minutes(1);
  Scenario s = GenerateTaxi(cfg);

  WorkloadGenConfig wcfg;
  wcfg.num_queries = 8;
  wcfg.pattern_length = 5;
  wcfg.cluster_size = 4;
  wcfg.window = {Seconds(30), Seconds(10)};
  wcfg.partition_attr = 0;
  Workload w = GenerateWorkload(wcfg, cfg.num_streets);

  CostModel cm(EstimateRates(s));
  OptimizerConfig ocfg;
  ocfg.expand = false;
  OptimizerResult opt = OptimizeSharon(w, cm, ocfg);

  Engine reference(w, opt.plan);
  ASSERT_TRUE(reference.ok()) << reference.error();
  reference.Run(s.events, s.duration);
  CellMap expected = CellsOf(reference.results());
  ASSERT_FALSE(expected.empty());

  for (size_t shards : {1u, 2u, 8u}) {
    ShardedRuntime rt(w, opt.plan, Opts(shards));
    ASSERT_TRUE(rt.ok()) << rt.error();
    rt.Run(s.events, s.duration);
    ExpectBitIdentical(expected, CellsOf(rt),
                       ("taxi shards=" + std::to_string(shards)).c_str());
  }
}

// --- determinism: e-commerce, non-uniform workload (MultiEngine) ----------

TEST(ShardedRuntimeDeterminism, EcommerceMultiWindowMatchesMultiEngine) {
  EcommerceConfig cfg;
  cfg.num_items = 20;
  cfg.num_customers = 12;
  cfg.events_per_second = 800;
  cfg.duration = Minutes(2);
  Scenario s = GenerateEcommerce(cfg);

  // Different windows and aggregates, one common grouping attribute.
  Workload w;
  for (const char* text : {
           "RETURN COUNT(*) PATTERN SEQ(Laptop, Case) WHERE [customer] "
           "WITHIN 1 min SLIDE 20 sec",
           "RETURN COUNT(*) PATTERN SEQ(Laptop, Case, Adapter) "
           "WHERE [customer] WITHIN 1 min SLIDE 20 sec",
           "RETURN SUM(Case.price) PATTERN SEQ(Laptop, Case) "
           "WHERE [customer] WITHIN 2 min SLIDE 30 sec",
           "RETURN MAX(iPhone.price) PATTERN SEQ(iPhone, ScreenProtector) "
           "WHERE [customer] WITHIN 2 min SLIDE 30 sec",
       }) {
    ParseResult parsed = ParseQuery(text, s.types, s.schema);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    w.Add(parsed.query);
  }

  CostModel cm(EstimateRates(s));
  auto plan = PlanMultiEngine(w, cm);
  ASSERT_TRUE(plan->ok()) << plan->error;

  MultiEngine reference(plan);
  ASSERT_TRUE(reference.ok()) << reference.error();
  for (const Event& e : s.events) reference.OnEvent(e);

  // Enumerate reference cells with original query ids.
  CellMap expected;
  for (size_t seg = 0; seg < reference.engines().size(); ++seg) {
    const auto& originals = plan->segments[seg].original_ids;
    reference.engines()[seg]->results().ForEachCell(
        [&](const ResultKey& key, const AggState& state) {
          expected[{originals.at(key.query), key.window, key.group}] = state;
        });
  }
  ASSERT_FALSE(expected.empty());

  for (size_t shards : {1u, 2u, 8u}) {
    ShardedRuntime rt(w, plan, Opts(shards));
    ASSERT_TRUE(rt.ok()) << rt.error();
    rt.Run(s.events, s.duration);
    ExpectBitIdentical(expected, CellsOf(rt),
                       ("ecommerce shards=" + std::to_string(shards)).c_str());
  }
}

// --- routing and merged lookups -------------------------------------------

TEST(ShardedRuntimeTest, ValueRoutesToOwningShard) {
  TaxiConfig cfg;
  cfg.num_vehicles = 16;
  cfg.events_per_second = 500;
  cfg.duration = Seconds(40);
  Scenario s = GenerateTaxi(cfg);

  WorkloadGenConfig wcfg;
  wcfg.num_queries = 4;
  wcfg.pattern_length = 3;
  wcfg.window = {Seconds(20), Seconds(5)};
  wcfg.partition_attr = 0;
  Workload w = GenerateWorkload(wcfg, cfg.num_streets);

  Engine reference(w);
  ASSERT_TRUE(reference.ok());
  reference.Run(s.events, s.duration);

  ShardedRuntime rt(w, SharingPlan{}, Opts(4));
  ASSERT_TRUE(rt.ok()) << rt.error();
  rt.Run(s.events, s.duration);

  reference.results().ForEachCell([&](const ResultKey& key,
                                      const AggState& state) {
    // Merged lookup agrees with the single-threaded collector...
    EXPECT_EQ(rt.Get(key.query, key.window, key.group), state);
    // ...and the cell lives on exactly the shard the partitioner names.
    const size_t owner = ShardIndexFor(key.group, rt.num_shards());
    EXPECT_EQ(rt.results().OwnerOf(key.group).index(), owner);
  });
}

// --- lifecycle, backpressure and stats ------------------------------------

TEST(ShardedRuntimeTest, IncrementalIngestMatchesRun) {
  TaxiConfig cfg;
  cfg.num_vehicles = 8;
  cfg.events_per_second = 400;
  cfg.duration = Seconds(30);
  Scenario s = GenerateTaxi(cfg);

  WorkloadGenConfig wcfg;
  wcfg.num_queries = 4;
  wcfg.pattern_length = 3;
  wcfg.window = {Seconds(10), Seconds(5)};
  wcfg.partition_attr = 0;
  Workload w = GenerateWorkload(wcfg, cfg.num_streets);

  ShardedRuntime whole(w, SharingPlan{}, Opts(2));
  ASSERT_TRUE(whole.ok());
  whole.Run(s.events, s.duration);

  ShardedRuntime incremental(w, SharingPlan{}, Opts(2));
  ASSERT_TRUE(incremental.ok());
  incremental.Start();
  for (const Event& e : s.events) incremental.Ingest(e);
  incremental.Finish();

  ExpectBitIdentical(CellsOf(whole), CellsOf(incremental), "incremental");
}

TEST(ShardedRuntimeTest, BackpressureConservesEvents) {
  TaxiConfig cfg;
  cfg.num_vehicles = 32;
  cfg.events_per_second = 2000;
  cfg.duration = Seconds(30);
  Scenario s = GenerateTaxi(cfg);

  WorkloadGenConfig wcfg;
  wcfg.num_queries = 4;
  wcfg.pattern_length = 4;
  wcfg.window = {Seconds(10), Seconds(5)};
  wcfg.partition_attr = 0;
  Workload w = GenerateWorkload(wcfg, cfg.num_streets);

  // Tiny queues and batches force the producer through the stall path.
  ShardedRuntime rt(w, SharingPlan{}, Opts(4, /*batch=*/8, /*queue=*/2));
  ASSERT_TRUE(rt.ok());
  rt.Run(s.events, s.duration);

  RuntimeStats stats = rt.stats();
  ASSERT_EQ(stats.shards.size(), 4u);
  EXPECT_EQ(stats.events_ingested, s.events.size());
  uint64_t processed = 0;
  for (const auto& shard : stats.shards) {
    processed += shard.events;
    EXPECT_LE(shard.AvgBatchOccupancy(), 8.0);
  }
  EXPECT_EQ(processed, s.events.size());
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.EventsPerSecond(), 0.0);
  EXPECT_GT(stats.AvgBatchOccupancy(), 0.0);
}

TEST(ShardedRuntimeTest, RunStatsFollowEngineConventions) {
  TaxiConfig cfg;
  cfg.num_vehicles = 8;
  cfg.events_per_second = 300;
  cfg.duration = Seconds(20);
  Scenario s = GenerateTaxi(cfg);

  WorkloadGenConfig wcfg;
  wcfg.num_queries = 5;
  wcfg.pattern_length = 3;
  wcfg.window = {Seconds(10), Seconds(5)};
  wcfg.partition_attr = 0;
  Workload w = GenerateWorkload(wcfg, cfg.num_streets);

  ShardedRuntime rt(w, SharingPlan{}, Opts(2));
  ASSERT_TRUE(rt.ok());
  RunStats stats = rt.Run(s.events, s.duration);
  // Engine::Run convention: each event counts once per query.
  EXPECT_EQ(stats.events_processed, s.events.size() * w.size());
  EXPECT_EQ(stats.results_emitted, rt.results().NumCells());
  EXPECT_GT(stats.peak_state_bytes, 0u);
}

// --- invalid configurations ------------------------------------------------

TEST(ShardedRuntimeTest, RejectsMixedPartitionAttributes) {
  EcommerceConfig cfg;
  cfg.duration = Seconds(10);
  Scenario s = GenerateEcommerce(cfg);

  Workload w;
  for (const char* text : {
           "RETURN COUNT(*) PATTERN SEQ(Laptop, Case) WHERE [customer] "
           "WITHIN 1 min SLIDE 20 sec",
           // No grouping clause: partitions by kNoAttr, not [customer].
           "RETURN COUNT(*) PATTERN SEQ(Laptop, Case) "
           "WITHIN 1 min SLIDE 20 sec",
       }) {
    ParseResult parsed = ParseQuery(text, s.types, s.schema);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    w.Add(parsed.query);
  }

  CostModel cm(EstimateRates(s));
  ShardedRuntime rt(w, cm);
  EXPECT_FALSE(rt.ok());
  EXPECT_NE(rt.error().find("grouping attribute"), std::string::npos)
      << rt.error();
}

TEST(ShardedRuntimeTest, RejectsEmptyWorkload) {
  Workload w;
  ShardedRuntime rt(w, SharingPlan{});
  EXPECT_FALSE(rt.ok());
  // Ingest/Run and the result surface on a failed runtime must be safe
  // no-ops, not UB.
  Event e;
  e.type = 0;
  e.time = 1;
  rt.Ingest(e);
  RunStats stats = rt.Run({e}, 10);
  EXPECT_EQ(stats.events_processed, 0u);
  EXPECT_EQ(rt.Get(0, 0, 0), AggState::Zero());
  EXPECT_EQ(rt.Value(0, 0, 0, AggFunction::kCountStar), 0.0);
  EXPECT_EQ(rt.results().NumCells(), 0u);
  rt.results().ForEachCell([](const ResultKey&, const AggState&) {
    FAIL() << "failed runtime must expose no cells";
  });
}

TEST(ShardedRuntimeTest, RuntimeIsSingleUse) {
  TaxiConfig cfg;
  cfg.num_vehicles = 8;
  cfg.events_per_second = 200;
  cfg.duration = Seconds(10);
  Scenario s = GenerateTaxi(cfg);

  WorkloadGenConfig wcfg;
  wcfg.num_queries = 3;
  wcfg.pattern_length = 3;
  wcfg.window = {Seconds(5), Seconds(5)};
  wcfg.partition_attr = 0;
  Workload w = GenerateWorkload(wcfg, cfg.num_streets);

  ShardedRuntime rt(w, SharingPlan{}, Opts(2));
  ASSERT_TRUE(rt.ok());
  rt.Run(s.events, s.duration);
  const size_t cells = rt.results().NumCells();
  const uint64_t ingested = rt.stats().events_ingested;

  // After Finish() the workers are gone: further ingestion must neither
  // hang on a full queue nor disturb the first run's results.
  for (int round = 0; round < 3; ++round) {
    RunStats again = rt.Run(s.events, s.duration);
    EXPECT_EQ(again.events_processed, 0u);
  }
  for (const Event& e : s.events) rt.Ingest(e);
  EXPECT_EQ(rt.results().NumCells(), cells);
  EXPECT_EQ(rt.stats().events_ingested, ingested);
}

TEST(ShardedRuntimeTest, SurfacesCompileErrors) {
  // A plan candidate not contained in the query is a compile error.
  Workload w;
  Query q;
  q.pattern = Pattern({0, 1});
  q.agg = AggSpec::CountStar();
  q.window = {100, 10};
  q.partition_attr = 0;
  w.Add(q);
  Candidate bad;
  bad.pattern = Pattern({2, 3});
  bad.queries = {0};
  ShardedRuntime rt(w, SharingPlan{bad});
  EXPECT_FALSE(rt.ok());
  EXPECT_FALSE(rt.error().empty());
}

// --- punctuations and control markers end their batch ---------------------
//
// Batches here are far larger than anything ingested, so only the cut
// itself can push a batch: a punctuation or marker left in the producer's
// pending batch until it fills never reaches the workers, and the polls
// below time out.

/// Polls `done` every millisecond until it holds or `seconds` elapse.
template <typename Pred>
bool WaitUntil(Pred done, double seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

struct CutCase {
  Scenario stream;
  Workload workload;
};

CutCase MakeCutCase() {
  TaxiConfig cfg;
  cfg.num_vehicles = 8;
  cfg.events_per_second = 200;
  cfg.duration = Seconds(20);
  CutCase c;
  c.stream = GenerateTaxi(cfg);
  WorkloadGenConfig wcfg;
  wcfg.num_queries = 3;
  wcfg.pattern_length = 3;
  wcfg.window = {Seconds(4), Seconds(2)};
  wcfg.partition_attr = 0;
  c.workload = GenerateWorkload(wcfg, cfg.num_streets);
  return c;
}

RuntimeOptions CutOpts() {
  RuntimeOptions o = Opts(2, /*batch=*/1024, /*queue=*/4);
  o.disorder.enabled = true;
  o.disorder.max_lateness = Seconds(1);
  return o;
}

TEST(PunctuationCut, WatermarkReachesEveryShardWithoutFlush) {
  const CutCase c = MakeCutCase();
  ShardedRuntime rt(c.workload, SharingPlan{}, CutOpts());
  ASSERT_TRUE(rt.ok()) << rt.error();
  rt.Start();
  for (size_t i = 0; i < 50; ++i) rt.Ingest(c.stream.events[i]);
  const Timestamp t = c.stream.events[49].time;
  rt.IngestWatermark(t);
  // No Flush, no further Ingest, no Finish: the call alone delivers it.
  EXPECT_TRUE(WaitUntil(
      [&] {
        return rt.shard_for_test(0).watermark() == t &&
               rt.shard_for_test(1).watermark() == t;
      },
      10))
      << "the punctuation is still in the producer's pending batch";
  rt.Finish();
}

TEST(PunctuationCut, AsyncCheckpointCompletesWithoutFlush) {
  const CutCase c = MakeCutCase();
  ShardedRuntime rt(c.workload, SharingPlan{}, CutOpts());
  ASSERT_TRUE(rt.ok()) << rt.error();
  const std::string dir = ::testing::TempDir() + "sharon_cut_checkpoint_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  rt.Start();
  for (size_t i = 0; i < 50; ++i) rt.Ingest(c.stream.events[i]);
  const ShardedRuntime::CheckpointRequest req = rt.RequestCheckpoint(dir);
  ASSERT_TRUE(req.accepted) << req.reason;
  EXPECT_TRUE(WaitUntil([&] { return !rt.CheckpointInFlight(); }, 10))
      << "the checkpoint marker is still in the producer's pending batch";
  rt.Finish();
  EXPECT_TRUE(rt.last_checkpoint().ok) << rt.last_checkpoint().reason;
  EXPECT_EQ(rt.last_checkpoint().id, req.id);
  std::filesystem::remove_all(dir);
}

TEST(PunctuationCut, EveryPunctuationEndsItsBatchAndBuffersRecycle) {
  const CutCase c = MakeCutCase();
  DisorderConfig inj;
  inj.max_lateness = Seconds(1);
  inj.punctuation_period = Seconds(1);
  const std::vector<Event> arrivals = InjectDisorder(c.stream.events, inj);
  const RuntimeOptions opts = CutOpts();
  ShardedRuntime rt(c.workload, SharingPlan{}, opts);
  ASSERT_TRUE(rt.ok()) << rt.error();
  rt.Start();
  for (const Event& e : arrivals) rt.Ingest(e);
  rt.Finish();

  const RuntimeStats stats = rt.stats();
  const runtime::IngestStats& ingest = stats.ingest[0];
  ASSERT_GE(ingest.watermarks, 10u);  // the stream's 1 s stamps + closing
  // Each punctuation ended one batch per shard, however few events that
  // batch held.
  EXPECT_GE(ingest.batches, ingest.watermarks * opts.num_shards);
  // Those partial batches ride the free ring like full ones: each channel
  // never has more than its ring plus one pending and one in-hand buffer.
  EXPECT_LE(ingest.batch_allocs, opts.num_shards * (opts.queue_capacity + 2));
  for (const runtime::ShardStats& shard : stats.shards) {
    EXPECT_EQ(shard.recycle_drops, 0u);
  }
  // Where a batch ends changes no result: still the oracle's cells.
  ExpectBitIdentical(CellsOf(ReferenceResults(c.workload, c.stream.events)),
                     CellsOf(rt), "cut batches");
}

}  // namespace
}  // namespace sharon
