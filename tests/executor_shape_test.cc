// Executor-shape equivalence: a uniform workload runs the same whether
// the runtime is built from its sharing plan or from its one-segment
// MultiEnginePlan (§7.2 with a single uniform segment).
//
// Both shapes must finalize bit-identical cells (compared as IEEE-754 bit
// patterns, not with ==) and report equal rollups: watermark counters,
// live-state census, state bytes, cell count, shared counters and Run's
// peak state bytes. The matrix covers 1, 2 and 8 shards, with sorted
// input and with a bounded-disorder stream, and the cells must also agree
// across shard counts.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/exec/multi_engine.h"
#include "src/runtime/sharded_runtime.h"
#include "src/streamgen/disorder.h"
#include "src/streamgen/rates.h"
#include "src/streamgen/taxi.h"
#include "src/streamgen/workload_gen.h"

namespace sharon {
namespace {

using runtime::RuntimeOptions;
using runtime::ShardedRuntime;

/// A cell as the bit patterns of its five doubles.
using CellBits = std::tuple<uint64_t, uint64_t, uint64_t, uint64_t, uint64_t>;
using CellMap = std::map<std::tuple<QueryId, WindowId, AttrValue>, CellBits>;

CellBits BitsOf(const AggState& s) {
  return {std::bit_cast<uint64_t>(s.count), std::bit_cast<uint64_t>(s.sum),
          std::bit_cast<uint64_t>(s.target_count),
          std::bit_cast<uint64_t>(s.min), std::bit_cast<uint64_t>(s.max)};
}

/// Everything one run reports that the two shapes must agree on.
struct Outcome {
  CellMap cells;
  WatermarkStats watermarks;
  LiveState live;
  size_t estimated_bytes = 0;
  size_t num_cells = 0;
  size_t shared_counters = 0;
  size_t peak_state_bytes = 0;
};

struct Fixture {
  Workload workload;
  std::shared_ptr<const MultiEnginePlan> multi_plan;
  SharingPlan plan;  ///< the plan PlanMultiEngine chose for its one segment
  std::vector<Event> sorted;
  std::vector<Event> arrivals;  ///< disordered, with punctuations
  Duration duration = 0;
};

const Fixture& GetFixture() {
  static const Fixture fixture = [] {
    Fixture f;
    TaxiConfig cfg;
    cfg.num_streets = 8;
    cfg.num_vehicles = 10;
    cfg.events_per_second = 400;
    cfg.duration = Seconds(20);
    const Scenario s = GenerateTaxi(cfg);
    WorkloadGenConfig wcfg;
    wcfg.num_queries = 5;
    wcfg.pattern_length = 3;
    wcfg.cluster_size = 3;
    wcfg.window = {Seconds(8), Seconds(4)};
    wcfg.partition_attr = 0;
    f.workload = GenerateWorkload(wcfg, cfg.num_streets);
    OptimizerConfig ocfg;
    ocfg.expand = false;
    f.multi_plan =
        PlanMultiEngine(f.workload, CostModel(EstimateRates(s)), ocfg);
    if (f.multi_plan->ok()) f.plan = f.multi_plan->plans.front().plan;
    DisorderConfig inj;
    inj.max_lateness = Seconds(2);
    inj.punctuation_period = Seconds(1);
    inj.seed = 4242;
    f.sorted = s.events;
    f.arrivals = InjectDisorder(s.events, inj);
    f.duration = s.duration;
    return f;
  }();
  return fixture;
}

RuntimeOptions OptionsFor(size_t shards, bool disorder) {
  RuntimeOptions opts;
  opts.num_shards = shards;
  opts.batch_size = 64;
  opts.queue_capacity = 8;
  opts.disorder.enabled = disorder;
  opts.disorder.max_lateness = Seconds(2);
  return opts;
}

Outcome RunShape(ShardedRuntime& rt, const std::vector<Event>& events) {
  const Fixture& f = GetFixture();
  Outcome out;
  const RunStats run = rt.Run(events, f.duration);
  rt.results().ForEachCell([&](const ResultKey& key, const AggState& state) {
    out.cells[{key.query, key.window, key.group}] = BitsOf(state);
  });
  out.watermarks = rt.stats().Watermarks();
  out.live = rt.LiveStateSnapshot();
  out.estimated_bytes = rt.EstimatedBytes();
  out.num_cells = rt.results().NumCells();
  out.shared_counters = rt.num_shared_counters();
  out.peak_state_bytes = run.peak_state_bytes;
  return out;
}

void ExpectSameOutcome(const Outcome& a, const Outcome& b,
                       const std::string& label) {
  EXPECT_EQ(a.cells.size(), b.cells.size()) << label;
  size_t differing = 0;
  for (const auto& [key, bits] : a.cells) {
    auto it = b.cells.find(key);
    if (it == b.cells.end() || it->second != bits) ++differing;
  }
  EXPECT_EQ(differing, 0u) << label << ": cells missing or not bit-identical";

  const WatermarkStats& wa = a.watermarks;
  const WatermarkStats& wb = b.watermarks;
  EXPECT_EQ(wa.watermark, wb.watermark) << label;
  EXPECT_EQ(wa.safe_point, wb.safe_point) << label;
  EXPECT_EQ(wa.late_dropped, wb.late_dropped) << label;
  EXPECT_EQ(wa.evicted_panes, wb.evicted_panes) << label;
  EXPECT_EQ(wa.evicted_groups, wb.evicted_groups) << label;
  EXPECT_EQ(wa.finalized_windows, wb.finalized_windows) << label;
  EXPECT_EQ(wa.finalized_cells, wb.finalized_cells) << label;
  EXPECT_EQ(wa.suppressed_cells, wb.suppressed_cells) << label;
  EXPECT_EQ(wa.regressions, wb.regressions) << label;
  EXPECT_EQ(wa.buffered_peak, wb.buffered_peak) << label;

  EXPECT_EQ(a.live.groups, b.live.groups) << label;
  EXPECT_EQ(a.live.counter_starts, b.live.counter_starts) << label;
  EXPECT_EQ(a.live.snapshot_panes, b.live.snapshot_panes) << label;
  EXPECT_EQ(a.live.pending_windows, b.live.pending_windows) << label;
  EXPECT_EQ(a.live.buffered_events, b.live.buffered_events) << label;

  EXPECT_EQ(a.estimated_bytes, b.estimated_bytes) << label;
  EXPECT_EQ(a.num_cells, b.num_cells) << label;
  EXPECT_EQ(a.shared_counters, b.shared_counters) << label;
  EXPECT_EQ(a.peak_state_bytes, b.peak_state_bytes) << label;
}

class ExecutorShape : public ::testing::TestWithParam<bool> {};

TEST_P(ExecutorShape, UniformPlanAndOneSegmentPlanAgree) {
  const bool disorder = GetParam();
  const Fixture& f = GetFixture();
  ASSERT_TRUE(f.multi_plan->ok()) << f.multi_plan->error;
  ASSERT_EQ(f.multi_plan->segments.size(), 1u);
  ASSERT_FALSE(f.plan.empty()) << "the fixture needs shared counters";
  const std::vector<Event>& events = disorder ? f.arrivals : f.sorted;

  CellMap first_cells;
  for (size_t shards : {1u, 2u, 8u}) {
    const std::string label = std::string(disorder ? "disorder" : "sorted") +
                              " shards=" + std::to_string(shards);
    ShardedRuntime uniform(f.workload, f.plan, OptionsFor(shards, disorder));
    ASSERT_TRUE(uniform.ok()) << uniform.error();
    ShardedRuntime segmented(f.workload, f.multi_plan,
                             OptionsFor(shards, disorder));
    ASSERT_TRUE(segmented.ok()) << segmented.error();

    const Outcome a = RunShape(uniform, events);
    const Outcome b = RunShape(segmented, events);
    ASSERT_FALSE(a.cells.empty()) << label;
    EXPECT_GT(a.shared_counters, 0u) << label;
    if (disorder) {
      EXPECT_GT(a.watermarks.finalized_cells, 0u) << label;
    }
    ExpectSameOutcome(a, b, label);

    if (first_cells.empty()) first_cells = a.cells;
    EXPECT_TRUE(a.cells == first_cells) << label << ": differs from 1 shard";
  }
}

INSTANTIATE_TEST_SUITE_P(SortedAndDisordered, ExecutorShape,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Disordered"
                                                         : "Sorted");
                         });

}  // namespace
}  // namespace sharon
