// Differential oracle suite for adaptive re-optimization with
// watermark-aligned plan hot-swap (src/adaptive/ + src/runtime/plan_swap.h).
//
// The discipline mirrors tests/watermark_diff_test.cc: every relaxation is
// checked against an exact reference that never relaxed it. Here the
// relaxation is "the sharing plan may change mid-stream": the drift stream
// runs through the adaptive runtime (PlanManager re-optimizing and
// hot-swapping), the sorted stream runs through the independent per-window
// DP oracle (src/twostep/reference.h), and with >= 1 observed swap the
// finalized cells must be bit-identical for every (query, window, group)
// at 1/2/8 shards — a swap is allowed to change HOW cells are computed,
// never WHAT they contain.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/adaptive/plan_manager.h"
#include "src/planner/optimizer.h"
#include "src/runtime/sharded_runtime.h"
#include "src/streamgen/disorder.h"
#include "src/streamgen/drift.h"
#include "src/streamgen/rates.h"
#include "src/twostep/reference.h"

namespace sharon {
namespace {

using adaptive::PlanManager;
using adaptive::PlanManagerOptions;
using runtime::RuntimeOptions;
using runtime::ShardedRuntime;

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
                        const std::string& label) {
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

struct AdaptiveCase {
  DriftConfig config;
  Workload workload;
  std::vector<Event> events;  // sorted
  SharingPlan initial_plan;   // optimized for phase-0 rates only
  CellMap oracle;
};

AdaptiveCase MakeDriftCase(uint32_t num_phases = 2, uint64_t seed = 11) {
  AdaptiveCase c;
  c.config.num_types = 8;
  c.config.num_groups = 12;
  c.config.events_per_second = 600;
  c.config.phase_length = Seconds(20);
  c.config.num_phases = num_phases;
  c.config.seed = seed;
  Scenario s = GenerateDrift(c.config);

  const WindowSpec window{Seconds(10), Seconds(4)};  // slide ∤ length
  c.workload = DriftWorkload(c.config, window, /*anchors_per_side=*/6,
                             /*bridges=*/3);
  c.events = std::move(s.events);

  // The static planner only ever sees phase 0: its plan shares the
  // cluster that is about to go cold.
  CostModel cm(RatesOfSlice(c.events, 0, c.config.phase_length,
                            c.config.num_types));
  c.initial_plan = OptimizeGreedy(c.workload, cm).plan;
  c.oracle = CellsOf(ReferenceResults(c.workload, c.events));
  return c;
}

PlanManagerOptions FastManagerOptions() {
  PlanManagerOptions opts;
  opts.epoch = Seconds(4);
  opts.window_epochs = 2;
  opts.drift_threshold = 0.3;
  opts.hysteresis = 0.05;
  return opts;
}

/// The drift scenario must actually flip the optimal plan — otherwise the
/// whole suite would pass vacuously with zero swaps.
TEST(AdaptiveDrift, PhaseFlipChangesTheOptimalPlan) {
  AdaptiveCase c = MakeDriftCase();
  ASSERT_FALSE(c.initial_plan.empty());
  // Phase-1 rates: re-optimize with the hot cluster flipped.
  const Timestamp flip = c.config.phase_length;
  CostModel cm1(RatesOfSlice(c.events, flip, 2 * flip, c.config.num_types));
  SharingPlan fresh = OptimizeGreedy(c.workload, cm1).plan;
  EXPECT_NE(fresh, c.initial_plan);
  // And the stale plan is measurably worse under the new rates.
  EXPECT_GT(PlanScore(fresh, c.workload, cm1),
            PlanScore(c.initial_plan, c.workload, cm1));
}

void RunAdaptiveDifferentialOne(const AdaptiveCase& c,
                                const std::vector<Event>& arrivals,
                                Duration lateness, uint64_t min_swaps,
                                const PlanManagerOptions& popts, size_t shards,
                                size_t producers) {
  RuntimeOptions opts;
  opts.num_shards = shards;
  opts.ingest_partitions = producers;
  // Tight queues: ingest stays backpressure-bound, so the manager's
  // epoch clock (driven by ingested stream time) cannot run a whole
  // phase ahead of the workers. With deep queues on a small host, every
  // post-swap evaluation would find the previous swap still in flight
  // and the swap SCHEDULE — not its correctness — would degenerate.
  opts.batch_size = 32;
  opts.queue_capacity = 2;
  opts.disorder.enabled = true;
  opts.disorder.max_lateness = lateness;
  ShardedRuntime rt(c.workload, c.initial_plan, opts);
  ASSERT_TRUE(rt.ok()) << rt.error();

  const std::string label = "adaptive shards=" + std::to_string(shards) +
                            " producers=" + std::to_string(producers) +
                            " lateness=" + std::to_string(lateness);
  const WindowSpec& w = c.workload.window();

  // Multi-producer split ingest: data events round-robin across the
  // partitions, punctuations broadcast to every partition (the swap
  // markers then align per channel inside each shard). The cells must
  // come out bit-identical to the producers=1 pass of the same case.
  //
  // The swap schedule follows the stream, not the workers' pace. An
  // accepted swap's boundary is the close of the last window covering the
  // ingest high-mark (RequestPlanSwap), its old engines retire at the
  // first punctuation at or past boundary + lateness
  // (Shard::SwapWatermarkCap), and a punctuation reaches the workers with
  // its IngestWatermark call. So once every producer sent that
  // punctuation, wait for the control slots to clear: the manager's next
  // evaluation then never finds a swap in flight only because a worker
  // lagged.
  PlanManager mgr(c.workload, &rt, c.initial_plan, popts);
  rt.Start();
  size_t rr = 0;
  Timestamp high_mark = 0;
  uint64_t swaps_seen = 0;
  std::optional<Timestamp> retire_at;
  for (const Event& e : arrivals) {
    if (!IsWatermark(e)) {
      high_mark = std::max(high_mark, e.time);
      mgr.Ingest(e, rr++ % producers);
      if (mgr.stats().swaps_accepted > swaps_seen) {
        swaps_seen = mgr.stats().swaps_accepted;
        retire_at = w.WindowEnd(w.LastWindowCovering(high_mark)) + lateness;
      }
      continue;
    }
    for (size_t p = 0; p < producers; ++p) mgr.Ingest(e, p);
    if (retire_at && e.time >= *retire_at) {
      ASSERT_TRUE(WaitUntil(
          [&] {
            for (size_t i = 0; i < shards; ++i) {
              if (rt.shard_for_test(i).in_flight() !=
                  runtime::ControlKind::kNone) {
                return false;
              }
            }
            return true;
          },
          30))
          << label << ": swap " << swaps_seen << " never retired";
      retire_at.reset();
    }
  }
  rt.Finish();

  EXPECT_GE(mgr.stats().swaps_accepted, min_swaps) << label;

  // RuntimeStats reports every swap with a per-swap stall figure, and
  // every boundary sits on the workload's window-close grid.
  const runtime::RuntimeStats stats = rt.stats();
  EXPECT_EQ(stats.CompletedSwaps(), mgr.stats().swaps_accepted) << label;
  for (const runtime::PlanSwapStats& swap : stats.plan_swaps) {
    EXPECT_EQ(swap.shards_completed, shards) << label;
    EXPECT_GE(swap.max_dual_run_seconds, 0.0) << label;
    EXPECT_GT(swap.boundary, 0) << label;
    EXPECT_EQ((swap.boundary - w.length) % w.slide, 0)
        << label << ": boundary off the window-close grid";
  }

  // The heart of the suite: bit-identical finalized cells, all sealed.
  ExpectBitIdentical(c.oracle, CellsOf(rt), label);
  for (const auto& [key, state] : c.oracle) {
    EXPECT_TRUE(rt.results().Finalized(std::get<0>(key), std::get<1>(key)))
        << label;
  }
  EXPECT_EQ(stats.TotalLateDropped(), 0u) << label;
}

void RunAdaptiveDifferential(const AdaptiveCase& c, Duration lateness,
                             uint64_t min_swaps,
                             const PlanManagerOptions& popts) {
  ASSERT_FALSE(c.oracle.empty());
  DisorderConfig inj;
  inj.max_lateness = lateness;
  inj.punctuation_period = Seconds(1);
  inj.seed = 0xabadcafe + static_cast<uint64_t>(lateness);
  const std::vector<Event> arrivals = InjectDisorder(c.events, inj);

  for (size_t shards : {1u, 2u, 8u}) {
    for (size_t producers : {1u, 3u}) {
      RunAdaptiveDifferentialOne(c, arrivals, lateness, min_swaps, popts,
                                 shards, producers);
    }
  }
}

TEST(AdaptiveDrift, SortedStreamSwapMatchesOracle) {
  AdaptiveCase c = MakeDriftCase();
  RunAdaptiveDifferential(c, /*lateness=*/0, /*min_swaps=*/1,
                          FastManagerOptions());
}

TEST(AdaptiveDrift, DisorderedStreamSwapMatchesOracle) {
  AdaptiveCase c = MakeDriftCase();
  RunAdaptiveDifferential(c, /*lateness=*/Seconds(4), /*min_swaps=*/1,
                          FastManagerOptions());
}

// Repeated flips force repeated swaps; exactly-once must survive a swap
// SCHEDULE, not just a single handoff.
TEST(AdaptiveDrift, RepeatedFlipsRepeatedSwapsStayExact) {
  AdaptiveCase c = MakeDriftCase(/*num_phases=*/4, /*seed=*/23);
  RunAdaptiveDifferential(c, /*lateness=*/Seconds(2), /*min_swaps=*/2,
                          FastManagerOptions());
}

// An in-order runtime has no watermarks to drain the old engines with, so
// the swap must be refused — visibly, not silently dropped.
TEST(AdaptiveSwap, RefusedWithoutDisorderPolicy) {
  AdaptiveCase c = MakeDriftCase();
  RuntimeOptions opts;
  opts.num_shards = 2;
  ShardedRuntime rt(c.workload, c.initial_plan, opts);
  ASSERT_TRUE(rt.ok()) << rt.error();
  std::string error;
  CompiledPlanHandle handle = CompilePlanShared(c.workload, {}, &error);
  ASSERT_TRUE(handle) << error;
  ShardedRuntime::SwapRequest req = rt.RequestPlanSwap(handle);
  EXPECT_FALSE(req.accepted);
  EXPECT_NE(req.reason.find("disorder"), std::string::npos) << req.reason;
  rt.Run(c.events, 0);
  EXPECT_EQ(rt.stats().CompletedSwaps(), 0u);
}

// A second swap while one is in flight is refused (one handoff at a time);
// the refusal is the signal PlanManager uses to retry next epoch.
TEST(AdaptiveSwap, SecondSwapWhileInFlightIsRefused) {
  AdaptiveCase c = MakeDriftCase();
  RuntimeOptions opts;
  opts.num_shards = 2;
  opts.disorder.enabled = true;
  opts.disorder.max_lateness = Seconds(1);
  ShardedRuntime rt(c.workload, c.initial_plan, opts);
  ASSERT_TRUE(rt.ok()) << rt.error();
  std::string error;
  CompiledPlanHandle handle = CompilePlanShared(c.workload, {}, &error);
  ASSERT_TRUE(handle) << error;

  rt.Start();
  // Ingest a prefix so the boundary is meaningful, then request twice
  // back-to-back: the shards cannot have retired the first swap yet
  // because no watermark past its boundary has been broadcast.
  for (size_t i = 0; i < 1000 && i < c.events.size(); ++i) {
    rt.Ingest(c.events[i]);
  }
  ShardedRuntime::SwapRequest first = rt.RequestPlanSwap(handle);
  ASSERT_TRUE(first.accepted) << first.reason;
  ShardedRuntime::SwapRequest second = rt.RequestPlanSwap(handle);
  EXPECT_FALSE(second.accepted);
  EXPECT_NE(second.reason.find("in flight"), std::string::npos)
      << second.reason;
  for (size_t i = 1000; i < c.events.size(); ++i) rt.Ingest(c.events[i]);
  rt.Finish();
  // The accepted swap completed on every shard and results stay exact.
  ASSERT_EQ(rt.stats().CompletedSwaps(), 1u);
  ExpectBitIdentical(c.oracle, CellsOf(rt), "in-flight refusal");
}

// Regression for the partial-stage unwind in RequestPlanSwap: when a late
// shard refuses the staged command, the runtime must cancel the commands
// already pushed to the earlier shards — a missed cancel leaves a shard
// with swap_in_flight permanently set (its marker is never broadcast) and
// every later control operation refused forever. The soak harness flushes
// this class of bug only probabilistically; this pins it deterministically
// by planting a bare checkpoint command on the LAST shard so that shard —
// and only that shard — refuses the swap.
TEST(AdaptiveSwap, ShardRefusalUnwindsStagedCommands) {
  AdaptiveCase c = MakeDriftCase();
  RuntimeOptions opts;
  opts.num_shards = 3;
  opts.disorder.enabled = true;
  opts.disorder.max_lateness = Seconds(1);
  ShardedRuntime rt(c.workload, c.initial_plan, opts);
  ASSERT_TRUE(rt.ok()) << rt.error();
  std::string error;
  CompiledPlanHandle handle = CompilePlanShared(c.workload, {}, &error);
  ASSERT_TRUE(handle) << error;

  rt.Start();
  for (size_t i = 0; i < 1000 && i < c.events.size(); ++i) {
    rt.Ingest(c.events[i]);
  }
  // Plant a checkpoint command directly on the last shard (no marker, no
  // runtime-level job): shards 0 and 1 will accept the swap command, the
  // last will refuse it because its control slot is taken.
  const size_t last = opts.num_shards - 1;
  runtime::ControlCommand planted;
  planted.kind = runtime::ControlKind::kCheckpoint;
  planted.id = 1;
  planted.num_shards = opts.num_shards;
  planted.dir = ::testing::TempDir();
  ASSERT_TRUE(rt.shard_for_test(last).Stage(planted));

  const ShardedRuntime::SwapRequest refused = rt.RequestPlanSwap(handle);
  EXPECT_FALSE(refused.accepted);
  EXPECT_EQ(refused.code, runtime::OpRefusal::kShardRefused);
  // The unwind must leave NO shard armed: the staged commands of the
  // earlier shards were cancelled before any marker was broadcast.
  for (size_t i = 0; i < opts.num_shards; ++i) {
    EXPECT_FALSE(rt.shard_for_test(i).swap_in_flight()) << "shard " << i;
  }

  // Un-plant the checkpoint; the very next swap must go through and the
  // stream must stay exact end to end.
  rt.shard_for_test(last).Unstage();
  const ShardedRuntime::SwapRequest accepted = rt.RequestPlanSwap(handle);
  ASSERT_TRUE(accepted.accepted) << accepted.reason;
  for (size_t i = 1000; i < c.events.size(); ++i) rt.Ingest(c.events[i]);
  rt.Finish();
  EXPECT_EQ(rt.stats().CompletedSwaps(), 1u);
  ExpectBitIdentical(c.oracle, CellsOf(rt), "post-unwind swap");
}

// The swap rejects a plan compiled for a different workload outright.
TEST(AdaptiveSwap, RefusesForeignPlan) {
  AdaptiveCase c = MakeDriftCase();
  RuntimeOptions opts;
  opts.num_shards = 2;
  opts.disorder.enabled = true;
  ShardedRuntime rt(c.workload, c.initial_plan, opts);
  ASSERT_TRUE(rt.ok()) << rt.error();

  Workload other;
  Query q;
  q.pattern = Pattern({0, 1});
  q.agg = AggSpec::CountStar();
  q.window = {Seconds(3), Seconds(3)};  // different window grid
  q.partition_attr = 0;
  other.Add(q);
  std::string error;
  CompiledPlanHandle foreign = CompilePlanShared(other, {}, &error);
  ASSERT_TRUE(foreign) << error;
  ShardedRuntime::SwapRequest req = rt.RequestPlanSwap(foreign);
  EXPECT_FALSE(req.accepted);
  EXPECT_NE(req.reason.find("different workload"), std::string::npos)
      << req.reason;
}

}  // namespace
}  // namespace sharon
