// Unit and refusal-path coverage for live query churn
// (src/query/registration.h + adaptive::PlanManager integration):
//  - the typed ChurnRefusal table (unknown id, double retire, re-register
//    of a live id, last-active retire, non-uniform query, bad query),
//  - interval bookkeeping: CommitPending opens/closes live intervals,
//    reactivation opens a SECOND interval, OwnsWindowClose honours the
//    (from, until] window-close ownership rule,
//  - churn ops queued while a plan swap / checkpoint is in flight defer
//    with the typed runtime OpRefusal, commit on a later watermark retry,
//    and leak no shard swap_in_flight,
//  - churn plans at the monitor's current rates, and a churn plan made at
//    zero rates before the first full rate window is evaluated there,
//  - a retired id's frozen result surface survives a checkpoint/restore
//    cycle into a DIFFERENT shard count.
// The randomized differential matrix lives in query_churn_diff_test.cc.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "src/adaptive/plan_manager.h"
#include "src/query/registration.h"
#include "src/runtime/sharded_runtime.h"
#include "src/streamgen/disorder.h"
#include "src/streamgen/rates.h"
#include "src/streamgen/taxi.h"
#include "src/streamgen/workload_gen.h"
#include "src/twostep/reference.h"

namespace sharon {
namespace {

using adaptive::PlanManager;
using adaptive::PlanManagerOptions;
using query::ChurnRefusal;
using query::ChurnResult;
using query::QueryRegistry;
using runtime::ControlKind;
using runtime::OpRefusal;
using runtime::RuntimeOptions;
using runtime::ShardedRuntime;

using CellMap = std::map<std::tuple<QueryId, WindowId, AttrValue>, AggState>;

const WindowSpec kWindow{Seconds(8), Seconds(4)};

Query UniformQuery(std::vector<EventTypeId> types) {
  Query q;
  q.pattern = Pattern(std::move(types));
  q.agg = AggSpec::CountStar();
  q.window = kWindow;
  q.partition_attr = 0;
  return q;
}

Workload TwoQueryWorkload() {
  Workload w;
  w.Add(UniformQuery({0, 1}));
  w.Add(UniformQuery({1, 2}));
  return w;
}

// --- the typed refusal table -------------------------------------------------

TEST(ChurnRefusals, UnknownIdRetire) {
  Workload w = TwoQueryWorkload();
  QueryRegistry reg(&w);
  const ChurnResult r = reg.Retire(99);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.code, ChurnRefusal::kUnknownQuery);
  EXPECT_STREQ(ChurnRefusalName(r.code), "unknown_query");
  EXPECT_TRUE(reg.pending().empty());
}

TEST(ChurnRefusals, DoubleRetireIsNotLive) {
  Workload w = TwoQueryWorkload();
  QueryRegistry reg(&w);
  ASSERT_TRUE(reg.Retire(0).accepted);
  const ChurnResult r = reg.Retire(0);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.code, ChurnRefusal::kNotLive);
  EXPECT_EQ(reg.pending().size(), 1u);  // the first retire stays queued
}

TEST(ChurnRefusals, ReRegisterOfLiveIdIsAlreadyLive) {
  Workload w = TwoQueryWorkload();
  QueryRegistry reg(&w);
  const ChurnResult r = reg.Reactivate(1);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.code, ChurnRefusal::kAlreadyLive);
}

TEST(ChurnRefusals, LastActiveQueryCannotRetire) {
  Workload w = TwoQueryWorkload();
  QueryRegistry reg(&w);
  ASSERT_TRUE(reg.Retire(0).accepted);
  const ChurnResult r = reg.Retire(1);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.code, ChurnRefusal::kLastActiveQuery);
  EXPECT_TRUE(reg.live(1));
}

TEST(ChurnRefusals, NonUniformRegister) {
  Workload w = TwoQueryWorkload();
  QueryRegistry reg(&w);
  Query q = UniformQuery({2, 0});
  q.window = {Seconds(6), Seconds(3)};  // off the workload's common grid
  const ChurnResult r = reg.Register(q);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.code, ChurnRefusal::kNotUniform);
  EXPECT_EQ(w.size(), 2u);  // nothing was appended

  Query p = UniformQuery({2, 0});
  p.partition_attr = kNoAttr;  // partitioning differs too
  const ChurnResult r2 = reg.Register(p);
  EXPECT_FALSE(r2.accepted);
  EXPECT_EQ(r2.code, ChurnRefusal::kNotUniform);
}

TEST(ChurnRefusals, EmptyPatternIsBadQuery) {
  Workload w = TwoQueryWorkload();
  QueryRegistry reg(&w);
  Query q = UniformQuery({});
  const ChurnResult r = reg.Register(q);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.code, ChurnRefusal::kBadQuery);
}

TEST(ChurnRefusals, ManagerWithoutRegistryIsBadQuery) {
  Workload w = TwoQueryWorkload();
  PlanManager mgr(w, nullptr, {}, {});
  const ChurnResult r = mgr.RegisterQuery(UniformQuery({2, 0}));
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.code, ChurnRefusal::kBadQuery);
  EXPECT_FALSE(mgr.RetireQuery(0).accepted);
  EXPECT_FALSE(mgr.ReactivateQuery(0).accepted);
}

// --- interval bookkeeping ----------------------------------------------------

TEST(ChurnIntervals, CommitOpensAndClosesIntervals) {
  Workload w = TwoQueryWorkload();
  QueryRegistry reg(&w);

  // Construction-time queries are live since stream start.
  ASSERT_EQ(reg.intervals(0).size(), 1u);
  EXPECT_EQ(reg.intervals(0)[0].from, 0);
  EXPECT_EQ(reg.intervals(0)[0].until, kWatermarkMax);

  // Retire 0, register a new query; both commit at boundary 16.
  ASSERT_TRUE(reg.Retire(0).accepted);
  const ChurnResult add = reg.Register(UniformQuery({2, 0}));
  ASSERT_TRUE(add.accepted);
  EXPECT_EQ(add.id, 2u);
  EXPECT_EQ(reg.pending().size(), 2u);
  reg.CommitPending(16);
  EXPECT_TRUE(reg.pending().empty());
  EXPECT_EQ(reg.registrations(), 1u);
  EXPECT_EQ(reg.retirements(), 1u);

  // (from, until]: the retired id owns closes <= 16, the new id > 16.
  EXPECT_TRUE(reg.OwnsWindowClose(0, 16));
  EXPECT_FALSE(reg.OwnsWindowClose(0, 17));
  EXPECT_FALSE(reg.OwnsWindowClose(2, 16));
  EXPECT_TRUE(reg.OwnsWindowClose(2, 17));
  // The untouched id owns everything.
  EXPECT_TRUE(reg.OwnsWindowClose(1, 1));
  EXPECT_TRUE(reg.OwnsWindowClose(1, 1'000'000));
  // No id owns a close at stream start (from is exclusive).
  EXPECT_FALSE(reg.OwnsWindowClose(2, 0));

  // Reactivation opens a SECOND interval.
  ASSERT_TRUE(reg.Reactivate(0).accepted);
  reg.CommitPending(40);
  ASSERT_EQ(reg.intervals(0).size(), 2u);
  EXPECT_TRUE(reg.OwnsWindowClose(0, 12));    // first incarnation
  EXPECT_FALSE(reg.OwnsWindowClose(0, 30));   // the gap
  EXPECT_TRUE(reg.OwnsWindowClose(0, 44));    // second incarnation
}

TEST(ChurnIntervals, RegisterThenRetireBeforeCommitIsEmptySurface) {
  Workload w = TwoQueryWorkload();
  QueryRegistry reg(&w);
  const ChurnResult add = reg.Register(UniformQuery({2, 1}));
  ASSERT_TRUE(add.accepted);
  ASSERT_TRUE(reg.Retire(add.id).accepted);
  reg.CommitPending(20);
  // Opened and closed at the same boundary: the id owns nothing, ever.
  EXPECT_FALSE(reg.OwnsWindowClose(add.id, 20));
  EXPECT_FALSE(reg.OwnsWindowClose(add.id, 21));
  EXPECT_FALSE(reg.live(add.id));
}

// --- lifecycle against a running runtime ------------------------------------

struct ChurnFixture {
  Workload workload;
  SharingPlan plan;
  std::vector<Event> arrivals;  // disordered, with punctuations
  std::vector<Event> sorted;
};

ChurnFixture MakeFixture(Duration duration = Seconds(20)) {
  ChurnFixture f;
  TaxiConfig cfg;
  cfg.num_streets = 8;
  cfg.num_vehicles = 10;
  cfg.events_per_second = 400;
  cfg.duration = duration;
  Scenario s = GenerateTaxi(cfg);

  WorkloadGenConfig wcfg;
  wcfg.num_queries = 5;
  wcfg.pattern_length = 3;
  wcfg.cluster_size = 3;
  wcfg.window = kWindow;
  wcfg.partition_attr = 0;
  f.workload = GenerateWorkload(wcfg, cfg.num_streets);

  CostModel cm(EstimateRates(s));
  OptimizerConfig ocfg;
  ocfg.expand = false;
  f.plan = OptimizeSharon(f.workload, cm, ocfg).plan;

  DisorderConfig inj;
  inj.max_lateness = Seconds(2);
  inj.punctuation_period = Seconds(1);
  inj.seed = 4242;
  f.sorted = s.events;
  f.arrivals = InjectDisorder(s.events, inj);
  return f;
}

RuntimeOptions FixtureOptions(size_t shards) {
  RuntimeOptions opts;
  opts.num_shards = shards;
  opts.batch_size = 64;
  opts.queue_capacity = 8;
  opts.disorder.enabled = true;
  opts.disorder.max_lateness = Seconds(2);
  return opts;
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

/// A churn query guaranteed valid for the fixture workload: a sub-pattern
/// of an existing query reversed (same type universe, same window).
Query FixtureChurnQuery(const Workload& w) {
  const Pattern& base = w.query(0).pattern;
  std::vector<EventTypeId> types = {base.type(1), base.type(0)};
  return UniformQuery(std::move(types));
}

// A churn op queued while a plan swap drains defers with the typed
// kSwapInFlight refusal, commits on a later watermark retry, and leaks
// no shard swap_in_flight.
TEST(ChurnLifecycle, DeferredDuringInFlightSwap) {
  ChurnFixture f = MakeFixture();
  ShardedRuntime rt(f.workload, f.plan, FixtureOptions(2));
  ASSERT_TRUE(rt.ok()) << rt.error();
  PlanManager mgr(f.workload, &rt, f.plan, {});
  QueryRegistry reg(&f.workload);
  mgr.AttachRegistry(&reg);
  std::string error;
  CompiledPlanHandle handle = CompilePlanShared(f.workload, {}, &error);
  ASSERT_TRUE(handle) << error;

  rt.Start();
  for (size_t i = 0; i < 1000; ++i) mgr.Ingest(f.arrivals[i]);
  // Occupy the swap slot directly; no watermark past its boundary has
  // been broadcast, so it stays in flight deterministically.
  const ShardedRuntime::SwapRequest direct = rt.RequestPlanSwap(handle);
  ASSERT_TRUE(direct.accepted) << direct.reason;

  const ChurnResult r = mgr.RegisterQuery(FixtureChurnQuery(f.workload));
  ASSERT_TRUE(r.accepted) << r.reason;
  EXPECT_EQ(mgr.pending_churn(), 1u);
  EXPECT_FALSE(mgr.last_churn_swap().accepted);
  EXPECT_EQ(mgr.last_churn_swap().code, OpRefusal::kSwapInFlight);
  EXPECT_GE(mgr.stats().churn_swap_retries, 1u);
  EXPECT_TRUE(reg.live(r.id));                // desired state flipped now
  EXPECT_TRUE(reg.intervals(r.id).empty());   // but nothing committed yet

  // Watermark punctuations drive the retries; once the direct swap
  // retires on every shard the churn swap lands.
  for (size_t i = 1000; i < f.arrivals.size(); ++i) mgr.Ingest(f.arrivals[i]);
  rt.Finish();

  EXPECT_EQ(mgr.pending_churn(), 0u);
  EXPECT_GE(mgr.stats().churn_swaps, 1u);
  ASSERT_EQ(reg.intervals(r.id).size(), 1u);
  EXPECT_EQ(reg.intervals(r.id)[0].until, kWatermarkMax);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(rt.shard_for_test(i).swap_in_flight()) << "shard " << i;
  }
}

// Same deferral discipline against an in-flight checkpoint: typed
// kCheckpointInFlight, later commit, checkpoint still seals.
TEST(ChurnLifecycle, DeferredDuringInFlightCheckpoint) {
  ChurnFixture f = MakeFixture();
  ShardedRuntime rt(f.workload, f.plan, FixtureOptions(2));
  ASSERT_TRUE(rt.ok()) << rt.error();
  PlanManager mgr(f.workload, &rt, f.plan, {});
  QueryRegistry reg(&f.workload);
  mgr.AttachRegistry(&reg);

  rt.Start();
  for (size_t i = 0; i < 1000; ++i) mgr.Ingest(f.arrivals[i]);
  const std::string dir =
      ::testing::TempDir() + "sharon_churn_ckpt_inflight";
  std::filesystem::remove_all(dir);
  // Async request: its markers leave with it, so shard 0 is held at its
  // marker to keep the checkpoint in flight while the churn op is queued.
  rt.shard_for_test(0).HoldAtControlMarkerForTest(true);
  const ShardedRuntime::CheckpointRequest req = rt.RequestCheckpoint(dir);
  ASSERT_TRUE(req.accepted) << req.reason;
  ASSERT_TRUE(rt.CheckpointInFlight());

  const ChurnResult r = mgr.RegisterQuery(FixtureChurnQuery(f.workload));
  ASSERT_TRUE(r.accepted) << r.reason;
  EXPECT_EQ(mgr.pending_churn(), 1u);
  EXPECT_FALSE(mgr.last_churn_swap().accepted);
  EXPECT_EQ(mgr.last_churn_swap().code, OpRefusal::kCheckpointInFlight);
  rt.shard_for_test(0).HoldAtControlMarkerForTest(false);

  for (size_t i = 1000; i < f.arrivals.size(); ++i) mgr.Ingest(f.arrivals[i]);
  rt.Finish();

  EXPECT_EQ(mgr.pending_churn(), 0u);
  EXPECT_GE(mgr.stats().churn_swaps, 1u);
  EXPECT_TRUE(rt.last_checkpoint().ok) << rt.last_checkpoint().reason;
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_FALSE(rt.shard_for_test(i).swap_in_flight()) << "shard " << i;
  }
  std::filesystem::remove_all(dir);
}

// Churn re-plans with the drift rule at the rates measured when the call
// arrives. A register before the monitor's first full window plans at
// zero rates and shares nothing; a retire once rates are known must not
// stay pinned to those zero rates. An infinite hysteresis makes every
// evaluation hold (the first full window's evaluation of the zero-rate
// plan included, see FirstFullWindowReplansZeroRateChurnPlan), so no
// drift swap intervenes and the retire's churn swap alone installs the
// plan that Reoptimize gives at the monitor's rates.
TEST(ChurnLifecycle, LaterChurnReplansAtCurrentRates) {
  ChurnFixture f = MakeFixture(Seconds(60));
  ShardedRuntime rt(f.workload, f.plan, FixtureOptions(2));
  ASSERT_TRUE(rt.ok()) << rt.error();
  PlanManagerOptions popts;
  popts.hysteresis = std::numeric_limits<double>::infinity();
  PlanManager mgr(f.workload, &rt, f.plan, popts);
  QueryRegistry reg(&f.workload);
  mgr.AttachRegistry(&reg);

  rt.Start();
  size_t i = 0;
  auto ingest_before = [&](Timestamp t) {
    for (; i < f.arrivals.size() && f.arrivals[i].time < t; ++i) {
      mgr.Ingest(f.arrivals[i]);
    }
  };
  ingest_before(Seconds(2));
  ASSERT_LT(mgr.monitor().epochs_closed(), popts.window_epochs);
  const ChurnResult add = mgr.RegisterQuery(FixtureChurnQuery(f.workload));
  ASSERT_TRUE(add.accepted) << add.reason;

  ingest_before(Seconds(30));
  const ChurnResult retire = mgr.RetireQuery(add.id);
  ASSERT_TRUE(retire.accepted) << retire.reason;
  const ReoptimizeResult expected =
      Reoptimize(f.workload, CostModel(mgr.monitor().CurrentRates()),
                 mgr.current_plan(), popts.optimizer);

  for (; i < f.arrivals.size(); ++i) mgr.Ingest(f.arrivals[i]);
  rt.Finish();

  EXPECT_EQ(mgr.pending_churn(), 0u);
  ASSERT_EQ(mgr.stats().churn_swaps, 2u);
  ASSERT_EQ(mgr.stats().swaps_accepted, 0u) << "a drift swap intervened";
  EXPECT_FALSE(mgr.current_plan().empty())
      << "the retire's plan shares nothing at measured rates";
  EXPECT_EQ(mgr.current_plan(), expected.chosen.plan);
  EXPECT_GT(expected.chosen.score, 0);
}

// A register before the monitor's first full window plans at zero rates
// and shares nothing. With no later churn call, that window must evaluate
// the plan, not only rebase drift detection onto its rates: on this
// stable-rate stream no drift would ever replace it. The register's churn
// swap is still in flight when the window closes (boundary 8 s, so its old
// engines retire at watermark 10 s), so the evaluation's swap is refused
// there and lands at a later epoch.
TEST(ChurnLifecycle, FirstFullWindowReplansZeroRateChurnPlan) {
  ChurnFixture f = MakeFixture(Seconds(60));
  ShardedRuntime rt(f.workload, f.plan, FixtureOptions(2));
  ASSERT_TRUE(rt.ok()) << rt.error();
  const PlanManagerOptions popts;
  PlanManager mgr(f.workload, &rt, f.plan, popts);
  QueryRegistry reg(&f.workload);
  mgr.AttachRegistry(&reg);

  rt.Start();
  size_t i = 0;
  for (; i < f.arrivals.size() && f.arrivals[i].time < Seconds(2); ++i) {
    mgr.Ingest(f.arrivals[i]);
  }
  ASSERT_LT(mgr.monitor().epochs_closed(), popts.window_epochs);
  const ChurnResult add = mgr.RegisterQuery(FixtureChurnQuery(f.workload));
  ASSERT_TRUE(add.accepted) << add.reason;
  ASSERT_EQ(mgr.stats().churn_swaps, 1u);
  ASSERT_TRUE(mgr.current_plan().empty());

  while (i < f.arrivals.size() &&
         mgr.monitor().epochs_closed() < popts.window_epochs) {
    mgr.Ingest(f.arrivals[i++]);
  }
  EXPECT_EQ(mgr.stats().evaluations, 1u) << "the first full window did "
                                            "not evaluate the churn plan";
  while (i < f.arrivals.size() && mgr.stats().swaps_accepted == 0) {
    mgr.Ingest(f.arrivals[i++]);
  }
  ASSERT_EQ(mgr.stats().swaps_accepted, 1u);
  // The swap was requested in the last call, after the epoch that closed
  // in it, so the monitor still reports the rates it planned at.
  const ReoptimizeResult expected =
      Reoptimize(f.workload, CostModel(mgr.monitor().CurrentRates()),
                 mgr.current_plan(), popts.optimizer);
  EXPECT_FALSE(mgr.current_plan().empty());
  EXPECT_EQ(mgr.current_plan(), expected.chosen.plan);

  // Drift is measured from the swapped-in plan: nothing swaps again.
  for (; i < f.arrivals.size(); ++i) mgr.Ingest(f.arrivals[i]);
  rt.Finish();
  EXPECT_EQ(mgr.stats().swaps_accepted, 1u);
  EXPECT_EQ(mgr.stats().churn_swaps, 1u);
}

// A churn call refused before the first full window leaves its zero-rate
// plan pending. When that window's evaluation holds (here: an infinite
// hysteresis), the churn retry must not install the zero-rate plan, which
// nothing would evaluate again; it takes the held evaluation's plan, the
// same active set at the measured rates.
TEST(ChurnLifecycle, HeldFirstWindowEvaluationReplansPendingChurn) {
  ChurnFixture f = MakeFixture(Seconds(30));
  ShardedRuntime rt(f.workload, f.plan, FixtureOptions(2));
  ASSERT_TRUE(rt.ok()) << rt.error();
  PlanManagerOptions popts;
  popts.hysteresis = std::numeric_limits<double>::infinity();
  PlanManager mgr(f.workload, &rt, f.plan, popts);
  QueryRegistry reg(&f.workload);
  mgr.AttachRegistry(&reg);
  std::string error;
  CompiledPlanHandle handle = CompilePlanShared(f.workload, f.plan, &error);
  ASSERT_TRUE(handle) << error;

  rt.Start();
  size_t i = 0;
  for (; i < f.arrivals.size() && f.arrivals[i].time < Seconds(2); ++i) {
    mgr.Ingest(f.arrivals[i]);
  }
  ASSERT_LT(mgr.monitor().epochs_closed(), popts.window_epochs);
  // Occupy the swap slot with the running plan: its old engines retire
  // at watermark 10 s, after the first full window's evaluation.
  const ShardedRuntime::SwapRequest direct = rt.RequestPlanSwap(handle);
  ASSERT_TRUE(direct.accepted) << direct.reason;
  const ChurnResult add = mgr.RegisterQuery(FixtureChurnQuery(f.workload));
  ASSERT_TRUE(add.accepted) << add.reason;
  ASSERT_EQ(mgr.last_churn_swap().code, OpRefusal::kSwapInFlight);

  while (i < f.arrivals.size() && mgr.stats().evaluations == 0) {
    mgr.Ingest(f.arrivals[i++]);
  }
  ASSERT_EQ(mgr.stats().holds, 1u);
  ASSERT_EQ(mgr.pending_churn(), 1u) << "the churn swap landed first";
  const SharingPlan evaluated = mgr.last_reoptimize().chosen.plan;
  EXPECT_FALSE(evaluated.empty());

  for (; i < f.arrivals.size(); ++i) mgr.Ingest(f.arrivals[i]);
  rt.Finish();
  EXPECT_EQ(mgr.pending_churn(), 0u);
  EXPECT_EQ(mgr.stats().churn_swaps, 1u);
  EXPECT_EQ(mgr.stats().swaps_accepted, 0u);
  EXPECT_FALSE(mgr.current_plan().empty()) << "the zero-rate plan landed";
  EXPECT_EQ(mgr.current_plan(), evaluated);
}

// A retired id's frozen result surface — windows closing at or before its
// retire boundary — survives a checkpoint/restore cycle into a DIFFERENT
// shard count, and nothing past the boundary ever appears for it.
TEST(ChurnLifecycle, RetiredIdReadableAfterCheckpointRestore) {
  ChurnFixture f = MakeFixture();
  const QueryId victim = 1;
  QueryRegistry reg(&f.workload);
  SharingPlan incumbent;
  Timestamp retire_boundary = 0;
  // Per process: concurrent copies of the test binary must not delete
  // each other's checkpoint files.
  const std::string dir = ::testing::TempDir() + "sharon_churn_restore_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  size_t resume_at = 0;

  {
    ShardedRuntime rt(f.workload, f.plan, FixtureOptions(2));
    ASSERT_TRUE(rt.ok()) << rt.error();
    PlanManager mgr(f.workload, &rt, f.plan, {});
    mgr.AttachRegistry(&reg);
    rt.Start();

    const size_t churn_at = f.arrivals.size() * 2 / 5;
    for (size_t i = 0; i < churn_at; ++i) mgr.Ingest(f.arrivals[i]);
    ASSERT_TRUE(mgr.RetireQuery(victim).accepted);
    ASSERT_EQ(mgr.pending_churn(), 0u);  // committed synchronously
    ASSERT_EQ(mgr.stats().churn_swaps, 1u);
    ASSERT_EQ(reg.intervals(victim).size(), 1u);
    retire_boundary = reg.intervals(victim)[0].until;
    ASSERT_LT(retire_boundary, kWatermarkMax);

    // Checkpoint once the churn swap has retired on every shard (the
    // runtime refuses a cut mid-swap). The old engines retire at the first
    // punctuation at or past retire_boundary + max_lateness
    // (Shard::SwapWatermarkCap), and a punctuation reaches the workers
    // with its IngestWatermark call: ingest through that punctuation, then
    // wait for the workers instead of counting on their pace.
    const Timestamp retire_at =
        retire_boundary + FixtureOptions(2).disorder.max_lateness;
    size_t i = churn_at;
    for (bool retire_sent = false; !retire_sent;) {
      ASSERT_LT(i, f.arrivals.size()) << "no punctuation past " << retire_at;
      const Event& e = f.arrivals[i++];
      mgr.Ingest(e);
      retire_sent = IsWatermark(e) && e.time >= retire_at;
    }
    ASSERT_TRUE(WaitUntil(
        [&] {
          return rt.shard_for_test(0).in_flight() == ControlKind::kNone &&
                 rt.shard_for_test(1).in_flight() == ControlKind::kNone;
        },
        30))
        << "swap never retired";
    const ShardedRuntime::CheckpointResult cp = rt.Checkpoint(dir);
    ASSERT_TRUE(cp.ok) << cp.reason;
    incumbent = mgr.current_plan();
    resume_at = i;
    // First incarnation destroyed here; the archive is on disk.
  }

  ShardedRuntime::RestoreOptions ropts;
  ropts.runtime = FixtureOptions(3);  // different shard count
  ropts.workload = &f.workload;       // victim still inactive in the mask
  ropts.plan = incumbent;
  ShardedRuntime::RestoreOutcome restored = ShardedRuntime::Restore(dir, ropts);
  ASSERT_TRUE(restored.runtime) << restored.error;
  ShardedRuntime& rt = *restored.runtime;
  rt.Start();
  for (size_t i = resume_at; i < f.arrivals.size(); ++i) {
    rt.Ingest(f.arrivals[i]);
  }
  rt.Finish();

  // Oracle: full-stream reference, restricted per id to its committed
  // live intervals — for the victim, closes <= retire boundary only.
  CellMap expected;
  size_t victim_kept = 0, victim_dropped = 0;
  ReferenceResults(f.workload, f.sorted)
      .ForEachCell([&](const ResultKey& key, const AggState& state) {
        const Timestamp close = kWindow.WindowEnd(key.window);
        if (reg.OwnsWindowClose(key.query, close)) {
          expected[{key.query, key.window, key.group}] = state;
          victim_kept += key.query == victim ? 1 : 0;
        } else {
          EXPECT_EQ(key.query, victim);  // only the victim loses cells
          ++victim_dropped;
        }
      });
  ASSERT_GT(victim_kept, 0u) << "vacuous: victim never matched pre-retire";
  ASSERT_GT(victim_dropped, 0u) << "vacuous: nothing closed post-retire";

  CellMap actual;
  rt.results().ForEachCell([&](const ResultKey& key, const AggState& state) {
    actual[{key.query, key.window, key.group}] = state;
  });
  ASSERT_EQ(expected.size(), actual.size());
  for (const auto& [key, state] : expected) {
    auto it = actual.find(key);
    ASSERT_NE(it, actual.end())
        << "missing cell query=" << std::get<0>(key)
        << " window=" << std::get<1>(key) << " group=" << std::get<2>(key);
    EXPECT_EQ(state, it->second)
        << "cell differs at query=" << std::get<0>(key)
        << " window=" << std::get<1>(key);
    EXPECT_TRUE(rt.results().Finalized(std::get<0>(key), std::get<1>(key)));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sharon
