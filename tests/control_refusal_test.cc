// Table-driven pin of the runtime's control-request refusals.
//
// Every control request (RequestPlanSwap, RequestCheckpoint and the
// blocking Checkpoint) is issued in every state a refusal guards. Each
// row asserts:
//  - the typed runtime::OpRefusal code the request returns, including the
//    precedence between two refusing conditions;
//  - the code's wire number, i.e. the literal `a` payload of the
//    kSwapRejected/kCheckpointRejected trace event operators decode
//    (docs/OPERATIONS.md);
//  - the refusal's telemetry: sharon_swaps_rejected_total or
//    sharon_checkpoints_rejected_total moves by exactly one, and exactly
//    one rejection trace event is emitted. Accepted rows move neither.
// kShardRefused needs a command planted on one shard's control slot; it
// is covered by AdaptiveSwap.ShardRefusalUnwindsStagedCommands.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/exec/multi_engine.h"
#include "src/runtime/sharded_runtime.h"
#include "src/streamgen/rates.h"
#include "src/streamgen/taxi.h"
#include "src/streamgen/workload_gen.h"

namespace sharon {
namespace {

using runtime::OpRefusal;
using runtime::RuntimeOptions;
using runtime::ShardedRuntime;

/// The runtime state a row issues its request in.
enum class State {
  kIdle,                ///< uniform runtime, nothing in flight
  kFailed,              ///< construction failed (empty workload)
  kFinished,            ///< Start + Finish already ran
  kMultiEngine,         ///< non-uniform runtime (MultiEngine shards)
  kMultiNoDisorder,     ///< MultiEngine shards and no disorder policy
  kNoDisorder,          ///< uniform runtime without a disorder policy
  kSwapInFlight,        ///< an accepted swap has not retired yet
  kCheckpointInFlight,  ///< an accepted checkpoint, held at shard 0's marker
};

enum class Request { kSwap, kRequestCheckpoint, kCheckpoint };

/// The request's argument: a plan for swaps, a directory for checkpoints.
enum class Arg {
  kGood,         ///< same-workload plan / fresh temp directory
  kNullPlan,     ///< null CompiledPlanHandle
  kForeignPlan,  ///< plan compiled for a workload with another window
  kBadDir,       ///< a path under a regular file (uncreatable)
};

struct Row {
  const char* name;
  State state;
  Request request;
  Arg arg;
  OpRefusal code;
  int64_t wire;  ///< the code's number as the trace payload exports it
};

void PrintTo(const Row& row, std::ostream* os) { *os << row.name; }

const Row kRows[] = {
    // Accepted baselines: nothing moves.
    {"IdleSwap", State::kIdle, Request::kSwap, Arg::kGood, OpRefusal::kNone, 0},
    {"IdleRequestCheckpoint", State::kIdle, Request::kRequestCheckpoint,
     Arg::kGood, OpRefusal::kNone, 0},
    {"IdleCheckpoint", State::kIdle, Request::kCheckpoint, Arg::kGood,
     OpRefusal::kNone, 0},
    {"MultiEngineRequestCheckpoint", State::kMultiEngine,
     Request::kRequestCheckpoint, Arg::kGood, OpRefusal::kNone, 0},
    {"MultiEngineCheckpoint", State::kMultiEngine, Request::kCheckpoint,
     Arg::kGood, OpRefusal::kNone, 0},
    // kNotRunning: failed or finished runtime.
    {"FailedSwap", State::kFailed, Request::kSwap, Arg::kGood,
     OpRefusal::kNotRunning, 1},
    {"FailedRequestCheckpoint", State::kFailed, Request::kRequestCheckpoint,
     Arg::kGood, OpRefusal::kNotRunning, 1},
    {"FailedCheckpoint", State::kFailed, Request::kCheckpoint, Arg::kGood,
     OpRefusal::kNotRunning, 1},
    {"FinishedSwap", State::kFinished, Request::kSwap, Arg::kGood,
     OpRefusal::kNotRunning, 1},
    {"FinishedRequestCheckpoint", State::kFinished,
     Request::kRequestCheckpoint, Arg::kGood, OpRefusal::kNotRunning, 1},
    {"FinishedCheckpoint", State::kFinished, Request::kCheckpoint, Arg::kGood,
     OpRefusal::kNotRunning, 1},
    // Precedence: a finished runtime outranks a null plan.
    {"FinishedNullPlanSwap", State::kFinished, Request::kSwap, Arg::kNullPlan,
     OpRefusal::kNotRunning, 1},
    // kNotUniform: swaps need Engine shards.
    {"MultiEngineSwap", State::kMultiEngine, Request::kSwap, Arg::kGood,
     OpRefusal::kNotUniform, 2},
    // Precedence: MultiEngine shards outrank a missing disorder policy.
    {"MultiEngineNoDisorderSwap", State::kMultiNoDisorder, Request::kSwap,
     Arg::kGood, OpRefusal::kNotUniform, 2},
    // kNoDisorderPolicy.
    {"NoDisorderSwap", State::kNoDisorder, Request::kSwap, Arg::kGood,
     OpRefusal::kNoDisorderPolicy, 3},
    {"NoDisorderRequestCheckpoint", State::kNoDisorder,
     Request::kRequestCheckpoint, Arg::kGood, OpRefusal::kNoDisorderPolicy, 3},
    {"NoDisorderCheckpoint", State::kNoDisorder, Request::kCheckpoint,
     Arg::kGood, OpRefusal::kNoDisorderPolicy, 3},
    // kBadPlan.
    {"NullPlanSwap", State::kIdle, Request::kSwap, Arg::kNullPlan,
     OpRefusal::kBadPlan, 5},
    {"ForeignPlanSwap", State::kIdle, Request::kSwap, Arg::kForeignPlan,
     OpRefusal::kBadPlan, 5},
    // kSwapInFlight: one control op at a time, whichever comes second.
    {"SwapInFlightSwap", State::kSwapInFlight, Request::kSwap, Arg::kGood,
     OpRefusal::kSwapInFlight, 6},
    {"SwapInFlightRequestCheckpoint", State::kSwapInFlight,
     Request::kRequestCheckpoint, Arg::kGood, OpRefusal::kSwapInFlight, 6},
    {"SwapInFlightCheckpoint", State::kSwapInFlight, Request::kCheckpoint,
     Arg::kGood, OpRefusal::kSwapInFlight, 6},
    // kCheckpointInFlight.
    {"CheckpointInFlightSwap", State::kCheckpointInFlight, Request::kSwap,
     Arg::kGood, OpRefusal::kCheckpointInFlight, 7},
    {"CheckpointInFlightRequestCheckpoint", State::kCheckpointInFlight,
     Request::kRequestCheckpoint, Arg::kGood, OpRefusal::kCheckpointInFlight,
     7},
    {"CheckpointInFlightCheckpoint", State::kCheckpointInFlight,
     Request::kCheckpoint, Arg::kGood, OpRefusal::kCheckpointInFlight, 7},
    // kIoError: the checkpoint directory cannot be created.
    {"BadDirRequestCheckpoint", State::kIdle, Request::kRequestCheckpoint,
     Arg::kBadDir, OpRefusal::kIoError, 9},
    {"BadDirCheckpoint", State::kIdle, Request::kCheckpoint, Arg::kBadDir,
     OpRefusal::kIoError, 9},
};

/// Workloads and plans every row draws from. Built in place, once per
/// process: runtimes keep pointers into the workloads.
struct Fixture {
  Fixture() {
    TaxiConfig cfg;
    cfg.num_streets = 8;
    cfg.num_vehicles = 4;
    cfg.events_per_second = 100;
    cfg.duration = Seconds(10);
    const Scenario s = GenerateTaxi(cfg);
    WorkloadGenConfig wcfg;
    wcfg.num_queries = 3;
    wcfg.pattern_length = 3;
    wcfg.cluster_size = 3;
    wcfg.window = {Seconds(8), Seconds(4)};
    wcfg.partition_attr = 0;
    workload = GenerateWorkload(wcfg, cfg.num_streets);
    wcfg.window = {Seconds(6), Seconds(3)};
    foreign = GenerateWorkload(wcfg, cfg.num_streets);
    plan = CompilePlanShared(workload, {});
    foreign_plan = CompilePlanShared(foreign, {});
    multi_plan = PlanMultiEngine(workload, CostModel(EstimateRates(s)));
  }

  Workload workload;  ///< uniform, grouped by attribute 0
  Workload foreign;   ///< same types, another window
  Workload empty;
  CompiledPlanHandle plan;          ///< A-Seq plan of `workload`
  CompiledPlanHandle foreign_plan;  ///< A-Seq plan of `foreign`
  std::shared_ptr<const MultiEnginePlan> multi_plan;  ///< of `workload`
};

const Fixture& GetFixture() {
  static const Fixture fixture;
  return fixture;
}

RuntimeOptions OptionsFor(bool disorder) {
  RuntimeOptions opts;
  opts.num_shards = 2;
  opts.disorder.enabled = disorder;
  opts.disorder.max_lateness = Seconds(2);
  opts.obs.metrics = true;
  opts.obs.trace = true;
  return opts;
}

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "sharon_control_refusal_" + tag;
}

/// A runtime in `state`; never null (a failed construction is !ok()).
std::unique_ptr<ShardedRuntime> MakeRuntime(State state,
                                            const std::string& tag) {
  const Fixture& f = GetFixture();
  std::unique_ptr<ShardedRuntime> rt;
  switch (state) {
    case State::kFailed:
      rt = std::make_unique<ShardedRuntime>(f.empty, SharingPlan{},
                                            OptionsFor(true));
      EXPECT_FALSE(rt->ok());
      return rt;
    case State::kMultiEngine:
    case State::kMultiNoDisorder:
      rt = std::make_unique<ShardedRuntime>(
          f.workload, f.multi_plan,
          OptionsFor(state == State::kMultiEngine));
      break;
    default:
      rt = std::make_unique<ShardedRuntime>(
          f.workload, SharingPlan{},
          OptionsFor(state != State::kNoDisorder));
      break;
  }
  EXPECT_TRUE(rt->ok()) << rt->error();
  if (state == State::kFinished) {
    rt->Start();
    rt->Finish();
  } else if (state == State::kSwapInFlight) {
    // No watermark past the boundary is ever ingested, so the old engines
    // never retire and the swap stays in flight until Finish.
    const ShardedRuntime::SwapRequest swap = rt->RequestPlanSwap(f.plan);
    EXPECT_TRUE(swap.accepted) << swap.reason;
  } else if (state == State::kCheckpointInFlight) {
    const std::string dir = TempPath(tag + "_pending");
    std::filesystem::remove_all(dir);
    // The request pushes its markers at once; holding shard 0 at its
    // marker keeps the checkpoint in flight until Finish releases it.
    rt->shard_for_test(0).HoldAtControlMarkerForTest(true);
    const ShardedRuntime::CheckpointRequest cp = rt->RequestCheckpoint(dir);
    EXPECT_TRUE(cp.accepted) << cp.reason;
    EXPECT_TRUE(rt->CheckpointInFlight());
  }
  return rt;
}

uint64_t CounterValue(const ShardedRuntime& rt, const std::string& name) {
  for (const auto& c : rt.TelemetrySnapshot().counters) {
    if (c.name == name) return c.value;
  }
  ADD_FAILURE() << "no counter named " << name;
  return 0;
}

std::vector<int64_t> RejectionPayloads(const ShardedRuntime& rt,
                                       obs::TraceKind kind) {
  std::vector<int64_t> out;
  for (const obs::TraceEvent& e : rt.DumpTrace()) {
    if (e.kind == kind) out.push_back(e.a);
  }
  return out;
}

class ControlRefusal : public ::testing::TestWithParam<Row> {};

TEST_P(ControlRefusal, CodeAndTelemetry) {
  const Row& row = GetParam();
  const Fixture& f = GetFixture();
  // The enum's numbering is part of the wire format.
  EXPECT_EQ(static_cast<int64_t>(row.code), row.wire);

  const std::string tag = row.name;
  std::string dir = TempPath(tag);
  std::filesystem::remove_all(dir);
  if (row.arg == Arg::kBadDir) {
    const std::string file = TempPath(tag + "_file");
    std::ofstream(file) << "not a directory";
    dir = file + "/checkpoint";
  }
  CompiledPlanHandle plan = row.arg == Arg::kNullPlan      ? nullptr
                            : row.arg == Arg::kForeignPlan ? f.foreign_plan
                                                           : f.plan;

  std::unique_ptr<ShardedRuntime> rt = MakeRuntime(row.state, tag);
  const bool swap = row.request == Request::kSwap;
  const char* counter = swap ? "sharon_swaps_rejected_total"
                             : "sharon_checkpoints_rejected_total";
  const obs::TraceKind kind = swap ? obs::TraceKind::kSwapRejected
                                   : obs::TraceKind::kCheckpointRejected;
  // A runtime that failed to construct has no telemetry hub to count in.
  const bool telemetry = rt->telemetry() != nullptr;
  EXPECT_EQ(telemetry, row.state != State::kFailed);
  const uint64_t rejected_before = telemetry ? CounterValue(*rt, counter) : 0;
  const size_t events_before = RejectionPayloads(*rt, kind).size();

  bool accepted = false;
  OpRefusal code = OpRefusal::kNone;
  switch (row.request) {
    case Request::kSwap: {
      const ShardedRuntime::SwapRequest r = rt->RequestPlanSwap(plan);
      accepted = r.accepted;
      code = r.code;
      break;
    }
    case Request::kRequestCheckpoint: {
      const ShardedRuntime::CheckpointRequest r = rt->RequestCheckpoint(dir);
      accepted = r.accepted;
      code = r.code;
      break;
    }
    case Request::kCheckpoint: {
      const ShardedRuntime::CheckpointResult r = rt->Checkpoint(dir);
      accepted = r.ok;
      code = r.code;
      break;
    }
  }
  EXPECT_EQ(accepted, row.code == OpRefusal::kNone);
  EXPECT_EQ(static_cast<int64_t>(code), row.wire);

  if (telemetry) {
    const uint64_t bumps = row.code == OpRefusal::kNone ? 0 : 1;
    EXPECT_EQ(CounterValue(*rt, counter), rejected_before + bumps);
    const std::vector<int64_t> payloads = RejectionPayloads(*rt, kind);
    EXPECT_EQ(payloads.size(), events_before + bumps);
    if (bumps && !payloads.empty()) EXPECT_EQ(payloads.back(), row.wire);
  }

  rt.reset();  // Finish seals anything still in flight before cleanup
  std::filesystem::remove_all(TempPath(tag));
  std::filesystem::remove_all(TempPath(tag + "_pending"));
  std::filesystem::remove(TempPath(tag + "_file"));
}

INSTANTIATE_TEST_SUITE_P(EveryRequestInEveryState, ControlRefusal,
                         ::testing::ValuesIn(kRows),
                         [](const ::testing::TestParamInfo<Row>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace sharon
