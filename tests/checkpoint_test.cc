// Unit and refusal-path coverage for the checkpoint subsystem:
//  - serde primitives (endian-stable round trips, bounds-checked reads),
//  - frame integrity (CRC detects corruption, version mismatches refuse),
//  - Checkpoint/RequestPlanSwap mutual exclusion, regression-tested in
//    BOTH orders with the typed refusal codes (runtime::OpRefusal),
//  - restore refusals: torn checkpoint (no manifest), corrupt shard file,
//    plan-fingerprint mismatch, format version 1, missing disorder policy,
//  - multi-producer acceptance: a checkpoint cut with ingest_partitions=2
//    (per-channel marker alignment) restores into a different topology,
//  - the swap rollup: suppressed cells reach the runtime's watermarks.
// The end-to-end bit-identity matrix lives in checkpoint_diff_test.cc.

#include <gtest/gtest.h>

#include <bit>
#include <filesystem>
#include <string>
#include <vector>

#include "src/adaptive/plan_manager.h"
#include "src/checkpoint/checkpoint.h"
#include "src/query/parser.h"
#include "src/runtime/sharded_runtime.h"
#include "src/streamgen/disorder.h"
#include "src/streamgen/rates.h"
#include "src/streamgen/taxi.h"
#include "src/streamgen/workload_gen.h"
#include "src/twostep/reference.h"

namespace sharon {
namespace {

using runtime::OpRefusal;
using runtime::RuntimeOptions;
using runtime::ShardedRuntime;

std::string FreshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "sharon_ckpt_unit_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(Serde, PrimitiveRoundTrip) {
  serde::BinaryWriter w;
  w.U8(0xab);
  w.U32(0xdeadbeefu);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  w.F64(-0.0);
  w.F64(1.0 / 3.0);
  w.Str("sharon");
  serde::BinaryReader r(w.buffer());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.I64(), -42);
  // Bit-identical doubles, signed zero included.
  EXPECT_EQ(std::bit_cast<uint64_t>(r.F64()), std::bit_cast<uint64_t>(-0.0));
  EXPECT_EQ(r.F64(), 1.0 / 3.0);
  EXPECT_EQ(r.Str(), "sharon");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serde, TruncatedReadFailsSticky) {
  serde::BinaryWriter w;
  w.U32(7);
  serde::BinaryReader r(w.buffer());
  EXPECT_EQ(r.U64(), 0u);  // needs 8 bytes, only 4 present
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U32(), 0u);  // sticky: nothing reads after an overrun
}

TEST(Serde, BlockRoundTripAndAttrs) {
  serde::BinaryWriter w;
  const size_t mark = w.BeginBlock();
  InlineAttrs attrs{1, -2, 3};
  serde::SaveAttrs(w, attrs);
  w.EndBlock(mark);
  w.U32(0x5a5a5a5au);  // trailing data the block must not swallow

  serde::BinaryReader r(w.buffer());
  serde::BinaryReader block = r.Block();
  InlineAttrs restored;
  serde::LoadAttrs(block, restored);
  EXPECT_TRUE(restored == attrs);
  EXPECT_EQ(r.U32(), 0x5a5a5a5au);
  EXPECT_TRUE(r.ok());
}

TEST(Frames, CrcDetectsCorruption) {
  serde::BinaryWriter payload;
  payload.Str("state bytes");
  std::vector<uint8_t> file;
  checkpoint::AppendFrame(file, checkpoint::FrameTag::kShardHeader,
                          payload.buffer());
  checkpoint::AppendFrame(file, checkpoint::FrameTag::kEnd, {});
  {
    checkpoint::FrameParser parser(file.data(), file.size());
    checkpoint::FrameTag tag;
    serde::BinaryReader r(nullptr, 0);
    EXPECT_EQ(parser.Next(&tag, &r), "");
    EXPECT_EQ(tag, checkpoint::FrameTag::kShardHeader);
    EXPECT_EQ(parser.Next(&tag, &r), "");
    EXPECT_TRUE(parser.done());
  }
  file[22] ^= 0x01;  // flip one payload bit
  checkpoint::FrameParser parser(file.data(), file.size());
  checkpoint::FrameTag tag;
  serde::BinaryReader r(nullptr, 0);
  const std::string err = parser.Next(&tag, &r);
  EXPECT_NE(err.find("CRC"), std::string::npos) << err;
}

struct CheckpointFixture {
  Workload workload;
  SharingPlan plan;
  std::vector<Event> arrivals;  // disordered, with punctuations
  std::vector<Event> sorted;
};

CheckpointFixture MakeFixture() {
  CheckpointFixture f;
  TaxiConfig cfg;
  cfg.num_streets = 8;
  cfg.num_vehicles = 10;
  cfg.events_per_second = 400;
  cfg.duration = Seconds(20);
  Scenario s = GenerateTaxi(cfg);

  WorkloadGenConfig wcfg;
  wcfg.num_queries = 5;
  wcfg.pattern_length = 3;
  wcfg.cluster_size = 3;
  wcfg.window = {Seconds(8), Seconds(4)};
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

/// Runs the prefix, checkpoints, returns the checkpoint dir (asserts ok).
std::string CheckpointPrefix(const CheckpointFixture& f, size_t shards,
                             size_t split, const std::string& tag) {
  const std::string dir = FreshDir(tag);
  ShardedRuntime rt(f.workload, f.plan, FixtureOptions(shards));
  EXPECT_TRUE(rt.ok()) << rt.error();
  rt.Start();
  for (size_t i = 0; i < split; ++i) rt.Ingest(f.arrivals[i]);
  const ShardedRuntime::CheckpointResult cp = rt.Checkpoint(dir);
  EXPECT_TRUE(cp.ok) << cp.reason;
  return dir;
}

ShardedRuntime::RestoreOutcome RestoreAt(const CheckpointFixture& f,
                                         const std::string& dir,
                                         size_t shards) {
  ShardedRuntime::RestoreOptions ropts;
  ropts.runtime = FixtureOptions(shards);
  ropts.workload = &f.workload;
  ropts.plan = f.plan;
  return ShardedRuntime::Restore(dir, ropts);
}

// --- mutual exclusion, both orders -----------------------------------------

// Order 1: a checkpoint requested while a plan swap drains is refused
// with the typed kSwapInFlight code — and the stream stays exact.
TEST(CheckpointSwapExclusion, CheckpointRefusedWhileSwapInFlight) {
  CheckpointFixture f = MakeFixture();
  ShardedRuntime rt(f.workload, f.plan, FixtureOptions(2));
  ASSERT_TRUE(rt.ok()) << rt.error();
  std::string error;
  CompiledPlanHandle handle = CompilePlanShared(f.workload, {}, &error);
  ASSERT_TRUE(handle) << error;

  rt.Start();
  for (size_t i = 0; i < 1000; ++i) rt.Ingest(f.arrivals[i]);
  const ShardedRuntime::SwapRequest swap = rt.RequestPlanSwap(handle);
  ASSERT_TRUE(swap.accepted) << swap.reason;

  const std::string dir = FreshDir("refused_during_swap");
  const ShardedRuntime::CheckpointResult cp = rt.Checkpoint(dir);
  EXPECT_FALSE(cp.ok);
  EXPECT_EQ(cp.code, OpRefusal::kSwapInFlight);
  EXPECT_NE(cp.reason.find("swap"), std::string::npos) << cp.reason;
  EXPECT_FALSE(
      std::filesystem::exists(dir + "/" + checkpoint::kManifestFileName));

  for (size_t i = 1000; i < f.arrivals.size(); ++i) rt.Ingest(f.arrivals[i]);
  rt.Finish();
  EXPECT_EQ(rt.stats().CompletedSwaps(), 1u);
  const ResultCollector oracle = ReferenceResults(f.workload, f.sorted);
  oracle.ForEachCell([&](const ResultKey& key, const AggState& state) {
    EXPECT_EQ(rt.Get(key.query, key.window, key.group), state);
  });
  std::filesystem::remove_all(dir);
}

// Order 2: a swap requested while a checkpoint has not run on every shard
// is refused with kCheckpointInFlight; the checkpoint then
// completes (manifest sealed at Finish) and restores cleanly.
TEST(CheckpointSwapExclusion, SwapRefusedWhileCheckpointInFlight) {
  CheckpointFixture f = MakeFixture();
  ShardedRuntime rt(f.workload, f.plan, FixtureOptions(2));
  ASSERT_TRUE(rt.ok()) << rt.error();
  std::string error;
  CompiledPlanHandle handle = CompilePlanShared(f.workload, {}, &error);
  ASSERT_TRUE(handle) << error;

  rt.Start();
  const size_t split = 1000;
  for (size_t i = 0; i < split; ++i) rt.Ingest(f.arrivals[i]);
  const std::string dir = FreshDir("swap_refused_during_ckpt");
  // Async request: its markers leave with it, so shard 0 is held at its
  // marker to keep the checkpoint in flight while the swap is requested.
  rt.shard_for_test(0).HoldAtControlMarkerForTest(true);
  const ShardedRuntime::CheckpointRequest req = rt.RequestCheckpoint(dir);
  ASSERT_TRUE(req.accepted) << req.reason;
  ASSERT_TRUE(rt.CheckpointInFlight());

  const ShardedRuntime::SwapRequest swap = rt.RequestPlanSwap(handle);
  EXPECT_FALSE(swap.accepted);
  EXPECT_EQ(swap.code, OpRefusal::kCheckpointInFlight);
  EXPECT_NE(swap.reason.find("checkpoint"), std::string::npos) << swap.reason;
  rt.shard_for_test(0).HoldAtControlMarkerForTest(false);

  for (size_t i = split; i < f.arrivals.size(); ++i) rt.Ingest(f.arrivals[i]);
  rt.Finish();
  ASSERT_TRUE(rt.last_checkpoint().ok) << rt.last_checkpoint().reason;
  EXPECT_EQ(rt.last_checkpoint().id, req.id);

  // The sealed checkpoint is a valid cut: restoring it and replaying the
  // suffix reproduces the oracle exactly.
  ShardedRuntime::RestoreOutcome restored = RestoreAt(f, dir, 2);
  ASSERT_TRUE(restored.runtime) << restored.error;
  restored.runtime->Start();
  for (size_t i = split; i < f.arrivals.size(); ++i) {
    restored.runtime->Ingest(f.arrivals[i]);
  }
  restored.runtime->Finish();
  const ResultCollector oracle = ReferenceResults(f.workload, f.sorted);
  oracle.ForEachCell([&](const ResultKey& key, const AggState& state) {
    EXPECT_EQ(restored.runtime->Get(key.query, key.window, key.group), state);
  });
  std::filesystem::remove_all(dir);
}

// --- refusal paths ----------------------------------------------------------

TEST(CheckpointRefusal, RequiresDisorderPolicy) {
  CheckpointFixture f = MakeFixture();
  RuntimeOptions opts;
  opts.num_shards = 2;  // no disorder policy
  ShardedRuntime rt(f.workload, f.plan, opts);
  ASSERT_TRUE(rt.ok()) << rt.error();
  const ShardedRuntime::CheckpointResult cp =
      rt.Checkpoint(FreshDir("no_disorder"));
  EXPECT_FALSE(cp.ok);
  EXPECT_EQ(cp.code, OpRefusal::kNoDisorderPolicy);
}

// Multi-producer checkpoints are supported: the marker is broadcast on
// EVERY ingest partition's channels and each shard cuts only once all of
// them arrived (per-channel marker alignment, src/runtime/shard.h). The
// cut restores into a different shard AND producer count and replaying
// the suffix reproduces the single-stream oracle exactly.
TEST(CheckpointMultiProducer, AcceptedAndRestoresAcrossTopologies) {
  CheckpointFixture f = MakeFixture();
  RuntimeOptions opts = FixtureOptions(2);
  opts.ingest_partitions = 2;
  ShardedRuntime rt(f.workload, f.plan, opts);
  ASSERT_TRUE(rt.ok()) << rt.error();
  rt.Start();
  const size_t split = f.arrivals.size() / 2;
  size_t rr = 0;
  for (size_t i = 0; i < split; ++i) {
    const Event& e = f.arrivals[i];
    if (IsWatermark(e)) {
      rt.ingest_partition(0).IngestWatermark(e.time);
      rt.ingest_partition(1).IngestWatermark(e.time);
    } else {
      rt.ingest_partition(rr++ % 2).Ingest(e);
    }
  }
  const std::string dir = FreshDir("multi_producer");
  const ShardedRuntime::CheckpointResult cp = rt.Checkpoint(dir);
  ASSERT_TRUE(cp.ok) << cp.reason;
  ASSERT_TRUE(
      std::filesystem::exists(dir + "/" + checkpoint::kManifestFileName));

  // Restore into 3 shards / 1 producer and replay the suffix.
  ShardedRuntime::RestoreOutcome restored = RestoreAt(f, dir, 3);
  ASSERT_TRUE(restored.runtime) << restored.error;
  restored.runtime->Start();
  for (size_t i = split; i < f.arrivals.size(); ++i) {
    restored.runtime->Ingest(f.arrivals[i]);
  }
  restored.runtime->Finish();
  const ResultCollector oracle = ReferenceResults(f.workload, f.sorted);
  oracle.ForEachCell([&](const ResultKey& key, const AggState& state) {
    EXPECT_EQ(restored.runtime->Get(key.query, key.window, key.group), state);
  });
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRefusal, CorruptShardFileRefusesRestore) {
  CheckpointFixture f = MakeFixture();
  const std::string dir = CheckpointPrefix(f, 2, 2000, "corrupt");
  const std::string shard_file = dir + "/" + checkpoint::ShardFileName(0);
  std::vector<uint8_t> bytes;
  ASSERT_EQ(checkpoint::ReadFileBytes(shard_file, &bytes), "");
  ASSERT_GT(bytes.size(), 100u);
  bytes[bytes.size() * 3 / 5] ^= 0x40;  // one flipped bit mid-payload
  ASSERT_EQ(checkpoint::WriteFileBytes(shard_file, bytes), "");

  ShardedRuntime::RestoreOutcome restored = RestoreAt(f, dir, 2);
  EXPECT_FALSE(restored.runtime);
  EXPECT_FALSE(restored.error.empty());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRefusal, VersionMismatchRefusesRestore) {
  CheckpointFixture f = MakeFixture();
  const std::string dir = CheckpointPrefix(f, 1, 1500, "version");
  const std::string manifest_path =
      dir + "/" + checkpoint::kManifestFileName;
  checkpoint::Manifest m;
  ASSERT_EQ(checkpoint::LoadManifest(manifest_path, &m), "");
  m.version = checkpoint::kFormatVersion + 1;
  ASSERT_EQ(checkpoint::SaveManifest(m, manifest_path), "");

  ShardedRuntime::RestoreOutcome restored = RestoreAt(f, dir, 1);
  EXPECT_FALSE(restored.runtime);
  EXPECT_NE(restored.error.find("version"), std::string::npos)
      << restored.error;
  std::filesystem::remove_all(dir);
}

// Version 1 carried an executor-mode byte in the manifest and in every
// shard header; its directories are refused with the version diagnostic
// rather than misread.
TEST(CheckpointRefusal, FormatVersionOneRefusesRestore) {
  CheckpointFixture f = MakeFixture();
  const std::string dir = CheckpointPrefix(f, 1, 1500, "version_one");
  const std::string manifest_path =
      dir + "/" + checkpoint::kManifestFileName;
  checkpoint::Manifest m;
  ASSERT_EQ(checkpoint::LoadManifest(manifest_path, &m), "");
  m.version = 1;
  ASSERT_EQ(checkpoint::SaveManifest(m, manifest_path), "");

  ShardedRuntime::RestoreOutcome restored = RestoreAt(f, dir, 1);
  EXPECT_FALSE(restored.runtime);
  EXPECT_NE(restored.error.find("file has v1"), std::string::npos)
      << restored.error;
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRefusal, TornCheckpointWithoutManifestRefusesRestore) {
  CheckpointFixture f = MakeFixture();
  const std::string dir = CheckpointPrefix(f, 2, 1500, "torn");
  std::filesystem::remove(dir + "/" + checkpoint::kManifestFileName);
  ShardedRuntime::RestoreOutcome restored = RestoreAt(f, dir, 2);
  EXPECT_FALSE(restored.runtime);
  EXPECT_FALSE(restored.error.empty());
  std::filesystem::remove_all(dir);
}

TEST(CheckpointRefusal, PlanFingerprintMismatchRefusesRestore) {
  CheckpointFixture f = MakeFixture();
  ASSERT_FALSE(f.plan.empty()) << "fixture needs a non-trivial plan";
  const std::string dir = CheckpointPrefix(f, 2, 1500, "fingerprint");
  ShardedRuntime::RestoreOptions ropts;
  ropts.runtime = FixtureOptions(2);
  ropts.workload = &f.workload;
  ropts.plan = SharingPlan{};  // A-Seq compiles to different templates
  ShardedRuntime::RestoreOutcome restored = ShardedRuntime::Restore(dir, ropts);
  EXPECT_FALSE(restored.runtime);
  EXPECT_NE(restored.error.find("fingerprint"), std::string::npos)
      << restored.error;
  std::filesystem::remove_all(dir);
}

// A swap's incoming engine discards its partial cells of the windows the
// outgoing engine owns (its results floor). The runtime's watermark
// rollup must count them, whichever executor shape the shard runs.
TEST(PlanSwapRollup, SuppressedCellsReachRuntimeWatermarks) {
  CheckpointFixture f = MakeFixture();
  ShardedRuntime rt(f.workload, f.plan, FixtureOptions(2));
  ASSERT_TRUE(rt.ok()) << rt.error();
  std::string error;
  CompiledPlanHandle handle = CompilePlanShared(f.workload, {}, &error);
  ASSERT_TRUE(handle) << error;

  rt.Start();
  for (size_t i = 0; i < 1000; ++i) rt.Ingest(f.arrivals[i]);
  const ShardedRuntime::SwapRequest swap = rt.RequestPlanSwap(handle);
  ASSERT_TRUE(swap.accepted) << swap.reason;
  for (size_t i = 1000; i < f.arrivals.size(); ++i) rt.Ingest(f.arrivals[i]);
  rt.Finish();
  ASSERT_EQ(rt.stats().CompletedSwaps(), 1u);
  EXPECT_GT(rt.stats().Watermarks().suppressed_cells, 0u);
}

// The incumbent plan id survives a restart: a manager on the restored
// runtime continues the id sequence instead of restarting at zero.
TEST(Checkpoint, IncumbentPlanIdSurvivesRestore) {
  CheckpointFixture f = MakeFixture();
  ShardedRuntime rt(f.workload, f.plan, FixtureOptions(2));
  ASSERT_TRUE(rt.ok()) << rt.error();
  std::string error;
  CompiledPlanHandle handle = CompilePlanShared(f.workload, {}, &error);
  ASSERT_TRUE(handle) << error;

  rt.Start();
  for (size_t i = 0; i < 1000; ++i) rt.Ingest(f.arrivals[i]);
  const ShardedRuntime::SwapRequest swap = rt.RequestPlanSwap(handle);
  ASSERT_TRUE(swap.accepted) << swap.reason;
  // Keep ingesting until the swap retires (watermarks past its cap), then
  // cut — a checkpoint during the dual-run is refused by design.
  const std::string dir = FreshDir("plan_id");
  size_t i = 1000 + f.arrivals.size() / 2;
  for (size_t j = 1000; j < i; ++j) rt.Ingest(f.arrivals[j]);
  ShardedRuntime::CheckpointResult cp = rt.Checkpoint(dir);
  while (!cp.ok && cp.code == OpRefusal::kSwapInFlight &&
         i < f.arrivals.size()) {
    rt.Ingest(f.arrivals[i++]);
    cp = rt.Checkpoint(dir);
  }
  ASSERT_TRUE(cp.ok) << cp.reason;
  EXPECT_EQ(rt.swaps_requested(), 1u);

  ShardedRuntime::RestoreOptions ropts;
  ropts.runtime = FixtureOptions(4);
  ropts.workload = &f.workload;
  ropts.plan = SharingPlan{};  // the incumbent at the cut is the A-Seq plan
  ShardedRuntime::RestoreOutcome restored = ShardedRuntime::Restore(dir, ropts);
  ASSERT_TRUE(restored.runtime) << restored.error;
  EXPECT_EQ(restored.runtime->swaps_requested(), 1u);
  EXPECT_EQ(restored.manifest.swaps_requested, 1u);

  adaptive::PlanManager mgr(f.workload, restored.runtime.get(), SharingPlan{});
  EXPECT_EQ(mgr.incumbent_plan_id(), 1u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sharon
