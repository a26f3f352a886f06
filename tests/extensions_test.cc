// Tests for the §7 extension modules: MultiEngine (§7.2 different windows
// and groupings), RateMonitor (§7.4 dynamic workloads), and the export
// utilities.

#include <gtest/gtest.h>

#include "src/exec/multi_engine.h"
#include "src/graph/export.h"
#include "src/sharing/ccspan.h"
#include "src/streamgen/fixtures.h"
#include "src/streamgen/rate_monitor.h"
#include "src/twostep/reference.h"

namespace sharon {
namespace {

constexpr EventTypeId kA = 0, kB = 1, kC = 2;

Event Ev(EventTypeId type, Timestamp t, AttrValue g = 0) {
  Event e;
  e.type = type;
  e.time = t;
  e.attrs = {g};
  return e;
}

Query MakeQuery(std::vector<EventTypeId> pattern, Duration len,
                Duration slide, AttrIndex part = kNoAttr) {
  Query q;
  q.pattern = Pattern(std::move(pattern));
  q.agg = AggSpec::CountStar();
  q.window = {len, slide};
  q.partition_attr = part;
  return q;
}

TEST(MultiEngineTest, SplitsByWindowAndPartition) {
  Workload w;
  w.Add(MakeQuery({kA, kB}, 100, 10));
  w.Add(MakeQuery({kA, kB}, 100, 10));
  w.Add(MakeQuery({kA, kB}, 50, 10));       // different window
  w.Add(MakeQuery({kA, kB}, 100, 10, 0));   // different partition
  CostModel cm(TypeRates({1, 1, 1}));
  MultiEngine me(w, cm);
  ASSERT_TRUE(me.ok()) << me.error();
  EXPECT_EQ(me.num_segments(), 3u);
}

TEST(MultiEngineTest, ResultsMatchPerSegmentReference) {
  Workload w;
  w.Add(MakeQuery({kA, kB}, 10, 5));
  w.Add(MakeQuery({kA, kB, kC}, 10, 5));
  w.Add(MakeQuery({kA, kB}, 20, 10));  // second segment
  CostModel cm(TypeRates({1, 1, 1}));
  MultiEngine me(w, cm);
  ASSERT_TRUE(me.ok()) << me.error();

  std::vector<Event> stream = {Ev(kA, 1), Ev(kB, 3),  Ev(kC, 4),
                               Ev(kA, 7), Ev(kB, 11), Ev(kC, 14)};
  for (const Event& e : stream) me.OnEvent(e);

  // Per-query oracle: evaluate each query alone as a uniform workload.
  for (const Query& q : w.queries()) {
    Workload solo;
    solo.Add(q);
    ResultCollector ref = ReferenceResults(solo, stream);
    for (WindowId j = 0; j <= q.window.LastWindowCovering(14); ++j) {
      EXPECT_EQ(me.Value(q.id, j, 0, AggFunction::kCountStar),
                ref.Value(0, j, 0, AggFunction::kCountStar))
          << "query " << q.id << " window " << j;
    }
  }
}

TEST(MultiEngineTest, SharingHappensWithinSegments) {
  Workload w;
  w.Add(MakeQuery({kA, kB, kC}, 100, 10));
  w.Add(MakeQuery({kA, kB, kC}, 100, 10));
  w.Add(MakeQuery({kA, kB, kC}, 50, 10));
  CostModel cm(TypeRates({5, 5, 5}));
  MultiEngine me(w, cm);
  ASSERT_TRUE(me.ok());
  // The first two queries share inside their segment; the third cannot.
  EXPECT_GE(me.num_shared_counters(), 1u);
  ASSERT_EQ(me.plans().size(), 2u);
  EXPECT_FALSE(me.plans()[0].plan.empty());
  EXPECT_TRUE(me.plans()[1].plan.empty());
}

TEST(RateMonitorTest, EstimatesRatesOverClosedEpochs) {
  RateMonitor mon(Seconds(1), /*window_epochs=*/2);
  // 3 events of type 0 and 1 of type 1 per second, over 3 seconds.
  for (int s = 0; s < 3; ++s) {
    Timestamp base = Seconds(s);
    mon.OnEvent(Ev(0, base + 1));
    mon.OnEvent(Ev(0, base + 2));
    mon.OnEvent(Ev(0, base + 3));
    mon.OnEvent(Ev(1, base + 4));
  }
  TypeRates rates = mon.CurrentRates();  // two closed epochs
  EXPECT_DOUBLE_EQ(rates.Of(0), 3.0);
  EXPECT_DOUBLE_EQ(rates.Of(1), 1.0);
}

TEST(RateMonitorTest, DetectsDrift) {
  RateMonitor mon(Seconds(1), 2, /*drift_threshold=*/0.5);
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 4; ++i) mon.OnEvent(Ev(0, Seconds(s) + i + 1));
  }
  mon.RebaseOnCurrent();
  EXPECT_FALSE(mon.DriftDetected());
  // Rate quadruples.
  for (int s = 3; s < 6; ++s) {
    for (int i = 0; i < 16; ++i) mon.OnEvent(Ev(0, Seconds(s) + i + 1));
  }
  EXPECT_TRUE(mon.DriftDetected());
  mon.RebaseOnCurrent();
  EXPECT_FALSE(mon.DriftDetected());
}

TEST(RateMonitorTest, IgnoresNegligibleTypes) {
  RateMonitor mon(Seconds(1), 2, 0.5);
  for (int s = 0; s < 3; ++s) {
    for (int i = 0; i < 10; ++i) mon.OnEvent(Ev(0, Seconds(s) + i + 1));
  }
  mon.RebaseOnCurrent();
  // A single stray event of a new type must not trigger drift.
  mon.OnEvent(Ev(7, Seconds(3) + 1));
  for (int s = 3; s < 6; ++s) {
    for (int i = 0; i < 10; ++i) mon.OnEvent(Ev(0, Seconds(s) + i + 2));
  }
  EXPECT_FALSE(mon.DriftDetected());
}

TEST(ExportTest, DotContainsVerticesAndConflicts) {
  TrafficFixture f = MakeTrafficFixture();
  auto candidates = FindSharableCandidates(f.workload);
  SharonGraph g = SharonGraph::Build(
      f.workload, candidates, [](const Candidate&) { return 1.0; });
  std::string dot = ToDot(g, f.types, {0});
  EXPECT_NE(dot.find("graph sharon {"), std::string::npos);
  EXPECT_NE(dot.find("(OakSt,MainSt)"), std::string::npos);
  EXPECT_NE(dot.find(" -- "), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=lightblue"), std::string::npos);
}

TEST(ExportTest, CsvIsSortedAndSkipsNan) {
  Workload w;
  w.Add(MakeQuery({kA, kB}, 10, 5));
  ResultCollector rc;
  rc.Add(0, 1, 2, AggState::Identity());
  rc.Add(0, 0, 1, AggState::Identity());
  std::string csv = ResultsToCsv(rc, w);
  EXPECT_EQ(csv,
            "query,window,group,value\n"
            "0,0,1,1.000000\n"
            "0,1,2,1.000000\n");
}

}  // namespace
}  // namespace sharon
