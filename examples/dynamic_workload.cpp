// Dynamic workload example (paper §7.4): per-type event rates drift, the
// startup sharing plan goes stale, and the adaptive planner re-optimizes
// and hot-swaps the plan into the RUNNING sharded runtime — no restart,
// no lost windows, results identical to a never-swapped run.
//
// The loop (src/adaptive/plan_manager.h):
//   RateMonitor epochs -> drift detection -> Reoptimize (re-cost the
//   incumbent under fresh rates, GO, and SO too when GO's graph has a
//   conflict edge) -> hysteresis -> ShardedRuntime::RequestPlanSwap at a
//   watermark-aligned window boundary (src/runtime/plan_swap.h).
//
// Note the drift scenario flips WHICH types are hot. A rate ramp that
// scales every type together (e.g. the Linear Road ramp) never changes
// the optimal plan — sharing benefit is homogeneous in rates — which is
// exactly why the monitor tracks per-type rates, not volume.
//
// Build & run:  ./build/examples/example_dynamic_workload

#include <cstdio>

#include "src/sharon.h"

using namespace sharon;

int main() {
  // A stream whose hot type cluster flips every 30 seconds.
  DriftConfig dcfg;
  dcfg.num_types = 8;
  dcfg.num_groups = 32;
  dcfg.events_per_second = 2000;
  dcfg.phase_length = Seconds(30);
  dcfg.num_phases = 4;
  Scenario stream = GenerateDrift(dcfg);

  const WindowSpec window{Seconds(10), Seconds(5)};
  Workload workload = DriftWorkload(dcfg, window);

  // Plan for the rates visible at startup (phase 0).
  RateMonitor startup(Seconds(1), 4);
  for (const Event& e : stream.events) {
    if (e.time >= Seconds(5)) break;
    startup.OnEvent(e);
  }
  CostModel cm(startup.CurrentRates());
  OptimizerResult initial = OptimizeSharon(workload, cm);
  std::printf("initial plan: %zu candidates, score %.0f at startup rates\n",
              initial.plan.size(), initial.score);

  // The adaptive runtime: watermarks drive window finalization AND give
  // the planner its safe swap points.
  runtime::RuntimeOptions ropts;
  ropts.num_shards = 4;
  ropts.disorder.enabled = true;
  ropts.disorder.max_lateness = Seconds(1);
  runtime::ShardedRuntime rt(workload, initial.plan, ropts);
  if (!rt.ok()) {
    std::fprintf(stderr, "runtime error: %s\n", rt.error().c_str());
    return 1;
  }

  adaptive::PlanManagerOptions popts;
  popts.epoch = Seconds(5);
  popts.window_epochs = 2;
  popts.drift_threshold = 0.4;
  popts.hysteresis = 0.10;
  adaptive::PlanManager manager(workload, &rt, initial.plan, popts);

  // Disorder-inject for realism; watermarks ride in-band.
  DisorderConfig inj;
  inj.max_lateness = Seconds(1);
  inj.punctuation_period = Seconds(1);
  const std::vector<Event> arrivals = InjectDisorder(stream.events, inj);

  rt.Start();
  for (const Event& e : arrivals) manager.Ingest(e);
  rt.Finish();

  const adaptive::PlanManagerStats& ms = manager.stats();
  std::printf(
      "epochs %llu, evaluations %llu (drift %llu, SO escalations %llu), "
      "holds %llu, swaps accepted %llu / rejected %llu, planning %.1f ms\n",
      static_cast<unsigned long long>(ms.epochs_seen),
      static_cast<unsigned long long>(ms.evaluations),
      static_cast<unsigned long long>(ms.drift_detections),
      static_cast<unsigned long long>(ms.escalations),
      static_cast<unsigned long long>(ms.holds),
      static_cast<unsigned long long>(ms.swaps_accepted),
      static_cast<unsigned long long>(ms.swaps_rejected), ms.planning_millis);

  const runtime::RuntimeStats rs = rt.stats();
  for (const runtime::PlanSwapStats& swap : rs.plan_swaps) {
    std::printf(
        "swap #%llu at boundary %llds: stall %.3fs (slowest shard), "
        "%llu teed events, dual-run peak %.2f MB -> %.2f MB after retire\n",
        static_cast<unsigned long long>(swap.id),
        static_cast<long long>(swap.boundary / kTicksPerSecond),
        swap.max_dual_run_seconds,
        static_cast<unsigned long long>(swap.teed_events),
        static_cast<double>(swap.peak_dual_bytes) / (1 << 20),
        static_cast<double>(swap.post_swap_bytes) / (1 << 20));
  }

  double total = 0;
  rt.results().ForEachCell(
      [&](const ResultKey&, const AggState& s) { total += s.count; });
  std::printf("finalized cells %zu, matched sequences %.0f, %.0f events/s\n",
              rt.results().NumCells(), total, rs.EventsPerSecond());
  return 0;
}
