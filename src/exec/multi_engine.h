// §7.2 extension: workloads with DIFFERENT windows or predicates/grouping.
//
// The paper's core assumption 2 requires one window and one partitioning
// per workload; §7.2 sketches the relaxation: partition the workload into
// uniform segments and share within each segment. MultiEngine implements
// exactly that: queries are grouped by (window, partition attribute), each
// segment gets its own Sharon optimizer pass and Engine, and events fan
// out to every segment. Sharing still happens inside each segment, which
// is where it is legal.
//
// Planning (optimizer + plan compilation) is split from instantiation:
// PlanMultiEngine produces an immutable MultiEnginePlan that any number of
// MultiEngine instances share — the per-shard engines of
// runtime::ShardedRuntime all reuse one planning pass. A uniform workload
// is the one-segment case (UniformPlan), so every runtime shard drives a
// MultiEngine whatever the workload's shape.

#ifndef SHARON_EXEC_MULTI_ENGINE_H_
#define SHARON_EXEC_MULTI_ENGINE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/exec/engine.h"
#include "src/planner/optimizer.h"

namespace sharon {

/// Immutable outcome of planning a workload as uniform segments: the
/// segment workloads, their compiled sharing plans, and the routing table
/// from original query ids to (segment, segment-local id). Owns the
/// segment workloads, so engines built from it must not outlive it — hold
/// it in a shared_ptr when instances share it.
struct MultiEnginePlan {
  struct Segment {
    Workload workload;                  ///< segment-local query ids
    std::vector<QueryId> original_ids;  ///< segment-local id -> original id
    CompiledPlanHandle compiled;
  };

  /// Segment index and segment-local id for one original query.
  struct Route {
    size_t segment = 0;
    QueryId local = 0;
  };

  std::string error;  ///< empty on success
  std::vector<Segment> segments;
  /// Indexed by original query id. Empty in a UniformPlan, whose one
  /// segment runs every query under its own id (see uniform()).
  std::vector<Route> routes;
  std::vector<OptimizerResult> plans;   ///< per-segment optimizer outcomes
  size_t total_queries = 0;

  bool ok() const { return error.empty(); }

  /// True for a UniformPlan: one segment and identity routing, so ids
  /// appended to the workload later (query churn) resolve too. Only such
  /// a plan can hot-swap its segment (src/runtime/plan_swap.h).
  bool uniform() const { return routes.empty() && segments.size() == 1; }

  /// Segment and segment-local id of an original query id.
  Route RouteOf(QueryId query) const {
    return uniform() ? Route{0, query} : routes.at(query);
  }
  /// Original query id of segment `segment`'s local id `local`.
  QueryId OriginalId(size_t segment, QueryId local) const {
    return uniform() ? local : segments[segment].original_ids.at(local);
  }
};

/// The one-segment plan of a uniform workload: `compiled` (compiled from
/// `workload`, which the plan copies) runs every query under its own id.
std::shared_ptr<const MultiEnginePlan> UniformPlan(
    const Workload& workload, CompiledPlanHandle compiled);

/// Partitions `workload` into uniform segments by (window, partition
/// attribute) and optimizes each with `cost_model` (Sharon optimizer,
/// `config`). Never returns null; check `->ok()`.
std::shared_ptr<const MultiEnginePlan> PlanMultiEngine(
    const Workload& workload, const CostModel& cost_model,
    const OptimizerConfig& config = {});

/// Executes a workload as independent uniform segments.
class MultiEngine {
 public:
  /// Plans and instantiates in one step (single-instance convenience).
  MultiEngine(const Workload& workload, const CostModel& cost_model,
              const OptimizerConfig& config = {});

  /// Instantiates executor state from a shared plan (one planning pass for
  /// many instances). `plan` must not be null.
  explicit MultiEngine(std::shared_ptr<const MultiEnginePlan> plan);

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  /// Number of uniform segments the workload was split into.
  size_t num_segments() const { return plan_ ? plan_->segments.size() : 0; }

  /// Total number of shared counters across segments.
  size_t num_shared_counters() const;

  void OnEvent(const Event& e) {
    for (auto& engine : engines_) engine->OnEvent(e);
  }

  // --- bounded-disorder ingestion (src/common/watermark.h) --------------
  // Each segment engine reorders and finalizes independently against its
  // own window grid; watermarks fan out like events, so one punctuation
  // advances every segment.

  /// Enables watermark-driven ingestion on every segment engine.
  void SetDisorderPolicy(const DisorderPolicy& policy);

  /// Applies a watermark to every segment engine.
  void AdvanceWatermark(Timestamp t);

  /// Releases and finalizes everything on every segment engine.
  void CloseStream();

  /// Attaches one telemetry handle to every segment engine (they share
  /// the shard's cells: the segments run on one thread, so the one-writer
  /// contract holds; counters simply sum across segments). Null detaches.
  void SetObservability(const obs::EngineObs* o) {
    for (auto& e : engines_) e->SetObservability(o);
  }

  /// True once `window` (in the query's own window grid) is finalized.
  bool Finalized(QueryId query, WindowId window) const;

  /// Rolled-up watermark counters across segment engines (watermark is
  /// the MIN across segments).
  WatermarkStats watermark_stats() const;

  /// Aggregated live-state census across segment engines.
  LiveState LiveStateSnapshot() const;

  /// Result for a query of the ORIGINAL workload (query ids are the
  /// original ids; windows are in the query's own window grid).
  double Value(QueryId query, WindowId window, AttrValue group,
               AggFunction fn) const;
  AggState Get(QueryId query, WindowId window, AttrValue group) const;

  /// Visits every result cell of every segment, keyed by ORIGINAL query
  /// ids. Iteration order is unspecified.
  void ForEachCell(
      const std::function<void(const ResultKey&, const AggState&)>& fn) const;

  /// Per-segment optimizer outcomes (for inspection).
  const std::vector<OptimizerResult>& plans() const { return plan_->plans; }

  /// The shared plan this instance executes.
  const std::shared_ptr<const MultiEnginePlan>& plan() const { return plan_; }

  /// Per-segment engines, in plan segment order (read-only inspection).
  const std::vector<std::unique_ptr<Engine>>& engines() const {
    return engines_;
  }

  /// Mutable segment engine for checkpoint restore ONLY (src/checkpoint/
  /// loads per-segment state before the first post-restore event); all
  /// normal execution goes through OnEvent.
  Engine* mutable_segment_engine(size_t segment) {
    return engines_[segment].get();
  }

  /// Installs `next` as segment `segment`'s engine and returns the engine
  /// it replaces (plan hot-swap retirement).
  std::unique_ptr<Engine> ReplaceSegmentEngine(size_t segment,
                                               std::unique_ptr<Engine> next) {
    engines_[segment].swap(next);
    return next;
  }

  size_t EstimatedBytes() const;

 private:
  std::string error_;
  std::shared_ptr<const MultiEnginePlan> plan_;
  std::vector<std::unique_ptr<Engine>> engines_;  ///< one per plan segment
};

}  // namespace sharon

#endif  // SHARON_EXEC_MULTI_ENGINE_H_
