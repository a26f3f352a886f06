// ChainRunner: evaluates one query as a chain of segments and combines the
// segments' shared aggregates into final per-window results.
//
// This generalises the paper's prefix/p/suffix combination (§3.3, Fig. 7):
// a valid sharing plan may assign several disjoint shared patterns to one
// query (the paper's own optimal plan gives q4 both p2 and p4), so a query
// pattern is compiled into segments seg_0..seg_{k-1}, each evaluated by a
// SegmentCounter (shared or private). The A-Seq non-shared method is the
// k = 1 special case.
//
// Combination works through *snapshots*. When a START event s of seg_i
// arrives, the runner freezes
//     F_i[s] = sum over seg_{i-1} starts s' of Concat(F_{i-1}[s'], c_{i-1}[s'])
// — the aggregate of all chains through seg_0..seg_{i-1} completed strictly
// before s ("the count of prefix_i is multiplied with the count for each
// START event of p", §3.3 step 2). Snapshots are bucketed by the *pane*
// (slide bucket) of the chain's first event: all first events in one pane
// belong to exactly the same windows, so per-window results stay exact
// under sliding-window expiration with at most length/slide buckets per
// snapshot. When the END event e of the last segment arrives, the per-start
// complete deltas are concatenated with the frozen snapshots and folded
// into every window containing both the first-event pane and e.

#ifndef SHARON_EXEC_CHAIN_RUNNER_H_
#define SHARON_EXEC_CHAIN_RUNNER_H_

#include <string>
#include <vector>

#include "src/common/ring_deque.h"
#include "src/common/serde.h"
#include "src/exec/result.h"
#include "src/exec/segment_counter.h"

namespace sharon {

/// Executes one segment chain against shared/private counters, emitting
/// results for every subscribed query (queries whose plans produced the
/// same segment sequence share the whole chain).
class ChainRunner {
 public:
  /// `counters` are the chain's segments in pattern order; they are owned
  /// by the engine and updated (once per event) before chain OnEvent runs.
  ChainRunner(std::vector<QueryId> queries,
              std::vector<SegmentCounter*> counters, WindowSpec window);

  /// Processes one event *after* all counters processed it. Only START
  /// types of segments and the END type of the last segment do work.
  /// `group` is the partition value the engine routed this event by.
  ///
  /// ORDERING CONTRACT (audited for the watermark subsystem): events MUST
  /// arrive in strictly increasing time order. Pane bucketing depends on
  /// it in three load-bearing places —
  ///   * TakeSnapshot appends stage-0 snapshots to the deque back, so the
  ///     deques are ascending in both StartId and start_time;
  ///   * ExpireBefore pops expired snapshots from the front only;
  ///   * PrunePanes drops dead panes from the front of the (ascending)
  ///     per-pane vector only.
  /// A late first event landing in an already-emitted pane would corrupt
  /// all three silently, and the upstream SegmentCounter prefix machine
  /// is equally order-dependent (a late event could never extend through
  /// sequences that should follow it). Out-of-order ingestion is
  /// therefore handled strictly upstream: Engine's watermark reorder
  /// buffer releases events in time order (src/exec/engine.h), and this
  /// class rejects regressions loudly in debug builds instead of
  /// corrupting state (tests/chain_runner_test.cc regression-tests the
  /// slide-not-dividing-length case through the watermark path).
  void OnEvent(const Event& e, AttrValue group, ResultCollector& out);

  /// Drops snapshots that can no longer contribute to any open window.
  /// Returns the number of pane buckets freed (eviction accounting).
  size_t ExpireBefore(Timestamp now);

  const std::vector<QueryId>& queries() const { return queries_; }
  size_t num_stages() const { return counters_.size(); }

  /// Live pane buckets across all stage snapshots (bounded-state census).
  size_t NumLivePanes() const;

  /// True when no snapshot state is held (group state is evictable).
  bool Empty() const;

  /// Logical state footprint in bytes (snapshots).
  size_t EstimatedBytes() const;

  // --- checkpoint/restore (src/checkpoint/) -----------------------------

  /// Serializes the frozen combination state: per stage, every live
  /// snapshot's (start id, start time, pane buckets). Pane-vector pools
  /// and scratch buffers are storage details and not saved. StartIds stay
  /// meaningful because SegmentCounter::SaveState preserves its id base.
  void SaveState(serde::BinaryWriter& w) const;

  /// Restores state saved by SaveState into a runner built from the SAME
  /// chain template (stage count must match). Empty string on success.
  std::string LoadState(serde::BinaryReader& r);

 private:
  struct PaneAgg {
    PaneId pane = 0;
    AggState agg;
  };

  /// Frozen combination state for one START event of one stage.
  struct Snapshot {
    StartId start = 0;
    Timestamp start_time = 0;
    std::vector<PaneAgg> per_pane;  ///< ascending pane ids
  };

  /// Builds F_{stage}[new start of e] from stage-1 snapshots.
  void TakeSnapshot(size_t stage, const Event& e);

  /// Folds last-segment complete deltas into window results.
  void EmitFinal(const Event& e, AttrValue group, ResultCollector& out);

  /// Drops expired panes from a snapshot; true if anything remains.
  bool PrunePanes(Snapshot& s, Timestamp now) const;

  /// A recycled (or fresh) empty pane vector from the pool.
  std::vector<PaneAgg> TakePaneVector();

  std::vector<QueryId> queries_;
  std::vector<SegmentCounter*> counters_;
  WindowSpec window_;
  /// Per stage, ascending StartId. Ring buffers + a recycled pane-vector
  /// pool: snapshot birth and expiration allocate nothing in steady
  /// state (DESIGN.md "Hot-path memory layout").
  std::vector<RingDeque<Snapshot>> stages_;
  std::vector<std::vector<PaneAgg>> pane_pool_;  ///< recycled per_pane buffers
  std::vector<PaneAgg> pane_batch_;    ///< EmitFinal scratch (reused)
  std::vector<AggState> window_batch_; ///< EmitFinal per-window scratch
  /// Ordering-contract check, asserted only without NDEBUG. The member
  /// exists in every build so that NDEBUG and non-NDEBUG translation units
  /// agree on the class layout.
  Timestamp last_time_ = -1;
};

}  // namespace sharon

#endif  // SHARON_EXEC_CHAIN_RUNNER_H_
