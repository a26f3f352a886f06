#include "src/exec/chain_runner.h"

#include <algorithm>
#include <cassert>

namespace sharon {

ChainRunner::ChainRunner(std::vector<QueryId> queries,
                         std::vector<SegmentCounter*> counters,
                         WindowSpec window)
    : queries_(std::move(queries)),
      counters_(std::move(counters)),
      window_(window),
      stages_(counters_.size()) {}

void ChainRunner::OnEvent(const Event& e, AttrValue group,
                          ResultCollector& out) {
#ifndef NDEBUG
  // Ordering contract (see header): a regression here means an
  // out-of-order event bypassed the watermark reorder buffer.
  assert(e.time > last_time_ && "ChainRunner requires in-order events");
  last_time_ = e.time;
#endif
  // Boundary handling: at most one stage has e.type as its START type
  // (types are unique within a query pattern). Process it before the final
  // emission so a single-event last segment sees its own snapshot.
  for (size_t i = 0; i < counters_.size(); ++i) {
    if (counters_[i]->start_type() == e.type) {
      TakeSnapshot(i, e);
      break;
    }
  }
  if (counters_.back()->end_type() == e.type) {
    EmitFinal(e, group, out);
  }
}

std::vector<ChainRunner::PaneAgg> ChainRunner::TakePaneVector() {
  if (pane_pool_.empty()) return {};
  std::vector<PaneAgg> v = std::move(pane_pool_.back());
  pane_pool_.pop_back();
  v.clear();
  return v;
}

void ChainRunner::TakeSnapshot(size_t stage, const Event& e) {
  SegmentCounter& counter = *counters_[stage];
  // The engine updated the counter on this event already, creating the
  // start entry for e.
  const StartId sid = counter.NewestStartId();

  Snapshot snap;
  snap.start = sid;
  snap.start_time = e.time;

  if (stage == 0) {
    // F_0: one empty-chain unit in the pane of the chain's first event.
    snap.per_pane = TakePaneVector();
    snap.per_pane.push_back({window_.PaneOf(e.time), AggState::Identity()});
    stages_[0].push_back(std::move(snap));
    return;
  }

  // F_stage[e] = sum over live stage-1 snapshots s' of
  //             Concat(F_{stage-1}[s'], complete_{stage-1}[s'] as of now).
  // All seg_{stage-1} completions seen so far finished strictly before e
  // (timestamps are strict), so this freezes exactly the chains that may
  // legally precede e.
  auto& prev = stages_[stage - 1];
  SegmentCounter& prev_counter = *counters_[stage - 1];
  // Ascending panes, merged across snapshots (recycled buffer).
  std::vector<PaneAgg> acc = TakePaneVector();
  for (size_t i = 0; i < prev.size(); ++i) {
    Snapshot& prev_snap = prev[i];
    if (!PrunePanes(prev_snap, e.time)) continue;
    const AggState& complete = prev_counter.CompleteFor(prev_snap.start);
    if (complete.IsZero()) continue;
    for (const PaneAgg& pa : prev_snap.per_pane) {
      AggState piece = AggState::Concat(pa.agg, complete);
      if (piece.IsZero()) continue;
      // Insert into acc keeping ascending pane order (few panes).
      auto pos = std::lower_bound(
          acc.begin(), acc.end(), pa.pane,
          [](const PaneAgg& x, PaneId p) { return x.pane < p; });
      if (pos != acc.end() && pos->pane == pa.pane) {
        pos->agg.MergeFrom(piece);
      } else {
        acc.insert(pos, {pa.pane, piece});
      }
    }
  }
  if (acc.empty()) {  // nothing can precede e; skip storing
    pane_pool_.push_back(std::move(acc));
    return;
  }
  snap.per_pane = std::move(acc);
  stages_[stage].push_back(std::move(snap));
}

void ChainRunner::EmitFinal(const Event& e, AttrValue group,
                            ResultCollector& out) {
  SegmentCounter& last = *counters_.back();
  const auto& deltas = last.last_deltas();
  if (deltas.empty()) return;
  auto& snaps = stages_.back();
  const WindowId first_w = window_.FirstWindowCovering(e.time);

  // Batch all of this event's deltas by the pane of the chain's first
  // event, then fold the pane buckets into per-window accumulators and
  // touch the result map ONCE per (window, query). The number of live
  // panes is at most length/slide, so the map traffic per END event
  // drops from O(deltas * panes * windows) to O(windows) per query.
  pane_batch_.clear();
  for (const SegmentCounter::CompleteDelta& d : deltas) {
    // Find the snapshot for this start (ascending StartId order).
    size_t lo = 0, hi = snaps.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (snaps[mid].start < d.start) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == snaps.size() || snaps[lo].start != d.start) continue;
    Snapshot& snap = snaps[lo];
    if (!PrunePanes(snap, e.time)) continue;
    for (const PaneAgg& pa : snap.per_pane) {
      AggState full = AggState::Concat(pa.agg, d.delta);
      if (full.IsZero()) continue;
      auto pos = std::lower_bound(
          pane_batch_.begin(), pane_batch_.end(), pa.pane,
          [](const PaneAgg& x, PaneId p) { return x.pane < p; });
      if (pos != pane_batch_.end() && pos->pane == pa.pane) {
        pos->agg.MergeFrom(full);
      } else {
        pane_batch_.insert(pos, {pa.pane, full});
      }
    }
  }
  if (pane_batch_.empty()) return;
  // Chain first events in pane p contribute to windows j in [first_w, p]:
  // window j collects every pane >= j. Walk windows descending with a
  // running suffix sum over the (ascending) pane buckets.
  const WindowId base_w = std::max<WindowId>(first_w, 0);
  const WindowId last_w = pane_batch_.back().pane;
  if (last_w < base_w) return;
  window_batch_.assign(static_cast<size_t>(last_w - base_w + 1),
                       AggState::Zero());
  size_t pane_idx = pane_batch_.size();
  AggState suffix = AggState::Zero();
  for (WindowId j = last_w; j >= base_w; --j) {
    while (pane_idx > 0 && pane_batch_[pane_idx - 1].pane >= j) {
      suffix.MergeFrom(pane_batch_[--pane_idx].agg);
    }
    window_batch_[static_cast<size_t>(j - base_w)] = suffix;
    if (j == 0) break;  // WindowId is unsigned in spirit; avoid wrap
  }
  for (WindowId j = base_w; j <= last_w; ++j) {
    const AggState& agg = window_batch_[static_cast<size_t>(j - base_w)];
    for (QueryId q : queries_) out.Add(q, j, group, agg);
  }
}

bool ChainRunner::PrunePanes(Snapshot& s, Timestamp now) const {
  // Pane p feeds windows j <= p; the newest of them ends at
  // p*slide + length. Once now passes that, the pane is dead.
  auto& v = s.per_pane;
  size_t drop = 0;
  while (drop < v.size() &&
         v[drop].pane * window_.slide + window_.length <= now) {
    ++drop;
  }
  if (drop > 0) v.erase(v.begin(), v.begin() + drop);
  return !v.empty();
}

size_t ChainRunner::ExpireBefore(Timestamp now) {
  size_t panes_freed = 0;
  for (auto& stage : stages_) {
    while (!stage.empty() && window_.Expired(stage.front().start_time, now)) {
      panes_freed += std::max<size_t>(stage.front().per_pane.size(), 1);
      pane_pool_.push_back(std::move(stage.front().per_pane));
      stage.pop_front();
    }
    // Snapshots whose own start is live may still hold dead panes (the
    // chain's first event is older than the snapshot); prune those too so
    // watermark-driven eviction leaves only reachable state behind.
    for (size_t i = 0; i < stage.size(); ++i) {
      Snapshot& s = stage[i];
      const size_t before = s.per_pane.size();
      PrunePanes(s, now);
      panes_freed += before - s.per_pane.size();
    }
  }
  return panes_freed;
}

size_t ChainRunner::NumLivePanes() const {
  size_t n = 0;
  for (const auto& stage : stages_) {
    for (size_t i = 0; i < stage.size(); ++i) n += stage[i].per_pane.size();
  }
  return n;
}

bool ChainRunner::Empty() const {
  for (const auto& stage : stages_) {
    if (!stage.empty()) return false;
  }
  return true;
}

void ChainRunner::SaveState(serde::BinaryWriter& w) const {
  w.U64(stages_.size());
  for (const auto& stage : stages_) {
    serde::SaveRingDeque(
        w, stage, [](serde::BinaryWriter& out, const Snapshot& s) {
          out.U64(s.start);
          out.I64(s.start_time);
          out.U64(s.per_pane.size());
          for (const PaneAgg& pa : s.per_pane) {
            out.I64(pa.pane);
            SaveAggState(out, pa.agg);
          }
        });
  }
}

std::string ChainRunner::LoadState(serde::BinaryReader& r) {
  const uint64_t nstages = r.U64();
  if (nstages != stages_.size()) {
    return "chain stage count mismatch (plan does not match the "
           "checkpointed plan)";
  }
  for (auto& stage : stages_) {
    serde::LoadRingDeque(r, stage, [](serde::BinaryReader& in, Snapshot& s) {
      s.start = in.U64();
      s.start_time = in.I64();
      const uint64_t npanes = in.U64();
      s.per_pane.clear();
      for (uint64_t i = 0; i < npanes && in.ok(); ++i) {
        PaneAgg pa;
        pa.pane = in.I64();
        pa.agg = LoadAggState(in);
        s.per_pane.push_back(pa);
      }
    });
  }
  if (!r.ok()) return "chain runner state truncated";
  // The restored engine releases only events at or above its reorder
  // frontier, all later than anything processed before the checkpoint, so
  // the ordering contract stays intact with the sentinel reset.
  last_time_ = -1;
  return "";
}

size_t ChainRunner::EstimatedBytes() const {
  size_t bytes = 0;
  for (const auto& stage : stages_) {
    bytes += stage.size() * sizeof(Snapshot);
    for (size_t i = 0; i < stage.size(); ++i) {
      bytes += stage[i].per_pane.size() * sizeof(PaneAgg);
    }
  }
  return bytes;
}

}  // namespace sharon
