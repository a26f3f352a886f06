// Watermark-aligned sharing-plan hot-swap: the runtime-side mechanics of
// adaptive re-optimization (policy lives in src/adaptive/plan_manager.h).
//
// A swap replaces the compiled sharing plan of every shard's executor
// while the stream keeps flowing, without losing, duplicating or altering
// a single finalized result cell. The trick is to cut the WINDOW set, not
// the event stream: sliding windows overlap, so no single timestamp
// separates "old plan's events" from "new plan's events" — but every
// window closes exactly once.
//
//   boundary B   = a window close on the workload's window grid, chosen
//                  past the ingest high-mark so that no event of any
//                  window closing after B has been routed yet
//   old engine   owns every window closing <= B: it keeps receiving
//                  events below B, its watermark is CAPPED at
//                  B + max_lateness so it finalizes exactly its windows
//                  and then retires (results drained into the shard's
//                  archive)
//   new engine   owns every window closing > B: it is instantiated from
//                  the new CompiledPlanHandle when the in-band control
//                  marker arrives, receives every event at or above the
//                  first such window's start (events in the overlap
//                  [B+slide-length, B) are TEED to both engines), and a
//                  results floor discards its partial cells for windows
//                  closing <= B
//
// Because each window is computed by exactly one engine from exactly the
// events the sorted stream puts in it, finalized cells stay bit-identical
// to an oracle run under any swap schedule (tests/adaptive_swap_test.cc).
//
// The same cut serves checkpoints (src/checkpoint/): a checkpoint quiesces
// every shard at the marker position and serializes its executor there.
// Both operations therefore share one mechanism. The runtime stages ONE
// ControlCommand in every shard's control slot, then broadcasts ONE
// in-band control marker (type kControlMarkerType) that holds the cut's
// position relative to data events through the batch queues — the same
// trick watermarks use. The command travels beside the stream because a
// shared_ptr plan handle cannot ride inside an Event; it is staged
// strictly before the marker is broadcast, so the worker always finds it
// when the marker arrives, and dispatches on its kind. A slot holds one
// command at a time, so at most one control op (a swap or a checkpoint)
// is in flight: a checkpoint never cuts a dual run, and a swap never
// starts between a checkpoint's command and its marker.
//
// With several ingest partitions the marker is broadcast on EVERY
// partition's channels; a shard executes the operation only once the
// marker of every channel arrived, holding each aligned channel's
// subsequent events until then (Shard::OnControlMarker) — the same
// min-over-channels discipline watermark merging uses. Control requests
// therefore require all producer threads to be externally quiescent for
// the duration of the call, nothing more.

#ifndef SHARON_RUNTIME_PLAN_SWAP_H_
#define SHARON_RUNTIME_PLAN_SWAP_H_

#include <cstdint>
#include <string>

#include "src/common/event.h"
#include "src/common/time.h"
#include "src/exec/engine.h"

namespace sharon::runtime {

/// Punctuation type of the in-band control marker (kInvalidType is taken
/// by watermarks). Markers are runtime-internal: they are broadcast by
/// ShardedRuntime's control requests and consumed by Shard workers, never
/// fed to an executor.
inline constexpr EventTypeId kControlMarkerType =
    static_cast<EventTypeId>(-2);

/// Builds the in-band marker that runs the command staged in a shard's
/// control slot.
inline Event ControlMarkerEvent() {
  Event e;
  e.type = kControlMarkerType;
  return e;
}

/// True if `e` is a control marker rather than a data event or watermark.
inline bool IsControlMarker(const Event& e) {
  return e.type == kControlMarkerType;
}

/// Typed refusal codes for the runtime's control operations (plan swap
/// and checkpoint). The human-readable `reason` strings explain; the code
/// is what callers branch on — in particular the mutual exclusion between
/// swaps and checkpoints (a checkpoint is refused kSwapInFlight while a
/// swap drains, a swap is refused kCheckpointInFlight while a checkpoint
/// marker is still in the queues; tests/checkpoint_test.cc regression-
/// tests both orders). The numbers are exported as the `a` payload of
/// kSwapRejected/kCheckpointRejected trace events, so they never change.
enum class OpRefusal : uint8_t {
  kNone = 0,                ///< accepted
  kNotRunning = 1,          ///< runtime failed to construct or already finished
  kNotUniform = 2,          ///< runtime built from a MultiEnginePlan
  kNoDisorderPolicy = 3,    ///< operation requires watermarks
  // 4 is retired: it refused multi-producer cuts before markers aligned
  // per channel.
  kBadPlan = 5,             ///< null plan or plan from a different workload
  kSwapInFlight = 6,        ///< a plan swap has not retired on every shard yet
  kCheckpointInFlight = 7,  ///< a checkpoint has not completed on every shard
  kShardRefused = 8,        ///< a shard rejected the staged command
  kIoError = 9,             ///< checkpoint directory/file write failed
};

/// Which control operation holds a shard's control slot.
enum class ControlKind : uint8_t { kNone, kSwap, kCheckpoint };

/// One control operation, as staged in every shard's control slot (side
/// channel; the in-band marker only says "run the staged command"). A
/// swap fills `plan`; a checkpoint fills `num_shards` and `dir`.
struct ControlCommand {
  ControlKind kind = ControlKind::kNone;
  uint64_t id = 0;          ///< sequence number within its kind
  Timestamp boundary = 0;   ///< window close B of the cut
  CompiledPlanHandle plan;  ///< swap: compiled new plan, shared by all shards
  size_t num_shards = 0;    ///< checkpoint: topology for the shard header
  std::string dir;          ///< checkpoint: directory of the shard files
};

/// What one shard measured for one completed swap (worker-owned; read
/// after Join like the rest of ShardStats).
struct ShardSwapRecord {
  uint64_t id = 0;
  Timestamp boundary = 0;
  /// Marker pickup to old-engine retirement, wall seconds: the dual-run
  /// span during which the shard carries both engines.
  double dual_run_seconds = 0;
  /// Events in the overlap [B+slide-length, B) processed by BOTH engines.
  uint64_t teed_events = 0;
  /// Peak combined executor bytes observed during the dual run (sampled
  /// at watermark application, the only points state can shrink anyway).
  size_t peak_dual_bytes = 0;
  /// Executor bytes right after the old engine retired — the "recovery"
  /// figure the drift bench plots against peak_dual_bytes.
  size_t post_swap_bytes = 0;
};

/// Cross-shard rollup of one swap (RuntimeStats::plan_swaps). A swap's
/// stall is the SLOWEST shard's dual-run span: until then the runtime as
/// a whole still carries old-plan state.
struct PlanSwapStats {
  uint64_t id = 0;
  Timestamp boundary = 0;
  double max_dual_run_seconds = 0;  ///< per-swap stall time
  uint64_t teed_events = 0;         ///< summed over shards
  size_t peak_dual_bytes = 0;       ///< summed over shards
  size_t post_swap_bytes = 0;       ///< summed over shards
  size_t shards_completed = 0;
};

}  // namespace sharon::runtime

#endif  // SHARON_RUNTIME_PLAN_SWAP_H_
