// Runtime configuration and per-shard / aggregate counters.
//
// Built on the explicit-measurement style of src/common/metrics.h: shards
// count what they do (events, batches, busy seconds) and the producer
// counts what it had to wait for (full queues), so throughput numbers are
// deterministic functions of the run rather than sampled estimates.

#ifndef SHARON_RUNTIME_RUNTIME_STATS_H_
#define SHARON_RUNTIME_RUNTIME_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/metrics.h"
#include "src/common/watermark.h"
#include "src/obs/runtime_telemetry.h"
#include "src/runtime/plan_swap.h"

namespace sharon::runtime {

/// Tuning knobs of the sharded runtime.
struct RuntimeOptions {
  /// Worker shards. 0 means one per available hardware thread.
  size_t num_shards = 0;

  /// Maximum events per ingest batch. Larger batches amortize queue
  /// traffic. A watermark punctuation or control marker always ends its
  /// batch (it is pushed with the call), so under a disorder policy
  /// result latency is the punctuation cadence plus the shards' release
  /// work, whatever the batch size; only data events ingested since the
  /// last punctuation wait for a batch to fill (or for Flush/Finish).
  size_t batch_size = 256;

  /// Ring-buffer slots (batches) per (producer, shard) channel. Bounds
  /// in-flight memory to roughly ingest_partitions * num_shards *
  /// queue_capacity * batch_size events and is the mechanism of
  /// backpressure.
  size_t queue_capacity = 64;

  /// Ingest producer partitions. Each partition is an independent
  /// single-threaded producer (ShardedRuntime::ingest_partition) with a
  /// private SPSC channel to every shard, so N producer threads feed the
  /// runtime without sharing a queue. Values > 1 require a disorder
  /// policy: events of one group may then interleave across producers,
  /// and only the shard-side reorder buffer (watermark contract,
  /// src/common/watermark.h) restores the deterministic time order the
  /// executors need. Each shard merges watermarks as the MINIMUM over
  /// producer frontiers.
  size_t ingest_partitions = 1;

  /// Bounded-disorder contract for out-of-order streams (disabled by
  /// default: the seed's in-order behaviour). When enabled, every shard's
  /// executor reorders/finalizes/evicts, watermark punctuations are
  /// broadcast to all shards, and ResultMerger exposes Finalized().
  DisorderPolicy disorder;

  /// Observability switches (src/obs/). Both off by default, leaving the
  /// hot path exactly as in the seed; when enabled the runtime builds a
  /// RuntimeTelemetry, wires per-shard/per-partition cells and trace
  /// rings, and exposes TelemetrySnapshot() / DumpTrace().
  obs::ObsOptions obs;

  size_t ResolvedShards() const {
    if (num_shards > 0) return num_shards;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
  }
};

/// Counters of one shard. The worker thread owns events/batches/
/// busy_seconds/idle_spins; the ingest thread owns queue_full_stalls.
/// Read them together only after the runtime finished.
struct ShardStats {
  uint64_t events = 0;        ///< events processed by the worker
  uint64_t batches = 0;       ///< batches popped by the worker
  uint64_t queue_full_stalls = 0;  ///< producer yields on a full queue
  uint64_t idle_spins = 0;    ///< worker yields on an empty queue
  uint64_t recycle_drops = 0; ///< batch buffers the free ring refused
  double busy_seconds = 0;    ///< wall time spent inside engine code

  /// Mean events per popped batch (batch occupancy).
  double AvgBatchOccupancy() const {
    return batches > 0 ? static_cast<double>(events) /
                             static_cast<double>(batches)
                       : 0;
  }

  /// Events per second of shard busy time.
  double BusyThroughput() const {
    return busy_seconds > 0
               ? static_cast<double>(events) / busy_seconds
               : 0;
  }
};

/// Counters of one ingest partition (owned by its producer thread; read
/// together with the rest of the stats after the runtime finished).
/// The batch-buffer counters measure the recycling ring: in steady state
/// every pushed batch rides a recycled buffer and batch_allocs stays at
/// its warm-up figure — the zero-allocation ingest invariant the
/// scaling bench records (DESIGN.md "Hot-path memory layout").
struct IngestStats {
  uint64_t events = 0;            ///< data events routed by this producer
  uint64_t watermarks = 0;        ///< punctuations broadcast
  uint64_t batches = 0;           ///< batches pushed to shard channels
  uint64_t batches_recycled = 0;  ///< pushes that reused a pooled buffer
  uint64_t batch_allocs = 0;      ///< pushes that allocated a fresh buffer
  uint64_t queue_full_stalls = 0; ///< producer yields on full channels
};

/// Aggregate counters of one sharded run.
struct RuntimeStats {
  std::vector<ShardStats> shards;
  /// Per-producer ingest counters (index-aligned with the runtime's
  /// ingest partitions).
  std::vector<IngestStats> ingest;
  /// Per-shard watermark/eviction counters (index-aligned with shards;
  /// empty when the runtime ran without a disorder policy).
  std::vector<WatermarkStats> shard_watermarks;
  /// Completed plan hot-swaps, in swap order, rolled up across shards
  /// (src/runtime/plan_swap.h; empty when no swap was requested).
  std::vector<PlanSwapStats> plan_swaps;
  uint64_t events_ingested = 0;
  uint64_t watermarks_ingested = 0;  ///< punctuations broadcast to shards
  double wall_seconds = 0;  ///< Start() to Finish(), ingest included

  /// Number of plan swaps every shard completed.
  uint64_t CompletedSwaps() const { return plan_swaps.size(); }

  /// Slowest per-swap stall (dual-run span) across all completed swaps.
  double MaxSwapStallSeconds() const {
    double s = 0;
    for (const PlanSwapStats& p : plan_swaps) {
      s = std::max(s, p.max_dual_run_seconds);
    }
    return s;
  }

  /// Cross-shard watermark rollup: watermark/safe point are the MIN over
  /// shards (the merged finalization frontier), counters are sums.
  WatermarkStats Watermarks() const {
    WatermarkStats out;
    for (const WatermarkStats& w : shard_watermarks) out.MergeFrom(w);
    return out;
  }

  uint64_t TotalLateDropped() const {
    uint64_t n = 0;
    for (const WatermarkStats& w : shard_watermarks) n += w.late_dropped;
    return n;
  }

  uint64_t TotalEvictedPanes() const {
    uint64_t n = 0;
    for (const WatermarkStats& w : shard_watermarks) n += w.evicted_panes;
    return n;
  }

  /// Stream events per wall second (NOT multiplied by workload size; see
  /// RunStats::Throughput for the paper's per-query convention).
  double EventsPerSecond() const {
    return wall_seconds > 0
               ? static_cast<double>(events_ingested) / wall_seconds
               : 0;
  }

  uint64_t TotalStalls() const {
    uint64_t n = 0;
    for (const ShardStats& s : shards) n += s.queue_full_stalls;
    return n;
  }

  /// Fresh batch-buffer allocations across producers (warm-up cost; flat
  /// in steady state thanks to the recycling rings).
  uint64_t TotalBatchAllocs() const {
    uint64_t n = 0;
    for (const IngestStats& s : ingest) n += s.batch_allocs;
    return n;
  }

  uint64_t TotalBatchesRecycled() const {
    uint64_t n = 0;
    for (const IngestStats& s : ingest) n += s.batches_recycled;
    return n;
  }

  double TotalBusySeconds() const {
    double t = 0;
    for (const ShardStats& s : shards) t += s.busy_seconds;
    return t;
  }

  /// Mean batch occupancy across shards, weighted by batches.
  double AvgBatchOccupancy() const {
    uint64_t events = 0, batches = 0;
    for (const ShardStats& s : shards) {
      events += s.events;
      batches += s.batches;
    }
    return batches > 0
               ? static_cast<double>(events) / static_cast<double>(batches)
               : 0;
  }
};

}  // namespace sharon::runtime

#endif  // SHARON_RUNTIME_RUNTIME_STATS_H_
