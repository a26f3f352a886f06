// Watermark-consistent checkpoint/restore of executor state.
//
// A checkpoint captures the COMPLETE state of a running workload — per-
// group prefix counters and chain snapshots, staged and finalized result
// cells, reorder-buffered events, watermark frontiers, counter rollups —
// at one consistent cut of the stream, so a restored process continues as
// if it had never stopped: finalized cells are bit-identical to an
// uninterrupted run (tests/checkpoint_diff_test.cc).
//
// The cut uses the same in-band marker discipline as the plan hot-swap
// (src/runtime/plan_swap.h): the ingest thread stages a command per shard
// and broadcasts a marker punctuation ordered after everything routed so
// far, each shard worker quiesces at the marker (it sits between batches,
// so no event is mid-flight in an executor) and serializes its private
// state, then resumes. Because every shard cuts at the same marker, and
// watermark punctuations are broadcast identically to all shards, the
// per-shard frontiers of the cut agree — that is what makes the boundary
// invariant hold:
//
//   Every window is finalized by exactly one process incarnation: windows
//   finalized before the cut travel inside the checkpoint as immutable
//   result cells; every other window is finalized by whichever process
//   resumes from the checkpoint (the finalization limit is part of the
//   serialized scalars, so a restored engine never re-finalizes).
//
// On-disk layout: one directory per checkpoint — `shard-NNN.bin` written
// by each shard worker (parallel I/O) plus `manifest.bin` written LAST by
// the coordinator; a directory without a manifest is a torn checkpoint
// and refuses to restore. A shard file holds the engine frames of every
// segment its MultiEngine runs (one for a uniform workload). Every file
// is a sequence of length-prefixed, schema-tagged, CRC-checked frames of
// endian-stable bytes (src/common/serde.h), so a checkpoint written on
// one machine restores on another.
//
// Restore may target a DIFFERENT shard count: all executor state except
// the shared scalars is keyed by the partition-attribute group, so the
// router re-partitions serialized group records, result cells and
// buffered events with the same ShardIndexFor hash the ingest path uses.
// ShardedRuntime::Checkpoint / ShardedRuntime::Restore coordinate the
// shards (src/runtime/sharded_runtime.h); this header owns the format.

#ifndef SHARON_CHECKPOINT_CHECKPOINT_H_
#define SHARON_CHECKPOINT_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/serde.h"
#include "src/common/watermark.h"
#include "src/exec/engine.h"
#include "src/exec/multi_engine.h"

namespace sharon::checkpoint {

/// Per-frame magic ("SHCK" little-endian) — catches misaligned or foreign
/// files before any length is trusted.
inline constexpr uint32_t kMagic = 0x4b434853;

/// Format version; bumped on any frame-schema change. Restore refuses a
/// mismatched version outright (no cross-version migration).
inline constexpr uint32_t kFormatVersion = 2;

/// Name of the coordinator-written manifest inside a checkpoint
/// directory. Written LAST: its presence marks the checkpoint complete.
inline constexpr char kManifestFileName[] = "manifest.bin";

/// Schema tag of one frame.
enum class FrameTag : uint32_t {
  kManifest = 1,        ///< checkpoint-wide metadata (manifest.bin only)
  kShardHeader = 2,     ///< shard index / topology of one shard file
  kEngineScalars = 3,   ///< one engine's non-group-keyed state
  kGroups = 4,          ///< one engine's per-group records
  kResultCells = 5,     ///< one engine's staged + finalized cells
  kReorder = 6,         ///< one engine's reorder-buffered events
  kArchiveCells = 7,    ///< shard archive (cells of swap-retired engines)
  kRetiredCounters = 8, ///< counter rollup of swap-retired engines
  kEnd = 9,             ///< end-of-file sentinel
};

/// Appends one frame: magic | tag | u64 payload length | payload |
/// CRC-32 of the payload.
void AppendFrame(std::vector<uint8_t>& out, FrameTag tag,
                 const std::vector<uint8_t>& payload);

/// Sequential frame reader with integrity checking. Every Next() call
/// verifies magic, bounds and CRC before handing out the payload.
class FrameParser {
 public:
  FrameParser(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  /// Advances to the next frame. Returns an empty string and fills
  /// tag/payload on success, a diagnostic otherwise (truncation, bad
  /// magic, CRC mismatch, trailing bytes past kEnd).
  std::string Next(FrameTag* tag, serde::BinaryReader* payload);

  /// True once the kEnd frame was consumed.
  bool done() const { return done_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool done_ = false;
};

/// Checkpoint-wide metadata. The fingerprint pins the compiled segments: a
/// checkpoint only restores into a runtime whose compiled templates are
/// structurally identical (group payloads are positional in them).
struct Manifest {
  uint32_t version = kFormatVersion;
  uint64_t checkpoint_id = 0;
  /// Watermark-aligned boundary recorded for the cut: the close of the
  /// last window whose start covers the ingest high-mark (the same grid
  /// point a plan swap would pick). Informational: the state cut is the
  /// marker position; the boundary names the first window whose
  /// finalization the restored incarnation can still influence.
  Timestamp boundary = 0;
  uint64_t num_shards = 0;
  uint64_t num_segments = 1;  ///< engines per shard (1 for a uniform plan)
  AttrIndex partition = kNoAttr;
  uint64_t plan_fingerprint = 0;
  DisorderPolicy disorder;
  Timestamp merged_watermark = kNoWatermark;  ///< min over shard frontiers
  Timestamp ingest_high_mark = 0;  ///< max routed data-event time
  uint64_t swaps_requested = 0;    ///< incumbent plan id (adaptive baseline)
  uint64_t events_ingested = 0;    ///< lifetime ingest count at the cut
};

/// Writes `manifest` to `path` (atomically: temp file + rename). Empty
/// string on success.
std::string SaveManifest(const Manifest& m, const std::string& path);

/// Reads and verifies a manifest. Refuses missing files, corrupt frames
/// and version mismatches with a diagnostic.
std::string LoadManifest(const std::string& path, Manifest* out);

/// Structural fingerprint of the segments a runtime runs: per segment, the
/// compiled plan's window, partition, counter templates (pattern,
/// projected spec, shared flag) and chain wiring, plus the original-id
/// routing. Two plans with equal fingerprints instantiate identical
/// per-group state layouts.
uint64_t PlanFingerprint(const MultiEnginePlan& plan);

/// One serialized result cell. `store` distinguishes staged (0) from
/// finalized (1) cells; archive cells ignore it.
struct CellRecord {
  uint8_t store = 0;
  QueryId query = 0;
  WindowId window = 0;
  AttrValue group = 0;
  AggState state;
};

/// What one shard worker hands the encoder at the marker cut. `executor`
/// must be set; archive/retired may be null (empty).
struct ShardCheckpointInput {
  uint64_t checkpoint_id = 0;
  Timestamp boundary = 0;
  size_t shard_index = 0;
  size_t num_shards = 0;
  Timestamp merged_watermark = kNoWatermark;
  const MultiEngine* executor = nullptr;
  const ResultCollector* archive = nullptr;
  const WatermarkStats* retired = nullptr;
};

/// Encodes one shard's complete state as a frame sequence (the contents
/// of one `shard-NNN.bin`).
std::vector<uint8_t> EncodeShardCheckpoint(const ShardCheckpointInput& in);

/// Decoded, routable form of one shard file. Group payloads stay opaque
/// (forwarded to Engine::LoadGroupState by the restore router).
struct ShardCheckpointData {
  uint64_t checkpoint_id = 0;
  Timestamp boundary = 0;
  uint64_t shard_index = 0;
  uint64_t num_shards = 0;
  Timestamp merged_watermark = kNoWatermark;

  struct SegmentState {
    Engine::ScalarState scalars;
    std::vector<std::pair<AttrValue, std::vector<uint8_t>>> groups;
    std::vector<CellRecord> cells;
    std::vector<Event> buffered;
  };
  std::vector<SegmentState> segments;
  std::vector<CellRecord> archive;
  WatermarkStats retired;
};

/// Parses and integrity-checks one shard file. Empty string on success.
std::string DecodeShardCheckpoint(const std::vector<uint8_t>& bytes,
                                  ShardCheckpointData* out);

/// `shard-NNN.bin` for shard `index`.
std::string ShardFileName(size_t index);

/// Whole-file binary read/write helpers (write is temp-file + rename so a
/// crash never leaves a half-written file under the final name). Empty
/// string on success.
std::string WriteFileBytes(const std::string& path,
                           const std::vector<uint8_t>& bytes);
std::string ReadFileBytes(const std::string& path, std::vector<uint8_t>* out);

}  // namespace sharon::checkpoint

#endif  // SHARON_CHECKPOINT_CHECKPOINT_H_
