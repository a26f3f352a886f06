#include "src/checkpoint/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace sharon::checkpoint {

namespace {

// boost::hash_combine-style accumulation over 64-bit words.
uint64_t Mix(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

void SaveScalars(serde::BinaryWriter& w, const Engine::ScalarState& s) {
  w.I64(s.now);
  w.I64(s.frontier);
  w.I64(s.high_mark);
  w.I64(s.next_finalize);
  w.I64(s.results_floor);
  w.U64(s.events_since_sweep);
  w.I64(s.wm.watermark);
  w.I64(s.wm.safe_point);
  w.U64(s.wm.late_dropped);
  w.U64(s.wm.evicted_panes);
  w.U64(s.wm.evicted_groups);
  w.U64(s.wm.finalized_windows);
  w.U64(s.wm.finalized_cells);
  w.U64(s.wm.suppressed_cells);
  w.U64(s.wm.regressions);
  w.U64(s.wm.buffered_peak);
}

Engine::ScalarState LoadScalars(serde::BinaryReader& r) {
  Engine::ScalarState s;
  s.now = r.I64();
  s.frontier = r.I64();
  s.high_mark = r.I64();
  s.next_finalize = r.I64();
  s.results_floor = r.I64();
  s.events_since_sweep = r.U64();
  s.wm.watermark = r.I64();
  s.wm.safe_point = r.I64();
  s.wm.late_dropped = r.U64();
  s.wm.evicted_panes = r.U64();
  s.wm.evicted_groups = r.U64();
  s.wm.finalized_windows = r.U64();
  s.wm.finalized_cells = r.U64();
  s.wm.suppressed_cells = r.U64();
  s.wm.regressions = r.U64();
  s.wm.buffered_peak = r.U64();
  return s;
}

void SaveCell(serde::BinaryWriter& w, const CellRecord& c) {
  w.U8(c.store);
  w.U32(c.query);
  w.I64(c.window);
  w.I64(c.group);
  SaveAggState(w, c.state);
}

CellRecord LoadCell(serde::BinaryReader& r) {
  CellRecord c;
  c.store = r.U8();
  c.query = r.U32();
  c.window = r.I64();
  c.group = r.I64();
  c.state = LoadAggState(r);
  return c;
}

void SaveEvent(serde::BinaryWriter& w, const Event& e) {
  w.I64(e.time);
  w.U32(e.type);
  serde::SaveAttrs(w, e.attrs);
}

Event LoadEvent(serde::BinaryReader& r) {
  Event e;
  e.time = r.I64();
  e.type = r.U32();
  serde::LoadAttrs(r, e.attrs);
  return e;
}

/// Collects every cell of `store` tagged with `store_id`.
void CollectCells(const ResultCollector& store, uint8_t store_id,
                  std::vector<CellRecord>* out) {
  store.ForEachCell([&](const ResultKey& key, const AggState& state) {
    out->push_back({store_id, key.query, key.window, key.group, state});
  });
}

/// Encodes the four per-engine frames for segment `segment`.
void EncodeEngineFrames(const Engine& engine, size_t segment,
                        std::vector<uint8_t>& out) {
  {
    serde::BinaryWriter w;
    w.U64(segment);
    SaveScalars(w, engine.SaveScalarState());
    AppendFrame(out, FrameTag::kEngineScalars, w.buffer());
  }
  {
    serde::BinaryWriter w;
    w.U64(segment);
    engine.SaveGroupStates(w);
    AppendFrame(out, FrameTag::kGroups, w.buffer());
  }
  {
    std::vector<CellRecord> cells;
    CollectCells(engine.staged_results(), 0, &cells);
    CollectCells(engine.results(), 1, &cells);
    serde::BinaryWriter w;
    w.U64(segment);
    w.U64(cells.size());
    for (const CellRecord& c : cells) SaveCell(w, c);
    AppendFrame(out, FrameTag::kResultCells, w.buffer());
  }
  {
    std::vector<Event> buffered;
    engine.SaveBufferedEvents([&](const Event& e) { buffered.push_back(e); });
    serde::BinaryWriter w;
    w.U64(segment);
    w.U64(buffered.size());
    for (const Event& e : buffered) SaveEvent(w, e);
    AppendFrame(out, FrameTag::kReorder, w.buffer());
  }
}

uint64_t CompiledFingerprint(const CompiledEngine& compiled) {
  uint64_t h = 0x53686172u;  // "Shar"
  h = Mix(h, static_cast<uint64_t>(compiled.window.length));
  h = Mix(h, static_cast<uint64_t>(compiled.window.slide));
  h = Mix(h, compiled.partition);
  h = Mix(h, compiled.counters.size());
  for (const auto& c : compiled.counters) {
    h = Mix(h, c.shared ? 1 : 0);
    h = Mix(h, static_cast<uint64_t>(c.spec.fn));
    h = Mix(h, c.spec.target_type);
    h = Mix(h, c.spec.target_attr);
    h = Mix(h, c.pattern.length());
    for (EventTypeId t : c.pattern.types()) h = Mix(h, t);
  }
  h = Mix(h, compiled.chains.size());
  for (const auto& ch : compiled.chains) {
    h = Mix(h, ch.queries.size());
    for (QueryId q : ch.queries) h = Mix(h, q);
    h = Mix(h, ch.counter_idx.size());
    for (uint32_t ci : ch.counter_idx) h = Mix(h, ci);
  }
  return h;
}

}  // namespace

void AppendFrame(std::vector<uint8_t>& out, FrameTag tag,
                 const std::vector<uint8_t>& payload) {
  serde::BinaryWriter header;
  header.U32(kMagic);
  header.U32(static_cast<uint32_t>(tag));
  header.U64(payload.size());
  out.insert(out.end(), header.buffer().begin(), header.buffer().end());
  out.insert(out.end(), payload.begin(), payload.end());
  serde::BinaryWriter crc;
  crc.U32(serde::Crc32(payload.data(), payload.size()));
  out.insert(out.end(), crc.buffer().begin(), crc.buffer().end());
}

std::string FrameParser::Next(FrameTag* tag, serde::BinaryReader* payload) {
  if (done_) return "frame read past the end-of-file sentinel";
  if (size_ - pos_ < 20) return "truncated frame header";
  serde::BinaryReader header(data_ + pos_, 16);
  if (header.U32() != kMagic) return "bad frame magic (not a checkpoint?)";
  const uint32_t raw_tag = header.U32();
  const uint64_t len = header.U64();
  if (raw_tag < static_cast<uint32_t>(FrameTag::kManifest) ||
      raw_tag > static_cast<uint32_t>(FrameTag::kEnd)) {
    return "unknown frame tag " + std::to_string(raw_tag);
  }
  if (len > size_ - pos_ - 20) return "frame length exceeds file size";
  const uint8_t* body = data_ + pos_ + 16;
  serde::BinaryReader crc(body + len, 4);
  if (crc.U32() != serde::Crc32(body, static_cast<size_t>(len))) {
    return "frame CRC mismatch (corrupt checkpoint)";
  }
  pos_ += 20 + static_cast<size_t>(len);
  *tag = static_cast<FrameTag>(raw_tag);
  *payload = serde::BinaryReader(body, static_cast<size_t>(len));
  if (*tag == FrameTag::kEnd) {
    done_ = true;
    if (pos_ != size_) return "trailing bytes after end-of-file frame";
  }
  return "";
}

uint64_t PlanFingerprint(const MultiEnginePlan& plan) {
  // The routing is the original ids per segment (none for a UniformPlan,
  // whose identity routing must not pin the workload size: query churn
  // grows it). The compiled chains already name every routed query.
  uint64_t h = 0x4d756c74u;  // "Mult"
  h = Mix(h, plan.segments.size());
  for (const auto& seg : plan.segments) {
    h = Mix(h, seg.compiled ? CompiledFingerprint(*seg.compiled) : 0);
    h = Mix(h, seg.original_ids.size());
    for (QueryId q : seg.original_ids) h = Mix(h, q);
  }
  return h;
}

std::string SaveManifest(const Manifest& m, const std::string& path) {
  serde::BinaryWriter w;
  w.U32(m.version);
  w.U64(m.checkpoint_id);
  w.I64(m.boundary);
  w.U64(m.num_shards);
  w.U64(m.num_segments);
  w.U32(m.partition);
  w.U64(m.plan_fingerprint);
  w.U8(m.disorder.enabled ? 1 : 0);
  w.I64(m.disorder.max_lateness);
  w.U8(m.disorder.evict ? 1 : 0);
  w.U8(m.disorder.close_on_finish ? 1 : 0);
  w.I64(m.merged_watermark);
  w.I64(m.ingest_high_mark);
  w.U64(m.swaps_requested);
  w.U64(m.events_ingested);
  std::vector<uint8_t> bytes;
  AppendFrame(bytes, FrameTag::kManifest, w.buffer());
  AppendFrame(bytes, FrameTag::kEnd, {});
  return WriteFileBytes(path, bytes);
}

std::string LoadManifest(const std::string& path, Manifest* out) {
  std::vector<uint8_t> bytes;
  std::string err = ReadFileBytes(path, &bytes);
  if (!err.empty()) return err;
  FrameParser parser(bytes.data(), bytes.size());
  FrameTag tag;
  serde::BinaryReader r(nullptr, 0);
  err = parser.Next(&tag, &r);
  if (!err.empty()) return err;
  if (tag != FrameTag::kManifest) return "manifest frame missing";
  out->version = r.U32();
  if (out->version != kFormatVersion) {
    return "checkpoint format version mismatch: file has v" +
           std::to_string(out->version) + ", this build reads v" +
           std::to_string(kFormatVersion);
  }
  out->checkpoint_id = r.U64();
  out->boundary = r.I64();
  out->num_shards = r.U64();
  out->num_segments = r.U64();
  out->partition = r.U32();
  out->plan_fingerprint = r.U64();
  out->disorder.enabled = r.U8() != 0;
  out->disorder.max_lateness = r.I64();
  out->disorder.evict = r.U8() != 0;
  out->disorder.close_on_finish = r.U8() != 0;
  out->merged_watermark = r.I64();
  out->ingest_high_mark = r.I64();
  out->swaps_requested = r.U64();
  out->events_ingested = r.U64();
  if (!r.ok()) return "manifest truncated";
  return "";
}

std::vector<uint8_t> EncodeShardCheckpoint(const ShardCheckpointInput& in) {
  std::vector<uint8_t> out;
  const auto& engines = in.executor->engines();
  {
    serde::BinaryWriter w;
    w.U64(in.checkpoint_id);
    w.I64(in.boundary);
    w.U64(in.shard_index);
    w.U64(in.num_shards);
    w.U64(engines.size());
    w.I64(in.merged_watermark);
    AppendFrame(out, FrameTag::kShardHeader, w.buffer());
  }
  for (size_t s = 0; s < engines.size(); ++s) {
    EncodeEngineFrames(*engines[s], s, out);
  }
  {
    std::vector<CellRecord> cells;
    if (in.archive) CollectCells(*in.archive, 1, &cells);
    serde::BinaryWriter w;
    w.U64(cells.size());
    for (const CellRecord& c : cells) SaveCell(w, c);
    AppendFrame(out, FrameTag::kArchiveCells, w.buffer());
  }
  {
    Engine::ScalarState retired;  // reuse the scalar schema, wm counters only
    if (in.retired) retired.wm = *in.retired;
    serde::BinaryWriter w;
    SaveScalars(w, retired);
    AppendFrame(out, FrameTag::kRetiredCounters, w.buffer());
  }
  AppendFrame(out, FrameTag::kEnd, {});
  return out;
}

std::string DecodeShardCheckpoint(const std::vector<uint8_t>& bytes,
                                  ShardCheckpointData* out) {
  FrameParser parser(bytes.data(), bytes.size());
  bool saw_header = false;
  while (!parser.done()) {
    FrameTag tag;
    serde::BinaryReader r(nullptr, 0);
    std::string err = parser.Next(&tag, &r);
    if (!err.empty()) return err;
    if (tag != FrameTag::kShardHeader && tag != FrameTag::kEnd && !saw_header) {
      return "shard file does not start with a shard header frame";
    }
    switch (tag) {
      case FrameTag::kShardHeader: {
        saw_header = true;
        out->checkpoint_id = r.U64();
        out->boundary = r.I64();
        out->shard_index = r.U64();
        out->num_shards = r.U64();
        const uint64_t num_segments = r.U64();
        out->merged_watermark = r.I64();
        if (!r.ok()) return "shard header truncated";
        if (num_segments == 0 || num_segments > 4096) {
          return "implausible segment count in shard header";
        }
        out->segments.resize(static_cast<size_t>(num_segments));
        break;
      }
      case FrameTag::kEngineScalars: {
        const uint64_t seg = r.U64();
        if (seg >= out->segments.size()) return "segment index out of range";
        out->segments[static_cast<size_t>(seg)].scalars = LoadScalars(r);
        if (!r.ok()) return "engine scalars truncated";
        break;
      }
      case FrameTag::kGroups: {
        const uint64_t seg = r.U64();
        if (seg >= out->segments.size()) return "segment index out of range";
        auto& groups = out->segments[static_cast<size_t>(seg)].groups;
        const uint64_t count = r.U64();
        for (uint64_t i = 0; i < count && r.ok(); ++i) {
          // SaveFlatMap layout: length-prefixed record of (key, payload);
          // keep the payload opaque for the resharding router.
          serde::BinaryReader rec = r.Block();
          const AttrValue g = rec.I64();
          groups.emplace_back(g, rec.Rest());
        }
        if (!r.ok()) return "group records truncated";
        break;
      }
      case FrameTag::kResultCells: {
        const uint64_t seg = r.U64();
        if (seg >= out->segments.size()) return "segment index out of range";
        auto& cells = out->segments[static_cast<size_t>(seg)].cells;
        const uint64_t count = r.U64();
        for (uint64_t i = 0; i < count && r.ok(); ++i) {
          cells.push_back(LoadCell(r));
        }
        if (!r.ok()) return "result cells truncated";
        break;
      }
      case FrameTag::kReorder: {
        const uint64_t seg = r.U64();
        if (seg >= out->segments.size()) return "segment index out of range";
        auto& buffered = out->segments[static_cast<size_t>(seg)].buffered;
        const uint64_t count = r.U64();
        for (uint64_t i = 0; i < count && r.ok(); ++i) {
          buffered.push_back(LoadEvent(r));
        }
        if (!r.ok()) return "reorder buffer truncated";
        break;
      }
      case FrameTag::kArchiveCells: {
        const uint64_t count = r.U64();
        for (uint64_t i = 0; i < count && r.ok(); ++i) {
          out->archive.push_back(LoadCell(r));
        }
        if (!r.ok()) return "archive cells truncated";
        break;
      }
      case FrameTag::kRetiredCounters: {
        out->retired = LoadScalars(r).wm;
        if (!r.ok()) return "retired counters truncated";
        break;
      }
      case FrameTag::kManifest:
        return "manifest frame inside a shard file";
      case FrameTag::kEnd:
        break;
    }
  }
  if (!saw_header) return "shard file has no shard header frame";
  return "";
}

std::string ShardFileName(size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard-%03zu.bin", index);
  return buf;
}

std::string WriteFileBytes(const std::string& path,
                           const std::vector<uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
#if defined(__unix__) || defined(__APPLE__)
  // Temp file + fsync + rename + directory fsync: after a power loss the
  // final name either does not exist or holds the complete bytes — which
  // is what lets "manifest present" mean "checkpoint valid". A rename
  // without the fsyncs can survive a crash that the data blocks did not.
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return "cannot open " + tmp + " for writing";
  const bool wrote =
      bytes.empty() || std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                           bytes.size();
  const bool flushed = std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
  std::fclose(f);
  if (!wrote || !flushed) return "write failed on " + tmp;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return "rename " + tmp + " -> " + path + " failed";
  }
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int dir_fd = ::open(dir.empty() ? "." : dir.c_str(),
                            O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);  // make the rename itself durable
    ::close(dir_fd);
  }
  return "";
#else
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return "cannot open " + tmp + " for writing";
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!f) return "write failed on " + tmp;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return "rename " + tmp + " -> " + path + " failed";
  }
  return "";
#endif
}

std::string ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return "cannot open " + path;
  const std::streamsize size = f.tellg();
  f.seekg(0);
  out->resize(static_cast<size_t>(size));
  if (size > 0 &&
      !f.read(reinterpret_cast<char*>(out->data()), size)) {
    return "read failed on " + path;
  }
  return "";
}

}  // namespace sharon::checkpoint
