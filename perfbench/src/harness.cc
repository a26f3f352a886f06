#include "perfbench/src/harness.h"

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>

namespace perfbench {

using sharon::AggState;
using sharon::QueryId;
using sharon::ResultKey;

int64_t NowNs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// --- report ------------------------------------------------------------

namespace {

void PrintMetrics(const char* tag, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-6s %-28s %16.6f %s\n", tag, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void PrintReport(const Report& report, const std::string& workload,
                 bool trace) {
  std::printf("workload %s (%s run)\n", workload.c_str(),
              trace ? "traced" : "end-to-end");
  for (const std::string& n : report.notes) std::printf("note   %s\n", n.c_str());
  PrintMetrics("e2e", report.end_to_end);
  if (trace) {
    PrintMetrics("layer", report.per_layer);
    PrintMetrics("layer", report.layer_extra);
  }
  const double failed_frac =
      report.attempted > 0 ? static_cast<double>(report.failed) /
                                 static_cast<double>(report.attempted)
                           : 1.0;
  std::printf("e2e    %-28s %16.9f fraction (%llu of %llu)\n", "failed_frac",
              failed_frac, static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));

  const std::vector<Metric>& shown = trace ? report.per_layer : report.end_to_end;
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < shown.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + shown[i].name + "\": {\"value\": " +
            JsonNumber(shown[i].value) + ", \"unit\": \"" + shown[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- process memory ----------------------------------------------------

namespace {

int64_t ReadStatusKb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return -1;
  char line[256];
  int64_t kb = -1;
  const size_t len = std::strlen(key);
  while (std::fgets(line, sizeof(line), f)) {
    if (std::strncmp(line, key, len) == 0 && line[len] == ':') {
      kb = std::strtoll(line + len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

}  // namespace

int64_t ResetPeakRss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);  // 5: reset the peak RSS mark to the current RSS
    std::fclose(f);
  }
  return ReadStatusKb("VmRSS");
}

double PeakRssGrowthMb(int64_t baseline_kb) {
  const int64_t hwm = ReadStatusKb("VmHWM");
  return static_cast<double>(hwm - baseline_kb) / 1024.0;
}

// --- freshness probe ---------------------------------------------------

FreshnessProbe::FreshnessProbe(sharon::runtime::ShardedRuntime& rt,
                               const WindowSpec& window, Duration max_lateness)
    : window_(window), max_lateness_(max_lateness) {
  for (size_t i = 0; i < rt.num_shards(); ++i) {
    safe_points_.push_back(rt.telemetry()->engine_obs(i)->safe_point);
  }
}

void FreshnessProbe::OnPunctuation(Timestamp watermark, int64_t due_ns,
                                   int64_t call_begin_ns, int64_t call_end_ns) {
  const Timestamp safe = watermark - max_lateness_;
  offered_safe_ = std::max(offered_safe_, safe);
  if (safe < window_.length) return;
  const WindowId last = (safe - window_.length) / window_.slide;
  for (; next_window_ <= last; ++next_window_) {
    pending_.push_back(
        {next_window_, watermark, due_ns, 0, call_begin_ns, call_end_ns});
  }
}

void FreshnessProbe::Poll(int64_t now_ns) {
  Timestamp safe = sharon::kWatermarkMax;
  for (const sharon::obs::GaugeCell* g : safe_points_) {
    const Timestamp shard = g->value();
    safe = std::min(safe, shard);
    if (shard > offered_safe_ && ahead_.empty()) {
      ahead_ = "a shard published safe point " + std::to_string(shard) +
               " but the punctuations offered so far allow only " +
               std::to_string(offered_safe_);
    }
  }
  while (!pending_.empty() &&
         window_.WindowEnd(pending_.front().window) <= safe) {
    Sealed s = pending_.front();
    pending_.pop_front();
    s.sealed_ns = now_ns;
    sealed_.push_back(s);
  }
}

std::string CheckProbe(
    const FreshnessProbe& probe, const sharon::runtime::ResultMerger& results,
    const sharon::Workload& workload,
    const std::function<bool(QueryId, Timestamp)>& owns) {
  // Windows are registered in order from window 0 and sealed in that
  // order, so a drained probe sampled every window its punctuations
  // covered, none skipped.
  if (!probe.ahead().empty()) return probe.ahead();
  if (!probe.Drained()) return "probe still has unsealed windows";
  for (const FreshnessProbe::Sealed& s : probe.sealed()) {
    for (const sharon::Query& q : workload.queries()) {
      if (!owns(q.id, q.window.WindowEnd(s.window))) continue;
      if (!results.Finalized(q.id, s.window)) {
        return "window " + std::to_string(s.window) + " sealed by the " +
               "probe but not finalized for query " + std::to_string(q.id);
      }
    }
  }
  return "";
}

// --- oracle ------------------------------------------------------------

OracleDiff DiffAgainstOracle(const sharon::ResultCollector& oracle,
                             const sharon::runtime::ResultMerger& results) {
  OracleDiff d;
  uint64_t matched = 0;
  results.ForEachCell([&](const ResultKey& key, const AggState& state) {
    const AggState* want = oracle.FindCell(key.query, key.window, key.group);
    if (!want) {
      ++d.extra;
      return;
    }
    if (!(*want == state)) {
      ++d.mismatched;
    } else {
      ++matched;
    }
    if (!results.Finalized(key.query, key.window)) ++d.unfinalized;
  });
  const uint64_t oracle_cells = oracle.size();
  const uint64_t found = matched + d.mismatched;
  d.missing = oracle_cells > found ? oracle_cells - found : 0;
  d.checked = oracle_cells + d.extra;
  return d;
}

// --- spans -------------------------------------------------------------

int64_t SpanRecorder::Add(std::string name, int64_t parent, int64_t begin_ns,
                          int64_t end_ns, Timestamp key, std::string attrs) {
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back({std::move(name), parent, begin_ns, end_ns, key,
                    std::move(attrs)});
  children_.emplace_back();
  if (parent >= 0) children_[static_cast<size_t>(parent)].push_back(id);
  return id;
}

int64_t SpanRecorder::SelfNs(int64_t id) const {
  const Span& s = spans_[static_cast<size_t>(id)];
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (const int64_t c : children_[static_cast<size_t>(id)]) {
    const Span& k = spans_[static_cast<size_t>(c)];
    const int64_t b = std::max(k.begin_ns, s.begin_ns);
    const int64_t e = std::min(k.end_ns, s.end_ns);
    if (e > b) cover.emplace_back(b, e);
  }
  std::sort(cover.begin(), cover.end());
  int64_t covered = 0, reach = s.begin_ns;
  for (const auto& [b, e] : cover) {
    const int64_t from = std::max(b, reach);
    if (e > from) covered += e - from;
    reach = std::max(reach, e);
  }
  return (s.end_ns - s.begin_ns) - covered;
}

bool SpanRecorder::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"parent\": %lld, \"name\": \"%s\", "
                 "\"begin_ns\": %lld, \"end_ns\": %lld, \"self_ns\": %lld, "
                 "\"key\": %lld%s%s}\n",
                 i, static_cast<long long>(s.parent), s.name.c_str(),
                 static_cast<long long>(s.begin_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(SelfNs(static_cast<int64_t>(i))),
                 static_cast<long long>(s.key), s.attrs.empty() ? "" : ", ",
                 s.attrs.c_str());
  }
  return std::fclose(f) == 0;
}

std::vector<std::pair<std::string, double>> SpanRecorder::SelfMsByName() const {
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans_.size(); ++i) {
    by_name[spans_[i].name] += NsToMs(SelfNs(static_cast<int64_t>(i)));
  }
  return {by_name.begin(), by_name.end()};
}

}  // namespace perfbench
