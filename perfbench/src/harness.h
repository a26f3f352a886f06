// Shared machinery of the Sharon benchmark: wall clock, report, process
// memory, the freshness probe, the oracle diff and the span recorder.
//
// Everything here is benchmark-side. The program under test is driven
// only through its public API (src/sharon.h); the probe reads the
// runtime's published telemetry gauges, never private state.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "src/sharon.h"

namespace perfbench {

using sharon::Duration;
using sharon::Timestamp;
using sharon::WindowId;
using sharon::WindowSpec;

// --- clock -------------------------------------------------------------

/// Nanoseconds on the steady clock since the first call in this process.
int64_t NowNs();

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) / 1e9; }

// --- statistics --------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

// --- report ------------------------------------------------------------

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one benchmark run prints.
struct Report {
  std::vector<Metric> end_to_end;  ///< printed in the JSON line with --trace 0
  std::vector<Metric> per_layer;   ///< printed in the JSON line with --trace 1
  /// Layer figures of mechanisms only some workloads run, and counts
  /// that are 0 on every good run. Printed by name in the layer report,
  /// not in the JSON line, whose metric set is the same for every
  /// workload and holds no metric that reads 0.
  std::vector<Metric> layer_extra;
  std::vector<std::string> notes;  ///< human-readable diagnostics
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;

  void Fail(const std::string& why, uint64_t n = 1) {
    failed += n;
    notes.push_back("FAILED: " + why);
  }
};

/// Prints the human-readable report, then the one-line JSON result (the
/// last line of standard output).
void PrintReport(const Report& report, const std::string& workload,
                 bool trace);

// --- process memory ----------------------------------------------------

/// Returns free heap memory to the OS and resets the kernel's peak-RSS
/// mark (VmHWM) to the current RSS via /proc/self/clear_refs. Returns the
/// RSS at the reset, in kB.
int64_t ResetPeakRss();

/// Growth of VmHWM over `baseline_kb`, in MiB.
double PeakRssGrowthMb(int64_t baseline_kb);

// --- freshness probe ---------------------------------------------------

/// Samples result freshness from the outside, single-threaded: the ingest thread
/// registers each punctuation with its due time and polls between ingest
/// calls. A window is sealed once EVERY shard's published safe point
/// (EngineObs::safe_point, set right after the executor's release loop)
/// has reached the window's end; the sample runs from the due time of the
/// punctuation whose safe point covers that end.
class FreshnessProbe {
 public:
  /// `rt` must run with obs.metrics on; `window` is the workload's window.
  FreshnessProbe(sharon::runtime::ShardedRuntime& rt, const WindowSpec& window,
                 Duration max_lateness);

  /// A punctuation with watermark `watermark` was offered at `due_ns`.
  /// `call_begin_ns`/`call_end_ns` bound the IngestWatermark call.
  void OnPunctuation(Timestamp watermark, int64_t due_ns,
                     int64_t call_begin_ns, int64_t call_end_ns);

  /// Reads the shard gauges and seals every due window they cover.
  void Poll(int64_t now_ns);

  /// True when no registered window is still waiting to seal.
  bool Drained() const { return pending_.empty(); }

  struct Sealed {
    WindowId window = 0;
    Timestamp watermark = 0;  ///< punctuation whose safe point covered it
    int64_t due_ns = 0;
    int64_t sealed_ns = 0;
    int64_t call_begin_ns = 0;
    int64_t call_end_ns = 0;
  };
  const std::vector<Sealed>& sealed() const { return sealed_; }

  /// "" unless some poll saw a shard's safe point beyond what the
  /// punctuations offered so far allow; then the first such reading.
  const std::string& ahead() const { return ahead_; }

 private:
  std::vector<const sharon::obs::GaugeCell*> safe_points_;
  WindowSpec window_;
  Duration max_lateness_;
  /// Highest safe point the offered punctuations allow. The engines
  /// clamp a safe point at 0, so 0 is allowed from the start.
  Timestamp offered_safe_ = 0;
  std::string ahead_;
  WindowId next_window_ = 0;  ///< first window not yet registered
  std::deque<Sealed> pending_;
  std::vector<Sealed> sealed_;
};

/// Post-Finish self-check of one probed run: no poll may have seen a
/// safe point ahead of the offered punctuations, the probe must have
/// drained, and every window it sealed must be finalized for every query
/// in `owns`. The last test means something only when Finish does not
/// close the stream itself (DisorderPolicy::close_on_finish off), so that
/// every finalized window was finalized by a punctuation the probe
/// registered. Returns "" or a diagnostic.
std::string CheckProbe(
    const FreshnessProbe& probe, const sharon::runtime::ResultMerger& results,
    const sharon::Workload& workload,
    const std::function<bool(sharon::QueryId, Timestamp)>& owns);

// --- oracle ------------------------------------------------------------

/// Outcome of diffing finalized runtime cells against the oracle.
struct OracleDiff {
  uint64_t checked = 0;     ///< oracle cells plus runtime-only cells
  uint64_t mismatched = 0;  ///< present on both sides with different state
  uint64_t missing = 0;     ///< oracle cells the runtime lacks
  uint64_t extra = 0;       ///< runtime cells the oracle lacks
  uint64_t unfinalized = 0; ///< runtime cells not marked finalized
  uint64_t Failed() const { return mismatched + missing + extra + unfinalized; }
};

/// Diffs every finalized cell of `results` against `oracle` (the twostep
/// reference, restricted by the caller where query churn applies).
/// Allocation-free: the oracle is probed cell by cell.
OracleDiff DiffAgainstOracle(const sharon::ResultCollector& oracle,
                             const sharon::runtime::ResultMerger& results);

// --- spans -------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans nest through
/// `parent`; self time is a span's duration minus the union of its
/// children's intervals. Written out as JSON lines at exit.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t parent = -1;
    int64_t begin_ns = 0;
    int64_t end_ns = 0;
    Timestamp key = -1;  ///< stream-time key (window end, boundary), or -1
    std::string attrs;   ///< extra JSON members, pre-rendered ("" = none)
  };

  /// Adds a finished span, returns its id.
  int64_t Add(std::string name, int64_t parent, int64_t begin_ns,
              int64_t end_ns, Timestamp key = -1, std::string attrs = "");

  /// Self time of span `id` in nanoseconds.
  int64_t SelfNs(int64_t id) const;

  /// Writes one JSON object per span; false on I/O failure.
  bool Write(const std::string& path) const;

  /// Sum of self time per span name, in milliseconds, name-sorted.
  std::vector<std::pair<std::string, double>> SelfMsByName() const;

 private:
  std::vector<Span> spans_;
  std::vector<std::vector<int64_t>> children_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
