#!/usr/bin/env python3
"""Runs the bench suite in Release and consolidates the results.

Usage:
    python3 tools/run_benches.py --out BENCH_<name>.json [--build-dir build]
                                 [--quick] [--skip-build]

Each bench prints one-line JSON records ({"bench": ..., "params": ...,
"metrics": ...}; see bench/bench_util.h). This driver
  1. configures + builds the Release bench targets (unless --skip-build),
  2. runs each bench, scraping its JSON records and measuring the child's
     peak RSS (resource usage of the benchmark process),
  3. merges the checked-in pre-PR executor baseline
     (bench/baseline_pre_pr4.json, an interleaved seed-vs-PR4 A/B) and
     computes the speedup summary for the micro-executor cases,
  4. writes one consolidated JSON document to --out. There is no default:
     every BENCH_*.json file in the repository is a point of the perf
     trajectory, so a run must name a new file rather than overwrite one.

The output format is documented in README.md ("Benchmarks").
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time

BENCHES = [
    # (target, args, args in --quick mode)
    ("bench_micro_executor", [], ["--quick"]),
    ("bench_runtime_scaling", [], ["--quick"]),
    ("bench_runtime_scaling", ["--long-stream"], ["--long-stream", "--quick"]),
    ("bench_checkpoint", [], ["--quick"]),
    # Chaos soak (pass/fail harness, not a perf bench): its one JSON record
    # carries ok/cycles/retries evidence alongside the perf numbers.
    ("soak_main", [], ["--quick"]),
]

# Version stamped onto every scraped record (benches append it themselves
# via PrintJsonRecord; records from older binaries are stamped here so a
# consolidated document is uniformly versioned).
RECORD_SCHEMA_VERSION = 1


def run_bench(path, args):
    """Runs one bench; returns (json_records, peak_rss_bytes, seconds)."""
    start = time.monotonic()
    proc = subprocess.Popen([path] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    output, _ = proc.communicate()
    seconds = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(output)
        raise RuntimeError(f"{path} exited with {proc.returncode}")
    records = []
    for line in output.splitlines():
        line = line.strip()
        if line.startswith('{"bench":'):
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            rec.setdefault("schema_version", RECORD_SCHEMA_VERSION)
            records.append(rec)
    # ru_maxrss of children accumulates in the parent after wait;
    # query the children's high-water mark (KiB on Linux).
    peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    return records, peak_rss, seconds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--out", required=True,
                    help="document to write, e.g. BENCH_<name>.json")
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized runs (smaller streams)")
    ap.add_argument("--skip-build", action="store_true",
                    help="assume the build dir already has Release benches")
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, args.build_dir)

    if not args.skip_build:
        subprocess.check_call(
            ["cmake", "-B", build, "-S", root, "-DCMAKE_BUILD_TYPE=Release"])
        subprocess.check_call(
            ["cmake", "--build", build, "-j", str(os.cpu_count() or 2),
             "--target"] + sorted({b for b, _, _ in BENCHES}))

    runs = []
    for target, full_args, quick_args in BENCHES:
        path = os.path.join(build, "bench", target)
        if not os.path.exists(path):
            print(f"skipping {target} (not built)", file=sys.stderr)
            continue
        bench_args = quick_args if args.quick else full_args
        print(f"running {target} {' '.join(bench_args)} ...")
        records, peak_rss, seconds = run_bench(path, bench_args)
        runs.append({
            "target": target,
            "args": bench_args,
            "wall_seconds": round(seconds, 3),
            "peak_rss_bytes": peak_rss,
            "records": records,
        })

    baseline_path = os.path.join(root, "bench", "baseline_pre_pr4.json")
    baseline = None
    if os.path.exists(baseline_path):
        with open(baseline_path) as f:
            baseline = json.load(f)

    # Speedup summary: current micro-executor events/s vs the pre-PR
    # baseline. NOTE: the authoritative speedup figures are the
    # interleaved A/B numbers inside the baseline document itself
    # (same-session seed-vs-PR4); the ratio against a fresh run also
    # reflects host speed drift between sessions.
    summary = []
    if baseline:
        current = {}
        for run in runs:
            if run["target"] != "bench_micro_executor":
                continue
            for rec in run["records"]:
                params = rec.get("params", {})
                if params.get("case", "").startswith("engine_"):
                    key = (params["case"], int(params["queries"]))
                    current[key] = rec["metrics"]["events_per_second"]
        for case in baseline.get("cases", []):
            key = (case["case"], case["queries"])
            entry = dict(case)
            if key in current:
                entry["current_events_per_second"] = round(current[key])
                entry["current_vs_seed"] = round(
                    current[key] / case["seed_events_per_second"], 3)
            summary.append(entry)

    doc = {
        "generated_by": "tools/run_benches.py" + (" --quick" if args.quick else ""),
        "schema_version": RECORD_SCHEMA_VERSION,
        "baseline_pre_pr4": baseline,
        "speedup_summary": summary,
        "runs": runs,
    }
    out_path = os.path.join(root, args.out)
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {out_path} ({len(runs)} bench runs)")
    for entry in summary:
        print(f"  {entry['case']} q={entry['queries']}: "
              f"A/B speedup {entry['speedup']}x"
              + (f", this-run vs seed {entry['current_vs_seed']}x"
                 if "current_vs_seed" in entry else ""))


if __name__ == "__main__":
    main()
