#!/usr/bin/env python3
"""Run the perf microbenchmarks and emit a BENCH_*.json report.

Wraps google-benchmark's --benchmark_out plumbing so every run lands in a
uniform artifact (bench/reports/BENCH_<label>.json by default), prints a
compact summary with the derived ratios the repo tracks (FFT plan-cache
speedup, optimize_stimulus thread scaling), and can diff against a committed
baseline:

    python3 tools/bench_report.py --build build                 # run + report
    python3 tools/bench_report.py --build build --label ci      # custom name
    python3 tools/bench_report.py --build build \
        --compare bench/reports/BENCH_baseline.json             # regression diff
    python3 tools/bench_report.py --summarize BENCH_foo.json    # no re-run

Exit status is non-zero if the benchmark binary fails, or if --compare finds
a regression beyond --tolerance (default 1.25x).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def run_benchmarks(build_dir: Path, out_path: Path, min_time: float,
                   bench_filter: str | None) -> None:
    binary = build_dir / "bench" / "perf_microbench"
    if not binary.exists():
        sys.exit(f"bench_report: {binary} not found (build the repo first)")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(binary),
        f"--benchmark_out={out_path}",
        "--benchmark_out_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    print(f"bench_report: running {' '.join(cmd)}", flush=True)
    subprocess.run(cmd, check=True)


# Keys google-benchmark itself writes into each entry; everything else is a
# user counter (the telemetry deltas perf_microbench publishes).
_STANDARD_KEYS = {
    "name", "family_index", "per_family_instance_index", "run_name",
    "run_type", "repetitions", "repetition_index", "threads", "iterations",
    "real_time", "cpu_time", "time_unit", "aggregate_name", "aggregate_unit",
    "label", "error_occurred", "error_message",
}


def load_times(path: Path) -> dict[str, float]:
    """Benchmark name -> real time in nanoseconds."""
    doc = json.loads(path.read_text())
    times: dict[str, float] = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(
            b.get("time_unit", "ns"), 1.0)
        times[b["name"]] = float(b["real_time"]) * scale
    return times


def load_counters(path: Path) -> dict[str, dict[str, float]]:
    """Benchmark name -> {counter name -> per-iteration value}."""
    doc = json.loads(path.read_text())
    counters: dict[str, dict[str, float]] = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        extra = {k: float(v) for k, v in b.items()
                 if k not in _STANDARD_KEYS and isinstance(v, (int, float))}
        if extra:
            counters[b["name"]] = extra
    return counters


def fmt_ns(ns: float) -> str:
    for unit, div in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= div:
            return f"{ns / div:.3g} {unit}"
    return f"{ns:.3g} ns"


def ratio_line(times: dict[str, float], label: str, slow: str,
               fast: str) -> str | None:
    if slow in times and fast in times and times[fast] > 0:
        return f"  {label}: {times[slow] / times[fast]:.2f}x"
    return None


def summarize(path: Path) -> None:
    times = load_times(path)
    if not times:
        sys.exit(f"bench_report: no benchmarks in {path}")
    counters = load_counters(path)
    width = max(len(n) for n in times)
    print(f"\nbench_report: {path} ({len(times)} benchmarks)")
    for name, ns in times.items():
        line = f"  {name:<{width}}  {fmt_ns(ns)}"
        if name in counters:
            pairs = ", ".join(f"{k}={v:.3g}/iter"
                              for k, v in sorted(counters[name].items()))
            line += f"  [{pairs}]"
        print(line)

    telemetry_lines = []
    hits = counters.get("BM_SignatureAcquisition", {})
    hit = hits.get("fft.plan_cache_hit", 0.0)
    miss = hits.get("fft.plan_cache_miss", 0.0)
    if hit + miss > 0:
        telemetry_lines.append(
            f"  signature-acquisition fft plan-cache hit rate: "
            f"{hit / (hit + miss):.4f}")
    for bench in ("BM_GuardedTestDevice", "BM_GuardedTestDeviceFaulted"):
        guard = counters.get(bench, {})
        if any(k.startswith("guard.") for k in guard):
            chain = "clean chain" if bench == "BM_GuardedTestDevice" \
                else "faulted chain"
            telemetry_lines.append(
                f"  {bench} ({chain}): "
                f"retries={guard.get('guard.retries', 0.0):.3g}/part, "
                f"escalations={guard.get('guard.escalations', 0.0):.3g}/part, "
                f"routed={guard.get('guard.routed', 0.0):.3g}/part")
    if telemetry_lines:
        print("telemetry counters:")
        for line in telemetry_lines:
            print(line)

    print("derived ratios:")
    derived = [
        ratio_line(times, "fft plan cache, n=1024 (uncached/cached)",
                   "BM_Fft1024Uncached", "BM_Fft1024"),
        ratio_line(times, "optimize_stimulus 8-thread speedup (1T/8T)",
                   "BM_OptimizeStimulusThreads/1/real_time",
                   "BM_OptimizeStimulusThreads/8/real_time"),
        ratio_line(times, "optimize_stimulus 4-thread speedup (1T/4T)",
                   "BM_OptimizeStimulusThreads/1/real_time",
                   "BM_OptimizeStimulusThreads/4/real_time"),
        ratio_line(times, "guarded test, faulted-chain cost (faulted/clean)",
                   "BM_GuardedTestDeviceFaulted", "BM_GuardedTestDevice"),
        ratio_line(times, "batched lot speedup, clean (serial/batched)",
                   "LotSerialGuarded", "LotBatched"),
        ratio_line(times, "batched lot speedup, faulted (serial/batched)",
                   "LotSerialGuardedFaulted", "LotBatchedFaulted"),
    ]
    printed = False
    for line in derived:
        if line:
            print(line)
            printed = True
    if not printed:
        print("  (none: benchmarks filtered out)")


def throughput_ratios(current: Path, baseline: Path) -> None:
    """Devices/sec ratio lines (current vs baseline) for every benchmark
    that publishes a devices_per_second counter in both reports -- the
    tab_throughput lot figures the SIMD work is gated on."""
    cur_c, base_c = load_counters(current), load_counters(baseline)
    lines = []
    for name in sorted(cur_c):
        cur_dps = cur_c[name].get("devices_per_second")
        base_dps = base_c.get(name, {}).get("devices_per_second")
        if cur_dps and base_dps and base_dps > 0:
            lines.append(f"  {name} devices/sec: {base_dps:.0f} -> "
                         f"{cur_dps:.0f} ({cur_dps / base_dps:.2f}x)")
    if lines:
        print("throughput vs baseline:")
        for line in lines:
            print(line)


def compare(current: Path, baseline: Path, tolerance: float) -> int:
    cur, base = load_times(current), load_times(baseline)
    if not cur:
        print("bench_report: no benchmarks in current report")
        return 0
    throughput_ratios(current, baseline)
    regressions = 0
    names = sorted(cur)
    width = max(len(n) for n in names)
    print(f"\ncomparison vs {baseline} (tolerance {tolerance:.2f}x):")
    for name in names:
        base_ns = base.get(name)
        # A benchmark the baseline lacks (new bench) or records as zero
        # (clock too coarse, or a corrupted report) has no meaningful ratio:
        # report it as n/a rather than flagging a phantom regression or
        # dividing by zero.
        if base_ns is None:
            print(f"  {name:<{width}}  n/a -> {fmt_ns(cur[name])}"
                  f"  (no baseline entry)")
            continue
        if base_ns <= 0:
            print(f"  {name:<{width}}  n/a -> {fmt_ns(cur[name])}"
                  f"  (zero/invalid baseline time)")
            continue
        r = cur[name] / base_ns
        flag = ""
        if r > tolerance:
            flag = "  << REGRESSION"
            regressions += 1
        elif r < 1.0 / tolerance:
            flag = "  (faster)"
        print(f"  {name:<{width}}  {fmt_ns(base_ns)} -> {fmt_ns(cur[name])}"
              f"  ({r:.2f}x){flag}")
    if regressions:
        print(f"bench_report: {regressions} regression(s)")
    return 1 if regressions else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", type=Path, default=Path("build"),
                    help="CMake build directory (default: build)")
    ap.add_argument("--label", default="latest",
                    help="report name suffix: BENCH_<label>.json")
    ap.add_argument("--out-dir", type=Path, default=Path("bench/reports"),
                    help="directory for report JSON files")
    ap.add_argument("--min-time", type=float, default=0.1,
                    help="google-benchmark min time per benchmark (s)")
    ap.add_argument("--filter", dest="bench_filter", default=None,
                    help="--benchmark_filter regex passed through")
    ap.add_argument("--compare", type=Path, default=None,
                    help="baseline BENCH_*.json to diff against")
    ap.add_argument("--tolerance", type=float, default=1.25,
                    help="slowdown ratio that counts as a regression")
    ap.add_argument("--summarize", type=Path, default=None,
                    help="summarize an existing report instead of running")
    args = ap.parse_args()

    if args.summarize is not None:
        summarize(args.summarize)
        if args.compare is not None:
            return compare(args.summarize, args.compare, args.tolerance)
        return 0

    out_path = args.out_dir / f"BENCH_{args.label}.json"
    run_benchmarks(args.build, out_path, args.min_time, args.bench_filter)
    summarize(out_path)
    if args.compare is not None:
        return compare(out_path, args.compare, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
