#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --write-golden

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the repository's libraries from source) under
$CARGO_TARGET_DIR, default .bench_build; later calls rebuild incrementally.
The binary runs with STF_THREADS=4 and STF_TELEMETRY unset. Its last output
line is the result object; this script re-prints it with exactly the metrics
BENCHMARK.json lists for the run (end_to_end for --trace 0, per_layer for
--trace 1), after checking that every one is present with its unit.

service_mixed runs at the fixed offered rate written in its BENCHMARK.json
"why" as "<rate> lots/s", so every commit is measured under the same load.

Exit status: 0 on success; non-zero on a build failure, a missing metric, a
result that differs from its reference, or any other error.
"""

import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RATE_PATTERN = re.compile(r"(\d+(?:\.\d+)?) lots/s")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = os.path.join(REPO, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def offered_rate(benchmark):
    """The service_mixed rate, read from its workload description."""
    for w in benchmark["workloads"]:
        if w["name"] == "service_mixed":
            m = RATE_PATTERN.search(w["why"])
            if m:
                return float(m.group(1))
    fail("BENCHMARK.json states no service_mixed rate ('<rate> lots/s')")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(REPO, base)
    return os.path.join(base, "perfbench")


def build(targets):
    """Configure (a fraction of a second once configured), then build
    `targets`; all tool output goes to stderr."""
    out = build_dir()
    cmd = ["cmake", "-S", HERE, "-B", out]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out


def run_binary(args):
    env = dict(os.environ)
    env.pop("STF_TELEMETRY", None)
    env["STF_THREADS"] = "4"
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=REPO)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    return proc


def select_metrics(result, wanted):
    """Keep exactly the metrics in `wanted`, checking name and unit."""
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail(f"run did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} reported in {got['unit']}, not {m['unit']}")
        metrics[m["name"]] = got
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def self_test():
    """Run the helper unit tests and check this script's own parsing."""
    out = build(["perfbench_test"])
    if subprocess.run([os.path.join(out, "perfbench_test")]).returncode:
        fail("helper tests failed")
    assert offered_rate({"workloads": [
        {"name": "service_mixed", "why": "open loop at 150 lots/s"}]}) == 150
    assert offered_rate(load_benchmark()) > 0
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {
        "a": {"value": 1.5, "unit": "ms"}, "b": {"value": 2, "unit": "s"}}}
    kept = select_metrics(result, [{"name": "a", "unit": "ms"}])
    assert list(kept["metrics"]) == ["a"], kept
    print("run.py self-test passed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        self_test()
        return
    benchmark = load_benchmark()
    golden = os.path.join(HERE, "golden_ga.txt")
    out = build(["perfbench"])
    binary = os.path.join(out, "perfbench")
    scratch = os.path.join(out, "scratch")
    if args.write_golden:
        proc = run_binary([binary, "--workload", "stimulus_search",
                           "--write-golden", "--golden", golden])
        sys.stdout.write(proc.stdout)
        sys.exit(proc.returncode)

    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch, "--golden", golden]
    if args.workload == "service_mixed":
        cmd += ["--rate", repr(offered_rate(benchmark))]
    proc = run_binary(cmd)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(proc.stdout)
        fail(f"no result line (exit status {proc.returncode})")
    print("\n".join(lines[:-1]))
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    print(json.dumps(select_metrics(result, wanted)))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
