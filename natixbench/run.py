#!/usr/bin/env python3
"""Runs one workload of the natix benchmark and prints its metrics.

    python3 natixbench/run.py --workload xdoc-axes --seed 1 --seconds 20 \\
        --trace 0

Builds the runner (natixbench/CMakeLists.txt) on first use, runs it,
checks every op against the interpreter oracle and prints, as the last
line of stdout, {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. The line before it is the run's stamp. Each run
also leaves its result under <build dir>/results/ for compare.py.

The build directory is $CARGO_TARGET_DIR, else .bench_build, relative to
the current directory (the root of a checkout). Exit status: 0 on a
correct run, 1 when any op failed or returned a wrong result, 2 when the
benchmark could not build or run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402

BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("xdoc-axes", "dblp-values", "serve-mix", "compile-mix")


def fail(message):
    print(f"natixbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, env):
    """Runs a build step with its output on stderr; fails the run on error."""
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(cmd)}")


def build(build_dir, env):
    """Configures (once) and builds the runner; returns its path and the
    NATIX_OBS setting the library was built with."""
    cmake_dir = os.path.join(build_dir, "cmake-" + BUILD_TYPE.lower())
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", cmake_dir,
                   "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], env)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", cmake_dir, "--target", "natixbench_runner",
               "-j", jobs], env)
    natix_obs = "ON"
    with open(os.path.join(cmake_dir, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("NATIX_OBS:"):
                natix_obs = line.strip().split("=", 1)[1]
    return os.path.join(cmake_dir, "natixbench_runner"), natix_obs


def git_commit():
    try:
        out = subprocess.run(["git", "-C", os.path.dirname(HERE), "rev-parse",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_speed(seconds=0.1):
    """Millions of iterations per second of a fixed pure-Python loop: a
    coarse reading of how fast a shared host runs the benchmark right
    now, stamped so that compare.py can flag runs made at different host
    speeds."""
    count = 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        for _ in range(1000):
            pass
        count += 1000
    return count / seconds / 1e6


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def span_metrics(spans):
    """Per-layer times from the benchmark's own spans: the median self
    time of each layer's spans, per op tag for qe.exec. Returns the
    values and the number of spans behind each."""
    selfs = benchlib.self_times(spans)
    by_name = {}
    for span, self_ns in zip(spans, selfs):
        by_name.setdefault(span["name"], []).append(self_ns)
        if span["name"] == "qe.exec" and span["tag"]:
            by_name.setdefault("qe.exec." + span["tag"], []).append(self_ns)
    out, counts = {}, {}
    for metric, name, scale in (
            ("xpath.parse_us", "xpath.parse", 1e3),
            ("xpath.sema_us", "xpath.sema", 1e3),
            ("translate.translate_us", "translate.translate", 1e3),
            ("qe.codegen_us", "qe.codegen", 1e3),
            ("api.prepare_us", "api.prepare", 1e3),
            ("qe.instantiate_us", "qe.instantiate", 1e3),
            ("qe.exec_ms", "qe.exec", 1e6)):
        if name in by_name:
            out[metric] = statistics.median(by_name[name]) / scale
            counts[metric] = len(by_name[name])
    for name, values in by_name.items():
        if name.startswith("qe.exec."):
            metric = "qe.exec_ms." + name[len("qe.exec."):]
            out[metric] = statistics.median(values) / 1e6
            counts[metric] = len(values)
    return out, counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found next to natixbench/")
    with open(spec_path) as f:
        spec = json.load(f)

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    tmp_dir = os.path.join(build_dir, "tmp")
    results_dir = os.path.join(build_dir, "results")
    os.makedirs(tmp_dir, exist_ok=True)
    os.makedirs(results_dir, exist_ok=True)
    # Compilers and the store's scratch files stay inside the checkout.
    env = dict(os.environ, TMPDIR=tmp_dir)
    runner, natix_obs = build(build_dir, env)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = os.path.join(tmp_dir, name + ".raw.json")
    spans_path = os.path.join(tmp_dir, name + ".spans.jsonl")
    speed_before = host_speed()
    proc = subprocess.run(
        [runner, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--out", raw_path, "--spans", spans_path],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"runner exited with {proc.returncode}")
    speed_after = host_speed()
    with open(raw_path) as f:
        raw = json.load(f)
    os.remove(raw_path)

    latency_ms = [ns / 1e6 for ns in raw["latency_ns"]]
    attempted = len(latency_ms)
    if attempted == 0:
        fail("no op completed")
    not_ok = sum(1 for s in raw["status"] if s != 0)
    failed = not_ok + raw["mismatches"]

    if args.trace == 0:
        values = {
            "setup_s": statistics.median(raw["setup_s"]),
            "queries_per_s": attempted / raw["wall_s"],
            "p50_ms": statistics.median(latency_ms),
            "p99_ms": benchlib.sliced_percentile(latency_ms, raw["end_ns"],
                                                 99),
            "ok_ratio": (attempted - failed) / attempted,
            "rss_mb": raw["rss_kb"] / 1024.0,
        }
        samples = {m: attempted for m in values}
        samples["setup_s"] = len(raw["setup_s"])
        samples["rss_mb"] = 1
        declared = spec["end_to_end"]
    else:
        # Metrics that do not apply to a workload read 0; runner values
        # (counters, ratios, registry deltas) win over span timings.
        values = {m["name"]: 0.0 for m in spec["per_layer"]}
        span_values, samples = span_metrics(load_spans(spans_path))
        values.update(span_values)
        values.update(raw["layer"])
        traced = [ms for ms, t in zip(latency_ms, raw["traced"]) if t]
        untraced = [ms for ms, t in zip(latency_ms, raw["traced"]) if not t]
        if traced and untraced:
            values["obs.trace_overhead_ratio"] = (
                statistics.median(traced) / statistics.median(untraced))
        for name in raw["layer"]:
            samples[name] = attempted
        samples["obs.trace_overhead_ratio"] = attempted
        declared = spec["per_layer"]
        os.remove(spans_path)

    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0),
                              "unit": m["unit"]}

    # compare.py leaves p99_ms unresolved for runs too short to have
    # ten samples beyond their p99.
    supported = benchlib.highest_supported_percentile(attempted)
    if supported is None or supported < 99:
        print(f"natixbench: {attempted} ops are too few for p99_ms",
              file=sys.stderr)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "build_type": BUILD_TYPE,
        "natix_obs": natix_obs,
        "commit": git_commit(),
        "host_speed": [round(speed_before, 2), round(speed_after, 2)],
        "samples": {m["name"]: samples.get(m["name"], 0) for m in declared},
        "highest_supported_percentile": supported,
        # The run's plain nearest-rank p99; p99_ms is the median of its
        # slices' p99s. compare.py judges both.
        "p99_plain_ms": benchlib.nearest_rank(latency_ms, 99),
        "facts": raw["facts"],
    }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(results_dir, name + ".json"), "w") as f:
        json.dump({"stamp": stamp, "result": result}, f, indent=1)
    print("stamp: " + json.dumps(stamp))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
