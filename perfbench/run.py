#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload fig5_scan --seed 1 --trace 0
    python3 perfbench/run.py --workload all     # every workload, both runs
    python3 perfbench/run.py --smoke            # the benchmark's own test

Run from the root of a checkout. The first call builds the engine and the
benchmark binary, pimento_perf (perfbench/CMakeLists.txt), into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls reuse the build.

pimento_perf prints `metric <name> <value> <unit>` lines and a JSON
result with the run's seed, git SHA, nproc and hardware_threads. This
script passes those through, then prints as its last line the JSON object
{"correct", "attempted", "failed", "metrics"}, whose metrics are the
BENCHMARK.json `end_to_end` list for --trace 0 and `per_layer` for
--trace 1. It exits 1 when the build fails, the run fails, or an answer is
wrong.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["fig5_scan", "cold_users", "batch_mix"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(out):
    """Configures and builds pimento_perf; returns the binary's path."""
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", out, "-j", jobs]):
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(cmd)}")
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    return os.path.join(out, "pimento_perf")


def git_sha():
    """HEAD of the checkout, or "none" when it is not itself a git work
    tree (a parent directory's repository does not count)."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def declared_metrics(trace):
    return load_spec()["per_layer" if trace else "end_to_end"]


def check_metrics_doc():
    """BENCHMARK.json and perfbench/metrics.json must describe the same
    workloads and metrics."""
    spec = load_spec()
    with open(os.path.join(HERE, "metrics.json")) as f:
        doc = json.load(f)
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    if declared != set(doc["metrics"]):
        fail("metrics.json and BENCHMARK.json disagree on metrics: "
             f"{sorted(declared ^ set(doc['metrics']))}")
    workloads = {w["name"] for w in spec["workloads"]}
    if not workloads == set(doc["workloads"]) == set(WORKLOADS):
        fail("metrics.json, BENCHMARK.json and run.py disagree on workloads")


def run_once(binary, workload, seed, seconds, trace, smoke, sha):
    """Runs pimento_perf once; returns its parsed JSON result."""
    out = os.path.dirname(binary)
    workdir = os.path.join(out, f"run-{os.getpid()}-{workload}-{trace}")
    # The spans of the latest traced run of each workload.
    spans_dir = os.path.join(out, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir, "--git-sha", sha,
           "--spans", os.path.join(spans_dir, f"{workload}.tsv")]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        shutil.rmtree(workdir, ignore_errors=True)
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail(f"{workload} printed no result (exit code {proc.returncode})")
    print("result " + json.dumps(result, sort_keys=True))
    if proc.returncode != 0 and result.get("correct", False):
        fail(f"{workload} exited with code {proc.returncode}")
    return result


def select(result, declared):
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"metric {m['name']} ({m['unit']}) missing from the run")
        metrics[m["name"]] = got
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    # The run length is BENCHMARK.json's run_seconds (0.5 s under --smoke)
    # and nothing else; --seconds is accepted because the benchmark
    # interface passes run_seconds there, and must agree with it.
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, every workload and check")
    args = parser.parse_args()

    run_seconds = load_spec()["run_seconds"]
    if args.seconds is not None and args.seconds != run_seconds:
        fail(f"--seconds {args.seconds:g} is not BENCHMARK.json's "
             f"run_seconds ({run_seconds})")
    seconds = 0.5 if args.smoke else run_seconds
    if args.smoke:
        check_metrics_doc()
    sha = git_sha()
    binary = build(build_dir())

    if args.workload != "all":
        trace = args.trace or 0
        result = run_once(binary, args.workload, args.seed, seconds, trace,
                          args.smoke, sha)
        final = {"correct": bool(result["correct"]),
                 "attempted": int(result["attempted"]),
                 "failed": int(result["failed"]),
                 "metrics": select(result, declared_metrics(trace))}
        print(json.dumps(final))
        sys.exit(0 if final["correct"] else 1)

    # One command for everything: each workload untraced, then traced.
    correct, attempted, failed, metrics = True, 0, 0, {}
    traces = [0, 1] if args.trace is None else [args.trace]
    for workload in WORKLOADS:
        for trace in traces:
            print(f"== {workload} trace={trace}", flush=True)
            started = time.monotonic()
            result = run_once(binary, workload, args.seed, seconds, trace,
                              args.smoke, sha)
            for name, value in select(result,
                                      declared_metrics(trace)).items():
                metrics[f"{workload}.{name}"] = value
            correct = correct and bool(result["correct"])
            attempted += int(result["attempted"])
            failed += int(result["failed"])
            print(f"== {workload} trace={trace} "
                  f"{'ok' if result['correct'] else 'WRONG'} "
                  f"in {time.monotonic() - started:.1f} s", flush=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
