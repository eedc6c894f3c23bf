#!/usr/bin/env python3
"""Runs one workload of the storsubsim repository benchmark.

    python3 perfbench/run.py --workload build|analyze|serve|replicate \
        [--seed N] [--seconds T] [--trace 0|1] [--scale S]

Run it from the repository root. On first use it builds the benchmark
program (perfbench/CMakeLists.txt, a Release build of the library and the
program) into $CARGO_TARGET_DIR, or .bench_build when that is unset; later
runs rebuild only what changed. It then builds the workload's corpus in a
separate process (analyze, serve), measures the workload for T seconds in a
fresh process, checks every output, and prints two lines: the provenance of
the run, then the result

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are the end-to-end metrics of BENCHMARK.json with --trace 0
and its per-layer metrics with --trace 1. The full result, with provenance
and error_frac, is also written to <build dir>/results/, next to the Chrome
trace of a traced run. README.md in this directory describes the workloads
and metrics. --scale overrides the workload's fleet scale (smoke tests
only; results at another scale are not comparable).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build", "analyze", "serve", "replicate")
# Workloads that read a corpus built before the measured process starts.
CORPUS_WORKLOADS = ("analyze", "serve")
SETUP_REPEATS = 3
# Every run, set-up included, must end within this many seconds.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 880.0


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_checked(cmd, timeout, log=None, cwd=None):
    """Runs cmd to completion (killing it at the timeout); returns stdout."""
    try:
        proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT if log else None,
                              text=True, timeout=max(timeout, 1.0), check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if log is not None:
        with open(log, "a", encoding="utf-8") as f:
            f.write(proc.stdout)
    if proc.returncode != 0:
        if log is not None:
            sys.stderr.write(proc.stdout[-4000:])
        fail(f"exit code {proc.returncode}: {' '.join(map(str, cmd))}")
    return proc.stdout


def build_program(build_dir):
    """Configures (once) and builds the benchmark program; returns its path."""
    cmake_dir = build_dir / "perfbench"
    log = build_dir / "perfbench-build.log"
    deadline = time.monotonic() + BUILD_BUDGET_S
    if not (cmake_dir / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                    deadline - time.monotonic(), log=log)
    run_checked(["cmake", "--build", cmake_dir, "--target", "perfbench",
                 "-j", str(nproc())], deadline - time.monotonic(), log=log)
    return cmake_dir / "perfbench"


def last_json_line(text, what):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        fail(f"{what} printed no result")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{what} printed a malformed result: {lines[-1][:200]}")
    return None


def provenance(args, threads, info):
    """What ran: commit and tree state, host and build flags, inputs."""
    commit, clean = "unknown", False
    if (ROOT / ".git").exists() and shutil.which("git"):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, check=False)
        if head.returncode == 0 and status.returncode == 0:
            commit = head.stdout.strip()
            clean = status.stdout.strip() == ""
    # Identifies the measured sources even where there is no git metadata.
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", ROOT / "BENCHMARK.json"]
    for top in ("src", "perfbench"):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "clean": clean,
        "source_sha256": digest.hexdigest(),
        "git_describe": info.get("git_describe", "unknown"),
        "nproc": nproc(),
        "threads": threads,
        "simd": info.get("simd"),
        "obs_per_event": info.get("obs_per_event"),
        "build_type": info.get("build_type"),
        "workload": args.workload,
        "scale": float(info.get("scale", "nan")),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    parser = argparse.ArgumentParser(description="storsubsim repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20080226)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=0.0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no storsubsim source tree at {ROOT}; run from a full checkout", 2)
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir.mkdir(parents=True, exist_ok=True)
    program = build_program(build_dir)

    deadline = time.monotonic() + RUN_BUDGET_S
    threads = nproc()
    work = build_dir / "work" / args.workload
    results = build_dir / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scale", repr(args.scale), "--threads", str(threads), "--dir", str(work)]
    try:
        corpus_setups = []
        if args.workload in CORPUS_WORKLOADS:
            for _ in range(SETUP_REPEATS):
                out = run_checked([program, "setup", *common], deadline - time.monotonic())
                corpus_setups.append(last_json_line(out, "set-up")["setup_s"])
        out = run_checked([program, "run", *common, "--seconds", repr(args.seconds),
                           "--trace", str(args.trace)], deadline - time.monotonic())
        child = last_json_line(out, "the benchmark program")
        if args.trace:
            trace_copy = results / f"{args.workload}-seed{args.seed}.trace.json"
            shutil.copyfile(work / "trace.json", trace_copy)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = child["metrics"]
    if "setup_s" in measured and corpus_setups:
        measured["setup_s"]["value"] += statistics.median(corpus_setups)
    metrics = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            value = measured[name]["value"]
            if measured[name]["unit"] != unit:
                fail(f"{name}: unit {measured[name]['unit']} is not {unit}")
        elif args.trace:
            value = 0.0  # a layer call this workload does not make
        else:
            fail(f"the program did not report {name}")
        if value is None:
            fail(f"{name} is not a finite number")
        metrics[name] = {"value": value, "unit": unit}

    attempted, failed = int(child["attempted"]), int(child["failed"])
    result = {"correct": bool(child["correct"]) and failed == 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    prov = provenance(args, threads, child.get("info", {}))
    record = dict(result)
    record["error_frac"] = failed / attempted if attempted else 1.0
    record["provenance"] = prov
    record["info"] = child.get("info", {})
    if corpus_setups:
        record["corpus_setup_s"] = corpus_setups
    if args.trace:
        record["trace_file"] = os.path.relpath(trace_copy, ROOT)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(json.dumps({"provenance": prov, "error_frac": record["error_frac"],
                      "result_file": os.path.relpath(record_path, ROOT)}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
