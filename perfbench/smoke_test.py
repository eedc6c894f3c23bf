#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload once untraced and once traced at a tiny fleet scale
for one second, through run.py exactly as a full run goes, and checks that
each run exits 0, reports every metric BENCHMARK.json names with its unit,
passes all of its output checks (error_frac 0), and that the counts the
benchmark promises to be deterministic repeat exactly between two traced
runs. Exits 1 on the first problem. Takes under a minute once the program
is built.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.02"
SEED = "7"
DETERMINISTIC = {
    "build": ("sim.failures", "log.lines", "log.bytes", "log.snapshot_bytes"),
    "analyze": ("store.open.crc_bytes", "store.decode.rows"),
    "serve": (),
    "replicate": ("sim.failures",),
}


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", "1", "--trace", str(trace), "--scale", SCALE]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload, trace, result, spec):
    where = f"{workload} trace={trace}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"FAIL {where}: error_frac is not 0: {result}")
    names = spec["per_layer" if trace else "end_to_end"]
    for entry in names:
        metric = result["metrics"].get(entry["name"])
        if metric is None or metric.get("unit") != entry["unit"]:
            sys.exit(f"FAIL {where}: {entry['name']} missing or without unit {entry['unit']}")
        if not isinstance(metric["value"], (int, float)):
            sys.exit(f"FAIL {where}: {entry['name']} is not a number")
        if not trace and metric["value"] <= 0:
            sys.exit(f"FAIL {where}: {entry['name']} is not positive")
    if len(result["metrics"]) != len(names):
        sys.exit(f"FAIL {where}: unexpected metrics {sorted(result['metrics'])}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for entry in spec["workloads"]:
        workload = entry["name"]
        check(workload, 0, run(workload, 0), spec)
        first = run(workload, 1)
        check(workload, 1, first, spec)
        second = run(workload, 1)
        for name in DETERMINISTIC[workload]:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            if a != b or a <= 0:
                sys.exit(f"FAIL {workload}: {name} does not repeat ({a} vs {b})")
        print(f"ok {workload}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
