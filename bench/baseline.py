#!/usr/bin/env python3
"""Record a baseline: every workload on several seeds, with quartiles.

Usage, from the root of a checkout:

    python3 bench/baseline.py --out bench/baseline.json

Runs ``bench/run.py`` untraced on every workload with seeds 1-10, and traced
once per workload on seed 1, each run lasting BENCHMARK.json's run_seconds.
For each end-to-end metric it records the median, the quartiles and the
spread, (q3 - q1) / median, next to the machine and interpreter it ran on
and the exact commands.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import run

# Figures run.py prints but does not put in its JSON line, with their units.
PRINTED_ONLY = {"virt_crossover_idx": "request", "raw_req_per_s": "req/s", "raw_setup_s": "s"}
SEEDS = list(range(1, 11))


def _bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    argv = ["python3", "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *argv[1:]], cwd=run.ROOT, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def _quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="where to write the baseline JSON")
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]

    record = {
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": "python3 bench/baseline.py"
                   + (f" --out {args.out}" if args.out else ""),
        "run_command": f"python3 bench/run.py --workload W --seed S --seconds {seconds} --trace T",
        "machine": {"nproc": os.cpu_count(), "cpu": _cpu_model(),
                    "python": platform.python_version(), "numpy": numpy.__version__},
        "reference_calibration_s": run.REFERENCE_CALIBRATION_S,
        "workloads": {},
    }
    for workload in run.WORKLOADS:
        runs, printed, failed, attempted = {}, {}, 0, 0
        for seed in SEEDS:
            result, text = _bench(workload, seed, seconds, 0)
            if not result["correct"]:
                print(text, file=sys.stderr)
                return 1
            failed += result["failed"]
            attempted += result["attempted"]
            for name, metric in result["metrics"].items():
                runs.setdefault(name, []).append(metric["value"])
            for line in text.splitlines():
                fields = line.split()
                if fields and fields[0] in PRINTED_ONLY:
                    printed.setdefault(fields[0], []).append(float(fields[1]))
            print(f"{workload} seed {seed}: {text.splitlines()[0]}", file=sys.stderr, flush=True)
        traced, text = _bench(workload, SEEDS[0], seconds, 1)
        if not traced["correct"]:
            print(text, file=sys.stderr)
            return 1
        entry = {
            "seeds": SEEDS,
            "failed_frac": failed / attempted,
            "end_to_end": {name: _quartiles(values) for name, values in runs.items()},
            "printed_only": {name: _quartiles(values) for name, values in printed.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
        record["workloads"][workload] = entry
        units = {**run.END_TO_END, **PRINTED_ONLY}
        for name, q in {**entry["end_to_end"], **entry["printed_only"]}.items():
            print(f"{workload:<7} {name:<24} median {q['median']:>12.6g} {units[name]:<8}"
                  f" spread {q['spread']:.4f}")
        print(f"{workload:<7} {'failed_frac':<24} {entry['failed_frac']:>19.6g} ratio")
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
