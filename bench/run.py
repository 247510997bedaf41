#!/usr/bin/env python3
"""The timeloops benchmark: host throughput and virtual latency per workload.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {steady,churn,sweep} --seed N --seconds S --trace {0,1}

The seed generates the workload's inputs. The run then starts fresh,
single-threaded child processes (bench/child.py) one after another until
``--seconds`` have passed, at least three of them. Every child runs the same
inputs, so their outputs must be byte-identical. The outputs of the first
child are checked in full after the timed sections; the others must match
its digest. If any check fails, every request of the run counts as failed.

With ``--trace 0`` every child is untraced and the end-to-end metrics are
reported: medians over the children for host time and memory, and the
deterministic virtual-latency figures of the outputs. With ``--trace 1``
children alternate untraced and traced, and the per-layer metrics of the
traced ones are reported, with the tracing overhead.

Host times are scaled to a reference host speed. On a shared host, how
fast Python runs can drift by a quarter within minutes, which would swamp
the bounds. Each child therefore times a fixed piece of pure-Python work
(child.calibrate) before its set-up and after its timed section, and its
set-up time and throughput are scaled by how that compares with
REFERENCE_CALIBRATION_S. The unscaled figures are printed as well.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import generators
from child import load_timeloops

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ".bench_work"
WORKLOADS = ("steady", "churn", "sweep")
MIN_CHILDREN = 3
# A run must end within 180 s: no child starts after this many seconds.
RUN_LIMIT_S = 150.0
# What child.calibrate takes on the machine the baseline was recorded on.
REFERENCE_CALIBRATION_S = 0.17
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "req_per_s": "req/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "virt_mean_ms": "virt_ms",
    "virt_p99_ms": "virt_ms",
    "consultations_per_kreq": "1/kreq",
}

_CALLS_AND_SELF = (
    "simruntime.run_production", "simruntime.run_oracle", "controller.SessionDriver.attempt",
    "controller.step", "workload.send_with_retry", "policy.extend",
)
_SELF_ONLY = (
    "simruntime.run_unrestricted", "simruntime.load_scenario", "simruntime.parse_service",
    "controller.run_session", "controller.SessionResult.to_json",
    "workload.generate_workload", "workload.summarize", "workload.write_latency_csv",
    "workload.write_cumulative_csv", "policy.export_seccomp", "policy.save_log",
    "analysis.compare", "analysis.static_baseline", "analysis.dynamic_baseline",
    "cli.run_attack_scenarios", "catalog.load_default_fixture", "cli.main",
)
PER_LAYER = {
    **{f"{name}.calls": "count" for name in _CALLS_AND_SELF},
    **{f"{name}.self_s": "s" for name in _CALLS_AND_SELF + _SELF_ONLY},
    "simruntime.run_production.syscalls_walked": "count",
    "simruntime.run_production.repeat_frac": "ratio",
    "policy.extend.grew_frac": "ratio",
    "workload.attempts_per_request": "ratio",
    "controller.session_json_bytes": "B",
    "controller.transitions": "count",
    "controller.restarts": "count",
    "controller.epochs": "count",
    "controller.alerts": "count",
    "trace_overhead_frac": "ratio",
}


# --- inputs --------------------------------------------------------------------

def _expected(spec, requests) -> list[tuple[str, str]]:
    """The outcome each request must end with: exploits rejected, the rest served."""
    return [
        (r.key, "rejected_malicious" if spec.handlers[r.key].exploit else "served")
        for r in requests
    ]


def simulate_plan(workload: str, scenario: Path, mix: dict[str, float], n: int, seed: int,
                  extra: list[str], deny: frozenset, tl) -> dict:
    """The job and expected outcomes of one ``timeloops simulate`` run.

    Each weight in ``mix`` must print exactly under ``:g``, so that the
    program parses the ``--mix`` argument back to the same mix.
    """
    spec = tl.simruntime.load_scenario(scenario)[0]
    requests = tl.workload.generate_workload(spec, n, seed, mix)
    text = ",".join(f"{key}={weight:g}" for key, weight in mix.items())
    argv = ["simulate", "--scenario", str(scenario), "--mix", text, "--n", str(n),
            "--seed", str(seed), *extra]
    return {"job": {"workload": workload, "argv": argv}, "requests": n,
            "expected": _expected(spec, requests), "deny": deny}


def prepare(workload: str, seed: int, work: Path, tl) -> dict:
    """Writes the seeded inputs; returns the child job and the expected outcomes."""
    inputs = work / "inputs"
    if workload == "steady":
        return simulate_plan(workload, ROOT / generators.STEADY_SCENARIO, generators.STEADY_MIX,
                             generators.STEADY_N, seed, [], frozenset(), tl)
    if workload == "churn":
        text, mix = generators.churn_inputs(seed)
        scenario = generators.write_text(inputs / "churn.json", text)
        deny = tl.catalog.podman_default_deny(tl.catalog.load_default_fixture())
        extra = ["--oracle-mode", "watchdog", "--deny-preset", "podman",
                 "--watchdog-ms", str(generators.CHURN_WATCHDOG_MS)]
        return simulate_plan(workload, scenario, mix, generators.CHURN_N, seed, extra, deny, tl)
    services, expected = [], []
    for index, svc in enumerate(generators.sweep_inputs(seed)):
        path = generators.write_text(inputs / f"svc{index:02d}.json", svc.pop("scenario"))
        spec = tl.simruntime.load_scenario(path)[0]
        requests = tl.workload.generate_workload(spec, svc["n"], svc["seed"], svc["mix"])
        services.append({**svc, "scenario": str(path)})
        expected.append(_expected(spec, requests))
    job = {"workload": workload, "services": services,
           "attack_scenario": str(ROOT / generators.ATTACK_SCENARIO),
           "attack_seeds": generators.attack_seeds(seed)}
    return {"job": job, "requests": 3 * sum(len(e) for e in expected),
            "expected": expected, "deny": frozenset()}


# --- children ------------------------------------------------------------------

def run_child(plan: dict, index: int, traced: bool, work: Path, timeout: float) -> dict:
    d = work / f"child{index}"
    d.mkdir()
    job = {**plan["job"], "src": str(ROOT / "src"), "trace": traced, "out": str(d / "out")}
    if traced and index == 1:
        job["spans"] = str(work / "spans.csv")
    if "argv" in job:
        job["argv"] = job["argv"] + ["--out", job["out"]]
    (d / "job.json").write_text(json.dumps(job), encoding="utf-8")
    env = {**os.environ, **CHILD_ENV}
    spawned = time.monotonic()
    child = {"index": index, "traced": traced, "out": d / "out", "problems": [],
             "requests": plan["requests"]}
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "child.py"), str(d / "job.json"),
             str(d / "result.json")],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        child["problems"].append(f"child {index} did not finish within {timeout:.0f} s")
        return child
    if proc.returncode != 0 or not (d / "result.json").is_file():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        child["problems"].append(f"child {index} exited {proc.returncode}: {tail[0]}")
        return child
    result = json.loads((d / "result.json").read_text(encoding="utf-8"))
    child.update(result)
    if result["status"] != 0:
        child["problems"].append(f"child {index}: timeloops exited {result['status']}")
    elif result["first_request"] is None:
        child["problems"].append(f"child {index} simulated no request")
    else:
        before, after = result["calibration_s"]
        child["raw_setup_s"] = result["first_request"] - spawned - before
        child["raw_req_per_s"] = plan["requests"] / (result["end"] - result["first_request"])
        child["setup_s"] = child["raw_setup_s"] * REFERENCE_CALIBRATION_S / before
        child["req_per_s"] = child["raw_req_per_s"] * (before + after) / 2 / REFERENCE_CALIBRATION_S
        child["peak_rss_mb"] = result["maxrss_kb"] / 1024.0
    return child


def run_children(plan: dict, seconds: float, trace: bool, work: Path) -> list[dict]:
    """Untraced children, or alternately untraced and traced ones, for ``seconds``."""
    started = time.monotonic()
    least = 2 * MIN_CHILDREN if trace else MIN_CHILDREN
    children = []
    while True:
        elapsed = time.monotonic() - started
        if len(children) >= least and elapsed >= seconds:
            break
        if elapsed >= RUN_LIMIT_S:
            break
        child = run_child(plan, len(children), trace and len(children) % 2 == 1, work,
                          timeout=RUN_LIMIT_S + 15.0 - elapsed)
        children.append(child)
        if child["problems"]:
            break
        if len(children) > 1:
            # Only the first child's outputs are checked in full; the rest are
            # compared by digest, and freeing them keeps write-back out of later runs.
            shutil.rmtree(child["out"], ignore_errors=True)
    return children


# --- evaluation ----------------------------------------------------------------

def check_outputs(plan: dict, child: dict, tl) -> tuple[list[str], dict]:
    """Full checks of one child's outputs; returns problems and virtual figures."""
    out = child["out"]
    try:
        if plan["job"]["workload"] != "sweep":
            if plan["job"]["workload"] == "churn" and generators.PODMAN_DENIED not in plan["deny"]:
                return [f"the podman preset does not deny {generators.PODMAN_DENIED}"], {}
            return checks.check_simulate(out, plan["expected"], plan["deny"], child["summary"], tl)
        problems, pooled, crossovers = [], {"latencies": [], "consultations": 0, "requests": 0}, []
        for index, expected in enumerate(plan["expected"]):
            found, virt = checks.check_sweep_service(out / f"svc{index:02d}", expected, tl)
            problems += found
            pooled["latencies"] += virt["latencies"]
            pooled["consultations"] += virt["consultations"]
            pooled["requests"] += virt["requests"]
            crossovers.append(virt["crossover"])
        problems += checks.check_attacks(out / "attacks.json")
        if None not in crossovers:
            pooled["crossover"] = statistics.median(crossovers)
        return problems, pooled
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"outputs unreadable: {type(exc).__name__}: {exc}"], {}


def evaluate(plan: dict, children: list[dict], tl) -> dict:
    """Checks the first good child in full and the others by digest.

    If any check fails, every request of the run counts as failed.
    """
    problems = [p for c in children for p in c["problems"]]
    finished = [c for c in children if not c["problems"]]
    virt = {}
    if not finished:
        problems.append("no child produced outputs")
    else:
        reference = finished[0]
        found, virt = check_outputs(plan, reference, tl)
        problems += found
        problems += [f"child {c['index']} outputs differ from child {reference['index']}"
                     for c in finished[1:] if c["digest"] != reference["digest"]]
    attempted = sum(c["requests"] for c in children)
    return {"problems": problems, "virt": virt, "attempted": attempted,
            "failed": attempted if problems else 0}


def _median(children: list[dict], key: str) -> float:
    values = [c[key] for c in children if key in c]
    return statistics.median(values) if values else float("nan")


def end_to_end(children: list[dict], virt: dict) -> dict:
    latencies = virt.get("latencies") or [float("nan")]
    stats = checks.latency_stats(latencies)
    return {
        "req_per_s": _median(children, "req_per_s"),
        "setup_s": _median(children, "setup_s"),
        "peak_rss_mb": _median(children, "peak_rss_mb"),
        "virt_mean_ms": stats["mean"],
        "virt_p99_ms": stats["p99"],
        "consultations_per_kreq": 1000.0 * virt.get("consultations", 0) / max(
            virt.get("requests", 0), 1),
    }


def per_layer(children: list[dict]) -> tuple[dict, list[str]]:
    """Medians over traced children; counts must agree exactly between them."""
    traced = [c for c in children if c["traced"] and "per_layer" in c]
    untraced = [c for c in children if not c["traced"]]
    problems = []
    metrics = {}
    for name in PER_LAYER:
        if name == "trace_overhead_frac":
            continue
        # A function no call reached has no spans: zero calls, zero time.
        values = [c["per_layer"].get(name, 0) for c in traced] or [float("nan")]
        if not name.endswith(".self_s") and len(set(values)) > 1:
            problems.append(f"{name} differs between traced runs: {sorted(set(values))}")
        metrics[name] = statistics.median(values)
    metrics["trace_overhead_frac"] = 1.0 - _median(traced, "req_per_s") / _median(
        untraced, "req_per_s")
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "timeloops" / "__init__.py", ROOT / generators.STEADY_SCENARIO,
              ROOT / generators.ATTACK_SCENARIO]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    tl = load_timeloops(ROOT / "src")
    work = ROOT / WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    plan = prepare(args.workload, args.seed, work, tl)
    children = run_children(plan, args.seconds, bool(args.trace), work)
    verdict = evaluate(plan, children, tl)

    untraced = [c for c in children if not c["traced"]]
    if args.trace:
        metrics, problems = per_layer(children)
        verdict["problems"] += problems
        units = PER_LAYER
    else:
        metrics = end_to_end(untraced, verdict["virt"])
        units = END_TO_END

    print(f"workload={args.workload} seed={args.seed} children={len(children)} "
          f"traced={sum(c['traced'] for c in children)}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    failed_frac = verdict["failed"] / max(verdict["attempted"], 1)
    print(f"  {'failed_frac':<44} {failed_frac:>16.6g} ratio "
          f"({verdict['failed']} of {verdict['attempted']} requests)")
    if not args.trace:
        for name in ("raw_req_per_s", "raw_setup_s"):
            print(f"  {name:<44} {_median(untraced, name):>16.6g} {END_TO_END[name[4:]]}"
                  " (unscaled)")
    if "crossover" in verdict["virt"]:
        print(f"  {'virt_crossover_idx':<44} {verdict['virt']['crossover']:>16.6g} request")
    if children and "digest" in children[0]:
        print(f"  artifact digest sha256:{children[0]['digest']}")
    for problem in verdict["problems"][:20]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": not verdict["problems"],
        "attempted": max(verdict["attempted"], 1),
        "failed": verdict["failed"],
        "metrics": {name: {"value": metrics[name] if math.isfinite(metrics[name]) else 0.0,
                           "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
