"""Output checks, run outside the timed section.

Each check returns a list of problems; an empty list means the outputs are
correct. The virtual metrics are recomputed here from the latency CSVs,
independently of the program's own summary, and compared with it.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

SUMMARY_RE = re.compile(
    r"served=(?P<served>\d+) mean=(?P<mean>[-\d.]+)ms p50=(?P<p50>[-\d.]+)ms "
    r"p99=(?P<p99>[-\d.]+)ms max=(?P<max>[-\d.]+)ms"
)
CONSULTATIONS_RE = re.compile(r"consultations=(\d+)")


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_stats(latencies: list[float]) -> dict:
    return {
        "mean": math.fsum(latencies) / len(latencies),
        "p50": percentile(latencies, 50),
        "p99": percentile(latencies, 99),
        "max": max(latencies),
    }


def read_latency_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def check_records(rows: list[dict], expected: list[tuple[str, str]], what: str) -> list[str]:
    """One record per logical request, in id order, with the right key and outcome."""
    problems = []
    if len(rows) != len(expected):
        problems.append(f"{what}: {len(rows)} latency records for {len(expected)} requests")
    for logical_id, (row, (key, outcome)) in enumerate(zip(rows, expected)):
        if int(row["logical_id"]) != logical_id or row["key"] != key:
            problems.append(f"{what}: record {logical_id} is {row['logical_id']}/{row['key']}")
        elif row["outcome"] != outcome:
            problems.append(f"{what}: request {logical_id} ({key}) {row['outcome']}, want {outcome}")
        elif float(row["latency_ms"]) != float(row["completion_ms"]) - float(row["first_attempt_ms"]):
            problems.append(f"{what}: request {logical_id} latency is not completion - first")
        if len(problems) >= 5:
            break
    return problems


def check_cumulative(rows: list[dict], path: Path) -> list[str]:
    total = 0.0
    expected = []
    for row in rows:
        total += float(row["latency_ms"])
        expected.append((row["logical_id"], total))
    got = [(r["logical_id"], float(r["cumulative_latency_ms"])) for r in read_latency_csv(path)]
    return [] if got == expected else [f"{path.name} is not the running sum of latency.csv"]


def check_policy(out: Path, final: dict, deny: frozenset, tl) -> list[str]:
    """Replay of the log rebuilds the final policy, allow and deny are disjoint,
    and the profile is the export of the final policy."""
    problems = []
    allow = frozenset(final["allow"])
    if frozenset(final["deny"]) != deny:
        problems.append("final deny-list differs from the configured one")
    if allow & deny:
        problems.append("allow-list and deny-list overlap: " + ", ".join(sorted(allow & deny)))
    try:
        replayed = tl.policy.replay_log(tl.policy.load_log(out / "policy.log"), deny)
    except tl.errors.TimeloopsError as exc:
        problems.append(f"policy.log does not replay: {exc}")
    else:
        if replayed.allow != allow or replayed.epoch != final["epoch"]:
            problems.append("replaying policy.log does not rebuild the final policy")
    try:
        policy = tl.policy.SyscallPolicy(epoch=final["epoch"], allow=allow, deny=deny)
    except ValueError as exc:
        problems.append(f"final policy is invalid: {exc}")
    else:
        if (out / "profile.json").read_bytes() != tl.policy.export_seccomp(policy):
            problems.append("profile.json is not the export of the final policy")
    return problems


def check_simulate(out: Path, expected: list[tuple[str, str]], deny: frozenset,
                   summary: str, tl) -> tuple[list[str], dict]:
    """Checks the five ``simulate`` artifacts; returns problems and virtual metrics."""
    rows = read_latency_csv(out / "latency.csv")
    problems = check_records(rows, expected, "latency.csv")
    problems += check_cumulative(rows, out / "cumulative.csv")
    session = json.loads((out / "session.json").read_text(encoding="utf-8"))
    problems += check_policy(out, session["final_policy"], deny, tl)
    served = [float(r["latency_ms"]) for r in rows if r["outcome"] == "served"]
    stats = latency_stats(served) if served else {}
    printed = SUMMARY_RE.search(summary)
    if printed is None or int(printed["served"]) != len(served):
        problems.append("summary line does not report the served requests")
    else:
        for name, value in stats.items():
            if printed[name] != f"{value:.3f}":
                problems.append(f"summary {name}={printed[name]} but latency.csv gives {value:.3f}")
    consulted = CONSULTATIONS_RE.search(summary)
    if consulted is None or int(consulted[1]) != session["consultations"]:
        problems.append("summary and session.json disagree on consultations")
    return problems, {
        "latencies": served,
        "consultations": session["consultations"],
        "requests": len(expected),
    }


def check_sweep_service(d: Path, requests: list[tuple[str, str]], tl) -> tuple[list[str], dict]:
    """Checks one sweep service's three sessions, policy and summary."""
    summary = json.loads((d / "summary.json").read_text(encoding="utf-8"))
    problems = []
    curves = {}
    learned = []
    for mode in tl.controller.SESSION_MODES:
        rows = read_latency_csv(d / f"latency_{mode}.csv")
        problems += check_records(rows, requests, f"{d.name}/{mode}")
        latencies = [float(r["latency_ms"]) for r in rows]
        if mode == "timeloops":
            learned = [v for v, r in zip(latencies, rows) if r["outcome"] == "served"]
        running, curve = 0.0, []
        for value in latencies:
            running += value
            curve.append(running)
        curves[mode] = curve
        recomputed = latency_stats(latencies) if latencies else {}
        for name, value in recomputed.items():
            if not math.isclose(summary["stats"][mode][name], value, rel_tol=1e-9):
                problems.append(f"{d.name}/{mode}: summarize {name} differs from the CSV")
    crossover = next(
        (i for i, (a, b) in enumerate(zip(curves["timeloops"], curves["hardened"])) if a < b), None
    )
    if crossover is None or crossover != summary["crossover"]:
        problems.append(f"{d.name}: crossover {summary['crossover']} but CSVs give {crossover}")
    problems += check_policy(d, summary["final_policy"], frozenset(), tl)
    sizes = {(e["name_a"], e["name_b"]): (e["size_a"], e["size_b"])
             for e in summary["compare"]["entries"]}
    static_size, learned_size = sizes[("static", "learned")]
    if learned_size != len(summary["final_policy"]["allow"]) or static_size < 1:
        problems.append(f"{d.name}: comparison report does not match the learned policy")
    return problems, {
        "latencies": learned,
        "consultations": summary["consultations"],
        "requests": len(requests),
        "crossover": crossover,
    }


def check_attacks(path: Path) -> list[str]:
    verdicts = json.loads(path.read_text(encoding="utf-8"))
    bad = [v["key"] for seed_verdicts in verdicts for v in seed_verdicts if not v["as_expected"]]
    return [f"attack scenarios not as expected: {', '.join(bad)}"] if bad else []
