"""One workload instance in a fresh process: run it, time it, save its outputs.

Usage: python3 bench/child.py JOB_JSON RESULT_JSON

The job (written by run.py) names the workload, its generated inputs, the
output directory and whether to trace. The timed section runs from the
first simulated request to the end of the workload, artifact writes
included; everything before it is set-up. After the timed section the
process renders its outputs to disk, digests them and writes the result.

A fixed piece of pure-Python work is timed first thing, before the program
is imported, and again right after the timed section. It tells run.py how
fast the host ran this process at the time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer, self_times

CALIBRATION_ROUNDS = 150_000
CALIBRATION_ROWS = 40_000


def calibrate() -> float:
    """Seconds taken by a fixed piece of dict, string, allocation and JSON work.

    The loop tracks how fast the interpreter runs on hot, cache-resident
    data; the rows track how fast it allocates, encodes and sorts a few
    megabytes, which is what the renderers and the policy log do.
    """
    start = time.perf_counter()
    counts: dict = {}
    total = 0
    for i in range(CALIBRATION_ROUNDS):
        key = (i & 1023, "k")
        counts[key] = counts.get(key, 0) + 1
        total += len(str(i))
    rows = [{"id": i, "key": str(i), "v": (i, 2 * i)} for i in range(CALIBRATION_ROWS)]
    json.dumps(rows)
    rows.sort(key=lambda row: row["key"])
    return time.perf_counter() - start


def load_timeloops(src: str) -> SimpleNamespace:
    """Imports the program from ``src``, and from nowhere else."""
    sys.path.insert(0, str(src))
    import timeloops
    from timeloops import analysis, catalog, cli, controller, errors, policy, simruntime, workload

    if Path(timeloops.__file__).resolve().parent != Path(src, "timeloops").resolve():
        raise SystemExit(f"timeloops imported from {timeloops.__file__}, not from {src}")
    return SimpleNamespace(analysis=analysis, catalog=catalog, cli=cli, controller=controller,
                           errors=errors, policy=policy, simruntime=simruntime,
                           workload=workload)


class FirstRequestClock:
    """Stamps the first simulated request, then gets out of the way."""

    def __init__(self, workload):
        self.at = None
        self._workload = workload
        self._original = workload.send_with_retry
        workload.send_with_retry = self._first

    def _first(self, *args, **kwargs):
        self.at = time.monotonic()
        self._workload.send_with_retry = self._original
        return self._original(*args, **kwargs)


def install_tracer(tracer, m) -> None:
    """Wrap each public function where its callers look it up.

    ``controller`` imports the runtime and ``extend`` by name, ``cli``
    imports ``run_session``, ``load_scenario``, ``export_seccomp`` and
    ``save_log`` by name, and every other call goes through a module.
    """
    analysis, catalog, cli, controller = m.analysis, m.catalog, m.cli, m.controller
    policy, simruntime, workload = m.policy, m.simruntime, m.workload
    counts = tracer.counts
    seen: set = set()

    def new_session(args):
        seen.clear()

    def production(args, result):
        spec, policy_value, request = args
        reason, _ = result
        if hasattr(reason, "at_index"):
            counts["syscalls_walked"] += reason.at_index + 1
        elif request in spec.handlers:
            counts["syscalls_walked"] += len(spec.handlers[request].effective_trace())
        key = (request, policy_value.epoch)
        if key in seen:
            counts["production_repeats"] += 1
        seen.add(key)

    def session(args, result):
        counts["transitions"] += len(result.transition_trace)
        counts["restarts"] += sum(
            action.startswith("start_")
            for t in result.transition_trace for action in t.actions
        )
        counts["epochs"] += result.final_policy.epoch
        counts["alerts"] += len(result.alerts)

    def extended(args, result):
        counts["extend_entries"] += result[1] is not None

    def attempts(args, result):
        counts["attempts"] += result.attempts

    def json_bytes(args, result):
        counts["session_json_bytes"] += len(result.encode("utf-8"))

    def logical_id(args):
        return args[0].logical_id

    w = tracer.wrap
    w(controller, "run_production", "simruntime.run_production", after=production)
    w(controller, "run_oracle", "simruntime.run_oracle")
    w(controller, "run_unrestricted", "simruntime.run_unrestricted")
    for owner in (simruntime, cli):
        w(owner, "load_scenario", "simruntime.load_scenario")
    w(simruntime, "parse_service", "simruntime.parse_service")
    w(controller.SessionDriver, "attempt", "controller.SessionDriver.attempt")
    w(controller, "step", "controller.step")
    for owner in (controller, cli):
        w(owner, "run_session", "controller.run_session", before=new_session, after=session)
    w(controller.SessionResult, "to_json", "controller.SessionResult.to_json", after=json_bytes)
    w(workload, "send_with_retry", "workload.send_with_retry", after=attempts,
      request_of=logical_id)
    for name in ("generate_workload", "summarize", "write_latency_csv", "write_cumulative_csv"):
        w(workload, name, f"workload.{name}")
    w(controller, "extend", "policy.extend", after=extended)
    for owner in (policy, cli):
        w(owner, "export_seccomp", "policy.export_seccomp")
    w(cli, "save_log", "policy.save_log")
    for name in ("compare", "static_baseline", "dynamic_baseline"):
        w(analysis, name, f"analysis.{name}")
    w(catalog, "load_default_fixture", "catalog.load_default_fixture")
    w(cli, "run_attack_scenarios", "cli.run_attack_scenarios")
    w(cli, "main", "cli.main")


# --- workloads -----------------------------------------------------------------

def run_simulate(job, m) -> tuple[int, str]:
    """``timeloops simulate`` through the public entry point."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = m.cli.main(job["argv"])
    return status, out.getvalue()


def run_sweep(job, m) -> tuple[list[dict], list]:
    """Short sessions in all three modes over many small services."""
    analysis, catalog, cli, controller = m.analysis, m.catalog, m.cli, m.controller
    policy, simruntime, workload = m.policy, m.simruntime, m.workload
    table = catalog.load_default_fixture()
    config = controller.ControllerConfig()
    services = []
    for svc in job["services"]:
        spec = simruntime.load_scenario(svc["scenario"])[0]
        requests = workload.generate_workload(spec, svc["n"], svc["seed"], svc["mix"])
        sessions = {
            mode: controller.run_session(spec, requests, config, mode=mode)
            for mode in controller.SESSION_MODES
        }
        stats = {mode: workload.summarize(s.latency_records) for mode, s in sessions.items()}
        learned_curve = stats["timeloops"].cumulative
        hardened_curve = stats["hardened"].cumulative
        crossover = next(
            (i for i, (tl, hd) in enumerate(zip(learned_curve, hardened_curve)) if tl < hd), None
        )
        learned = sessions["timeloops"].final_policy
        baselines = [
            ("static", analysis.static_baseline(spec)),
            ("learned", learned),
            ("dynamic", analysis.dynamic_baseline(spec, sorted(svc["mix"]))),
        ]
        services.append({
            "sessions": sessions,
            "stats": stats,
            "crossover": crossover,
            "report": analysis.compare(baselines, table=table),
            "profile": policy.export_seccomp(learned),
        })
    attack_spec = simruntime.load_scenario(job["attack_scenario"])[0]
    verdicts = [cli.run_attack_scenarios(attack_spec, seed) for seed in job["attack_seeds"]]
    return services, verdicts


def save_sweep(out: Path, outcome, m) -> None:
    """Writes what the sweep computed, for the checks and the digest."""
    policy, workload = m.policy, m.workload
    services, verdicts = outcome
    for index, svc in enumerate(services):
        d = out / f"svc{index:02d}"
        d.mkdir(parents=True)
        for mode, session in svc["sessions"].items():
            workload.write_latency_csv(session.latency_records, d / f"latency_{mode}.csv")
        learned = svc["sessions"]["timeloops"]
        policy.save_log(learned.policy_log, d / "policy.log")
        (d / "profile.json").write_bytes(svc["profile"])
        summary = {
            "final_policy": {"allow": sorted(learned.final_policy.allow),
                             "deny": sorted(learned.final_policy.deny),
                             "epoch": learned.final_policy.epoch},
            "consultations": learned.consultations,
            "crossover": svc["crossover"],
            "stats": {mode: {"mean": s.mean, "p50": s.p50, "p99": s.p99, "max": s.max}
                      for mode, s in svc["stats"].items()},
            "compare": svc["report"].to_json_dict(),
        }
        (d / "summary.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    attacks = [[vars(v) for v in seed_verdicts] for seed_verdicts in verdicts]
    (out / "attacks.json").write_text(json.dumps(attacks, indent=1) + "\n", encoding="utf-8")


def digest(out: Path) -> str:
    """SHA-256 over every artifact under ``out``, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(path.relative_to(out).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def layer_metrics(tracer: Tracer) -> dict:
    """Calls and self time per traced function, and the counts from return values."""
    calls, own = self_times(tracer.spans)
    counts = tracer.counts
    metrics = {}
    for name in sorted(calls):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = own[name]
    production_calls = calls["simruntime.run_production"]
    metrics["simruntime.run_production.syscalls_walked"] = counts["syscalls_walked"]
    metrics["simruntime.run_production.repeat_frac"] = (
        counts["production_repeats"] / production_calls if production_calls else 0.0)
    extend_calls = calls["policy.extend"]
    metrics["policy.extend.grew_frac"] = (
        counts["extend_entries"] / extend_calls if extend_calls else 0.0)
    sends = calls["workload.send_with_retry"]
    metrics["workload.attempts_per_request"] = counts["attempts"] / sends if sends else 0.0
    for name in ("transitions", "restarts", "epochs", "alerts", "session_json_bytes"):
        metrics[f"controller.{name}"] = counts[name]
    return metrics


def main(argv: list[str]) -> int:
    calibration_before = calibrate()
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    m = load_timeloops(job["src"])
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        install_tracer(tracer, m)
    clock = FirstRequestClock(m.workload)
    out = Path(job["out"])
    with tracer.span("bench.workload") if tracer else contextlib.nullcontext():
        if job["workload"] == "sweep":
            outcome = run_sweep(job, m)
        else:
            status, summary = run_simulate(job, m)
    end = time.monotonic()
    # The workload's peak, read before the calibration allocates its rows.
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration_after = calibrate()
    if tracer:
        tracer.uninstall()
    if job["workload"] == "sweep":
        save_sweep(out, outcome, m)
        status, summary = 0, ""
    result = {
        "status": status,
        "summary": summary,
        "first_request": clock.at,
        "end": end,
        "calibration_s": [calibration_before, calibration_after],
        "maxrss_kb": maxrss_kb,
        "digest": digest(out) if out.is_dir() else None,
    }
    if tracer:
        result["per_layer"] = layer_metrics(tracer)
        if "spans" in job:
            tracer.write(Path(job["spans"]))
    Path(argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
