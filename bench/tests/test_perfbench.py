"""Tests of the benchmark itself: inputs, output checks and tracing."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import child  # noqa: E402
import generators  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

SRC = run.ROOT / "src"
N = 300


@pytest.fixture(scope="module")
def tl():
    return child.load_timeloops(SRC)


def test_generators_are_deterministic_for_a_seed(tmp_path):
    assert generators.churn_inputs(7) == generators.churn_inputs(7)
    assert generators.churn_inputs(7) != generators.churn_inputs(8)
    assert generators.sweep_inputs(7) == generators.sweep_inputs(7)
    assert generators.sweep_inputs(7) != generators.sweep_inputs(8)
    assert generators.attack_seeds(7) == generators.attack_seeds(7)
    written = [
        generators.write_text(tmp_path / name / "churn.json", generators.churn_inputs(3)[0])
        for name in ("a", "b")
    ]
    assert written[0].read_bytes() == written[1].read_bytes()


def test_churn_exploits_inject_the_podman_denied_syscall(tmp_path, tl):
    scenario, mix = generators.churn_inputs(5)
    handlers = json.loads(scenario)["services"][0]["handlers"]
    exploits = [h["exploit"] for h in handlers.values() if "exploit" in h]
    assert len(exploits) == len(generators.CHURN_EXPLOIT_RANKS)
    assert all(generators.PODMAN_DENIED in e["injected"] for e in exploits)
    deny = tl.catalog.podman_default_deny(tl.catalog.load_default_fixture())
    assert generators.PODMAN_DENIED in deny
    assert len(mix) == generators.CHURN_HANDLERS
    plan = run.simulate_plan("churn", generators.write_text(tmp_path / "churn.json", scenario),
                             mix, N, 5, [], deny, tl)
    assert tl.cli._parse_mix(plan["job"]["argv"][4]) == mix


def _simulated_child(tmp_path, tl) -> tuple[dict, dict]:
    """A small steady-like simulate run, as run.py sees a finished child."""
    plan = run.simulate_plan("steady", run.ROOT / generators.STEADY_SCENARIO,
                             generators.STEADY_MIX, N, 11, [], frozenset(), tl)
    out = tmp_path / "out"
    job = {"argv": plan["job"]["argv"] + ["--out", str(out)]}
    status, summary = child.run_simulate(job, tl)
    assert status == 0
    return plan, {"index": 0, "traced": False, "out": out, "problems": [], "requests": N,
                  "summary": summary, "digest": child.digest(out)}


def test_untouched_outputs_pass_the_checks(tmp_path, tl):
    plan, done = _simulated_child(tmp_path, tl)
    verdict = run.evaluate(plan, [done], tl)
    assert verdict["problems"] == []
    assert (verdict["failed"], verdict["attempted"]) == (0, N)
    assert len(verdict["virt"]["latencies"]) == N


@pytest.mark.parametrize("artifact, corrupt, complaint", [
    ("policy.log", lambda text: "\n".join(text.splitlines()[:-1]) + "\n", "policy.log"),
    ("policy.log", lambda text: text.replace('"epoch":2', '"epoch":7'), "policy.log"),
    ("profile.json", lambda text: text.replace("SCMP_ACT_KILL_PROCESS", "SCMP_ACT_ERRNO"),
     "profile.json"),
    ("profile.json", lambda text: text.replace('"read",', ""), "profile.json"),
])
def test_corrupted_outputs_fail_every_request(tmp_path, tl, artifact, corrupt, complaint):
    plan, done = _simulated_child(tmp_path, tl)
    path = done["out"] / artifact
    text = path.read_text(encoding="utf-8")
    assert corrupt(text) != text
    path.write_text(corrupt(text), encoding="utf-8")
    verdict = run.evaluate(plan, [done], tl)
    assert any(complaint in p for p in verdict["problems"]), verdict["problems"]
    assert verdict["failed"] == verdict["attempted"] == N


def test_a_child_with_different_outputs_fails(tmp_path, tl):
    plan, first = _simulated_child(tmp_path / "a", tl)
    _, second = _simulated_child(tmp_path / "b", tl)
    assert first["digest"] == second["digest"]
    second = {**second, "index": 1, "digest": "0" * 64}
    verdict = run.evaluate(plan, [first, second], tl)
    assert verdict["problems"] and verdict["failed"] == 2 * N


def test_percentile_matches_linear_interpolation():
    assert checks.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert checks.percentile([5.0], 99) == 5.0


def test_self_times_sum_to_the_root_span(tmp_path, tl):
    plan = run.simulate_plan("steady", run.ROOT / generators.STEADY_SCENARIO,
                             generators.STEADY_MIX, N, 11, [], frozenset(), tl)
    original_main = tl.cli.main
    tracer = Tracer()
    child.install_tracer(tracer, tl)
    try:
        with tracer.span("root"):
            status, _ = child.run_simulate(
                {"argv": plan["job"]["argv"] + ["--out", str(tmp_path)]}, tl)
    finally:
        tracer.uninstall()
    assert status == 0 and tl.cli.main is original_main
    assert None not in tracer.spans
    root = tracer.spans[0]
    assert root[0] == "root" and root[1] == -1
    calls, own = self_times(tracer.spans)
    assert math.isclose(sum(own.values()), root[3] - root[2], rel_tol=1e-9)
    assert all(value >= 0 for value in own.values())
    assert calls["workload.send_with_retry"] == N
    assert calls["simruntime.run_production"] >= N
    assert calls["controller.SessionResult.to_json"] == 1
    by_index = dict(enumerate(tracer.spans))
    for name, parent, _, _, request in tracer.spans:
        if name == "simruntime.run_production":
            assert by_index[parent][0] == "controller.SessionDriver.attempt"
            assert 0 <= request < N
    session = json.loads((tmp_path / "session.json").read_text(encoding="utf-8"))
    layers = child.layer_metrics(tracer)
    assert layers["controller.transitions"] == len(session["transitions"])
    assert layers["controller.epochs"] == session["final_policy"]["epoch"]
    assert layers["controller.session_json_bytes"] + 1 == len(
        (tmp_path / "session.json").read_bytes())
    assert layers["workload.attempts_per_request"] >= 1.0
    assert 0.0 < layers["simruntime.run_production.repeat_frac"] < 1.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "steady", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sweep_outputs_pass_the_checks(tmp_path, tl):
    plan = run.prepare("sweep", 4, tmp_path, tl)
    plan["job"]["services"] = plan["job"]["services"][:3]
    plan["job"]["attack_seeds"] = plan["job"]["attack_seeds"][:1]
    plan["expected"] = plan["expected"][:3]
    out = tmp_path / "out"
    child.save_sweep(out, child.run_sweep(plan["job"], tl), tl)
    done = {"index": 0, "traced": False, "out": out, "problems": [], "requests": 1,
            "summary": "", "digest": child.digest(out)}
    verdict = run.evaluate(plan, [done], tl)
    assert verdict["problems"] == []
    assert verdict["virt"]["crossover"] >= 1
    (out / "svc01" / "latency_hardened.csv").write_text("logical_id,key\n", encoding="utf-8")
    assert run.evaluate(plan, [done], tl)["problems"]
