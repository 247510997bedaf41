"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Criteria 3 and 6 share one randomized-spec corpus and run bundled.
"""

import itertools
import time

import numpy as np
from conftest import SCENARIO_DIR, spec_workload_deny
from hypothesis import given, settings

from timeloops.analysis import dynamic_baseline, static_baseline, verify_paper_claims
from timeloops.catalog import load_default_fixture
from timeloops.cli import main, run_attack_scenarios
from timeloops.controller import (
    Benign,
    ControllerConfig,
    Halted,
    OracleRunning,
    ProductionRunning,
    Shutdown,
    UpdatePolicy,
    WatchdogFired,
    run_session,
    step,
)
from timeloops.errors import IllegalTransition
from timeloops.simruntime import (
    Completed,
    DeniedSyscallHit,
    Malicious,
    PolicyViolation,
    WatchdogTimeout,
    load_scenario,
)
from timeloops.workload import generate_workload, summarize

STATICSITE = SCENARIO_DIR / "staticsite.json"
ATTACKS = SCENARIO_DIR / "staticsite_attacks.json"
REFERENCE_MIX = {"home": 8.0, "search": 1.0, "upload": 1.0}


def _verdict(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {criterion}: {status}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def _reference_sessions(n=1000, seed=7):
    spec = load_scenario(STATICSITE)[0]
    workload = generate_workload(spec, n, seed, REFERENCE_MIX)
    config = ControllerConfig()
    return {
        mode: run_session(spec, workload, config, mode=mode)
        for mode in ("timeloops", "unhardened", "hardened")
    }


def test_criterion_1_fixture_claim_suite():
    started = time.monotonic()
    table = load_default_fixture()
    report = verify_paper_claims(table)
    rows = {c.claim_id: c for c in report.claims}

    checks = []
    for program in ("nginx", "composepost"):
        checks.append(rows[f"{program}_timeloops_superset_of_baseline"].passed)
        checks.append(rows[f"{program}_timeloops_minus_baseline_names"].passed)
    checks.append(rows["nginx_timeloops_minus_baseline_names"].actual == [
        "clock_gettime", "kill", "madvise", "open", "readlink", "sigaltstack",
    ])
    checks.append(rows["composepost_timeloops_minus_baseline_names"].actual == [
        "getpid", "gettid", "readlink", "sched_getaffinity",
        "sched_yield", "setrlimit", "sigaltstack",
    ])

    # Size deltas: reference values 40/37 are evaluated against the table,
    # which is authoritative; a mismatch must be reported, never patched.
    for program, expected in (("nginx", 40), ("composepost", 37)):
        row = rows[f"{program}_sysfilter_minus_timeloops_size"]
        independent = len(table.column_policy(f"{program}-sysfilter")) - len(
            table.column_policy(f"{program}-timeloops")
        )
        checks.append(row.expected == expected)
        checks.append(row.actual == independent)
        checks.append(row.passed == (independent == expected))

    checks.append(rows["nginx_timeloops_only_over_sysfilter_count"].actual == 7)
    checks.append(rows["composepost_timeloops_only_over_sysfilter_count"].actual == 13)
    checks.append(rows["nginx_timeloops_only_over_sysfilter_count"].passed)
    checks.append(rows["composepost_timeloops_only_over_sysfilter_count"].passed)
    checks.append(rows["clock_settime_in_composepost_sysfilter"].passed)
    checks.append(rows["clock_settime_not_in_podman_default"].passed)

    # the CLI exit code must agree with the report
    checks.append(main(["verify-paper"]) == (0 if report.all_pass else 1))

    elapsed = time.monotonic() - started
    checks.append(elapsed < 1.0)
    _verdict("criterion-1 fixture-claims", all(checks),
             f"all_pass={report.all_pass} in {elapsed:.2f}s")


def test_criterion_2_attack_categories():
    started = time.monotonic()
    spec = load_scenario(ATTACKS)[0]
    verdicts = run_attack_scenarios(spec, seed=0)
    by = {}
    for v in verdicts:
        by[(v.category, bool(v.deny))] = v

    cat1 = by[(1, False)]
    cat2 = by[(2, False)]
    cat3 = by[(3, False)]
    cat4_open = by[(4, False)]
    cat4_deny = by[(4, True)]

    checks = [
        cat1.alerts == 1 and cat1.exploit_sourced_entries == 0
        and cat1.probe_outcome == "rejected_malicious",
        cat2.alerts == 0 and cat2.exploit_sourced_entries == 0 and cat2.confined,
        cat3.alerts == 0 and cat3.exploit_sourced_entries == 0 and cat3.confined,
        cat4_open.exploit_sourced_entries >= 1
        and set(cat4_open.exploit_syscalls_learned) == {"mount", "setns"},
        cat4_deny.alerts == 1 and cat4_deny.exploit_sourced_entries == 0
        and cat4_deny.probe_outcome == "rejected_malicious",
        all(v.as_expected for v in verdicts),
    ]
    elapsed = time.monotonic() - started
    checks.append(elapsed < 1.0)
    _verdict("criterion-2 attack-categories", all(checks), f"{elapsed:.2f}s")


@settings(max_examples=200, deadline=None)
@given(bundle=spec_workload_deny())
def _convergence_and_ordering_property(bundle):
    spec, workload, deny = bundle
    config = ControllerConfig(deny=deny)
    result = run_session(spec, workload, config)

    # independent brute-force expectation over the exercised handlers
    union = set()
    for request in workload:
        union.update(spec.handlers[request.key].trace)
    expected = (union | spec.oracle_extra) - deny
    assert result.final_policy.allow == frozenset(expected)

    # consultations never exceed the requests that introduce a new syscall
    running: set[str] = set()
    introducing = 0
    for request in workload:
        trace = set(spec.handlers[request.key].trace)
        if not trace <= running:
            introducing += 1
            running |= trace | spec.oracle_extra
    assert result.consultations <= introducing

    # criterion 6: under-/over-approximation ordering
    keys = sorted(spec.handlers)
    dynamic = dynamic_baseline(spec, keys, deny=deny)
    static = static_baseline(spec, deny=deny)
    final = result.final_policy.allow
    assert dynamic.allow <= final
    assert final <= dynamic.allow | spec.oracle_extra
    assert dynamic.allow | spec.oracle_extra <= static.allow | spec.oracle_extra


def test_criteria_3_and_6_learning_convergence_and_baseline_ordering():
    started = time.monotonic()
    _convergence_and_ordering_property()
    elapsed = time.monotonic() - started
    ok = elapsed < 30.0
    _verdict("criterion-3 learning-convergence", ok, f"200 randomized specs in {elapsed:.2f}s")
    _verdict("criterion-6 baseline-ordering", ok, "bundled with criterion 3")


def test_criterion_4_amortization_shape():
    started = time.monotonic()
    sessions = _reference_sessions(n=1000, seed=7)
    spec = load_scenario(STATICSITE)[0]
    assert spec.cost_model.oracle_slowdown_factor == 3.0
    assert spec.cost_model.restart_ms == 50.0

    tl = list(sessions["timeloops"].latency_records)
    first_latency = tl[0].latency_ms
    steady_p50 = float(np.percentile([r.latency_ms for r in tl[len(tl) // 2:]], 50))
    stats_tl = summarize(tl)
    stats_un = summarize(sessions["unhardened"].latency_records)
    stats_hd = summarize(sessions["hardened"].latency_records)

    cum_tl = stats_tl.cumulative
    cum_hd = stats_hd.cumulative
    crossover = next(
        (i for i in range(len(cum_tl)) if cum_tl[i] < cum_hd[i]), None
    )

    checks = [
        first_latency >= 5.0 * steady_p50,
        stats_tl.mean < stats_hd.mean,
        stats_tl.mean <= 1.10 * stats_un.mean,
        crossover is not None and crossover < len(tl),
    ]
    elapsed = time.monotonic() - started
    checks.append(elapsed < 10.0)
    _verdict(
        "criterion-4 amortization",
        all(checks),
        f"first/p50={first_latency / steady_p50:.2f} mean_ratio="
        f"{stats_tl.mean / stats_un.mean:.3f} crossover={crossover} in {elapsed:.2f}s",
    )


def test_criterion_5_pretraining_effect():
    started = time.monotonic()
    spec = load_scenario(STATICSITE)[0]
    workload = generate_workload(spec, 400, 7, REFERENCE_MIX)
    config = ControllerConfig(pretrain_requests=("home", "search", "upload"))
    result = run_session(spec, workload, config)
    records = list(result.latency_records)
    steady_p50 = float(np.percentile([r.latency_ms for r in records[len(records) // 2:]], 50))
    first_latency = records[0].latency_ms
    checks = [
        result.consultations == 0,
        first_latency <= 1.05 * steady_p50,
        all(e.source == "pretrain" for e in result.policy_log),
    ]
    elapsed = time.monotonic() - started
    checks.append(elapsed < 5.0)
    _verdict("criterion-5 pretraining", all(checks),
             f"consultations={result.consultations} first/p50="
             f"{first_latency / steady_p50:.3f} in {elapsed:.2f}s")


def test_criterion_7_determinism_and_formats(tmp_path):
    started = time.monotonic()
    args = ["simulate", "--scenario", str(STATICSITE), "--n", "300", "--seed", "7",
            "--mix", "home=8,search=1,upload=1", "--mode", "timeloops"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0

    names = ("latency.csv", "cumulative.csv", "session.json", "policy.log", "profile.json")
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)

    from conftest import GOLDEN_DIR
    from timeloops.policy import SyscallPolicy, export_seccomp, new_policy

    golden_ok = (
        export_seccomp(new_policy())
        == (GOLDEN_DIR / "profile_empty.json").read_bytes()
        and export_seccomp(SyscallPolicy(epoch=1, allow=frozenset({"read", "write"})))
        == (GOLDEN_DIR / "profile_read_write.json").read_bytes()
    )
    elapsed = time.monotonic() - started
    checks = [identical, golden_ok, elapsed < 5.0]
    _verdict("criterion-7 determinism-and-formats", all(checks), f"{elapsed:.2f}s")


def test_criterion_8_state_machine_safety():
    started = time.monotonic()
    config = ControllerConfig()
    states = [ProductionRunning(), OracleRunning(), Halted()]
    events = [
        Completed(),
        PolicyViolation("write", 0),
        DeniedSyscallHit("mount"),
        Benign(frozenset({"read"})),
        Malicious("report"),
        WatchdogTimeout(),
        WatchdogFired(),
        Shutdown(),
    ]
    legal = set()
    for state in states:
        legal.add((type(state).__name__, "Shutdown"))
    legal |= {
        ("ProductionRunning", "Completed"),
        ("ProductionRunning", "PolicyViolation"),
        ("ProductionRunning", "DeniedSyscallHit"),
        ("OracleRunning", "Benign"),
        ("OracleRunning", "Malicious"),
        ("OracleRunning", "WatchdogTimeout"),
        ("OracleRunning", "WatchdogFired"),
    }

    ok = True
    update_only_on_benign = True
    for state, event in itertools.product(states, events):
        pair = (type(state).__name__, type(event).__name__)
        try:
            _, actions = step(state, event, config)
        except IllegalTransition:
            if pair in legal:
                ok = False
        else:
            if pair not in legal:
                ok = False
            if any(isinstance(a, UpdatePolicy) for a in actions):
                if not isinstance(event, Benign):
                    update_only_on_benign = False

    elapsed = time.monotonic() - started
    checks = [ok, update_only_on_benign, elapsed < 1.0]
    _verdict("criterion-8 state-machine-safety", all(checks),
             f"{len(states) * len(events)} pairs in {elapsed:.2f}s")
