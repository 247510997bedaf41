import collections
import itertools
import json
import math
import os
import sys

import pytest
from conftest import DENY_POOL, SYSCALL_POOL, make_spec, requests, spec_workload_deny
from hypothesis import given, settings
from hypothesis import strategies as st

from timeloops import controller, simruntime
from timeloops import workload as workload_mod
from timeloops.catalog import load_default_fixture, podman_default_deny
from timeloops.controller import (
    HALTED,
    LOG_EVENT,
    ORACLE_MODES,
    ORACLE_RUNNING,
    PRODUCTION_RUNNING,
    SESSION_MODES,
    SHUTDOWN,
    START_ORACLE,
    START_PRODUCTION,
    WATCHDOG_FIRED,
    ControllerConfig,
    RaiseAlert,
    UpdatePolicy,
    SessionDriver,
    run_session,
    step,
)
from timeloops.errors import (
    ConfigError,
    ExploitInTrainingSet,
    IllegalTransition,
)
from timeloops.policy import new_policy, replay_log
from timeloops.simruntime import (
    COMPLETED,
    WATCHDOG_TIMEOUT,
    Benign,
    CostModel,
    DeniedSyscallHit,
    ExploitSpec,
    Malicious,
    Marker,
    PolicyViolation,
    RequestBehavior,
    ServiceSpec,
)
from timeloops.workload import Request, generate_workload

CFG = ControllerConfig()
CFG_WATCHDOG = ControllerConfig(oracle_mode="watchdog")


# --- step: the pure transition function ---------------------------------------

def test_violation_starts_oracle():
    state, actions = step(PRODUCTION_RUNNING, PolicyViolation("write", 1), CFG)
    assert state is ORACLE_RUNNING
    assert actions == (START_ORACLE,)


def test_completed_request_needs_no_restart():
    state, actions = step(PRODUCTION_RUNNING, COMPLETED, CFG)
    assert state is PRODUCTION_RUNNING
    assert actions == (LOG_EVENT,)


def test_benign_outcome_updates_policy_and_restarts_production():
    observed = frozenset({"read", "write"})
    state, actions = step(ORACLE_RUNNING, Benign(observed), CFG)
    assert state is PRODUCTION_RUNNING
    assert actions == (UpdatePolicy(observed), START_PRODUCTION)


def test_benign_outcome_keeps_oracle_alive_in_watchdog_mode():
    observed = frozenset({"read"})
    before = ORACLE_RUNNING
    state, actions = step(before, Benign(observed), CFG_WATCHDOG)
    assert state is ORACLE_RUNNING
    assert actions == (UpdatePolicy(observed),)


def test_malicious_outcome_alerts_without_policy_update():
    state, actions = step(ORACLE_RUNNING, Malicious("corruption"), CFG)
    assert state is PRODUCTION_RUNNING
    assert actions == (RaiseAlert("corruption"), START_PRODUCTION)
    assert not any(isinstance(a, UpdatePolicy) for a in actions)


def test_watchdog_fired_switches_back_to_production():
    state, actions = step(ORACLE_RUNNING, WATCHDOG_FIRED, CFG)
    assert state is PRODUCTION_RUNNING
    assert actions == (START_PRODUCTION,)


def test_shutdown_halts_from_any_state():
    for state in (PRODUCTION_RUNNING, ORACLE_RUNNING, HALTED):
        after, _ = step(state, SHUTDOWN, CFG)
        assert after is HALTED


def test_illegal_transitions_raise():
    with pytest.raises(IllegalTransition):
        step(PRODUCTION_RUNNING, Benign(frozenset()), CFG)
    with pytest.raises(IllegalTransition,
                       match="^event prod_exited:completed not legal in state oracle_running$"):
        step(ORACLE_RUNNING, COMPLETED, CFG)
    with pytest.raises(IllegalTransition):
        step(PRODUCTION_RUNNING, WATCHDOG_FIRED, CFG)
    with pytest.raises(IllegalTransition):
        step(HALTED, COMPLETED, CFG)
    with pytest.raises(IllegalTransition):
        step(PRODUCTION_RUNNING, WATCHDOG_TIMEOUT, CFG)


def test_a_look_alike_marker_is_neither_a_state_nor_an_event():
    look_alike = Marker(PRODUCTION_RUNNING.label)
    for event in (COMPLETED, PolicyViolation("write", 0), SHUTDOWN):
        with pytest.raises(IllegalTransition):
            step(look_alike, event, CFG)
    with pytest.raises(IllegalTransition):
        step(PRODUCTION_RUNNING, Marker(COMPLETED.label), CFG)


def test_attempt_returns_the_outcome_and_a_halted_driver_refuses():
    driver = SessionDriver(make_spec({"r": RequestBehavior(trace=("read",))}), CFG)
    assert driver.attempt(Request(0, "r")) is None  # a violation, retried
    assert driver.attempt(Request(0, "r")) == "served"
    driver.shutdown()
    with pytest.raises(IllegalTransition, match="session driver reached a halted controller"):
        driver.attempt(Request(1, "r"))


def test_denied_syscall_hit_alerts_and_restarts():
    state, actions = step(PRODUCTION_RUNNING, DeniedSyscallHit("mount"), CFG)
    assert state is PRODUCTION_RUNNING
    assert isinstance(actions[0], RaiseAlert)
    assert actions[1] is START_PRODUCTION


# --- run_session ---------------------------------------------------------------

def test_single_benign_request_consults_once():
    spec = make_spec({"r": RequestBehavior(trace=("read",))}, extra={"sigaltstack"})
    result = run_session(spec, requests("r"), CFG)
    assert result.consultations == 1
    assert result.final_policy.allow == {"read", "sigaltstack"}
    assert result.final_policy.epoch == 1
    record = result.latency_records[0]
    assert record.outcome == "served"
    assert record.attempts == 2


def test_violating_request_latency_closed_form():
    cost = CostModel(base_request_ms=1.0, production_per_syscall_ms=1.0,
                     oracle_slowdown_factor=2.0, restart_ms=5.0)
    spec = make_spec({"r": RequestBehavior(trace=("read", "write"))}, cost=cost)
    result = run_session(spec, requests("r"), CFG)
    record = result.latency_records[0]
    # failed production attempt, oracle start, oracle-slowed full run: the
    # oracle charges the base cost, then each syscall, each times the factor
    factor = cost.oracle_slowdown_factor
    oracle = cost.base_request_ms * factor + 2 * (cost.production_per_syscall_ms * factor)
    expected = (cost.base_request_ms + 0.0) + cost.restart_ms + oracle
    assert record.attempts == 2
    assert record.latency_ms == expected


def test_consultations_bounded_by_new_syscall_requests():
    spec = make_spec({
        "a": RequestBehavior(trace=("read", "write")),
        "b": RequestBehavior(trace=("read",)),
        "c": RequestBehavior(trace=("openat",)),
    })
    result = run_session(spec, requests("a", "b", "c", "a", "b", "c"), CFG)
    # b's trace is covered by a's learning; only a and c introduce syscalls
    assert result.consultations == 2
    assert len(result.policy_log) == 2


def test_category1_exploit_is_alerted_and_never_learned():
    exploit = ExploitSpec(kind="oracle_detectable", corruption_index=1, injected=("ptrace",))
    spec = make_spec({
        "good": RequestBehavior(trace=("read", "write")),
        "evil": RequestBehavior(trace=("read", "write"), exploit=exploit),
    })
    result = run_session(spec, requests("good", "evil", "good"), CFG)
    assert len(result.alerts) == 1
    assert "ptrace" not in result.final_policy.allow
    evil_record = result.latency_records[1]
    assert evil_record.outcome == "rejected_malicious"
    # monotone epochs across the transition trace, bumps only on update
    epochs = [t.epoch for t in result.transition_trace]
    assert epochs == sorted(epochs)


def test_oracle_denied_syscall_mid_trace_alerts_without_update():
    # The denied syscall is only reachable through the oracle observation:
    # production dies earlier on an unknown, learnable syscall.
    exploit = ExploitSpec(
        kind="oracle_undetectable", corruption_index=1, injected=("execve", "mount")
    )
    spec = make_spec({
        "evil": RequestBehavior(trace=("read", "write"), exploit=exploit),
    })
    config = ControllerConfig(deny=frozenset({"mount"}))
    result = run_session(spec, requests("evil"), config)
    assert len(result.alerts) == 1
    assert result.final_policy.allow == frozenset()
    assert result.final_policy.epoch == 0
    assert result.latency_records[0].outcome == "rejected_malicious"
    assert result.consultations == 1


def test_production_denied_hit_skips_oracle():
    exploit = ExploitSpec(kind="oracle_undetectable", corruption_index=1, injected=("mount",))
    spec = make_spec({
        "good": RequestBehavior(trace=("read",)),
        "evil": RequestBehavior(trace=("read",), exploit=exploit),
    })
    config = ControllerConfig(deny=frozenset({"mount"}))
    result = run_session(spec, requests("good", "evil"), config)
    assert len(result.alerts) == 1
    assert result.consultations == 1  # only the benign learning pass
    assert result.latency_records[1].outcome == "rejected_malicious"
    assert any(t.event == "prod_exited:denied_syscall:mount" for t in result.transition_trace)


def test_watchdog_mode_serves_from_oracle_then_switches_back():
    cost = CostModel(base_request_ms=1.0, production_per_syscall_ms=1.0,
                     oracle_slowdown_factor=2.0, restart_ms=5.0)
    spec = make_spec(
        {"a": RequestBehavior(trace=("read",)),
         "b": RequestBehavior(trace=("write",))},
        cost=cost,
    )
    config = ControllerConfig(oracle_mode="watchdog", watchdog_ms=12.0)
    result = run_session(spec, requests("a", "a", "b", "a"), config)
    assert result.final_policy.allow == {"read", "write"}
    assert any(t.event == "watchdog_fired" for t in result.transition_trace)
    assert all(r.outcome == "served" for r in result.latency_records)


def test_oracle_mode_equivalence_on_benign_workload():
    spec = make_spec({
        "a": RequestBehavior(trace=("read", "write")),
        "b": RequestBehavior(trace=("openat", "read")),
    }, extra={"sigaltstack"})
    workload = requests("a", "b", "a", "b", "a")
    single = run_session(spec, workload, ControllerConfig())
    watchdog = run_session(spec, workload, ControllerConfig(oracle_mode="watchdog"))
    assert single.final_policy.allow == watchdog.final_policy.allow


def test_empty_workload_is_config_error():
    spec = make_spec({"r": RequestBehavior(trace=("read",))})
    with pytest.raises(ConfigError):
        run_session(spec, [], CFG)


def test_an_unknown_oracle_or_session_mode_is_config_error():
    with pytest.raises(ConfigError, match="^unknown oracle mode: 'x'$"):
        ControllerConfig(oracle_mode="x")
    spec = make_spec({"r": RequestBehavior(trace=("read",))})
    with pytest.raises(ConfigError, match="^unknown session mode: 'x'$"):
        run_session(spec, requests("r"), CFG, mode="x")


def test_denied_oracle_extras_are_config_error():
    spec = make_spec({"r": RequestBehavior(trace=("read",))}, extra={"sigaltstack"})
    with pytest.raises(ConfigError):
        run_session(spec, requests("r"), ControllerConfig(deny=frozenset({"sigaltstack"})))


def test_a_deny_list_of_any_collection_runs_the_same_session(staticsite):
    workload = generate_workload(staticsite, 200, 7, {"home": 1.0, "upload": 1.0})
    expected = run_session(staticsite, workload, ControllerConfig(deny=frozenset({"mount"})))
    for deny in (["mount"], ("mount",), {"mount"}):
        config = ControllerConfig(deny=deny)
        assert config.deny == frozenset({"mount"})
        assert run_session(staticsite, workload, config).to_json() == expected.to_json()


def test_every_syscall_name_is_one_object(attacks_spec):
    spec = attacks_spec
    names = [*spec.static_universe, *spec.oracle_extra]
    for behavior in spec.handlers.values():
        names += behavior.trace
        if behavior.exploit is not None:
            names += behavior.exploit.injected
    for trace, _, (outcome, _) in [*spec.runs.values(), spec.unknown_run]:
        names += trace
        if type(outcome) is Benign:
            names += outcome.observed
    deny = podman_default_deny(load_default_fixture())
    result = run_session(spec, requests(*sorted(spec.handlers) * 2), ControllerConfig(deny=deny))
    assert result.policy_log and result.alerts
    names += [*result.final_policy.allow, *result.final_policy.deny]
    for entry in result.policy_log:
        names += entry.added
    # The interned string is the one object of its text: the loaded
    # scenario, the deny-list and the session all hold it and no copy.
    assert all(name is sys.intern(name) for name in names)


def test_a_session_builds_no_marker(attacks_spec, monkeypatch):
    built = []
    init = Marker.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Marker, "__init__", counted)
    deny = podman_default_deny(load_default_fixture())
    workload = generate_workload(attacks_spec, 200, 0, dict.fromkeys(attacks_spec.handlers, 1))
    for mode, oracle_mode in itertools.product(SESSION_MODES, ORACLE_MODES):
        config = ControllerConfig(oracle_mode=oracle_mode, watchdog_ms=70.0, deny=deny)
        run_session(attacks_spec, workload, config, mode=mode)
    assert built == []
    Marker("counted")
    assert built == [("counted",)]


# --- the served path: one driver call per completed production run ------------

def test_a_served_row_is_the_one_step_gives(staticsite):
    to_state, actions = step(PRODUCTION_RUNNING, COMPLETED, CFG)
    assert controller._SERVED_ROW == (PRODUCTION_RUNNING.label, COMPLETED.label, to_state.label,
                                      tuple(action.label for action in actions))
    workload = generate_workload(staticsite, 100, 0, dict.fromkeys(staticsite.handlers, 1))
    trace = run_session(staticsite, workload, CFG).transition_trace
    served = [t for t in trace if t.event == COMPLETED.label]
    assert served and all(t[1:5] == controller._SERVED_ROW for t in served)


def test_step_runs_once_per_transition_that_is_not_served(attacks_spec, monkeypatch):
    calls = []

    def counted(state, event, config):
        calls.append(event)
        return step(state, event, config)

    monkeypatch.setattr(controller, "step", counted)
    deny = podman_default_deny(load_default_fixture())
    workload = generate_workload(attacks_spec, 200, 0, dict.fromkeys(attacks_spec.handlers, 1))
    for oracle_mode in ORACLE_MODES:
        calls.clear()
        config = ControllerConfig(oracle_mode=oracle_mode, watchdog_ms=70.0, deny=deny)
        trace = run_session(attacks_spec, workload, config).transition_trace
        served = sum(t.event == COMPLETED.label for t in trace)
        assert 0 < served < len(trace)
        assert len(calls) == len(trace) - served
        assert COMPLETED not in calls


def test_a_served_request_makes_four_python_frames(staticsite):
    # Pretrained on every handler, production serves every request at once.
    config = ControllerConfig(pretrain_requests=tuple(staticsite.handlers))
    package = os.path.dirname(controller.__file__)

    def frames(n):
        workload = generate_workload(staticsite, n, 0, dict.fromkeys(staticsite.handlers, 1))
        calls = collections.Counter()

        def profile(frame, event, arg):
            if event == "call" and os.path.dirname(frame.f_code.co_filename) == package:
                calls[frame.f_code.co_name] += 1

        sys.setprofile(profile)
        try:
            result = run_session(staticsite, workload, config)
        finally:
            sys.setprofile(None)
        assert result.consultations == 0 and len(result.transition_trace) == n + 1
        return calls

    # What a session calls once cancels out; each request resumes the
    # generator in run_session and makes three calls.
    short, long = frames(500), frames(1000)
    assert {name: long[name] - short[name] for name in long | short
            if long[name] != short[name]} == dict.fromkeys(
                ["<genexpr>", "send_with_retry", "attempt", "run_production"], 500)


def test_run_session_looks_the_client_up_for_each_request(staticsite, monkeypatch):
    # A clock that stamps the first request swaps send_with_retry back
    # after it, so every later request must go through the swapped-in one.
    send, calls = workload_mod.send_with_retry, []

    def later(request, driver):
        calls.append(("later", request.logical_id))
        return send(request, driver)

    def first(request, driver):
        calls.append(("first", request.logical_id))
        monkeypatch.setattr(workload_mod, "send_with_retry", later)
        return send(request, driver)

    monkeypatch.setattr(workload_mod, "send_with_retry", first)
    workload = generate_workload(staticsite, 50, 0, dict.fromkeys(staticsite.handlers, 1))
    run_session(staticsite, workload, CFG)
    assert calls == [("first", 0)] + [("later", i) for i in range(1, 50)]


def test_unknown_request_keys_are_served():
    spec = make_spec({"r": RequestBehavior(trace=("read",))})
    result = run_session(spec, requests("r", "missing"), CFG)
    assert result.latency_records[1].outcome == "served"
    assert result.latency_records[1].attempts == 1


def test_session_json_shape():
    spec = make_spec({"r": RequestBehavior(trace=("read",))})
    result = run_session(spec, requests("r"), CFG)
    obj = json.loads(result.to_json())
    assert list(obj) == ["final_policy", "alerts", "transitions", "consultations"]
    assert obj["final_policy"]["allow"] == ["read"]
    assert obj["final_policy"]["epoch"] == 1
    assert obj["consultations"] == 1
    assert obj["transitions"][0]["from"] == "production_running"


def test_unhardened_mode_serves_everything_without_learning():
    exploit = ExploitSpec(kind="oracle_detectable", corruption_index=1, injected=("ptrace",))
    spec = make_spec({
        "good": RequestBehavior(trace=("read",)),
        "evil": RequestBehavior(trace=("read",), exploit=exploit),
    })
    result = run_session(spec, requests("good", "evil"), CFG, mode="unhardened")
    assert all(r.outcome == "served" for r in result.latency_records)
    assert all(r.attempts == 1 for r in result.latency_records)
    assert result.alerts == []
    assert result.consultations == 0
    assert result.final_policy.epoch == 0
    assert list(result.transition_trace) == []


def test_hardened_mode_detects_exploits_and_pays_oracle_cost():
    exploit = ExploitSpec(kind="oracle_detectable", corruption_index=1, injected=("ptrace",))
    spec = make_spec({
        "good": RequestBehavior(trace=("read",)),
        "evil": RequestBehavior(trace=("read",), exploit=exploit),
    })
    hardened = run_session(spec, requests("good", "evil"), CFG, mode="hardened")
    assert hardened.latency_records[0].outcome == "served"
    assert hardened.latency_records[1].outcome == "rejected_malicious"
    assert len(hardened.alerts) == 1
    assert hardened.consultations == 0

    unhardened = run_session(spec, requests("good"), CFG, mode="unhardened")
    slowdown = spec.cost_model.oracle_slowdown_factor
    assert hardened.latency_records[0].latency_ms == (
        unhardened.latency_records[0].latency_ms * slowdown
    )


def test_no_session_mutates_its_spec_or_walks_an_unbounded_run(monkeypatch):
    exploit = ExploitSpec(kind="oracle_detectable", corruption_index=1, injected=("ptrace",))
    spec = make_spec({
        "good": RequestBehavior(trace=("read", "write")),
        "other": RequestBehavior(trace=("read", "openat")),
        "evil": RequestBehavior(trace=("read",), exploit=exploit),
    }, extra={"sigaltstack"})
    fields, runs, unknown_run = dict(vars(spec)), spec.runs, spec.unknown_run
    contents = dict(runs)
    budgets = []
    real_walk = simruntime._walk_oracle

    def counted(spec, request, watchdog_ms=math.inf):
        budgets.append(watchdog_ms)
        return real_walk(spec, request, watchdog_ms)

    monkeypatch.setattr(simruntime, "_walk_oracle", counted)
    workload = requests("good", "evil", "other", "good", "nope", "other", "evil", "good", "nope")
    # An oracle run takes at most 6 ms here: an 8 ms watchdog cuts a
    # tenure's second run short, and 10 s cuts none.
    for mode, oracle_mode, watchdog_ms, pretrain in itertools.product(
        SESSION_MODES, ORACLE_MODES, (8.0, 10_000.0), ((), ("good",))
    ):
        config = ControllerConfig(oracle_mode=oracle_mode, watchdog_ms=watchdog_ms,
                                  pretrain_requests=pretrain)
        result = run_session(spec, workload, config, mode=mode)
        if mode == "hardened":
            assert [r.outcome for r in result.latency_records].count("rejected_malicious") == 2
            assert len(result.alerts) == 2
    # Only cut-short runs are walked, and each session found the spec as
    # it was built.
    assert budgets and math.inf not in budgets
    assert vars(spec).keys() == fields.keys()
    assert all(vars(spec)[name] is value for name, value in fields.items())
    assert spec.runs is runs and spec.runs == contents
    assert all(spec.runs[key] is run for key, run in contents.items())
    assert spec.unknown_run is unknown_run


@settings(max_examples=80, deadline=None)
@given(
    bundle=spec_workload_deny(),
    mode=st.sampled_from(["timeloops", "hardened"]),
    oracle_mode=st.sampled_from(ORACLE_MODES),
    # Each lets a fresh tenure finish any one request (at most 22.5 ms here),
    # so every session ends, while a tenure's later requests may be cut.
    watchdog_ms=st.sampled_from([25.0, 30.0, 60.0, 10_000.0]),
    data=st.data(),
)
def test_verdict_table_matches_an_oracle_walk_per_consultation(
    bundle, mode, oracle_mode, watchdog_ms, data
):
    spec, workload, deny = bundle
    handlers = dict(spec.handlers)
    for i in range(data.draw(st.integers(min_value=0, max_value=2))):
        trace = tuple(data.draw(st.lists(st.sampled_from(SYSCALL_POOL), max_size=6)))
        exploit = ExploitSpec(
            kind=data.draw(st.sampled_from(["oracle_detectable", "oracle_undetectable"])),
            corruption_index=data.draw(st.integers(min_value=0, max_value=len(trace))),
            injected=tuple(data.draw(st.lists(st.sampled_from(SYSCALL_POOL + DENY_POOL),
                                              max_size=2))),
        )
        handlers[f"exploit{i}"] = RequestBehavior(trace=trace, exploit=exploit)
    spec = ServiceSpec(name=spec.name, handlers=handlers,
                       static_universe=spec.static_universe | set(SYSCALL_POOL),
                       oracle_extra=spec.oracle_extra, cost_model=spec.cost_model)
    keys = sorted(handlers) + ["unknown"]
    workload = workload + [
        Request(logical_id=len(workload) + i, key=key)
        for i, key in enumerate(data.draw(st.lists(st.sampled_from(keys), max_size=15)))
    ]
    config = ControllerConfig(oracle_mode=oracle_mode, watchdog_ms=watchdog_ms, deny=deny)
    cached = run_session(spec, workload, config, mode=mode)

    # The oracle walked afresh at every consultation, without ``spec.runs``.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(controller, "run_oracle", simruntime._walk_oracle)
        walked = run_session(spec, workload, config, mode=mode)
    assert list(cached.latency_records) == list(walked.latency_records)
    assert cached.policy_log == walked.policy_log
    assert cached.to_json() == walked.to_json()


# --- pretraining ---------------------------------------------------------------

def test_pretrain_empty_equals_new_policy():
    spec = make_spec({"r": RequestBehavior(trace=("read",))})
    driver = SessionDriver(spec, ControllerConfig(pretrain_requests=()))
    assert driver.policy_log == []
    assert driver.policy == new_policy()


def test_pretrain_rejects_exploit_requests():
    exploit = ExploitSpec(kind="oracle_detectable", corruption_index=0, injected=("ptrace",))
    spec = make_spec({"evil": RequestBehavior(trace=("read",), exploit=exploit)})
    with pytest.raises(ExploitInTrainingSet):
        SessionDriver(spec, ControllerConfig(pretrain_requests=("evil",)))


def test_pretrained_session_replays_without_consultation():
    spec = make_spec({
        "a": RequestBehavior(trace=("read", "write")),
        "b": RequestBehavior(trace=("openat",)),
    }, extra={"sigaltstack"})
    config = ControllerConfig(pretrain_requests=("a", "b"))
    result = run_session(spec, requests("a", "b", "a"), config)
    assert result.consultations == 0
    assert all(e.source == "pretrain" for e in result.policy_log)


def test_pretrain_over_all_handlers_matches_full_session_policy():
    spec = make_spec({
        "a": RequestBehavior(trace=("read", "write")),
        "b": RequestBehavior(trace=("openat",)),
    }, extra={"sigaltstack"})
    trained = SessionDriver(spec, ControllerConfig(pretrain_requests=tuple(sorted(spec.handlers))))
    session = run_session(spec, requests("a", "b"), CFG)
    assert trained.policy.allow == session.final_policy.allow


def test_pretrain_log_replays_to_final_policy():
    spec = make_spec({
        "a": RequestBehavior(trace=("read", "write")),
        "b": RequestBehavior(trace=("openat",)),
    }, extra={"sigaltstack"})
    config = ControllerConfig(pretrain_requests=("a",))
    result = run_session(spec, requests("b", "a"), config)
    assert replay_log(result.policy_log).allow == result.final_policy.allow


# --- randomized sessions -------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(bundle=spec_workload_deny())
def test_session_determinism(bundle):
    spec, workload, deny = bundle
    config = ControllerConfig(deny=deny)
    first = run_session(spec, workload, config)
    second = run_session(spec, workload, config)
    assert first.final_policy == second.final_policy
    assert list(first.latency_records) == list(second.latency_records)
    assert list(first.transition_trace) == list(second.transition_trace)
    assert first.consultations == second.consultations


@settings(max_examples=60, deadline=None)
@given(bundle=spec_workload_deny())
def test_update_policy_only_after_benign_outcomes(bundle):
    spec, workload, deny = bundle
    result = run_session(spec, workload, ControllerConfig(deny=deny))
    for transition in result.transition_trace:
        if "update_policy" in transition.actions:
            assert transition.event == "oracle_finished:benign"


@settings(max_examples=60, deadline=None)
@given(bundle=spec_workload_deny())
def test_closed_loop_timeline_and_epoch_accounting(bundle):
    spec, workload, deny = bundle
    result = run_session(spec, workload, ControllerConfig(deny=deny))
    records = list(result.latency_records)
    # the client reissues the next logical request at the previous response
    for previous, current in zip(records, records[1:]):
        assert current.first_attempt_ms == previous.completion_ms
    # epochs never decrease and only update actions bump them
    trace = result.transition_trace
    epochs = [0] + [t.epoch for t in trace]
    for (before, after), transition in zip(zip(epochs, epochs[1:]), trace):
        assert after - before in (0, 1)
        if after > before:
            assert "update_policy" in transition.actions


@settings(max_examples=60, deadline=None)
@given(bundle=spec_workload_deny())
def test_oracle_modes_converge_to_equal_policies(bundle):
    spec, workload, deny = bundle
    single = run_session(spec, workload, ControllerConfig(deny=deny))
    watchdog = run_session(
        spec, workload, ControllerConfig(oracle_mode="watchdog", deny=deny)
    )
    assert single.final_policy.allow == watchdog.final_policy.allow


@settings(max_examples=80, deadline=None)
@given(
    bundle=spec_workload_deny(),
    oracle_mode=st.sampled_from(ORACLE_MODES),
    watchdog_ms=st.sampled_from([25.0, 60.0, 10_000.0]),
    data=st.data(),
)
def test_production_runs_under_the_policy_the_log_replays_to(
    bundle, oracle_mode, watchdog_ms, data
):
    spec, workload, deny = bundle
    pretrain_requests = tuple(data.draw(st.lists(st.sampled_from(sorted(spec.handlers)))))
    config = ControllerConfig(oracle_mode=oracle_mode, watchdog_ms=watchdog_ms, deny=deny,
                              pretrain_requests=pretrain_requests)
    drivers, initial, stale = [], [], []
    real_run_production = controller.run_production

    class RecordingDriver(controller.SessionDriver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            drivers.append(self)
            initial.append((self.policy, self.policy.epoch, sorted(self.policy.allow)))

    def checked_run_production(spec, policy, request):
        expected = replay_log(drivers[-1].policy_log, deny)
        if policy != expected:
            stale.append((request, policy.epoch, expected.epoch))
        return real_run_production(spec, policy, request)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(controller, "SessionDriver", RecordingDriver)
        patch.setattr(controller, "run_production", checked_run_production)
        result = run_session(spec, workload, config)

    assert stale == []
    # Sessions may end while the oracle runs, after the last production start.
    assert replay_log(result.policy_log, deny) == result.final_policy
    for policy, epoch, allow in initial:
        assert (policy.epoch, sorted(policy.allow)) == (epoch, allow)
