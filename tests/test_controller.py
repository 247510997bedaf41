import itertools
import json
import math

import pytest
from conftest import DENY_POOL, SYSCALL_POOL, make_spec, requests, spec_workload_deny
from hypothesis import given, settings
from hypothesis import strategies as st

from timeloops import controller, simruntime
from timeloops.controller import (
    ORACLE_MODES,
    SESSION_MODES,
    ControllerConfig,
    Halted,
    LogEvent,
    OracleRunning,
    ProductionRunning,
    RaiseAlert,
    Shutdown,
    StartOracle,
    StartProduction,
    UpdatePolicy,
    SessionDriver,
    WatchdogFired,
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
    Benign,
    Completed,
    CostModel,
    DeniedSyscallHit,
    ExploitSpec,
    Malicious,
    PolicyViolation,
    RequestBehavior,
    ServiceSpec,
    WatchdogTimeout,
)
from timeloops.workload import Request

CFG = ControllerConfig()
CFG_WATCHDOG = ControllerConfig(oracle_mode="until_watchdog")


# --- step: the pure transition function ---------------------------------------

def test_violation_starts_oracle():
    state, actions = step(ProductionRunning(), PolicyViolation("write", 1), CFG)
    assert state == OracleRunning()
    assert actions == (StartOracle(),)


def test_completed_request_needs_no_restart():
    state, actions = step(ProductionRunning(), Completed(), CFG)
    assert state == ProductionRunning()
    assert [type(action) for action in actions] == [LogEvent]


def test_benign_outcome_updates_policy_and_restarts_production():
    observed = frozenset({"read", "write"})
    state, actions = step(OracleRunning(), Benign(observed), CFG)
    assert state == ProductionRunning()
    assert actions == (UpdatePolicy(observed), StartProduction())


def test_benign_outcome_keeps_oracle_alive_until_watchdog():
    observed = frozenset({"read"})
    before = OracleRunning()
    state, actions = step(before, Benign(observed), CFG_WATCHDOG)
    assert state == OracleRunning()
    assert actions == (UpdatePolicy(observed),)


def test_malicious_outcome_alerts_without_policy_update():
    state, actions = step(OracleRunning(), Malicious("corruption"), CFG)
    assert state == ProductionRunning()
    assert actions == (RaiseAlert("corruption"), StartProduction())
    assert not any(isinstance(a, UpdatePolicy) for a in actions)


def test_watchdog_fired_switches_back_to_production():
    state, actions = step(OracleRunning(), WatchdogFired(), CFG)
    assert state == ProductionRunning()
    assert actions == (StartProduction(),)


def test_shutdown_halts_from_any_state():
    for state in (ProductionRunning(), OracleRunning(), Halted()):
        after, _ = step(state, Shutdown(), CFG)
        assert after == Halted()


def test_illegal_transitions_raise():
    with pytest.raises(IllegalTransition):
        step(ProductionRunning(), Benign(frozenset()), CFG)
    with pytest.raises(IllegalTransition):
        step(OracleRunning(), Completed(), CFG)
    with pytest.raises(IllegalTransition):
        step(ProductionRunning(), WatchdogFired(), CFG)
    with pytest.raises(IllegalTransition):
        step(Halted(), Completed(), CFG)
    with pytest.raises(IllegalTransition):
        step(ProductionRunning(), WatchdogTimeout(), CFG)


def test_attempt_returns_the_outcome_and_a_halted_driver_refuses():
    driver = SessionDriver(make_spec({"r": RequestBehavior(trace=("read",))}), CFG)
    assert driver.attempt(Request(0, "r")) is None  # a violation, retried
    assert driver.attempt(Request(0, "r")) == "served"
    driver.shutdown()
    with pytest.raises(IllegalTransition, match="session driver reached a halted controller"):
        driver.attempt(Request(1, "r"))


def test_denied_syscall_hit_alerts_and_restarts():
    state, actions = step(ProductionRunning(), DeniedSyscallHit("mount"), CFG)
    assert state == ProductionRunning()
    assert isinstance(actions[0], RaiseAlert)
    assert actions[1] == StartProduction()


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


def test_until_watchdog_mode_serves_from_oracle_then_switches_back():
    cost = CostModel(base_request_ms=1.0, production_per_syscall_ms=1.0,
                     oracle_slowdown_factor=2.0, restart_ms=5.0)
    spec = make_spec(
        {"a": RequestBehavior(trace=("read",)),
         "b": RequestBehavior(trace=("write",))},
        cost=cost,
    )
    config = ControllerConfig(oracle_mode="until_watchdog", watchdog_ms=12.0)
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
    watchdog = run_session(spec, workload, ControllerConfig(oracle_mode="until_watchdog"))
    assert single.final_policy.allow == watchdog.final_policy.allow


def test_empty_workload_is_config_error():
    spec = make_spec({"r": RequestBehavior(trace=("read",))})
    with pytest.raises(ConfigError):
        run_session(spec, [], CFG)


def test_denied_oracle_extras_are_config_error():
    spec = make_spec({"r": RequestBehavior(trace=("read",))}, extra={"sigaltstack"})
    with pytest.raises(ConfigError):
        run_session(spec, requests("r"), ControllerConfig(deny=frozenset({"sigaltstack"})))


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
        spec, workload, ControllerConfig(oracle_mode="until_watchdog", deny=deny)
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
