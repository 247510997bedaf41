"""The transition vocabulary of session.json, and the renderer that writes it."""

import itertools
import math
import tracemalloc

import pytest
import reference
from conftest import make_spec, requests, spec_workload_deny
from hypothesis import given, settings
from hypothesis import strategies as st

from timeloops.controller import (
    HALTED,
    LOG_EVENT,
    ORACLE_MODES,
    ORACLE_RUNNING,
    PRODUCTION_RUNNING,
    SHUTDOWN,
    START_ORACLE,
    START_PRODUCTION,
    WATCHDOG_FIRED,
    ControllerConfig,
    RaiseAlert,
    SessionDriver,
    SessionResult,
    Transition,
    TransitionTrace,
    UpdatePolicy,
    run_session,
    step,
)
from timeloops.errors import IllegalTransition
from timeloops.policy import new_policy
from timeloops.simruntime import (
    COMPLETED,
    WATCHDOG_TIMEOUT,
    Benign,
    DeniedSyscallHit,
    ExploitSpec,
    Malicious,
    PolicyViolation,
    RequestBehavior,
)
from timeloops.workload import generate_workload

SINGLE = ControllerConfig()
WATCHDOG = ControllerConfig(oracle_mode="watchdog")

STATES = {
    "production": PRODUCTION_RUNNING,
    "oracle": ORACLE_RUNNING,
    "halted": HALTED,
}
EVENTS = {
    "completed": COMPLETED,
    "violation": PolicyViolation("write", 0),
    "denied": DeniedSyscallHit("mount"),
    "benign": Benign(frozenset({"read"})),
    "malicious": Malicious("report"),
    "oracle_watchdog": WATCHDOG_TIMEOUT,
    "watchdog_fired": WATCHDOG_FIRED,
    "shutdown": SHUTDOWN,
}

# (state, event, config) -> (from, event, to, actions) as session.json spells them.
VOCABULARY = {
    ("production", "completed", "single"): (
        "production_running", "prod_exited:completed", "production_running", ("log_event",)),
    ("production", "violation", "single"): (
        "production_running", "prod_exited:policy_violation:write", "oracle_running",
        ("start_oracle",)),
    ("production", "denied", "single"): (
        "production_running", "prod_exited:denied_syscall:mount", "production_running",
        ("raise_alert", "start_production")),
    ("oracle", "benign", "single"): (
        "oracle_running", "oracle_finished:benign", "production_running",
        ("update_policy", "start_production")),
    ("oracle", "benign", "watchdog"): (
        "oracle_running", "oracle_finished:benign", "oracle_running", ("update_policy",)),
    ("oracle", "malicious", "single"): (
        "oracle_running", "oracle_finished:malicious", "production_running",
        ("raise_alert", "start_production")),
    ("oracle", "oracle_watchdog", "single"): (
        "oracle_running", "oracle_finished:watchdog_timeout", "production_running",
        ("log_event", "start_production")),
    ("oracle", "watchdog_fired", "single"): (
        "oracle_running", "watchdog_fired", "production_running", ("start_production",)),
    ("production", "shutdown", "single"): (
        "production_running", "shutdown", "halted", ("log_event",)),
    ("oracle", "shutdown", "single"): ("oracle_running", "shutdown", "halted", ("log_event",)),
    ("halted", "shutdown", "single"): ("halted", "shutdown", "halted", ("log_event",)),
}
CONFIGS = {"single": SINGLE, "watchdog": WATCHDOG}


def _trace(transitions):
    """A transition trace holding ``transitions``, appended one by one."""
    trace = TransitionTrace()
    for at_ms, *row, epoch in transitions:
        trace.append(at_ms, tuple(row), epoch)
    return trace


def _assert_renders_like_json(result):
    assert result.to_json() == reference.session_json(result)


def test_vocabulary_covers_every_pair_step_accepts():
    accepted = set()
    for (state, event), mode in itertools.product(
        itertools.product(STATES, EVENTS), CONFIGS
    ):
        try:
            step(STATES[state], EVENTS[event], CONFIGS[mode])
        except IllegalTransition:
            continue
        accepted.add((state, event, mode))
    # The watchdog oracle mode changes only what a benign verdict does.
    pinned = set(VOCABULARY) | {
        (state, event, "watchdog") for state, event, mode in VOCABULARY
        if (state, event) != ("oracle", "benign")
    }
    assert accepted == pinned


@pytest.mark.parametrize("pair", sorted(VOCABULARY), ids="-".join)
def test_transition_labels_are_pinned(pair):
    state, event, mode = pair
    driver = SessionDriver(make_spec({}), CONFIGS[mode])
    driver.state = STATES[state]
    driver._transition(EVENTS[event])
    t = driver.transition_trace[-1]
    assert (t.from_state, t.event, t.to_state, t.actions) == VOCABULARY[pair]


def test_a_trace_stores_one_label_object_per_distinct_row():
    # The row table holds each distinct row once, so two events of one name
    # share the label of the row they add.
    driver = SessionDriver(make_spec({}), SINGLE)
    for event in (PolicyViolation("write", 0), PolicyViolation("write", 1),
                  DeniedSyscallHit("mount"), DeniedSyscallHit("mount")):
        driver.state = PRODUCTION_RUNNING
        driver._transition(event)
    violation, again, denied, denied_again = (t.event for t in driver.transition_trace)
    assert violation is again and denied is denied_again


@settings(max_examples=60, deadline=None)
@given(bundle=spec_workload_deny(), oracle_mode=st.sampled_from(ORACLE_MODES))
def test_to_json_equals_the_indented_dump(bundle, oracle_mode):
    spec, workload, deny = bundle
    result = run_session(spec, workload, ControllerConfig(oracle_mode=oracle_mode, deny=deny))
    assert result.transition_trace
    _assert_renders_like_json(result)


def test_unhardened_session_renders_an_empty_transition_list():
    spec = make_spec({"r": RequestBehavior(trace=("read",))})
    result = run_session(spec, requests("r", "r"), mode="unhardened")
    assert list(result.transition_trace) == []
    _assert_renders_like_json(result)
    assert '\n  "transitions": [],\n' in result.to_json()


def test_alerts_and_denied_syscall_events_render_like_json():
    undetectable = ExploitSpec(kind="oracle_undetectable", corruption_index=1,
                               injected=("mount",))
    detectable = ExploitSpec(kind="oracle_detectable", corruption_index=1,
                             injected=("ptrace",))
    spec = make_spec({
        "good": RequestBehavior(trace=("read", "write")),
        'deny "é"': RequestBehavior(trace=("read",), exploit=undetectable),
        "evil\n": RequestBehavior(trace=("read", "write"), exploit=detectable),
    })
    result = run_session(spec, requests("good", 'deny "é"', "evil\n", "good"),
                         ControllerConfig(deny=frozenset({"mount"})))
    assert len(result.alerts) == 2
    assert any(t.event == "prod_exited:denied_syscall:mount" for t in result.transition_trace)
    _assert_renders_like_json(result)


@pytest.mark.parametrize("at_ms", [math.inf, -math.inf, math.nan, 1e300, 0.1])
def test_transition_times_render_like_json(at_ms):
    result = SessionResult(
        final_policy=new_policy(), policy_log=[], latency_records=[], alerts=[],
        transition_trace=_trace([
            Transition(at_ms=0.0, from_state="production_running", event="shutdown",
                       to_state="halted", actions=("log_event",), epoch=0),
            Transition(at_ms=at_ms, from_state="halted", event="shutdown",
                       to_state="halted", actions=(), epoch=0),
        ]),
        consultations=0,
    )
    _assert_renders_like_json(result)


ROWS = [
    Transition(0.0, "production_running", "prod_exited:policy_violation:write",
               "oracle_running", ("start_oracle",), 0),
    Transition(2.5, "oracle_running", "oracle_finished:benign", "production_running",
               ("update_policy", "start_production"), 1),
    Transition(9.0, "production_running", "prod_exited:completed", "production_running",
               ("log_event",), 1),
    Transition(12.0, "production_running", "prod_exited:completed", "production_running",
               ("log_event",), 1),
    Transition(12.0, "production_running", "shutdown", "halted", ("log_event",), 1),
]


def test_transition_trace_is_a_sequence_of_transitions():
    trace = _trace(ROWS)
    assert len(trace) == len(ROWS) and len(trace.rows) == 4
    assert list(trace) == ROWS
    assert all(type(t) is Transition for t in trace)
    assert [t.actions for t in trace] == [t.actions for t in ROWS]
    for index in range(-len(ROWS), len(ROWS)):
        assert trace[index] == ROWS[index]
    with pytest.raises(IndexError):
        trace[len(ROWS)]
    with pytest.raises(TypeError):
        trace[1:3]
    assert not TransitionTrace() and list(TransitionTrace()) == []
    assert trace.index(ROWS[3]) == 3 and ROWS[4] in trace


def test_trace_rows_hold_the_drivers_labels():
    driver = SessionDriver(make_spec({}), SINGLE)
    events = [PolicyViolation("read", 0), Benign(frozenset({"read"})), COMPLETED,
              COMPLETED, DeniedSyscallHit("mount"), SHUTDOWN]
    for event in events:
        driver._transition(event)
    states = [state.label for state in (PRODUCTION_RUNNING, ORACLE_RUNNING, HALTED)]
    actions = [kind.label for kind in (START_PRODUCTION, START_ORACLE, UpdatePolicy, RaiseAlert,
                                       LOG_EVENT)]
    for t, event in zip(driver.transition_trace, events, strict=True):
        assert t.event == event.label
        assert any(t.from_state is label for label in states)
        assert any(t.to_state is label for label in states)
        assert all(any(a is label for label in actions) for a in t.actions)


# Odd values first, last and in between; one transition; epochs that are not contiguous.
_ODD = {0: -math.inf, 3: math.inf, 4: math.nan, 7: -0.0, 9: 1e300}
_RENDERED_TRACES = {
    "odd": [ROWS[i % len(ROWS)]._replace(at_ms=_ODD.get(i, i / 8), epoch=i) for i in range(10)],
    "one": ROWS[:1],
    "sparse": [row._replace(epoch=e) for row, e in zip(ROWS, (0, 7, 7, 10**12, 0))],
}


@pytest.mark.parametrize("name", _RENDERED_TRACES)
def test_to_json_joins_fragments_like_json(name):
    result = SessionResult(final_policy=new_policy(), policy_log=[], latency_records=[],
                           alerts=[], transition_trace=_trace(_RENDERED_TRACES[name]),
                           consultations=0)
    _assert_renders_like_json(result)


def _long_session(staticsite):
    requests = generate_workload(staticsite, 10_000, 7, {"home": 8, "search": 1, "upload": 1})
    return run_session(staticsite, requests, ControllerConfig(oracle_mode="watchdog"))


def test_long_session_renders_like_json(staticsite):
    result = _long_session(staticsite)
    assert len(result.transition_trace) > 10_000
    _assert_renders_like_json(result)


def test_to_json_holds_little_beside_its_document(staticsite):
    result = _long_session(staticsite)
    tracemalloc.start()
    try:
        document = result.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The document, four pointers and one at_ms string per transition take
    # about 1.4 here; a string per transition beside the document takes 2.
    assert peak < 1.6 * len(document)


def test_a_long_trace_stays_compact():
    driver = SessionDriver(make_spec({}), SINGLE)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(100_000):
            driver.now += 1.0
            driver._transition(COMPLETED)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(driver.transition_trace) == 100_000
    # Columns take 20 bytes a row; a tuple per row took about 128.
    assert grown < 3 * 2**20
