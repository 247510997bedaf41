"""``run_session`` against the reference model of ``tests/reference.py``."""

import pytest
import reference
from conftest import DENY_POOL, EXTRA_POOL, SYSCALL_POOL, make_spec, requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timeloops.controller import ORACLE_MODES, ControllerConfig, run_session
from timeloops.errors import AttemptsExhausted
from timeloops.policy import export_seccomp, render_log, replay_log
from timeloops.simruntime import EXPLOIT_KINDS, Benign, CostModel, ExploitSpec, RequestBehavior
from timeloops.workload import OUTCOMES, render_cumulative_csv, render_latency_csv

# Deny-listed names appear only in injections, so pretraining never meets one.
NAMES = SYSCALL_POOL[:8]
DENIABLE = DENY_POOL[:2]


@st.composite
def sessions(draw):
    """A random service, workload, configuration and session mode."""
    handlers = {}
    for i in range(draw(st.integers(1, 4))):
        trace = tuple(draw(st.lists(st.sampled_from(NAMES), max_size=6)))
        exploit = None
        if draw(st.booleans()):
            exploit = ExploitSpec(
                kind=draw(st.sampled_from(EXPLOIT_KINDS)),
                corruption_index=draw(st.integers(0, len(trace))),
                injected=tuple(draw(st.lists(st.sampled_from(NAMES[:3] + DENIABLE), min_size=1, max_size=2))),
            )
        handlers[f"k{i}"] = RequestBehavior(trace=trace, exploit=exploit)
    # Whole and half milliseconds, so that a watchdog tenure often ends
    # exactly at its budget, and the watchdog fires.
    cost = CostModel(base_request_ms=draw(st.sampled_from([0.0, 1.0])),
                     production_per_syscall_ms=draw(st.sampled_from([0.5, 1.0])),
                     oracle_slowdown_factor=draw(st.sampled_from([2.0, 3.0])),
                     restart_ms=draw(st.sampled_from([1.0, 5.0])))
    spec = make_spec(handlers, extra=draw(st.lists(st.sampled_from(EXTRA_POOL), max_size=2)),
                     cost=cost)
    benign = sorted(k for k, b in handlers.items() if b.exploit is None)
    config = ControllerConfig(
        oracle_mode=draw(st.sampled_from(ORACLE_MODES)),
        # Short enough to cut many oracle runs short, or long enough for all.
        watchdog_ms=draw(st.sampled_from([4.0, 6.0, 12.0, 10_000.0])),
        deny=frozenset(draw(st.sets(st.sampled_from(DENIABLE)))),
        pretrain_requests=tuple(draw(st.lists(st.sampled_from(benign), max_size=2, unique=True)))
        if benign else (),
    )
    # "unknown" has no handler.
    keys = draw(st.lists(st.sampled_from(sorted(handlers) + ["unknown"]), min_size=1, max_size=25))
    mode = draw(st.sampled_from(["timeloops", "timeloops", "unhardened", "hardened"]))
    return spec, requests(*keys), config, mode


# A watchdog tenure that learns "write" and ends exactly at its budget, so
# the watchdog fires before "a" runs in production again.
_WATCHDOG_FIRES = (make_spec({"a": RequestBehavior(trace=("read",)),
                              "b": RequestBehavior(trace=("write",))}),
                   requests("a", "b", "a"),
                   ControllerConfig(oracle_mode="watchdog", watchdog_ms=8.0), "timeloops")
# A hijacked run whose first syscall is deny-listed.
_DENIED_FIRST = (make_spec({"evil": RequestBehavior(trace=("read",), exploit=ExploitSpec(
                     kind="oracle_undetectable", corruption_index=0, injected=(DENIABLE[0],)))}),
                 requests("evil", "evil"),
                 ControllerConfig(deny=frozenset(DENIABLE)), "timeloops")


@settings(max_examples=200, deadline=None)
@given(sessions())
@example(_WATCHDOG_FIRES)
@example(_DENIED_FIRST)
def test_run_session_matches_the_reference_model(case):
    assert_matches_model(*case)


def assert_matches_model(spec, workload, config, mode):
    """Run one session in ``run_session`` and in the model: the two must
    give the same results and the same five artifacts, and the session
    must keep the paper's invariants."""
    try:
        model = reference.Session(spec, workload, config, mode)
    except AttemptsExhausted as exc:
        # A request the oracle never finishes within the watchdog fails every attempt.
        with pytest.raises(AttemptsExhausted) as raised:
            run_session(spec, workload, config, mode)
        assert str(raised.value) == str(exc)
        return
    result = run_session(spec, workload, config, mode)

    assert list(result.latency_records) == model.latency_records
    assert result.policy_log == model.policy_log
    assert result.alerts == model.alerts
    assert result.consultations == model.consultations
    assert result.final_policy == model.final_policy
    assert result.to_json() == reference.session_json(model)
    assert render_latency_csv(result.latency_records) == reference.latency_csv(model.latency_records)
    assert (render_cumulative_csv(result.latency_records)
            == reference.cumulative_csv(model.latency_records))
    assert render_log(result.policy_log) == reference.policy_log(model)
    assert export_seccomp(result.final_policy) == reference.profile_json(model)

    # The policy grows only on a benign verdict: pretraining, then a
    # transition whose event is one.
    log, policy = result.policy_log, result.final_policy
    pretrained = sum(entry.source == "pretrain" for entry in log)
    assert all(entry.source == "pretrain" for entry in log[:pretrained])
    epoch = pretrained
    for t in result.transition_trace:
        assert t.epoch == epoch or (t.epoch == epoch + 1 and t.event == Benign.label)
        epoch = t.epoch
    assert epoch == policy.epoch == len(log)
    assert not policy.allow & policy.deny
    assert not any(set(entry.added) & policy.deny for entry in log)
    assert replay_log(log, config.deny) == policy
    # Every request ends, once, in the order sent.
    assert [(r.logical_id, r.key) for r in result.latency_records] == workload
    assert all(r.outcome in OUTCOMES for r in result.latency_records)
