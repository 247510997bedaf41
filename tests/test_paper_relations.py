"""The paper's claims as relations that one session of ``run_session`` must
keep, stated from the paper rather than from ``tests/reference.py``: a
misreading shared by the program and the model passes the parity tests,
but not these."""

import operator

from conftest import SCENARIO_DIR, make_spec, requests
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_reference import sessions

from timeloops.controller import ControllerConfig, run_session
from timeloops.errors import AttemptsExhausted
from timeloops.simruntime import ExploitSpec, RequestBehavior, load_scenario
from timeloops.workload import generate_workload


def learnable(spec, keys) -> frozenset[str]:
    """What a session of ``keys`` may learn: the oracle's instrumentation
    extras, and the effective trace of each key whose exploit, if any, the
    oracle cannot detect. A key with no handler issues nothing."""
    names = set(spec.oracle_extra)
    for key in keys:
        behavior = spec.handlers.get(key)
        if behavior is None:
            continue
        if behavior.exploit is None or behavior.exploit.kind == "oracle_undetectable":
            names.update(behavior.effective_trace())
    return frozenset(names)


# The oracle detects "evil" after it has run "call_00", then passes "a".
_DETECTED_THEN_BENIGN = (
    make_spec({"evil": RequestBehavior(trace=("call_00", "call_01"), exploit=ExploitSpec(
                   kind="oracle_detectable", corruption_index=1, injected=("call_02",))),
               "a": RequestBehavior(trace=("call_03",))}),
    requests("evil", "a"), ControllerConfig(), "timeloops")


@settings(max_examples=300, deadline=None)
@given(sessions())
@example(_DETECTED_THEN_BENIGN)
def test_the_final_allow_list_holds_only_what_the_oracle_passed(case):
    """Tightness: the policy grows only by benign oracle verdicts, so the
    final allow-list is a subset of ``learnable`` over the workload's and
    pretraining's keys, in every session mode.

    The bound is not ``simruntime.benign_closure``: the oracle passes an
    exploit it cannot detect, so that exploit's own trace, its injection
    included, is learned. A detected exploit teaches nothing, not even the
    part of its trace that ran before the corruption."""
    spec, workload, config, mode = case
    try:
        result = run_session(spec, workload, config, mode)
    except AttemptsExhausted:
        return
    keys = [request.key for request in workload] + list(config.pretrain_requests)
    assert result.final_policy.allow <= learnable(spec, keys)


# "a" issues call_00 and then call_01; "b" issues call_00 alone.
_OVERLAPPING = (
    make_spec({"a": RequestBehavior(trace=("call_00", "call_01")),
               "b": RequestBehavior(trace=("call_00",))}),
    requests("a", "b"), ControllerConfig(), "timeloops")


@settings(max_examples=300, deadline=None)
@given(sessions(), st.permutations(range(25)))
@example(_OVERLAPPING, [1, 0])
def test_the_final_allow_list_does_not_depend_on_the_order_of_requests(case, order):
    """Order: in single mode with a 10 s watchdog, no oracle run is cut
    short, so each request that violates the policy is answered by its own
    verdict. The final allow-list is then the union of what the benign
    verdicts observed, and a permutation of the workload gives the same one.
    A case where either order ends in ``AttemptsExhausted`` is skipped.

    Alerts are not compared: a detectable exploit whose injection is
    already allowed completes in production, the paper's category 2, so
    whether it raises an alert depends on what was learned before it ran."""
    spec, workload, config, _ = case
    config = config._replace(oracle_mode="single", watchdog_ms=10_000.0)
    # A workload holds at most 25 requests; ``order`` permutes their indices.
    permuted = [workload[i].key for i in order if i < len(workload)]
    try:
        sent = run_session(spec, workload, config)
        reordered = run_session(spec, requests(*permuted), config)
    except AttemptsExhausted:
        return
    assert reordered.final_policy.allow == sent.final_policy.allow


# "a" issues nothing, so it is served in production and never consulted.
_NEVER_VIOLATES = (make_spec({"a": RequestBehavior(trace=())}, extra=("extra_0",)),
                   requests("a"), ControllerConfig(), "timeloops")


@settings(max_examples=300, deadline=None)
@given(sessions(), st.integers(0, 24))
@example(_NEVER_VIOLATES, 0)
def test_pretraining_a_benign_key_adds_its_observation_and_no_consultation(case, index):
    """Pretraining: in single mode with a 10 s watchdog, no oracle run is
    cut short. Adding a benign key of the workload to the drawn
    pretraining, less that key, then gives the final allow-list of the
    session without it plus that key's oracle observation, its trace and
    ``oracle_extra``, and never more consultations: each request meets a
    policy at least as large as before, so violates it no more often. A
    case where either session ends in ``AttemptsExhausted`` is skipped.

    The allow-list is not simply unchanged because the key is sent anyway:
    pretraining learns ``oracle_extra`` even for a key that never violates,
    whose trace is empty or already allowed, so that the session never
    consults the oracle on it."""
    spec, workload, config, _ = case
    benign = sorted({request.key for request in workload if request.key in spec.handlers
                     and spec.handlers[request.key].exploit is None})
    if not benign:
        return
    key = benign[index % len(benign)]
    config = config._replace(oracle_mode="single", watchdog_ms=10_000.0, pretrain_requests=tuple(
        k for k in config.pretrain_requests if k != key))
    try:
        sent = run_session(spec, workload, config)
        pretrained = run_session(spec, workload, config._replace(
            pretrain_requests=config.pretrain_requests + (key,)))
    except AttemptsExhausted:
        return
    observation = frozenset(spec.handlers[key].trace) | spec.oracle_extra
    assert pretrained.final_policy.allow == sent.final_policy.allow | observation
    assert pretrained.consultations <= sent.consultations


_STATICSITE = load_scenario(SCENARIO_DIR / "staticsite.json")[0]
_STATICSITE_WORKLOAD = generate_workload(_STATICSITE, 3000, 7,
                                         {"home": 8, "search": 1, "upload": 1})


@settings(max_examples=300, deadline=None)
@given(sessions())
@example((_STATICSITE, _STATICSITE_WORKLOAD, ControllerConfig(), "timeloops"))
@example((_STATICSITE, _STATICSITE_WORKLOAD, ControllerConfig(oracle_mode="watchdog"),
          "timeloops"))
def test_learning_costs_latency_only_until_the_last_restart(case):
    """Amortization: the controller's cost is paid while it learns. A served
    request with a handler is never faster under the controller than
    unhardened: it runs the same trace, in production or in the slower
    oracle, after any failed attempts and restarts.

    Once the last container started is production, nothing is consulted
    or restarted again. So every request first sent once that container is
    ready, ``restart_ms`` after it started, has exactly its unhardened
    latency. The first production container starts ready at 0.0, with no
    row in the trace. A case that ends in ``AttemptsExhausted`` is
    skipped."""
    spec, workload, config, _ = case
    try:
        learned = run_session(spec, workload, config)
    except AttemptsExhausted:
        return
    unhardened = run_session(spec, workload, config, mode="unhardened").latency_records
    records = learned.latency_records
    latencies = list(map(operator.sub, records.completion_ms, records.first_ms))
    baseline = list(map(operator.sub, unhardened.completion_ms, unhardened.first_ms))
    for request, key, outcome, latency, unhardened_latency in zip(
            records.ids, records.keys, records.outcomes, latencies, baseline):
        if outcome == "served" and key in spec.handlers:
            assert latency >= unhardened_latency, (
                f"request {request} ({key!r}) took {latency} ms, "
                f"less than its unhardened {unhardened_latency} ms")

    ready_at, last_start = 0.0, "start_production"
    for transition in learned.transition_trace:
        for action in transition.actions:
            if action in ("start_production", "start_oracle"):
                ready_at = transition.at_ms + spec.cost_model.restart_ms
                last_start = action
    if last_start == "start_production":
        for request, first, latency, unhardened_latency in zip(
                records.ids, records.first_ms, latencies, baseline):
            if first >= ready_at:
                assert latency == unhardened_latency, (
                    f"request {request}, sent at {first} ms with production ready at "
                    f"{ready_at} ms, took {latency} ms, "
                    f"not its unhardened {unhardened_latency} ms")
