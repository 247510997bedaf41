"""The paper's claims as relations that one session of ``run_session`` must
keep, stated from the paper rather than from ``tests/reference.py``: a
misreading shared by the program and the model passes the parity tests,
but not these."""

from dataclasses import replace

from conftest import make_spec, requests
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_reference import sessions

from timeloops.controller import ControllerConfig, run_session
from timeloops.errors import AttemptsExhausted
from timeloops.simruntime import ExploitSpec, RequestBehavior


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
    config = replace(config, oracle_mode="single", watchdog_ms=10_000.0)
    # A workload holds at most 25 requests; ``order`` permutes their indices.
    permuted = [workload[i].key for i in order if i < len(workload)]
    try:
        sent = run_session(spec, workload, config)
        reordered = run_session(spec, requests(*permuted), config)
    except AttemptsExhausted:
        return
    assert reordered.final_policy.allow == sent.final_policy.allow
