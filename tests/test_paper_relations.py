"""The paper's claims as relations that one session of ``run_session`` must
keep, stated from the paper rather than from ``tests/reference.py``: a
misreading shared by the program and the model passes the parity tests,
but not these."""

from conftest import make_spec, requests
from hypothesis import example, given, settings
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
