import dataclasses
import math
from functools import partial

import pytest
from conftest import DENY_POOL, SYSCALL_POOL, make_spec, service_specs
from hypothesis import given
from hypothesis import strategies as st

from timeloops.errors import ScenarioError
from timeloops.policy import SyscallPolicy, new_policy
from timeloops.simruntime import (
    Benign,
    Completed,
    EXPLOIT_KINDS,
    CostModel,
    ExploitSpec,
    Malicious,
    PolicyViolation,
    RequestBehavior,
    WatchdogTimeout,
    _walk_oracle,
    exploit_category,
    load_scenario,
    run_oracle,
    run_production,
    run_unrestricted,
)

CHEAP = CostModel(base_request_ms=1.0, production_per_syscall_ms=2.0,
                  oracle_slowdown_factor=3.0, restart_ms=10.0)
_spec = partial(make_spec, cost=CHEAP)


def _allow(*names):
    return SyscallPolicy(allow=frozenset(names))


def test_production_fully_allowed_completes():
    spec = _spec({"r": RequestBehavior(trace=("read", "write"))})
    reason, elapsed = run_production(spec, _allow("read", "write"), "r")
    assert reason == Completed()
    assert elapsed == 1.0 + 2 * 2.0


def test_production_stops_at_first_non_allowed_syscall():
    spec = _spec({"r": RequestBehavior(trace=("read", "write"))})
    reason, elapsed = run_production(spec, _allow("read"), "r")
    assert reason == PolicyViolation(syscall="write", at_index=1)
    # only the allowed prefix was executed
    assert elapsed == 1.0 + 1 * 2.0


def test_production_does_not_detect_exploits():
    exploit = ExploitSpec(kind="oracle_detectable", corruption_index=1, injected=("execve",))
    spec = _spec({"r": RequestBehavior(trace=("read", "write"), exploit=exploit)})
    reason, _ = run_production(spec, _allow("read", "write"), "r")
    # corruption goes unnoticed; the injected syscall trips the filter instead
    assert reason == PolicyViolation(syscall="execve", at_index=1)


def test_production_unknown_request_completes_at_the_base_cost():
    spec = _spec({"r": RequestBehavior(trace=("read",))})
    reason, elapsed = run_production(spec, new_policy(), "nope")
    assert reason == Completed()
    assert elapsed == 1.0


@st.composite
def _specs_with_exploits(draw):
    """Random services whose handlers may carry an exploit annotation."""
    spec = draw(service_specs())
    handlers = {}
    for key, behavior in spec.handlers.items():
        exploit = None
        if draw(st.booleans()):
            exploit = ExploitSpec(
                kind=draw(st.sampled_from(EXPLOIT_KINDS)),
                corruption_index=draw(st.integers(0, len(behavior.trace))),
                injected=tuple(draw(st.lists(st.sampled_from(SYSCALL_POOL + DENY_POOL),
                                             max_size=3))),
            )
        handlers[key] = dataclasses.replace(behavior, exploit=exploit)
    return dataclasses.replace(spec, handlers=handlers)


def _walk(spec, policy, request):
    """Production run by a plain walk of the trace from its first syscall."""
    cost = spec.cost_model
    behavior = spec.handlers.get(request)
    trace = () if behavior is None else behavior.effective_trace()
    for index, syscall in enumerate(trace):
        if syscall not in policy.allow:
            return PolicyViolation(syscall, index), cost.production_elapsed(index)
    return Completed(), cost.production_elapsed(len(trace))


@given(spec=_specs_with_exploits(), data=st.data())
def test_production_and_unrestricted_runs_match_a_trace_walk(spec, data):
    allow = frozenset(data.draw(st.lists(st.sampled_from(SYSCALL_POOL + DENY_POOL))))
    policy = SyscallPolicy(epoch=data.draw(st.integers(0, 9)), allow=allow)
    request = data.draw(st.sampled_from(sorted(spec.handlers) + ["nope"]))
    assert run_production(spec, policy, request) == _walk(spec, policy, request)
    unrestricted = _walk(spec, SyscallPolicy(allow=frozenset(SYSCALL_POOL + DENY_POOL)), request)
    assert run_unrestricted(spec, request) == unrestricted


@given(spec=_specs_with_exploits(), data=st.data())
def test_passing_runs_share_one_result(spec, data):
    request = data.draw(st.sampled_from(sorted(spec.handlers) + ["nope"]))
    everything = SyscallPolicy(allow=frozenset(SYSCALL_POOL + DENY_POOL))
    first = run_production(spec, everything, request)
    assert isinstance(first[0], Completed)
    assert run_production(spec, SyscallPolicy(epoch=1, allow=everything.allow), request) is first
    assert run_unrestricted(spec, request) is run_unrestricted(spec, request) is first


def test_oracle_observes_trace_plus_instrumentation_extras():
    spec = _spec(
        {"r": RequestBehavior(trace=("read", "openat"))},
        extra={"sigaltstack"},
    )
    outcome, elapsed = run_oracle(spec, "r")
    assert outcome == Benign(observed=frozenset({"read", "openat", "sigaltstack"}))
    assert elapsed == (1.0 + 2 * 2.0) * 3.0


def test_oracle_detects_corruption_before_injected_syscall():
    exploit = ExploitSpec(kind="oracle_detectable", corruption_index=0, injected=("ptrace",))
    spec = _spec({"r": RequestBehavior(trace=("read",), exploit=exploit)})
    outcome, elapsed = run_oracle(spec, "r")
    assert isinstance(outcome, Malicious)
    assert "ptrace" not in outcome.report
    assert elapsed == 1.0 * 3.0  # nothing past the corruption point ran


def test_oracle_absorbs_undetectable_injection():
    exploit = ExploitSpec(kind="oracle_undetectable", corruption_index=1, injected=("mount",))
    spec = _spec({"r": RequestBehavior(trace=("read", "write"), exploit=exploit)})
    outcome, _ = run_oracle(spec, "r")
    assert isinstance(outcome, Benign)
    assert "mount" in outcome.observed
    # hijacked control flow never returns to the benign suffix
    assert "write" not in outcome.observed


def test_oracle_watchdog_cuts_run_between_syscalls():
    spec = _spec({"r": RequestBehavior(trace=("read", "write", "openat"))})
    # budget covers base (3.0) plus one 6.0 syscall only
    outcome, elapsed = run_oracle(spec, "r", watchdog_ms=10.0)
    assert type(outcome) is WatchdogTimeout
    assert elapsed == 9.0


def test_a_cut_short_verdict_is_never_stored():
    spec = _spec({"r": RequestBehavior(trace=("read", "write", "openat"))})
    assert type(run_oracle(spec, "r", watchdog_ms=10.0)[0]) is WatchdogTimeout
    assert run_oracle(spec, "r") == (Benign(frozenset({"read", "write", "openat"})), 21.0)
    assert type(run_oracle(spec, "r", watchdog_ms=10.0)[0]) is WatchdogTimeout


def test_an_unknown_key_runs_in_the_oracle_as_an_empty_handler():
    spec = _spec({"r": RequestBehavior(trace=("read",))}, extra=("sigaltstack",))
    for budget in (math.inf, 2.0, math.inf):
        assert run_oracle(spec, "nope", budget) == _walk_oracle(spec, "nope", budget)
    assert run_oracle(spec, "nope", 2.0) == (WatchdogTimeout(), 0.0)
    assert run_oracle(spec, "nope") == (Benign(frozenset({"sigaltstack"})), 3.0)


def test_oracle_cost_dominates_production_cost():
    spec = _spec({"r": RequestBehavior(trace=("read", "write"))})
    policy = _allow("read", "write")
    _, prod = run_production(spec, policy, "r")
    outcome, oracle = run_oracle(spec, "r")
    assert isinstance(outcome, Benign)
    assert oracle > prod


def test_runs_are_deterministic():
    spec = _spec({"r": RequestBehavior(trace=("read", "write"))})
    policy = _allow("read")
    assert run_production(spec, policy, "r") == run_production(spec, policy, "r")
    assert run_oracle(spec, "r") == run_oracle(spec, "r")


@given(
    trace=st.lists(st.sampled_from([f"c{i}" for i in range(6)]), min_size=0, max_size=6),
    injected=st.lists(st.sampled_from(["x_attack", "y_attack"]), min_size=1, max_size=2),
    detectable=st.booleans(),
    data=st.data(),
)
def test_detection_precedence_over_random_exploits(trace, injected, detectable, data):
    index = data.draw(st.integers(min_value=0, max_value=len(trace)))
    exploit = ExploitSpec(
        kind="oracle_detectable" if detectable else "oracle_undetectable",
        corruption_index=index,
        injected=tuple(injected),
    )
    spec = _spec({"r": RequestBehavior(trace=tuple(trace), exploit=exploit)})
    outcome, _ = run_oracle(spec, "r", watchdog_ms=math.inf)
    if detectable:
        assert isinstance(outcome, Malicious)
    else:
        assert isinstance(outcome, Benign)
        assert set(injected) <= outcome.observed


@st.composite
def oracle_specs(draw):
    """Random handlers under a random cost model: benign ones, exploits at
    any corruption index (both ends included), and either exploit kind."""
    handlers = {}
    for i in range(draw(st.integers(min_value=1, max_value=4))):
        trace = tuple(draw(st.lists(st.sampled_from([f"c{j}" for j in range(6)]), max_size=6)))
        kind = draw(st.sampled_from((None,) + EXPLOIT_KINDS))
        exploit = None
        if kind is not None:
            index = draw(st.one_of(st.just(0), st.just(len(trace)),
                                   st.integers(min_value=0, max_value=len(trace))))
            injected = draw(st.lists(st.sampled_from(["x_attack", "y_attack"]), max_size=2))
            exploit = ExploitSpec(kind=kind, corruption_index=index, injected=tuple(injected))
        handlers[f"r{i}"] = RequestBehavior(trace=trace, exploit=exploit)
    cost = CostModel(
        base_request_ms=draw(st.floats(min_value=0.0, max_value=10.0)),
        production_per_syscall_ms=draw(st.floats(min_value=0.01, max_value=10.0)),
        oracle_slowdown_factor=draw(st.floats(min_value=1.01, max_value=20.0)),
    )
    extra = draw(st.lists(st.sampled_from(["sigaltstack", "rt_sigreturn"]), max_size=2))
    return _spec(handlers, extra=extra, cost=cost)


@given(spec=oracle_specs(), data=st.data())
def test_oracle_run_within_its_budget_equals_the_unbounded_run(spec, data):
    keys = sorted(spec.handlers) + ["unknown"]
    # Budgets are the runs' own elapsed times, one ulp either side, and inf.
    budgets = {math.inf}
    for key in keys:
        elapsed = _walk_oracle(spec, key)[1]
        budgets.update((elapsed, math.nextafter(elapsed, -math.inf),
                        math.nextafter(elapsed, math.inf)))
    key = data.draw(st.sampled_from(keys))
    watchdog_ms = data.draw(st.sampled_from(sorted(budgets)))
    # Both runs are walked: ``run_oracle``'s unbounded run, built with the
    # spec, rests on this property, so through it the first check would hold
    # by construction.
    unbounded = _walk_oracle(spec, key)
    bounded = _walk_oracle(spec, key, watchdog_ms)
    if unbounded[1] <= watchdog_ms:
        assert bounded == unbounded
    else:
        assert bounded[1] <= unbounded[1]
    # ``run_oracle`` gives what a walk gives, whichever budget comes first.
    for budget in data.draw(st.permutations([watchdog_ms, math.inf])):
        assert run_oracle(spec, key, budget) == _walk_oracle(spec, key, budget)


@given(spec=oracle_specs(), data=st.data())
def test_no_oracle_run_overruns_a_finite_budget(spec, data):
    spec = dataclasses.replace(spec, handlers={**spec.handlers, "empty": RequestBehavior()})
    key = data.draw(st.sampled_from(sorted(spec.handlers) + ["unknown"]))
    watchdog_ms = data.draw(st.floats(min_value=0.0, max_value=run_oracle(spec, key)[1]))
    _, elapsed = run_oracle(spec, key, watchdog_ms)
    assert elapsed <= watchdog_ms


def _reference_walk(spec, request, watchdog_ms=math.inf):
    """The oracle walk written syscall by syscall: a detectable corruption
    is tested at every index, and a second ``Malicious`` exit follows the
    loop. ``_walk_oracle`` must give the same runs bit for bit."""
    cost = spec.cost_model
    elapsed = cost.base_request_ms * cost.oracle_slowdown_factor
    if elapsed > watchdog_ms:
        return WatchdogTimeout(), 0.0
    behavior = spec.handlers.get(request)
    if behavior is None:
        return Benign(frozenset(spec.oracle_extra)), elapsed
    exploit = behavior.exploit
    detectable_at = (exploit.corruption_index
                     if exploit is not None and exploit.kind == "oracle_detectable" else None)
    report = f"memory corruption detected in handler {request!r} at trace position {detectable_at}"
    per = cost.production_per_syscall_ms * cost.oracle_slowdown_factor
    observed = set()
    for index, syscall in enumerate(behavior.effective_trace()):
        if index == detectable_at:
            return Malicious(report), elapsed
        if elapsed + per > watchdog_ms:
            return WatchdogTimeout(), elapsed
        observed.add(syscall)
        elapsed += per
    if detectable_at is not None:
        return Malicious(report), elapsed
    return Benign(frozenset(observed) | spec.oracle_extra), elapsed


@given(spec=oracle_specs())
def test_oracle_walk_equals_a_syscall_by_syscall_walk(spec):
    cost = spec.cost_model
    base = cost.base_request_ms * cost.oracle_slowdown_factor
    per = cost.production_per_syscall_ms * cost.oracle_slowdown_factor
    # 0, just below the base cost, inf, and every boundary base + k * per,
    # summed the way a walk sums it.
    budgets = [0.0, math.nextafter(base, -math.inf), math.inf]
    boundary = base
    for _ in range(max(len(b.effective_trace()) for b in spec.handlers.values()) + 1):
        budgets.append(boundary)
        boundary += per
    for key in sorted(spec.handlers) + ["unknown"]:
        for budget in budgets:
            (outcome, elapsed), (expected, expected_elapsed) = (
                _walk_oracle(spec, key, budget), _reference_walk(spec, key, budget))
            assert type(outcome) is type(expected)
            assert outcome == expected
            assert elapsed.hex() == expected_elapsed.hex()


def test_static_universe_is_declared_not_observed():
    spec = _spec(
        {"r": RequestBehavior(trace=("read", "write"))},
        universe={"read", "write", "mmap", "shmat"},
    )
    assert spec.static_universe == {"read", "write", "mmap", "shmat"}


def test_static_universe_covers_handler_traces(staticsite):
    union = set()
    for behavior in staticsite.benign_handlers().values():
        union.update(behavior.trace)
    assert union <= staticsite.static_universe


def test_empty_spec_has_empty_universe():
    spec = _spec({})
    assert spec.static_universe == frozenset()


def test_trace_outside_universe_rejected():
    with pytest.raises(ScenarioError):
        _spec({"r": RequestBehavior(trace=("read",))}, universe={"write"})


def test_injected_syscalls_exempt_from_universe_check():
    exploit = ExploitSpec(kind="oracle_undetectable", corruption_index=1, injected=("mount",))
    spec = _spec(
        {"r": RequestBehavior(trace=("read",), exploit=exploit)},
        universe={"read"},
    )
    assert "mount" not in spec.static_universe


def test_corruption_index_bounds():
    with pytest.raises(ScenarioError):
        RequestBehavior(
            trace=("read",),
            exploit=ExploitSpec(kind="oracle_detectable", corruption_index=2),
        )


def test_cost_model_validation():
    with pytest.raises(ScenarioError):
        CostModel(oracle_slowdown_factor=1.0)
    with pytest.raises(ScenarioError):
        CostModel(production_per_syscall_ms=0.0)
    with pytest.raises(ScenarioError):
        CostModel(restart_ms=0.0)
    with pytest.raises(ScenarioError):
        CostModel(base_request_ms=-1.0)


def test_invalid_syscall_name_rejected():
    with pytest.raises(ScenarioError):
        RequestBehavior(trace=("Read",))


def test_scenario_loader_rejects_bad_files(tmp_path):
    import json as jsonlib

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    from timeloops.errors import ParseError

    with pytest.raises(ParseError):
        load_scenario(bad)
    empty = tmp_path / "empty.json"
    empty.write_text('{"services": []}')
    with pytest.raises(ScenarioError):
        load_scenario(empty)

    def service(**overrides):
        base = {"name": "svc", "static_universe": ["read"],
                "handlers": {"r": {"trace": ["read"]}}}
        base.update(overrides)
        return base

    cases = [
        service(handlers={"r": {"trace": "read"}}),          # string, not array
        service(static_universe="read"),
        service(handlers={"r": {"trace": ["read"], "exploit": {
            "kind": "oracle_detectable", "corruption_index": "x"}}}),
        service(cost_model={"restart_ms": "fast"}),
        service(cost_model={"bogus_field": 1.0}),
    ]
    for i, svc in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(jsonlib.dumps({"services": [svc]}))
        with pytest.raises(ScenarioError):
            load_scenario(path)

    dupes = tmp_path / "dupes.json"
    dupes.write_text(jsonlib.dumps({"services": [service(), service()]}))
    with pytest.raises(ScenarioError):
        load_scenario(dupes)


def test_exploit_categories_on_attack_scenario(attacks_spec):
    assert exploit_category(attacks_spec, "probe-cat1") == 1
    assert exploit_category(attacks_spec, "probe-cat2") == 2
    assert exploit_category(attacks_spec, "probe-cat3") == 3
    assert exploit_category(attacks_spec, "probe-cat4") == 4
    with pytest.raises(ScenarioError):
        exploit_category(attacks_spec, "home")
