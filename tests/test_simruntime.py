import copy
import math
import pickle
import sys
import threading
from functools import partial

import pytest
import reference
from conftest import DENY_POOL, SYSCALL_POOL, make_spec, service_specs
from hypothesis import given
from hypothesis import strategies as st

from timeloops.errors import ExploitInTrainingSet, ScenarioError
from timeloops.policy import SyscallPolicy, new_policy
from timeloops.simruntime import (
    COMPLETED,
    EXPLOIT_KINDS,
    WATCHDOG_TIMEOUT,
    Benign,
    CostModel,
    ExploitSpec,
    Malicious,
    PolicyViolation,
    RequestBehavior,
    ServiceSpec,
    _walk_oracle,
    exploit_category,
    load_scenario,
    run_oracle,
    run_production,
    run_unrestricted,
    training_handler,
)

CHEAP = CostModel(base_request_ms=1.0, production_per_syscall_ms=2.0,
                  oracle_slowdown_factor=3.0, restart_ms=10.0)
_spec = partial(make_spec, cost=CHEAP)


def _allow(*names):
    return SyscallPolicy(allow=frozenset(names))


def test_production_fully_allowed_completes():
    spec = _spec({"r": RequestBehavior(trace=("read", "write"))})
    reason, elapsed = run_production(spec, _allow("read", "write"), "r")
    assert reason is COMPLETED
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
    assert reason is COMPLETED
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
        handlers[key] = behavior._replace(exploit=exploit)
    return spec._replace(handlers=handlers)


@given(spec=_specs_with_exploits(), data=st.data())
def test_production_and_unrestricted_runs_match_a_trace_walk(spec, data):
    allow = frozenset(data.draw(st.lists(st.sampled_from(SYSCALL_POOL + DENY_POOL))))
    policy = SyscallPolicy(epoch=data.draw(st.integers(0, 9)), allow=allow)
    request = data.draw(st.sampled_from(sorted(spec.handlers) + ["nope"]))
    assert run_production(spec, policy, request) == reference.production_run(spec, allow, request)
    unrestricted = reference.production_run(spec, frozenset(SYSCALL_POOL + DENY_POOL), request)
    assert run_unrestricted(spec, request) == unrestricted


@given(spec=_specs_with_exploits(), data=st.data())
def test_passing_runs_share_one_result(spec, data):
    request = data.draw(st.sampled_from(sorted(spec.handlers) + ["nope"]))
    everything = SyscallPolicy(allow=frozenset(SYSCALL_POOL + DENY_POOL))
    first = run_production(spec, everything, request)
    assert first[0] is COMPLETED
    assert run_production(spec, SyscallPolicy(epoch=1, allow=everything.allow), request) is first
    assert run_unrestricted(spec, request) is run_unrestricted(spec, request) is first
    # Every handler's completed run, and that of a key with no handler, share COMPLETED.
    assert all(run[1][0] is first[0] for run in [*spec.runs.values(), spec.unknown_run])


class _CountedNames(frozenset):
    """An allow-list that counts its whole-trace checks and the names a walk tests."""

    checks = tested = 0

    def issuperset(self, names):
        self.checks += 1
        return frozenset.issuperset(self, names)

    def __contains__(self, name):
        self.tested += 1
        return frozenset.__contains__(self, name)


def test_a_policy_shared_by_two_specs_answers_each_with_its_own_trace():
    # Both services have a key "r"; the policy allows a's trace, not b's.
    a = _spec({"r": RequestBehavior(trace=("read", "write"))})
    b = _spec({"r": RequestBehavior(trace=("read", "openat", "write"))})
    completes = a, (COMPLETED, 1.0 + 2 * 2.0)
    violates = b, (PolicyViolation("openat", 1), 1.0 + 2.0)
    for order in ((completes, violates) * 2, (violates, completes) * 2,
                  (completes, completes, violates, violates, completes, violates, violates)):
        policy = _allow("read", "write")
        for spec, expected in order:
            assert run_production(spec, policy, "r") == expected
        assert policy.passed == {"r": a.runs["r"][0]}


def test_a_passing_key_is_checked_once_and_a_violating_key_is_walked_every_time():
    spec = _spec({"good": RequestBehavior(trace=("read", "write")),
                  "bad": RequestBehavior(trace=("read", "openat"))})
    allow = _CountedNames({"read", "write"})
    policy = SyscallPolicy(allow=allow)
    for calls in range(1, 4):
        assert run_production(spec, policy, "good") is spec.runs["good"][1]
        assert run_production(spec, policy, "nope") is spec.unknown_run[1]
        assert run_production(spec, policy, "bad") == (PolicyViolation("openat", 1), 3.0)
        # The first round checks all three keys; each later one only "bad",
        # whose walk tests "read" and then "openat".
        assert (allow.checks, allow.tested) == (calls + 2, 2 * calls)
    assert policy.passed == {"good": spec.runs["good"][0], "nope": ()}


def test_threads_sharing_a_policy_each_get_their_own_specs_verdict():
    # Four threads race on one policy's cache, with a switch interval short
    # enough to interleave them between a read and a store; an entry that
    # answered for the other spec's trace would give a wrong verdict.
    a = _spec({"r": RequestBehavior(trace=("read", "write"))})
    b = _spec({"r": RequestBehavior(trace=("read", "openat"))})
    expected = [(a, (COMPLETED, 5.0)), (b, (PolicyViolation("openat", 1), 3.0))]
    policy, wrong = _allow("read", "write"), []

    def run(offset):
        for i in range(2000):
            spec, result = expected[(i + offset) % 2]
            if run_production(spec, policy, "r") != result:
                wrong.append(i)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == [] and policy.passed == {"r": a.runs["r"][0]}


def test_the_cache_is_no_field_and_every_rebuilt_policy_starts_it_empty():
    spec = _spec({"r": RequestBehavior(trace=("read",))})
    policy = SyscallPolicy(2, frozenset({"read", "write"}), frozenset({"mount"}))
    fresh = SyscallPolicy(2, frozenset({"read", "write"}), frozenset({"mount"}))
    run_production(spec, policy, "r")
    assert policy.passed == {"r": spec.runs["r"][0]} and fresh.passed == {}
    assert policy == fresh and hash(policy) == hash(fresh) and repr(policy) == repr(fresh)
    assert "passed" not in repr(policy)
    for rebuilt in (policy._replace(), policy._replace(epoch=3), copy.copy(policy),
                    copy.deepcopy(policy), pickle.loads(pickle.dumps(policy))):
        assert rebuilt.passed == {} and rebuilt.passed is not policy.passed
    with pytest.raises(AttributeError):
        policy.passed = {}


@st.composite
def _shared_policy_calls(draw):
    """Up to three services, policies shared across them, and a sequence of
    production runs, each of a service, a policy and a key. The policies
    are one that allows every name, one that allows none, and up to three
    that allow some of the services' traces and a few names more."""
    specs = draw(st.lists(_specs_with_exploits(), min_size=1, max_size=3))
    traces = [run[0] for spec in specs for run in spec.runs.values()]
    pool = SYSCALL_POOL + DENY_POOL
    policies = [SyscallPolicy(allow=frozenset(pool)), SyscallPolicy()] + [
        SyscallPolicy(allow=frozenset().union(*draw(st.lists(st.sampled_from(traces))),
                                              draw(st.lists(st.sampled_from(pool)))))
        for _ in range(draw(st.integers(0, 3)))
    ]
    keys = sorted({key for spec in specs for key in spec.handlers}) + ["nope"]
    return draw(st.lists(st.tuples(st.sampled_from(specs), st.sampled_from(policies),
                                   st.sampled_from(keys)), max_size=30))


@given(calls=_shared_policy_calls())
def test_a_run_with_the_cache_warm_or_cold_equals_a_trace_walk(calls):
    for spec, policy, key in calls:
        assert run_production(spec, policy, key) == reference.production_run(spec, policy.allow, key)


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
    assert outcome is WATCHDOG_TIMEOUT
    assert elapsed == 9.0


def test_a_cut_short_verdict_is_never_stored():
    spec = _spec({"r": RequestBehavior(trace=("read", "write", "openat"))})
    assert run_oracle(spec, "r", watchdog_ms=10.0)[0] is WATCHDOG_TIMEOUT
    assert run_oracle(spec, "r") == (Benign(frozenset({"read", "write", "openat"})), 21.0)
    assert run_oracle(spec, "r", watchdog_ms=10.0)[0] is WATCHDOG_TIMEOUT


def test_an_unknown_key_runs_in_the_oracle_as_an_empty_handler():
    spec = _spec({"r": RequestBehavior(trace=("read",))}, extra=("sigaltstack",))
    for budget in (math.inf, 2.0, math.inf):
        assert run_oracle(spec, "nope", budget) == _walk_oracle(spec, "nope", budget)
    assert run_oracle(spec, "nope", 2.0) == (WATCHDOG_TIMEOUT, 0.0)
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
    spec = spec._replace(handlers={**spec.handlers, "empty": RequestBehavior()})
    key = data.draw(st.sampled_from(sorted(spec.handlers) + ["unknown"]))
    watchdog_ms = data.draw(st.floats(min_value=0.0, max_value=run_oracle(spec, key)[1]))
    _, elapsed = run_oracle(spec, key, watchdog_ms)
    assert elapsed <= watchdog_ms


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
                _walk_oracle(spec, key, budget), reference.oracle_run(spec, key, budget))
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


def test_exploit_spec_validation():
    with pytest.raises(ScenarioError, match="^unknown exploit kind: 'x'$"):
        ExploitSpec(kind="x", corruption_index=0)
    with pytest.raises(ScenarioError, match="^corruption_index must be non-negative$"):
        ExploitSpec(kind="oracle_detectable", corruption_index=-1)


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


@pytest.mark.parametrize("build, what", [
    pytest.param(lambda: RequestBehavior(trace="read"), "trace", id="trace"),
    pytest.param(lambda: ExploitSpec(kind="oracle_detectable", corruption_index=0,
                                     injected="ptrace"), "injected", id="injected"),
    pytest.param(lambda: ServiceSpec(name="svc", handlers={}, static_universe="read"),
                 "service 'svc': static_universe", id="static_universe"),
    pytest.param(lambda: ServiceSpec(name="svc", handlers={}, oracle_extra="brk"),
                 "service 'svc': oracle_extra", id="oracle_extra"),
    pytest.param(lambda: RequestBehavior(trace={"read": 1}), "trace", id="trace_of_a_map"),
])
def test_a_bare_str_is_no_collection_of_names_in_a_scenario(build, what):
    # Read letter by letter, the trace "read" would issue r, e, a and d.
    with pytest.raises(ScenarioError, match=f"^{what} must be an array of syscall names$"):
        build()


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
        (service(handlers={"r": {"trace": "read"}}),          # string, not array
         "^handler 'r': trace must be an array"),
        (service(static_universe="read"), "^service 'svc': static_universe must be an array"),
        (service(handlers={"r": {"trace": ["read"], "exploit": {
            "kind": "oracle_detectable", "corruption_index": "x"}}}),
         "^handler 'r': malformed exploit"),
        (service(cost_model={"restart_ms": "fast"}), "^malformed cost_model"),
        (service(cost_model={"bogus_field": 1.0}), "^unknown cost_model fields: bogus_field$"),
        (service(cost_model=[]), "^cost_model must be an object$"),
        (service(handlers=[]), "^handlers must be a map"),
        (service(handlers={"r": ["read"]}), "^handler 'r' must be an object$"),
    ]
    for i, (svc, message) in enumerate(cases):
        path = tmp_path / f"case{i}.json"
        path.write_text(jsonlib.dumps({"services": [svc]}))
        with pytest.raises(ScenarioError, match=message):
            load_scenario(path)

    dupes = tmp_path / "dupes.json"
    dupes.write_text(jsonlib.dumps({"services": [service(), service()]}))
    with pytest.raises(ScenarioError):
        load_scenario(dupes)


def test_a_training_key_gives_its_handler_or_none_and_never_an_exploit(attacks_spec):
    assert training_handler(attacks_spec, "home", "training request") is (
        attacks_spec.handlers["home"])
    assert training_handler(attacks_spec, "missing", "training request") is None
    with pytest.raises(ExploitInTrainingSet,
                       match=r"^pretrain request 'probe-cat1' is exploit-annotated$"):
        training_handler(attacks_spec, "probe-cat1", "pretrain request")


def test_exploit_categories_on_attack_scenario(attacks_spec):
    assert exploit_category(attacks_spec, "probe-cat1") == 1
    assert exploit_category(attacks_spec, "probe-cat2") == 2
    assert exploit_category(attacks_spec, "probe-cat3") == 3
    assert exploit_category(attacks_spec, "probe-cat4") == 4
    with pytest.raises(ScenarioError):
        exploit_category(attacks_spec, "home")
