"""Every small session, through ``run_session`` and the reference model.

Most bugs show up in some small instance (the small-scope hypothesis,
Jackson, *Software Abstractions*, 2006). So instead of drawing random
sessions, as ``test_reference.py`` does, this enumerates every configuration
within a bound and checks each one as that test does: the same results,
the same five artifacts byte for byte, and the paper's invariants.

Within bound K, a service has one handler whose trace holds at most K
syscalls, or two handlers whose traces hold at most K - 1 each. Traces are
over a two-name universe, and every benign oracle run also observes one
instrumentation name of ``oracle_extra``. A service has no exploit, or one
of either kind with a corruption index at either end of its trace,
injecting a benign name or a deny-listed one. The deny-list is empty, or
holds that deny-listed name when an injection issues it. Pretraining is
of no key or of one benign key. Under the controller, both oracle modes
run, with each watchdog of ``watchdogs``. A workload is every sequence of
1 to K + 1 keys over the handler and a key with no handler, or of 1 to K
keys over the two handlers; a baseline deployment runs each request on
its own, so it runs the workloads of at most K keys only. A service
whose handler neither runs nor is pretrained is left to the smaller
services.

The sessions are also checked against the paper's four relations of
``test_paper_relations.py``: tightness, order, pretraining and
amortization (see :class:`Relations`). ``scripts/small_scope.py --bound K``
runs the enumeration and all four checks with a larger K.
"""

import traceback
from itertools import combinations_with_replacement, product

import pytest
import reference
import test_paper_relations
from conftest import DENY_POOL, EXTRA_POOL, SYSCALL_POOL, make_spec, requests
from test_reference import assert_matches_model

from timeloops.controller import ORACLE_MODES, ControllerConfig, run_session
from timeloops.errors import AttemptsExhausted
from timeloops.simruntime import EXPLOIT_KINDS, ExploitSpec, RequestBehavior

#: the bound that tier-1 runs
BOUND = 2
#: the number of sessions within ``BOUND``
BOUND_CASES = 12198
NAMES = tuple(SYSCALL_POOL[:2])
DENIED = DENY_POOL[0]
EXTRA = (EXTRA_POOL[0],)
KEYS = ("k0", "k1")


def exploits(trace):
    """Each exploit of ``trace``: of either kind, corrupting it at either end,
    and injecting a benign name or the deny-listed one."""
    for kind, index, injected in product(EXPLOIT_KINDS, sorted({0, len(trace)}),
                                         (NAMES[1], DENIED)):
        yield ExploitSpec(kind, index, (injected,))


def services(count, max_trace):
    """Every service of ``count`` handlers with at most one exploit."""
    traces = [t for n in range(max_trace + 1) for t in product(NAMES, repeat=n)]
    for chosen in combinations_with_replacement(traces, count):
        plain = [RequestBehavior(trace=t) for t in chosen]
        yield make_spec(dict(zip(KEYS, plain)), extra=EXTRA)
        for i, trace in enumerate(chosen):
            if trace in chosen[:i]:
                continue  # the same service, with the keys swapped
            for exploit in exploits(trace):
                exploited = RequestBehavior(trace=trace, exploit=exploit)
                yield make_spec(dict(zip(KEYS, plain[:i] + [exploited] + plain[i + 1:])),
                                extra=EXTRA)


def watchdogs(spec, keys):
    """Each key's exact oracle run time in the model, that time less one
    per-syscall oracle cost, and a watchdog that no run reaches."""
    cost = spec.cost_model
    per = cost.production_per_syscall_ms * cost.oracle_slowdown_factor
    times = {reference.oracle_run(spec, key)[1] for key in keys}
    return sorted(times | {t - per for t in times if t > per} | {10_000.0})


def cases(bound):
    """Every ``(spec, workload, config, mode)`` within ``bound``."""
    for count, max_trace, max_requests in ((1, bound, bound + 1), (2, bound - 1, bound)):
        for spec in services(count, max_trace):
            keys = list(spec.handlers) + (["unknown"] if count == 1 else [])
            injected = {name for b in spec.handlers.values() if b.exploit
                        for name in b.exploit.injected}
            denies = [frozenset()] + ([frozenset({DENIED})] if DENIED in injected else [])
            pretrains = [()] + [(k,) for k, b in spec.handlers.items() if b.exploit is None]
            timeouts = watchdogs(spec, keys)
            for n in range(1, max_requests + 1):
                for sent in product(keys, repeat=n):
                    workload = requests(*sent)
                    for deny, pretrain in product(denies, pretrains):
                        if set(spec.handlers) - set(sent) - set(pretrain):
                            continue
                        if n <= bound:
                            for mode in ("unhardened", "hardened"):
                                yield spec, workload, ControllerConfig(
                                    deny=deny, pretrain_requests=pretrain), mode
                        for oracle_mode, watchdog_ms in product(ORACLE_MODES, timeouts):
                            yield spec, workload, ControllerConfig(
                                oracle_mode=oracle_mode, watchdog_ms=watchdog_ms, deny=deny,
                                pretrain_requests=pretrain), "timeloops"


def describe(case) -> str:
    """One line that names a case's configuration."""
    spec, workload, config, mode = case
    handlers = ", ".join(f"{key}={b.trace}" + (f" {b.exploit}" if b.exploit else "")
                         for key, b in spec.handlers.items())
    return (f"handlers {handlers}; workload {[r.key for r in workload]}; mode {mode}; "
            f"oracle_mode {config.oracle_mode}; watchdog_ms {config.watchdog_ms}; "
            f"deny {sorted(config.deny)}; pretrain {list(config.pretrain_requests)}")


def check(case) -> None:
    """``assert_matches_model`` on ``case``; a failure names the case."""
    try:
        assert_matches_model(*case)
    except (Exception, pytest.fail.Exception) as exc:
        line = traceback.extract_tb(exc.__traceback__)[-1].line
        raise AssertionError(f"{describe(case)}: {exc!r} at `{line}`") from exc


def test_every_small_session_matches_the_reference_model():
    count = 0
    for count, case in enumerate(cases(BOUND), 1):
        check(case)
    assert count == BOUND_CASES


#: the body of the amortization relation in ``test_paper_relations.py``,
#: both its forms, called on one case without Hypothesis
amortization = (test_paper_relations.test_learning_costs_latency_only_until_the_last_restart
                .hypothesis.inner_test)


class Relations:
    """The paper's tightness, order, pretraining and amortization relations,
    as ``test_paper_relations.py`` states them, on the enumeration's
    sessions.

    Tightness holds in every mode: the final allow-list is a subset of
    ``learnable`` over the keys sent and pretrained. In every mode, too, the
    finished session's transition trace has columns of one length, every
    served row filled. Amortization runs the
    relation's own body on each controller case, which runs the session
    and one unhardened session beside it.

    Order and pretraining run no permuted or pretrained session of their
    own: they compare the single-mode controller cases with a 10 s
    watchdog that the enumeration already yields.

    - Order: the enumeration holds every permutation of each workload, so
      the cases that share a spec, a key multiset, a deny-list and a
      pretraining must end with the same final allow-list.
    - Pretraining: a case that pretrains one benign key of its workload
      must end with the allow-list of the same case pretraining nothing,
      plus that key's trace and ``oracle_extra``, and must not consult the
      oracle more often. ``cases`` yields the case pretraining nothing
      first.

    ``cases`` yields each spec's cases together, so the cases compared are
    kept for the current spec only, which they keep alive. A case that
    ends in ``AttemptsExhausted`` is skipped, and so is a pair with one.
    """

    def __init__(self):
        self.spec = None
        self.finals: dict = {}
        self.unpretrained: dict = {}

    def check(self, case) -> None:
        """Check ``case``; a failure names it, and the case it differs from."""
        spec, workload, config, mode = case
        try:
            result = run_session(*case)
        except AttemptsExhausted:
            result = None
        sent = tuple(r.key for r in workload)
        if result is not None:
            # A finished session has filled every served row it deferred.
            trace = result.transition_trace
            assert len(trace.at_ms) == len(trace.row_ids) == len(trace.epochs), (
                f"trace: {describe(case)} ends with columns of {len(trace.at_ms)}, "
                f"{len(trace.row_ids)} and {len(trace.epochs)} rows")
            allow = result.final_policy.allow
            bound = test_paper_relations.learnable(spec, sent + config.pretrain_requests)
            assert allow <= bound, (
                f"tightness: {describe(case)} learns {sorted(allow)}, "
                f"more than the learnable {sorted(bound)}")
        if mode != "timeloops":
            return
        try:
            amortization(case)
        except AssertionError as exc:
            raise AssertionError(f"amortization: {describe(case)}: {exc}") from exc
        if config.oracle_mode != "single" or config.watchdog_ms != 10_000.0:
            return
        if spec is not self.spec:
            self.spec, self.finals, self.unpretrained = spec, {}, {}
        if not config.pretrain_requests:
            self.unpretrained[sent, config.deny] = case, result
        if result is None:
            return
        group = (tuple(sorted(sent)), config.deny, config.pretrain_requests)
        first, first_allow = self.finals.setdefault(group, (case, allow))
        assert allow == first_allow, (
            f"order: {describe(case)} learns {sorted(allow)}, "
            f"but {describe(first)} learns {sorted(first_allow)}")
        if config.pretrain_requests and config.pretrain_requests[0] in sent:
            key, = config.pretrain_requests
            base, base_result = self.unpretrained[sent, config.deny]
            if base_result is None:
                return
            base_allow = base_result.final_policy.allow
            expected = base_allow.union(spec.handlers[key].trace, spec.oracle_extra)
            assert allow == expected, (
                f"pretraining: {describe(case)} learns {sorted(allow)}, not {sorted(expected)}: "
                f"{describe(base)} learns {sorted(base_allow)}, plus the observation of {key!r}")
            assert result.consultations <= base_result.consultations, (
                f"pretraining: {describe(case)} consults the oracle {result.consultations} "
                f"times, but {describe(base)} only {base_result.consultations}")


def test_every_small_session_keeps_the_paper_relations():
    relations = Relations()
    for case in cases(BOUND):
        relations.check(case)
