"""Deterministic stand-in for containers, seccomp enforcement and the oracle.

A service is declared, not executed: each request key maps to an ordered
syscall trace, optionally annotated with an exploit. Running a request
walks that trace against a policy and reports how the simulated container
exits. All time is virtual milliseconds derived from the cost model, so
identical inputs give identical outcomes and timings.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import ClassVar, Mapping

from .catalog import SYSCALL_NAME_RE, json_float, json_int
from .errors import ParseError, ScenarioError
from .policy import SyscallPolicy

EXPLOIT_KINDS = ("oracle_detectable", "oracle_undetectable")


def _check_names(names, what: str) -> tuple[str, ...]:
    out = []
    for name in names:
        if not isinstance(name, str) or not SYSCALL_NAME_RE.match(name):
            raise ScenarioError(f"{what}: invalid syscall name {name!r}")
        out.append(name)
    return tuple(out)


@dataclass(frozen=True)
class CostModel:
    """Virtual-time parameters for a simulated service.

    A production run costs the base cost plus the per-syscall cost for each
    syscall it executes. An oracle run is slowed by the slowdown factor: it
    charges ``base_request_ms * oracle_slowdown_factor`` up front, then adds
    ``production_per_syscall_ms * oracle_slowdown_factor`` once per syscall
    it observes (see ``run_oracle``).
    """

    base_request_ms: float = 1.0
    production_per_syscall_ms: float = 1.0
    oracle_slowdown_factor: float = 3.0
    restart_ms: float = 50.0

    def __post_init__(self):
        for f in fields(self):
            # NaN fails every comparison below, and would silently drop costs.
            if not math.isfinite(getattr(self, f.name)):
                raise ScenarioError(f"{f.name} must be finite")
        if self.base_request_ms < 0:
            raise ScenarioError("base_request_ms must be non-negative")
        if self.production_per_syscall_ms <= 0:
            raise ScenarioError("production_per_syscall_ms must be positive")
        if self.oracle_slowdown_factor <= 1:
            raise ScenarioError("oracle_slowdown_factor must exceed 1")
        if self.restart_ms <= 0:
            raise ScenarioError("restart_ms must be positive")

    def production_elapsed(self, executed: int) -> float:
        return self.base_request_ms + self.production_per_syscall_ms * executed


@dataclass(frozen=True)
class ExploitSpec:
    """Exploit annotation on a handler.

    The corruption happens at ``corruption_index`` within the benign trace;
    from that point on control flow is hijacked and the ``injected``
    syscalls execute instead of the remainder of the trace.
    """

    kind: str
    corruption_index: int
    injected: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in EXPLOIT_KINDS:
            raise ScenarioError(f"unknown exploit kind: {self.kind!r}")
        if self.corruption_index < 0:
            raise ScenarioError("corruption_index must be non-negative")
        object.__setattr__(self, "injected", _check_names(self.injected, "exploit injection"))


@dataclass(frozen=True)
class RequestBehavior:
    trace: tuple[str, ...] = ()
    exploit: ExploitSpec | None = None

    def __post_init__(self):
        object.__setattr__(self, "trace", _check_names(self.trace, "handler trace"))
        if self.exploit is not None and self.exploit.corruption_index > len(self.trace):
            raise ScenarioError(
                f"corruption_index {self.exploit.corruption_index} exceeds trace length {len(self.trace)}"
            )

    def effective_trace(self) -> tuple[str, ...]:
        """The syscalls a run of this handler would actually issue."""
        if self.exploit is None:
            return self.trace
        return self.trace[: self.exploit.corruption_index] + self.exploit.injected


#: what a request key with no handler runs: an empty trace, with no exploit
_NO_HANDLER = RequestBehavior()


@dataclass(frozen=True)
class ServiceSpec:
    """A declared service: handlers, reachable-code universe, oracle extras.

    The handlers are fixed at construction: each one's effective trace, the
    result of a production run that completes it and the result of its
    oracle run with no watchdog are computed once, into ``runs``. A handler,
    or a key with no handler, whose production or oracle run takes a
    non-finite time under the cost model is a :class:`ScenarioError`.
    """

    name: str
    handlers: Mapping[str, RequestBehavior]
    static_universe: frozenset[str] = field(default_factory=frozenset)
    oracle_extra: frozenset[str] = field(default_factory=frozenset)
    cost_model: CostModel = field(default_factory=CostModel)
    #: request key -> (effective trace, the shared ``(Completed, elapsed)``
    #: result of a run that completes it, the ``(outcome, elapsed)`` of its
    #: oracle run with no watchdog)
    runs: Mapping[str, Run] = field(init=False, repr=False, compare=False)
    #: the run of a request key with no declared handler
    unknown_run: Run = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "static_universe", frozenset(_check_names(self.static_universe, "static universe")))
        object.__setattr__(self, "oracle_extra", frozenset(_check_names(self.oracle_extra, "oracle extra")))
        cost = self.cost_model
        runs = {}
        # None stands for every key with no handler, which runs as an empty one.
        for key, behavior in [*self.handlers.items(), (None, _NO_HANDLER)]:
            stray = set(behavior.trace) - self.static_universe
            if stray:
                raise ScenarioError(
                    f"handler {key!r} uses syscalls outside the static universe: "
                    + ", ".join(sorted(stray))
                )
            trace = behavior.effective_trace()
            elapsed, oracle = cost.production_elapsed(len(trace)), _walk_oracle(self, key)
            if not (math.isfinite(elapsed) and math.isfinite(oracle[1])):
                who = "a request with no handler" if key is None else f"handler {key!r}"
                raise ScenarioError(f"{who}: its production or oracle run takes a non-finite time")
            runs[key] = trace, (Completed(), elapsed), oracle
        object.__setattr__(self, "unknown_run", runs.pop(None))
        object.__setattr__(self, "runs", runs)

    def benign_handlers(self) -> dict[str, RequestBehavior]:
        return {k: b for k, b in self.handlers.items() if b.exploit is None}


# --- exit reasons and oracle outcomes -----------------------------------------
#
# A production run's exit reason and an oracle run's outcome are the
# controller's events as they are. Each carries the ``label`` that names it
# in the transition trace; a label that includes a syscall name is computed
# once per value and interned, so that a long trace holds one copy of each
# distinct label.

@dataclass(frozen=True)
class Completed:
    label: ClassVar[str] = "prod_exited:completed"


@dataclass(frozen=True)
class PolicyViolation:
    syscall: str
    at_index: int

    @cached_property
    def label(self) -> str:
        return sys.intern(f"prod_exited:policy_violation:{self.syscall}")


@dataclass(frozen=True)
class DeniedSyscallHit:
    syscall: str

    @cached_property
    def label(self) -> str:
        return sys.intern(f"prod_exited:denied_syscall:{self.syscall}")


ExitReason = Completed | PolicyViolation | DeniedSyscallHit


@dataclass(frozen=True)
class Benign:
    observed: frozenset[str]
    label: ClassVar[str] = "oracle_finished:benign"


@dataclass(frozen=True)
class Malicious:
    report: str
    label: ClassVar[str] = "oracle_finished:malicious"


@dataclass(frozen=True)
class WatchdogTimeout:
    """Oracle lifetime expired mid-run; nothing is learned from a partial run."""

    label: ClassVar[str] = "oracle_finished:watchdog_timeout"


OracleOutcome = Benign | Malicious | WatchdogTimeout
Run = tuple[tuple[str, ...], tuple[Completed, float], tuple[OracleOutcome, float]]


def run_production(
    spec: ServiceSpec, policy: SyscallPolicy, request: str
) -> tuple[ExitReason, float]:
    """Execute a request in the fast, uninstrumented service.

    The walk stops at the first syscall outside the allow-list; nothing
    past that point executes. Production performs no exploit detection,
    so a hijacked run that stays within the allow-list completes normally.

    The whole trace is first checked against the allow-list in one set
    operation; a run that passes returns the handler's shared result, and
    the trace is walked for the violating syscall and its ``at_index`` only
    when the check fails. The verdict and ``at_index`` are the same as a
    walk from the start would give.
    """
    trace, completed, _ = spec.runs.get(request, spec.unknown_run)
    allow = policy.allow
    if allow.issuperset(trace):
        return completed
    index = next(i for i, syscall in enumerate(trace) if syscall not in allow)
    return PolicyViolation(trace[index], index), spec.cost_model.production_elapsed(index)


def run_oracle(
    spec: ServiceSpec, request: str, watchdog_ms: float = math.inf
) -> tuple[OracleOutcome, float]:
    """Execute a request in the hardened replica.

    The oracle observes in logging mode: no syscall kills the run, each one
    is recorded, so a benign verdict reports every syscall the request
    needed plus the instrumentation's own extras. The verdict depends only
    on the handler and the watchdog budget, never on a policy. A detectable
    corruption stops the walk before the syscall at its index, so no
    injected syscall executes.

    The watchdog budget is checked before the request's base cost and
    before each syscall, so no run's elapsed time exceeds ``watchdog_ms``.
    A run the watchdog stops ends in ``WatchdogTimeout``; the controller
    never learns from a partial run. The budget is compared with elapsed
    times that only grow, so a run whose unbounded elapsed time is within
    ``watchdog_ms`` is never cut short, and equals the unbounded run bit
    for bit.

    So each request's unbounded run is built with its spec, into
    ``spec.runs``, and only a run the watchdog stops is walked here.
    """
    verdict = spec.runs.get(request, spec.unknown_run)[2]
    if verdict[1] <= watchdog_ms:
        return verdict
    return _walk_oracle(spec, request, watchdog_ms)


def _walk_oracle(
    spec: ServiceSpec, request: str, watchdog_ms: float = math.inf
) -> tuple[OracleOutcome, float]:
    """One oracle run of ``request`` within ``watchdog_ms``, walked without
    ``spec.runs`` (see ``run_oracle``). A detectable corruption stops the
    walk before the syscall at its index; any other walk covers the whole
    effective trace, and a key with no handler walks an empty one."""
    cost = spec.cost_model
    elapsed = cost.base_request_ms * cost.oracle_slowdown_factor
    if elapsed > watchdog_ms:
        return WatchdogTimeout(), 0.0
    behavior = spec.handlers.get(request, _NO_HANDLER)
    exploit = behavior.exploit
    detected = exploit is not None and exploit.kind == "oracle_detectable"
    trace = behavior.trace[: exploit.corruption_index] if detected else behavior.effective_trace()
    per = cost.production_per_syscall_ms * cost.oracle_slowdown_factor
    for _ in trace:
        if elapsed + per > watchdog_ms:
            return WatchdogTimeout(), elapsed
        elapsed += per
    if detected:
        return Malicious(f"memory corruption detected in handler {request!r} "
                         f"at trace position {exploit.corruption_index}"), elapsed
    return Benign(frozenset(trace) | spec.oracle_extra), elapsed


def run_unrestricted(spec: ServiceSpec, request: str) -> tuple[Completed, float]:
    """Execute a request with no filter and no instrumentation (baseline cost)."""
    return spec.runs.get(request, spec.unknown_run)[1]


def benign_closure(spec: ServiceSpec) -> frozenset[str]:
    """Syscalls a fully exercised benign workload would teach the policy."""
    union: set[str] = set()
    for behavior in spec.benign_handlers().values():
        union.update(behavior.trace)
    return frozenset(union) | spec.oracle_extra


def exploit_category(spec: ServiceSpec, request: str) -> int:
    """Attack category 1-4 of an exploit-annotated handler.

    Categories cross detectability with whether the injection would step
    outside a fully learned benign policy: 1 = detectable and violating,
    2 = detectable within policy, 3 = undetectable within policy,
    4 = undetectable and violating.
    """
    behavior = spec.handlers.get(request)
    if behavior is None or behavior.exploit is None:
        raise ScenarioError(f"handler {request!r} carries no exploit annotation")
    closure = benign_closure(spec)
    violating = bool(set(behavior.exploit.injected) - closure)
    if behavior.exploit.kind == "oracle_detectable":
        return 1 if violating else 2
    return 4 if violating else 3


# --- scenario files -----------------------------------------------------------

def _name_array(obj, field_name: str, what: str) -> tuple:
    value = obj.get(field_name, ())
    # a bare string would be iterated character by character
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{what}: {field_name} must be an array of syscall names")
    return tuple(value)


def parse_service(obj: dict) -> ServiceSpec:
    try:
        name = obj["name"]
        handlers_obj = obj["handlers"]
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"service definition missing field: {exc}") from exc
    if not isinstance(name, str) or not name:
        raise ScenarioError("service name must be a non-empty string")
    cost_obj = obj.get("cost_model", {})
    if not isinstance(cost_obj, dict):
        raise ScenarioError("cost_model must be an object")
    unknown_cost = set(cost_obj) - {f.name for f in fields(CostModel)}
    if unknown_cost:
        raise ScenarioError("unknown cost_model fields: " + ", ".join(sorted(unknown_cost)))
    try:
        cost = CostModel(**{k: json_float(v) for k, v in cost_obj.items()})
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed cost_model: {exc}") from exc
    handlers: dict[str, RequestBehavior] = {}
    if not isinstance(handlers_obj, dict):
        raise ScenarioError("handlers must be a map of request key to behavior")
    for key, h in handlers_obj.items():
        if not isinstance(h, dict):
            raise ScenarioError(f"handler {key!r} must be an object")
        exploit = None
        if h.get("exploit") is not None:
            e = h["exploit"]
            try:
                exploit = ExploitSpec(
                    kind=e["kind"],
                    corruption_index=json_int(e["corruption_index"]),
                    injected=_name_array(e, "injected", f"handler {key!r} exploit"),
                )
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ScenarioError(f"handler {key!r}: malformed exploit: {exc}") from exc
        handlers[key] = RequestBehavior(
            trace=_name_array(h, "trace", f"handler {key!r}"),
            exploit=exploit,
        )
    # ServiceSpec checks the names before it freezes them into sets.
    return ServiceSpec(
        name=name,
        handlers=handlers,
        static_universe=_name_array(obj, "static_universe", f"service {name!r}"),
        oracle_extra=_name_array(obj, "oracle_extra", f"service {name!r}"),
        cost_model=cost,
    )


def load_scenario(path: str | Path) -> list[ServiceSpec]:
    """Load and validate a scenario file (one or more service definitions)."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError covers undecodable bytes and malformed JSON.
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"scenario {path}: {exc}") from exc
    if not isinstance(obj, dict) or "services" not in obj:
        raise ScenarioError(f"scenario {path}: top-level object must contain 'services'")
    services = obj["services"]
    if not isinstance(services, list) or not services:
        raise ScenarioError(f"scenario {path}: 'services' must be a non-empty array")
    specs = [parse_service(s) for s in services]
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ScenarioError(f"scenario {path}: duplicate service names")
    return specs


def pick_service(specs: list[ServiceSpec], name: str | None) -> ServiceSpec:
    if name is None:
        return specs[0]
    for spec in specs:
        if spec.name == name:
            return spec
    raise ScenarioError(f"no service named {name!r} in scenario")
