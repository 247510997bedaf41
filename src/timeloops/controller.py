"""Controller state machine and session driver.

The controller alternates two replicas of one service: a fast production
container enforcing the current allow-list, and a hardened oracle replica
consulted whenever production dies on a policy violation. A benign oracle
verdict grows the policy and restarts production; a malicious verdict
raises an alert and never touches the policy. ``step`` is the pure
transition function; ``run_session`` drives it against a workload on a
shared virtual clock.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Iterable, NamedTuple, Sequence

from . import workload as workload_mod
from .errors import (
    ConfigError,
    DeniedSyscall,
    ExploitInPretrainSet,
    IllegalTransition,
)
from .policy import PolicyLogEntry, SyscallPolicy, extend, growth_entry, new_policy
from .simruntime import (
    Benign,
    Completed,
    DeniedSyscallHit,
    ExitReason,
    ExploitDetected,
    Malicious,
    OracleOutcome,
    PolicyViolation,
    ServiceSpec,
    WatchdogTimeout,
    run_oracle,
    run_production,
    run_unrestricted,
)

ORACLE_MODES = ("single_request", "until_watchdog")
SESSION_MODES = ("timeloops", "unhardened", "hardened")


# --- states, events, actions --------------------------------------------------
#
# Each carries the ``label`` that names it in the transition trace and in
# session.json; an event's label includes its exit reason or outcome, is
# computed once per event, and is interned so that a long trace holds one
# copy of each distinct label.

@dataclass(frozen=True)
class ProductionRunning:
    epoch: int = 0
    label: ClassVar[str] = "production_running"


@dataclass(frozen=True)
class OracleRunning:
    epoch: int = 0
    # Stamped by the driver when the oracle container actually starts.
    oracle_started_ms: float = 0.0
    label: ClassVar[str] = "oracle_running"


@dataclass(frozen=True)
class Halted:
    reason: str = "shutdown"
    label: ClassVar[str] = "halted"


ControllerState = ProductionRunning | OracleRunning | Halted


@dataclass(frozen=True)
class ProdExited:
    reason: ExitReason

    @cached_property
    def label(self) -> str:
        return sys.intern(f"prod_exited:{self.reason.label}")


@dataclass(frozen=True)
class OracleFinished:
    outcome: OracleOutcome

    @cached_property
    def label(self) -> str:
        return sys.intern(f"oracle_finished:{self.outcome.label}")


@dataclass(frozen=True)
class WatchdogFired:
    label: ClassVar[str] = "watchdog_fired"


@dataclass(frozen=True)
class Shutdown:
    label: ClassVar[str] = "shutdown"


ControllerEvent = ProdExited | OracleFinished | WatchdogFired | Shutdown


@dataclass(frozen=True)
class StartProduction:
    label: ClassVar[str] = "start_production"


@dataclass(frozen=True)
class StartOracle:
    watchdog_ms: float
    label: ClassVar[str] = "start_oracle"


@dataclass(frozen=True)
class UpdatePolicy:
    """Ensure the observed syscalls are allowed; known ones are skipped."""

    new_syscalls: frozenset[str]
    label: ClassVar[str] = "update_policy"


@dataclass(frozen=True)
class RaiseAlert:
    report: str
    label: ClassVar[str] = "raise_alert"


@dataclass(frozen=True)
class LogEvent:
    text: str
    label: ClassVar[str] = "log_event"


ControllerAction = StartProduction | StartOracle | UpdatePolicy | RaiseAlert | LogEvent


@dataclass(frozen=True)
class ControllerConfig:
    oracle_mode: str = "single_request"
    watchdog_ms: float = 10_000.0
    deny: frozenset[str] = field(default_factory=frozenset)
    pretrain_requests: tuple[str, ...] = ()

    def __post_init__(self):
        if self.oracle_mode not in ORACLE_MODES:
            raise ConfigError(f"unknown oracle mode: {self.oracle_mode!r}")
        if not (math.isfinite(self.watchdog_ms) and self.watchdog_ms > 0):
            raise ConfigError(f"watchdog_ms must be positive and finite, got {self.watchdog_ms!r}")


# Served requests are the common case; actions are immutable, so share one
# tuple, and label it once.
_SERVED = (LogEvent("production served request"),)
_SERVED_LABELS = tuple(a.label for a in _SERVED)


def step(
    state: ControllerState, event: ControllerEvent, config: ControllerConfig
) -> tuple[ControllerState, tuple[ControllerAction, ...]]:
    """Pure transition function; raises IllegalTransition on state/event mismatch."""
    if isinstance(event, Shutdown):
        return Halted("shutdown"), (LogEvent("controller shut down"),)

    if isinstance(state, ProductionRunning) and isinstance(event, ProdExited):
        reason = event.reason
        if isinstance(reason, Completed):
            return state, _SERVED
        if isinstance(reason, PolicyViolation):
            return (
                OracleRunning(epoch=state.epoch),
                (StartOracle(watchdog_ms=config.watchdog_ms),),
            )
        if isinstance(reason, DeniedSyscallHit):
            return state, (
                RaiseAlert(f"deny-listed syscall {reason.syscall!r} requested"),
                StartProduction(),
            )
        if isinstance(reason, ExploitDetected):
            return state, (RaiseAlert(reason.report), StartProduction())
        # WatchdogTimeout: production containers carry no watchdog.
        raise IllegalTransition(f"production exit reason not handled: {reason!r}")

    if isinstance(state, OracleRunning) and isinstance(event, OracleFinished):
        outcome = event.outcome
        if isinstance(outcome, Benign):
            if config.oracle_mode == "until_watchdog":
                return state, (UpdatePolicy(outcome.observed),)
            return (
                ProductionRunning(epoch=state.epoch),
                (UpdatePolicy(outcome.observed), StartProduction()),
            )
        if isinstance(outcome, Malicious):
            return (
                ProductionRunning(epoch=state.epoch),
                (RaiseAlert(outcome.report), StartProduction()),
            )
        if isinstance(outcome, WatchdogTimeout):
            return (
                ProductionRunning(epoch=state.epoch),
                (LogEvent("oracle watchdog expired mid-request"), StartProduction()),
            )
        raise IllegalTransition(f"oracle outcome not handled: {outcome!r}")

    if isinstance(state, OracleRunning) and isinstance(event, WatchdogFired):
        return ProductionRunning(epoch=state.epoch), (StartProduction(),)

    raise IllegalTransition(f"event {type(event).__name__} not legal in state {type(state).__name__}")


# --- session results ----------------------------------------------------------

@dataclass(frozen=True)
class Alert:
    request: int
    report: str
    at_ms: float


class Transition(NamedTuple):
    """One row of the transition trace; tuple-backed, as a long session
    records one per event."""

    at_ms: float
    from_state: str
    event: str
    to_state: str
    actions: tuple[str, ...]
    epoch: int


@dataclass
class SessionResult:
    final_policy: SyscallPolicy
    policy_log: list[PolicyLogEntry]
    latency_records: list["workload_mod.LatencyRecord"]
    alerts: list[Alert]
    transition_trace: list[Transition]
    consultations: int
    mode: str = "timeloops"

    def _json_fields(self) -> dict:
        """Every field of the document, with the transitions left empty."""
        return {
            "final_policy": {
                "allow": sorted(self.final_policy.allow),
                "deny": sorted(self.final_policy.deny),
                "epoch": self.final_policy.epoch,
            },
            "alerts": [
                {"request": a.request, "report": a.report, "at_ms": a.at_ms}
                for a in self.alerts
            ],
            "transitions": [],
            "consultations": self.consultations,
        }

    def to_json_dict(self) -> dict:
        doc = self._json_fields()
        doc["transitions"] = [
            {
                "at_ms": t.at_ms,
                "from": t.from_state,
                "event": t.event,
                "to": t.to_state,
                "actions": list(t.actions),
                "epoch": t.epoch,
            }
            for t in self.transition_trace
        ]
        return doc

    def to_json(self) -> str:
        """The session document; always equal to
        ``json.dumps(self.to_json_dict(), indent=2)``, byte for byte.

        ``indent`` makes ``json`` fall back to its pure-Python encoder, which
        is too slow for a long transition trace. Everything but the
        transitions is still rendered that way. Each transition row is then
        built from a fragment rendered once per distinct (from, event, to,
        actions) and cached for this call, so a row only formats its
        ``at_ms`` and ``epoch``.
        """
        text = json.dumps(self._json_fields(), indent=2)
        if not self.transition_trace:
            return text
        # A JSON string holds no raw newline, so this splits only at the key.
        head, tail = text.split('\n  "transitions": []', 1)
        # The document is assembled by one join: it runs to megabytes on a
        # long session, and each intermediate copy would raise peak memory.
        parts = [head, '\n  "transitions": [\n']
        fragments: dict[tuple, str] = {}
        separator = ""
        for at, from_state, event, to_state, actions, epoch in self.transition_trace:
            key = (from_state, event, to_state, actions)
            middle = fragments.get(key)
            if middle is None:
                middle = fragments[key] = _transition_fragment(*key)
            # json spells the non-finite floats its own way.
            at_text = repr(at) if math.isfinite(at) else json.dumps(at)
            parts.append(f'{separator}    {{\n      "at_ms": {at_text}{middle}{epoch}\n    }}')
            separator = ",\n"
        parts.append("\n  ]")
        parts.append(tail)
        return "".join(parts)


def _transition_fragment(from_state: str, event: str, to_state: str, actions: tuple) -> str:
    """What an indented transition row holds between its at_ms and epoch values."""
    body = json.dumps(
        {"from": from_state, "event": event, "to": to_state, "actions": list(actions)}, indent=2
    )
    # Drop the braces and indent the members from depth 1 to depth 3.
    members = body[1:-2].replace("\n", "\n    ")
    return f',{members},\n      "epoch": '


class SessionDriver:
    """Single-threaded event loop binding client, controller and containers.

    The driver owns the policy, the controller state and the virtual clock.
    ``attempt`` processes one client attempt, advancing the clock by run
    costs, restart costs and any queueing delay while a container starts.

    The driver learns into a live allow-list: a benign oracle verdict adds
    its new names in place and bumps the epoch. ``policy`` is the filter
    installed in the production container, an immutable snapshot of the
    live allow-list taken each time production starts, and rebuilt only if
    the epoch has moved since the last one.

    The oracle's verdict on a request depends only on its handler and the
    watchdog budget, so the driver consults it once per request key per
    session: a verdict table maps each key to the ``(OracleFinished,
    elapsed)`` of an oracle run with no watchdog, filled on first use.
    Hardened requests and oracle runs whose elapsed time fits the remaining
    watchdog budget read the table; a run the watchdog would cut short is
    walked again with the budget. The table lives and dies with the session.
    """

    def __init__(
        self,
        spec: ServiceSpec,
        config: ControllerConfig,
        mode: str = "timeloops",
        initial_policy: SyscallPolicy | None = None,
        initial_log: Sequence[PolicyLogEntry] = (),
    ):
        if mode not in SESSION_MODES:
            raise ConfigError(f"unknown session mode: {mode!r}")
        self.spec = spec
        self.config = config
        self.mode = mode
        self.policy = initial_policy if initial_policy is not None else new_policy(config.deny)
        self._allow = set(self.policy.allow)
        self._epoch = self.policy.epoch
        self.state: ControllerState = ProductionRunning(epoch=self._epoch)
        self.now = 0.0
        # Initial start is free; restart cost applies only to violation- and
        # oracle-triggered starts.
        self.ready_at = 0.0
        self.policy_log: list[PolicyLogEntry] = list(initial_log)
        self.alerts: list[Alert] = []
        self.transition_trace: list[Transition] = []
        self.consultations = 0
        self._current_request_id: int | None = None
        # request key -> the event of its last completed production run; a
        # handler's completions share one result, so they share one event.
        self._completions: dict[str, ProdExited] = {}
        # request key -> the event and elapsed time of its unbounded oracle run
        self._verdicts: dict[str, tuple[OracleFinished, float]] = {}

    # -- plumbing

    def _alert(self, report: str) -> None:
        request = self._current_request_id if self._current_request_id is not None else -1
        self.alerts.append(Alert(request=request, report=report, at_ms=self.now))

    def _transition(self, event: ControllerEvent) -> bool:
        """Apply one event; returns True if the attempt was rejected by an alert."""
        before = self.state
        state, actions = step(before, event, self.config)
        rejected = False
        oracle_started_ms = None
        restart = self.spec.cost_model.restart_ms
        for action in actions:
            if isinstance(action, StartOracle):
                oracle_started_ms = self.ready_at = self.now + restart
            elif isinstance(action, StartProduction):
                self.ready_at = self.now + restart
                self.policy = self.snapshot()
            elif isinstance(action, UpdatePolicy):
                try:
                    entry = growth_entry(
                        self._allow, self.policy.deny, self._epoch, action.new_syscalls,
                        "oracle", self.now,
                    )
                except DeniedSyscall as exc:
                    # Category-4 mitigation: the oracle observed a deny-listed
                    # syscall, so the request is rejected and nothing is learned.
                    self._alert(str(exc))
                    rejected = True
                else:
                    if entry is not None:
                        self._allow.update(entry.added)
                        self._epoch = entry.epoch
                        self.policy_log.append(entry)
            elif isinstance(action, RaiseAlert):
                self._alert(action.report)
                rejected = True
        # The running state carries the current epoch, and an oracle state
        # the time its container started.
        epoch = self._epoch
        if isinstance(state, OracleRunning):
            if oracle_started_ms is None:
                oracle_started_ms = state.oracle_started_ms
            state = OracleRunning(epoch=epoch, oracle_started_ms=oracle_started_ms)
        elif isinstance(state, ProductionRunning) and state.epoch != epoch:
            state = ProductionRunning(epoch=epoch)
        self.state = state
        labels = _SERVED_LABELS if actions is _SERVED else tuple([a.label for a in actions])
        self.transition_trace.append(
            Transition(self.now, before.label, event.label, state.label, labels, epoch)
        )
        return rejected

    def snapshot(self) -> SyscallPolicy:
        """The live allow-list as a policy value; ``policy`` if it is current."""
        if self.policy.epoch == self._epoch:
            return self.policy
        return SyscallPolicy(epoch=self._epoch, allow=frozenset(self._allow), deny=self.policy.deny)

    def _consult(self, key: str, budget: float = math.inf) -> tuple[OracleFinished, float]:
        """The oracle's verdict on ``key`` within ``budget`` ms, and its elapsed time.

        A run whose unbounded elapsed time fits the budget is never cut short
        (see ``run_oracle``), so it is read from the verdict table; only a run
        the watchdog stops mid-request is walked again.
        """
        entry = self._verdicts.get(key)
        if entry is None:
            outcome, elapsed = run_oracle(self.spec, key)
            entry = self._verdicts[key] = OracleFinished(outcome), elapsed
        if entry[1] <= budget:
            return entry
        outcome, elapsed = run_oracle(self.spec, key, budget)
        return OracleFinished(outcome), elapsed

    def _wait_until_ready(self) -> None:
        if self.now < self.ready_at:
            self.now = self.ready_at

    # -- one client attempt

    def attempt(self, request: "workload_mod.Request") -> str:
        """Process one attempt; returns 'served', 'failed' or 'rejected'."""
        self._current_request_id = request.logical_id
        if self.mode == "timeloops":
            return self._attempt_timeloops(request)
        if self.mode == "hardened":
            return self._attempt_hardened(request)
        _, elapsed = run_unrestricted(self.spec, request.key)
        self.now += elapsed
        return "served"

    def _attempt_hardened(self, request: "workload_mod.Request") -> str:
        # Permanently instrumented deployment: every request pays the oracle
        # cost, detectable exploits abort, and no syscall filter exists.
        event, elapsed = self._consult(request.key)
        self.now += elapsed
        if isinstance(event.outcome, Malicious):
            self._alert(event.outcome.report)
            return "rejected"
        return "served"

    def _attempt_timeloops(self, request: "workload_mod.Request") -> str:
        self._wait_until_ready()
        if isinstance(self.state, OracleRunning):
            tenure = self.now - self.state.oracle_started_ms
            if tenure >= self.config.watchdog_ms:
                self._transition(WatchdogFired())
                self._wait_until_ready()

        if isinstance(self.state, ProductionRunning):
            reason, elapsed = run_production(self.spec, self.policy, request.key)
            self.now += elapsed
            if isinstance(reason, Completed):
                event = self._completions.get(request.key)
                if event is None or event.reason is not reason:
                    event = self._completions[request.key] = ProdExited(reason)
                self._transition(event)
                return "served"
            # The audit log names the blocked syscall, so the controller can
            # spot a deny-list hit without consulting the oracle.
            if reason.syscall in self.policy.deny:
                self._transition(ProdExited(DeniedSyscallHit(reason.syscall)))
                return "rejected"
            self._transition(ProdExited(reason))
            return "failed"

        if isinstance(self.state, OracleRunning):
            remaining = self.config.watchdog_ms - (self.now - self.state.oracle_started_ms)
            event, elapsed = self._consult(request.key, remaining)
            self.now += elapsed
            self.consultations += 1
            rejected = self._transition(event)
            outcome = event.outcome
            if isinstance(outcome, Benign):
                return "rejected" if rejected else "served"
            if isinstance(outcome, Malicious):
                return "rejected"
            return "failed"

        raise IllegalTransition("session driver reached a halted controller")

    def shutdown(self) -> None:
        if self.mode == "timeloops":
            self._transition(Shutdown())


def _pretrain(
    spec: ServiceSpec, requests: Iterable[str], config: ControllerConfig
) -> tuple[SyscallPolicy, list[PolicyLogEntry]]:
    policy = new_policy(config.deny)
    entries: list[PolicyLogEntry] = []
    for key in requests:
        behavior = spec.handlers.get(key)
        if behavior is None:
            raise ConfigError(f"pretrain request {key!r} has no handler")
        if behavior.exploit is not None:
            raise ExploitInPretrainSet(f"pretrain request {key!r} is exploit-annotated")
        policy, entry = extend(
            policy,
            frozenset(behavior.trace) | spec.oracle_extra,
            source="pretrain",
            timestamp_ms=0.0,
        )
        if entry is not None:
            entries.append(entry)
    return policy, entries


def pretrain(
    spec: ServiceSpec, requests: Iterable[str], config: ControllerConfig
) -> SyscallPolicy:
    """Learn a starting policy offline from known-safe requests.

    Produces exactly the policy a fresh session would learn from the same
    requests; log entries are tagged with source "pretrain". Pretraining
    does not need to be exhaustive: the session keeps learning afterwards.
    """
    policy, _ = _pretrain(spec, requests, config)
    return policy


def run_session(
    spec: ServiceSpec,
    workload: Sequence["workload_mod.Request"],
    config: ControllerConfig | None = None,
    mode: str = "timeloops",
    max_attempts: int = 16,
) -> SessionResult:
    """Drive a workload to completion under retry semantics.

    Every logical request is retried until served, rejected by an alert, or
    the attempt budget is exhausted. Fully deterministic for a given
    (spec, workload, config, mode).
    """
    config = config if config is not None else ControllerConfig()
    if not workload:
        raise ConfigError("workload must not be empty")
    conflict = spec.oracle_extra & config.deny
    if conflict:
        raise ConfigError(
            "oracle instrumentation syscalls are deny-listed: " + ", ".join(sorted(conflict))
        )
    initial_policy = None
    initial_log: list[PolicyLogEntry] = []
    if config.pretrain_requests:
        initial_policy, initial_log = _pretrain(spec, config.pretrain_requests, config)
    driver = SessionDriver(
        spec, config, mode=mode, initial_policy=initial_policy, initial_log=initial_log
    )
    records = [
        workload_mod.send_with_retry(request, driver, max_attempts=max_attempts)
        for request in workload
    ]
    driver.shutdown()
    return SessionResult(
        # A session can end while the oracle runs, after the last snapshot.
        final_policy=driver.snapshot(),
        policy_log=driver.policy_log,
        latency_records=records,
        alerts=driver.alerts,
        transition_trace=driver.transition_trace,
        consultations=driver.consultations,
        mode=mode,
    )
