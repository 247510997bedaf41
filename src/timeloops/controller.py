"""Controller state machine, session driver and the two baseline deployments.

The controller alternates two replicas of one service: a fast production
container enforcing the current allow-list, and a hardened oracle replica
consulted whenever production dies on a policy violation. A benign oracle
verdict grows the policy and restarts production; a malicious verdict
raises an alert and never touches the policy. ``step`` is the pure
transition function. Its events are a production run's exit reason and an
oracle run's outcome, as ``simruntime`` returns them, plus the watchdog and
shutdown; each event's ``label`` names it in the transition trace.
``SessionDriver`` applies it to a workload on a shared virtual clock; it
pretrains by learning the oracle's verdicts on known-safe requests as it
learns any benign verdict. ``run_session`` also runs the two deployments
the controller is compared with, unhardened and hardened; they have no
controller, so each is one plain loop over the workload. Every oracle run
goes through ``run_oracle``.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import ClassVar, Iterable, Iterator, NamedTuple, Sequence

from . import workload as workload_mod
from .errors import (
    ConfigError,
    DeniedSyscall,
    ExploitInTrainingSet,
    IllegalTransition,
)
from .policy import PolicyLogEntry, SyscallPolicy, growth_entry, new_policy
from .policy import extend  # noqa: F401  (unused; the bench tracer wraps it by this name)
from .simruntime import (
    Benign,
    Completed,
    DeniedSyscallHit,
    ExitReason,
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
# session.json. A production exit reason or an oracle outcome from
# ``simruntime`` is an event as it is, and carries its own label.

@dataclass(frozen=True)
class ProductionRunning:
    label: ClassVar[str] = "production_running"


@dataclass(frozen=True)
class OracleRunning:
    label: ClassVar[str] = "oracle_running"


@dataclass(frozen=True)
class Halted:
    label: ClassVar[str] = "halted"


ControllerState = ProductionRunning | OracleRunning | Halted


@dataclass(frozen=True)
class WatchdogFired:
    label: ClassVar[str] = "watchdog_fired"


@dataclass(frozen=True)
class Shutdown:
    label: ClassVar[str] = "shutdown"


ControllerEvent = ExitReason | OracleOutcome | WatchdogFired | Shutdown


@dataclass(frozen=True)
class StartProduction:
    label: ClassVar[str] = "start_production"


@dataclass(frozen=True)
class StartOracle:
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
# tuple and, as only a completed production run returns it, one trace row.
_SERVED = (LogEvent(),)
_SERVED_ROW = (ProductionRunning.label, Completed.label, ProductionRunning.label, (LogEvent.label,))


def step(
    state: ControllerState, event: ControllerEvent, config: ControllerConfig
) -> tuple[ControllerState, tuple[ControllerAction, ...]]:
    """Pure transition function; raises IllegalTransition on state/event mismatch."""
    # Exact type checks, with the pair of a served request first.
    if type(state) is ProductionRunning:
        if type(event) is Completed:
            return state, _SERVED
        if type(event) is PolicyViolation:
            return OracleRunning(), (StartOracle(),)
        if type(event) is DeniedSyscallHit:
            return state, (
                RaiseAlert(f"deny-listed syscall {event.syscall!r} requested"),
                StartProduction(),
            )
    elif type(state) is OracleRunning:
        if type(event) is Benign:
            if config.oracle_mode == "until_watchdog":
                return state, (UpdatePolicy(event.observed),)
            return ProductionRunning(), (UpdatePolicy(event.observed), StartProduction())
        if type(event) is Malicious:
            return ProductionRunning(), (RaiseAlert(event.report), StartProduction())
        if type(event) is WatchdogTimeout:
            return (
                ProductionRunning(),
                (LogEvent(), StartProduction()),
            )
        if type(event) is WatchdogFired:
            return ProductionRunning(), (StartProduction(),)
    if type(event) is Shutdown:
        return Halted(), (LogEvent(),)

    raise IllegalTransition(f"event {type(event).__name__} not legal in state {type(state).__name__}")


# --- session results ----------------------------------------------------------

@dataclass(frozen=True)
class Alert:
    request: int
    report: str
    at_ms: float


class Transition(NamedTuple):
    """One row of the transition trace."""

    at_ms: float
    from_state: str
    event: str
    to_state: str
    actions: tuple[str, ...]
    epoch: int


class TransitionTrace(Sequence[Transition]):
    """The transition trace as a read-only sequence of :class:`Transition`, in
    columns: each row's ``at_ms``, ``epochs`` and ``row_ids``, its index into
    ``rows``, the table of distinct (from, event, to, actions) rows. A
    transition is added by ``append``, or by appending to the three columns
    a row id that ``row_id`` gave."""

    def __init__(self):
        self.at_ms, self.epochs, self.row_ids = array("d"), array("q"), array("I")
        self.rows: list[tuple[str, str, str, tuple[str, ...]]] = []
        self._ids: dict[tuple, int] = {}

    def row_id(self, row: tuple) -> int:
        """The index of ``row`` in ``rows``, added if it is new."""
        row_id = self._ids.get(row)
        if row_id is None:
            row_id = self._ids[row] = len(self.rows)
            self.rows.append(row)
        return row_id

    def append(self, at_ms: float, row: tuple, epoch: int) -> None:
        self.at_ms.append(at_ms)
        self.row_ids.append(self.row_id(row))
        self.epochs.append(epoch)

    def __len__(self) -> int:
        return len(self.row_ids)

    def __getitem__(self, index: int) -> Transition:
        return Transition(self.at_ms[index], *self.rows[self.row_ids[index]], self.epochs[index])

    def __iter__(self):
        columns = [map(column.__getitem__, self.row_ids) for column in zip(*self.rows)]
        return map(partial(tuple.__new__, Transition), zip(self.at_ms, *columns, self.epochs))


# What session.json writes for a float ``repr`` writes otherwise.
_JSON_FLOATS = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}


@dataclass
class SessionResult:
    final_policy: SyscallPolicy
    policy_log: list[PolicyLogEntry]
    latency_records: "workload_mod.LatencyTable"
    alerts: list[Alert]
    transition_trace: TransitionTrace
    consultations: int

    def to_json(self) -> str:
        """The session document; always equal, byte for byte, to
        ``json.dumps(doc, indent=2)`` of the document as plain dicts, ``doc``
        as ``_session_dict`` in ``tests/test_transitions.py`` builds it.

        ``indent`` makes ``json`` fall back to its pure-Python encoder, which
        is too slow for a long transition trace. Everything but the
        transitions is still rendered that way. The transitions are one
        ``"".join`` over four pieces each: its ``at_ms`` text, its row's
        fragment, its epoch text and a separator. Each row of the trace's
        table is rendered once, as what lies between ``at_ms`` and
        ``epoch``, each distinct epoch once, and the separator is one
        string, so the render peaks at about the document plus four
        pointers and one ``at_ms`` string per transition.
        """
        text = json.dumps({
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
        }, indent=2)
        trace = self.transition_trace
        if not trace:
            return text
        # A JSON string holds no raw newline, so this splits only at the key.
        head, tail = text.split('\n  "transitions": []', 1)
        parts = [None] * (4 * len(trace) + 1)
        parts[0] = head + '\n  "transitions": [\n    {\n      "at_ms": '
        parts[1::4] = [_JSON_FLOATS.get(at, at) for at in map(float.__repr__, trace.at_ms)]
        parts[2::4] = map([_transition_fragment(*row) for row in trace.rows].__getitem__,
                          trace.row_ids)
        parts[3::4] = map({e: str(e) for e in set(trace.epochs)}.__getitem__, trace.epochs)
        parts[4::4] = repeat('\n    },\n    {\n      "at_ms": ', len(trace))
        parts[-1] = "\n    }\n  ]" + tail
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
    """The Timeloops controller's event loop: client, controller and
    containers on one virtual clock.

    The driver owns the policy, the controller state and the virtual clock.
    ``attempt`` processes one client attempt, advancing the clock by run
    costs, restart costs and any queueing delay while a container starts.
    ``shutdown`` halts the controller at the end of the session.

    The driver learns into a live allow-list: ``_learn`` adds the new names
    of a benign oracle verdict in place and logs them, and the epoch is the
    length of ``policy_log``. ``policy`` is the filter installed in the
    production container, an immutable snapshot of the live allow-list
    taken each time production starts, and rebuilt only if the epoch has
    moved since the last one.

    The driver starts pretrained: each of ``config.pretrain_requests`` runs
    in the oracle before the clock starts, and ``_learn`` takes its verdict
    with source "pretrain", counting no consultation and writing no
    transition. A deny-listed name raises :class:`DeniedSyscall`. Each
    consultation calls ``run_oracle`` with the watchdog budget left to the
    oracle's tenure.
    """

    def __init__(self, spec: ServiceSpec, config: ControllerConfig):
        self.spec = spec
        self.config = config
        self.policy = new_policy(config.deny)
        self._allow: set[str] = set()
        self.state: ControllerState = ProductionRunning()
        self.now = 0.0
        # Initial start is free; restart cost applies only to violation- and
        # oracle-triggered starts.
        self.ready_at = 0.0
        # When the running oracle container started; set by StartOracle.
        self._oracle_started_ms = 0.0
        self.policy_log: list[PolicyLogEntry] = []
        self.alerts: list[Alert] = []
        self.transition_trace = TransitionTrace()
        # A served request's transition is appended without hashing its row.
        self._served_row_id = self.transition_trace.row_id(_SERVED_ROW)
        self.consultations = 0
        self._current_request_id = -1
        for key in config.pretrain_requests:
            behavior = spec.handlers.get(key)
            if behavior is None:
                raise ConfigError(f"pretrain request {key!r} has no handler")
            if behavior.exploit is not None:
                raise ExploitInTrainingSet(f"pretrain request {key!r} is exploit-annotated")
            self._learn(run_oracle(spec, key)[0].observed, "pretrain")
        self.policy = self.snapshot()

    # -- plumbing

    def _learn(self, new: frozenset[str], source: str) -> None:
        """Allow the names in ``new`` not yet allowed, and log them as one
        entry at the next epoch; raises :class:`DeniedSyscall`, learning
        nothing, if any of them is deny-listed."""
        entry = growth_entry(
            self._allow, self.policy.deny, len(self.policy_log), new, source, self.now
        )
        if entry is not None:
            self._allow.update(entry.added)
            self.policy_log.append(entry)

    def _alert(self, report: str) -> None:
        self.alerts.append(Alert(request=self._current_request_id, report=report, at_ms=self.now))

    def _transition(self, event: ControllerEvent) -> bool:
        """Apply one event; returns True if the attempt was rejected by an alert."""
        before = self.state
        self.state, actions = step(before, event, self.config)
        if actions is _SERVED:
            trace = self.transition_trace
            trace.at_ms.append(self.now)
            trace.row_ids.append(self._served_row_id)
            trace.epochs.append(len(self.policy_log))
            return False
        rejected = False
        restart = self.spec.cost_model.restart_ms
        for action in actions:
            kind = type(action)
            if kind is StartOracle:
                self._oracle_started_ms = self.ready_at = self.now + restart
            elif kind is StartProduction:
                self.ready_at = self.now + restart
                self.policy = self.snapshot()
            elif kind is UpdatePolicy:
                try:
                    self._learn(action.new_syscalls, "oracle")
                except DeniedSyscall as exc:
                    # Category-4 mitigation: the oracle observed a deny-listed
                    # syscall, so the request is rejected and nothing is learned.
                    self._alert(str(exc))
                    rejected = True
            elif kind is RaiseAlert:
                self._alert(action.report)
                rejected = True
        row = (before.label, event.label, self.state.label, tuple([a.label for a in actions]))
        self.transition_trace.append(self.now, row, len(self.policy_log))
        return rejected

    def snapshot(self) -> SyscallPolicy:
        """The live allow-list as a policy value; ``policy`` if it is current."""
        epoch = len(self.policy_log)
        if self.policy.epoch == epoch:
            return self.policy
        return SyscallPolicy(epoch=epoch, allow=frozenset(self._allow), deny=self.policy.deny)

    # -- one client attempt

    def attempt(self, request: "workload_mod.Request") -> str | None:
        """Process one attempt; returns the request's outcome, "served" or
        "rejected_malicious", or None if the attempt failed and is retried."""
        self._current_request_id = request.logical_id
        # Requests queue while a container starts.
        if self.now < self.ready_at:
            self.now = self.ready_at
        state = type(self.state)
        if state is OracleRunning and self.now - self._oracle_started_ms >= self.config.watchdog_ms:
            self._transition(WatchdogFired())
            self.now = self.ready_at
            state = ProductionRunning

        if state is ProductionRunning:
            event, elapsed = run_production(self.spec, self.policy, request.key)
            # The audit log names the blocked syscall, so the controller can
            # spot a deny-list hit without consulting the oracle.
            if type(event) is PolicyViolation and event.syscall in self.policy.deny:
                event = DeniedSyscallHit(event.syscall)
        elif state is OracleRunning:
            remaining = self.config.watchdog_ms - (self.now - self._oracle_started_ms)
            event, elapsed = run_oracle(self.spec, request.key, remaining)
            self.consultations += 1
        else:
            raise IllegalTransition("session driver reached a halted controller")
        self.now += elapsed
        if self._transition(event):
            return "rejected_malicious"
        return "served" if type(event) in (Completed, Benign) else None

    def shutdown(self) -> None:
        self._transition(Shutdown())


def _baseline_rows(
    spec: ServiceSpec, workload: Iterable["workload_mod.Request"], mode: str, alerts: list[Alert]
) -> Iterator[tuple]:
    """The latency rows of a deployment without the controller; its alerts
    are appended to ``alerts``.

    Each request runs once, with no filter. Unhardened runs it as is;
    hardened runs it in the oracle with no watchdog, so every request pays
    the oracle's cost and a detected exploit is rejected with an alert.

    A row is a :class:`LatencyRecord`'s fields, as a plain tuple; the
    session's table checks the rows' columns.
    """
    now = 0.0
    for logical_id, key in workload:
        first_attempt_ms = now
        outcome = "served"
        if mode == "hardened":
            verdict, elapsed = run_oracle(spec, key)
            now += elapsed
            if isinstance(verdict, Malicious):
                alerts.append(Alert(request=logical_id, report=verdict.report, at_ms=now))
                outcome = "rejected_malicious"
        else:
            _, elapsed = run_unrestricted(spec, key)
            now += elapsed
        yield logical_id, key, 1, first_attempt_ms, now, outcome


def run_session(
    spec: ServiceSpec,
    workload: Sequence["workload_mod.Request"],
    config: ControllerConfig | None = None,
    mode: str = "timeloops",
) -> SessionResult:
    """Run a workload to completion in one of ``SESSION_MODES``.

    Under the controller, every logical request is retried until served,
    rejected by an alert, or ``workload.MAX_ATTEMPTS`` attempts fail; the
    baseline modes run each request once. Every mode starts from the
    pretrained policy. Fully deterministic for a given (spec, workload,
    config, mode).
    """
    config = config if config is not None else ControllerConfig()
    if mode not in SESSION_MODES:
        raise ConfigError(f"unknown session mode: {mode!r}")
    if not workload:
        raise ConfigError("workload must not be empty")
    conflict = spec.oracle_extra & config.deny
    if conflict:
        raise ConfigError(
            "oracle instrumentation syscalls are deny-listed: " + ", ".join(sorted(conflict))
        )
    driver = SessionDriver(spec, config)
    if mode != "timeloops":
        # Nothing is learned: the policy stays the pretrained one.
        alerts: list[Alert] = []
        records = workload_mod.LatencyTable(
            _baseline_rows(spec, workload, mode, alerts))
        return SessionResult(final_policy=driver.policy, policy_log=driver.policy_log,
                             latency_records=records, alerts=alerts,
                             transition_trace=TransitionTrace(), consultations=0)
    records = workload_mod.LatencyTable(
        workload_mod.send_with_retry(request, driver) for request in workload
    )
    driver.shutdown()
    return SessionResult(
        # A session can end while the oracle runs, after the last snapshot.
        final_policy=driver.snapshot(),
        policy_log=driver.policy_log,
        latency_records=records,
        alerts=driver.alerts,
        transition_trace=driver.transition_trace,
        consultations=driver.consultations,
    )
