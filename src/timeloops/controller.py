"""Controller state machine, session driver and the two baseline deployments.

The controller alternates two replicas of one service: a fast production
container enforcing the current allow-list, and a hardened oracle replica
consulted whenever production dies on a policy violation. A benign oracle
verdict grows the policy and restarts production; a malicious verdict
raises an alert and never touches the policy. ``step`` is the pure
transition function. Its events are a production run's exit reason and an
oracle run's outcome, as ``simruntime`` returns them, plus the watchdog and
shutdown; each event's ``label`` names it in the transition trace.
``SessionDriver`` applies it to a workload on a shared virtual clock,
recording a completed production run, to which ``step`` always gives the
same answer, by its time alone, without calling it; it pretrains by
learning the oracle's verdicts on known-safe requests as it learns any
benign verdict.
``run_session`` also runs the two deployments the controller is compared
with, unhardened and hardened; they have no controller, so a request's
run depends only on its key, and each distinct key runs once into the
columns of the session's table. Every oracle run goes through
``run_oracle``.
"""

from __future__ import annotations

import json
import math
from array import array
from functools import partial
from itertools import accumulate, chain, compress, repeat
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from . import workload as workload_mod
from .catalog import Frozen, record
from .errors import (
    ConfigError,
    DeniedSyscall,
    IllegalTransition,
)
from .policy import PolicyLogEntry, SyscallPolicy, extend, new_policy, policy_object
from .simruntime import (
    COMPLETED,
    WATCHDOG_TIMEOUT,
    Benign,
    DeniedSyscallHit,
    ExitReason,
    Malicious,
    Marker,
    OracleOutcome,
    PolicyViolation,
    ServiceSpec,
    request_keys,
    run_oracle,
    run_production,
    run_unrestricted,
    training_handler,
)

ORACLE_MODES = ("single", "watchdog")
SESSION_MODES = ("timeloops", "unhardened", "hardened")


# --- states, events, actions --------------------------------------------------
#
# Each carries the ``label`` that names it in the transition trace and in
# session.json. A production exit reason or an oracle outcome from
# ``simruntime`` is an event as it is, and carries its own label. The states,
# and each event or action that carries no data, are shared markers.

PRODUCTION_RUNNING = Marker("production_running")
ORACLE_RUNNING = Marker("oracle_running")
HALTED = Marker("halted")
WATCHDOG_FIRED = Marker("watchdog_fired")
SHUTDOWN = Marker("shutdown")
START_PRODUCTION = Marker("start_production")
START_ORACLE = Marker("start_oracle")
LOG_EVENT = Marker("log_event")


@record
class UpdatePolicy(NamedTuple):
    """Ensure the observed syscalls are allowed; known ones are skipped."""

    new_syscalls: frozenset[str]
    label = "update_policy"


@record
class RaiseAlert(NamedTuple):
    report: str
    label = "raise_alert"


ControllerEvent = ExitReason | OracleOutcome
ControllerAction = Marker | UpdatePolicy | RaiseAlert


class ControllerConfig(Frozen):
    """A session's settings, each checked and normalised here, once: ``deny``
    is any collection of syscall names, kept as the frozenset ``new_policy``
    makes of it, and ``pretrain_requests`` a list or tuple of request keys,
    kept as a tuple (see ``simruntime.request_keys``). A bare ``str`` for
    either raises TypeError. The driver uses the fields as they are."""

    __slots__ = _fields = ("oracle_mode", "watchdog_ms", "deny", "pretrain_requests")

    def __init__(self, oracle_mode: str = "single", watchdog_ms: float = 10_000.0,
                 deny: frozenset[str] = frozenset(), pretrain_requests: tuple[str, ...] = ()):
        if oracle_mode not in ORACLE_MODES:
            raise ConfigError(f"unknown oracle mode: {oracle_mode!r}")
        if not (math.isfinite(watchdog_ms) and watchdog_ms > 0):
            raise ConfigError(f"watchdog_ms must be positive and finite, got {watchdog_ms!r}")
        self._set(oracle_mode, watchdog_ms, new_policy(deny).deny,
                  request_keys(pretrain_requests, "pretrain_requests"))


def step(
    state: Marker, event: ControllerEvent, config: ControllerConfig
) -> tuple[Marker, tuple[ControllerAction, ...]]:
    """Pure transition function; raises IllegalTransition on state/event mismatch."""
    # Identity and exact type checks.
    if state is PRODUCTION_RUNNING:
        if event is COMPLETED:
            return state, (LOG_EVENT,)
        if type(event) is PolicyViolation:
            return ORACLE_RUNNING, (START_ORACLE,)
        if type(event) is DeniedSyscallHit:
            return state, (
                RaiseAlert(f"deny-listed syscall {event.syscall!r} requested"),
                START_PRODUCTION,
            )
    elif state is ORACLE_RUNNING:
        if type(event) is Benign:
            if config.oracle_mode == "watchdog":
                return state, (UpdatePolicy(event.observed),)
            return PRODUCTION_RUNNING, (UpdatePolicy(event.observed), START_PRODUCTION)
        if type(event) is Malicious:
            return PRODUCTION_RUNNING, (RaiseAlert(event.report), START_PRODUCTION)
        if event is WATCHDOG_TIMEOUT:
            return PRODUCTION_RUNNING, (LOG_EVENT, START_PRODUCTION)
        if event is WATCHDOG_FIRED:
            return PRODUCTION_RUNNING, (START_PRODUCTION,)
    if event is SHUTDOWN and state in (PRODUCTION_RUNNING, ORACLE_RUNNING, HALTED):
        return HALTED, (LOG_EVENT,)
    raise IllegalTransition(f"event {event.label} not legal in state {state.label}")


def _row(before: Marker, event: ControllerEvent, after: Marker, actions: tuple) -> tuple:
    """A transition's row in the trace: the labels of its states, event and actions."""
    return before.label, event.label, after.label, tuple([a.label for a in actions])


# A completed production run is the common case, and ``step`` answers it the
# same way every time, so ``SessionDriver`` records it as this one row, built
# here from ``step``, without calling ``step``.
_SERVED_ROW = _row(PRODUCTION_RUNNING, COMPLETED,
                   *step(PRODUCTION_RUNNING, COMPLETED, ControllerConfig()))


# --- session results ----------------------------------------------------------

@record
class Alert(NamedTuple):
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
    a row id that ``row_id`` gave.

    ``SessionDriver`` appends a served request's time alone: its row is
    pending until the driver's next transition fills the row id and the
    epoch of every pending row, ``len(at_ms) - len(row_ids)`` of them, so
    the sequence holds the rows filled so far, and a finished session's
    trace holds every row."""

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
# TextIOWrapper encodes each write into one new bytes object, so writing a
# document whole would copy it once more; a slice of it copies only a slice.
_WRITE_CHARS = 1 << 18


class SessionResult:
    """What a session leaves: its final policy, policy log, latency table,
    alerts, transition trace and count of oracle consultations."""

    def __init__(self, final_policy: SyscallPolicy, policy_log: list[PolicyLogEntry],
                 latency_records: "workload_mod.LatencyTable", alerts: list[Alert],
                 transition_trace: TransitionTrace, consultations: int):
        self.final_policy = final_policy
        self.policy_log = policy_log
        self.latency_records = latency_records
        self.alerts = alerts
        self.transition_trace = transition_trace
        self.consultations = consultations

    def to_json(self) -> str:
        """The session document; always equal, byte for byte, to
        ``json.dumps(doc, indent=2)`` of the document as plain dicts, ``doc``
        as ``session_json`` in ``tests/reference.py`` builds it.

        ``indent`` makes ``json`` fall back to its pure-Python encoder, which
        is too slow for a long transition trace. Everything but the
        transitions is still rendered that way. The transitions are one
        ``"".join`` over four pieces each: its ``at_ms`` text, its row's
        fragment, its epoch text and a separator. Each row of the trace's
        table is rendered once, as what lies between ``at_ms`` and
        ``epoch``, each distinct epoch once, and the separator is one
        string, so the render peaks at about the document plus four
        pointers and one ``at_ms`` string per transition. An ``at_ms`` text
        is the float's ``repr``; only a trace that holds a non-finite time
        has them rewritten to what ``json`` writes for it.
        """
        text = json.dumps({
            "final_policy": policy_object(self.final_policy),
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
        parts[1::4] = map(float.__repr__, trace.at_ms)
        if not all(map(math.isfinite, trace.at_ms)):
            parts[1::4] = [_JSON_FLOATS.get(at, at) for at in parts[1::4]]
        parts[2::4] = map([_transition_fragment(*row) for row in trace.rows].__getitem__,
                          trace.row_ids)
        parts[3::4] = map({e: str(e) for e in set(trace.epochs)}.__getitem__, trace.epochs)
        parts[4::4] = repeat('\n    },\n    {\n      "at_ms": ', len(trace))
        parts[-1] = "\n    }\n  ]" + tail
        return "".join(parts)

    def write_json(self, path: str | Path) -> None:
        """Write the session document and a newline to ``path``, in slices,
        so that the document is never encoded whole."""
        text = self.to_json()
        with open(path, "w", encoding="utf-8") as f:
            for start in range(0, len(text), _WRITE_CHARS):
                f.write(text[start:start + _WRITE_CHARS])
            f.write("\n")


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
    A completed production run, the common case, is recorded by ``attempt``
    itself: it appends only the run's completion time to the trace's
    ``at_ms``. Its row, ``_SERVED_ROW``, and its epoch are the same for
    every such run between two transitions, since only ``_transition``
    grows the policy log, so ``_transition`` fills them for all the pending
    runs at once, before it applies its own event. Every other event goes
    through ``_transition`` and so through ``step``; ``shutdown`` is one,
    so a finished session's trace is complete. ``_transition`` records the
    one alert an event can raise, from a ``RaiseAlert`` action or a
    deny-listed oracle observation, against the request that sent it.
    ``ready_at`` is when the last container started is ready; every way out
    of ``ORACLE_RUNNING`` starts production, so while the oracle runs it is
    when the oracle started, and its watchdog tenure counts from there.
    ``shutdown`` halts the controller at the end of the session.

    The driver learns into a live allow-list through ``policy.extend``,
    looked up in this module at each call: it adds the new names of a
    benign oracle verdict in place and logs them in ``policy_log``, whose
    length is the epoch. ``policy`` is the filter installed in the
    production container, an immutable snapshot of the live allow-list
    taken each time production starts, and rebuilt only if the epoch has
    moved since the last one.

    The driver starts pretrained: each of ``config.pretrain_requests`` runs
    in the oracle before the clock starts, and ``extend`` learns its
    verdict with source "pretrain", counting no consultation and writing no
    transition. A deny-listed name is a :class:`ConfigError` naming the key.
    Each consultation calls ``run_oracle`` with the watchdog budget left to
    the oracle's tenure.
    """

    def __init__(self, spec: ServiceSpec, config: ControllerConfig):
        self.spec = spec
        self.config = config
        self.policy = SyscallPolicy(deny=config.deny)
        self._allow: set[str] = set()
        self.state = PRODUCTION_RUNNING
        self.now = 0.0
        # Initial start is free; restart cost applies only to violation- and
        # oracle-triggered starts.
        self.ready_at = 0.0
        self.policy_log: list[PolicyLogEntry] = []
        self.alerts: list[Alert] = []
        self.transition_trace = TransitionTrace()
        # A served request appends its time alone; ``_transition`` fills its
        # row id and epoch.
        self._served_row_id = self.transition_trace.row_id(_SERVED_ROW)
        self._served_at = self.transition_trace.at_ms.append
        self.consultations = 0
        for key in config.pretrain_requests:
            if training_handler(spec, key, "pretrain request") is None:
                raise ConfigError(f"pretrain request {key!r} has no handler")
            try:
                extend(self._allow, config.deny, self.policy_log,
                       run_oracle(spec, key)[0].observed, "pretrain")
            except DeniedSyscall as exc:
                raise ConfigError(f"pretrain request {key!r}: {exc}") from exc
        self.policy = self.snapshot()

    # -- plumbing

    def _transition(self, event: ControllerEvent, request_id: int = -1) -> bool:
        """Apply one event through ``step`` and record its row; returns True
        if the attempt was rejected by an alert, which is recorded against
        ``request_id``. ``attempt`` records a completed production run
        without it.

        A transition raises at most one alert: ``step`` never gives
        ``UpdatePolicy`` and ``RaiseAlert`` together."""
        trace = self.transition_trace
        pending = len(trace.at_ms) - len(trace.row_ids)
        if pending:
            # Served under the epoch the log has before this event grows it.
            trace.row_ids.extend(array("I", [self._served_row_id]) * pending)
            trace.epochs.extend(array("q", [len(self.policy_log)]) * pending)
        before = self.state
        self.state, actions = step(before, event, self.config)
        report = None
        restart = self.spec.cost_model.restart_ms
        for action in actions:
            if action is START_PRODUCTION or action is START_ORACLE:
                self.ready_at = self.now + restart
                if action is START_PRODUCTION:
                    self.policy = self.snapshot()
            elif type(action) is UpdatePolicy:
                try:
                    extend(self._allow, self.config.deny, self.policy_log,
                           action.new_syscalls, "oracle", self.now)
                except DeniedSyscall as exc:
                    # Category-4 mitigation: the oracle observed a deny-listed
                    # syscall, so the request is rejected and nothing is learned.
                    report = str(exc)
            elif type(action) is RaiseAlert:
                report = action.report
        if report is not None:
            self.alerts.append(Alert(request=request_id, report=report, at_ms=self.now))
        trace.append(self.now, _row(before, event, self.state, actions), len(self.policy_log))
        return report is not None

    def snapshot(self) -> SyscallPolicy:
        """The live allow-list as a policy value; ``policy`` if it is current."""
        epoch = len(self.policy_log)
        if self.policy.epoch == epoch:
            return self.policy
        return SyscallPolicy(epoch=epoch, allow=frozenset(self._allow), deny=self.policy.deny)

    # -- one client attempt

    def attempt(self, request: "workload_mod.Request") -> str | None:
        """Process one attempt; returns the request's outcome, "served" or
        "rejected_malicious", or None if the attempt failed and is retried.

        A completed production run appends its completion time to the
        trace here, its row pending, and is served; every other event is
        applied by ``_transition``."""
        # Requests queue while a container starts.
        if self.now < self.ready_at:
            self.now = self.ready_at
        state = self.state
        if state is ORACLE_RUNNING and self.now - self.ready_at >= self.config.watchdog_ms:
            self._transition(WATCHDOG_FIRED)
            self.now = self.ready_at
            state = PRODUCTION_RUNNING

        if state is PRODUCTION_RUNNING:
            event, elapsed = run_production(self.spec, self.policy, request.key)
            if event is COMPLETED:
                self.now += elapsed
                self._served_at(self.now)
                return "served"
            # The audit log names the blocked syscall, so the controller can
            # spot a deny-list hit without consulting the oracle.
            if type(event) is PolicyViolation and event.syscall in self.policy.deny:
                event = DeniedSyscallHit(event.syscall)
        elif state is ORACLE_RUNNING:
            remaining = self.config.watchdog_ms - (self.now - self.ready_at)
            event, elapsed = run_oracle(self.spec, request.key, remaining)
            self.consultations += 1
        else:
            raise IllegalTransition("session driver reached a halted controller")
        self.now += elapsed
        # An alert this event raises names this request.
        if self._transition(event, request.logical_id):
            return "rejected_malicious"
        return "served" if type(event) is Benign else None

    def shutdown(self) -> None:
        self._transition(SHUTDOWN)


def _baseline_table(
    spec: ServiceSpec, workload: Iterable["workload_mod.Request"], mode: str, alerts: list[Alert]
) -> "workload_mod.LatencyTable":
    """The latency table of a deployment without the controller; its alerts
    are appended to ``alerts``, in request order.

    Each request runs once, with no filter. Unhardened runs it as is;
    hardened runs it in the oracle with no watchdog, so every request pays
    the oracle's cost and a detected exploit is rejected with an alert.

    Neither run depends on anything but the key, so each distinct key runs
    once, and the table is built in columns: the times are the running sum
    of the requests' elapsed times from 0.0, each request's first attempt
    the completion of the one before it.
    """
    flat = list(chain.from_iterable(workload))
    ids, keys = array("q", flat[0::2]), flat[1::2]
    run = run_oracle if mode == "hardened" else run_unrestricted
    runs = {key: run(spec, key) for key in dict.fromkeys(keys)}
    elapsed = {key: ms for key, (_, ms) in runs.items()}
    times = array("d", accumulate(map(elapsed.__getitem__, keys), initial=0.0))
    reports = {key: v.report for key, (v, _) in runs.items() if isinstance(v, Malicious)}
    outcomes = ["served"] * len(keys)
    for i in compress(range(len(keys)), map(reports.__contains__, keys)):
        outcomes[i] = "rejected_malicious"
        alerts.append(Alert(request=ids[i], report=reports[keys[i]], at_ms=times[i + 1]))
    return workload_mod.LatencyTable.from_columns(
        ids, keys, [1] * len(keys), times[:-1], times[1:], outcomes)


def run_session(
    spec: ServiceSpec,
    workload: Iterable["workload_mod.Request"],
    config: ControllerConfig | None = None,
    mode: str = "timeloops",
) -> SessionResult:
    """Run a workload to completion in one of ``SESSION_MODES``.

    Under the controller, every logical request is retried until served,
    rejected by an alert, or ``workload.MAX_ATTEMPTS`` attempts fail; the
    baseline modes send each request once, and run each distinct key once.
    Every mode reads ``workload``, any iterable of requests, once and starts
    from the pretrained policy. Fully deterministic for a given (spec,
    workload, config, mode). An empty workload, and a session whose virtual
    clock does not stay finite, are a :class:`ConfigError`, raised once the
    session's table is built.
    """
    config = config if config is not None else ControllerConfig()
    if mode not in SESSION_MODES:
        raise ConfigError(f"unknown session mode: {mode!r}")
    conflict = spec.oracle_extra & config.deny
    if conflict:
        raise ConfigError(
            "oracle instrumentation syscalls are deny-listed: " + ", ".join(sorted(conflict))
        )
    driver = SessionDriver(spec, config)
    if mode != "timeloops":
        # Nothing is learned or traced: the result holds the pretrained
        # policy and an empty trace.
        records = _baseline_table(spec, workload, mode, driver.alerts)
    else:
        records = workload_mod.LatencyTable(
            workload_mod.send_with_retry(request, driver) for request in workload
        )
        driver.shutdown()
    if not records:
        raise ConfigError("workload must not be empty")
    # The clock never runs back, so the last record's completion is its largest value.
    if not math.isfinite(records.completion_ms[-1]):
        raise ConfigError(f"the virtual clock overflows within {len(records)} requests")
    return SessionResult(
        # A session can end while the oracle runs, after the last snapshot.
        final_policy=driver.snapshot(),
        policy_log=driver.policy_log,
        latency_records=records,
        alerts=driver.alerts,
        transition_trace=driver.transition_trace,
        consultations=driver.consultations,
    )
