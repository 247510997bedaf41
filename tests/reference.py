"""A reference model of a Timeloops session: the paper's loop, written plainly.

Production and the oracle walk every trace syscall by syscall. The policy is
a new set on each growth, the oracle runs on every consultation with no table
of verdicts, and the controller's decisions come from ``step``. The client,
the driver and the two baseline deployments are one loop each, and all five
artifacts are rendered from plain dicts with ``json`` and ``csv.writer``.
Nothing is cached, columnar or shared, so the model states what a session
means; ``run_session`` must give the same results.
"""

import csv
import io
import json
import math

from timeloops.controller import (
    ORACLE_RUNNING,
    PRODUCTION_RUNNING,
    SHUTDOWN,
    START_ORACLE,
    START_PRODUCTION,
    WATCHDOG_FIRED,
    Alert,
    RaiseAlert,
    Transition,
    UpdatePolicy,
    step,
)
from timeloops.errors import AttemptsExhausted, DeniedSyscall
from timeloops.policy import PolicyLogEntry, SyscallPolicy
from timeloops.simruntime import (
    COMPLETED,
    WATCHDOG_TIMEOUT,
    Benign,
    DeniedSyscallHit,
    Malicious,
    PolicyViolation,
)
from timeloops.workload import LATENCY_CSV_HEADER, MAX_ATTEMPTS, LatencyRecord


def issued(spec, key):
    """The syscalls a run of ``key`` issues: a hijacked run issues the
    injection in place of the rest of its trace; no handler issues none."""
    behavior = spec.handlers.get(key)
    if behavior is None:
        return ()
    if behavior.exploit is None:
        return behavior.trace
    return behavior.trace[:behavior.exploit.corruption_index] + behavior.exploit.injected


def production_run(spec, allow, key):
    """A production run of ``key`` under the allow-list ``allow``."""
    cost = spec.cost_model
    trace = issued(spec, key)
    for index, syscall in enumerate(trace):
        if syscall not in allow:
            return PolicyViolation(syscall, index), cost.production_elapsed(index)
    return COMPLETED, cost.production_elapsed(len(trace))


def oracle_run(spec, key, watchdog_ms=math.inf):
    """An oracle run of ``key`` within ``watchdog_ms``: a detectable
    corruption is tested at every index, and once more after the walk."""
    cost = spec.cost_model
    elapsed = cost.base_request_ms * cost.oracle_slowdown_factor
    if elapsed > watchdog_ms:
        return WATCHDOG_TIMEOUT, 0.0
    behavior = spec.handlers.get(key)
    exploit = behavior.exploit if behavior is not None else None
    detect_at = (exploit.corruption_index
                 if exploit is not None and exploit.kind == "oracle_detectable" else None)
    report = f"memory corruption detected in handler {key!r} at trace position {detect_at}"
    per = cost.production_per_syscall_ms * cost.oracle_slowdown_factor
    observed = set()
    for index, syscall in enumerate(issued(spec, key)):
        if index == detect_at:
            return Malicious(report), elapsed
        if elapsed + per > watchdog_ms:
            return WATCHDOG_TIMEOUT, elapsed
        observed.add(syscall)
        elapsed += per
    if detect_at is not None:
        return Malicious(report), elapsed
    return Benign(frozenset(observed) | spec.oracle_extra), elapsed


class Session:
    """One session, in any of the three modes; its results are attributes
    named as ``SessionResult``'s, holding lists and plain values."""

    def __init__(self, spec, workload, config, mode="timeloops"):
        self.spec, self.config = spec, config
        self.allow, self.deny = frozenset(), frozenset(config.deny)
        self.policy_log, self.alerts, self.transition_trace = [], [], []
        self.latency_records, self.consultations = [], 0
        self.now = self.ready_at = 0.0
        self.state, self.request_id = PRODUCTION_RUNNING, -1
        for key in config.pretrain_requests:
            denied = self.learn(oracle_run(spec, key)[0].observed, "pretrain")
            if denied:
                raise DeniedSyscall(denied)
        self.installed = self.allow
        if mode == "timeloops":
            for request in workload:
                self.send(request)
            self.transition(SHUTDOWN)
        else:
            for logical_id, key in workload:
                self.baseline(logical_id, key, mode)
        self.final_policy = SyscallPolicy(len(self.policy_log), self.allow, self.deny)

    def learn(self, observed, source):
        """Grow the policy by the new names in ``observed``, unless some are
        deny-listed; returns those."""
        new = observed - self.allow
        denied = new & self.deny
        if new and not denied:
            self.allow = self.allow | new
            self.policy_log.append(PolicyLogEntry(len(self.policy_log) + 1,
                                                  tuple(sorted(new)), source, self.now))
        return denied

    def alert(self, report):
        self.alerts.append(Alert(self.request_id, report, self.now))

    def transition(self, event):
        """Apply ``step`` and its actions; True if an alert rejected the attempt."""
        before = self.state
        self.state, actions = step(before, event, self.config)
        rejected = False
        for action in actions:
            if action is START_PRODUCTION or action is START_ORACLE:
                self.ready_at = self.now + self.spec.cost_model.restart_ms
            if action is START_PRODUCTION:
                self.installed = self.allow
            elif isinstance(action, UpdatePolicy):
                denied = self.learn(action.new_syscalls, "oracle")
                if denied:
                    self.alert("denied syscalls: " + ", ".join(sorted(denied)))
                    rejected = True
            elif isinstance(action, RaiseAlert):
                self.alert(action.report)
                rejected = True
        self.transition_trace.append(Transition(
            self.now, before.label, event.label, self.state.label,
            tuple(a.label for a in actions), len(self.policy_log)))
        return rejected

    def attempt(self, key):
        """One attempt: "served", "rejected_malicious", or None to retry."""
        self.now = max(self.now, self.ready_at)
        if (self.state is ORACLE_RUNNING
                and self.now - self.ready_at >= self.config.watchdog_ms):
            self.transition(WATCHDOG_FIRED)
            self.now = self.ready_at
        if self.state is PRODUCTION_RUNNING:
            event, elapsed = production_run(self.spec, self.installed, key)
            if isinstance(event, PolicyViolation) and event.syscall in self.deny:
                event = DeniedSyscallHit(event.syscall)
        else:
            budget = self.config.watchdog_ms - (self.now - self.ready_at)
            event, elapsed = oracle_run(self.spec, key, budget)
            self.consultations += 1
        self.now += elapsed
        if self.transition(event):
            return "rejected_malicious"
        return "served" if event is COMPLETED or isinstance(event, Benign) else None

    def send(self, request):
        """The client: the same request again until it ends."""
        self.request_id, first = request.logical_id, self.now
        for attempts in range(1, MAX_ATTEMPTS + 1):
            outcome = self.attempt(request.key)
            if outcome is not None:
                self.latency_records.append(LatencyRecord(
                    request.logical_id, request.key, attempts, first, self.now, outcome))
                return
        raise AttemptsExhausted(
            f"request {request.logical_id} ({request.key!r}) failed {MAX_ATTEMPTS} attempts")

    def baseline(self, logical_id, key, mode):
        """A request in a deployment with no controller: unfiltered, or in
        the oracle with no watchdog."""
        first, outcome = self.now, "served"
        if mode == "hardened":
            verdict, elapsed = oracle_run(self.spec, key)
            self.now += elapsed
            if isinstance(verdict, Malicious):
                self.request_id = logical_id
                self.alert(verdict.report)
                outcome = "rejected_malicious"
        else:
            self.now += self.spec.cost_model.production_elapsed(len(issued(self.spec, key)))
        self.latency_records.append(LatencyRecord(logical_id, key, 1, first, self.now, outcome))


# --- artifacts ------------------------------------------------------------------

def session_json(result):
    """The session document of ``result``, a session or a ``SessionResult``."""
    return json.dumps({
        "final_policy": {
            "allow": sorted(result.final_policy.allow),
            "deny": sorted(result.final_policy.deny),
            "epoch": result.final_policy.epoch,
        },
        "alerts": [{"request": a.request, "report": a.report, "at_ms": a.at_ms}
                   for a in result.alerts],
        "transitions": [{"at_ms": t.at_ms, "from": t.from_state, "event": t.event,
                         "to": t.to_state, "actions": list(t.actions), "epoch": t.epoch}
                        for t in result.transition_trace],
        "consultations": result.consultations,
    }, indent=2)


def _csv(header, rows):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def latency_csv(records):
    return _csv(LATENCY_CSV_HEADER.split(","), (
        [r.logical_id, r.key, r.attempts, r.first_attempt_ms, r.completion_ms, r.latency_ms,
         r.outcome] for r in records))


def cumulative_csv(records):
    total, rows = 0.0, []
    for r in records:
        total += r.latency_ms
        rows.append([r.logical_id, total])
    return _csv(["logical_id", "cumulative_latency_ms"], rows)


def policy_log(result):
    """The policy log of ``result``: one line of compact JSON per entry."""
    return "".join(json.dumps({"epoch": e.epoch, "added": list(e.added), "source": e.source,
                               "timestamp_ms": e.timestamp_ms}, separators=(",", ":")) + "\n"
                   for e in result.policy_log)


def profile_json(result):
    """The seccomp profile of ``result``'s final policy, with the default
    action that kills the process."""
    allow = sorted(result.final_policy.allow)
    return json.dumps({
        "defaultAction": "SCMP_ACT_KILL_PROCESS",
        "architectures": ["SCMP_ARCH_X86_64"],
        "syscalls": [{"names": allow, "action": "SCMP_ACT_ALLOW"}] if allow else [],
    }, separators=(",", ":")).encode()
