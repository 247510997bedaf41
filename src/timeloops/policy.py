"""Syscall allow-list policies: monotone growth, deny-list, export, logging.

A :class:`SyscallPolicy` value is immutable, like an installed seccomp
filter, which cannot change while its container runs. :func:`extend`
returns a new value with the epoch bumped by one. The session driver
instead learns into one live allow-list and installs an immutable snapshot
of it each time production starts. Both grow by the same rules, in
:func:`growth_entry`: validate the new names, refuse deny-listed ones and
log what was added. Each value that holds names, a deny-list or a log
entry's ``added``, checks them by :func:`catalog.syscall_names` when it is
built.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .catalog import json_float, json_int, read_input, syscall_names
from .errors import DeniedSyscall, ParseError, ReplayError

LOG_SOURCES = ("oracle", "pretrain")


@dataclass(frozen=True)
class SyscallPolicy:
    epoch: int = 0
    allow: frozenset[str] = field(default_factory=frozenset)
    deny: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.epoch < 0:
            raise ValueError("epoch must be non-negative")
        overlap = self.allow & self.deny
        if overlap:
            raise ValueError("allow and deny overlap: " + ", ".join(sorted(overlap)))


@dataclass(frozen=True)
class PolicyLogEntry:
    """One learned extension: which syscalls entered the policy, and when.
    ``added`` is a non-empty collection of syscall names, kept as a tuple,
    that is strictly increasing: sorted, each name once."""

    epoch: int
    added: tuple[str, ...]
    source: str
    timestamp_ms: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "added", syscall_names(self.added, "added"))
        if not self.added:
            raise ValueError("log entry must add at least one syscall")
        if any(b <= a for a, b in zip(self.added, self.added[1:])):
            raise ValueError("added syscalls must be sorted and distinct")
        if self.source not in LOG_SOURCES:
            raise ValueError(f"unknown log source: {self.source!r}")


@dataclass(frozen=True)
class PolicyDiff:
    only_a: frozenset[str]
    only_b: frozenset[str]
    both: frozenset[str]


def new_policy(deny: Iterable[str] = ()) -> SyscallPolicy:
    """Fresh policy: empty allow-list, epoch 0, permanent deny-list as given,
    a collection of syscall names by :func:`catalog.syscall_names`."""
    return SyscallPolicy(deny=frozenset(syscall_names(deny, "deny")))


def growth_entry(
    allow: frozenset[str] | set[str],
    deny: frozenset[str],
    epoch: int,
    new: Iterable[str],
    source: str = "oracle",
    timestamp_ms: float = 0.0,
) -> PolicyLogEntry | None:
    """The log entry that grows ``allow`` at ``epoch`` by the new names in ``new``.

    Returns None if every name is already allowed. Otherwise ``new`` is
    checked as a collection of syscall names by :func:`catalog.syscall_names`
    (raising TypeError or :class:`ParseError`), the names not yet allowed
    are checked against ``deny`` (raising :class:`DeniedSyscall`), and the
    entry adds exactly those names at ``epoch + 1``. The caller applies the
    entry.

    Of a frozenset, only the names not yet allowed are checked, and one
    that is already allowed returns None at once. It holds only hashable
    items, so the set operations cannot raise, and every name this package
    puts in an allow-list was checked on the way in. The driver learns each
    oracle verdict this way.
    """
    if type(new) is frozenset:
        if allow.issuperset(new):
            return None
        new = new.difference(allow)
    added = frozenset(syscall_names(new, "new")).difference(allow)
    if not added:
        return None
    denied = added & deny
    if denied:
        raise DeniedSyscall(denied)
    return PolicyLogEntry(
        epoch=epoch + 1,
        added=tuple(sorted(added)),
        source=source,
        timestamp_ms=timestamp_ms,
    )


def extend(
    policy: SyscallPolicy,
    new: Iterable[str],
    source: str = "oracle",
    timestamp_ms: float = 0.0,
) -> tuple[SyscallPolicy, PolicyLogEntry | None]:
    """Grow the allow-list by the genuinely new syscalls in ``new``.

    Idempotent: if every syscall is already allowed the policy is returned
    unchanged with no log entry. Raises :class:`DeniedSyscall` (leaving the
    policy untouched) if any requested syscall is on the deny-list. The
    rules are those of :func:`growth_entry`.
    """
    entry = growth_entry(policy.allow, policy.deny, policy.epoch, new, source, timestamp_ms)
    if entry is None:
        return policy, None
    grown = SyscallPolicy(
        epoch=entry.epoch,
        allow=policy.allow.union(entry.added),
        deny=policy.deny,
    )
    return grown, entry


def diff(a: SyscallPolicy, b: SyscallPolicy) -> PolicyDiff:
    """Partition the two allow-lists into only-a, only-b and shared."""
    return PolicyDiff(
        only_a=a.allow - b.allow,
        only_b=b.allow - a.allow,
        both=a.allow & b.allow,
    )


def export_seccomp(policy: SyscallPolicy) -> bytes:
    """Render the policy as an OCI-style seccomp profile.

    The output is bit-exact for a given policy: names sorted, fixed key
    order, compact separators, single line, no trailing newline. The
    default action kills the process: that death hands the request to the
    oracle.
    """
    profile = {
        "defaultAction": "SCMP_ACT_KILL_PROCESS",
        "architectures": ["SCMP_ARCH_X86_64"],
        "syscalls": (
            [{"names": sorted(policy.allow), "action": "SCMP_ACT_ALLOW"}]
            if policy.allow
            else []
        ),
    }
    return json.dumps(profile, separators=(",", ":")).encode("utf-8")


def render_log(entries: Iterable[PolicyLogEntry]) -> str:
    """A policy log as JSON-lines, one compact object per entry."""
    return "".join(
        json.dumps({"epoch": e.epoch, "added": list(e.added), "source": e.source,
                    "timestamp_ms": e.timestamp_ms}, separators=(",", ":")) + "\n"
        for e in entries
    )


def save_log(entries: Iterable[PolicyLogEntry], path: str | Path) -> None:
    """Write a policy log; kept outside any runtime state."""
    Path(path).write_text(render_log(entries), encoding="utf-8")


def load_log(path: str | Path) -> list[PolicyLogEntry]:
    return read_input(path, "policy log ", _parse_log)


def _parse_log(text: str) -> list[PolicyLogEntry]:
    entries: list[PolicyLogEntry] = []
    # Only "\n" ends a line: ``str.splitlines`` would also split at form
    # feeds and other separators that a JSON line may not hold.
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            entry = PolicyLogEntry(
                epoch=json_int(obj["epoch"]),
                added=obj["added"],
                source=obj["source"],
                timestamp_ms=json_float(obj["timestamp_ms"]),
            )
            if not math.isfinite(entry.timestamp_ms):
                raise ValueError(f"timestamp_ms must be finite, got {entry.timestamp_ms!r}")
        except (ParseError, ValueError, KeyError, TypeError, OverflowError,
                RecursionError) as exc:
            raise ParseError(f"policy log line {lineno}: {exc}") from exc
        entries.append(entry)
    epochs = [e.epoch for e in entries]
    if any(b <= a for a, b in zip(epochs, epochs[1:])):
        raise ReplayError(f"log epochs not strictly increasing: {epochs}")
    return entries


def replay_log(entries: Iterable[PolicyLogEntry], deny: Iterable[str] = ()) -> SyscallPolicy:
    """Reconstruct the final policy by replaying a log, by :func:`growth_entry`'s rules."""
    deny = new_policy(deny).deny
    allow: set[str] = set()
    epoch = 0
    for entry in entries:
        readded = allow.intersection(entry.added)
        if readded:
            raise ReplayError(
                f"epoch {entry.epoch} re-adds allowed syscalls: " + ", ".join(sorted(readded))
            )
        try:
            produced = growth_entry(allow, deny, epoch, entry.added, entry.source,
                                    entry.timestamp_ms)
        except DeniedSyscall as exc:
            raise ReplayError(f"epoch {entry.epoch} adds denied syscalls: {exc}") from exc
        # ``added`` is non-empty and re-adds nothing, so an entry is produced.
        if produced.epoch != entry.epoch:
            raise ReplayError(
                f"epoch mismatch during replay: log says {entry.epoch}, replay produced {produced.epoch}"
            )
        allow.update(produced.added)
        epoch = produced.epoch
    return SyscallPolicy(epoch=epoch, allow=frozenset(allow), deny=deny)
