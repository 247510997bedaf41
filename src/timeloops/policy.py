"""Syscall allow-list policies: monotone growth, deny-list, export, logging.

A :class:`SyscallPolicy` value is immutable, like an installed seccomp
filter, which cannot change while its container runs. A policy grows in
one place, :func:`extend`: it validates the new names, refuses
deny-listed ones, and adds the rest to a live allow-list and a log
entry to a live log. The session driver learns that way, and installs an
immutable snapshot of its allow-list each time production starts;
:func:`replay_log` rebuilds a policy that way. Each value that holds
names, a deny-list or a log entry's ``added``, checks them by
:func:`catalog.syscall_names` when it is built.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable, NamedTuple

from .catalog import Frozen, json_float, json_int, read_input, record, syscall_names
from .errors import DeniedSyscall, ParseError, ReplayError

LOG_SOURCES = ("oracle", "pretrain")


class SyscallPolicy(Frozen):
    """An installed allow-list and deny-list, at the epoch of its log.

    Besides the fields, a policy carries ``passed``: a cache, from request
    key to the trace object that :func:`simruntime.run_production` last
    found within ``allow`` for that key. ``allow`` never changes, so an
    entry never goes stale, and an entry answers only for the identical
    trace object, so a policy shared by two services never answers one
    with the other's trace. It is no field: equality, hashing, the repr,
    ``_replace``, copies and pickles ignore it, and every value built
    starts with it empty.
    """

    __slots__ = ("epoch", "allow", "deny", "passed")
    _fields = __slots__[:3]

    def __init__(self, epoch: int = 0, allow: frozenset[str] = frozenset(),
                 deny: frozenset[str] = frozenset()):
        if epoch < 0:
            raise ValueError("epoch must be non-negative")
        overlap = allow & deny
        if overlap:
            raise ValueError("allow and deny overlap: " + ", ".join(sorted(overlap)))
        self._set(epoch, allow, deny)
        object.__setattr__(self, "passed", {})


class PolicyLogEntry(Frozen):
    """One learned extension: which syscalls entered the policy, and when.
    ``added`` is a non-empty collection of syscall names, kept as a tuple,
    that is strictly increasing: sorted, each name once."""

    __slots__ = _fields = ("epoch", "added", "source", "timestamp_ms")

    def __init__(self, epoch: int, added: tuple[str, ...], source: str, timestamp_ms: float = 0.0):
        added = syscall_names(added, "added")
        if not added:
            raise ValueError("log entry must add at least one syscall")
        if any(b <= a for a, b in zip(added, added[1:])):
            raise ValueError("added syscalls must be sorted and distinct")
        if source not in LOG_SOURCES:
            raise ValueError(f"unknown log source: {source!r}")
        self._set(epoch, added, source, timestamp_ms)


@record
class PolicyDiff(NamedTuple):
    only_a: frozenset[str]
    only_b: frozenset[str]
    both: frozenset[str]


def new_policy(deny: Iterable[str] = ()) -> SyscallPolicy:
    """Fresh policy: empty allow-list, epoch 0, permanent deny-list as given,
    a collection of syscall names by :func:`catalog.syscall_names`."""
    return SyscallPolicy(deny=frozenset(syscall_names(deny, "deny")))


def extend(
    allow: set[str],
    deny: frozenset[str],
    log: list[PolicyLogEntry],
    new: Iterable[str],
    source: str = "oracle",
    timestamp_ms: float = 0.0,
) -> tuple[set[str], PolicyLogEntry | None]:
    """Grow the live allow-list ``allow`` by the names in ``new`` not yet
    allowed, logging them in ``log`` as one entry at epoch ``len(log) + 1``.

    Returns ``(allow, entry)``, or ``(allow, None)`` if every name is
    already allowed. Otherwise ``new`` is checked as a collection of syscall
    names by :func:`catalog.syscall_names` (raising TypeError or
    :class:`ParseError`), and the names not yet allowed against ``deny``
    (raising :class:`DeniedSyscall`). When it raises, neither ``allow`` nor
    ``log`` changes.

    Of a frozenset, only the names not yet allowed are checked, and one
    that is already allowed returns at once. It holds only hashable items,
    so the set operations cannot raise, and every name this package puts in
    an allow-list was checked on the way in. The driver learns each oracle
    verdict this way.
    """
    if type(new) is frozenset:
        if allow.issuperset(new):
            return allow, None
        new = new.difference(allow)
    added = frozenset(syscall_names(new, "new")).difference(allow)
    if not added:
        return allow, None
    denied = added & deny
    if denied:
        raise DeniedSyscall(denied)
    entry = PolicyLogEntry(len(log) + 1, tuple(sorted(added)), source, timestamp_ms)
    log.append(entry)
    allow.update(added)
    return allow, entry


def diff(a: SyscallPolicy, b: SyscallPolicy) -> PolicyDiff:
    """Partition the two allow-lists into only-a, only-b and shared."""
    return PolicyDiff(
        only_a=a.allow - b.allow,
        only_b=b.allow - a.allow,
        both=a.allow & b.allow,
    )


def policy_object(policy: SyscallPolicy) -> dict:
    """The policy as the JSON object a policy file holds, names sorted;
    ``session.json`` holds it as its ``final_policy``."""
    return {"allow": sorted(policy.allow), "deny": sorted(policy.deny), "epoch": policy.epoch}


def load_policy(path: str | Path) -> SyscallPolicy:
    """The policy of a policy file: a policy object, or a ``session.json``
    whose ``final_policy`` is one. ``deny`` and ``epoch`` may be left out.
    A file that is not one raises :class:`ParseError` naming the path."""
    obj = read_input(path)
    if isinstance(obj, dict) and "final_policy" in obj:
        obj = obj["final_policy"]
    if not isinstance(obj, dict) or "allow" not in obj:
        raise ParseError(f"{path}: expected an object with an 'allow' list")
    try:
        allow = frozenset(syscall_names(obj["allow"], "allow"))
        deny = frozenset(syscall_names(obj.get("deny", []), "deny"))
        return SyscallPolicy(epoch=json_int(obj.get("epoch", 0)), allow=allow, deny=deny)
    except (ParseError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


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


# ``json.dumps`` with separators builds a new encoder on each call.
_COMPACT = json.JSONEncoder(separators=(",", ":"))


def render_log(entries: Iterable[PolicyLogEntry]) -> str:
    """A policy log as JSON-lines, one compact object per entry."""
    return "".join(
        _COMPACT.encode({"epoch": e.epoch, "added": list(e.added), "source": e.source,
                         "timestamp_ms": e.timestamp_ms}) + "\n"
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
    """Reconstruct the final policy by replaying a log through :func:`extend`."""
    deny = new_policy(deny).deny
    allow: set[str] = set()
    log: list[PolicyLogEntry] = []
    for entry in entries:
        readded = allow.intersection(entry.added)
        if readded:
            raise ReplayError(
                f"epoch {entry.epoch} re-adds allowed syscalls: " + ", ".join(sorted(readded))
            )
        try:
            _, produced = extend(allow, deny, log, entry.added, entry.source, entry.timestamp_ms)
        except DeniedSyscall as exc:
            raise ReplayError(f"epoch {entry.epoch} adds denied syscalls: {exc}") from exc
        # ``added`` is non-empty and re-adds nothing, so an entry is produced.
        if produced.epoch != entry.epoch:
            raise ReplayError(
                f"epoch mismatch during replay: log says {entry.epoch}, replay produced {produced.epoch}"
            )
    return SyscallPolicy(epoch=len(log), allow=frozenset(allow), deny=deny)
