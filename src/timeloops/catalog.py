"""Syscall naming, CVE annotations, and the bundled policy-comparison table.

Two input rules live here and nowhere else. ``syscall_names`` decides what
holds syscall names: a list, tuple, set or frozenset of valid names, never a
bare ``str``. Every value that holds names is checked by it when it is
built. ``read_input`` turns every failure to read, decode or parse an input
file into a :class:`ParseError` that names the file.

The table compares, per syscall, which of seven policies allow it: for each
of the two reference programs (nginx, composepost) a runtime-profile
baseline, the learned (timeloops) policy and a static (sysfilter) policy,
plus the default podman container filter. Rows carry the most recent Linux
kernel CVE associated with the syscall, when one is known.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .errors import ParseError, UnknownColumn

# Both are used with fullmatch: "$" would also match before a final newline,
# and "\d" any Unicode digit.
SYSCALL_NAME_RE = re.compile(r"[a-z0-9_]+")
CVE_RE = re.compile(r"CVE-[0-9]{4}-[0-9]{1,7}")

#: The seven policy columns, in canonical order.
COLUMNS = (
    "nginx-baseline",
    "nginx-timeloops",
    "nginx-sysfilter",
    "composepost-baseline",
    "composepost-timeloops",
    "composepost-sysfilter",
    "podman-default",
)

_CSV_FIELDS = ("syscall", "cve") + tuple(c.replace("-", "_") for c in COLUMNS)

#: Name of the comparison table shipped with the package.
DEFAULT_FIXTURE = "policy_comparison.csv"


#: each name that passed ``validate_syscall_name``, mapped to its interned string
_VALID_NAMES: dict[str, str] = {}


def validate_syscall_name(name: str) -> str:
    """``name`` if it is a valid syscall name, as the one interned string of
    its text, so that every occurrence of a name shares one object.

    Each distinct name is checked once per process: a ``str`` that passed
    before returns its interned string at once. A ``str`` subclass, which
    may compare or hash as it likes, is checked every time.
    """
    if type(name) is str:
        valid = _VALID_NAMES.get(name)
        if valid is not None:
            return valid
    if not isinstance(name, str) or not SYSCALL_NAME_RE.fullmatch(name):
        raise ParseError(f"invalid syscall name: {name!r}")
    # str() makes an exact str of a subclass, which sys.intern refuses.
    valid = sys.intern(str(name))
    _VALID_NAMES[valid] = valid
    return valid


def syscall_names(value, what: str) -> tuple[str, ...]:
    """``value`` as a tuple of interned syscall names, if it is a list, tuple,
    set or frozenset of valid ones.

    This is the one rule for every value that holds syscall names. Anything
    else raises TypeError naming ``what``: a bare ``str``, which would be
    read letter by letter, a JSON object, which would be read as its keys,
    or any other iterable. An invalid name raises :class:`ParseError`,
    naming ``what``.
    """
    if not isinstance(value, (list, tuple, set, frozenset)):
        raise TypeError(f"{what} must be a collection of syscall names, "
                        f"not the {type(value).__name__} {value!r}")
    try:
        return tuple([validate_syscall_name(name) for name in value])
    except ParseError as exc:
        raise ParseError(f"{what}: {exc}") from None


def read_input(path: str | Path, what: str = "", parse=json.loads):
    """``parse`` of the text of the UTF-8 input file ``path``, JSON by default.

    A file that cannot be read or is not UTF-8, and a text that ``parse``
    rejects with ValueError, ``csv.Error`` or RecursionError (JSON nested
    too deep), raise :class:`ParseError`, its message prefixed with ``what``
    and the path. An error ``parse`` raises as a :class:`ParseError` is
    its own message, and passes as it is.
    """
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError, csv.Error) as exc:
        raise ParseError(f"{what}{path}: {exc}") from exc


def json_int(value) -> int:
    """``value`` if it is a JSON integer; a float, string or boolean raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {type(value).__name__} {value!r}")
    return value


def json_float(value) -> float:
    """``value`` as a float if it is a JSON number; a string, boolean or null raises TypeError."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {type(value).__name__} {value!r}")
    return float(value)


class SyscallAnnotation(NamedTuple):
    """A syscall and the CVE of its table row, both checked when the row was built."""

    syscall: str
    cve: str


@dataclass(frozen=True)
class TableRow:
    """One syscall row: CVE annotation plus a flag per policy column."""

    syscall: str
    cve: str | None
    flags: tuple[bool, ...]

    def __post_init__(self):
        validate_syscall_name(self.syscall)
        if self.cve is not None and not CVE_RE.fullmatch(self.cve):
            raise ParseError(f"invalid CVE identifier: {self.cve!r}")
        if len(self.flags) != len(COLUMNS):
            raise ParseError(
                f"row {self.syscall!r} has {len(self.flags)} flags, expected {len(COLUMNS)}"
            )


@dataclass(frozen=True)
class PolicyComparisonTable:
    """Immutable comparison table keyed by syscall name."""

    rows: tuple[TableRow, ...] = field(default_factory=tuple)
    # Each row's CVE annotation by syscall, for ``cve_for``.
    _cves: dict[str, str | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cves = {r.syscall: r.cve for r in self.rows}
        if len(cves) != len(self.rows):
            names = [r.syscall for r in self.rows]
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ParseError("duplicate syscall rows: " + ", ".join(dupes))
        object.__setattr__(self, "_cves", cves)

    def syscalls(self) -> frozenset[str]:
        return frozenset(r.syscall for r in self.rows)

    def column_policy(self, column: str) -> frozenset[str]:
        """All syscalls flagged as allowed in ``column``."""
        try:
            index = COLUMNS.index(column)
        except ValueError:
            raise UnknownColumn(column) from None
        return frozenset(r.syscall for r in self.rows if r.flags[index])

    def cve_for(self, syscall: str) -> str | None:
        """CVE annotation for ``syscall``, or None if absent or unknown."""
        return self._cves.get(syscall)


def load_fixture(path: str | Path) -> PolicyComparisonTable:
    """Load a comparison-table CSV (see the bundled fixture for the format)."""
    return read_input(path, "fixture ", parse_fixture)


def parse_fixture(text: str) -> PolicyComparisonTable:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty fixture file") from None
    if tuple(header) != _CSV_FIELDS:
        raise ParseError(
            "unexpected fixture header: " + ",".join(header)
            + " (unknown or missing columns)"
        )
    rows = []
    for lineno, cells in enumerate(reader, start=2):
        if not cells:
            continue
        if len(cells) != len(_CSV_FIELDS):
            raise ParseError(f"line {lineno}: expected {len(_CSV_FIELDS)} cells, got {len(cells)}")
        flags = []
        for col, cell in zip(COLUMNS, cells[2:]):
            if cell not in ("0", "1"):
                raise ParseError(f"line {lineno}: column {col} must be 0 or 1, got {cell!r}")
            flags.append(cell == "1")
        # An empty cell, or free text such as "numerous drivers", is no CVE;
        # a cell that starts like one must be one.
        cve = cells[1].strip()
        try:
            rows.append(TableRow(syscall=cells[0].strip(),
                                 cve=cve if cve.startswith("CVE-") else None, flags=tuple(flags)))
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc
    return PolicyComparisonTable(rows=tuple(rows))


def load_default_fixture() -> PolicyComparisonTable:
    """Load the comparison table shipped inside the package."""
    text = resources.files("timeloops.data").joinpath(DEFAULT_FIXTURE).read_text(encoding="utf-8")
    return parse_fixture(text)


def podman_default_deny(table: PolicyComparisonTable) -> frozenset[str]:
    """Deny-list preset: table syscalls absent from the default podman filter."""
    return table.syscalls() - table.column_policy("podman-default")
