"""Syscall naming, CVE annotations, and the bundled policy-comparison table.

The table compares, per syscall, which of seven policies allow it: for each
of the two reference programs (nginx, composepost) a runtime-profile
baseline, the learned (timeloops) policy and a static (sysfilter) policy,
plus the default podman container filter. Rows carry the most recent Linux
kernel CVE associated with the syscall, when one is known.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .errors import ParseError, UnknownColumn

SYSCALL_NAME_RE = re.compile(r"^[a-z0-9_]+$")
CVE_RE = re.compile(r"^CVE-\d{4}-\d{1,7}$")

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


def validate_syscall_name(name: str) -> str:
    if not isinstance(name, str) or not SYSCALL_NAME_RE.match(name):
        raise ParseError(f"invalid syscall name: {name!r}")
    return name


def validate_name_list(value, what: str) -> tuple[str, ...]:
    """``value`` as a tuple of syscall names, if it is a list of valid ones."""
    # A bare string would otherwise be taken character by character.
    if not isinstance(value, list):
        raise ParseError(f"{what} must be an array of syscall names, got {type(value).__name__}")
    return tuple([validate_syscall_name(s) for s in value])


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
        if self.cve is not None and not CVE_RE.match(self.cve):
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
    try:
        return parse_fixture(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"fixture {path}: {exc}") from exc


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
