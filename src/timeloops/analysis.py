"""Baseline policy generators, cross-policy comparison, claim verification.

Two baselines bracket the learned policy: a static over-approximation (the
whole reachable-code universe, input-independent) and a naive dynamic
profile (exactly the syscalls executed by a training set, which breaks on
the first unseen legitimate syscall). ``verify_paper_claims`` checks the
published reference figures against the bundled comparison table; when
table and published prose disagree, the table wins and the mismatch is
reported as a failing claim rather than silently patched over.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .catalog import COLUMNS, PolicyComparisonTable, SyscallAnnotation
from .errors import ExploitInTrainingSet
from .policy import PolicyDiff, SyscallPolicy, diff
from .simruntime import ServiceSpec


def static_baseline(spec: ServiceSpec, deny: Iterable[str] = ()) -> SyscallPolicy:
    """Input-independent over-approximation: everything reachable in code.

    Single-shot at epoch 0; never extended.
    """
    deny = frozenset(deny)
    return SyscallPolicy(epoch=0, allow=spec.static_universe - deny, deny=deny)


def dynamic_baseline(
    spec: ServiceSpec, training_requests: Iterable[str], deny: Iterable[str] = ()
) -> SyscallPolicy:
    """Log-everything profiling over a training set; under-approximate.

    Only syscalls actually executed by the training requests make it in;
    instrumentation extras never appear because nothing is instrumented.
    """
    deny = frozenset(deny)
    observed: set[str] = set()
    for key in training_requests:
        behavior = spec.handlers.get(key)
        if behavior is None:
            continue
        if behavior.exploit is not None:
            raise ExploitInTrainingSet(f"training request {key!r} is exploit-annotated")
        observed.update(behavior.trace)
    return SyscallPolicy(epoch=0, allow=frozenset(observed) - deny, deny=deny)


@dataclass(frozen=True)
class ComparisonEntry:
    name_a: str
    name_b: str
    size_a: int
    size_b: int
    pct_larger: float | None
    diff: PolicyDiff
    cve_annotated: tuple[SyscallAnnotation, ...]


@dataclass(frozen=True)
class ComparisonReport:
    entries: tuple[ComparisonEntry, ...]

    def to_json_dict(self) -> dict:
        return {
            "entries": [
                {
                    "name_a": e.name_a,
                    "name_b": e.name_b,
                    "size_a": e.size_a,
                    "size_b": e.size_b,
                    "pct_larger": e.pct_larger,
                    "only_a": sorted(e.diff.only_a),
                    "only_b": sorted(e.diff.only_b),
                    "both": sorted(e.diff.both),
                    "cve_annotated": [
                        {"syscall": a.syscall, "cve": a.cve} for a in e.cve_annotated
                    ],
                }
                for e in self.entries
            ]
        }

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            pct = f"{e.pct_larger * 100:+.1f}%" if e.pct_larger is not None else "n/a"
            lines.append(f"{e.name_a} vs {e.name_b}")
            lines.append(f"  sizes: {e.size_a} vs {e.size_b} ({pct} relative to {e.name_b})")
            lines.append(f"  {len(e.diff.only_a)} only in {e.name_a}: " + _name_list(e.diff.only_a))
            lines.append(f"  {len(e.diff.only_b)} only in {e.name_b}: " + _name_list(e.diff.only_b))
            lines.append(f"  {len(e.diff.both)} in both")
            if e.cve_annotated:
                lines.append("  CVEs on differing syscalls:")
                for annotation in e.cve_annotated:
                    lines.append(f"    {annotation.syscall:<24} {annotation.cve}")
        return "\n".join(lines) + "\n"


def _name_list(names: frozenset[str]) -> str:
    return ", ".join(sorted(names)) if names else "(none)"


def compare(
    policies: Sequence[tuple[str, SyscallPolicy]],
    table: PolicyComparisonTable | None = None,
) -> ComparisonReport:
    """Pairwise comparison of named policies, in input order.

    The percentage is computed relative to the second policy of each pair.
    CVE annotations for differing syscalls come from the comparison table
    when one is supplied.
    """
    if len(policies) < 2:
        raise ValueError("compare needs at least two policies")
    entries = []
    for (name_a, a), (name_b, b) in combinations(policies, 2):
        d = diff(a, b)
        pct = (len(a.allow) - len(b.allow)) / len(b.allow) if b.allow else None
        annotated = []
        if table is not None:
            for syscall in sorted(d.only_a | d.only_b):
                cve = table.cve_for(syscall)
                if cve is not None:
                    annotated.append(SyscallAnnotation(syscall, cve))
        entries.append(
            ComparisonEntry(
                name_a=name_a,
                name_b=name_b,
                size_a=len(a.allow),
                size_b=len(b.allow),
                pct_larger=pct,
                diff=d,
                cve_annotated=tuple(annotated),
            )
        )
    return ComparisonReport(entries=tuple(entries))


@dataclass(frozen=True)
class ClaimRow:
    claim_id: str
    expected: object
    actual: object

    @property
    def passed(self) -> bool:
        return self.actual == self.expected


@dataclass(frozen=True)
class ClaimReport:
    claims: tuple[ClaimRow, ...]
    notes: tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.claims)

    def to_json(self) -> str:
        return json.dumps({
            "claims": [
                {
                    "claim_id": c.claim_id,
                    "expected": c.expected,
                    "actual": c.actual,
                    "passed": c.passed,
                }
                for c in self.claims
            ],
            "notes": list(self.notes),
            "all_pass": self.all_pass,
        }, indent=2)

    def to_text(self) -> str:
        width = max((len(c.claim_id) for c in self.claims), default=0)
        lines = []
        for c in self.claims:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status}  {c.claim_id:<{width}}  expected={c.expected!r}  actual={c.actual!r}")
        for note in self.notes:
            lines.append(f"note: {note}")
        lines.append("all claims pass" if self.all_pass else "some claims FAIL")
        return "\n".join(lines) + "\n"


#: Reference figures the comparison table is checked against.
EXPECTED_TIMELOOPS_ONLY_OVER_BASELINE = {
    "nginx": ("clock_gettime", "kill", "madvise", "open", "readlink", "sigaltstack"),
    "composepost": (
        "getpid", "gettid", "readlink", "sched_getaffinity",
        "sched_yield", "setrlimit", "sigaltstack",
    ),
}
EXPECTED_SYSFILTER_MINUS_TIMELOOPS_SIZE = {"nginx": 40, "composepost": 37}
EXPECTED_TIMELOOPS_ONLY_OVER_SYSFILTER_COUNT = {"nginx": 7, "composepost": 13}
#: Published average policy-size inflation of the static tool, over four
#: programs; only two of them are tabulated, so this is a note, not a claim.
PUBLISHED_AVG_PCT_LARGER = 32.7


def verify_paper_claims(table: PolicyComparisonTable) -> ClaimReport:
    """Evaluate the reference figures against the comparison table.

    Failures are data, not exceptions: a mismatch between the table and a
    published figure shows up as a failing row with both values.
    """
    column = {name: table.column_policy(name) for name in COLUMNS}
    claims: list[ClaimRow] = []
    pct_by_program: dict[str, float] = {}
    for program in ("nginx", "composepost"):
        baseline = column[f"{program}-baseline"]
        timeloops = column[f"{program}-timeloops"]
        sysfilter = column[f"{program}-sysfilter"]
        claims += [
            ClaimRow(f"{program}_timeloops_superset_of_baseline", True, baseline <= timeloops),
            ClaimRow(f"{program}_timeloops_minus_baseline_names",
                     list(EXPECTED_TIMELOOPS_ONLY_OVER_BASELINE[program]),
                     sorted(timeloops - baseline)),
            ClaimRow(f"{program}_sysfilter_minus_timeloops_size",
                     EXPECTED_SYSFILTER_MINUS_TIMELOOPS_SIZE[program],
                     len(sysfilter) - len(timeloops)),
            ClaimRow(f"{program}_timeloops_only_over_sysfilter_count",
                     EXPECTED_TIMELOOPS_ONLY_OVER_SYSFILTER_COUNT[program],
                     len(timeloops - sysfilter)),
        ]
        if len(timeloops) > 0:
            pct_by_program[program] = (len(sysfilter) - len(timeloops)) / len(timeloops)

    claims += [
        ClaimRow("clock_settime_in_composepost_sysfilter", True,
                 "clock_settime" in column["composepost-sysfilter"]),
        ClaimRow("clock_settime_not_in_podman_default", True,
                 "clock_settime" not in column["podman-default"]),
    ]

    notes = []
    if pct_by_program:
        avg = sum(pct_by_program.values()) / len(pct_by_program) * 100
        per = ", ".join(f"{p}={v * 100:.1f}%" for p, v in sorted(pct_by_program.items()))
        notes.append(
            f"static policies average {avg:.1f}% larger over the two tabulated programs "
            f"({per}); the published {PUBLISHED_AVG_PCT_LARGER}% figure averages four "
            "programs, two of which have no per-syscall table here, so it is only "
            "partially verifiable."
        )
    return ClaimReport(claims=tuple(claims), notes=tuple(notes))
