
import pytest
from conftest import make_spec, spec_workload_deny
from hypothesis import given, settings
from hypothesis import strategies as st

from timeloops.analysis import (
    EXPECTED_SYSFILTER_MINUS_TIMELOOPS_SIZE,
    compare,
    crossover,
    dynamic_baseline,
    static_baseline,
    verify_paper_claims,
)
from timeloops.catalog import PolicyComparisonTable, TableRow
from timeloops.controller import ControllerConfig, run_session
from timeloops.errors import ExploitInTrainingSet
from timeloops.policy import SyscallPolicy
from timeloops.simruntime import ExploitSpec, RequestBehavior
from timeloops.workload import Request


# --- the amortization crossover ----------------------------------------------------

@pytest.mark.parametrize("learned, hardened, expected", [
    ([9.0, 3.0, 9.0, 4.0], [4.0, 4.0, 8.0, 12.0], 1),  # the first crossing, not a later one
    ([9.0, 8.0, 9.0], [4.0, 8.0, 12.0], 2),  # a tie is not a crossing
    ([9.0, 10.0, 11.0], [4.0, 8.0, 11.0], None),  # never below
    ([], [], None),
])
def test_crossover_is_the_first_index_strictly_below_the_hardened_curve(
        learned, hardened, expected):
    assert crossover(learned, hardened) == expected


# --- baselines -------------------------------------------------------------------

def test_static_baseline_allows_unexercised_universe():
    spec = make_spec(
        {"r": RequestBehavior(trace=("read", "write"))},
        universe={"read", "write", "shmat"},
    )
    p = static_baseline(spec)
    assert p.allow == {"read", "write", "shmat"}
    assert p.epoch == 0


def test_static_baseline_covers_benign_traces(staticsite):
    p = static_baseline(staticsite)
    for behavior in staticsite.benign_handlers().values():
        assert set(behavior.trace) <= p.allow


def test_fixture_sysfilter_column_as_static_policy(table):
    p = SyscallPolicy(allow=table.column_policy("nginx-sysfilter"))
    assert {"mremap", "shmat", "shmget"} <= p.allow


def test_dynamic_baseline_misses_unexercised_handlers():
    spec = make_spec({
        "a": RequestBehavior(trace=("read",)),
        "b": RequestBehavior(trace=("write",)),
    })
    p = dynamic_baseline(spec, ["a"])
    assert p.allow == {"read"}
    # A training key with no handler executes nothing.
    assert dynamic_baseline(spec, ["a", "missing"]) == p


def test_dynamic_baseline_full_coverage_is_trace_union():
    spec = make_spec({
        "a": RequestBehavior(trace=("read", "openat")),
        "b": RequestBehavior(trace=("write",)),
    }, extra={"sigaltstack"})
    p = dynamic_baseline(spec, ["a", "b"])
    # profiling sees no instrumentation syscalls
    assert p.allow == {"read", "openat", "write"}


def test_dynamic_baseline_rejects_exploit_training_requests():
    exploit = ExploitSpec(kind="oracle_detectable", corruption_index=0, injected=("ptrace",))
    spec = make_spec({"evil": RequestBehavior(trace=("read",), exploit=exploit)})
    with pytest.raises(ExploitInTrainingSet):
        dynamic_baseline(spec, ["evil"])


def test_learned_minus_dynamic_is_oracle_extra(staticsite):
    keys = sorted(staticsite.benign_handlers())
    workload = [Request(i, k) for i, k in enumerate(keys)]
    session = run_session(staticsite, workload, ControllerConfig())
    dynamic = dynamic_baseline(staticsite, keys)
    assert session.final_policy.allow - dynamic.allow == staticsite.oracle_extra - dynamic.allow


# --- compare ---------------------------------------------------------------------

def test_compare_self_is_neutral(table):
    p = SyscallPolicy(allow=frozenset({"read", "write"}))
    report = compare([("x", p), ("y", p)], table)
    entry = report.entries[0]
    assert entry.pct_larger == 0.0
    assert entry.diff.only_a == frozenset()
    assert entry.diff.only_b == frozenset()


def test_compare_needs_two_policies(table):
    with pytest.raises(ValueError, match="at least two policies"):
        compare([("x", SyscallPolicy())], table)


def test_compare_fixture_nginx_gap(table):
    sysfilter = SyscallPolicy(allow=table.column_policy("nginx-sysfilter"))
    learned = SyscallPolicy(allow=table.column_policy("nginx-timeloops"))
    report = compare([("sysfilter", sysfilter), ("timeloops", learned)], table=table)
    entry = report.entries[0]
    assert entry.size_a - entry.size_b == len(sysfilter.allow) - len(learned.allow)
    assert {"open", "pipe"} <= entry.diff.only_b
    cves = {a.syscall: a.cve for a in entry.cve_annotated}
    assert cves["open"] == "CVE-2020-8428"
    assert cves["pipe"] == "CVE-2015-1805"


def test_compare_pct_uses_second_policy_as_denominator(table):
    a = SyscallPolicy(allow=frozenset({"a1", "a2", "a3", "a4"}))
    b = SyscallPolicy(allow=frozenset({"a1", "a2"}))
    report = compare([("big", a), ("small", b)], table)
    assert report.entries[0].pct_larger == 1.0
    empty = SyscallPolicy()
    report = compare([("big", a), ("empty", empty)], table)
    assert report.entries[0].pct_larger is None


@given(
    a=st.sets(st.sampled_from([f"c{i}" for i in range(8)]), max_size=8),
    b=st.sets(st.sampled_from([f"c{i}" for i in range(8)]), max_size=8),
)
def test_compare_only_sets_are_antisymmetric(table, a, b):
    pa, pb = SyscallPolicy(allow=frozenset(a)), SyscallPolicy(allow=frozenset(b))
    ab = compare([("a", pa), ("b", pb)], table).entries[0]
    ba = compare([("b", pb), ("a", pa)], table).entries[0]
    assert ab.diff.only_a == ba.diff.only_b
    assert ab.diff.only_b == ba.diff.only_a


# --- claim verification ----------------------------------------------------------

def test_claim_report_superset_and_name_sets_pass(table):
    report = verify_paper_claims(table)
    rows = {c.claim_id: c for c in report.claims}
    for program in ("nginx", "composepost"):
        assert rows[f"{program}_timeloops_superset_of_baseline"].passed
        assert rows[f"{program}_timeloops_minus_baseline_names"].passed
        assert rows[f"{program}_timeloops_only_over_sysfilter_count"].passed
    assert rows["clock_settime_in_composepost_sysfilter"].passed
    assert rows["clock_settime_not_in_podman_default"].passed


def test_claim_report_size_deltas_carry_reference_and_table_values(table):
    report = verify_paper_claims(table)
    rows = {c.claim_id: c for c in report.claims}
    for program in ("nginx", "composepost"):
        row = rows[f"{program}_sysfilter_minus_timeloops_size"]
        assert row.expected == EXPECTED_SYSFILTER_MINUS_TIMELOOPS_SIZE[program]
        actual = len(table.column_policy(f"{program}-sysfilter")) - len(
            table.column_policy(f"{program}-timeloops")
        )
        assert row.actual == actual
        assert row.passed == (row.actual == row.expected)


def test_claim_report_flags_corrupted_table(table):
    # Flip one baseline row so the superset claim must fail.
    rows = []
    for row in table.rows:
        if row.syscall == "write":
            flags = list(row.flags)
            flags[0] = True   # nginx-baseline
            flags[1] = False  # nginx-timeloops
            row = TableRow(syscall=row.syscall, cve=row.cve, flags=tuple(flags))
        rows.append(row)
    corrupted = PolicyComparisonTable(rows=tuple(rows))
    report = verify_paper_claims(corrupted)
    rows_by_id = {c.claim_id: c for c in report.claims}
    assert not rows_by_id["nginx_timeloops_superset_of_baseline"].passed
    assert not report.all_pass


def test_claim_report_is_stable(table):
    first = verify_paper_claims(table)
    second = verify_paper_claims(table)
    assert first == second
    assert first.to_text() == second.to_text()


def test_claim_report_notes_partial_percentage(table):
    report = verify_paper_claims(table)
    assert any("partially verifiable" in note for note in report.notes)


# --- ordering across the approximation spectrum -----------------------------------

@settings(max_examples=60, deadline=None)
@given(bundle=spec_workload_deny())
def test_baseline_ordering_spectrum(bundle):
    spec, workload, deny = bundle
    keys = sorted(spec.handlers)
    session = run_session(spec, workload, ControllerConfig(deny=deny))
    dynamic = dynamic_baseline(spec, keys).allow - deny
    static = static_baseline(spec).allow - deny
    final = session.final_policy.allow
    assert dynamic <= final
    assert final <= dynamic | spec.oracle_extra
    assert dynamic | spec.oracle_extra <= static | spec.oracle_extra
