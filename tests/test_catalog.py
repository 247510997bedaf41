import sys

import pytest
from conftest import FIXTURE_HEADER as HEADER
from conftest import fixture_csv
from hypothesis import given
from hypothesis import strategies as st

from timeloops.catalog import (
    COLUMNS,
    CVE_RE,
    PolicyComparisonTable,
    TableRow,
    load_fixture,
    parse_fixture,
    podman_default_deny,
    validate_syscall_name,
)
from timeloops.errors import ParseError, UnknownColumn


def test_a_valid_name_is_its_interned_text():
    class Name(str):
        pass

    # Built at run time, so that the text is not a constant the compiler interned.
    text = "".join(["mm", "ap"])
    assert validate_syscall_name(text) is sys.intern("mmap")
    # A str subclass, as an enum of names would give, is held as the str of its text.
    assert validate_syscall_name(Name("mmap")) is sys.intern("mmap")


def test_shmat_row(table):
    row = next(r for r in table.rows if r.syscall == "shmat")
    assert row.cve == "CVE-2017-5669"
    assert table.column_policy("nginx-sysfilter") >= {"shmat"}
    assert table.column_policy("podman-default") >= {"shmat"}
    for column in ("nginx-baseline", "nginx-timeloops", "composepost-baseline",
                   "composepost-timeloops", "composepost-sysfilter"):
        assert "shmat" not in table.column_policy(column)


def test_open_row(table):
    assert "open" in table.column_policy("nginx-timeloops")
    assert "open" not in table.column_policy("nginx-baseline")
    assert "open" not in table.column_policy("nginx-sysfilter")
    assert table.cve_for("open") == "CVE-2020-8428"


def test_cve_lookups(table):
    assert table.cve_for("mremap") == "CVE-2020-10757"
    assert table.cve_for("write") is None
    assert table.cve_for("not_a_syscall") is None


def test_cve_for_agrees_with_the_rows(table):
    for row in table.rows:
        assert table.cve_for(row.syscall) == row.cve
    assert PolicyComparisonTable().cve_for("mremap") is None
    # The lookup index is derived state: it takes no part in equality or repr.
    assert table == PolicyComparisonTable(rows=table.rows)
    assert "_cves" not in repr(PolicyComparisonTable())


def test_ioctl_free_text_is_note_not_cve(table):
    row = next(r for r in table.rows if r.syscall == "ioctl")
    assert row.cve is None
    assert table.cve_for("ioctl") is None


def test_all_cves_match_regex(table):
    for row in table.rows:
        if row.cve is not None:
            assert CVE_RE.match(row.cve), row.syscall


def test_timeloops_columns_superset_of_baseline(table):
    for program in ("nginx", "composepost"):
        baseline = table.column_policy(f"{program}-baseline")
        learned = table.column_policy(f"{program}-timeloops")
        assert baseline <= learned


def test_podman_column_excludes_clock_settime(table):
    assert "clock_settime" not in table.column_policy("podman-default")
    assert podman_default_deny(table) == {"clock_settime"}


def test_column_policy_on_empty_table():
    empty = PolicyComparisonTable()
    for column in COLUMNS:
        assert empty.column_policy(column) == frozenset()


def test_unknown_column(table):
    with pytest.raises(UnknownColumn):
        table.column_policy("nginx-unknown")


def test_empty_fixture_is_parse_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ParseError):
        load_fixture(path)


def test_bad_header_is_parse_error():
    with pytest.raises(ParseError):
        parse_fixture("syscall,cve,bogus\nread,,1\n")


def test_duplicate_syscall_is_parse_error():
    text = HEADER + "\nread,,1,1,1,1,1,1,1\nread,,0,0,0,0,0,0,1\n"
    with pytest.raises(ParseError):
        parse_fixture(text)


def test_bad_flag_cell_is_parse_error():
    text = HEADER + "\nread,,1,1,x,1,1,1,1\n"
    with pytest.raises(ParseError):
        parse_fixture(text)


def test_empty_row_is_skipped():
    table = parse_fixture(HEADER + "\nread,,1,1,1,1,1,1,1\n\nopen,,0,1,1,1,1,1,1\n")
    assert [row.syscall for row in table.rows] == ["read", "open"]


def test_row_with_wrong_flag_count_is_parse_error():
    with pytest.raises(ParseError, match=f"has 2 flags, expected {len(COLUMNS)}"):
        TableRow(syscall="read", cve=None, flags=(True, False))


def test_malformed_cve_is_parse_error():
    text = HEADER + "\nread,CVE-17-5669,1,1,1,1,1,1,1\n"
    with pytest.raises(ParseError):
        parse_fixture(text)


def test_bad_row_parse_error_names_its_line():
    for row, bad in (("Read,,1,1,1,1,1,1,1", "'Read'"),
                     ("read,CVE-17-5669,1,1,1,1,1,1,1", "'CVE-17-5669'")):
        text = HEADER + "\nopen,,1,1,1,1,1,1,1\n" + row + "\n"
        with pytest.raises(ParseError, match=rf"^line 3: .*{bad}"):
            parse_fixture(text)


_names = st.lists(
    st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True),
    min_size=0, max_size=12, unique=True,
)
# A CVE cell and the CVE it parses to: nothing, a CVE id, or free text that
# cannot parse as one.
_annotations = st.one_of(
    st.just(("", None)),
    st.from_regex(r"CVE-\d{4}-\d{1,7}", fullmatch=True).map(lambda c: (c, c)),
    st.from_regex(r"[a-z][a-z ,]{0,15}[a-z]", fullmatch=True).map(lambda n: (n, None)),
)


@given(names=_names, data=st.data())
def test_round_trip_random_tables(names, data):
    cells, rows = [], []
    for name in names:
        cell, cve = data.draw(_annotations)
        flags = tuple(data.draw(st.booleans()) for _ in COLUMNS)
        cells.append((name, cell, flags))
        rows.append(TableRow(syscall=name, cve=cve, flags=flags))
    assert parse_fixture(fixture_csv(cells)) == PolicyComparisonTable(rows=tuple(rows))
