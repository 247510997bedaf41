import enum
import json
import sys

import pytest
from conftest import FIXTURE_HEADER as HEADER
from conftest import SCENARIO_DIR, fixture_csv
from hypothesis import given
from hypothesis import strategies as st

from timeloops import catalog
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
from timeloops.simruntime import load_scenario


def test_a_valid_name_is_its_interned_text():
    class Name(str):
        pass

    class Sys(str, enum.Enum):
        MMAP = "mmap"

    class Loud(str):
        def __str__(self):
            return "LOUD"

    # Built at run time, so that the text is not a constant the compiler interned.
    text = "".join(["mm", "ap"])
    assert validate_syscall_name(text) is sys.intern("mmap")
    # A str subclass, as an enum of names would give, is held as the str of
    # its text, whatever its str() gives.
    for name in (Name("mmap"), Sys.MMAP, Loud("mmap")):
        assert validate_syscall_name(name) is sys.intern("mmap")
    assert str(Sys.MMAP) == "Sys.MMAP" and str(Loud("mmap")) == "LOUD"
    row = TableRow(Sys.MMAP, None, (False,) * len(COLUMNS))
    assert type(row.syscall) is str and row.syscall is sys.intern("mmap")


class _CountingPattern:
    """A compiled pattern that records each text it is asked to match."""

    def __init__(self, pattern):
        self.pattern, self.checked = pattern, []

    def fullmatch(self, text):
        self.checked.append(text)
        return self.pattern.fullmatch(text)


@pytest.fixture
def name_checks(monkeypatch):
    """The texts checked as syscall names from here on, by a process that
    has validated no name yet."""
    pattern = _CountingPattern(catalog.SYSCALL_NAME_RE)
    monkeypatch.setattr(catalog, "SYSCALL_NAME_RE", pattern)
    monkeypatch.setattr(catalog, "_VALID_NAMES", {})
    return pattern.checked


def test_loading_a_scenario_checks_each_distinct_name_once(name_checks):
    path = SCENARIO_DIR / "staticsite_attacks.json"
    names = []
    for service in json.loads(path.read_text())["services"]:
        names += service["static_universe"] + service.get("oracle_extra", [])
        for handler in service["handlers"].values():
            names += handler["trace"] + (handler.get("exploit") or {}).get("injected", [])
    assert len(names) > len(set(names))
    load_scenario(path)
    assert sorted(name_checks) == sorted(set(names))
    load_scenario(path)
    assert len(name_checks) == len(set(names))


@pytest.mark.parametrize("name", ["read\n", "read\n\n", "\nread", "re\nad", "read\r", "",
                                  "r\u0456ad", "\u0661"])
def test_an_invalid_name_is_rejected_every_time(name_checks, name):
    for _ in range(2):
        with pytest.raises(ParseError, match="^invalid syscall name: "):
            validate_syscall_name(name)
    assert name_checks == [name, name] and catalog._VALID_NAMES == {}
    # Its valid prefix does not make it valid either.
    assert validate_syscall_name("read") == "read"
    with pytest.raises(ParseError):
        validate_syscall_name(name)


def test_a_str_subclass_or_a_non_str_takes_the_checked_path(name_checks):
    class LookAlike(str):
        """Text that is no syscall name, but hashes and compares as "read"."""

        def __hash__(self):
            return hash("read")

        def __eq__(self, other):
            return True

    validate_syscall_name("read")
    with pytest.raises(ParseError):
        validate_syscall_name(LookAlike("READ!"))
    for value in (1, None, b"read"):
        with pytest.raises(ParseError):
            validate_syscall_name(value)
    assert name_checks == ["read", "READ!"]


def test_a_cve_with_a_line_break_is_parse_error():
    with pytest.raises(ParseError, match="invalid CVE identifier"):
        TableRow(syscall="read", cve="CVE-2017-5669\n", flags=(True,) * len(COLUMNS))


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
            assert CVE_RE.fullmatch(row.cve), row.syscall


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
    # The second CVE's year is in Arabic-Indic digits, which "\\d" would match.
    for row, bad in (("Read,,1,1,1,1,1,1,1", "'Read'"),
                     ("read,CVE-17-5669,1,1,1,1,1,1,1", "'CVE-17-5669'"),
                     ("read,CVE-\u0662\u0660\u0661\u0667-5669,1,1,1,1,1,1,1",
                      "'CVE-\u0662\u0660\u0661\u0667-5669'")):
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
    st.from_regex(r"CVE-[0-9]{4}-[0-9]{1,7}", fullmatch=True).map(lambda c: (c, c)),
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
