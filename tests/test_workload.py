import copy
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from array import array

import numpy as np
import pytest
import reference
from conftest import REPO_ROOT, make_spec, spec_workload_deny
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timeloops.analysis import ClaimReport, ClaimRow, ComparisonEntry, ComparisonReport
from timeloops.catalog import COLUMNS, Frozen, PolicyComparisonTable, TableRow
from timeloops.cli import CategoryVerdict
from timeloops.controller import (
    ORACLE_MODES,
    SESSION_MODES,
    Alert,
    ControllerConfig,
    RaiseAlert,
    Transition,
    UpdatePolicy,
    run_session,
)
from timeloops.errors import (
    AttemptsExhausted,
    ConfigError,
    EmptyMix,
    EmptyRecords,
    ParseError,
    ScenarioError,
)
from timeloops.policy import PolicyDiff, PolicyLogEntry, SyscallPolicy
from timeloops.simruntime import (
    COMPLETED,
    WATCHDOG_TIMEOUT,
    Benign,
    CostModel,
    DeniedSyscallHit,
    ExploitSpec,
    Malicious,
    Marker,
    PolicyViolation,
    RequestBehavior,
    ServiceSpec,
)
from timeloops import workload
from timeloops.workload import (
    MAX_ATTEMPTS,
    OUTCOMES,
    LatencyRecord,
    LatencyStats,
    LatencyTable,
    Request,
    generate_workload,
    render_cumulative_csv,
    render_latency_csv,
    send_with_retry,
    summarize,
    write_cumulative_csv,
    write_latency_csv,
)


def _timed_record(lid, first, completion, outcome="served", key="r"):
    return LatencyRecord(
        logical_id=lid, key=key, attempts=1,
        first_attempt_ms=first, completion_ms=completion, outcome=outcome,
    )


def _record(lid, latency, outcome="served", key="r"):
    return LatencyRecord(
        logical_id=lid, key=key, attempts=1,
        first_attempt_ms=0.0, completion_ms=latency, outcome=outcome,
    )


# --- retry semantics ------------------------------------------------------------

def test_first_try_request_has_single_attempt_and_base_cost():
    cost = CostModel(base_request_ms=2.0, production_per_syscall_ms=3.0,
                     oracle_slowdown_factor=2.0, restart_ms=5.0)
    spec = make_spec({"r": RequestBehavior(trace=("read", "write"))}, cost=cost)
    config = ControllerConfig(pretrain_requests=("r",))
    result = run_session(spec, [Request(0, "r")], config)
    record = result.latency_records[0]
    assert record.attempts == 1
    assert record.latency_ms == cost.production_elapsed(2)


def test_retry_after_violation_includes_restart_and_oracle_cost():
    cost = CostModel(base_request_ms=1.0, production_per_syscall_ms=1.0,
                     oracle_slowdown_factor=3.0, restart_ms=50.0)
    spec = make_spec({"r": RequestBehavior(trace=("read", "write", "openat"))},
                 cost=cost)
    result = run_session(spec, [Request(0, "r")], ControllerConfig())
    record = result.latency_records[0]
    assert record.attempts == 2
    factor = cost.oracle_slowdown_factor
    oracle = cost.base_request_ms * factor + 3 * (cost.production_per_syscall_ms * factor)
    expected = cost.production_elapsed(0) + cost.restart_ms + oracle
    assert record.latency_ms == expected


def test_all_attempts_reuse_the_same_key():
    spec = make_spec({"r": RequestBehavior(trace=("read",))})
    result = run_session(spec, [Request(0, "r")], ControllerConfig())
    assert result.latency_records[0].key == "r"
    assert result.latency_records[0].attempts == 2


def test_attempts_exhausted_is_distinct_error():
    # A trace longer than the watchdog budget can never finish in the oracle,
    # so the request fails production, times out in the oracle, forever.
    cost = CostModel(base_request_ms=1.0, production_per_syscall_ms=10.0,
                     oracle_slowdown_factor=2.0, restart_ms=1.0)
    spec = make_spec({"r": RequestBehavior(trace=("read", "write"))}, cost=cost)
    config = ControllerConfig(watchdog_ms=15.0)
    with pytest.raises(AttemptsExhausted):
        run_session(spec, [Request(0, "r")], config)


class _FailingDriver:
    """A driver whose first ``failures`` attempts fail and whose clock
    advances 1 ms per attempt."""

    def __init__(self, failures):
        self.now, self.attempts, self.failures = 0.0, 0, failures

    def attempt(self, request):
        self.attempts += 1
        self.now += 1.0
        return "served" if self.attempts > self.failures else None


@pytest.mark.parametrize("failures", [0, 1, MAX_ATTEMPTS - 1])
def test_send_with_retry_retries_a_failed_attempt(failures):
    driver = _FailingDriver(failures)
    record = send_with_retry(Request(3, "r"), driver)
    assert record == (3, "r", failures + 1, 0.0, failures + 1.0, "served")
    assert type(record) is LatencyRecord and driver.attempts == failures + 1


def test_send_with_retry_gives_up_after_max_attempts():
    driver = _FailingDriver(MAX_ATTEMPTS)
    with pytest.raises(AttemptsExhausted) as caught:
        send_with_retry(Request(3, "r"), driver)
    assert str(caught.value) == f"request 3 ('r') failed {MAX_ATTEMPTS} attempts"
    assert driver.attempts == MAX_ATTEMPTS


# --- workload generation --------------------------------------------------------

def test_generate_zero_requests():
    spec = make_spec({"r": RequestBehavior(trace=("read",))})
    assert generate_workload(spec, 0, 1, {"r": 1.0}) == []


def test_single_key_mix_is_forced():
    spec = make_spec({"r": RequestBehavior(trace=("read",))})
    workload = generate_workload(spec, 5, 9, {"r": 2.5})
    assert [r.key for r in workload] == ["r"] * 5
    assert [r.logical_id for r in workload] == [0, 1, 2, 3, 4]


def test_same_seed_same_sequence():
    spec = make_spec({
        "a": RequestBehavior(trace=("read",)),
        "b": RequestBehavior(trace=("write",)),
    })
    mix = {"a": 3.0, "b": 1.0}
    assert generate_workload(spec, 50, 123, mix) == generate_workload(spec, 50, 123, mix)
    assert generate_workload(spec, 50, 123, mix) != generate_workload(spec, 50, 124, mix)


def test_a_negative_seed_is_refused_not_taken_as_its_absolute_value():
    spec = make_spec({
        "a": RequestBehavior(trace=("read",)),
        "b": RequestBehavior(trace=("write",)),
    })
    with pytest.raises(ConfigError, match=r"^seed must not be negative: -5$"):
        generate_workload(spec, 20, -5, {"a": 1.0, "b": 1.0})
    assert generate_workload(spec, 20, 0, {"a": 1.0, "b": 1.0})


def test_weight_fidelity_over_fixed_seed_corpus():
    spec = make_spec({
        "a": RequestBehavior(trace=("read",)),
        "b": RequestBehavior(trace=("write",)),
    })
    mix = {"a": 3.0, "b": 1.0}
    for seed in (1, 2, 3):
        workload = generate_workload(spec, 8000, seed, mix)
        share_a = sum(1 for r in workload if r.key == "a") / len(workload)
        assert abs(share_a - 0.75) < 0.02


def test_empty_mix_errors():
    spec = make_spec({"r": RequestBehavior(trace=("read",))})
    with pytest.raises(EmptyMix):
        generate_workload(spec, 5, 1, {})
    with pytest.raises(EmptyMix):
        generate_workload(spec, 5, 1, {"r": 0.0})
    with pytest.raises(ConfigError):
        generate_workload(spec, 5, 1, {"r": -1.0})
    with pytest.raises(ConfigError):
        generate_workload(spec, 5, 1, {"missing": 1.0})


# --- latency statistics ---------------------------------------------------------

def test_single_record_stats():
    stats = summarize(LatencyTable([_record(0, 5.0)]))
    assert stats.mean == stats.p50 == stats.p99 == stats.max == 5.0
    assert stats.cumulative == (5.0,)


def test_the_cumulative_series_is_built_once_when_read(monkeypatch):
    built = []
    real = workload.accumulate

    def counted(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(workload, "accumulate", counted)
    stats = summarize(LatencyTable([_record(i, v) for i, v in enumerate([1.0, 2.0, 1.5])]))
    assert built == []
    assert stats.cumulative == (1.0, 3.0, 4.5) and stats.cumulative is stats.cumulative
    assert len(built) == 1


def test_p50_linear_interpolation():
    records = [_record(i, v) for i, v in enumerate([1.0, 2.0, 3.0, 4.0])]
    stats = summarize(LatencyTable(records))
    assert stats.p50 == 2.5
    assert stats.cumulative == (1.0, 3.0, 6.0, 10.0)


@given(st.lists(st.tuples(st.floats(0.0, 1e9), st.floats(0.0, 1e9)), min_size=1, max_size=80))
@settings(max_examples=200)
def test_stats_match_numpy(times):
    records = [_timed_record(i, first, first + latency) for i, (first, latency) in enumerate(times)]
    latencies = [r.latency_ms for r in records]
    stats = summarize(LatencyTable(records))
    assert stats.p50 == float(np.percentile(latencies, 50))
    assert stats.p99 == float(np.percentile(latencies, 99))
    assert stats.max == float(np.max(latencies))
    assert math.isclose(stats.mean, float(np.mean(latencies)), rel_tol=1e-12)


def test_cli_import_leaves_numpy_unloaded():
    code = "import sys, timeloops.cli; sys.exit('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_empty_records_error():
    with pytest.raises(EmptyRecords):
        summarize(LatencyTable())


@given(values=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40))
@settings(max_examples=60)
def test_stats_bounds(values):
    records = [_record(i, v) for i, v in enumerate(values)]
    stats = summarize(LatencyTable(records))
    assert min(values) <= stats.p50 <= stats.max
    assert stats.max == max(values)
    assert abs(stats.cumulative[-1] - sum(values)) < 1e-6


# --- serialization --------------------------------------------------------------

def test_latency_csv_format():
    records = [
        _record(0, 21.0, key="home"),
        LatencyRecord(logical_id=1, key="evil", attempts=2,
                      first_attempt_ms=21.0, completion_ms=60.0,
                      outcome="rejected_malicious"),
    ]
    text = render_latency_csv(LatencyTable(records))
    lines = text.splitlines()
    assert lines[0] == "logical_id,key,attempts,first_attempt_ms,completion_ms,latency_ms,outcome"
    assert lines[1] == "0,home,1,0.0,21.0,21.0,served"
    assert lines[2] == "1,evil,2,21.0,60.0,39.0,rejected_malicious"


def test_cumulative_csv_running_sum():
    records = [_record(0, 2.0), _record(1, 3.0), _record(2, 4.0)]
    lines = render_cumulative_csv(LatencyTable(records)).splitlines()
    assert lines == [
        "logical_id,cumulative_latency_ms",
        "0,2.0",
        "1,5.0",
        "2,9.0",
    ]


@pytest.mark.parametrize("mode", SESSION_MODES)
def test_a_workload_out_of_id_order_is_written_in_run_order(tmp_path, mode):
    spec = make_spec({"a": RequestBehavior(trace=("read",)),
                      "b": RequestBehavior(trace=("write", "read"))})
    workload = [Request(2, "b"), Request(0, "a"), Request(1, "b"), Request(5, "a")]
    records = run_session(spec, workload, ControllerConfig(), mode=mode).latency_records
    write_latency_csv(records, tmp_path / "latency.csv")
    write_cumulative_csv(records, tmp_path / "cumulative.csv")
    latency = [row.split(",") for row in (tmp_path / "latency.csv").read_text().splitlines()[1:]]
    assert [(row[0], row[1]) for row in latency] == [("2", "b"), ("0", "a"), ("1", "b"), ("5", "a")]
    completions = [float(row[4]) for row in latency]
    assert all(a < b for a, b in zip(completions, completions[1:]))
    cumulative = (tmp_path / "cumulative.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in cumulative] == ["2", "0", "1", "5"]
    assert [float(row.split(",")[1]) for row in cumulative] == list(
        summarize(records).cumulative)


# Both renderers must stay byte-identical to writing every row with csv.writer.

_KEYS = st.one_of(
    st.sampled_from(["", ",", '"', 'say "hi"', "a,b", "line\r\nbreak", "\r", "\n",
                     " padded ", "clé", "日本語", "home"]),
    st.text(max_size=8),
    # Written as they are, without csv.writer.
    st.from_regex(r"[A-Za-z0-9_.-]{1,8}", fullmatch=True),
)
_TIMES = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 1e300, 21.0]),
    st.floats(),
)


@st.composite
def _records(draw):
    first, completion = draw(_TIMES), draw(_TIMES)
    if completion < first:
        first, completion = completion, first
    return LatencyRecord(
        logical_id=draw(st.integers(0, 30)),
        key=draw(_KEYS),
        attempts=draw(st.integers(1, 16)),
        first_attempt_ms=first,
        completion_ms=completion,
        outcome=draw(st.sampled_from(OUTCOMES)),
    )


@given(st.lists(_records(), max_size=25))
@example([_timed_record(0, 0.0, 1.0, key="")])
# Keys that csv.writer quotes, beside a plain one written as it is.
@example([_timed_record(i, 0.0, 1.0, key=key)
          for i, key in enumerate(["", "a,b", 'a"b', "a\nb", "a\rb", "a-b_c.9"])])
@example([_timed_record(1, -0.0, 0.0, key="a,b"), _timed_record(0, 1e300, math.inf, key='"')])
# Each boundary time shared by consecutive records, as in a closed loop,
# then a start at -0.0: equal to the completion before it, written otherwise.
@example([_timed_record(0, -1.0, 0.0), _timed_record(1, 0.0, 0.0), _timed_record(2, -0.0, 2.0)])
# Ids out of order and shared: the rows keep the order given, each start
# time next to an equal completion time.
@example([_timed_record(3, 0.0, 2.0, key="c"), _timed_record(1, 2.0, 5.0, key="a"),
          _timed_record(3, 5.0, 5.0, key="d"), _timed_record(1, 5.0, 5.5, key="b"),
          _timed_record(0, -0.0, 0.0)])
# Repeated positive latencies beside latencies of 0.0, -0.0 and NaN, which
# compare equal to each other or to nothing, yet are written apart.
@example([_timed_record(0, 0.0, 2.0), _timed_record(1, 2.0, 4.0), _timed_record(2, 4.0, 4.0),
          _timed_record(3, 0.0, -0.0), _timed_record(4, 5.0, 7.0), _timed_record(5, math.nan, 1.0),
          _timed_record(6, 1.0, 3.0), _timed_record(7, -0.0, -0.0)])
# A closed loop from 0.0: every running sum equals its completion time.
@example([_timed_record(0, 0.0, 1.0), _timed_record(1, 1.0, 3.0), _timed_record(2, 3.0, 3.5),
          _timed_record(3, 3.5, 3.5), _timed_record(4, 3.5, 6.25)])
# The running sum 0.0 equals the completion time -0.0, yet is written apart.
@example([_timed_record(0, -0.0, -0.0), _timed_record(1, -0.0, 1.0)])
# Latencies of 0.1, 0.2 and 0.3 ending at 0.1, 0.3 and 0.6: the running sum
# drifts from the completion time by rounding, 0.1 + 0.2 != 0.3.
@example([_timed_record(i, completion - step, completion)
          for i, (completion, step) in enumerate(zip((0.1, 0.3, 0.6), (0.1, 0.2, 0.3)))])
@settings(max_examples=300)
def test_renderers_match_csv_writer(records):
    table = LatencyTable(records)
    assert render_latency_csv(table) == reference.latency_csv(records)
    assert render_cumulative_csv(table) == reference.cumulative_csv(records)


def test_a_table_renders_its_csvs_once():
    table = LatencyTable([_timed_record(0, 0.0, 1.0), _timed_record(1, 1.0, 2.5)])
    latency, cumulative = render_latency_csv(table), render_cumulative_csv(table)
    assert render_latency_csv(table) is latency
    assert render_cumulative_csv(table) is cumulative


def test_latency_table_is_a_sequence_of_records_in_the_order_given():
    records = [_timed_record(2, 1.0, 3.0, key="b"), _timed_record(0, 0.0, 1.0),
               _timed_record(2, 3.0, 4.0, outcome="rejected_malicious"), _timed_record(1, 4.0, 9.0)]
    table = LatencyTable(records)
    assert len(table) == 4 and list(table) == records
    assert all(type(r) is LatencyRecord for r in table)
    for index in range(-4, 4):
        assert table[index] == records[index]
    with pytest.raises(IndexError):
        table[4]
    with pytest.raises(TypeError):
        table[1:3]
    assert table.index(records[2]) == 2 and records[3] in table
    # The cumulative series follows the table, in the order given.
    assert summarize(table).cumulative == (2.0, 3.0, 4.0, 9.0)
    # The served records' statistics skip the rejected one, in the same order.
    served = summarize(table, served_only=True)
    assert served.cumulative == (2.0, 3.0, 8.0) and served.max == 5.0
    assert summarize(LatencyTable([records[0]]), served_only=True) == summarize(
        LatencyTable([records[0]]))
    with pytest.raises(EmptyRecords):
        summarize(LatencyTable([records[2]]), served_only=True)
    assert not LatencyTable() and list(LatencyTable()) == []


def test_latency_table_ids_are_signed_64_bit():
    # Ids live in an array of signed 64-bit integers, which rejects a larger one.
    records = [_record(2**63 - 1, 1.0), _record(-2**63, 2.0)]
    assert list(LatencyTable(records)) == records
    for logical_id in (2**63, -2**63 - 1):
        with pytest.raises(OverflowError):
            LatencyTable([_record(logical_id, 1.0)])


def test_a_long_session_keeps_its_records_compact(staticsite):
    requests = generate_workload(staticsite, 50_000, 7, {"home": 8, "search": 1, "upload": 1})
    tracemalloc.start()
    try:
        result = run_session(staticsite, requests, ControllerConfig())
        held = tracemalloc.get_traced_memory()[0]
        result.latency_records = None
        records_size = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # Columns take about 52 bytes a record; a tuple and its times took about 130.
    assert records_size < 3 * 2**20


def test_records_keep_their_fields_and_reject_assignment():
    request = Request(logical_id=3, key="home")
    record = _record(3, 21.0, key="home")
    row = Transition(at_ms=1.0, from_state="production_running", event="shutdown",
                     to_state="halted", actions=("log_event",), epoch=2)
    assert repr(request) == "Request(logical_id=3, key='home')"
    assert repr(record) == ("LatencyRecord(logical_id=3, key='home', attempts=1, "
                            "first_attempt_ms=0.0, completion_ms=21.0, outcome='served')")
    assert record == LatencyRecord(3, "home", 1, 0.0, 21.0, "served")
    assert Transition._fields == ("at_ms", "from_state", "event", "to_state", "actions", "epoch")
    assert repr(Benign(frozenset({"read"}))) == "Benign(observed=frozenset({'read'}))"
    assert repr(ClaimReport(claims=())) == "ClaimReport(claims=(), notes=())"
    for value, field in ((request, "key"), (record, "key"), (record, "latency_ms"),
                         (row, "epoch"), (request, "extra"), (record, "extra"), (row, "extra")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)


_DIFF = PolicyDiff(only_a=frozenset(), only_b=frozenset({"read"}), both=frozenset())

# Each plain record, and its fields in the order they have always had. Records
# of different types share their contents where they can, as Malicious("r"),
# RaiseAlert("r") and DeniedSyscallHit("r") do.
_PLAIN_RECORDS = {
    PolicyViolation("read", 0): ("syscall", "at_index"),
    DeniedSyscallHit("r"): ("syscall",),
    Benign(frozenset({"read"})): ("observed",),
    Malicious("r"): ("report",),
    UpdatePolicy(frozenset({"read"})): ("new_syscalls",),
    RaiseAlert("r"): ("report",),
    Alert(request=3, report="r", at_ms=2.5): ("request", "report", "at_ms"),
    _DIFF: ("only_a", "only_b", "both"),
    ComparisonEntry("A", "B", 2, 1, 1.0, _DIFF, ()): (
        "name_a", "name_b", "size_a", "size_b", "pct_larger", "diff", "cve_annotated"),
    ComparisonReport(entries=()): ("entries",),
    ClaimRow("c", 1, 1): ("claim_id", "expected", "actual"),
    ClaimReport(claims=()): ("claims", "notes"),
}


@pytest.mark.parametrize("value", list(_PLAIN_RECORDS), ids=lambda value: type(value).__name__)
def test_plain_records_are_named_tuples_that_equal_only_their_own_type(value):
    fields = _PLAIN_RECORDS[value]
    assert isinstance(value, tuple) and type(value)._fields == fields
    with pytest.raises(AttributeError):
        setattr(value, fields[0], None)
    assert repr(value) == type(value).__name__ + "(" + ", ".join(
        f"{name}={getattr(value, name)!r}" for name in fields) + ")"
    same = type(value)(*value)
    assert same == value and not same != value and hash(same) == hash(value)
    # A tuple of the same fields, and every other record or value, is a different value.
    for other in (tuple(value), *_PLAIN_RECORDS, *(v for v, _ in _FROZEN_VALUES), COMPLETED):
        if other is not value:
            assert value != other and other != value
            assert not (value == other or other == value)


_ROW = TableRow("read", None, (True,) * len(COLUMNS))
_VERDICT_FIELDS = ("category", "key", "deny", "probe_outcome", "alerts",
                   "exploit_syscalls_learned", "exploit_sourced_entries", "confined",
                   "as_expected")

# A value of each immutable type that is no named tuple, and a change to one
# of its fields that gives another value of that type.
_FROZEN_VALUES = [
    (CostModel(), {"restart_ms": 60.0}),
    (ExploitSpec("oracle_detectable", 1, ("ptrace",)), {"corruption_index": 0}),
    (RequestBehavior(("read",)), {"trace": ("write",)}),
    (ServiceSpec("svc", {"r": RequestBehavior(("read",))}, static_universe=("read",)),
     {"oracle_extra": ("read",)}),
    (SyscallPolicy(1, frozenset({"read"})), {"epoch": 2}),
    (PolicyLogEntry(1, ("read",), "oracle"), {"source": "pretrain"}),
    (ControllerConfig(), {"oracle_mode": "watchdog"}),
    (_ROW, {"cve": "CVE-2024-1086"}),
    (PolicyComparisonTable((_ROW,)), {"rows": ()}),
    (LatencyStats(1.0, 1.0, 1.0, 1.0, [1.0]), {"max": 2.0}),
    (CategoryVerdict(1, "r", (), "served", 0, (), 0, True, True), {"confined": False}),
]


@pytest.mark.parametrize("value, change", _FROZEN_VALUES,
                         ids=[type(value).__name__ for value, _ in _FROZEN_VALUES])
def test_frozen_values_equal_only_their_own_type(value, change):
    cls = type(value)
    fields = {name: getattr(value, name) for name in cls._fields}
    assert repr(value) == cls.__name__ + "(" + ", ".join(
        f"{name}={field!r}" for name, field in fields.items()) + ")"
    same = cls(**fields)
    assert same == value and not same != value
    if cls not in (ServiceSpec, LatencyStats):  # a dict or a list field hashes as neither does
        assert hash(same) == hash(value)
    # A value with another field, a tuple of the same fields, a value of a
    # subclass or of another type with the same fields, and every value of
    # another type, is a different value.
    twin = type("Twin", (Frozen,), {"_fields": cls._fields, "__init__": Frozen._set})
    for other in (value._replace(**change), tuple(fields.values()),
                  type("Sub", (cls,), {})(**fields), twin(*fields.values()),
                  *(v for v, _ in _FROZEN_VALUES), *_PLAIN_RECORDS, COMPLETED):
        if other is not value:
            assert value != other and other != value
            assert not (value == other or other == value)
    for name in (*cls._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == same


def test_a_marker_equals_only_itself():
    same_label = Marker(COMPLETED.label)
    assert COMPLETED == COMPLETED and hash(COMPLETED) == hash(COMPLETED)
    assert COMPLETED != same_label and not COMPLETED == same_label
    assert repr(COMPLETED) == "Marker(label='prod_exited:completed')"
    assert COMPLETED != WATCHDOG_TIMEOUT and COMPLETED != (COMPLETED.label,)
    with pytest.raises(AttributeError):
        COMPLETED.label = "other"


def test_a_verdict_and_latency_stats_keep_their_fields_in_a_dict():
    # A sweep writes ``vars`` of each verdict; the statistics cache their
    # cumulative series beside their fields.
    verdict = CategoryVerdict(4, "evil", ("ptrace",), "served", 0, ("ptrace",), 1, False, True)
    assert vars(verdict) == dict(zip(_VERDICT_FIELDS, (
        4, "evil", ("ptrace",), "served", 0, ("ptrace",), 1, False, True)))
    assert list(vars(verdict)) == list(_VERDICT_FIELDS) == list(CategoryVerdict._fields)
    stats = LatencyStats(2.0, 2.0, 3.0, 3.0, [1.0, 3.0])
    assert stats.cumulative == (1.0, 4.0) and stats.cumulative is stats.cumulative
    assert stats == LatencyStats(2.0, 2.0, 3.0, 3.0, [1.0, 3.0])


# Each type that checks what it is built from: a valid value, one field
# changed to a bad value, and the exception and message that change raises.
_BAD_VALUES = [
    (CostModel(), {"restart_ms": 0.0}, ScenarioError, "restart_ms must be positive"),
    (CostModel(), {"oracle_slowdown_factor": math.nan}, ScenarioError,
     "oracle_slowdown_factor must be finite"),
    (ExploitSpec("oracle_detectable", 1), {"kind": "sneaky"}, ScenarioError,
     "unknown exploit kind: 'sneaky'"),
    (RequestBehavior(("read",)), {"exploit": ExploitSpec("oracle_detectable", 2)},
     ScenarioError, "corruption_index 2 exceeds trace length 1"),
    (ServiceSpec("svc", {"r": RequestBehavior(("read",))}, static_universe=("read",)),
     {"static_universe": ("write",)}, ScenarioError,
     "handler 'r' uses syscalls outside the static universe: read"),
    (ControllerConfig(), {"watchdog_ms": -1.0}, ConfigError,
     "watchdog_ms must be positive and finite, got -1.0"),
    (SyscallPolicy(allow=frozenset({"read"})), {"deny": frozenset({"read"})}, ValueError,
     "allow and deny overlap: read"),
    (PolicyLogEntry(1, ("read",), "oracle"), {"added": ("write", "read")}, ValueError,
     "added syscalls must be sorted and distinct"),
    (_ROW, {"cve": "CVE-1"}, ParseError, "invalid CVE identifier: 'CVE-1'"),
    (PolicyComparisonTable((_ROW,)), {"rows": (_ROW, _ROW)}, ParseError,
     "duplicate syscall rows: read"),
]


@pytest.mark.parametrize("value, bad, error, message", _BAD_VALUES,
                         ids=[type(value).__name__ for value, *_ in _BAD_VALUES])
def test_every_way_to_build_a_value_checks_it(value, bad, error, message):
    # The constructor, by keyword or position, ``_replace``, and what copies
    # and pickles rebuild a value with. A value is no tuple, so
    # ``tuple.__new__`` cannot build one either.
    cls = type(value)
    fields = {name: getattr(value, name) for name in cls._fields}
    rebuild, args = value.__reduce__()
    assert rebuild is cls and args == tuple(fields.values())
    assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
    assert not isinstance(value, tuple)
    changed = {**fields, **bad}
    for build in (lambda: cls(**changed), lambda: cls(*changed.values()),
                  lambda: value._replace(**bad), lambda: rebuild(*changed.values())):
        with pytest.raises(error) as raised:
            build()
        assert type(raised.value) is error and str(raised.value) == message


def test_every_way_to_build_a_value_normalises_it():
    # Names are kept as the one interned string of their text.
    read = "".join(["re", "ad"])
    assert read is not sys.intern("read")
    config = ControllerConfig(deny=[read], pretrain_requests=["r"])
    for built in (config, ControllerConfig()._replace(deny=[read], pretrain_requests=["r"]),
                  pickle.loads(pickle.dumps(config))):
        assert type(built.deny) is frozenset and [*built.deny][0] is sys.intern("read")
        assert type(built.pretrain_requests) is tuple and built.pretrain_requests == ("r",)
    behavior = RequestBehavior([read])
    spec = ServiceSpec("svc", {"r": behavior}, static_universe=[read], oracle_extra={read})
    for built in (spec, spec._replace(static_universe=[read, read])):
        assert type(built.static_universe) is frozenset and type(built.oracle_extra) is frozenset
        assert [*built.static_universe][0] is sys.intern("read")
    exploit = ExploitSpec("oracle_undetectable", 0, [read])
    entry = PolicyLogEntry(1, [read], "oracle")
    for names in (behavior.trace, behavior._replace(trace=[read]).trace, exploit.injected,
                  exploit._replace(injected=[read]).injected, entry.added,
                  entry._replace(added=[read]).added):
        assert type(names) is tuple and names[0] is sys.intern("read")


def _columns(rows):
    """The six columns of ``rows``, in the types a table keeps them in."""
    ids, keys, attempts, first_ms, completion_ms, outcomes = map(list, zip(*rows))
    return (array("q", ids), keys, attempts, array("d", first_ms), array("d", completion_ms),
            outcomes)


# Each invalid row, and the error the table raises for it.
_INVALID_ROWS = {
    (0, "r", 0, 0.0, 1.0, "served"): "attempts must be >= 1",
    (0, "r", 1, 2.0, 1.0, "served"): "completion precedes first attempt",
    (0, "r", 1, 0.0, 1.0, "dropped"): "unknown outcome: 'dropped'",
}


@pytest.mark.parametrize("args", list(_INVALID_ROWS))
def test_record_invariants_hold_for_every_construction(args):
    # A record is checked by the table that holds it, the one input of every
    # reader: whether it is given fields or a record, however the record was
    # made, alone or after a valid one, or as the columns a baseline builds.
    replaced = _record(0, 1.0)._replace(**dict(zip(LatencyRecord._fields, args)))
    for rows in ([args], [LatencyRecord(*args)], [LatencyRecord._make(args)], [replaced],
                 [_record(1, 1.0), args]):
        for build in (LatencyTable, lambda rows: LatencyTable.from_columns(*_columns(rows))):
            with pytest.raises(ValueError) as raised:
                build(rows)
            assert str(raised.value) == _INVALID_ROWS[args]


def test_nan_times_are_accepted_by_records_and_tables():
    nan = math.nan
    for first, completion in ((nan, 1.0), (0.0, nan), (nan, nan)):
        fields = (0, "r", 1, first, completion, "served")
        assert repr(list(LatencyTable([fields]))) == repr([LatencyRecord(*fields)])


@settings(max_examples=60, deadline=None)
@given(bundle=spec_workload_deny(), mode=st.sampled_from(SESSION_MODES),
       oracle_mode=st.sampled_from(ORACLE_MODES))
def test_program_built_records_are_valid(bundle, mode, oracle_mode):
    spec, workload, deny = bundle
    result = run_session(spec, workload, ControllerConfig(oracle_mode=oracle_mode, deny=deny),
                         mode=mode)
    assert len(result.latency_records) == len(workload)
    for record in result.latency_records:
        assert record.attempts >= 1
        assert not record.completion_ms < record.first_attempt_ms
        assert record.outcome in OUTCOMES
