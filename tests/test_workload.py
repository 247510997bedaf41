import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import REPO_ROOT, make_spec, spec_workload_deny
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timeloops.controller import (
    ORACLE_MODES,
    SESSION_MODES,
    ControllerConfig,
    Transition,
    run_session,
)
from timeloops.errors import AttemptsExhausted, ConfigError, EmptyMix, EmptyRecords
from timeloops.simruntime import CostModel, RequestBehavior
from timeloops.workload import (
    LATENCY_CSV_HEADER,
    OUTCOMES,
    LatencyRecord,
    LatencyTable,
    Request,
    generate_workload,
    render_cumulative_csv,
    render_latency_csv,
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
    stats = summarize([_record(0, 5.0)])
    assert stats.mean == stats.p50 == stats.p99 == stats.max == 5.0
    assert stats.cumulative == (5.0,)


def test_p50_linear_interpolation():
    records = [_record(i, v) for i, v in enumerate([1.0, 2.0, 3.0, 4.0])]
    stats = summarize(records)
    assert stats.p50 == 2.5
    assert stats.cumulative == (1.0, 3.0, 6.0, 10.0)


@given(st.lists(st.tuples(st.floats(0.0, 1e9), st.floats(0.0, 1e9)), min_size=1, max_size=80))
@settings(max_examples=200)
def test_stats_match_numpy(times):
    records = [_timed_record(i, first, first + latency) for i, (first, latency) in enumerate(times)]
    latencies = [r.latency_ms for r in records]
    stats = summarize(records)
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
        summarize([])


@given(values=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=40))
@settings(max_examples=60)
def test_stats_bounds(values):
    records = [_record(i, v) for i, v in enumerate(values)]
    stats = summarize(records)
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
    text = render_latency_csv(records)
    lines = text.splitlines()
    assert lines[0] == "logical_id,key,attempts,first_attempt_ms,completion_ms,latency_ms,outcome"
    assert lines[1] == "0,home,1,0.0,21.0,21.0,served"
    assert lines[2] == "1,evil,2,21.0,60.0,39.0,rejected_malicious"


def test_cumulative_csv_running_sum():
    records = [_record(0, 2.0), _record(1, 3.0), _record(2, 4.0)]
    lines = render_cumulative_csv(records).splitlines()
    assert lines == [
        "logical_id,cumulative_latency_ms",
        "0,2.0",
        "1,5.0",
        "2,9.0",
    ]


# Both renderers must stay byte-identical to writing every row with csv.writer.

def _reference_latency_csv(records):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LATENCY_CSV_HEADER.split(","))
    for r in sorted(records, key=lambda r: r.logical_id):
        writer.writerow([r.logical_id, r.key, r.attempts, r.first_attempt_ms,
                         r.completion_ms, r.latency_ms, r.outcome])
    return out.getvalue()


def _reference_cumulative_csv(records):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["logical_id", "cumulative_latency_ms"])
    total = 0.0
    for r in sorted(records, key=lambda r: r.logical_id):
        total += r.latency_ms
        writer.writerow([r.logical_id, total])
    return out.getvalue()


_KEYS = st.one_of(
    st.sampled_from(["", ",", '"', 'say "hi"', "a,b", "line\r\nbreak", "\r", "\n",
                     " padded ", "clé", "日本語", "home"]),
    st.text(max_size=8),
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
@example([_timed_record(1, -0.0, 0.0, key="a,b"), _timed_record(0, 1e300, math.inf, key='"')])
# Each boundary time shared by consecutive records, as in a closed loop,
# then a start at -0.0: equal to the completion before it, written otherwise.
@example([_timed_record(0, -1.0, 0.0), _timed_record(1, 0.0, 0.0), _timed_record(2, -0.0, 2.0)])
# Ids out of order and shared, so the table sorts them, stably; the sort
# brings a start time next to an equal completion time.
@example([_timed_record(3, 2.0, 5.0, key="c"), _timed_record(1, 0.0, 2.0, key="a"),
          _timed_record(3, 5.0, 5.0, key="d"), _timed_record(1, 2.0, 2.5, key="b"),
          _timed_record(0, -0.0, 0.0)])
@settings(max_examples=300)
def test_renderers_match_csv_writer(records):
    assert render_latency_csv(records) == _reference_latency_csv(records)
    assert render_cumulative_csv(records) == _reference_cumulative_csv(records)


def test_latency_table_is_a_sequence_of_records_by_id():
    records = [_timed_record(2, 1.0, 3.0, key="b"), _timed_record(0, 0.0, 1.0),
               _timed_record(2, 3.0, 4.0, outcome="rejected_malicious"), _timed_record(1, 4.0, 9.0)]
    by_id = sorted(records, key=lambda r: r.logical_id)
    table = LatencyTable(records)
    assert len(table) == 4 and list(table) == by_id
    assert all(type(r) is LatencyRecord for r in table)
    for index in range(-4, 4):
        assert table[index] == by_id[index]
    with pytest.raises(IndexError):
        table[4]
    with pytest.raises(TypeError):
        table[1:3]
    assert table.index(by_id[2]) == 2 and by_id[3] in table
    # The cumulative series follows the table, in id order.
    assert summarize(records).cumulative == (1.0, 6.0, 8.0, 9.0)
    served = table.served()
    assert list(served) == [r for r in by_id if r.outcome == "served"]
    assert served.served() is served
    assert not LatencyTable() and list(LatencyTable()) == []


def test_latency_table_ids_are_signed_64_bit():
    # Ids live in an array of signed 64-bit integers, which rejects a larger one.
    assert list(LatencyTable([_record(2**63 - 1, 1.0), _record(-2**63, 2.0)])) == [
        _record(-2**63, 2.0), _record(2**63 - 1, 1.0)]
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
    for value, field in ((request, "key"), (record, "key"), (record, "latency_ms"),
                         (row, "epoch"), (request, "extra"), (record, "extra"), (row, "extra")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)


# Each invalid row, and the error every reader of records raises for it.
_INVALID_ROWS = {
    (0, "r", 0, 0.0, 1.0, "served"): "attempts must be >= 1",
    (0, "r", 1, 2.0, 1.0, "served"): "completion precedes first attempt",
    (0, "r", 1, 0.0, 1.0, "dropped"): "unknown outcome: 'dropped'",
}


@pytest.mark.parametrize("args", list(_INVALID_ROWS))
def test_record_invariants_hold_for_every_construction(args, tmp_path):
    # A record is checked by the table that holds it, and every reader of
    # records builds one: whether it is given fields or a record, however the
    # record was made, alone or after a valid one.
    readers = (LatencyTable, summarize, render_latency_csv, render_cumulative_csv,
               lambda rows: write_latency_csv(rows, tmp_path / "latency.csv"),
               lambda rows: write_cumulative_csv(rows, tmp_path / "cumulative.csv"))
    replaced = _record(0, 1.0)._replace(**dict(zip(LatencyRecord._fields, args)))
    for rows in ([args], [LatencyRecord(*args)], [LatencyRecord._make(args)], [replaced],
                 [_record(1, 1.0), args]):
        for read in readers:
            with pytest.raises(ValueError) as raised:
                read(rows)
            assert str(raised.value) == _INVALID_ROWS[args]
    assert list(tmp_path.iterdir()) == []


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
