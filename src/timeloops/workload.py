"""Retry-semantics client, workload generation and latency accounting.

Latency of a logical request is the elapsed virtual time between the
client first sending it and the client receiving a response, regardless
of how many retries that took. Requests rejected after an alert still get
a record, with a distinct outcome, so exploit traffic shows up in reports
without skewing the served statistics.

A session's :class:`LatencyTable` renders its latency and cumulative CSVs
together, in one pass on first use, and keeps both texts for as long as
it lives.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import random
import re
import sys
from array import array
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .catalog import Frozen
from .errors import AttemptsExhausted, ConfigError, EmptyMix, EmptyRecords
from .simruntime import ServiceSpec

OUTCOMES = ("served", "rejected_malicious")

LATENCY_CSV_HEADER = "logical_id,key,attempts,first_attempt_ms,completion_ms,latency_ms,outcome"


# Requests and latency records are tuple-backed: a long session makes one of
# each per logical request, and a tuple is the cheapest record to build. A
# session keeps its records in a LatencyTable's columns.

class Request(NamedTuple):
    logical_id: int
    key: str


class LatencyRecord(NamedTuple):
    """One logical request's latency record. It is checked by the
    :class:`LatencyTable` that holds it, not when it is built."""

    logical_id: int
    key: str
    attempts: int
    first_attempt_ms: float
    completion_ms: float
    outcome: str

    @property
    def latency_ms(self) -> float:
        return self.completion_ms - self.first_attempt_ms


# Records are transposed this many at a time (see _transpose).
_TRANSPOSE_ROWS = 4096


def _transpose(records: Iterable[tuple]) -> tuple:
    """The six columns of ``records``, latency records or tuples of their
    fields: the ids and the two times in arrays, the rest in lists.

    Each chunk of records is flattened into one list of their fields, read
    back a column at a time by strided slices. A record that an iterator
    yields is freed as soon as its fields are copied: a session that passes
    its records this way holds one at a time, and leaves the garbage
    collector no long-lived record to scan.
    """
    ids, keys, attempts, first_ms, completion_ms, outcomes = columns = (
        array("q"), [], [], array("d"), array("d"), [])
    records = iter(records)
    while fields := list(chain.from_iterable(islice(records, _TRANSPOSE_ROWS))):
        ids += array("q", fields[0::6])
        keys += fields[1::6]
        attempts += fields[2::6]
        first_ms += array("d", fields[3::6])
        completion_ms += array("d", fields[4::6])
        outcomes += fields[5::6]
    return columns


class LatencyTable(Sequence[LatencyRecord]):
    """Latency records as a read-only sequence of :class:`LatencyRecord`,
    in the order they are given, in columns: ``ids``, ``first_ms`` and
    ``completion_ms`` are arrays, ``keys``, ``attempts`` and ``outcomes``
    lists. A session gives them in the order it ran them, which is
    logical-id order for any generated workload.

    The records, or tuples of their fields, are transposed once; the
    controller's client gives them this way. An id must fit in a signed
    64-bit integer, and the times are kept as floats. ``from_columns`` takes
    the six columns already built, as the baseline deployments build them.

    This is where records are checked, once, on the columns: attempts
    must be at least 1, a completion time must not precede its first
    attempt, and the outcome must be one of ``OUTCOMES``. Each failure is a
    ``ValueError``.

    The table is not changed after it is built, so the texts of its two
    CSVs are rendered once, together, and kept (see ``_csv_texts``).
    """

    def __init__(self, records: Iterable[tuple] = ()):
        self._take(*_transpose(records))

    @classmethod
    def from_columns(cls, ids, keys, attempts, first_ms, completion_ms, outcomes) -> LatencyTable:
        """A table that holds these six columns as they are given, in the
        types the records path makes, checked as records are."""
        table = cls.__new__(cls)
        table._take(ids, keys, attempts, first_ms, completion_ms, outcomes)
        return table

    def _take(self, *columns) -> None:
        self.ids, self.keys, self.attempts, self.first_ms, self.completion_ms, self.outcomes = (
            columns)
        if min(self.attempts, default=1) < 1:
            raise ValueError("attempts must be >= 1")
        # Not all(map(ge, ...)): a NaN time compares false, and is accepted.
        if any(map(operator.lt, self.completion_ms, self.first_ms)):
            raise ValueError("completion precedes first attempt")
        if not set(self.outcomes).issubset(OUTCOMES):
            unknown = next(o for o in self.outcomes if o not in OUTCOMES)
            raise ValueError(f"unknown outcome: {unknown!r}")

    def _columns(self) -> tuple:
        return self.ids, self.keys, self.attempts, self.first_ms, self.completion_ms, self.outcomes

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index: int) -> LatencyRecord:
        index = operator.index(index)
        return tuple.__new__(LatencyRecord, [column[index] for column in self._columns()])

    @cached_property
    def _csv_texts(self) -> tuple[str, str]:
        """The latency CSV and the cumulative CSV, rendered in one pass on
        first use and kept, as the table is read-only.

        Each id is formatted once for both rows, and only the key can need
        quoting; each distinct key is quoted once. Each completion time is
        written once, and reused for an equal start time in the next row and
        for an equal running sum in its own, unless it is zero: ``repr``
        tells -0.0 from 0.0, which compare equal. A session runs its
        requests back to back from 0.0, so its running sum is usually its
        completion time. Each distinct non-zero latency is written once: a
        session's cost model gives its latencies few distinct values.
        """
        keys: dict = {}
        latencies: dict = {}
        rows = [LATENCY_CSV_HEADER + "\n"]
        sums = ["logical_id,cumulative_latency_ms\n"]
        last = last_text = None
        total = 0.0
        for logical_id, key, attempts, first, completion, outcome in zip(*self._columns()):
            quoted = keys.get(key)
            if quoted is None:
                quoted = keys[key] = _csv_field(key)
            first_text = last_text if first == last and first else repr(first)
            last, last_text = completion, repr(completion)
            latency = completion - first
            latency_text = latencies.get(latency) if latency else repr(latency)
            if latency_text is None:
                latency_text = latencies[latency] = repr(latency)
            total += latency
            total_text = last_text if total == completion and total else repr(total)
            id_text = f"{logical_id}"
            rows.append(f"{id_text},{quoted},{attempts},{first_text},{last_text},"
                        f"{latency_text},{outcome}\n")
            sums.append(f"{id_text},{total_text}\n")
        return "".join(rows), "".join(sums)


class LatencyStats(Frozen):
    """Latency statistics of ``latencies``, in the order the session ran
    them. The cumulative series is built when it is first read, into the
    ``__dict__`` that holds the fields."""

    _fields = ("mean", "p50", "p99", "max", "latencies")

    def __init__(self, mean: float, p50: float, p99: float, max: float, latencies: list[float]):
        self._set(mean, p50, p99, max, latencies)

    @cached_property
    def cumulative(self) -> tuple[float, ...]:
        """The running latency sum, one total per latency."""
        return tuple(islice(accumulate(self.latencies, initial=0.0), 1, None))


#: Attempts a logical request gets before its session fails with AttemptsExhausted.
MAX_ATTEMPTS = 16


def send_with_retry(request: Request, driver) -> LatencyRecord:
    """Reissue an identical request until served or rejected.

    The driver advances the shared virtual clock; a failed attempt (policy
    violation, oracle timeout) is retried immediately, up to
    ``MAX_ATTEMPTS`` attempts. An alert ends the request as
    rejected_malicious rather than retrying forever. The record is checked
    by the session's table. Most requests are served on the first attempt,
    so it is made before the retry loop.
    """
    first_attempt_ms = driver.now
    outcome = driver.attempt(request)
    attempt = 1
    while outcome is None:
        if attempt == MAX_ATTEMPTS:
            raise AttemptsExhausted(
                f"request {request.logical_id} ({request.key!r}) failed {MAX_ATTEMPTS} attempts"
            )
        attempt += 1
        outcome = driver.attempt(request)
    return tuple.__new__(LatencyRecord, (
        request.logical_id, request.key, attempt, first_attempt_ms, driver.now, outcome
    ))


def default_mix(spec: ServiceSpec) -> dict[str, float]:
    """Every benign handler of ``spec`` at weight 1, the mix ``simulate``
    sends without ``--mix``; a service with none raises :class:`ConfigError`."""
    benign = spec.benign_handlers()
    if not benign:
        raise ConfigError(f"service {spec.name!r} has no benign handlers")
    return dict.fromkeys(benign, 1.0)


def generate_workload(
    spec: ServiceSpec, n: int, seed: int, mix: Mapping[str, float]
) -> list[Request]:
    """Seeded weighted sampling of request keys; ids run 0..n-1. A negative
    ``n``, and one too large to be a list's length, raise :class:`ConfigError`."""
    if n < 0:
        raise ConfigError(f"n must not be negative: {n}")
    if n > sys.maxsize:
        raise ConfigError(f"n must not exceed {sys.maxsize}: {n}")
    keys = sorted(mix)
    weights = [float(mix[k]) for k in keys]
    bad = [k for k, w in zip(keys, weights) if not (math.isfinite(w) and w >= 0)]
    if bad:
        raise ConfigError("mix weights must be finite and non-negative: " + ", ".join(bad))
    if not any(w > 0 for w in weights):
        raise EmptyMix("workload mix has no positive weight")
    # random.choices sums the weights left to right and needs a finite total.
    if not math.isfinite(list(accumulate(weights))[-1]):
        raise ConfigError("mix weights must be finite in total: " + ", ".join(keys))
    unknown = [k for k in keys if k not in spec.handlers]
    if unknown:
        raise ConfigError("mix keys without handlers: " + ", ".join(unknown))
    rng = random.Random(seed)
    chosen = rng.choices(keys, weights=weights, k=n)
    return list(map(tuple.__new__, repeat(Request), enumerate(chosen)))


def _percentile(ordered: list[float], q: float) -> float:
    """The ``q`` quantile of an ascending list, by linear interpolation
    between order statistics (Hyndman and Fan's type 7).

    The arithmetic is the reference one, to the bit: the virtual index is
    ``(n - 1) * q``; at or past the last element both neighbours are the
    last element, taken at index -1; and a weight of one half or more
    interpolates down from the upper neighbour.
    """
    last = len(ordered) - 1
    virtual = last * q
    if virtual >= last:
        below = above = -1
    else:
        below = math.floor(virtual)
        above = below + 1
    a, b = ordered[below], ordered[above]
    t = virtual - below
    if t >= 0.5:
        return b - (b - a) * (1 - t)
    return a + (b - a) * t


def summarize(table: LatencyTable, served_only: bool = False) -> LatencyStats:
    """Latency statistics of a session's table, or of its served records
    only; percentiles use linear interpolation between order statistics, so
    e.g. the p50 of [1, 2, 3, 4] is 2.5. The latencies, and so the
    cumulative series, run in record order, the order the session ran its
    requests. Only the two time columns are read, and the outcomes for
    ``served_only``."""
    first_ms, completion_ms = table.first_ms, table.completion_ms
    if served_only and table.outcomes.count("served") != len(table):
        served = list(map("served".__eq__, table.outcomes))
        first_ms, completion_ms = compress(first_ms, served), compress(completion_ms, served)
    latencies = list(map(operator.sub, completion_ms, first_ms))
    if not latencies:
        raise EmptyRecords("no latency records to summarize")
    ordered = sorted(latencies)
    return LatencyStats(
        mean=math.fsum(latencies) / len(latencies),
        p50=_percentile(ordered, 0.5),
        p99=_percentile(ordered, 0.99),
        max=float(ordered[-1]),
        latencies=latencies,
    )


# A field of only these characters is never quoted, so it is written as it is.
_PLAIN_FIELD = re.compile(r"[A-Za-z0-9_.-]+")


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it amid other fields of a row.

    Written alone, an empty field would be quoted; the empty trailing field
    keeps it from being alone.
    """
    if isinstance(value, str) and _PLAIN_FIELD.fullmatch(value):
        return value
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([value, ""])
    return out.getvalue()[:-2]


def render_latency_csv(table: LatencyTable) -> str:
    """The latency CSV of a session's table, one row per record in record
    order, byte-identical to writing each row with ``csv.writer``. The
    table renders it with the cumulative CSV, in one pass, on first use
    (see ``LatencyTable._csv_texts``)."""
    return table._csv_texts[0]


def write_latency_csv(table: LatencyTable, path: str | Path) -> None:
    Path(path).write_text(render_latency_csv(table), encoding="utf-8")


def render_cumulative_csv(table: LatencyTable) -> str:
    """Running latency sum of a session's table in record order: the
    convergence-plot series. It is rendered with the latency CSV, in the
    same pass."""
    return table._csv_texts[1]


def write_cumulative_csv(table: LatencyTable, path: str | Path) -> None:
    Path(path).write_text(render_cumulative_csv(table), encoding="utf-8")
