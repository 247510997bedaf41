"""Retry-semantics client, workload generation and latency accounting.

Latency of a logical request is the elapsed virtual time between the
client first sending it and the client receiving a response, regardless
of how many retries that took. Requests rejected after an alert still get
a record, with a distinct outcome, so exploit traffic shows up in reports
without skewing the served statistics.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import random
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, compress, islice, repeat
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import AttemptsExhausted, ConfigError, EmptyMix, EmptyRecords
from .simruntime import ServiceSpec

OUTCOMES = ("served", "rejected_malicious")

LATENCY_CSV_HEADER = "logical_id,key,attempts,first_attempt_ms,completion_ms,latency_ms,outcome"


# Requests and latency records are tuple-backed: a long session makes one of
# each per logical request, and a tuple is far cheaper to build than a frozen
# dataclass. A session keeps its records in a LatencyTable's columns.

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


def _like(column, values: Iterable):
    """A column of ``column``'s type, holding ``values``."""
    new = column[:0]
    new.extend(values)
    return new


class LatencyTable(Sequence[LatencyRecord]):
    """Latency records as a read-only sequence of :class:`LatencyRecord`,
    ordered by logical id, in columns: ``ids``, ``first_ms`` and
    ``completion_ms`` are arrays, ``keys``, ``attempts`` and ``outcomes``
    lists.

    The records, or tuples of their fields, are transposed once, and sorted
    only if their ids are not already ascending; the sort is stable, so
    records that share an id keep their order. An id must fit in a signed
    64-bit integer, and the times are kept as floats.

    This is where records are checked, once, on the columns: attempts
    must be at least 1, a completion time must not precede its first
    attempt, and the outcome must be one of ``OUTCOMES``. Each failure is a
    ``ValueError``.
    """

    def __init__(self, records: Iterable[tuple] = ()):
        self._set(_transpose(records))
        if min(self.attempts, default=1) < 1:
            raise ValueError("attempts must be >= 1")
        # Not all(map(ge, ...)): a NaN time compares false, and is accepted.
        if any(map(operator.lt, self.completion_ms, self.first_ms)):
            raise ValueError("completion precedes first attempt")
        if not set(self.outcomes).issubset(OUTCOMES):
            unknown = next(o for o in self.outcomes if o not in OUTCOMES)
            raise ValueError(f"unknown outcome: {unknown!r}")
        ids = self.ids.tolist()
        if ids != sorted(ids):
            order = sorted(range(len(ids)), key=ids.__getitem__)
            self._set([_like(column, map(column.__getitem__, order))
                       for column in self._columns()])

    def _set(self, columns) -> None:
        self.ids, self.keys, self.attempts, self.first_ms, self.completion_ms, self.outcomes = columns

    def _columns(self) -> tuple:
        return self.ids, self.keys, self.attempts, self.first_ms, self.completion_ms, self.outcomes

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index: int) -> LatencyRecord:
        index = operator.index(index)
        return tuple.__new__(LatencyRecord, [column[index] for column in self._columns()])

    def __iter__(self):
        return map(partial(tuple.__new__, LatencyRecord), zip(*self._columns()))

    def served(self) -> LatencyTable:
        """The served records, in a table of their own."""
        if self.outcomes.count("served") == len(self):
            return self
        keep = list(map("served".__eq__, self.outcomes))
        served = LatencyTable()
        served._set([_like(column, compress(column, keep)) for column in self._columns()])
        return served


def _table(records: Sequence[LatencyRecord]) -> LatencyTable:
    return records if isinstance(records, LatencyTable) else LatencyTable(records)


@dataclass(frozen=True)
class LatencyStats:
    mean: float
    p50: float
    p99: float
    max: float
    cumulative: tuple[float, ...]


#: Attempts a logical request gets before its session fails with AttemptsExhausted.
MAX_ATTEMPTS = 16


def send_with_retry(request: Request, driver) -> LatencyRecord:
    """Reissue an identical request until served or rejected.

    The driver advances the shared virtual clock; a failed attempt (policy
    violation, oracle timeout) is retried immediately, up to
    ``MAX_ATTEMPTS`` attempts. An alert ends the request as
    rejected_malicious rather than retrying forever. The record is checked
    by the session's table.
    """
    first_attempt_ms = driver.now
    for attempt in range(1, MAX_ATTEMPTS + 1):
        outcome = driver.attempt(request)
        if outcome is not None:
            return tuple.__new__(LatencyRecord, (
                request.logical_id, request.key, attempt, first_attempt_ms, driver.now, outcome
            ))
    raise AttemptsExhausted(
        f"request {request.logical_id} ({request.key!r}) failed {MAX_ATTEMPTS} attempts"
    )


def generate_workload(
    spec: ServiceSpec, n: int, seed: int, mix: Mapping[str, float]
) -> list[Request]:
    """Seeded weighted sampling of request keys; ids run 0..n-1."""
    if not mix:
        raise EmptyMix("workload mix is empty")
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
    chosen = rng.choices(keys, weights=weights, k=n) if n > 0 else []
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


def summarize(records: Sequence[LatencyRecord]) -> LatencyStats:
    """Latency statistics; percentiles use linear interpolation between
    order statistics, so e.g. the p50 of [1, 2, 3, 4] is 2.5. The cumulative
    series runs in logical-id order."""
    if not records:
        raise EmptyRecords("no latency records to summarize")
    table = _table(records)
    latencies = list(map(operator.sub, table.completion_ms, table.first_ms))
    ordered = sorted(latencies)
    return LatencyStats(
        mean=math.fsum(latencies) / len(latencies),
        p50=_percentile(ordered, 0.5),
        p99=_percentile(ordered, 0.99),
        max=float(ordered[-1]),
        cumulative=tuple(accumulate(latencies, initial=0.0))[1:],
    )


def _csv_field(value) -> str:
    """``value`` as ``csv.writer`` writes it amid other fields of a row.

    Written alone, an empty field would be quoted; the empty trailing field
    keeps it from being alone.
    """
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([value, ""])
    return out.getvalue()[:-2]


def render_latency_csv(records: Sequence[LatencyRecord]) -> str:
    """The latency CSV, byte-identical to writing each row with ``csv.writer``.

    Only the key can need quoting; each distinct key is quoted once. A start
    time equal to its predecessor's completion time is written once, unless
    it is zero: ``repr`` tells -0.0 from 0.0, which compare equal. Each
    distinct positive latency is formatted once: as a dict key, -0.0 would
    find the text of 0.0, and a NaN would find nothing.
    """
    table = _table(records)
    keys: dict = {}
    latencies: dict = {}
    rows = [LATENCY_CSV_HEADER + "\n"]
    last = last_text = None
    for logical_id, key, attempts, first, completion, outcome in zip(*table._columns()):
        quoted = keys.get(key)
        if quoted is None:
            quoted = keys[key] = _csv_field(key)
        first_text = last_text if first == last and first else repr(first)
        last, last_text = completion, repr(completion)
        latency = completion - first
        if latency > 0:
            latency_text = latencies.get(latency)
            if latency_text is None:
                latency_text = latencies[latency] = repr(latency)
        else:
            latency_text = repr(latency)
        rows.append(f"{logical_id},{quoted},{attempts},{first_text},{last_text},"
                    f"{latency_text},{outcome}\n")
    return "".join(rows)


def write_latency_csv(records: Sequence[LatencyRecord], path: str | Path) -> None:
    Path(path).write_text(render_latency_csv(records), encoding="utf-8")


def render_cumulative_csv(records: Sequence[LatencyRecord]) -> str:
    """Running latency sum by request order: the convergence-plot series."""
    table = _table(records)
    rows = ["logical_id,cumulative_latency_ms\n"]
    total = 0.0
    for logical_id, first, completion in zip(table.ids, table.first_ms, table.completion_ms):
        total += completion - first
        rows.append(f"{logical_id},{total}\n")
    return "".join(rows)


def write_cumulative_csv(records: Sequence[LatencyRecord], path: str | Path) -> None:
    Path(path).write_text(render_cumulative_csv(records), encoding="utf-8")
