import csv
import io
from pathlib import Path

import pytest
from hypothesis import strategies as st

from timeloops.catalog import load_default_fixture
from timeloops.simruntime import CostModel, RequestBehavior, ServiceSpec, load_scenario
from timeloops.workload import Request

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# Disjoint name pools keep the generated deny-lists out of every trace, so
# the learned-policy closed form stays exact.
SYSCALL_POOL = [f"call_{i:02d}" for i in range(20)]
EXTRA_POOL = [f"extra_{i}" for i in range(4)]
DENY_POOL = [f"deny_{i}" for i in range(4)]

FIXTURE_HEADER = (
    "syscall,cve,nginx_baseline,nginx_timeloops,nginx_sysfilter,"
    "composepost_baseline,composepost_timeloops,composepost_sysfilter,podman_default"
)


#: the cost model ``make_spec`` builds a service with, unless told otherwise
COST = CostModel(base_request_ms=1.0, production_per_syscall_ms=1.0,
                 oracle_slowdown_factor=2.0, restart_ms=5.0)


def make_spec(handlers, extra=(), universe=None, cost=COST) -> ServiceSpec:
    """A service named "svc"; its static universe defaults to the union of
    the handlers' traces."""
    if universe is None:
        universe = set()
        for behavior in handlers.values():
            universe.update(behavior.trace)
    return ServiceSpec(name="svc", handlers=handlers, static_universe=frozenset(universe),
                       oracle_extra=frozenset(extra), cost_model=cost)


def requests(*keys) -> list[Request]:
    """A workload of ``keys``, in order, with logical ids from 0."""
    return [Request(logical_id=i, key=k) for i, k in enumerate(keys)]


def fixture_csv(rows) -> str:
    """A comparison-table CSV written with ``csv.writer``, one line per
    ``(syscall, cve_cell, flags)``."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(FIXTURE_HEADER.split(","))
    for syscall, cve_cell, flags in rows:
        writer.writerow([syscall, cve_cell] + ["1" if f else "0" for f in flags])
    return out.getvalue()


@pytest.fixture(scope="session", autouse=True)
def _unicode_tables():
    """Build Hypothesis's unicode tables before the first test. With an empty
    .hypothesis/ that takes seconds, which the first test to draw st.text()
    would count against its too_slow health check."""
    st.text().validate()


@pytest.fixture(scope="session")
def table():
    return load_default_fixture()


@pytest.fixture(scope="session")
def staticsite():
    return load_scenario(SCENARIO_DIR / "staticsite.json")[0]


@pytest.fixture(scope="session")
def attacks_spec():
    return load_scenario(SCENARIO_DIR / "staticsite_attacks.json")[0]


@st.composite
def service_specs(draw):
    """Benign random services; handler req0 always has a non-empty trace."""
    n_handlers = draw(st.integers(min_value=1, max_value=5))
    handlers = {}
    for i in range(n_handlers):
        trace = draw(
            st.lists(
                st.sampled_from(SYSCALL_POOL),
                min_size=1 if i == 0 else 0,
                max_size=8,
            )
        )
        handlers[f"req{i}"] = RequestBehavior(trace=tuple(trace))
    universe = set()
    for behavior in handlers.values():
        universe.update(behavior.trace)
    universe.update(draw(st.lists(st.sampled_from(SYSCALL_POOL), max_size=5)))
    extra = frozenset(draw(st.lists(st.sampled_from(EXTRA_POOL), max_size=3)))
    return ServiceSpec(
        name="generated",
        handlers=handlers,
        static_universe=frozenset(universe),
        oracle_extra=extra,
        cost_model=CostModel(
            base_request_ms=1.0,
            production_per_syscall_ms=1.0,
            oracle_slowdown_factor=2.5,
            restart_ms=10.0,
        ),
    )


@st.composite
def spec_workload_deny(draw):
    """A random service plus a workload that exercises every handler."""
    spec = draw(service_specs())
    keys = sorted(spec.handlers)
    coverage = draw(st.permutations(keys))
    extra_keys = draw(st.lists(st.sampled_from(keys), max_size=20))
    workload = [
        Request(logical_id=i, key=k) for i, k in enumerate(list(coverage) + extra_keys)
    ]
    deny = frozenset(draw(st.lists(st.sampled_from(DENY_POOL), max_size=2)))
    return spec, workload, deny
