"""Byte-for-byte regression against committed ``simulate`` artifacts.

Each directory under ``tests/golden/simulate`` holds the five artifacts of
one fixed staticsite run. A change meant to alter them regenerates them
with the command in ``_argv`` and says so.
"""

import pytest
from conftest import GOLDEN_DIR, SCENARIO_DIR

from timeloops.cli import main

ARTIFACTS = ("latency.csv", "cumulative.csv", "session.json", "policy.log", "profile.json")

RUNS = {
    "default": [],
    "watchdog": ["--oracle-mode", "watchdog"],
    "podman": ["--deny-preset", "podman"],
}


def _argv(extra, out):
    return ["simulate", "--scenario", str(SCENARIO_DIR / "staticsite.json"),
            "--n", "300", "--seed", "7", "--mix", "home=8,search=1,upload=1",
            *extra, "--out", str(out)]


@pytest.mark.parametrize("run", sorted(RUNS))
def test_simulate_artifacts_match_golden(tmp_path, run):
    assert main(_argv(RUNS[run], tmp_path)) == 0
    golden = GOLDEN_DIR / "simulate" / run
    assert sorted(p.name for p in golden.iterdir()) == sorted(ARTIFACTS)
    for name in ARTIFACTS:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), f"{run}/{name}"
