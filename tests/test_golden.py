"""Byte-for-byte regression against committed ``simulate`` artifacts and
evaluation-command output.

Each directory under ``tests/golden/simulate`` holds the five artifacts of
one fixed run, named in ``RUNS`` by its scenario, mix and flags. A change
meant to alter them regenerates them with the command in ``_argv`` and
says so. Each file under ``tests/golden/cli`` is the stdout of the
``timeloops`` command named in ``CLI_RUNS``, run from the repository root,
or the JSON claim report on the bundled table.
"""

import pytest
from conftest import GOLDEN_DIR, SCENARIO_DIR

from timeloops.analysis import verify_paper_claims
from timeloops.cli import main

ARTIFACTS = ("latency.csv", "cumulative.csv", "session.json", "policy.log", "profile.json")

MIX = "home=8,search=1,upload=1"
ATTACK_MIX = MIX + ",probe-cat1=1,probe-cat2=1,probe-cat3=1,probe-cat4=1"

# run name -> (scenario file, mix, extra simulate flags)
RUNS = {
    "default": ("staticsite.json", MIX, []),
    "watchdog": ("staticsite.json", MIX, ["--oracle-mode", "watchdog"]),
    "podman": ("staticsite.json", MIX, ["--deny-preset", "podman"]),
    "hardened": ("staticsite.json", MIX, ["--mode", "hardened"]),
    "unhardened": ("staticsite.json", MIX, ["--mode", "unhardened"]),
    "pretrain": ("staticsite.json", MIX, ["--pretrain", "home,search"]),
    "attacks": ("staticsite_attacks.json", ATTACK_MIX, ["--deny-preset", "podman"]),
    "attacks_watchdog": ("staticsite_attacks.json", ATTACK_MIX,
                         ["--oracle-mode", "watchdog", "--deny-preset", "podman"]),
    "attacks_hardened": ("staticsite_attacks.json", ATTACK_MIX, ["--mode", "hardened"]),
    "attacks_watchdog70": ("staticsite_attacks.json", ATTACK_MIX,
                           ["--oracle-mode", "watchdog", "--watchdog-ms", "70",
                            "--deny-preset", "podman"]),
    "pretrain_watchdog": ("staticsite.json", MIX,
                          ["--oracle-mode", "watchdog", "--watchdog-ms", "100",
                           "--pretrain", "home"]),
    "hardened_pretrain": ("staticsite_attacks.json", ATTACK_MIX,
                          ["--mode", "hardened", "--pretrain", "home"]),
    "unhardened_pretrain": ("staticsite.json", MIX,
                            ["--mode", "unhardened", "--pretrain", "home,search",
                             "--deny-preset", "podman"]),
    "attacks_pretrain_watchdog70": ("staticsite_attacks.json", ATTACK_MIX,
                                    ["--oracle-mode", "watchdog", "--watchdog-ms", "70",
                                     "--deny-preset", "podman",
                                     "--pretrain", "home,search,home"]),
}


def _argv(run, out):
    scenario, mix, extra = RUNS[run]
    return ["simulate", "--scenario", str(SCENARIO_DIR / scenario),
            "--n", "300", "--seed", "7", "--mix", mix, *extra, "--out", str(out)]


@pytest.mark.parametrize("run", sorted(RUNS))
def test_simulate_artifacts_match_golden(tmp_path, run):
    assert main(_argv(run, tmp_path)) == 0
    golden = GOLDEN_DIR / "simulate" / run
    assert sorted(p.name for p in golden.iterdir()) == sorted(ARTIFACTS)
    for name in ARTIFACTS:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), f"{run}/{name}"


_SIM = "tests/golden/simulate/"
_ATTACKS = "scenarios/staticsite_attacks.json"

# golden file -> (timeloops argv, exit code)
CLI_RUNS = {
    "verify_paper.txt": (["verify-paper"], 1),
    "attack_scenarios_seed0.txt": (["attack-scenarios", "--scenario", _ATTACKS, "--seed", "0"], 0),
    "attack_scenarios_seed3.txt": (["attack-scenarios", "--scenario", _ATTACKS, "--seed", "3"], 0),
    "diff_default_hardened.txt": (
        ["diff", _SIM + "default/session.json", _SIM + "hardened/session.json"], 0),
    "diff_attacks_podman.txt": (
        ["diff", _SIM + "attacks/session.json", _SIM + "podman/session.json"], 0),
}


def test_evaluation_output_matches_golden(capsys, monkeypatch, table):
    monkeypatch.chdir(SCENARIO_DIR.parent)
    golden = GOLDEN_DIR / "cli"
    assert sorted(p.name for p in golden.iterdir()) == sorted([*CLI_RUNS, "claims.json"])
    for name, (argv, code) in CLI_RUNS.items():
        assert main(argv) == code, name
        assert capsys.readouterr().out.encode() == (golden / name).read_bytes(), name
    claims = verify_paper_claims(table).to_json().encode()
    assert claims == (golden / "claims.json").read_bytes()
