#!/usr/bin/env python3
"""Build the three policy generators for one scenario and compare them.

Learns a policy by running a full benign session, derives the static and
naive-dynamic baselines for the same service, prints the pairwise
comparison with CVE annotations from the bundled table, and writes a
seccomp profile per policy.
"""

import argparse
from pathlib import Path

from timeloops.analysis import compare, dynamic_baseline, static_baseline
from timeloops.catalog import load_default_fixture
from timeloops.cli import output_dir
from timeloops.controller import ControllerConfig, run_session
from timeloops.errors import TimeloopsError
from timeloops.policy import export_seccomp
from timeloops.simruntime import load_scenario, pick_service
from timeloops.workload import default_mix, generate_workload

REPO_ROOT = Path(__file__).resolve().parent.parent


def run(args):
    spec = pick_service(load_scenario(args.scenario), args.service)
    mix = default_mix(spec)
    workload = generate_workload(spec, args.n, args.seed, mix)
    session = run_session(spec, workload, ControllerConfig())
    # Made after the session, so that a failed session leaves no new
    # directory, and before the report, so that a run that cannot write
    # prints none.
    out = output_dir(args.out)

    policies = [
        ("static", static_baseline(spec)),
        ("learned", session.final_policy),
        ("dynamic", dynamic_baseline(spec, sorted(mix))),
    ]
    report = compare(policies, table=load_default_fixture())
    print(report.to_text())

    for name, policy in policies:
        (out / f"profile_{name}.json").write_bytes(export_seccomp(policy))
    print(f"seccomp profiles written to {out}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=str(REPO_ROOT / "scenarios" / "staticsite.json"))
    parser.add_argument("--service", default=None)
    parser.add_argument("--n", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=str(REPO_ROOT / "out" / "policy_comparison"))
    args = parser.parse_args()
    try:
        run(args)
    except TimeloopsError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    main()
