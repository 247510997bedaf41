#!/usr/bin/env python3
"""Three-way latency comparison on one scenario.

Runs the same seeded workload through the learning system, an unhardened
deployment and a permanently hardened deployment, writes per-mode latency
and cumulative CSVs, and prints the means plus the index where the
learning system's cumulative curve drops below the hardened one.
"""

import argparse
from pathlib import Path

from timeloops.analysis import crossover
from timeloops.cli import _parse_mix, output_dir
from timeloops.controller import ControllerConfig, run_session
from timeloops.errors import TimeloopsError
from timeloops.simruntime import load_scenario, pick_service
from timeloops.workload import (
    generate_workload,
    summarize,
    write_cumulative_csv,
    write_latency_csv,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def run(args):
    spec = pick_service(load_scenario(args.scenario), args.service)
    workload = generate_workload(spec, args.n, args.seed, _parse_mix(args.mix))
    results = {mode: run_session(spec, workload, ControllerConfig(), mode=mode)
               for mode in ("timeloops", "unhardened", "hardened")}
    # Made once every session has run, so that a failed one leaves no new
    # directory.
    out = output_dir(args.out)

    stats = {}
    for mode, result in results.items():
        write_latency_csv(result.latency_records, out / f"latency_{mode}.csv")
        write_cumulative_csv(result.latency_records, out / f"cumulative_{mode}.csv")
        stats[mode] = summarize(result.latency_records)
        s = stats[mode]
        print(f"{mode:<11} mean={s.mean:8.3f}ms  p50={s.p50:8.3f}ms  "
              f"p99={s.p99:8.3f}ms  max={s.max:8.3f}ms")

    index = crossover(stats["timeloops"].cumulative, stats["hardened"].cumulative)
    if index is None:
        print("cumulative learning curve never crossed below the hardened curve")
    else:
        print(f"cumulative learning curve crosses below hardened at request {index}")
    print(f"CSV series written to {out}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=str(REPO_ROOT / "scenarios" / "staticsite.json"))
    parser.add_argument("--service", default=None)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--mix", default="home=8,search=1,upload=1")
    parser.add_argument("--out", default=str(REPO_ROOT / "out" / "latency_comparison"))
    args = parser.parse_args()
    try:
        run(args)
    except TimeloopsError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    main()
