#!/usr/bin/env python3
"""Wall time and memory of each `simulate` renderer, for one session.

Runs one session as `timeloops simulate` does, then renders its artifacts
one at a time: `SessionResult.to_json`, the latency and cumulative CSVs and
`export_seccomp`. For each it prints the output size, the best wall time of
three renders with tracing off, and the tracemalloc peak above what was
held before the render, that is, what the render adds to the process peak.

    python3 scripts/render_memory.py --scenario S --n N [--seed K] [--mix key=w,...]
                                     [--oracle-mode single|watchdog]
"""

import argparse
import timeit
import tracemalloc

from timeloops.cli import _default_mix, _parse_mix
from timeloops.controller import ControllerConfig, run_session
from timeloops.errors import TimeloopsError
from timeloops.policy import export_seccomp
from timeloops.simruntime import load_scenario
from timeloops.workload import generate_workload, render_cumulative_csv, render_latency_csv

MB = 2**20


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--n", type=int, required=True, help="number of logical requests")
    parser.add_argument("--seed", type=int, default=0, help="workload sampling seed")
    parser.add_argument("--mix", default=None, help="key=weight[,key=weight...] request mix")
    parser.add_argument("--oracle-mode", choices=("single", "watchdog"), default="single")
    args = parser.parse_args()

    try:
        spec = load_scenario(args.scenario)[0]
        mix = _parse_mix(args.mix) if args.mix else _default_mix(spec)
        requests = generate_workload(spec, args.n, args.seed, mix)
    except TimeloopsError as exc:
        parser.error(str(exc))
    config = ControllerConfig(
        oracle_mode="until_watchdog" if args.oracle_mode == "watchdog" else "single_request")
    tracemalloc.start()
    result = run_session(spec, requests, config)
    del requests
    held = tracemalloc.get_traced_memory()[0]
    renders = {
        "to_json": result.to_json,
        "latency_csv": lambda: render_latency_csv(result.latency_records),
        "cumulative_csv": lambda: render_cumulative_csv(result.latency_records),
        "export_seccomp": lambda: export_seccomp(result.final_policy),
    }
    measured = {}
    for name, render in renders.items():
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        size = len(render())
        measured[name] = size, tracemalloc.get_traced_memory()[1] - before
    tracemalloc.stop()

    print(f"held after the session: {held / MB:.2f} MB "
          f"({len(result.transition_trace)} transitions, {len(result.latency_records)} records)")
    print(f"{'renderer':<16} {'out_mb':>8} {'wall_ms':>8} {'peak_mb':>8} {'peak/out':>8}")
    for name, render in renders.items():
        size, peak = measured[name]
        wall = min(timeit.repeat(render, number=1, repeat=3))
        print(f"{name:<16} {size / MB:>8.2f} {wall * 1e3:>8.1f} {peak / MB:>8.2f} "
              f"{peak / size:>8.2f}")


if __name__ == "__main__":
    main()
