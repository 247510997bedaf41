#!/usr/bin/env python3
"""Wall time and memory of each `simulate` renderer, for one session.

First it prints, for the scenario, its syscall-name occurrences against its
distinct names, and the wall time of the process's first `load_scenario`
with the collector passes during it. That load validates each distinct name
once and runs with the collector on, as a load outside `simulate` does.

Then it loads the scenario again and runs one session as `timeloops
simulate` does, and renders its artifacts one at a time:
`SessionResult.to_json`, the latency and cumulative CSVs and
`export_seccomp`. It prints what the loaded spec holds (less the names,
which the first load interned and keeps) and, with the spec freed as
`simulate` frees it, what is held after the session. For each renderer it
prints the output size, the best wall time of three renders with tracing
off, and the tracemalloc peak above what was held before the render, that
is, what the render adds to the process peak.

A latency table renders both CSVs in one pass and keeps the texts, so a
second render of the same table costs nothing. The `csv_pass` row runs
that pass without keeping its texts on the session's table, so each
render pays for it; its output size is that of both texts.

    python3 scripts/render_memory.py --scenario S --n N [--seed K] [--mix key=w,...]
                                     [--oracle-mode single|watchdog] [--watchdog-ms MS]
                                     [--deny-preset none|podman]
"""

import argparse
import gc
import time
import timeit
import tracemalloc
from collections import Counter

from timeloops.catalog import load_default_fixture, podman_default_deny, read_input
from timeloops.cli import _default_mix, _parse_mix
from timeloops.controller import ORACLE_MODES, ControllerConfig, run_session
from timeloops.errors import TimeloopsError
from timeloops.policy import export_seccomp
from timeloops.simruntime import load_scenario
from timeloops.workload import LatencyTable, generate_workload

MB = 2**20


def name_counts(path) -> tuple[int, int]:
    """The syscall-name occurrences in a scenario file, and its distinct names."""
    names = []
    for service in read_input(path)["services"]:
        names += service.get("static_universe", []) + service.get("oracle_extra", [])
        for handler in service["handlers"].values():
            names += handler.get("trace", []) + (handler.get("exploit") or {}).get("injected", [])
    return len(names), len(set(names))


def first_load(path) -> tuple[float, Counter]:
    """The wall time of loading ``path``, and the collector passes during it
    by generation."""
    passes = Counter()

    def started(phase, info):
        if phase == "start":
            passes[info["generation"]] += 1

    gc.callbacks.append(started)
    try:
        start = time.perf_counter()
        specs = load_scenario(path)
        elapsed = time.perf_counter() - start
    finally:
        gc.callbacks.remove(started)
    del specs
    return elapsed, passes


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--n", type=int, required=True, help="number of logical requests")
    parser.add_argument("--seed", type=int, default=0, help="workload sampling seed")
    parser.add_argument("--mix", default=None, help="key=weight[,key=weight...] request mix")
    parser.add_argument("--oracle-mode", choices=ORACLE_MODES, default=ControllerConfig.oracle_mode)
    parser.add_argument("--watchdog-ms", type=float, default=ControllerConfig.watchdog_ms)
    parser.add_argument("--deny-preset", choices=("none", "podman"), default="none")
    args = parser.parse_args()

    try:
        load_s, passes = first_load(args.scenario)
    except TimeloopsError as exc:
        parser.error(str(exc))
    # The file loaded, so it is well formed.
    occurrences, distinct = name_counts(args.scenario)
    print(f"scenario: {occurrences} name occurrences, {distinct} distinct names; first load "
          f"{load_s * 1e3:.1f} ms with {sum(passes.values())} collector passes (by generation "
          f"0/1/2: {passes[0]}/{passes[1]}/{passes[2]})")

    tracemalloc.start()
    try:
        spec = load_scenario(args.scenario)[0]
        loaded = tracemalloc.get_traced_memory()[0]
        deny = frozenset()
        if args.deny_preset == "podman":
            deny = podman_default_deny(load_default_fixture())
        config = ControllerConfig(oracle_mode=args.oracle_mode, watchdog_ms=args.watchdog_ms,
                                  deny=deny)
        mix = _parse_mix(args.mix) if args.mix is not None else _default_mix(spec)
        requests = generate_workload(spec, args.n, args.seed, mix)
        result = run_session(spec, requests, config)
    except TimeloopsError as exc:
        parser.error(str(exc))
    del spec, requests
    held = tracemalloc.get_traced_memory()[0]
    renders = {
        "to_json": result.to_json,
        "csv_pass": lambda: LatencyTable._csv_texts.func(result.latency_records),
        "export_seccomp": lambda: export_seccomp(result.final_policy),
    }
    measured = {}
    for name, render in renders.items():
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        output = render()
        size = sum(map(len, output)) if isinstance(output, tuple) else len(output)
        measured[name] = size, tracemalloc.get_traced_memory()[1] - before
        del output
    tracemalloc.stop()

    print(f"held by the loaded spec: {loaded / MB:.2f} MB; held after the session: "
          f"{held / MB:.2f} MB ({len(result.transition_trace)} transitions, "
          f"{len(result.latency_records)} records)")
    print(f"{'renderer':<16} {'out_mb':>8} {'wall_ms':>8} {'peak_mb':>8} {'peak/out':>8}")
    for name, render in renders.items():
        size, peak = measured[name]
        wall = min(timeit.repeat(render, number=1, repeat=3))
        print(f"{name:<16} {size / MB:>8.2f} {wall * 1e3:>8.1f} {peak / MB:>8.2f} "
              f"{peak / size:>8.2f}")


if __name__ == "__main__":
    main()
