"""Operator-facing command line: sessions, diffs, exports, claim checks.

Exit codes are a stable contract: 0 success, 1 usage, configuration or
output problem, 2 malformed input data. ``verify-paper`` additionally exits 1
when any claim fails, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from . import analysis, catalog, workload
from .controller import ORACLE_MODES, SESSION_MODES, ControllerConfig, SessionResult, run_session
from .errors import AttemptsExhausted, ConfigError, MissingCategory, ParseError
from .policy import SyscallPolicy, export_seccomp, save_log
from .simruntime import ServiceSpec, exploit_category, load_scenario, pick_service


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Usage problems are exit code 1 in this tool, not argparse's default 2.
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="timeloops", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one session and write its artifacts")
    sim.add_argument("--scenario", required=True, help="scenario JSON file")
    sim.add_argument("--service", default=None, help="service name (default: first)")
    sim.add_argument("--n", type=int, default=100, help="number of logical requests")
    sim.add_argument("--seed", type=int, default=0, help="workload sampling seed")
    sim.add_argument("--mix", default=None, help="key=weight[,key=weight...] request mix")
    sim.add_argument("--mode", choices=SESSION_MODES, default="timeloops")
    sim.add_argument("--oracle-mode", choices=ORACLE_MODES, default=ControllerConfig.oracle_mode,
                     help="the oracle serves one request, or every request until its watchdog")
    sim.add_argument("--watchdog-ms", type=float, default=ControllerConfig.watchdog_ms)
    sim.add_argument("--deny-preset", choices=("none", "podman"), default="none")
    sim.add_argument("--pretrain", default=None, help="key[,key...] pretraining requests")
    sim.add_argument("--out", default="./out", help="output directory")

    dif = sub.add_parser("diff", help="compare two policy files")
    dif.add_argument("policy_a")
    dif.add_argument("policy_b")

    exp = sub.add_parser("export-seccomp", help="print the seccomp profile of a policy file")
    exp.add_argument("policy")

    ver = sub.add_parser("verify-paper", help="check reference figures against the comparison table")
    ver.add_argument("--fixture", default=None, help="comparison-table CSV (default: bundled)")

    atk = sub.add_parser("attack-scenarios", help="run the four canonical attack categories")
    atk.add_argument("--scenario", required=True, help="scenario JSON with exploit handlers")
    atk.add_argument("--seed", type=int, default=0, help="warmup workload seed")
    atk.add_argument("--service", default=None, help="service name (default: first)")
    return parser


def _parse_mix(text: str) -> dict[str, float]:
    mix: dict[str, float] = {}
    for item in text.split(","):
        if not item:
            continue
        key, sep, weight = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"malformed mix entry: {item!r} (want key=weight)")
        if key in mix:
            raise ConfigError(f"duplicate mix key: {key!r}")
        try:
            mix[key] = float(weight)
        except ValueError:
            raise ConfigError(f"malformed mix weight in {item!r}") from None
    if not mix:
        raise ConfigError("empty mix")
    return mix


def _default_mix(spec: ServiceSpec) -> dict[str, float]:
    benign = spec.benign_handlers()
    if not benign:
        raise ConfigError(f"service {spec.name!r} has no benign handlers")
    return {key: 1.0 for key in benign}


def _load_policy_file(path: str) -> SyscallPolicy:
    obj = catalog.read_input(path)
    if isinstance(obj, dict) and "final_policy" in obj:
        obj = obj["final_policy"]
    if not isinstance(obj, dict) or "allow" not in obj:
        raise ParseError(f"{path}: expected an object with an 'allow' list")
    try:
        allow = frozenset(catalog.syscall_names(obj["allow"], "allow"))
        deny = frozenset(catalog.syscall_names(obj.get("deny", []), "deny"))
        return SyscallPolicy(epoch=catalog.json_int(obj.get("epoch", 0)), allow=allow, deny=deny)
    except (ParseError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


# Each command returns its exit status and what it prints; ``main`` prints it.

def cmd_simulate(args) -> tuple[int, str]:
    # The spec, the deny-list and the workload are tens of thousands of
    # objects for a large scenario, and none is part of a cycle. So the
    # collector is paused while they are built, and they are frozen out of
    # its scans while the session runs.
    enabled = gc.isenabled()
    gc.disable()
    try:
        specs = load_scenario(args.scenario)
        spec = pick_service(specs, args.service)
        deny = frozenset()
        if args.deny_preset == "podman":
            deny = catalog.podman_default_deny(catalog.load_default_fixture())
        pretrain_keys = tuple(k for k in args.pretrain.split(",") if k) if args.pretrain else ()
        config = ControllerConfig(
            oracle_mode=args.oracle_mode,
            watchdog_ms=args.watchdog_ms,
            deny=deny,
            pretrain_requests=pretrain_keys,
        )
        mix = _parse_mix(args.mix) if args.mix is not None else _default_mix(spec)
        requests = workload.generate_workload(spec, args.n, args.seed, mix)
        gc.freeze()
    finally:
        if enabled:
            gc.enable()
    try:
        result = run_session(spec, requests, config, mode=args.mode)
    finally:
        gc.unfreeze()
    # The summary needs only the name; the spec and the requests are freed
    # before the renders.
    service = spec.name
    del specs, spec, requests

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from exc
    writers = {
        # session.json is the largest artifact, so it is written first, while
        # the least else is held.
        "session.json": result.write_json,
        "latency.csv": lambda path: workload.write_latency_csv(result.latency_records, path),
        "cumulative.csv": lambda path: workload.write_cumulative_csv(result.latency_records, path),
        "policy.log": lambda path: save_log(result.policy_log, path),
        "profile.json": lambda path: path.write_bytes(export_seccomp(result.final_policy)),
    }
    # The artifacts are written into a new directory in ``out`` and moved
    # into place once all are written, so a failed write leaves ``out`` as it
    # was. A directory in an artifact's place would fail only its move.
    for name in writers:
        if (out / name).is_dir():
            raise ConfigError(f"cannot write artifact {out / name}: {os.strerror(errno.EISDIR)}")
    try:
        staging = Path(tempfile.mkdtemp(dir=out))
    except OSError as exc:
        raise ConfigError(f"cannot write to output directory {out}: {exc.strerror}") from exc
    try:
        for name, write in writers.items():
            write(staging / name)
        for name in writers:
            os.replace(staging / name, out / name)
    except OSError as exc:
        # An output problem, not malformed input: the inputs were all read.
        raise ConfigError(f"cannot write artifact {out / name}: {exc.strerror}") from exc
    finally:
        shutil.rmtree(staging, ignore_errors=True)

    records = result.latency_records
    served = records.outcomes.count("served")
    # Every mode writes one record per logical request.
    lines = [f"mode={args.mode} service={service} requests={len(records)} "
             f"consultations={result.consultations} alerts={len(result.alerts)} "
             f"policy_size={len(result.final_policy.allow)} epoch={result.final_policy.epoch}\n"]
    if served:
        stats = workload.summarize(records, served_only=True)
        lines.append(f"served={served} mean={stats.mean:.3f}ms p50={stats.p50:.3f}ms "
                     f"p99={stats.p99:.3f}ms max={stats.max:.3f}ms\n")
    lines.append(f"artifacts written to {out}\n")
    return 0, "".join(lines)


def cmd_diff(args) -> tuple[int, str]:
    a = _load_policy_file(args.policy_a)
    b = _load_policy_file(args.policy_b)
    table = catalog.load_default_fixture()
    report = analysis.compare([("A", a), ("B", b)], table=table)
    return 0, report.to_text()


def cmd_export_seccomp(args) -> tuple[int, bytes]:
    return 0, export_seccomp(_load_policy_file(args.policy))


def cmd_verify_paper(args) -> tuple[int, str]:
    if args.fixture is None:
        table = catalog.load_default_fixture()
    else:
        table = catalog.load_fixture(args.fixture)
    report = analysis.verify_paper_claims(table)
    return 0 if report.all_pass else 1, report.to_text()


# --- attack-scenario harness ---------------------------------------------------

@dataclass(frozen=True)
class CategoryVerdict:
    category: int
    key: str
    deny: tuple[str, ...]
    probe_outcome: str
    alerts: int
    exploit_syscalls_learned: tuple[str, ...]
    exploit_sourced_entries: int
    confined: bool
    as_expected: bool


def _pick_exploits(spec: ServiceSpec) -> dict[int, str]:
    by_category: dict[int, str] = {}
    for key in sorted(spec.handlers):
        if spec.handlers[key].exploit is None:
            continue
        by_category.setdefault(exploit_category(spec, key), key)
    missing = [c for c in (1, 2, 3, 4) if c not in by_category]
    if missing:
        raise MissingCategory(
            "scenario lacks exploits for categories: " + ", ".join(str(c) for c in missing)
        )
    return by_category


def _blocked(category: int, deny: frozenset[str] | tuple[str, ...]) -> bool:
    """Whether a probe of ``category`` must end rejected under ``deny``:
    category 1 always, category 4 only with its injected syscalls denied."""
    return category == 1 or (category == 4 and bool(deny))


def _run_probe(
    spec: ServiceSpec, warmup: list[workload.Request], control: SessionResult, category: int,
    key: str, deny: frozenset[str],
) -> CategoryVerdict:
    probe = workload.Request(logical_id=len(warmup), key=key)
    result = run_session(spec, warmup + [probe], ControllerConfig(deny=deny))

    injected = set(spec.handlers[key].exploit.injected)
    learned = tuple(sorted(injected & (result.final_policy.allow - control.final_policy.allow)))
    probe_entries = len(result.policy_log) - len(control.policy_log)
    record = result.latency_records[-1]
    effective = set(spec.handlers[key].effective_trace())
    confined = effective <= result.final_policy.allow

    if _blocked(category, deny):
        expected = (record.outcome == "rejected_malicious" and len(result.alerts) == 1
                    and probe_entries == 0 and not learned)
    elif category in (2, 3):
        expected = (record.outcome == "served" and not result.alerts
                    and probe_entries == 0 and confined
                    and result.final_policy.allow == control.final_policy.allow)
    else:  # category 4 without a deny-list: the documented weakness
        expected = (record.outcome == "served" and not result.alerts and probe_entries >= 1
                    and injected <= result.final_policy.allow)
    return CategoryVerdict(
        category=category,
        key=key,
        deny=tuple(sorted(deny)),
        probe_outcome=record.outcome,
        alerts=len(result.alerts),
        exploit_syscalls_learned=learned,
        exploit_sourced_entries=probe_entries,
        confined=confined,
        as_expected=expected,
    )


def run_attack_scenarios(spec: ServiceSpec, seed: int = 0) -> list[CategoryVerdict]:
    """Run one probe per attack category, plus the deny-list variant of
    category 4, each against a fresh session warmed up with benign traffic."""
    by_category = _pick_exploits(spec)
    warmup = workload.generate_workload(spec, 8, seed, _default_mix(spec))
    no_deny = frozenset()
    cat4_deny = frozenset(spec.handlers[by_category[4]].exploit.injected)
    # A control run without the probe, one per deny-list, isolates what the
    # exploit itself taught the policy; injected syscalls alone cannot tell
    # for categories 2 and 3, whose injections deliberately stay inside the
    # benign set.
    controls = {deny: run_session(spec, warmup, ControllerConfig(deny=deny))
                for deny in (no_deny, cat4_deny)}
    probes = [(1, no_deny), (2, no_deny), (3, no_deny), (4, no_deny), (4, cat4_deny)]
    return [_run_probe(spec, warmup, controls[deny], category, by_category[category], deny)
            for category, deny in probes]


def _verdict_line(v: CategoryVerdict) -> str:
    label = f"cat{v.category}"
    if v.category == 4:
        label += " (deny-list)" if v.deny else " (no deny-list)"
    if _blocked(v.category, v.deny):
        body = f"blocked, {v.alerts} alert(s), {v.exploit_sourced_entries} policy updates from exploit"
    elif v.category in (2, 3):
        body = f"confined, {v.alerts} alert(s), 0 policy growth, injected syscalls within allow-set"
    else:
        body = (f"WEAKNESS: policy grew, learned exploit syscalls "
                f"{', '.join(v.exploit_syscalls_learned) or '(none)'}")
    status = "ok" if v.as_expected else "UNEXPECTED"
    return f"{label} [{v.key}]: {body} [{status}]"


def cmd_attack_scenarios(args) -> tuple[int, str]:
    specs = load_scenario(args.scenario)
    spec = pick_service(specs, args.service)
    verdicts = run_attack_scenarios(spec, args.seed)
    return (0 if all(v.as_expected for v in verdicts) else 1,
            "".join(_verdict_line(v) + "\n" for v in verdicts))


_COMMANDS = {
    "simulate": cmd_simulate,
    "diff": cmd_diff,
    "export-seccomp": cmd_export_seccomp,
    "verify-paper": cmd_verify_paper,
    "attack-scenarios": cmd_attack_scenarios,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        status, output = _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    # Each loader reports an input path it cannot read as a ParseError, like
    # malformed bytes, so that a failed write is never taken for bad input.
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AttemptsExhausted as exc:
        print(f"session did not converge: {exc}", file=sys.stderr)
        return 1
    try:
        if isinstance(output, bytes):
            sys.stdout.buffer.write(output)
        else:
            sys.stdout.write(output)
        # A buffered write may fail only when it is flushed.
        sys.stdout.flush()
    except OSError as exc:
        print(f"output error: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
