"""Whatever command line an entry point is given, it ends with its documented
exit code and a message, never a traceback, and a failed run leaves its
``--out`` as it was.

Each entry point runs in-process: ``timeloops`` through ``cli.main``, and
each script through its ``main`` with ``sys.argv`` patched. A command line
gives each option a valid value, except for at most two options, which draw
from the classes a user gets wrong: an int beyond ``sys.maxsize``, ``nan``,
``inf``, ``-inf``, an empty string, a duplicate key, a path that is missing,
a plain file or a directory. Any option may be left out or given twice.

Valid sizes are kept small: a valid ``--n`` is at most a few dozen. An
``--n`` that is representable but huge (such as 10**9) would build the
whole workload, so none is drawn and that case is untested. For the same
reason ``small_scope.py`` is given no ``--bound`` from 1 to its cap of 6,
since bound 1 alone takes about 0.4 s; it is given a bound above the cap,
which it refuses before it lists a trace.
"""

import importlib.util
import io
import shutil
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path
from unittest import mock

from conftest import GOLDEN_DIR, REPO_ROOT, SCENARIO_DIR
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from timeloops import catalog, cli
from timeloops.controller import ORACLE_MODES, SESSION_MODES


def _script(name):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SCRIPTS = {name: _script(name) for name in (
    "run_latency_comparison", "run_policy_comparison", "render_memory", "small_scope",
    "count_lines")}

# Paths made afresh for each command line.
MISSING, PLAIN_FILE, DIRECTORY = "missing", "plain file", "directory"
NOT_FINITE_OR_EMPTY = st.sampled_from(["nan", "inf", "-inf", ""])
MISTAKES = st.integers(min_value=sys.maxsize + 1, max_value=10**30).map(str) | NOT_FINITE_OR_EMPTY


def _values(valid, bad=st.nothing()):
    """An option's valid values, and the values a user gets wrong."""
    return valid.map(str), bad.map(str) | MISTAKES


def _paths(*good):
    return st.sampled_from(good), st.sampled_from([MISSING, PLAIN_FILE, DIRECTORY])


def _mix(keys, weights, unique=False):
    """A ``--mix`` of one to four ``key=weight`` entries."""
    pairs = st.lists(st.tuples(st.sampled_from(keys), weights), min_size=1, max_size=4,
                     unique_by=(lambda pair: pair[0]) if unique else None)
    return pairs.map(lambda pairs: ",".join(map("=".join, pairs)))


BENIGN = ["home", "search", "upload"]
KEYS = BENIGN + ["probe-cat1", "probe-cat4", "nope", ""]
SCENARIO = _paths(SCENARIO_DIR / "staticsite.json", SCENARIO_DIR / "staticsite_attacks.json")
ATTACKS = _paths(SCENARIO_DIR / "staticsite_attacks.json")
POLICY = _paths(GOLDEN_DIR / "simulate" / "default" / "session.json",
                GOLDEN_DIR / "simulate" / "podman" / "session.json")
FIXTURE = _paths(Path(resources.files("timeloops.data") / catalog.DEFAULT_FIXTURE))
OUT = st.sampled_from([MISSING, DIRECTORY]), st.just(PLAIN_FILE)
N = _values(st.integers(min_value=1, max_value=40), st.integers(min_value=-2, max_value=0))
SEED = _values(st.integers(min_value=0, max_value=2**70), st.integers(min_value=-2, max_value=-1))
SERVICE = _values(st.just("staticsite"), st.just("nope"))
WATCHDOG_MS = _values(st.sampled_from(["3000", "10000", "1e308"]),
                      st.sampled_from(["30", "0", "-1"]))
PRETRAIN = _values(st.lists(st.sampled_from(BENIGN), max_size=2, unique=True).map(",".join),
                   st.lists(st.sampled_from(KEYS), min_size=1, max_size=3).map(",".join))
WEIGHTS = st.sampled_from(["1", "8", "0.5"])
# A wrong entry may repeat a key, name no handler, or hold no weight at all.
MIX = (_mix(BENIGN, WEIGHTS, unique=True),
       _mix(KEYS, WEIGHTS | MISTAKES | st.sampled_from(["0", "-1", "1e308"]))
       | st.lists(st.sampled_from(KEYS), min_size=1, max_size=3).map(",".join) | MISTAKES)
BOUND = (st.integers(min_value=-2, max_value=0) | st.integers(min_value=7, max_value=10**30)
         ).map(str) | NOT_FINITE_OR_EMPTY


def _choice(options):
    return _values(st.sampled_from(options))


# Each entry point's options, in order, as a flag (None for a positional
# argument) and its valid and wrong values.
TIMELOOPS = {
    "simulate": [
        ("--scenario", SCENARIO), ("--service", SERVICE), ("--n", N), ("--seed", SEED),
        ("--mix", MIX), ("--mode", _choice(SESSION_MODES)),
        ("--oracle-mode", _choice(ORACLE_MODES)), ("--watchdog-ms", WATCHDOG_MS),
        ("--deny-preset", _choice(("none", "podman"))), ("--pretrain", PRETRAIN),
        ("--out", OUT)],
    "diff": [(None, POLICY), (None, POLICY)],
    "export-seccomp": [(None, POLICY)],
    "verify-paper": [("--fixture", FIXTURE)],
    "attack-scenarios": [("--scenario", ATTACKS), ("--seed", SEED), ("--service", SERVICE)],
}
SCRIPT_OPTIONS = {
    "run_latency_comparison": [
        ("--scenario", SCENARIO), ("--service", SERVICE), ("--n", N), ("--seed", SEED),
        ("--mix", MIX), ("--out", OUT)],
    "run_policy_comparison": [
        ("--scenario", SCENARIO), ("--service", SERVICE), ("--n", N), ("--seed", SEED),
        ("--out", OUT)],
    "render_memory": [
        ("--scenario", SCENARIO), ("--n", N), ("--seed", SEED), ("--mix", MIX),
        ("--oracle-mode", _choice(ORACLE_MODES)), ("--watchdog-ms", WATCHDOG_MS),
        ("--deny-preset", _choice(("none", "podman")))],
    "small_scope": [("--bound", (BOUND, BOUND))],
    "count_lines": [(None, _paths(REPO_ROOT / "src" / "timeloops"))],
}
# Given on every command line: a script's default ``--out`` is in the
# repository, and ``small_scope.py``'s default bound takes about a minute.
ALWAYS = {None, "--out", "--bound"}
# The first words of the one line ``timeloops`` writes to stderr on a failure.
MESSAGES = ("error: ", "config error: ", "input error: ", "session did not converge: ",
            "output error: ")


def _make(value, work: Path) -> str:
    """``value`` as an argument; a path of a kind to make is made in ``work``."""
    if value not in (MISSING, PLAIN_FILE, DIRECTORY):
        return str(value)
    path = Path(tempfile.mkdtemp(dir=work)) / "p"
    if value == PLAIN_FILE:
        path.write_text("kept\n")
    elif value == DIRECTORY:
        path.mkdir()
        (path / "kept.txt").write_text("kept\n")
    return str(path)


def _argv(data, work, options) -> tuple[list[str], list[str], bool]:
    """A command line of ``options``, the ``--out`` paths it names, and
    whether it gives every option a valid value."""
    argv, outs = [], []
    wrong = data.draw(st.sets(st.sampled_from(range(len(options))), max_size=2))
    valid = not wrong
    for at, (flag, (good, bad)) in enumerate(options):
        times = data.draw(st.sampled_from([1, 1, 1, 2] if flag in ALWAYS else [0, 1, 1, 1, 2]))
        # A positional argument given twice is one too many.
        valid &= times == 1 if flag is None else times > 0
        for _ in range(times):
            text = _make(data.draw(bad if at in wrong else good), work)
            argv += [text] if flag is None else [flag, text]
            if flag == "--out":
                outs.append(text)
    return argv, outs, valid


def _state(path):
    """What ``path`` holds: None if it is missing, a file's bytes, or each
    file of a directory with its bytes."""
    path = Path(path)
    if path.is_dir():
        return {str(p.relative_to(path)): p.read_bytes() if p.is_file() else None
                for p in path.rglob("*")}
    return path.read_bytes() if path.exists() else None


def _run(entry, argv) -> tuple[int, str]:
    """Runs ``timeloops`` or a script in-process; its exit code and stderr."""
    stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            if entry == "timeloops":
                code = cli.main(argv)
            else:
                with mock.patch.object(sys, "argv", [f"{entry}.py", *argv]):
                    try:
                        code = SCRIPTS[entry].main() or 0
                    except SystemExit as exc:
                        code = exc.code
    finally:
        # A script that exits through its parser ends its process; here the
        # tracing render_memory.py started must be stopped by hand.
        tracemalloc.stop()
    return code, stderr.getvalue()


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), entry=st.sampled_from(sorted(TIMELOOPS) + sorted(SCRIPT_OPTIONS)))
def test_no_command_line_ends_in_a_traceback(tmp_path_factory, data, entry):
    work = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    try:
        argv, outs, valid = _argv(data, work, {**TIMELOOPS, **SCRIPT_OPTIONS}[entry])
        before = [_state(out) for out in outs]
        if entry in TIMELOOPS:
            code, err = _run("timeloops", [entry, *argv])
        else:
            code, err = _run(entry, argv)
        # The bundled table fails the size-delta claims.
        if valid and entry != "small_scope":
            assert code == (1 if entry == "verify-paper" else 0), err
        if code == 0:
            return
        assert "Traceback" not in err
        if entry not in TIMELOOPS:
            assert code == 2, err
            assert err.splitlines()[-1].startswith(f"{entry}.py: error: "), err
        elif not (entry == "verify-paper" and code == 1 and not err):
            assert code in (1, 2), err
            assert err.count("\n") == 1 and err.startswith(MESSAGES), err
        assert [_state(out) for out in outs] == before
    finally:
        shutil.rmtree(work)
