import errno
import gc
import json
import os
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import pytest
from conftest import GOLDEN_DIR, REPO_ROOT, SCENARIO_DIR, fixture_csv

from timeloops import cli, controller, errors, workload
from timeloops.catalog import load_default_fixture
from timeloops.cli import main
from timeloops.controller import ORACLE_MODES, ControllerConfig, SessionResult, run_session
from timeloops.simruntime import load_scenario, pick_service
from timeloops.workload import MAX_ATTEMPTS, generate_workload

STATICSITE = str(SCENARIO_DIR / "staticsite.json")
ATTACKS = str(SCENARIO_DIR / "staticsite_attacks.json")

SIM_FLAGS = ["--n", "80", "--seed", "7", "--mix", "home=8,search=1,upload=1"]


def _simulate(out_dir, extra=()):
    return main(["simulate", "--scenario", STATICSITE, *SIM_FLAGS,
                 "--mode", "timeloops", "--out", str(out_dir), *extra])


def test_simulate_writes_all_artifacts(tmp_path):
    out = tmp_path / "run"
    assert _simulate(out) == 0
    for name in ("latency.csv", "cumulative.csv", "session.json", "policy.log", "profile.json"):
        assert (out / name).exists(), name
    session = json.loads((out / "session.json").read_text())
    assert session["consultations"] == 3
    assert session["final_policy"]["epoch"] == 3


def test_simulate_is_byte_deterministic(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert _simulate(first) == 0
    assert _simulate(second) == 0
    for name in ("latency.csv", "cumulative.csv", "session.json", "policy.log", "profile.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_hardened_mode_is_slower_than_unhardened(tmp_path):
    out_u = tmp_path / "unhardened"
    out_h = tmp_path / "hardened"
    assert main(["simulate", "--scenario", STATICSITE, *SIM_FLAGS,
                 "--mode", "unhardened", "--out", str(out_u)]) == 0
    assert main(["simulate", "--scenario", STATICSITE, *SIM_FLAGS,
                 "--mode", "hardened", "--out", str(out_h)]) == 0

    def mean(path):
        rows = path.read_text().splitlines()[1:]
        values = [float(r.split(",")[5]) for r in rows]
        return sum(values) / len(values)

    assert mean(out_h / "latency.csv") > mean(out_u / "latency.csv")


def test_simulate_watchdog_oracle_mode(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--scenario", STATICSITE, *SIM_FLAGS,
                 "--oracle-mode", "watchdog", "--watchdog-ms", "100",
                 "--out", str(out)])
    assert code == 0
    session = json.loads((out / "session.json").read_text())
    events = [t["event"] for t in session["transitions"]]
    # tight budget: the oracle is cut off either between or during requests
    assert "watchdog_fired" in events or "oracle_finished:watchdog_timeout" in events
    # both learning modes converge to the same allow-list
    assert session["final_policy"]["allow"] == sorted(
        {"accept", "recvfrom", "stat", "openat", "fstat", "mmap", "read", "close",
         "poll", "setsockopt", "clock_gettime", "write", "sendto", "writev",
         "epoll_wait", "munmap", "shutdown", "getpid", "getdents", "lstat",
         "pread64", "pipe", "socketpair", "umask", "mkdir", "pwrite64", "rename",
         "utimes", "sigaltstack", "madvise", "readlink"}
    )


@pytest.mark.parametrize("oracle_mode", ORACLE_MODES)
def test_each_oracle_mode_choice_is_the_config_value(tmp_path, monkeypatch, oracle_mode):
    configs = []

    def session(spec, requests, config, mode):
        configs.append(config)
        return run_session(spec, requests, config, mode)

    monkeypatch.setattr(cli, "run_session", session)
    assert _simulate(tmp_path, ["--oracle-mode", oracle_mode]) == 0
    assert [config.oracle_mode for config in configs] == [oracle_mode]


def test_an_unknown_service_exits_1_naming_the_services(tmp_path, capsys):
    # The scenario is well formed; only the choice of service is wrong.
    for argv in (["simulate", "--scenario", STATICSITE, "--out", str(tmp_path / "out")],
                 ["attack-scenarios", "--scenario", ATTACKS]):
        assert main([*argv, "--service", "nope"]) == 1
        assert capsys.readouterr().err == (
            "config error: no service named 'nope' in scenario; it has: staticsite\n")
    assert not (tmp_path / "out").exists()


def test_simulate_with_podman_preset_and_pretrain(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--scenario", STATICSITE, *SIM_FLAGS,
                 "--deny-preset", "podman", "--pretrain", "home,search,upload",
                 "--out", str(out)])
    assert code == 0
    session = json.loads((out / "session.json").read_text())
    assert session["consultations"] == 0
    assert session["final_policy"]["deny"] == ["clock_settime"]


def test_simulate_usage_errors_exit_1(tmp_path):
    assert main(["simulate", "--scenario", STATICSITE, "--mix", "nonsense",
                 "--out", str(tmp_path)]) == 1
    assert main(["simulate", "--scenario", STATICSITE, "--mix", "nokey=1",
                 "--out", str(tmp_path)]) == 1


def test_an_empty_mix_item_is_skipped():
    assert cli._parse_mix("home=1,,search=1") == {"home": 1.0, "search": 1.0}


@pytest.mark.parametrize("mix, message", [
    ("home=x", "malformed mix weight in 'home=x'"),
    (",", "empty mix"),
    ("", "empty mix"),
])
def test_a_malformed_mix_exits_1_naming_the_problem(tmp_path, capsys, mix, message):
    assert main(["simulate", "--scenario", STATICSITE, "--mix", mix,
                 "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "run").exists()


def test_an_empty_workload_exits_1_naming_the_problem(tmp_path, capsys):
    assert main(["simulate", "--scenario", STATICSITE, "--n", "0",
                 "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "config error: workload must not be empty\n"
    assert not (tmp_path / "run").exists()


def test_a_negative_workload_size_exits_1_naming_it(tmp_path, capsys):
    assert main(["simulate", "--scenario", STATICSITE, "--n", "-3",
                 "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == "config error: n must not be negative: -3\n"
    assert not (tmp_path / "run").exists()


# Larger than any list can hold, so no workload of this size is drawn. A
# representable but huge size would allocate the whole workload, and is not
# tested.
_UNREPRESENTABLE_N = "99999999999999999999"


def test_an_unrepresentable_workload_size_exits_1_naming_it(tmp_path, capsys):
    assert main(["simulate", "--scenario", STATICSITE, "--n", _UNREPRESENTABLE_N,
                 "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == (
        f"config error: n must not exceed {sys.maxsize}: {_UNREPRESENTABLE_N}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["simulate", "--scenario", STATICSITE], id="simulate"),
    pytest.param(["attack-scenarios", "--scenario", ATTACKS], id="attack-scenarios"),
])
def test_a_negative_seed_exits_1_naming_it(tmp_path, capsys, argv):
    # random.seed takes a negative seed's absolute value, so -5 would
    # silently repeat the workload of 5.
    out = ["--out", str(tmp_path / "run")] if argv[0] == "simulate" else []
    assert main([*argv, "--seed", "-5", *out]) == 1
    assert capsys.readouterr() == ("", "config error: seed must not be negative: -5\n")
    assert not (tmp_path / "run").exists()


def test_a_service_with_no_benign_handler_needs_a_mix(tmp_path, capsys):
    scenario = json.loads((SCENARIO_DIR / "staticsite_attacks.json").read_text())
    handlers = scenario["services"][0]["handlers"]
    for key in ("home", "search", "upload"):
        del handlers[key]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err == "config error: service 'staticsite' has no benign handlers\n"


def test_simulate_service_writes_the_named_service_artifacts(tmp_path, capsys):
    first = json.loads((SCENARIO_DIR / "staticsite.json").read_text())["services"][0]
    other = {**first, "name": "other", "handlers": {"home": first["handlers"]["home"]}}
    (tmp_path / "both.json").write_text(json.dumps({"services": [first, other]}))
    (tmp_path / "other.json").write_text(json.dumps({"services": [other]}))
    assert main(["simulate", "--scenario", str(tmp_path / "both.json"), "--service", "other",
                 "--n", "20", "--out", str(tmp_path / "picked")]) == 0
    assert "service=other " in capsys.readouterr().out
    assert main(["simulate", "--scenario", str(tmp_path / "other.json"),
                 "--n", "20", "--out", str(tmp_path / "alone")]) == 0
    assert main(["simulate", "--scenario", str(tmp_path / "both.json"),
                 "--n", "20", "--out", str(tmp_path / "first")]) == 0
    picked = _entries(tmp_path / "picked")
    assert picked == _entries(tmp_path / "alone")
    assert picked["profile.json"] != _entries(tmp_path / "first")["profile.json"]


def test_duplicate_mix_key_exits_1_naming_it(tmp_path, capsys):
    assert main(["simulate", "--scenario", STATICSITE, "--mix", "home=1,search=2,home=3",
                 "--out", str(tmp_path / "run")]) == 1
    assert "duplicate mix key: 'home'" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_session_that_does_not_converge_exits_1(tmp_path, capsys):
    # Every staticsite handler's oracle run outlasts a 30 ms watchdog.
    assert main(["simulate", "--scenario", STATICSITE, *SIM_FLAGS, "--watchdog-ms", "30",
                 "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == (
        f"session did not converge: request 0 ('home') failed {MAX_ATTEMPTS} attempts\n")


def test_pretrain_conflicting_with_deny_exits_1(tmp_path, capsys):
    # home's trace is benign, so force a collision through a custom fixture
    # whose podman complement contains a syscall the pretrain set needs
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({
        "services": [{
            "name": "svc",
            "static_universe": ["read", "clock_settime"],
            "handlers": {"r": {"trace": ["read", "clock_settime"], "response": "ok"}},
        }],
    }))
    assert main(["simulate", "--scenario", str(scenario), "--deny-preset", "podman",
                 "--pretrain", "r", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "config error: pretrain request 'r': denied syscalls: clock_settime\n")
    assert not (tmp_path / "out").exists()


def test_unknown_pretrain_key_exits_1_in_a_baseline_mode(tmp_path):
    assert main(["simulate", "--scenario", ATTACKS, "--mode", "hardened",
                 "--pretrain", "nosuch", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize("under", [False, True])
def test_simulate_out_that_cannot_be_created_exits_1(tmp_path, capsys, under):
    taken = tmp_path / "file"
    taken.write_text("")
    out = taken / "out" if under else taken
    assert _simulate(out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {out}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "artifact", ["latency.csv", "cumulative.csv", "session.json", "policy.log", "profile.json"])
def test_simulate_artifact_that_cannot_be_written_exits_1(tmp_path, capsys, artifact):
    (tmp_path / artifact).mkdir()
    assert _simulate(tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write artifact {tmp_path / artifact}: ")
    assert err.count("\n") == 1


def _no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def _entries(directory):
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


@pytest.mark.parametrize("owner, writer, artifact", [
    (SessionResult, "write_json", "session.json"),
    (workload, "write_latency_csv", "latency.csv"),
    (workload, "write_cumulative_csv", "cumulative.csv"),
    (cli, "save_log", "policy.log"),
    (cli, "export_seccomp", "profile.json"),
    (None, None, "latency.csv"),  # a directory in the artifact's place
])
def test_a_failed_simulate_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, owner, writer,
                                                artifact):
    assert _simulate(tmp_path) == 0
    assert sorted(_entries(tmp_path)) == sorted(
        ["session.json", "latency.csv", "cumulative.csv", "policy.log", "profile.json"])
    if owner is None:
        (tmp_path / artifact).unlink()
        (tmp_path / artifact).mkdir()
    else:
        monkeypatch.setattr(owner, writer, _no_space)
    before = _entries(tmp_path)
    # A run that would write different bytes to every artifact.
    assert _simulate(tmp_path, ["--n", "300", "--seed", "2", "--deny-preset", "podman"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write artifact {tmp_path / artifact}: ")
    assert _entries(tmp_path) == before


def test_simulate_that_cannot_make_its_staging_directory_leaves_out_as_it_was(
        tmp_path, capsys, monkeypatch):
    assert _simulate(tmp_path) == 0
    before = _entries(tmp_path)
    monkeypatch.setattr(tempfile, "mkdtemp", _no_space)
    assert _simulate(tmp_path, ["--n", "300", "--seed", "2"]) == 1
    err = capsys.readouterr().err
    assert err == (f"config error: cannot write to output directory {tmp_path}: "
                   f"{os.strerror(errno.ENOSPC)}\n")
    assert _entries(tmp_path) == before


@pytest.mark.parametrize("command", ["simulate", "diff", "export-seccomp"])
def test_input_path_under_a_regular_file_exits_2(tmp_path, capsys, command):
    (tmp_path / "file").write_text("")
    bad = str(tmp_path / "file" / "input.json")
    argv = {
        "simulate": ["simulate", "--scenario", bad, "--out", str(tmp_path / "out")],
        "diff": ["diff", bad, bad],
        "export-seccomp": ["export-seccomp", bad],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1


def test_simulate_holds_no_spec_while_it_renders(tmp_path, monkeypatch):
    specs, alive = [], []

    def picked(scenario, name):
        spec = pick_service(scenario, name)
        specs.append(weakref.ref(spec))
        return spec

    def rendered(result):
        alive.append(specs[0]() is not None)
        return to_json(result)

    to_json = SessionResult.to_json
    monkeypatch.setattr(cli, "pick_service", picked)
    monkeypatch.setattr(SessionResult, "to_json", rendered)
    assert _simulate(tmp_path) == 0
    assert alive == [False]


def _large_scenario(path):
    """A scenario of 200 handlers over 1,000 names, written to ``path``."""
    names = [f"call_{i}" for i in range(1000)]
    handlers = {f"h{i}": {"trace": names[5 * i:5 * i + 20]} for i in range(200)}
    path.write_text(json.dumps({"services": [
        {"name": "svc", "static_universe": names, "handlers": handlers}]}))
    return str(path)


def test_simulate_runs_no_collection_before_its_first_request(tmp_path, monkeypatch):
    passes, seen = [], {}
    send, session, render = workload.send_with_retry, cli.run_session, workload.write_latency_csv

    def look(when):
        seen.setdefault(when, (len(passes), gc.isenabled(), gc.get_freeze_count()))

    def first(request, driver):
        look("first_request")
        return send(request, driver)

    def ended(*args, **kwargs):
        result = session(*args, **kwargs)
        look("session_end")
        return result

    def rendered(records, path):
        look("render")
        return render(records, path)

    def started(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    monkeypatch.setattr(workload, "send_with_retry", first)
    monkeypatch.setattr(cli, "run_session", ended)
    monkeypatch.setattr(workload, "write_latency_csv", rendered)
    scenario = _large_scenario(tmp_path / "scenario.json")
    gc.collect()
    gc.callbacks.append(started)
    try:
        assert main(["simulate", "--scenario", scenario, "--n", "2000",
                     "--out", str(tmp_path / "out")]) == 0
    finally:
        gc.callbacks.remove(started)
    # No pass and nothing frozen from set-up to the session's end, which runs
    # with the collector paused; the renders run with it back on.
    assert seen["first_request"] == seen["session_end"] == (0, False, 0)
    assert seen["render"][1:] == (True, 0)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("extra, status", [
    ([], 0),
    (["--mix", "home=x"], 1),
    (["--watchdog-ms", "30"], 1),
    (["--service", "nosuch"], 1),
], ids=["served", "bad_mix", "no_convergence", "unknown_service"])
def test_simulate_leaves_the_collector_as_it_found_it(tmp_path, capsys, enabled, extra, status):
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(["simulate", "--scenario", STATICSITE, "--n", "20", *extra,
                     "--out", str(tmp_path / "out")]) == status
        assert gc.isenabled() is enabled and gc.get_freeze_count() == 0
    finally:
        gc.enable()


def test_a_name_with_a_final_line_break_exits_2(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"services": [
        {"name": "svc", "static_universe": ["read\n"], "handlers": {"r": {"trace": ["read\n"]}}}]}))
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps({"allow": ["read\n"]}))
    for argv in (["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "out")],
                 ["diff", str(policy), str(policy)],
                 ["export-seccomp", str(policy)]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("input error: ")
        assert "invalid syscall name" in captured.err and "'read\\n'" in captured.err
    assert not (tmp_path / "out").exists()


class _FullStdout:
    """A standard output whose every write fails as on a full device."""

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass

    @property
    def buffer(self):
        return self


@pytest.mark.parametrize("command", [
    "simulate", "diff", "export-seccomp", "verify-paper", "attack-scenarios"])
def test_a_failed_write_to_stdout_is_an_output_error(tmp_path, capsys, monkeypatch, command):
    policy = tmp_path / "p.json"
    policy.write_text(json.dumps({"allow": ["read"]}))
    argv = {
        "simulate": ["simulate", "--scenario", STATICSITE, "--out", str(tmp_path / "out")],
        "diff": ["diff", str(policy), str(policy)],
        "export-seccomp": ["export-seccomp", str(policy)],
        "verify-paper": ["verify-paper"],
        "attack-scenarios": ["attack-scenarios", "--scenario", ATTACKS],
    }[command]
    monkeypatch.setattr(sys, "stdout", _FullStdout())
    assert main(argv) == 1
    assert capsys.readouterr().err == f"output error: {os.strerror(errno.ENOSPC)}\n"


def test_session_json_written_in_slices_is_the_document(tmp_path):
    flags = ["--n", "5000", "--seed", "3", "--mix", "home=8,search=1,upload=1"]
    assert main(["simulate", "--scenario", STATICSITE, *flags, "--out", str(tmp_path)]) == 0
    spec = load_scenario(STATICSITE)[0]
    requests = generate_workload(spec, 5000, 3, {"home": 8, "search": 1, "upload": 1})
    doc = run_session(spec, requests, ControllerConfig()).to_json()
    # Several whole slices and a partial last one.
    assert len(doc) > 2 * controller._WRITE_CHARS and len(doc) % controller._WRITE_CHARS
    assert (tmp_path / "session.json").read_text(encoding="utf-8") == doc + "\n"


def test_the_base_class_of_an_error_decides_its_exit_code():
    package_errors = {value for value in vars(errors).values()
                      if isinstance(value, type) and issubclass(value, errors.TimeloopsError)}
    direct = {error for error in package_errors if error.__bases__ == (errors.TimeloopsError,)}
    assert direct == {errors.ConfigError, errors.ParseError, errors.AttemptsExhausted,
                      errors.IllegalTransition}
    assert issubclass(errors.DeniedSyscall, errors.ConfigError)
    assert issubclass(errors.EmptyRecords, errors.ParseError)


def test_simulate_missing_scenario_exits_2(tmp_path):
    assert main(["simulate", "--scenario", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path)]) == 2


def test_malformed_scenario_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path)]) == 2


def test_unknown_flag_exits_1(capsys):
    assert main(["simulate", "--bogus"]) == 1
    assert "error" in capsys.readouterr().err
    # Only verify-paper reads a comparison table other than the bundled one.
    assert main(["simulate", "--scenario", STATICSITE, "--fixture", "F"]) == 1
    assert main(["diff", "A", "B", "--fixture", "F"]) == 1
    assert capsys.readouterr().err.count("unrecognized arguments: --fixture F") == 2


def test_an_unreadable_scenario_exits_2(tmp_path, capsys, monkeypatch):
    def denied(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(Path, "read_text", denied)
    assert main(["simulate", "--scenario", STATICSITE, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"input error: scenario {STATICSITE}: [Errno 13] Permission denied: '{STATICSITE}'\n")
    assert not (tmp_path / "out").exists()


def test_diff_identical_files(tmp_path, capsys):
    policy = tmp_path / "p.json"
    policy.write_text(json.dumps({"allow": ["read", "write"], "deny": [], "epoch": 1}))
    assert main(["diff", str(policy), str(policy)]) == 0
    out = capsys.readouterr().out
    assert "0 only in A" in out
    assert "0 only in B" in out
    assert "2 in both" in out


def test_diff_session_files(tmp_path, capsys):
    out = tmp_path / "run"
    assert _simulate(out) == 0
    a = tmp_path / "a.json"
    a.write_text(json.dumps({"allow": ["read"], "deny": []}))
    assert main(["diff", str(a), str(out / "session.json")]) == 0
    text = capsys.readouterr().out
    assert "only in B" in text


def test_diff_malformed_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert main(["diff", str(bad), str(bad)]) == 2


def test_export_seccomp_exact_bytes(tmp_path, capsysbinary):
    policy = tmp_path / "p.json"
    policy.write_text(json.dumps({"allow": ["read", "write"], "epoch": 1}))
    assert main(["export-seccomp", str(policy)]) == 0
    out = capsysbinary.readouterr().out
    assert out == (GOLDEN_DIR / "profile_read_write.json").read_bytes()


@pytest.mark.parametrize("epoch", [2.5, "7", True])
def test_a_policy_file_epoch_must_be_a_json_integer(tmp_path, capsys, epoch):
    policy = tmp_path / "p.json"
    policy.write_text(json.dumps({"allow": ["read", "write"], "epoch": epoch}))
    assert main(["export-seccomp", str(policy)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {policy}: expected an integer") and err.count("\n") == 1


@pytest.mark.parametrize("corruption_index", [1.9, "1", True])
def test_a_non_integer_corruption_index_exits_2(tmp_path, capsys, corruption_index):
    scenario = json.loads((SCENARIO_DIR / "staticsite_attacks.json").read_text())
    scenario["services"][0]["handlers"]["probe-cat1"]["exploit"]["corruption_index"] = corruption_index
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    message = r"^handler 'probe-cat1': malformed exploit: expected an integer"
    with pytest.raises(errors.ScenarioError, match=message):
        load_scenario(path)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("input error: handler 'probe-cat1': malformed exploit: ")


COST_FIELDS = ("base_request_ms", "production_per_syscall_ms", "oracle_slowdown_factor",
               "restart_ms")


@pytest.mark.parametrize("value", [True, "2.5", None])
@pytest.mark.parametrize("field", COST_FIELDS)
def test_a_cost_that_is_not_a_json_number_exits_2(tmp_path, capsys, field, value):
    scenario = json.loads((SCENARIO_DIR / "staticsite.json").read_text())
    scenario["services"][0]["cost_model"][field] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    with pytest.raises(errors.ScenarioError, match=r"^malformed cost_model: expected a number"):
        load_scenario(path)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("input error: malformed cost_model: expected a number")


@pytest.mark.parametrize("field", COST_FIELDS)
def test_an_integer_cost_loads_as_a_float(tmp_path, field):
    scenario = json.loads((SCENARIO_DIR / "staticsite.json").read_text())
    scenario["services"][0]["cost_model"][field] = 3
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    cost = getattr(load_scenario(path)[0].cost_model, field)
    assert cost == 3.0 and type(cost) is float


@pytest.mark.parametrize("extra", [{"response": None}, {"response": 5}, {"response": ["a"]},
                                   {"response": "x"}, {}], ids=repr)
def test_a_handler_is_read_only_for_its_trace_and_exploit(tmp_path, extra):
    scenario = json.loads((SCENARIO_DIR / "staticsite_attacks.json").read_text())
    handlers = scenario["services"][0]["handlers"].values()
    for handler in handlers:
        handler.pop("response", None)
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(scenario))
    for handler in handlers:
        handler.update(extra)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert load_scenario(path) == load_scenario(bare)


def test_a_trace_name_outside_the_universe_is_an_error_even_if_injected(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"services": [{
        "name": "svc",
        "static_universe": ["read"],
        "handlers": {"r": {"trace": ["read", "mount"], "exploit": {
            "kind": "oracle_undetectable", "corruption_index": 1, "injected": ["mount"]}}},
    }]}))
    message = "handler 'r' uses syscalls outside the static universe: mount"
    with pytest.raises(errors.ScenarioError, match=f"^{message}$"):
        load_scenario(path)
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_export_seccomp_empty_policy_via_subprocess(tmp_path):
    policy = tmp_path / "p.json"
    policy.write_text(json.dumps({"allow": []}))
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "timeloops.cli", "export-seccomp", str(policy)],
        capture_output=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN_DIR / "profile_empty.json").read_bytes()


@pytest.mark.parametrize("script, files", [
    ("run_latency_comparison.py",
     [f"{kind}_{mode}.csv" for kind in ("latency", "cumulative")
      for mode in ("timeloops", "unhardened", "hardened")]),
    ("run_policy_comparison.py",
     [f"profile_{name}.json" for name in ("static", "learned", "dynamic")]),
])
def test_script_runs_and_writes_its_files(tmp_path, script, files):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / script), "--n", "30",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)


_PACKAGE_ERRORS = {
    "empty": (["--n", "0"], "workload must not be empty"),
    "negative_n": (["--n", "-2"], "n must not be negative: -2"),
    "missing_scenario": (["--scenario", "{missing}"],
                         "scenario {missing}: [Errno 2] No such file or directory: '{missing}'"),
    "unknown_service": (["--service", "nope"],
                        "no service named 'nope' in scenario; it has: staticsite"),
    "unrepresentable_n": (["--n", _UNREPRESENTABLE_N],
                          f"n must not exceed {sys.maxsize}: {_UNREPRESENTABLE_N}"),
    "negative_seed": (["--seed", "-5"], "seed must not be negative: -5"),
}


@pytest.mark.parametrize("script, args, message", [
    pytest.param(script, *case, id=f"{script[:-3]}-{name}")
    for script in ("run_latency_comparison.py", "run_policy_comparison.py")
    for name, case in _PACKAGE_ERRORS.items()
] + [
    pytest.param("run_latency_comparison.py", ["--mix", "home"],
                 "malformed mix entry: 'home' (want key=weight)",
                 id="run_latency_comparison-malformed_mix"),
])
def test_a_comparison_script_reports_a_package_error(tmp_path, script, args, message):
    missing = str(tmp_path / "missing.json")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / script),
         *(arg.format(missing=missing) for arg in args), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.endswith(f"{script}: error: {message.format(missing=missing)}\n")
    assert "Traceback" not in proc.stderr
    # No session ran to its end, so no output directory was made.
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("script", ["run_latency_comparison.py", "run_policy_comparison.py"])
def test_a_comparison_script_reports_an_output_directory_it_cannot_create(tmp_path, script):
    # Either script checks its output directory before it runs a session,
    # so it prints no report, and leaves the file in its place as it was.
    out = tmp_path / "out"
    out.write_text("kept\n")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / script), "--n", "30", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.endswith(
        f"{script}: error: cannot create output directory {out}: {os.strerror(errno.EEXIST)}\n")
    assert "Traceback" not in proc.stderr
    assert out.read_text() == "kept\n"


def test_render_memory_reports_each_renderer():
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "render_memory.py"),
         "--scenario", STATICSITE, "--n", "50", "--oracle-mode", "watchdog"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("scenario: 103 name occurrences, 43 distinct names; first load ")
    rows = [line.split()[0] for line in lines[3:]]
    assert rows == ["to_json", "csv_pass", "export_seccomp"]


def test_render_memory_reports_an_empty_mix():
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "render_memory.py"),
         "--scenario", STATICSITE, "--n", "50", "--mix", ""],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.endswith("error: empty mix\n")


def test_render_memory_reports_a_negative_seed():
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "render_memory.py"),
         "--scenario", STATICSITE, "--n", "50", "--seed", "-5"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 2
    assert proc.stderr.endswith("render_memory.py: error: seed must not be negative: -5\n")
    assert "Traceback" not in proc.stderr


def test_count_lines_skips_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "module.py").write_text(
        '"""A module docstring\nover two lines."""\n'
        "# a comment\n"
        "\n"
        "x = 1\n"
        "y = x + 1  # a trailing comment\n"
    )
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "count_lines.py"), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["module", "physical", "code"], ["module.py", "6", "2"], ["total", "6", "2"],
    ]


def test_verify_paper_reports_known_discrepancies(capsys):
    # Size-delta claims fail on the shipped table, so the exit code is 1.
    assert main(["verify-paper"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  nginx_sysfilter_minus_timeloops_size" in out
    assert "expected=40  actual=33" in out
    assert "expected=37  actual=24" in out
    assert "PASS  nginx_timeloops_minus_baseline_names" in out


def _all_pass_rows() -> list:
    """The shipped table's rows as ``(syscall, cve_cell, flags)``, padded
    with synthetic static-only rows until the size-delta claims match their
    reference values."""
    rows = [(row.syscall, row.cve or "", row.flags) for row in load_default_fixture().rows]
    for i in range(13):
        flags = {
            "nginx-sysfilter": i < 7,
            "composepost-sysfilter": True,
            "podman-default": True,
        }
        rows.append((
            f"synthetic_{i:02d}",
            "",
            tuple(flags.get(c, False) for c in
                  ("nginx-baseline", "nginx-timeloops", "nginx-sysfilter",
                   "composepost-baseline", "composepost-timeloops",
                   "composepost-sysfilter", "podman-default")),
        ))
    return rows


def test_verify_paper_exits_zero_when_all_claims_pass(tmp_path, capsys):
    fixture = tmp_path / "padded.csv"
    fixture.write_text(fixture_csv(_all_pass_rows()), encoding="utf-8")
    assert main(["verify-paper", "--fixture", str(fixture)]) == 0
    assert "all claims pass" in capsys.readouterr().out


def test_verify_paper_malformed_fixture_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("syscall,cve\nread,\n")
    assert main(["verify-paper", "--fixture", str(bad)]) == 2


def test_attack_scenarios_cli(capsys):
    assert main(["attack-scenarios", "--scenario", ATTACKS, "--seed", "0"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("cat1")
    assert "WEAKNESS" in lines[3]
    assert all("[ok]" in line for line in lines)


def test_attack_harness_runs_one_control_session_per_deny_list(monkeypatch):
    sessions = []

    def counting_run_session(spec, workload, config, *args, **kwargs):
        sessions.append((len(workload), config.deny))
        return run_session(spec, workload, config, *args, **kwargs)

    monkeypatch.setattr(cli, "run_session", counting_run_session)
    verdicts = cli.run_attack_scenarios(load_scenario(ATTACKS)[0], seed=0)
    deny = frozenset(verdicts[-1].deny)
    assert deny and all(not v.deny for v in verdicts[:-1])
    # A warm-up control per deny-list, then the warm-up plus one probe, five times.
    assert sorted(sessions, key=lambda s: (s[0], len(s[1]))) == [
        (8, frozenset()), (8, deny), *[(9, frozenset())] * 4, (9, deny)]


def test_attack_scenarios_missing_category_exits_2(tmp_path):
    # benign-only scenarios cannot drive the harness
    assert main(["attack-scenarios", "--scenario", STATICSITE]) == 2
