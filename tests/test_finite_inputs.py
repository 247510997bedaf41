"""Non-finite floats are rejected wherever the program parses one.

NaN fails every comparison, so a NaN cost passed each range check and then
silently dropped its cost from the session; infinity is not a usable budget.
"""

import json
import math

import pytest
from conftest import SCENARIO_DIR

from timeloops.cli import main
from timeloops.controller import ControllerConfig
from timeloops.errors import ConfigError, ParseError, ScenarioError
from timeloops.policy import load_log
from timeloops.simruntime import CostModel, ServiceSpec, load_scenario
from timeloops.workload import generate_workload

COST_FIELDS = ("base_request_ms", "production_per_syscall_ms",
               "oracle_slowdown_factor", "restart_ms")
NON_FINITE = ("nan", "inf", "-inf")


def _scenario_with_cost(tmp_path, **cost):
    obj = json.loads((SCENARIO_DIR / "staticsite.json").read_text())
    obj["services"][0]["cost_model"].update(cost)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("field", COST_FIELDS)
@pytest.mark.parametrize("value", NON_FINITE)
def test_cost_model_rejects_non_finite_values(field, value):
    with pytest.raises(ScenarioError, match=field):
        CostModel(**{field: float(value)})


def test_scenario_with_nan_restart_cost_is_scenario_error(tmp_path):
    with pytest.raises(ScenarioError, match="restart_ms"):
        load_scenario(_scenario_with_cost(tmp_path, restart_ms=math.nan))


def test_simulate_with_nan_restart_cost_exits_2(tmp_path, capsys):
    scenario = _scenario_with_cost(tmp_path, restart_ms=math.nan)
    code = main(["simulate", "--scenario", str(scenario), "--n", "20",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "restart_ms must be finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cost, args", [
    ({"base_request_ms": 1e10, "oracle_slowdown_factor": 1e300}, ["--mode", "hardened", "--n", "5"]),
    ({"production_per_syscall_ms": 1e308}, ["--mode", "unhardened"]),
])
def test_finite_costs_that_give_a_non_finite_run_exit_2(tmp_path, capsys, cost, args):
    scenario = _scenario_with_cost(tmp_path, **cost)
    code = main(["simulate", "--scenario", str(scenario), *args, "--out", str(tmp_path / "out")])
    assert code == 2
    assert "handler 'home': its production or oracle run takes a non-finite time" in (
        capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["--mode", "unhardened"],
    ["--mode", "timeloops", "--watchdog-ms", "1e308"],
])
def test_a_session_clock_that_overflows_exits_1(tmp_path, capsys, args):
    # Each run is finite, but 5000 of them pass the largest float.
    scenario = _scenario_with_cost(tmp_path, base_request_ms=1e305)
    code = main(["simulate", "--scenario", str(scenario), "--n", "5000", *args,
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: the virtual clock overflows within 5000 requests\n")
    assert not (tmp_path / "out").exists()


def test_a_non_finite_run_with_no_handler_is_scenario_error():
    cost = CostModel(base_request_ms=1e10, oracle_slowdown_factor=1e300)
    with pytest.raises(ScenarioError, match="a request with no handler: its production or oracle"):
        ServiceSpec(name="svc", handlers={}, cost_model=cost)


@pytest.mark.parametrize("token", ['NaN', 'Infinity', '"nan"', '"-inf"'])
def test_log_with_non_finite_timestamp_is_parse_error(tmp_path, token):
    path = tmp_path / "policy.log"
    path.write_text(
        '{"epoch":1,"added":["read"],"source":"oracle","timestamp_ms":0.0}\n'
        f'{{"epoch":2,"added":["write"],"source":"oracle","timestamp_ms":{token}}}\n'
    )
    with pytest.raises(ParseError, match="line 2"):
        load_log(path)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_config_rejects_non_finite_watchdog(value):
    with pytest.raises(ConfigError, match="watchdog_ms"):
        ControllerConfig(watchdog_ms=value)


def test_simulate_with_infinite_watchdog_exits_1(tmp_path, capsys):
    code = main(["simulate", "--scenario", str(SCENARIO_DIR / "staticsite.json"),
                 "--n", "20", "--oracle-mode", "watchdog", "--watchdog-ms", "inf",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "watchdog_ms" in capsys.readouterr().err


@pytest.mark.parametrize("mix, key", [("home=1,search=nan", "search"), ("home=inf", "home"),
                                      ("home=1e308,search=1e308", "search")])
def test_non_finite_mix_weight_is_config_error(tmp_path, capsys, mix, key):
    code = main(["simulate", "--scenario", str(SCENARIO_DIR / "staticsite.json"),
                 "--n", "20", "--mix", mix, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: mix weights must be finite") and key in err


@pytest.mark.parametrize("n", [0, 5])
def test_a_mix_whose_weight_total_overflows_is_config_error(staticsite, n):
    with pytest.raises(ConfigError, match="mix weights must be finite in total: home, search"):
        generate_workload(staticsite, n, 0, {"home": 1e308, "search": 1e308})
