"""Command-line front end: subcommands, artifacts, exit codes, and
byte-level reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nomalab
from nomalab.analytic import DEFAULT_MAX_LEAVES, stage_bers_grid, sum_ber
from nomalab.channel import CHILD_SPAN
from nomalab.cli import CSV_HEADER, CSV_SCHEMA, _build_parser, main
from nomalab.config import MAX_ANTENNAS, build_model, load_config
from nomalab.kernels import erlang_fade_quadrature
from nomalab.poweralloc import sum_ber_db_cost

BASE = {
    "system": {
        "n_antennas": 2,
        "noise_sigma": 1.0,
        "users": [
            {"power_db": 0.0, "sigma": 10.0},
            {"power_db": 0.0, "sigma": 2.5},
        ],
    },
    "sweep": {"start_db": 0.0, "stop_db": 5.0, "step_db": 5.0},
    "montecarlo": {"seed": 7, "min_errors": 50, "max_symbols": 20_000,
                   "batch_size": 10_000},
}


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def read_csv(out_dir):
    return (out_dir / "results.csv").read_bytes()


def test_analytic_writes_csv_and_echo(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["analytic", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == CSV_SCHEMA
    assert lines[1] == CSV_HEADER
    # 2 sweep points x 2 users
    assert len(lines) == 2 + 4
    assert all(",analytic," in ln for ln in lines[2:])
    echo = json.loads((out / "effective_config.json").read_text())
    assert echo["system"]["n_antennas"] == 2
    assert echo["output"]["directory"] == str(out)


def test_analytic_rerun_from_echo_is_identical(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["analytic", "--config", cfg, "--out", str(out1)]) == 0
    echo = json.loads((out1 / "effective_config.json").read_text())
    echo["output"]["directory"] = str(out2)
    cfg2 = write_config(tmp_path, echo, "echo.json")
    assert main(["analytic", "--config", cfg2]) == 0
    assert read_csv(out1) == read_csv(out2)


def test_simulate_is_bitwise_reproducible(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
    assert read_csv(out1) == read_csv(out2)
    rows = (out1 / "results.csv").read_text().splitlines()[2:]
    sources = {r.split(",")[2] for r in rows}
    assert sources == {"analytic", "sic"}


def test_simulate_worker_count_does_not_change_bytes(tmp_path):
    threaded = json.loads(json.dumps(BASE))
    threaded["montecarlo"]["workers"] = 3
    out1, out2 = tmp_path / "w1", tmp_path / "w3"
    assert main(["simulate", "--config", write_config(tmp_path, BASE),
                 "--out", str(out1)]) == 0
    assert main(["simulate", "--config",
                 write_config(tmp_path, threaded, "threaded.json"),
                 "--out", str(out2)]) == 0
    assert read_csv(out1) == read_csv(out2)


def test_seed_override_changes_simulation(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out2),
                 "--seed", "8"]) == 0
    assert read_csv(out1) != read_csv(out2)
    echo = json.loads((out2 / "effective_config.json").read_text())
    assert echo["montecarlo"]["seed"] == 8


def test_jmld_detector_flag(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out),
                 "--detector", "jmld"]) == 0
    rows = (out / "results.csv").read_text().splitlines()[2:]
    assert {r.split(",")[2] for r in rows} == {"analytic", "jmld"}


def test_optimize_writes_result_json(tmp_path):
    data = json.loads(json.dumps(BASE))
    data["poweralloc"] = {"p_max_db": 16.0, "max_iters": 30}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    pa = json.loads((out / "pa_result.json").read_text())
    assert len(pa["powers_db"]) == 2
    assert max(pa["powers_db"]) <= 16.0 + 1e-9
    assert pa["baseline"]["powers_db"] == [0.0, 0.0]
    assert pa["improvement_db"] == pytest.approx(
        pa["baseline"]["cost_db"] - pa["cost_db"])
    rows = (out / "results.csv").read_text().splitlines()[2:]
    assert {r.split(",")[2] for r in rows} == {"analytic_before",
                                               "analytic_after"}


@pytest.mark.parametrize("power_db,baseline_walks", [(0.0, 0), (24.0, 1)],
                         ids=["within_cap", "clipped"])
def test_optimize_baseline_costs_the_configured_powers(
        tmp_path, monkeypatch, power_db, baseline_walks):
    # the baseline is the warm start's first cost unless p_max_db clips
    # that start; then it takes a walk of its own at the configured powers
    walks = []

    def counted(*args):
        walks.append(args)
        return sum_ber_db_cost(*args)

    monkeypatch.setattr("nomalab.cli.sum_ber_db_cost", counted)
    data = json.loads(json.dumps(BASE))
    for user in data["system"]["users"]:
        user["power_db"] = power_db
    data["poweralloc"] = {"p_max_db": 16.0, "max_iters": 5}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    assert len(walks) == baseline_walks
    pa = json.loads((out / "pa_result.json").read_text())
    model = build_model(load_config(cfg))
    assert pa["baseline"]["powers_db"] == [power_db, power_db]
    assert pa["baseline"]["cost_db"] == sum_ber_db_cost(
        model, [power_db, power_db])
    clipped = sum_ber_db_cost(model, [min(power_db, 16.0)] * 2)
    assert (pa["baseline"]["cost_db"] == clipped) == (power_db <= 16.0)


def test_optimize_honours_analytic_prune_and_leaf_limits(tmp_path):
    data = json.loads(json.dumps(BASE))
    data["system"]["users"] = [
        {"power_db": 0.0, "sigma": 10.0, "modulation": "4x4"},
        {"power_db": 0.0, "sigma": 2.5, "modulation": "4x2"},
        {"power_db": 0.0, "sigma": 0.625, "modulation": "4x2"},
    ]
    data["analytic"] = {"mode": "exact", "prune_threshold": 1e-3}
    data["poweralloc"] = {"p_max_db": 20.0, "mode": "exact",
                          "multistart_points": 1, "max_iters": 2}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["optimize", "--config", cfg, "--out", str(out)]) == 0
    pa = json.loads((out / "pa_result.json").read_text())
    model = build_model(load_config(cfg))
    for powers_db, value in ((pa["powers_db"], pa["sum_ber"]),
                             (pa["baseline"]["powers_db"],
                              pa["baseline"]["sum_ber"])):
        tuned = model.with_powers([10.0 ** (p / 10.0) for p in powers_db])
        pruned = sum_ber(tuned, "exact", prune_threshold=1e-3)
        assert value == pytest.approx(pruned, rel=1e-9)
        assert value != pytest.approx(sum_ber(tuned, "exact"), rel=1e-3)


def test_validate_passes_on_calibrated_config(tmp_path):
    data = json.loads(json.dumps(BASE))
    data["montecarlo"]["min_errors"] = 400
    data["montecarlo"]["max_symbols"] = 1_000_000
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "validate_report.json").read_text())
    assert report["passed"] is True
    assert report["n_failed"] == 0
    assert all(c["passed"] for c in report["oracle_checks"])
    assert report["detector"] == "sic"


def test_validate_mixed_order_report_honours_analytic_settings(tmp_path,
                                                              monkeypatch):
    data = json.loads(json.dumps(BASE))
    data["system"]["users"] = [
        {"power_db": 0.0, "sigma": 10.0, "modulation": "4x4"},
        {"power_db": 0.0, "sigma": 2.5, "modulation": "4x2"},
        {"power_db": 0.0, "sigma": 0.625, "modulation": "4x2"},
    ]
    data["sweep"] = {"start_db": 20.0, "stop_db": 20.0, "step_db": 5.0}
    data["analytic"] = {"mode": "exact", "prune_threshold": 1e-3}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    # one walk over the grid serves both the report and results.csv
    walks = []

    def counted(*args):
        walks.append(args)
        return stage_bers_grid(*args)

    monkeypatch.setattr("nomalab.cli.stage_bers_grid", counted)
    assert main(["validate", "--config", cfg, "--out", str(out)]) in (0, 1)
    assert len(walks) == 1
    assert walks[0][2:] == ("exact", 1e-3, DEFAULT_MAX_LEAVES)
    report = json.loads((out / "validate_report.json").read_text())
    rows = [r.split(",") for r in read_csv(out).decode().splitlines()[2:]]
    csv = {int(r[1]): r[3] for r in rows if r[2] == "analytic"}
    assert [c["user"] for c in report["mc_checks"]] == [1, 2, 3]
    for c in report["mc_checks"]:
        assert f"{c['analytic']:.8e}" == csv[c["user"]]


def test_validate_rejects_the_joint_detector(tmp_path, monkeypatch, capsys):
    # the closed form models MRC-SIC only: joint ML would fail every check
    def unreachable(*args):
        raise AssertionError("validate simulated with --detector jmld")

    monkeypatch.setattr("nomalab.cli.sweep", unreachable)
    cfg = write_config(tmp_path, BASE)
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--config", cfg, "--out", str(tmp_path / "o"),
              "--detector", "jmld"])
    assert exc.value.code == 2
    assert "invalid choice: 'jmld'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_validate_leaf_limit_stops_before_simulating(tmp_path, monkeypatch,
                                                    capsys):
    # the leaf limit once reached validate inside compare_analytic, after
    # the whole sweep had been simulated
    def unreachable(*args):
        raise AssertionError("validate simulated past its leaf limit")

    monkeypatch.setattr("nomalab.cli.sweep", unreachable)
    data = json.loads(json.dumps(BASE))
    data["analytic"] = {"mode": "exact", "max_leaves": 1}
    cfg = write_config(tmp_path, data)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "capacity error" in capsys.readouterr().err


def test_simulate_leaf_limit_stops_before_simulating(tmp_path, monkeypatch,
                                                    capsys):
    # simulate once walked the analytic grid only after the whole sweep
    def unreachable(*args):
        raise AssertionError("simulate simulated past its leaf limit")

    monkeypatch.setattr("nomalab.cli.sweep", unreachable)
    data = json.loads(json.dumps(BASE))
    data["analytic"] = {"mode": "exact", "max_leaves": 1}
    cfg = write_config(tmp_path, data)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "capacity error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analytic", "optimize"])
def test_detector_flag_is_not_taken_where_nothing_simulates(tmp_path, command):
    cfg = write_config(tmp_path, BASE)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, "--out", str(tmp_path / "o"),
              "--detector", "sic"])
    assert exc.value.code == 2


def test_each_subcommand_takes_only_the_flags_it_uses():
    subparsers = next(a for a in _build_parser()._actions
                      if a.dest == "command")
    common = {"--config": None, "--out": None, "--seed": None,
              "--mode": ["exact", "approx", "auto"]}
    expect = {
        "analytic": common,
        "optimize": common,
        "simulate": dict(common, **{"--detector": ["sic", "jmld"]}),
        "validate": dict(common, **{"--detector": ["sic"]}),
    }
    got = {name: {a.option_strings[-1]: a.choices for a in sub._actions
                  if a.dest != "help"}
           for name, sub in subparsers.choices.items()}
    assert got == expect


def test_symbol_budget_past_the_stream_keys_is_a_config_error(
        tmp_path, capsys, monkeypatch):
    # a batch past CHILD_SPAN once ended in a ValueError traceback, after
    # simulating 2^20 batches; no batch runs here
    def unreachable(*args):
        raise AssertionError("sweep called with an over-cap symbol budget")

    monkeypatch.setattr("nomalab.cli.sweep", unreachable)
    data = json.loads(json.dumps(BASE))
    data["montecarlo"].update(min_errors=10**9, max_symbols=CHILD_SPAN + 5,
                              batch_size=1)
    cfg = write_config(tmp_path, data)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert ("config error: config.montecarlo.max_symbols"
            in capsys.readouterr().err)


def test_validate_fails_under_zero_tolerance(tmp_path):
    data = json.loads(json.dumps(BASE))
    data["validate"] = {"k_ci": 0.0, "rel_tol": 0.0}
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 1
    report = json.loads((out / "validate_report.json").read_text())
    assert report["passed"] is False
    assert report["n_failed"] > 0


def test_config_error_exit_code(tmp_path, capsys):
    bad = write_config(tmp_path, dict(BASE, typo={}))
    assert main(["analytic", "--config", bad]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["analytic", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("command,section,key,value", [
    ("simulate", "montecarlo", "min_errors", 0),
    ("simulate", "montecarlo", "max_symbols", 0),
    ("simulate", "montecarlo", "batch_size", 0),
    ("optimize", "poweralloc", "fd_step_db", 0),
    ("optimize", "poweralloc", "p_max_db", float("nan")),
    ("optimize", "poweralloc", "p_max_db", 10**400),
    ("analytic", "analytic", "prune_threshold", -1e-3),
    ("analytic", "analytic", "max_leaves", 0),
    ("simulate", "montecarlo", "seed", -1),
    ("simulate", "montecarlo", "seed", 2**64),
    ("simulate", "montecarlo", "workers", 0),
    ("analytic", "sweep", "stop_db", -5.0),
    ("validate", "validate", "k_ci", -1.0),
    ("optimize", "poweralloc", "max_iters", -1),
    ("validate", "validate", "rel_tol", -1.0),
    ("validate", "validate", "min_ber", -1.0),
    ("optimize", "poweralloc", "tol_db", -1.0),
    ("optimize", "poweralloc", "step0_db", -1.0),
    ("optimize", "poweralloc", "step0_db", 0.0),
    ("optimize", "poweralloc", "min_step_db", -1.0),
    ("optimize", "poweralloc", "min_step_db", 0.0),
    ("optimize", "poweralloc", "multistart_points", -1),
    ("optimize", "poweralloc", "multistart_points", 0),
    ("optimize", "poweralloc", "armijo_c", -1.0),
    ("optimize", "poweralloc", "armijo_c", 1.0),
])
def test_malformed_value_is_a_config_error(tmp_path, capsys, command, section,
                                           key, value):
    data = json.loads(json.dumps(BASE))
    data.setdefault(section, {})[key] = value
    cfg = write_config(tmp_path, data)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: config.{section}" in capsys.readouterr().err


@pytest.mark.parametrize("command,where,value,key", [
    ("analytic", ("system", "users", 0, "power_db"), 4000.0,
     "system.users[0].power_db"),
    ("analytic", ("sweep", "stop_db"), 4000.0, "sweep.stop_db"),
    ("analytic", ("system", "users", 1, "sigma"), 1e200,
     "system.users[1].sigma"),
    ("analytic", ("system", "noise_sigma"), 1e-200, "system.noise_sigma"),
    ("optimize", ("poweralloc", "p_max_db"), 5000.0, "poweralloc.p_max_db"),
], ids=["power_db", "stop_db", "sigma", "noise_sigma", "p_max_db"])
def test_value_past_float_range_is_a_config_error(tmp_path, capsys, command,
                                                  where, value, key):
    # each of these once overflowed or divided by zero with a traceback
    data = json.loads(json.dumps(BASE))
    data.setdefault("poweralloc", {})
    node = data
    for step in where[:-1]:
        node = node[step]
    node[where[-1]] = value
    cfg = write_config(tmp_path, data)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: config.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("sweep", [
    {"start_db": 0.0, "stop_db": 1.0, "step_db": 1e-5},
    {"start_db": 20.0, "stop_db": 20.0, "step_db": 1e-300},
], ids=["long_range", "slack_only"])
def test_oversized_sweep_is_a_config_error(tmp_path, capsys, monkeypatch, sweep):
    # once, sweep_grid ran for 100,001 or about 1e291 steps here; if the
    # check lets the sweep through, fail instead of hanging
    def unreachable(cfg):
        raise AssertionError("sweep_grid called on an over-cap sweep")

    monkeypatch.setattr("nomalab.cli.sweep_grid", unreachable)
    data = dict(json.loads(json.dumps(BASE)), sweep=sweep)
    cfg = write_config(tmp_path, data)
    assert main(["analytic", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: config.sweep.step_db" in capsys.readouterr().err


def test_antenna_count_past_the_cap_is_a_config_error(tmp_path, capsys):
    # 1,000,000 antennas once overflowed erlang_fade_average with a traceback
    for n in (MAX_ANTENNAS + 1, 1_000_000):
        data = json.loads(json.dumps(BASE))
        data["system"]["n_antennas"] = n
        cfg = write_config(tmp_path, data)
        assert main(["analytic", "--config", cfg, "--out",
                     str(tmp_path / "o")]) == 2
        assert ("config error: config.system.n_antennas"
                in capsys.readouterr().err)


def test_oversized_batch_is_a_config_error(tmp_path, capsys, monkeypatch):
    # batch_size 10**13 once ended in a traceback from a 72.8 TiB
    # allocation; no batch runs here
    def unreachable(*args):
        raise AssertionError("sweep called with an over-cap batch")

    monkeypatch.setattr("nomalab.cli.sweep", unreachable)
    data = json.loads(json.dumps(BASE))
    data["montecarlo"]["batch_size"] = 10**13
    cfg = write_config(tmp_path, data)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert ("config error: config.montecarlo.batch_size"
            in capsys.readouterr().err)


def test_running_out_of_memory_is_a_capacity_error(tmp_path, capsys,
                                                   monkeypatch):
    # an admitted batch can still pass memory when many workers hold
    # their arrays at once; nothing is allocated here
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 40.0 GiB")

    monkeypatch.setattr("nomalab.cli.sweep", out_of_memory)
    cfg = write_config(tmp_path, BASE)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert ("capacity error: out of memory: Unable to allocate 40.0 GiB"
            in capsys.readouterr().err)


def test_worker_count_past_the_cap_is_a_config_error(tmp_path, capsys,
                                                     monkeypatch):
    # a billion workers once grew memory without limit; no pool starts here
    def unreachable(*args):
        raise AssertionError("sweep called with an over-cap worker count")

    monkeypatch.setattr("nomalab.cli.sweep", unreachable)
    data = json.loads(json.dumps(BASE))
    data["montecarlo"]["workers"] = 10**9
    cfg = write_config(tmp_path, data)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: config.montecarlo.workers" in capsys.readouterr().err


NO_SCIPY_CHILD = """
import json, sys
from nomalab.cli import main
from nomalab.kernels import erlang_fade_quadrature

cfg, out = sys.argv[1:]
codes = [main([command, "--config", cfg, "--out", f"{out}/{command}"])
         for command in ("analytic", "optimize", "simulate")]
before = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
value = erlang_fade_quadrature(3.0, 2)
print(json.dumps({"codes": codes, "before": before,
                  "after": "scipy.integrate" in sys.modules,
                  "value": value.hex()}))
"""


def test_commands_run_without_importing_scipy(tmp_path):
    # scipy loads only where a quadrature oracle runs
    data = json.loads(json.dumps(BASE))
    data["montecarlo"].update(max_symbols=4_000, batch_size=2_000)
    data["poweralloc"] = {"p_max_db": 16.0, "max_iters": 5}
    cfg = write_config(tmp_path, data)
    src = str(Path(nomalab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_CHILD, cfg,
                           str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120,
                          check=True)
    child = json.loads(proc.stdout.splitlines()[-1])
    assert child["codes"] == [0, 0, 0]
    assert child["before"] == []
    assert child["after"]
    assert child["value"] == erlang_fade_quadrature(3.0, 2).hex()


def test_capacity_error_exit_code(tmp_path, capsys):
    data = json.loads(json.dumps(BASE))
    data["system"]["users"] = [
        {"power_db": 0.0, "sigma": 1.0, "modulation": "8x8"}
        for _ in range(4)
    ]
    cfg = write_config(tmp_path, data)
    out = tmp_path / "out"
    code = main(["simulate", "--config", cfg, "--out", str(out),
                 "--detector", "jmld"])
    assert code == 3
    assert "capacity error" in capsys.readouterr().err


def test_seed_override_bounds(tmp_path):
    cfg = write_config(tmp_path, BASE)
    assert main(["analytic", "--config", cfg, "--out",
                 str(tmp_path / "o"), "--seed", "-1"]) == 2


def test_mode_override_lands_in_echo(tmp_path):
    cfg = write_config(tmp_path, BASE)
    out = tmp_path / "out"
    assert main(["analytic", "--config", cfg, "--out", str(out),
                 "--mode", "approx"]) == 0
    echo = json.loads((out / "effective_config.json").read_text())
    assert echo["analytic"]["mode"] == "approx"
    assert echo["poweralloc"]["mode"] == "approx"


def test_missing_required_flag_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit):
        main(["analytic"])
    with pytest.raises(SystemExit):
        main(["bogus", "--config", "x.json"])
