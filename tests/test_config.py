"""Strict JSON configuration parsing and model construction."""

import dataclasses
import json

import pytest

from nomalab.channel import CHILD_SPAN
from nomalab.config import (
    MAX_ANTENNAS,
    MAX_BATCH_ENTRIES,
    MAX_SWEEP_POINTS,
    MAX_WORKERS,
    RunConfig,
    SweepConfig,
    build_model,
    check_ranges,
    load_config,
    parse_config,
    parse_modulation,
    sweep_grid,
    to_dict,
)
from nomalab.errors import ConfigError
from nomalab.kernels import erlang_fade_average

MINIMAL = {
    "system": {
        "n_antennas": 2,
        "noise_sigma": 1.0,
        "users": [
            {"power_db": 20.0, "sigma": 10.0},
            {"power_db": 20.0, "sigma": 2.5, "modulation": "4x2"},
        ],
    }
}


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert isinstance(cfg, RunConfig)
    assert cfg.system.n_antennas == 2
    assert cfg.system.users[0].modulation == "2x2"
    assert cfg.system.users[1].modulation == "4x2"
    assert cfg.sweep.step_db == 5.0
    assert cfg.montecarlo.seed == 0
    assert cfg.analytic.mode == "auto"
    assert cfg.validate.rel_tol == 0.15
    assert cfg.output.directory == "out"


def test_unknown_keys_fail_with_path():
    bad = dict(MINIMAL, sweep={"sart_db": 1.0})
    with pytest.raises(ConfigError, match=r"config\.sweep.*sart_db"):
        parse_config(bad)
    with pytest.raises(ConfigError, match=r"config.*unknown keys"):
        parse_config(dict(MINIMAL, extra={}))


def test_missing_required_fields_fail_with_path():
    with pytest.raises(ConfigError, match=r"config\.system: required"):
        parse_config({})
    bad = {"system": {"n_antennas": 2, "noise_sigma": 1.0}}
    with pytest.raises(ConfigError, match=r"config\.system\.users"):
        parse_config(bad)
    bad_user = {"system": {"n_antennas": 2, "noise_sigma": 1.0,
                           "users": [{"sigma": 1.0}]}}
    with pytest.raises(ConfigError, match=r"users\[0\]\.power_db: required"):
        parse_config(bad_user)


def test_type_errors_fail_loudly():
    bad = json.loads(json.dumps(MINIMAL))
    bad["system"]["users"][0]["power_db"] = "loud"
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config(bad)
    bad2 = json.loads(json.dumps(MINIMAL))
    bad2["system"]["n_antennas"] = True
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config(bad2)
    bad3 = dict(MINIMAL, montecarlo={"workers": 2.5})
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config(bad3)
    ok = dict(MINIMAL, montecarlo={"workers": 2.0})
    assert parse_config(ok).montecarlo.workers == 2


def test_modulation_parsing():
    assert parse_modulation("4x2") == (4, 2)
    assert parse_modulation(" 8X4 ") == (8, 4)
    with pytest.raises(ConfigError):
        parse_modulation("16")
    with pytest.raises(ConfigError):
        parse_modulation(16)
    bad = json.loads(json.dumps(MINIMAL))
    bad["system"]["users"][0]["modulation"] = "3x2"
    with pytest.raises(ConfigError, match=r"users\[0\]\.modulation"):
        parse_config(bad)


def test_mode_and_sweep_validation():
    with pytest.raises(ConfigError, match="unknown mode"):
        parse_config(dict(MINIMAL, analytic={"mode": "fancy"}))
    with pytest.raises(ConfigError, match="unknown mode"):
        parse_config(dict(MINIMAL, poweralloc={"mode": "fancy"}))
    with pytest.raises(ConfigError, match="step_db"):
        parse_config(dict(MINIMAL, sweep={"step_db": 0.0}))


def test_sweep_grid_is_inclusive_and_stable():
    cfg = parse_config(dict(
        MINIMAL, sweep={"start_db": -10.0, "stop_db": 40.0, "step_db": 5.0}))
    grid = sweep_grid(cfg)
    assert grid == [-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0,
                    30.0, 35.0, 40.0]
    tiny = parse_config(dict(
        MINIMAL, sweep={"start_db": 0.0, "stop_db": 1.0, "step_db": 0.1}))
    assert len(sweep_grid(tiny)) == 11  # no float drift at the endpoint


def test_sweep_point_count_is_capped():
    # the tests never call sweep_grid on an over-cap sweep: if the cap
    # stopped working, they would hang instead of failing
    step = 2.0 ** -10  # every offset below is exact
    at_cap = parse_config(dict(MINIMAL, sweep={
        "start_db": 0.0, "stop_db": (MAX_SWEEP_POINTS - 1) * step, "step_db": step}))
    assert len(sweep_grid(at_cap)) == MAX_SWEEP_POINTS
    over = [
        SweepConfig(0.0, MAX_SWEEP_POINTS * step, step),  # one point past
        SweepConfig(0.0, 1.0, 1e-5),                      # 100,001 points
        SweepConfig(0.0, 0.0, 1e-300),                    # 1e291 in the slack
        SweepConfig(20.0, 20.0, 1e-20),                   # never leaves 20.0
    ]
    for sweep in over:
        with pytest.raises(ConfigError, match=r"config\.sweep\.step_db: .*10000"):
            check_ranges(dataclasses.replace(at_cap, sweep=sweep))
        with pytest.raises(ConfigError, match=r"sweep\.step_db"):
            parse_config(dict(MINIMAL, sweep=dataclasses.asdict(sweep)))


def test_antenna_count_is_capped_where_the_fade_average_ends():
    # the cap is the largest shape erlang_fade_average can evaluate
    assert 0.0 < erlang_fade_average(1e-3, MAX_ANTENNAS) < 0.5
    with pytest.raises(OverflowError):
        erlang_fade_average(1e-3, MAX_ANTENNAS + 1)
    system = dict(MINIMAL["system"], n_antennas=MAX_ANTENNAS)
    at_cap = parse_config(dict(MINIMAL, system=system))
    assert build_model(at_cap).n_antennas == MAX_ANTENNAS
    for n in (MAX_ANTENNAS + 1, 1_000_000):
        system = dict(MINIMAL["system"], n_antennas=n)
        with pytest.raises(ConfigError,
                           match=rf"config\.system\.n_antennas: .*{MAX_ANTENNAS}"):
            parse_config(dict(MINIMAL, system=system))


def test_worker_count_is_capped():
    # checked without starting a pool: estimate_ber would start this many
    # threads per wave
    at_cap = parse_config(dict(MINIMAL, montecarlo={"workers": MAX_WORKERS}))
    assert at_cap.montecarlo.workers == MAX_WORKERS
    for workers in (0, MAX_WORKERS + 1, 10**9):
        with pytest.raises(ConfigError, match=r"config\.montecarlo\.workers"):
            parse_config(dict(MINIMAL, montecarlo={"workers": workers}))
        with pytest.raises(ConfigError, match=r"config\.montecarlo\.workers"):
            check_ranges(dataclasses.replace(at_cap, montecarlo=dataclasses.replace(
                at_cap.montecarlo, workers=workers)))


def test_batch_count_is_capped_where_stream_keys_end():
    # a batch past CHILD_SPAN once ended a run in StreamKey.child's
    # ValueError; checked here without simulating
    def mc(max_symbols, batch_size):
        return {"min_errors": 10**9, "max_symbols": max_symbols,
                "batch_size": batch_size}

    for ok in (mc(CHILD_SPAN, 1), mc(CHILD_SPAN * 10 - 9, 10)):
        assert parse_config(dict(MINIMAL, montecarlo=ok))
    for bad in (mc(CHILD_SPAN + 1, 1), mc(2**20 + 5, 1),
                mc(CHILD_SPAN * 10 + 1, 10)):
        with pytest.raises(ConfigError,
                           match=r"config\.montecarlo\.max_symbols"):
            parse_config(dict(MINIMAL, montecarlo=bad))


def test_batch_entries_are_capped():
    # batch_size 10**13 once ended a run in a 72.8 TiB allocation inside
    # Generator.integers; checked here without simulating
    def cfg(n, batch_size):
        return dict(MINIMAL, system=dict(MINIMAL["system"], n_antennas=n),
                    montecarlo={"batch_size": batch_size})

    assert MAX_BATCH_ENTRIES == 2**23
    for n in (1, 2, MAX_ANTENNAS):
        at_cap = parse_config(cfg(n, MAX_BATCH_ENTRIES // n))
        assert at_cap.montecarlo.batch_size == MAX_BATCH_ENTRIES // n
        for batch_size in (MAX_BATCH_ENTRIES // n + 1, 10**13):
            with pytest.raises(ConfigError,
                               match=r"config\.montecarlo\.batch_size: .*"
                                     rf"{MAX_BATCH_ENTRIES}"):
                parse_config(cfg(n, batch_size))
    # past the antenna cap the antenna count is the value named
    with pytest.raises(ConfigError, match=r"config\.system\.n_antennas"):
        parse_config(cfg(MAX_ANTENNAS + 1, 10**13))


def test_build_model_converts_db_and_ranks():
    data = json.loads(json.dumps(MINIMAL))
    data["system"]["users"][0]["sic_rank"] = 2
    data["system"]["users"][1]["sic_rank"] = 1
    model = build_model(parse_config(data))
    assert model.k == 2
    assert model.users[0].power == pytest.approx(100.0)
    assert model.users[0].sigma == 10.0
    assert model.decode_order() == (1, 0)
    assert model.users[1].constellation.size == 8


def test_build_model_wraps_model_errors():
    data = json.loads(json.dumps(MINIMAL))
    data["system"]["users"][0]["sic_rank"] = 1
    with pytest.raises(ConfigError):
        build_model(parse_config(data))  # one rank missing


def test_effective_config_round_trips():
    cfg = parse_config(dict(
        MINIMAL,
        sweep={"start_db": -10.0, "stop_db": 40.0},
        montecarlo={"seed": 99, "workers": 3},
        analytic={"mode": "exact"},
    ))
    echoed = json.loads(json.dumps(to_dict(cfg)))
    assert parse_config(echoed) == cfg


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(missing))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(broken))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(MINIMAL), encoding="utf-8")
    assert load_config(str(good)) == parse_config(MINIMAL)
