"""The study scripts under scripts/ run the package with the config's
settings."""

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from nomalab.analytic import stage_bers
from nomalab.config import build_model, load_config
from nomalab.errors import CapacityError

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

MIXED = {
    "system": {
        "n_antennas": 2,
        "noise_sigma": 1.0,
        "users": [
            {"power_db": 0.0, "sigma": 10.0, "modulation": "4x4"},
            {"power_db": 0.0, "sigma": 2.5, "modulation": "4x2"},
            {"power_db": 0.0, "sigma": 0.625, "modulation": "4x2"},
        ],
    },
    "sweep": {"start_db": 20.0, "stop_db": 20.0, "step_db": 5.0},
    "analytic": {"mode": "exact", "prune_threshold": 1e-3},
}


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_floor_study_honours_prune_and_leaf_limits(tmp_path, monkeypatch):
    floor_study = load_script("floor_study")
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED), encoding="utf-8")
    model = build_model(load_config(str(path)))

    rows = floor_study.floor_table(model, [20.0], "exact", 1e-3, 1000)
    pruned = stage_bers(model.scaled(20.0), "exact", 1e-3, 1000)
    assert rows == [[20.0] + list(pruned)]
    assert pruned != stage_bers(model.scaled(20.0), "exact")

    # main reads both limits from the config: one leaf cannot hold the tree
    limited = dict(MIXED, analytic={"mode": "exact", "max_leaves": 1})
    path.write_text(json.dumps(limited), encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["floor_study.py", "--config", str(path),
                                      "--antennas", "2"])
    with pytest.raises(CapacityError):
        floor_study.main()


def test_detector_gap_prints_one_row_per_point_at_any_worker_count(
        monkeypatch, capsys):
    detector_gap = load_script("detector_gap")
    config = SCRIPTS.parent / "configs" / "qpsk3_near_far.json"
    tables = []
    for workers in (1, 2):
        monkeypatch.setattr(sys, "argv", [
            "detector_gap.py", "--config", str(config), "--start", "12",
            "--stop", "14", "--step", "2", "--symbols", "20000",
            "--workers", str(workers)])
        assert detector_gap.main() == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert [line.split()[0] for line in lines[1:]] == ["12.0", "14.0"]
        tables.append(lines)
    assert tables[0] == tables[1]


@pytest.mark.parametrize("step", ["0", "1e-6"])
def test_detector_gap_rejects_a_bad_step(monkeypatch, capsys, step):
    detector_gap = load_script("detector_gap")

    # a zero step once looped forever; fail instead of hanging
    def unreachable(cfg):
        raise AssertionError("sweep_grid called on a bad sweep")

    monkeypatch.setattr(detector_gap, "sweep_grid", unreachable)
    config = SCRIPTS.parent / "configs" / "qpsk3_near_far.json"
    monkeypatch.setattr(sys, "argv", [
        "detector_gap.py", "--config", str(config), "--step", step])
    assert detector_gap.main() == 2
    assert "config error: config.sweep.step_db" in capsys.readouterr().err


@pytest.mark.parametrize("symbols", ["0", "-5"])
def test_detector_gap_rejects_a_bad_symbol_count(monkeypatch, capsys, symbols):
    detector_gap = load_script("detector_gap")

    def unreachable(*args):
        raise AssertionError("sweep called with a bad symbol count")

    monkeypatch.setattr(detector_gap, "sweep", unreachable)
    config = SCRIPTS.parent / "configs" / "qpsk3_near_far.json"
    monkeypatch.setattr(sys, "argv", [
        "detector_gap.py", "--config", str(config), "--symbols", symbols])
    assert detector_gap.main() == 2
    assert "config error: config.montecarlo" in capsys.readouterr().err


def test_detector_gap_rejects_a_worker_count_past_the_cap(monkeypatch, capsys):
    detector_gap = load_script("detector_gap")

    def unreachable(*args):
        raise AssertionError("sweep called with an over-cap worker count")

    monkeypatch.setattr(detector_gap, "sweep", unreachable)
    config = SCRIPTS.parent / "configs" / "qpsk3_near_far.json"
    monkeypatch.setattr(sys, "argv", [
        "detector_gap.py", "--config", str(config), "--workers", "1000000000"])
    assert detector_gap.main() == 2
    assert "config error: config.montecarlo.workers" in capsys.readouterr().err


@pytest.mark.parametrize("script", ["floor_study", "pa_study"])
def test_study_scripts_reject_a_bad_config(tmp_path, monkeypatch, capsys,
                                           script):
    module = load_script(script)
    data = json.loads((SCRIPTS.parent / "configs" / "qpsk3_near_far.json")
                      .read_text(encoding="utf-8"))
    data["sweep"]["step_db"] = 0
    path = tmp_path / "zero_step.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.setattr(sys, "argv", [f"{script}.py", "--config", str(path)])
    assert module.main() == 2
    assert "config error: config.sweep.step_db" in capsys.readouterr().err


@pytest.mark.parametrize("antennas", ["0", "-3"])
def test_floor_study_rejects_a_bad_antenna_count(monkeypatch, capsys,
                                                 antennas):
    floor_study = load_script("floor_study")
    config = SCRIPTS.parent / "configs" / "qpsk3_near_far.json"
    monkeypatch.setattr(sys, "argv", [
        "floor_study.py", "--config", str(config), "--antennas", "2",
        antennas])
    assert floor_study.main() == 2
    captured = capsys.readouterr()
    assert "config error: n_antennas must be a positive integer" in captured.err
    # nothing is printed for the good count before the bad one
    assert captured.out == ""


def test_floor_study_rejects_an_antenna_count_past_the_cap(monkeypatch,
                                                          capsys):
    floor_study = load_script("floor_study")
    config = SCRIPTS.parent / "configs" / "qpsk3_near_far.json"
    monkeypatch.setattr(sys, "argv", [
        "floor_study.py", "--config", str(config), "--antennas", "2",
        "1000000"])
    assert floor_study.main() == 2
    captured = capsys.readouterr()
    assert "config error: config.system.n_antennas" in captured.err
    assert captured.out == ""


def test_floor_study_prints_users_in_user_order(tmp_path, monkeypatch, capsys):
    from nomalab.cli import main as cli_main

    floor_study = load_script("floor_study")
    data = json.loads((SCRIPTS.parent / "configs" / "qpsk3_near_far.json")
                      .read_text(encoding="utf-8"))
    for user, rank in zip(data["system"]["users"], (3, 2, 1)):
        user["sic_rank"] = rank
    data["sweep"] = {"start_db": 20.0, "stop_db": 30.0, "step_db": 10.0}
    path = tmp_path / "reversed.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    model = build_model(load_config(str(path)))

    rows = floor_study.floor_table(model, [20.0], "auto")
    by_stage = stage_bers(model.scaled(20.0), "auto")
    assert rows == [[20.0] + list(reversed(by_stage))]
    assert by_stage[0] != by_stage[2]

    out = tmp_path / "out"
    assert cli_main(["analytic", "--config", str(path), "--out", str(out)]) == 0
    csv = {}
    for line in (out / "results.csv").read_text(encoding="utf-8").splitlines()[2:]:
        power_db, user, _, ber = line.split(",")[:4]
        csv[float(power_db), int(user)] = f"{float(ber):.3e}"
    monkeypatch.setattr(sys, "argv", ["floor_study.py", "--config", str(path),
                                      "--antennas", "2"])
    assert floor_study.main() == 0
    # the table rows, each led by its right-aligned offset
    printed = [line.split() for line in capsys.readouterr().out.splitlines()
               if line.startswith(" ")]
    assert [row[1:] for row in printed] == [
        [csv[off, user] for user in (1, 2, 3)] for off in (20.0, 30.0)]


def test_pa_study_prints_one_capped_row_per_cap(tmp_path, monkeypatch, capsys):
    pa_study = load_script("pa_study")
    data = json.loads((SCRIPTS.parent / "configs" / "qpsk3_near_far.json")
                      .read_text(encoding="utf-8"))
    data["sweep"] = {"start_db": 20.0, "stop_db": 30.0, "step_db": 10.0}
    path = tmp_path / "two_caps.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["pa_study.py", "--config", str(path)])
    assert pa_study.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    for line, cap in zip(lines[1:], (20.0, 30.0)):
        head, powers = line.split("[")
        pmax, _, _, gain = (float(v) for v in head.split())
        assert pmax == cap
        assert math.isfinite(gain)
        powers_db = [float(v) for v in powers.rstrip("]").split(",")]
        assert len(powers_db) == 3
        assert all(p <= cap for p in powers_db)


def test_src_lines_counts_code_without_docstrings_or_comments():
    src_lines = load_script("src_lines")
    text = ('"""Module\n\ndocstring."""\n\nimport os  # kept\n\n\n'
            'def f(x):\n    """One line."""\n    # a comment\n'
            '    return (x,\n            "not a docstring")\n')
    assert src_lines.count_lines(text) == (12, 4)


def test_src_lines_prints_each_module_and_its_change_from_a_base(tmp_path):
    import subprocess

    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t",
                        "-c", "user.email=t@t", "-c", "commit.gpgsign=false", *args],
                       check=True, capture_output=True)

    package = tmp_path / "src" / "nomalab"
    package.mkdir(parents=True)
    (package / "a.py").write_text('"""A."""\nx = 1\n', encoding="utf-8")
    (package / "gone.py").write_text("y = 2\nz = 3\n", encoding="utf-8")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (package / "a.py").write_text('"""A."""\nx = 1\n\nw = x + 1\n', encoding="utf-8")
    (package / "gone.py").unlink()
    (package / "new.py").write_text("v = 0\n", encoding="utf-8")

    # A copy of the script inside the temporary repository counts that repository.
    (tmp_path / "scripts").mkdir()
    script = tmp_path / "scripts" / "src_lines.py"
    script.write_text((SCRIPTS / "src_lines.py").read_text(encoding="utf-8"), encoding="utf-8")

    def run(*args):
        done = subprocess.run([sys.executable, str(script), *args],
                              capture_output=True, text=True, check=True)
        return [line.split() for line in done.stdout.splitlines()]

    assert run() == [["module", "lines", "code"], ["a.py", "4", "2"],
                     ["new.py", "1", "1"], ["total", "5", "3"]]
    assert run("--base", "HEAD")[1:] == [
        ["a.py", "4", "2", "+2", "+1"], ["gone.py", "0", "0", "-2", "-2"],
        ["new.py", "1", "1", "+1", "+1"], ["total", "5", "3", "+1", "+0"]]


def test_plan_build_prints_rows_seconds_and_peak_memory(monkeypatch, capsys):
    plan_build = load_script("plan_build")
    assert plan_build.parse_tuple("4x4*2,2x1") == [(4, 4), (4, 4), (2, 1)]
    with pytest.raises(SystemExit, match="bad alphabet tuple"):
        plan_build.parse_tuple("4by4")
    monkeypatch.setattr(sys, "argv", ["plan_build.py", "2x2*2", "4x4,2x2"])
    assert plan_build.main() == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines[0] == ["tuple", "rows", "build_s", "maxrss_mb"]
    # one root (QPSK has one magnitude class) and a child per entry of
    # stage 1's SEP table: 3 for QPSK, 10 for 16-QAM
    assert [row[:2] for row in lines[1:]] == [["2x2*2", "4"], ["4x4,2x2", "11"]]
    for row in lines[1:]:
        assert float(row[2]) > 0.0 and float(row[3]) > 0.0
