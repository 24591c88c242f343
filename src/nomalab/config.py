"""Strict JSON run configuration.

Unknown keys are rejected with their path so typos fail loudly instead
of silently running defaults. Modulations are given as "MIxMQ" axis
sizes, e.g. "2x2" (QPSK), "4x2" (rectangular 8-QAM), "4x4" (16-QAM).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
import sys
from dataclasses import dataclass

from .analytic import DEFAULT_MAX_LEAVES, DEFAULT_PRUNE
from .channel import CHILD_SPAN
from .constellation import build_rect_qam
from .detectors import SystemModel, UserProfile
from .errors import ConfigError
from .montecarlo import StopRule, TolerancePolicy
from .poweralloc import PaConfig

_MOD_RE = re.compile(r"^(\d+)x(\d+)$")
MAX_SWEEP_POINTS = 10_000  # sweep_grid's length at most
# erlang_fade_average's largest coefficient, C(2n - 2, n - 1), passes the
# float range from n = 516 on
MAX_ANTENNAS = 515
MAX_WORKERS = 64  # estimate_ber's threads, and batches per wave, at most
# n_antennas * batch_size at most: one (n, B) complex array is 128 MB
MAX_BATCH_ENTRIES = 1 << 23


@dataclass(frozen=True)
class UserConfig:
    power_db: float
    sigma: float
    modulation: str = "2x2"
    sic_rank: int | None = None


@dataclass(frozen=True)
class SystemConfig:
    n_antennas: int
    noise_sigma: float
    users: tuple[UserConfig, ...]


@dataclass(frozen=True)
class SweepConfig:
    start_db: float = 0.0
    stop_db: float = 0.0
    step_db: float = 5.0


@dataclass(frozen=True)
class McConfig:
    seed: int = 0
    min_errors: int = StopRule.min_errors
    max_symbols: int = StopRule.max_symbols
    batch_size: int = StopRule.batch_size
    workers: int = 1

    def stop_rule(self) -> StopRule:
        return StopRule(self.min_errors, self.max_symbols, self.batch_size)


@dataclass(frozen=True)
class AnalyticConfig:
    mode: str = "auto"
    prune_threshold: float = DEFAULT_PRUNE
    max_leaves: int = DEFAULT_MAX_LEAVES


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"


@dataclass(frozen=True)
class RunConfig:
    system: SystemConfig
    sweep: SweepConfig = SweepConfig()
    montecarlo: McConfig = McConfig()
    poweralloc: PaConfig = PaConfig()
    analytic: AnalyticConfig = AnalyticConfig()
    validate: TolerancePolicy = TolerancePolicy()
    output: OutputConfig = OutputConfig()


def _section(raw, path: str, cls) -> dict:
    """Values of a section keyed by cls's fields, defaults filled in; a
    field without a default is required."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(raw) - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    out = {}
    for f in fields:
        if f.name in raw:
            out[f.name] = raw[f.name]
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"{path}.{f.name}: required")
        else:
            out[f.name] = f.default
    return out


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # also NaN, and ints past float range
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def parse_modulation(text, path: str = "modulation") -> tuple[int, int]:
    if not isinstance(text, str):
        raise ConfigError(f"{path}: expected a string like '4x2'")
    m = _MOD_RE.match(text.strip().lower())
    if not m:
        raise ConfigError(f"{path}: malformed modulation {text!r}, want 'MIxMQ'")
    return int(m.group(1)), int(m.group(2))


def _parse_user(raw, path: str) -> UserConfig:
    d = _section(raw, path, UserConfig)
    mi, mq = parse_modulation(d["modulation"], f"{path}.modulation")
    try:
        build_rect_qam(mi, mq)
    except ValueError as exc:
        raise ConfigError(f"{path}.modulation: {exc}") from exc
    rank = d["sic_rank"]
    if rank is not None:
        rank = _integer(rank, f"{path}.sic_rank")
    return UserConfig(
        power_db=_number(d["power_db"], f"{path}.power_db"),
        sigma=_number(d["sigma"], f"{path}.sigma"),
        modulation=f"{mi}x{mq}",
        sic_rank=rank)


def _parse_system(raw, path: str) -> SystemConfig:
    d = _section(raw, path, SystemConfig)
    users_raw = d["users"]
    if not isinstance(users_raw, list) or not users_raw:
        raise ConfigError(f"{path}.users: expected a nonempty array")
    users = tuple(_parse_user(u, f"{path}.users[{i}]")
                  for i, u in enumerate(users_raw))
    return SystemConfig(
        n_antennas=_integer(d["n_antennas"], f"{path}.n_antennas"),
        noise_sigma=_number(d["noise_sigma"], f"{path}.noise_sigma"),
        users=users)


def _parse_simple(raw, path: str, cls):
    """Parse a flat section, typing each value after its field's default."""
    d = _section(raw, path, cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        key, value, default = f.name, d[f.name], f.default
        if isinstance(default, int):
            kwargs[key] = _integer(value, f"{path}.{key}")
        elif isinstance(default, float):
            kwargs[key] = _number(value, f"{path}.{key}")
        else:
            if not isinstance(value, str):
                raise ConfigError(f"{path}.{key}: expected a string")
            kwargs[key] = value
    return cls(**kwargs)


def parse_config(data: dict, path: str = "config") -> RunConfig:
    _section(data, path, RunConfig)
    system = _parse_system(data["system"], f"{path}.system")
    sections = {f.name: _parse_simple(data.get(f.name, {}), f"{path}.{f.name}",
                                      type(f.default))
                for f in dataclasses.fields(RunConfig) if f.name != "system"}
    return check_ranges(RunConfig(system, **sections), path)


def check_ranges(cfg: RunConfig, path: str = "config") -> RunConfig:
    """cfg unchanged if every value lies in its range, else ConfigError
    naming the first value that does not. Also run on CLI overrides."""
    modes = ("auto", "exact", "approx")
    pa = cfg.poweralloc
    ranges = [
        (cfg.system.n_antennas <= MAX_ANTENNAS, "system.n_antennas",
         f"must be at most {MAX_ANTENNAS}"),
        (cfg.system.n_antennas * cfg.montecarlo.batch_size <= MAX_BATCH_ENTRIES,
         "montecarlo.batch_size",
         f"times system.n_antennas must be at most {MAX_BATCH_ENTRIES}"),
        (cfg.analytic.mode in modes, "analytic.mode",
         f"unknown mode {cfg.analytic.mode!r}"),
        (pa.mode in modes, "poweralloc.mode", f"unknown mode {pa.mode!r}"),
        (cfg.sweep.step_db > 0, "sweep.step_db", "must be positive"),
        (cfg.sweep.stop_db >= cfg.sweep.start_db, "sweep.stop_db",
         "must not be below start_db"),
        (sum(1 for _ in itertools.islice(_sweep_offsets(cfg.sweep),
                                         MAX_SWEEP_POINTS + 1)) <= MAX_SWEEP_POINTS,
         "sweep.step_db", f"must give at most {MAX_SWEEP_POINTS} sweep points"),
        (0 <= cfg.montecarlo.seed < 2**64, "montecarlo.seed",
         "must fit in an unsigned 64-bit integer"),
        (1 <= cfg.montecarlo.workers <= MAX_WORKERS, "montecarlo.workers",
         f"must lie in [1, {MAX_WORKERS}]"),
        (cfg.analytic.prune_threshold >= 0, "analytic.prune_threshold",
         "must be nonnegative"),
        (cfg.analytic.max_leaves >= 1, "analytic.max_leaves", "must be at least 1"),
        (cfg.validate.k_ci >= 0, "validate.k_ci", "must be nonnegative"),
        (cfg.validate.rel_tol >= 0, "validate.rel_tol", "must be nonnegative"),
        (cfg.validate.min_ber >= 0, "validate.min_ber", "must be nonnegative"),
        (pa.max_iters >= 0, "poweralloc.max_iters", "must be nonnegative"),
        (pa.fd_step_db > 0, "poweralloc.fd_step_db", "must be positive"),
        (pa.tol_db >= 0, "poweralloc.tol_db", "must be nonnegative"),
        (pa.step0_db > 0, "poweralloc.step0_db", "must be positive"),
        (pa.min_step_db > 0, "poweralloc.min_step_db", "must be positive"),
        (pa.multistart_points >= 1, "poweralloc.multistart_points",
         "must be at least 1"),
        (0 <= pa.armijo_c < 1, "poweralloc.armijo_c", "must lie in [0, 1)"),
    ] + _float_ranges(cfg)
    for ok, key, rule in ranges:
        if not ok:
            raise ConfigError(f"{path}.{key}: {rule}")
    try:
        stop = cfg.montecarlo.stop_rule()
    except ValueError as exc:
        raise ConfigError(f"{path}.montecarlo: {exc}") from exc
    if -(-stop.max_symbols // stop.batch_size) > CHILD_SPAN:
        raise ConfigError(f"{path}.montecarlo.max_symbols: must fill at most "
                          f"{CHILD_SPAN} batches of batch_size")
    return cfg


def _linear(db: float) -> float:
    """10^(db/10): inf past the float range, 0.0 below it."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _float_ranges(cfg: RunConfig) -> list[tuple[bool, str, str]]:
    """Rules that keep the analytic walk's inputs finite and nonzero:
    sigma_n^2, each sigma^2, each linear power at its own level and at
    p_max_db, both also offset by the sweep's ends, and 2 P sigma^2 at
    the largest of those powers."""
    noise_sq = cfg.system.noise_sigma * cfg.system.noise_sigma
    out = [(0.0 < noise_sq < math.inf, "system.noise_sigma",
            "its square must be finite and nonzero")]
    offsets = ((None, 0.0), ("sweep.start_db", cfg.sweep.start_db),
               ("sweep.stop_db", cfg.sweep.stop_db))
    for i, u in enumerate(cfg.system.users):
        user = f"system.users[{i}]"
        sigma_sq = u.sigma * u.sigma
        out.append((0.0 < sigma_sq < math.inf, f"{user}.sigma",
                    "its square must be finite and nonzero"))
        top = 0.0
        for key, level in ((f"{user}.power_db", u.power_db),
                           ("poweralloc.p_max_db", cfg.poweralloc.p_max_db)):
            for off_key, off in offsets:
                power = _linear(level + off)
                out.append((0.0 < power < math.inf, off_key or key,
                            f"user {i + 1}'s power at {level + off:g} dB must "
                            "be finite and nonzero"))
                top = max(top, power)
        out.append((2.0 * top * sigma_sq < math.inf, f"{user}.sigma",
                    "2 * power * sigma^2 must be finite at the largest power"))
    return out


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data)


def build_model(cfg: RunConfig) -> SystemModel:
    users = []
    for u in cfg.system.users:
        mi, mq = parse_modulation(u.modulation)
        users.append(UserProfile(
            power=10.0 ** (u.power_db / 10.0),
            sigma=u.sigma,
            constellation=build_rect_qam(mi, mq),
            sic_rank=u.sic_rank))
    try:
        return SystemModel(cfg.system.n_antennas, cfg.system.noise_sigma,
                           tuple(users))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _sweep_offsets(sweep: SweepConfig):
    """The sweep's offsets in dB, accumulated step by step up to stop_db
    plus a 1e-9 slack; endless if the step does not move the offset."""
    off = sweep.start_db
    while off <= sweep.stop_db + 1e-9:
        yield off
        off += sweep.step_db


def sweep_grid(cfg: RunConfig) -> list[float]:
    return [round(off, 10) for off in _sweep_offsets(cfg.sweep)]


def _fields(section) -> dict:
    return {f.name: getattr(section, f.name) for f in dataclasses.fields(section)}


def to_dict(cfg: RunConfig) -> dict:
    """cfg as nested dicts, as dataclasses.asdict gives it but without its
    deep copy: the sections hold only numbers, strings, None and the
    users."""
    out = {name: _fields(section) for name, section in _fields(cfg).items()}
    out["system"]["users"] = tuple(_fields(u) for u in cfg.system.users)
    return out
