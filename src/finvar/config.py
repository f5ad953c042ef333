"""Run configuration: JSON config files, CLI overrides, and point sampling."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import INTEGRATORS
from .errors import ConfigError
from .metrics import (ProjectivePair, TangentPoint, catalog_metric,
                      check_keys, finite_number, finite_vector)

SCHEMA_VERSION = 1
DEFAULT_SEED = 12345
MAX_REJECTIONS = 100_000

_TOP_LEVEL_KEYS = {"schema_version", "pair", "samples", "integrator",
                   "tolerance", "seed", "format", "out", "points"}
_SAMPLE_KEYS = {"count", "trajectories", "box", "velocity_scale"}
_INTEGRATOR_KEYS = {"method", "rtol", "atol", "step", "t_end"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_number(value, where: str) -> None:
    """A JSON number that is finite; values keep their type, so reports
    echo them as written."""
    if not finite_number(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _check_point(pt, where: str, n: int | None) -> int:
    """An explicit tangent point: finite numeric x and y of equal length,
    ``n`` if given; returns that length."""
    if not isinstance(pt, dict) or "x" not in pt or "y" not in pt:
        raise ConfigError(f"{where} must be an object with 'x' and 'y'")
    check_keys(pt, {"x", "y"}, where)
    x = finite_vector(pt["x"], f"{where}.x", n)
    finite_vector(pt["y"], f"{where}.y", len(x))
    return len(x)


@dataclass(frozen=True)
class SampleSettings:
    """Random sampling: uniform box for base points (rejection-sampled
    against the pair's domain), unit-sphere velocities times a scale."""

    count: int = 100
    trajectories: int = 20
    box: tuple[float, float] = (-0.35, 0.35)
    velocity_scale: float | None = None

    def __post_init__(self):
        for name in ("count", "trajectories"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise ConfigError(
                    f"samples.{name} must be an integer >= 1, got {value!r}")
        _check_number(self.box[0], "samples.box[0]")
        _check_number(self.box[1], "samples.box[1]")
        if not self.box[0] < self.box[1]:
            raise ConfigError(f"box {self.box} is empty")
        if not math.isfinite(float(self.box[1]) - float(self.box[0])):
            raise ConfigError(f"box {self.box} is wider than the float range")
        if self.velocity_scale is not None:
            _check_number(self.velocity_scale, "samples.velocity_scale")
            if self.velocity_scale == 0:
                raise ConfigError("samples.velocity_scale must be nonzero: "
                                  "every sampled velocity would vanish")


@dataclass(frozen=True)
class IntegratorSettings:
    method: str = "rkf45"
    rtol: float = 1e-10
    atol: float = 1e-10
    step: float = 1e-3
    t_end: float = 1.0

    def __post_init__(self):
        if self.method not in INTEGRATORS:
            raise ConfigError(f"integrator.method must be one of "
                              f"{list(INTEGRATORS)}, got {self.method!r}")
        for name in ("rtol", "atol", "step", "t_end"):
            _check_number(getattr(self, name), f"integrator.{name}")


@dataclass(frozen=True)
class RunConfig:
    """Everything one CLI command needs; defaults give deterministic runs."""

    base: dict
    comparison: dict
    samples: SampleSettings = SampleSettings()
    integrator: IntegratorSettings = IntegratorSettings()
    tolerance: float | None = None
    seed: int = DEFAULT_SEED
    fmt: str = "json"
    out: str | None = None
    points: tuple = ()

    def __post_init__(self):
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError(
                f"seed must be an integer >= 0, got {self.seed!r}")
        if self.tolerance is not None:
            _check_number(self.tolerance, "tolerance")
            if self.tolerance < 0:
                raise ConfigError(
                    f"tolerance must be >= 0, got {self.tolerance!r}")
        n = None  # every point has the length of points[0]
        for i, pt in enumerate(self.points):
            n = _check_point(pt, f"points[{i}]", n)
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError(f"out must be a file path, got {self.out!r}")

    def build_pair(self) -> ProjectivePair:
        return ProjectivePair(base=catalog_metric(self.base),
                              comparison=catalog_metric(self.comparison))

    def explicit_points(self) -> TangentPoint:
        """The explicit points, as one stack."""
        return TangentPoint(
            np.array([pt["x"] for pt in self.points], dtype=float),
            np.array([pt["y"] for pt in self.points], dtype=float))


def load_config(path: str) -> RunConfig:
    """Parse a JSON config file into a :class:`RunConfig`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line "
                          f"{exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ConfigError(f"config {path} nests too deeply to parse") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    check_keys(raw, _TOP_LEVEL_KEYS, "config")
    version = raw.get("schema_version")
    if not (_is_int(version) and version == SCHEMA_VERSION):
        raise ConfigError(
            f"config field 'schema_version' must be {SCHEMA_VERSION}, "
            f"got {version!r}")
    pair = raw.get("pair")
    if not isinstance(pair, dict) or "base" not in pair or "comparison" not in pair:
        raise ConfigError("config field 'pair' needs 'base' and 'comparison' "
                          "metric descriptors")
    for key in ("samples", "integrator"):
        if not isinstance(raw.get(key, {}), dict):
            raise ConfigError(f"config field '{key}' must be a JSON object")
    sample_kwargs = dict(raw.get("samples", {}))
    check_keys(sample_kwargs, _SAMPLE_KEYS, "config field 'samples'")
    if "box" in sample_kwargs:
        box = sample_kwargs["box"]
        if not (isinstance(box, (list, tuple)) and len(box) == 2):
            raise ConfigError(f"samples.box must be [lo, hi], got {box!r}")
        sample_kwargs["box"] = tuple(box)
    integ_kwargs = dict(raw.get("integrator", {}))
    check_keys(integ_kwargs, _INTEGRATOR_KEYS, "config field 'integrator'")
    points = raw.get("points", [])
    if not isinstance(points, list):
        raise ConfigError(f"config field 'points' must be a list, got "
                          f"{points!r}")
    fmt = raw.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be 'json' or 'csv', got {fmt!r}")
    return RunConfig(
        base=pair["base"],
        comparison=pair["comparison"],
        samples=SampleSettings(**sample_kwargs),
        integrator=IntegratorSettings(**integ_kwargs),
        tolerance=raw.get("tolerance"),
        seed=raw.get("seed", DEFAULT_SEED),
        fmt=fmt,
        out=raw.get("out"),
        points=tuple(points),
    )


def apply_overrides(cfg: RunConfig, *, seed=None, fmt=None, tolerance=None,
                    out=None) -> RunConfig:
    """CLI flags take precedence over file values."""
    updates = {}
    if seed is not None:
        updates["seed"] = int(seed)
    if fmt is not None:
        updates["fmt"] = fmt
    if tolerance is not None:
        updates["tolerance"] = float(tolerance)
    if out is not None:
        updates["out"] = out
    return replace(cfg, **updates) if updates else cfg


def sample_tangent_points(pair: ProjectivePair, count: int,
                          rng: np.random.Generator,
                          box: tuple[float, float] = (-0.35, 0.35),
                          velocity_scale: float = 1.0) -> TangentPoint:
    """Seeded in-domain samples, as one stack: box-uniform base points,
    sphere velocities. Each draw is tested against the domain, by the
    pair's one-point predicate in Python floats, before its velocity is
    drawn, an order every seeded report depends on; drawing in batches
    would reorder the random stream. The accepted rows are stacked once."""
    n = pair.dim
    if count > MAX_REJECTIONS:
        # every point takes at least one draw
        raise ConfigError(f"cannot draw {count} points in at most "
                          f"{MAX_REJECTIONS} draws")
    xs, ys = [], []
    tries = 0
    while len(xs) < count:
        tries += 1
        if tries > MAX_REJECTIONS:
            raise ConfigError(
                f"could not draw {count} in-domain points from box {box}; "
                f"box may not intersect the domain")
        x = rng.uniform(box[0], box[1], size=n)
        if not pair.in_domain(x):
            continue
        y = rng.normal(size=n)
        # np.linalg.norm's own arithmetic for a vector
        norm = math.sqrt(y.dot(y))
        if norm < 1e-12:
            continue
        xs.append(x)
        ys.append(velocity_scale * y / norm)
    return TangentPoint(np.array(xs), np.array(ys))
