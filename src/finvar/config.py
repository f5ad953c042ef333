"""Run settings and point sampling. Each setting is named and checked once,
in the dataclass that holds it: :func:`load_config` only parses a JSON file,
and a CLI flag or a library caller overrides with ``dataclasses.replace``."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import INTEGRATORS, check_integrator
from .errors import ConfigError
from .metrics import (ProjectivePair, TangentPoint, catalog_metric,
                      check_keys, finite_number, finite_vector)

SCHEMA_VERSION = 1
DEFAULT_SEED = 12345
MAX_REJECTIONS = 100_000

_TOP_LEVEL_KEYS = {"schema_version", "pair", "samples", "integrator",
                   "tolerance", "seed", "format", "out", "points"}


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
        if not (isinstance(self.box, (list, tuple)) and len(self.box) == 2):
            raise ConfigError(
                f"samples.box must be [lo, hi], got {self.box!r}")
        object.__setattr__(self, "box", tuple(self.box))
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
        check_integrator(self.method, self.t_end, step=self.step,
                         rtol=self.rtol, atol=self.atol)


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
        if self.fmt not in ("json", "csv"):
            raise ConfigError(
                f"format must be 'json' or 'csv', got {self.fmt!r}")
        if not isinstance(self.points, (list, tuple)):
            raise ConfigError(f"config field 'points' must be a list, got "
                              f"{self.points!r}")
        object.__setattr__(self, "points", tuple(self.points))
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
    check_keys(pair, {"base", "comparison"}, "config field 'pair'")
    sections = {}
    for key, settings in (("samples", SampleSettings),
                          ("integrator", IntegratorSettings)):
        section = raw.get(key, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config field '{key}' must be a JSON object")
        check_keys(section, {f.name for f in fields(settings)},
                   f"config field '{key}'")
        sections[key] = settings(**section)
    return RunConfig(
        base=pair["base"],
        comparison=pair["comparison"],
        tolerance=raw.get("tolerance"),
        seed=raw.get("seed", DEFAULT_SEED),
        fmt=raw.get("format", "json"),
        out=raw.get("out"),
        points=raw.get("points", ()),
        **sections,
    )


def sample_tangent_points(pair: ProjectivePair, count: int,
                          rng: np.random.Generator,
                          box: tuple[float, float] = (-0.35, 0.35),
                          velocity_scale: float = 1.0) -> TangentPoint:
    """Seeded in-domain samples, as one stack: box-uniform base points,
    sphere velocities. Each draw is tested against the domain, by the
    pair's one-point predicate in Python floats, before its velocity is
    drawn, an order every seeded report depends on; drawing in batches
    would reorder the random stream. A base point is drawn and a velocity
    scaled in Python floats, with the bits of numpy's own arithmetic, and
    the accepted rows are stacked once."""
    n = pair.dim
    if count > MAX_REJECTIONS:
        # every point takes at least one draw
        raise ConfigError(f"cannot draw {count} points in at most "
                          f"{MAX_REJECTIONS} draws")
    # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(), in floats
    lo, hi = float(box[0]), float(box[1])
    width = hi - lo
    # the accepted rows, one after another
    xs, ys = [], []
    tries = 0
    while len(xs) < count * n:
        tries += 1
        if tries > MAX_REJECTIONS:
            raise ConfigError(
                f"could not draw {count} in-domain points from box {box}; "
                f"box may not intersect the domain")
        x = [lo + width * r for r in rng.random(n).tolist()]
        if not pair.in_domain(x):
            continue
        y = rng.normal(size=n)
        # np.linalg.norm's own arithmetic for a vector
        norm = math.sqrt(y.dot(y))
        if norm < 1e-12:
            continue
        xs += x
        ys += [velocity_scale * v / norm for v in y.tolist()]
    return TangentPoint(np.array(xs).reshape(count, n),
                        np.array(ys).reshape(count, n))
