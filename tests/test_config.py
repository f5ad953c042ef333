"""Run settings, each checked in its dataclass, and seeded point sampling
against the per-draw reference loops, bitwise."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finvar.config
import finvar.metrics
from finvar import (ConfigError, ProjectivePair, TangentPoint, catalog_metric,
                    integrate_geodesic)
from finvar.config import (MAX_REJECTIONS, IntegratorSettings, RunConfig,
                           SampleSettings, load_config, sample_tangent_points)
from finvar.cli import main
from finvar.dynamics import RK4_MAX_STEPS

from conftest import make_pair


def reference_sample(pair, count, rng, box, velocity_scale):
    """One draw at a time into preallocated stacks, the domain answered by
    the stacked predicate and the norm by numpy: the loop the sampler must
    match, draw for draw. Returns the stacks and the number of draws."""
    n = pair.dim
    xs = np.empty((count, n))
    ys = np.empty((count, n))
    k = tries = 0
    while k < count:
        tries += 1
        if tries > MAX_REJECTIONS:
            raise ConfigError(
                f"could not draw {count} in-domain points from box {box}; "
                f"box may not intersect the domain")
        x = rng.uniform(box[0], box[1], size=n)
        if not pair.in_domain(x[None])[0]:
            continue
        y = rng.normal(size=n)
        norm = np.linalg.norm(y)
        if norm < 1e-12:
            continue
        xs[k], ys[k] = x, velocity_scale * y / norm
        k += 1
    return xs, ys, tries


def per_draw_sample(pair, count, rng, box=(-0.35, 0.35),
                    velocity_scale=1.0):
    """The sampler as it drew before its floats were Python floats: numpy
    draws and scales each point, and the pair's one-point predicate reads
    it as an (n,) array."""
    n = pair.dim
    if count > finvar.config.MAX_REJECTIONS:
        raise ConfigError(f"cannot draw {count} points in at most "
                          f"{finvar.config.MAX_REJECTIONS} draws")
    xs, ys = [], []
    tries = 0
    while len(xs) < count:
        tries += 1
        if tries > finvar.config.MAX_REJECTIONS:
            raise ConfigError(
                f"could not draw {count} in-domain points from box {box}; "
                f"box may not intersect the domain")
        x = rng.uniform(box[0], box[1], size=n)
        if not pair.in_domain(x):
            continue
        y = rng.normal(size=n)
        norm = math.sqrt(y.dot(y))
        if norm < 1e-12:
            continue
        xs.append(x)
        ys.append(velocity_scale * y / norm)
    return np.array(xs), np.array(ys)


def randers(n, field, beta):
    return catalog_metric({"kind": "randers", "dim": n, "alpha_field": field,
                           "beta": beta})


PAIRS = {
    "euclidean-klein-n2": (make_pair("euclidean", "klein", 2), (-0.35, 0.35)),
    # about half the draws of this box leave the unit ball
    "klein-funk-n3-box1": (make_pair("klein", "funk", 3), (-1.0, 1.0)),
    "klein-funk-n8": (make_pair("klein", "funk", 8), (-0.35, 0.35)),
    "euclidean-randers_df-n3": (make_pair("euclidean", "randers_df", 3),
                                (-0.35, 0.35)),
    "euclidean-randers_quadratic-n3": (ProjectivePair(
        catalog_metric({"kind": "euclidean", "dim": 3}),
        randers(3, "const_diag", {"potential": "quadratic",
                                  "params": [0.9, 0.6, 0.3]})), (-2.0, 2.0)),
    "curved-randers_curved_x2_dx1-n2": (ProjectivePair(
        catalog_metric({"kind": "riemannian", "dim": 2,
                        "field": "curved_x1"}),
        randers(2, "curved_x1", {"covector": "x2_dx1"})), (-1.5, 1.5)),
}


@pytest.mark.parametrize("velocity_scale", [1.0, 0.25, 3, -2.0, 1e-3])
@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("name", list(PAIRS))
def test_sampler_matches_the_per_draw_loop_bitwise(name, seed,
                                                   velocity_scale):
    pair, box = PAIRS[name]
    points = sample_tangent_points(pair, 60, np.random.default_rng(seed),
                                   box=box, velocity_scale=velocity_scale)
    xs, ys, tries = reference_sample(pair, 60, np.random.default_rng(seed),
                                     box, velocity_scale)
    assert points.x.tobytes() == xs.tobytes()
    assert points.y.tobytes() == ys.tobytes()
    if name == "klein-funk-n3-box1":
        assert tries > 1.5 * 60


def drawn(sample, *args, **kwargs):
    """The stacks a sampler draws, or the message of its ConfigError."""
    try:
        points = sample(*args, **kwargs)
    except ConfigError as exc:
        return str(exc)
    x, y = ((points.x, points.y) if hasattr(points, "x") else points)
    return x.tobytes(), y.tobytes(), x.shape


BOXES = [(-0.35, 0.35), (-1.0, 1.0), (0.2, 0.9), (-1, 1), (0, 1),
         # integer ends beyond 2**53, which round to floats
         (2 ** 53 + 1, 2 ** 53 + 2 ** 12 + 3), (-(2 ** 60) - 1, 2 ** 54 + 1)]
SAMPLE_PAIRS = [("euclidean", "klein", 2), ("klein", "funk", 3),
                ("euclidean", "randers_df", 3), ("euclidean", "funk", 8)]


@given(seed=st.integers(0, 2 ** 32 - 1),
       pair=st.sampled_from(SAMPLE_PAIRS), box=st.sampled_from(BOXES),
       velocity_scale=st.sampled_from([1.0, 0.3, 7, -2, -2.5e-3,
                                       2 ** 70 + 1]),
       count=st.integers(1, 30))
@settings(max_examples=150, deadline=None)
def test_sampler_matches_the_per_draw_numpy_loop(seed, pair, box,
                                                 velocity_scale, count):
    # rejection-heavy boxes, and boxes the ball metrics never meet, run
    # out of draws under a small bound: both samplers give the same message
    pair = make_pair(*pair)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(finvar.config, "MAX_REJECTIONS", 200)
        assert (drawn(sample_tangent_points, pair, count,
                      np.random.default_rng(seed), box=box,
                      velocity_scale=velocity_scale)
                == drawn(per_draw_sample, pair, count,
                         np.random.default_rng(seed), box=box,
                         velocity_scale=velocity_scale))


@pytest.mark.parametrize("box, count, drawn_all", [
    ((-0.35, 0.35), 39, True), ((-0.35, 0.35), 40, True),
    ((-0.35, 0.35), 41, False),
    # about half of these draws leave the ball: 26 points take at most 40
    # draws from this seed, and 27 do not
    ((-1.0, 1.0), 26, True), ((-1.0, 1.0), 27, False),
    ((0.2, 0.9), 38, False)])
def test_counts_near_the_draw_bound(monkeypatch, box, count, drawn_all):
    # 40 draws at most: a count above the bound is refused before any draw
    monkeypatch.setattr(finvar.config, "MAX_REJECTIONS", 40)
    pair = make_pair("klein", "funk", 3)
    outcome = drawn(sample_tangent_points, pair, count,
                    np.random.default_rng(3), box=box)
    assert outcome == drawn(per_draw_sample, pair, count,
                            np.random.default_rng(3), box=box)
    assert isinstance(outcome, tuple) == drawn_all
    if count > 40:
        assert outcome == "cannot draw 41 points in at most 40 draws"


def test_a_box_outside_the_domain_keeps_its_message(monkeypatch):
    monkeypatch.setattr(finvar.config, "MAX_REJECTIONS", 50)
    pair = make_pair("euclidean", "klein", 2)
    with pytest.raises(ConfigError) as info:
        sample_tangent_points(pair, 5, np.random.default_rng(0),
                              box=(2.0, 3.0))
    assert str(info.value) == (
        "could not draw 5 in-domain points from box (2.0, 3.0); box may not "
        "intersect the domain")


BASE = {"kind": "euclidean", "dim": 2}
COMPARISON = {"kind": "klein", "dim": 2}
POINT = {"x": [0.0, 0.0], "y": [1.0, 0.0]}


def file_error(tmp_path, **fields):
    """The message of the :class:`ConfigError` that ``load_config`` raises
    for a config file with these top-level fields."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"schema_version": 1,
                                "pair": {"base": BASE,
                                         "comparison": COMPARISON},
                                **fields}))
    with pytest.raises(ConfigError) as info:
        load_config(str(path))
    return str(info.value)


EUCLID_KLEIN = make_pair("euclidean", "klein", 2)
NAN, INF = float("nan"), float("inf")


def integrator_case(message, **settings):
    """Integrator settings built as the dataclass, through the library call
    and in a config file, and the message all three get."""
    return (lambda: IntegratorSettings(**settings),
            lambda: integrate_geodesic(
                EUCLID_KLEIN.base, TangentPoint(POINT["x"], POINT["y"]),
                **{"t_end": 1.0, **settings}),
            {"integrator": settings}, message)


def sampler_case(message, **settings):
    """Sample settings built as the dataclass, through the library sampler
    and in a config file, and the message all three get."""
    return (lambda: SampleSettings(**settings),
            lambda: sample_tangent_points(EUCLID_KLEIN, 5,
                                          np.random.default_rng(0),
                                          **settings),
            {"samples": settings}, message)


# a setting built directly, through the library call that takes it, in a
# config file, and the message each gets; None where a setting has no
# dataclass or no library call of its own
SETTING_ERRORS = {
    "format": (lambda: RunConfig(BASE, COMPARISON, fmt="xml"), None,
               {"format": "xml"},
               "format must be 'json' or 'csv', got 'xml'"),
    "box_length": sampler_case("samples.box must be [lo, hi], got [0.1]",
                               box=[0.1]),
    "box_type": sampler_case("samples.box must be [lo, hi], got 0.1",
                             box=0.1),
    "box_reversed": sampler_case("box (0.3, -0.3) is empty",
                                 box=(0.3, -0.3)),
    "box_infinite": sampler_case(
        "samples.box[0] must be a finite number, got -inf", box=(-INF, INF)),
    "velocity_scale_nan": sampler_case(
        "samples.velocity_scale must be a finite number, got nan",
        velocity_scale=NAN),
    "velocity_scale_inf": sampler_case(
        "samples.velocity_scale must be a finite number, got -inf",
        velocity_scale=-INF),
    "points_object": (lambda: RunConfig(BASE, COMPARISON, points=POINT),
                      None, {"points": POINT},
                      "config field 'points' must be a list, got "
                      "{'x': [0.0, 0.0], 'y': [1.0, 0.0]}"),
    "samples_key": (None, None, {"samples": {"cnt": 1}},
                    "unknown key(s) ['cnt'] in config field 'samples'; "
                    "expected a subset of ['box', 'count', 'trajectories', "
                    "'velocity_scale']"),
    "pair_key": (None, None,
                 {"pair": {"base": BASE, "comparison": COMPARISON,
                           "comparsion": {"kind": "funk", "dim": 2}}},
                 "unknown key(s) ['comparsion'] in config field 'pair'; "
                 "expected a subset of ['base', 'comparison']"),
    "integrator_key": (None, None, {"integrator": {"tol": 1}},
                       "unknown key(s) ['tol'] in config field "
                       "'integrator'; expected a subset of ['atol', "
                       "'method', 'rtol', 'step', 't_end']"),
    # integrator settings with which no geodesic can run
    "method_unknown": integrator_case(
        "integrator.method must be one of ['rk4', 'rkf45'], got 'verlet'",
        method="verlet"),
    "method_list": integrator_case(
        "integrator.method must be one of ['rk4', 'rkf45'], got ['rk4']",
        method=["rk4"]),
    "t_end_zero": integrator_case("t_end must be nonzero", t_end=0.0),
    "t_end_nan": integrator_case(
        "integrator.t_end must be a finite number, got nan", t_end=NAN),
    "t_end_inf": integrator_case(
        "integrator.t_end must be a finite number, got inf", t_end=INF),
    "atol_inf": integrator_case(
        "integrator.atol must be a finite number, got inf", atol=INF),
    "rk4_step_zero": integrator_case("rk4 needs step > 0, got 0.0",
                                     method="rk4", step=0.0),
    "rk4_step_negative": integrator_case("rk4 needs step > 0, got -0.001",
                                         method="rk4", step=-1e-3),
    "rk4_step_nan": integrator_case(
        "integrator.step must be a finite number, got nan",
        method="rk4", step=NAN),
    "rk4_step_inf": integrator_case(
        "integrator.step must be a finite number, got inf",
        method="rk4", step=INF),
    "rk4_step_bool": integrator_case(
        "integrator.step must be a finite number, got True",
        method="rk4", step=True),
    "rk4_step_count": integrator_case(
        "rk4 step count |t_end| / step must be at most 100000, got "
        "t_end=10000000000.0 step=1e-300",
        method="rk4", step=1e-300, t_end=1e10),
    # finite, but about 1e290 steps, one jet kept per step
    "rk4_step_count_finite": integrator_case(
        "rk4 step count |t_end| / step must be at most 100000, got "
        "t_end=1e-10 step=1e-300",
        method="rk4", step=1e-300, t_end=1e-10),
    "rkf45_rtol": integrator_case(
        "rkf45 needs positive tolerances, got rtol=0.0 atol=1e-10",
        rtol=0.0),
    "rkf45_atol": integrator_case(
        "rkf45 needs positive tolerances, got rtol=1e-10 atol=-1e-10",
        method="rkf45", atol=-1e-10),
}


@pytest.mark.parametrize("name", list(SETTING_ERRORS))
def test_a_setting_meets_one_check_however_it_is_built(tmp_path, name):
    *builds, fields, message = SETTING_ERRORS[name]
    assert file_error(tmp_path, **fields) == message
    for build in builds:
        if build is not None:
            with pytest.raises(ConfigError) as info:
                build()
            assert str(info.value) == message


def test_rk4_takes_at_most_its_step_bound():
    IntegratorSettings(method="rk4", step=0.5, t_end=-RK4_MAX_STEPS / 2)
    with pytest.raises(ConfigError, match="must be at most"):
        IntegratorSettings(method="rk4", step=0.5,
                           t_end=-(RK4_MAX_STEPS + 1) / 2)


def test_rk4_bound_scales_with_the_jet_size():
    # up to n = 8 the step bound alone; above it, steps * n^2 at most
    # RK4_MAX_STEPS * 8^2: 1562 steps at n = 64
    IntegratorSettings(method="rk4", step=0.5,
                       t_end=RK4_MAX_STEPS / 2).check_dim(8)
    IntegratorSettings(method="rk4", step=1.0, t_end=1562.0).check_dim(64)
    for steps, n in ((RK4_MAX_STEPS, 9), (1563, 64)):
        settings = IntegratorSettings(method="rk4", step=1.0,
                                      t_end=float(steps))
        with pytest.raises(ConfigError) as info:
            settings.check_dim(n)
        assert str(info.value) == (
            f"rk4 step count times n^2 must be at most 6400000, got "
            f"{steps} steps at n = {n}")
    # rkf45 keeps what it accepts, unbounded here
    IntegratorSettings(t_end=1e6).check_dim(64)


def _forbid_jets(monkeypatch) -> None:
    """Fail at once on any pass of a metric's jet from now on, so that a
    run the bound should refuse cannot go ahead."""
    def jet_pass(*args, **kwargs):
        raise AssertionError("a jet was evaluated")

    monkeypatch.setattr(finvar.metrics, "xy_jet2", jet_pass)


def test_rk4_at_n64_is_refused_before_any_jet(monkeypatch):
    _forbid_jets(monkeypatch)
    metric = catalog_metric({"kind": "klein", "dim": 64})
    p0 = TangentPoint(np.zeros(64), np.eye(64)[0])
    with pytest.raises(ConfigError, match="10000 steps at n = 64"):
        integrate_geodesic(metric, p0, 1.0, method="rk4", step=1e-4)


def test_geodesic_command_refuses_rk4_at_n64_before_any_jet(
        tmp_path, monkeypatch, capsys):
    _forbid_jets(monkeypatch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "pair": {"base": {"kind": "klein", "dim": 64},
                 "comparison": {"kind": "funk", "dim": 64}},
        "integrator": {"method": "rk4", "step": 1e-4, "t_end": 1.0}}))
    assert main(["geodesic", "--config", str(path)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "config",
        "message": "rk4 step count times n^2 must be at most 6400000, got "
                   "10000 steps at n = 64"}


def test_a_box_of_another_length_is_refused_in_any_sequence():
    with pytest.raises(ConfigError) as info:
        SampleSettings(box=(0.1,))
    assert str(info.value) == "samples.box must be [lo, hi], got (0.1,)"


def test_box_and_points_are_stored_as_tuples():
    assert SampleSettings(box=[-0.1, 0.1]).box == (-0.1, 0.1)
    cfg = RunConfig(BASE, COMPARISON, points=[POINT])
    assert cfg.points == (POINT,)
    # the message of an empty box shows the stored tuple
    with pytest.raises(ConfigError, match=r"^box \(0\.1, -0\.1\) is empty$"):
        SampleSettings(box=[0.1, -0.1])


def test_replace_reruns_the_checks():
    cfg = RunConfig(BASE, COMPARISON, points=[POINT])
    assert replace(cfg, seed=7).points == cfg.points
    for changes, message in (
            ({"fmt": "xml"}, "format must be 'json' or 'csv', got 'xml'"),
            ({"seed": -1}, "seed must be an integer >= 0, got -1"),
            ({"tolerance": -1.0}, "tolerance must be >= 0, got -1.0")):
        with pytest.raises(ConfigError) as info:
            replace(cfg, **changes)
        assert str(info.value) == message
    with pytest.raises(ConfigError, match="integrator.method"):
        replace(IntegratorSettings(), method="euler")


def test_sections_are_checked_before_the_run_settings(tmp_path):
    # each section's dataclass is built before RunConfig, so of two errors
    # the section's is named first
    assert file_error(tmp_path, format="xml",
                      integrator={"method": "euler"}).startswith(
        "integrator.method must be one of")
