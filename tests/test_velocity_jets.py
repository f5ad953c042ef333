"""Velocity-only jets against jets with the x-seeds, bitwise.

``evaluate``, ``oracle`` and the comparison jets of ``integrals_along`` read
F, F_y, g, g^-1, h and det g, which are velocity derivatives, so their
passes seed the velocity alone and x enters as Python floats or lanes. The
inputs below carry +-0.0, +-inf and NaN: a zero entry must keep the sign
the x-seeded pass gives it, and a point the x-seeded pass refuses must be
refused with the same error. The NaNs share one payload, as in
``test_reference_arithmetic.py``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import finvar.autodiff
from finvar import (DegenerateVelocity, FinslerMetric, FinvarError,
                    HyperDual, NonFiniteResult, PairJets, ProjectivePair,
                    TangentPoint, catalog_metric, first_integrals,
                    integrals_along, integrate_geodesic, metric_jet,
                    pair_jets, xy_jet2)
from finvar.autodiff import _seeds, gdot, gsqrt
from finvar.cli import main

from conftest import (catalog_metrics, make_metric, make_pair, randers_extras,
                      sample_points)

VELOCITY_FIELDS = ("x", "y", "F", "F_y", "g", "g_inv", "h", "det_g")
SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 1e-300, -5e-324, 1e200)


def every_family(n):
    """Every catalog family in dimension n: catalog_metrics, both Randers
    extras, and a Randers metric with a linear potential, whose beta holds
    a -0.0."""
    return catalog_metrics(n) + randers_extras(n) + [catalog_metric({
        "kind": "randers", "dim": n,
        "beta": {"potential": "linear",
                 "params": [0.1, -0.0] + [0.0] * (n - 2)}})]


FAMILIES = len(every_family(2))


def entries(n):
    """n coordinates: mostly inside the unit ball, some of them special."""
    return st.lists(st.one_of(st.floats(-0.6, 0.6), st.sampled_from(SPECIAL),
                              st.sampled_from((0.0, -0.0))),
                    min_size=n, max_size=n)


def outcome(metric, points, spray):
    """The jet of the pass, or the error it raises, as comparable data."""
    try:
        with np.errstate(all="ignore"):
            return metric_jet(metric, points, spray=spray)
    except FinvarError as exc:
        return type(exc), str(exc), exc.point, exc.metric


def assert_same_outcome(metric, points):
    full, velocity = (outcome(metric, points, spray)
                      for spray in (True, False))
    if isinstance(full, tuple) or isinstance(velocity, tuple):
        assert velocity == full
        return
    assert velocity.G is None and full.G is not None
    for name in VELOCITY_FIELDS:
        a, b = getattr(full, name), getattr(velocity, name)
        assert type(a) is type(b), name
        assert np.shape(a) == np.shape(b), name
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name


@given(n=st.integers(2, 8), family=st.integers(0, FAMILIES - 1),
       data=st.data())
@settings(max_examples=300, deadline=None)
@example(n=2, family=1, data=None)
def test_one_point_velocity_jet_equals_the_full_jet_bitwise(n, family, data):
    metric = every_family(n)[family]
    if data is None:   # x and y with +-0.0 entries, for the Klein metric
        x, y = [0.0, -0.0], [1.0, -0.0]
    else:
        x, y = data.draw(entries(n)), data.draw(entries(n))
    try:
        points = TangentPoint(x, y)
    except FinvarError:
        return   # a zero velocity never reaches a pass
    assert_same_outcome(metric, points)


@given(n=st.integers(2, 8), family=st.integers(0, FAMILIES - 1),
       count=st.integers(1, 8), special=st.booleans(), data=st.data())
@settings(max_examples=200, deadline=None)
def test_stacked_velocity_jet_equals_the_full_jet_bitwise(n, family, count,
                                                          special, data):
    # chunks of 3 lanes: most stacks cross a chunk boundary
    metric = every_family(n)[family]
    if special:
        rows = st.lists(entries(n), min_size=count, max_size=count)
        x, y = np.array(data.draw(rows)), np.array(data.draw(rows))
    else:
        points = sample_points(ProjectivePair(metric, metric), count,
                               seed=data.draw(st.integers(0, 2 ** 16)),
                               box=(-0.3, 0.3))
        x, y = points.x, points.y
        # a few entries at +-0.0, in some lanes
        zeros = data.draw(st.lists(st.tuples(
            st.integers(0, count - 1), st.integers(0, n - 1),
            st.booleans(), st.sampled_from((0.0, -0.0))), max_size=4))
        for k, i, in_x, zero in zeros:
            (x if in_x else y)[k, i] = zero
    try:
        points = TangentPoint(x, y)
    except FinvarError:
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(finvar.autodiff, "LANES", 3)
        assert_same_outcome(metric, points)


@pytest.mark.parametrize("kinds, n, x, y", [
    (("klein", "funk"), 2, [0.0, -0.0], [1.0, -0.0]),
    (("klein", "funk"), 2, [0.3, 0.0], [-0.0, 1.0]),
    (("klein", "funk"), 3, [0.0, 0.0, 0.0], [-0.42, -0.0, -0.0]),
    (("klein", "funk"), 2, [-0.2, 0.0], [-0.0, -0.1]),
], ids=["klein-funk-origin", "klein-funk-axis", "klein-funk-n3",
        "klein-funk-negative"])
def test_pair_jets_at_signed_zeros_equal_the_full_jets(kinds, n, x, y):
    # points where a velocity-only pass alone gives some zero entry of F_y
    # the other sign
    pair = make_pair(*kinds, n)
    points = TangentPoint(x, y)
    jets = pair_jets(pair, points)
    for velocity, metric in ((jets.base, pair.base),
                             (jets.comparison, pair.comparison)):
        full = metric_jet(metric, points)
        for name in VELOCITY_FIELDS:
            assert (np.asarray(getattr(velocity, name)).tobytes()
                    == np.asarray(getattr(full, name)).tobytes()), name


# -- which inner products take the array pass -----------------------------


def counted_dots(monkeypatch):
    """The number of pairs of each ``autodiff._dots`` pass from now on."""
    calls = []
    one_pass = finvar.autodiff._dots

    def counted(arrays, offsets, *layout):
        calls.append(len(offsets))
        return one_pass(arrays, offsets, *layout)

    monkeypatch.setattr(finvar.autodiff, "_dots", counted)
    return calls


def test_scalars_dot_seeds_take_the_generic_loop(monkeypatch):
    # floats, lanes of the seeds' stack, and a mix of the two against
    # seeds: no array pass, only the loop's hyper-dual products
    calls = counted_dots(monkeypatch)
    y = np.array([[0.5, -1.0], [2.0, 0.25], [1.0, 1.0]])
    seeds = _seeds(y, 2, 0, 2)
    lanes = [np.full((3, 1, 1), 0.1), np.full((3, 1, 1), 0.3)]
    for u, v in (([0.1, -0.2], seeds), (lanes, seeds),
                 ([0.3, -0.0], _seeds(y[0], 4, 2, 2)),
                 ([lanes[0], 0.0], seeds)):
        assert isinstance(gdot(u, v), HyperDual)
    assert calls == []


@pytest.mark.parametrize("kind", ["klein", "funk"])
@pytest.mark.parametrize("count", [0, 3])
def test_ball_fields_take_one_pass_of_three_pairs(monkeypatch, kind, count):
    # |x|^2, |y|^2 and <x, y> of the x-seeded pass, at one point and on a
    # stack; without x-seeds only |y|^2 is a pair of seed vectors
    x, y = np.array([0.1, -0.2, 0.3]), np.array([0.6, 0.5, -0.8])
    if count:
        x, y = np.tile(x, (count, 1)), np.tile(y, (count, 1))
    field = make_metric(kind, 3).evaluator
    calls = counted_dots(monkeypatch)
    xy_jet2(field, x, y)
    assert calls == [3]
    calls.clear()
    xy_jet2(field, x, y, seed_x=False)
    assert calls == [1]


# -- the layout and the callers ----------------------------------------------


def test_a_lane_array_times_a_hyper_dual_defers_to_the_hyper_dual():
    seeds = _seeds(np.array([[0.5, -1.0], [2.0, 0.25]]), 2, 0, 2)
    lanes = np.array([2.0, 3.0])[:, None, None]
    for product in (lanes * seeds[0], seeds[0] * lanes, lanes + seeds[1],
                    lanes - seeds[1], lanes / seeds[0]):
        assert isinstance(product, HyperDual)
    assert np.array_equal((lanes * seeds[0]).val, [[[1.0]], [[6.0]]])


def test_velocity_only_jet_layout():
    klein = catalog_metrics(3)[1]
    one = xy_jet2(klein.evaluator, [0.1, 0.2, 0.0], [1.0, 0.5, -0.3],
                  seed_x=False)
    assert type(one.value) is float
    assert one.grad.shape == (3,) and one.hess.shape == (3, 3)
    stack = xy_jet2(klein.evaluator, np.full((5, 3), 0.1), np.ones((5, 3)),
                    seed_x=False)
    assert stack.grad.shape == (5, 3) and stack.hess.shape == (5, 3, 3)
    full = xy_jet2(klein.evaluator, np.full((5, 3), 0.1), np.ones((5, 3)))
    assert stack.value.tobytes() == full.value.tobytes()
    assert stack.grad.tobytes() == full.grad[:, 3:].tobytes()
    assert stack.hess.tobytes() == full.hess[:, :, 3:].tobytes()


def test_pair_jets_carry_no_spray_and_index_by_lane():
    pair = make_pair("klein", "funk", 2)
    jets = pair_jets(pair, sample_points(pair, 4, seed=3))
    assert jets.base.G is None and jets.comparison.G is None
    one = jets[2]
    assert one.base.G is None and type(one.base.F) is float
    assert one.base.g.shape == (2, 2)


@pytest.mark.parametrize("command", ["evaluate", "oracle", "geodesic"])
def test_point_commands_seed_x_only_where_a_spray_is_read(monkeypatch,
                                                          tmp_path, command):
    # evaluate and oracle seed no x; geodesic seeds x for the integrator's
    # jets only, and its comparison jets take the velocity alone
    seen = []
    original = finvar.metrics.xy_jet2

    def counted(f, x, y, *, seed_x=True):
        seen.append(seed_x)
        return original(f, x, y, seed_x=seed_x)

    monkeypatch.setattr(finvar.metrics, "xy_jet2", counted)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "pair": {"base": {"kind": "klein", "dim": 2},
                 "comparison": {"kind": "funk", "dim": 2}},
        "samples": {"count": 3, "trajectories": 1},
        "integrator": {"t_end": 0.1}, "seed": 2}))
    assert main([command, "--config", str(path), "--out",
                 str(tmp_path / "out")]) == 0
    if command == "geodesic":
        assert seen[-1] is False and all(seen[:-1])
    else:
        assert seen == [False, False]


def test_integrals_along_a_third_metric_equal_the_full_jets():
    pair = make_pair("euclidean", "klein", 3)
    traj = integrate_geodesic(make_metric("funk", 3),
                              sample_points(pair, 1, seed=4)[0], 0.3)
    x, y = traj.jets.x, traj.jets.y
    full = first_integrals(PairJets(
        metric_jet(pair.base, TangentPoint(x, y)),
        metric_jet(pair.comparison, TangentPoint(x, y)))).f
    assert integrals_along(pair, traj).tobytes() == full.tobytes()


# -- fields with a root of an x-only term ------------------------------------


def x_root_metric(field):
    return FinslerMetric("x_root", 2, field, lambda xs: True)


@pytest.mark.parametrize("spray", [True, False])
def test_a_root_of_an_x_term_takes_the_bytes_of_each_point(spray):
    # a velocity-only stacked pass hands gsqrt the x-term as lanes
    metric = x_root_metric(
        lambda xs, ys: gsqrt(1.0 + gdot(xs, xs)) * gsqrt(gdot(ys, ys)))
    points = TangentPoint([[0.3, -0.0], [0.1, 0.5], [-0.0, 0.0]],
                          [[1.0, -0.0], [-0.5, 2.0], [0.0, -1.0]])
    stacked = metric_jet(metric, points, spray=spray)
    for i in range(len(points)):
        one = metric_jet(metric, points[i], spray=spray)
        for name in VELOCITY_FIELDS:
            assert (np.asarray(getattr(stacked[i], name)).tobytes()
                    == np.asarray(getattr(one, name)).tobytes()), name
    base = make_metric("euclidean", 2)
    jets = pair_jets(ProjectivePair(base, metric), points)
    assert jets.comparison.F.tobytes() == stacked.F.tobytes()


@pytest.mark.parametrize("bad, error", [
    (0.0, DegenerateVelocity), (-1.0, DegenerateVelocity),
    (math.nan, NonFiniteResult)])
def test_a_lane_under_the_root_floor_fails_alike_in_every_layout(bad, error):
    metric = x_root_metric(lambda xs, ys: gsqrt(xs[0]) * gsqrt(gdot(ys, ys)))
    points = TangentPoint([[0.25, 0.0], [bad, 0.0], [0.5, 0.0]],
                          [[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]])
    messages = set()
    for spray in (True, False):
        for pts, point in ((points, 1), (points[1], None)):
            with pytest.raises(error) as info:
                metric_jet(metric, pts, spray=spray)
            assert info.value.point == point
            assert info.value.metric == "x_root"
            messages.add(info.value.args[0])
    assert len(messages) == 1
