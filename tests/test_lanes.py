"""The stacked (N-lane) engine against N one-point evaluations, bitwise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finvar.autodiff
from finvar import (DegenerateVelocity, DomainError, HyperDual,
                    ProjectivePair, SingularMetric, metric_jet, pair_jets,
                    rapcsak_residual)
from finvar.autodiff import seed_variables, xy_jet2
from finvar.linalg import inverse
from finvar.metrics import FinslerMetric, TangentPoint

from conftest import catalog_metrics, make_pair, sample_points

JET_FIELDS = ("F", "F_x", "F_y", "g", "g_inv", "h", "det_g", "F2_yx", "F2_x")
FAMILIES = len(catalog_metrics(2))


def assert_same_jets(stacked, single):
    assert len(stacked) == len(single)
    for k, (a, b) in enumerate(zip(stacked, single)):
        for name in JET_FIELDS:
            va, vb = getattr(a, name), getattr(b, name)
            assert type(va) is type(vb), (k, name)
            assert np.array_equal(va, vb), (k, name)


@given(n=st.sampled_from([2, 3, 5, 8]),
       family=st.integers(0, FAMILIES - 1),
       count=st.integers(1, 12),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=60, deadline=None)
def test_stacked_jets_equal_one_point_jets_bitwise(n, family, count, seed):
    metric = catalog_metrics(n)[family]
    points = sample_points(ProjectivePair(metric, metric), count, seed=seed,
                           box=(-0.3, 0.3))
    assert_same_jets(metric_jet(metric, points),
                     [metric_jet(metric, p) for p in points])


@pytest.mark.parametrize("lanes", [1, 3])
def test_chunk_size_does_not_change_results(monkeypatch, lanes):
    pair = make_pair("klein", "funk", 3)
    points = sample_points(pair, 10, seed=4)
    reference = pair_jets(pair, points)
    residuals = rapcsak_residual(pair, points).residuals
    monkeypatch.setattr(finvar.autodiff, "LANES", lanes)
    chunked = pair_jets(pair, points)
    assert_same_jets([j.base for j in chunked], [j.base for j in reference])
    assert_same_jets([j.comparison for j in chunked],
                     [j.comparison for j in reference])
    assert np.array_equal(rapcsak_residual(pair, points).residuals, residuals)


def test_lane_layouts():
    one = seed_variables([0.3, 0.4], 4)
    stack = seed_variables([[0.3, 0.4], [0.1, 0.2], [0.5, 0.6]], 4)
    w = one[0] * one[1] + one[0].sqrt()
    assert type(w.val) is float
    assert w.grad.shape == (1, 4) and w.hess.shape == (4, 4)
    w = stack[0] * stack[1] + stack[0].sqrt()
    assert w.val.shape == (3, 1, 1)
    assert w.grad.shape == (3, 1, 4) and w.hess.shape == (3, 4, 4)
    # a one-point constant broadcasts against stacked lanes
    c = w + HyperDual.constant(2.0, 4)
    assert c.hess.shape == (3, 4, 4)


def test_constant_field_in_a_stack():
    jet = xy_jet2(lambda xs, ys: 2.5, np.zeros((3, 2)), np.ones((3, 2)))
    assert np.array_equal(jet.value, [2.5, 2.5, 2.5])
    assert not jet.grad.any() and jet.hess.shape == (3, 4, 4)


def test_stacked_domain_agrees_with_the_one_point_predicate():
    # points straddling the ball boundary, some within rounding of it
    metric = catalog_metrics(3)[1]
    rng = np.random.default_rng(7)
    x = rng.normal(size=(200, 3))
    x *= ((1.0 - 1e-9) * (1.0 + rng.uniform(-1e-15, 1e-15, (200, 1)))
          / np.linalg.norm(x, axis=1, keepdims=True))
    mask = metric.domain(x)
    assert 0 < mask.sum() < 200
    assert mask.tolist() == [bool(metric.domain(row)) for row in x]


def test_randers_domain_batched_solve_agrees():
    randers = catalog_metrics(3)[5]
    x = np.random.default_rng(2).uniform(-2.5, 2.5, size=(100, 3))
    mask = randers.domain(x)
    assert 0 < mask.sum() < 100
    assert mask.tolist() == [bool(randers.domain(row)) for row in x]


@pytest.mark.parametrize("lanes", [1, 3, 64])
def test_stacked_errors_name_the_first_failing_point(monkeypatch, lanes):
    # with chunks of 1 and 3 the failing chunk starts at 2 and 0: the
    # chunk's offset is added back
    monkeypatch.setattr(finvar.autodiff, "LANES", lanes)
    klein = catalog_metrics(2)[1]
    x = np.array([[0.1, 0.0], [0.2, 0.0], [1.5, 0.0], [2.0, 0.0]])
    y = np.ones((4, 2))
    with pytest.raises(DomainError) as info:
        xy_jet2(klein, x, y)
    assert info.value.point == 2 and info.value.metric == "klein"
    assert "(point 2)" in str(info.value)
    # the square-root floor inside the field, past the first chunk
    x[2:] = 0.0
    y[3] = 1e-20
    with pytest.raises(DegenerateVelocity) as info:
        xy_jet2(klein, x, y)
    assert info.value.point == 3 and info.value.metric == "klein"


def test_stacked_inverse_equals_one_matrix_at_a_time():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 8):
        a = rng.normal(size=(9, n, n))
        a = a @ a.swapaxes(-1, -2) + 0.1 * np.eye(n)
        inv, det = inverse(a)
        for k in range(9):
            inv_k, det_k = inverse(a[k])
            assert np.array_equal(inv[k], inv_k) and det[k] == det_k
            assert type(det_k) is float


@pytest.mark.parametrize("bad", [
    [[np.nan, 0.0], [0.0, 1.0]],          # non-finite entry
    [[1.0, 2.0], [2.0, 1.0]],             # indefinite
    [[1.0, 0.0], [0.0, 1e-14]],           # pivot ratio
    [[1e200, 0.0], [0.0, 1e200]],         # det overflows
    [[1e-170, 0.0], [0.0, 1e-170]],       # det underflows to 0
], ids=["nan", "indefinite", "pivot", "det_overflow", "det_underflow"])
def test_stacked_inverse_names_the_failing_matrix(bad):
    stack = np.array([np.eye(2), 2.0 * np.eye(2), bad, np.eye(2)])
    with pytest.raises(SingularMetric) as info:
        inverse(stack)
    assert info.value.point == 2
    with pytest.raises(SingularMetric) as info:
        inverse(np.array(bad))
    assert info.value.point is None


def test_metric_and_point_reach_the_message_from_a_jet():
    rank_one = FinslerMetric("rank-one", 2,
                             lambda xs, ys: (ys[0] + ys[1]) * 1.0,
                             lambda x: True)
    points = [TangentPoint([0.0, 0.0], [1.0, 0.5])] * 3
    with pytest.raises(SingularMetric) as info:
        metric_jet(rank_one, points)
    assert str(info.value).startswith("rank-one: ")
    assert info.value.point == 0
