"""Hyper-dual jets against hand values and exact symbolic derivatives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finvar import (DegenerateVelocity, DomainError, NonFiniteResult,
                    ProjectivePair)
from finvar.autodiff import (HyperDual, Jet2, _seed_pair_hessian, gsqrt,
                             lane_power, xy_jet2)

import symbolic_oracle
from conftest import (catalog_metrics, jet_seeds, make_metric, metric_id,
                      sample_points, symbolic_cases)

EUCLID = make_metric("euclidean", 2).evaluator
FUNK = make_metric("funk", 2).evaluator
KLEIN = make_metric("klein", 2).evaluator
CURVED = make_metric("curved", 2).evaluator


def velocity_jet(f, x, y) -> Jet2:
    """The velocity blocks grad[n:] and hess[:, n:] of the joint jet."""
    n = len(y)
    jet = xy_jet2(f, x, y)
    return Jet2(jet.value, jet.grad[n:], jet.hess[:, n:])


def test_euclid_value_and_gradient():
    jet = velocity_jet(EUCLID, [7.0, -3.0], [3.0, 4.0])
    assert jet.value == pytest.approx(5.0, abs=1e-14)
    assert jet.grad == pytest.approx([0.6, 0.8], abs=1e-14)


def squared(metric):
    def f(xs, ys):
        value = metric(xs, ys)
        return value * value

    return f


def test_hessian_of_squared_euclid_is_2I():
    jet = velocity_jet(squared(EUCLID), [0.0, 0.0], [3.0, 4.0])
    assert np.abs(jet.hess - 2.0 * np.eye(2)).max() < 1e-12


# In the joint jet of a field in dimension 2, grad[:2] is the x-gradient
# and hess[:, :2] the mixed Hessian d^2 F / dy^i dx^j.


def test_x_gradient_euclid_vanishes():
    gx = xy_jet2(EUCLID, [0.2, 0.5], [1.0, 2.0]).grad[:2]
    assert np.abs(gx).max() == 0.0


def test_x_gradient_klein_vanishes_at_origin():
    # the formula is even in x, so the x-gradient is odd and zero at x = 0
    gx = xy_jet2(KLEIN, [0.0, 0.0], [1.3, -0.4]).grad[:2]
    assert np.abs(gx).max() < 1e-9


def test_x_gradient_curved_riemannian_hand_value():
    # F = sqrt(y1^2 + (1 + x1^2) y2^2); at x=(1,0), y=(0,1): dF/dx1 = 1/sqrt(2)
    gx = xy_jet2(CURVED, [1.0, 0.0], [0.0, 1.0]).grad[:2]
    assert gx[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-13)
    assert gx[1] == pytest.approx(0.0, abs=1e-13)


def test_mixed_hessian_trivial_cases():
    mixed = xy_jet2(EUCLID, [0.3, 0.1], [1.0, 2.0]).hess[:, :2]
    assert np.abs(mixed).max() == 0.0
    # derivative of x1 -> x1^2 vanishes at the origin
    mixed = xy_jet2(CURVED, [0.0, 0.0], [1.0, 1.0]).hess[:, :2]
    assert np.abs(mixed).max() < 1e-14


@pytest.mark.parametrize("metric", symbolic_cases(), ids=metric_id)
def test_joint_jet_matches_symbolic_derivatives(metric):
    # the value, F_x, F_y and the rows [F_yx | F_yy] of every family
    points = sample_points(ProjectivePair(metric, metric), 25, seed=11)
    jets = xy_jet2(metric.evaluator, points.x, points.y)
    for k, p in enumerate(points):
        F, grad, hess = symbolic_oracle.jet(metric, p.x, p.y)
        exact = np.concatenate(([F], grad, hess.ravel()))
        ad = np.concatenate(([jets.value[k]], jets.grad[k],
                             jets.hess[k].ravel()))
        assert np.abs(ad - exact).max() <= 1e-12 * np.abs(exact).max()


@pytest.mark.parametrize("metric", catalog_metrics(2),
                         ids=lambda m: m.name)
def test_chain_rule_square_assembly(metric):
    for p in sample_points(ProjectivePair(metric, metric), 25, seed=5):
        jet = velocity_jet(metric.evaluator, p.x, p.y)
        jet2 = velocity_jet(squared(metric.evaluator), p.x, p.y)
        grad_ref = 2.0 * jet.value * jet.grad
        hess_ref = 2.0 * np.outer(jet.grad, jet.grad) + 2.0 * jet.value * jet.hess
        assert np.abs(jet2.grad - grad_ref).max() <= 1e-12 * np.abs(grad_ref).max()
        assert np.abs(jet2.hess - hess_ref).max() <= 1e-12 * np.abs(hess_ref).max()


@pytest.mark.parametrize("lam", [0.5, 2.0, 7.0])
@pytest.mark.parametrize("metric", catalog_metrics(3), ids=lambda m: m.name)
def test_positive_homogeneity_of_value(metric, lam):
    for p in sample_points(ProjectivePair(metric, metric), 10, seed=3):
        f1 = velocity_jet(metric.evaluator, p.x, p.y).value
        f2 = velocity_jet(metric.evaluator, p.x, lam * p.y).value
        assert abs(f2 - lam * f1) <= 1e-12 * abs(lam * f1)


@given(st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=-0.5, max_value=0.5),
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.2, max_value=2.0))
@settings(max_examples=60, deadline=None)
def test_klein_jet_scaling_laws(y1, x1, y2, lam):
    # F 1-homogeneous: gradient is 0-homogeneous, Hessian is (-1)-homogeneous
    x = [x1, 0.1]
    y = [y1, y2 if abs(y2) > 1e-3 else 1.0]
    a = velocity_jet(KLEIN, x, y)
    b = velocity_jet(KLEIN, x, [lam * v for v in y])
    assert b.value == pytest.approx(lam * a.value, rel=1e-11)
    assert b.grad == pytest.approx(a.grad, rel=1e-10, abs=1e-12)
    assert b.hess * lam == pytest.approx(a.hess, rel=1e-9, abs=1e-11)


def test_affine_composition_applies_jacobian_rule():
    # jet of y -> F(x, A y + b) must be (A^T grad, A^T hess A)
    A = np.array([[1.2, -0.4], [0.3, 0.9]])
    b = np.array([0.05, -0.1])

    def composed(xs, ys):
        zs = [A[0, 0] * ys[0] + A[0, 1] * ys[1] + b[0],
              A[1, 0] * ys[0] + A[1, 1] * ys[1] + b[1]]
        return FUNK(xs, zs)

    x, y = [0.1, 0.2], [0.8, -0.3]
    inner = velocity_jet(FUNK, x, A @ y + b)
    outer = velocity_jet(composed, x, y)
    assert outer.value == pytest.approx(inner.value, rel=1e-14)
    assert np.abs(outer.grad - A.T @ inner.grad).max() < 1e-13
    assert np.abs(outer.hess - A.T @ inner.hess @ A).max() < 1e-13


def test_hyperdual_quotient_against_hand_values():
    # w = p / q with p = u^2 + 3, q = v^2 + 2
    a, b = 1.7, -0.6
    u, v = fresh_seeds([a, b], 2, 0)
    w = (u * u + 3.0) / (v * v + 2.0)
    p, q = a * a + 3.0, b * b + 2.0
    grad = [2.0 * a / q, -2.0 * b * p / q ** 2]
    hess = [[2.0 / q, -4.0 * a * b / q ** 2],
            [-4.0 * a * b / q ** 2, p * (6.0 * b * b - 4.0) / q ** 3]]
    assert w.val == pytest.approx(p / q, rel=1e-14)
    assert np.abs(w.grad[0] - grad).max() < 1e-13
    assert np.abs(w.hess - hess).max() < 1e-13


def test_hyperdual_hessian_is_symmetric_bitwise():
    u, v = fresh_seeds([0.9, 2.3], 2, 0)
    w = (u * v + u.sqrt() * 3.1) / (v + 2.0)
    assert np.array_equal(w.hess, w.hess.T)


def test_degenerate_velocity_raises():
    with pytest.raises(DegenerateVelocity):
        velocity_jet(EUCLID, [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(DegenerateVelocity):
        HyperDual(1e-30, np.zeros((1, 2)), np.zeros((2, 2))).sqrt()


def test_gsqrt_of_a_float():
    assert gsqrt(4.0) == 2.0
    # NaN is not above the floor, and reads as a non-finite result
    with pytest.raises(NonFiniteResult):
        gsqrt(float("nan"))
    with pytest.raises(DegenerateVelocity):
        gsqrt(1e-30)


def test_domain_violation_raises():
    with pytest.raises(DomainError):
        make_metric("klein", 2).jet2([1.5, 0.0], [1.0, 0.0])


def test_velocity_jet_matches_joint_jet_blocks():
    # seeding only y, with a float base point, must reproduce the y blocks
    # of the joint (x, y) pass, and a plain float evaluation its value
    x, y = [0.1, 0.2], [1.0, -0.5]
    velocity = FUNK(x, fresh_seeds(y, 2, 0))
    joint = xy_jet2(FUNK, x, y)
    assert np.allclose(joint.grad[2:], velocity.grad, rtol=0, atol=1e-15)
    assert np.allclose(joint.hess[:, 2:], velocity.hess, rtol=0, atol=1e-15)
    assert float(FUNK(x, y)) == pytest.approx(joint.value, rel=1e-15)


# -- the velocity-row engine against a full-Hessian reference, bitwise ----


def fresh_seeds(values, m, offset):
    """Seeds with freshly allocated gradients and full (m, m) zero Hessians,
    one per seed: plain hyper-duals, so no product of them takes the seed
    rule, and a pass over them is the general full-Hessian rule."""
    values = np.asarray(values, dtype=float)
    lanes = values.shape[:-1]
    seeds = []
    for i in range(values.shape[-1]):
        grad = np.zeros(lanes + (1, m))
        grad[..., 0, offset + i] = 1.0
        val = float(values[i]) if not lanes else values[:, i, None, None]
        seeds.append(HyperDual(val, grad, np.zeros(lanes + (m, m))))
    return seeds


def assert_same_bytes(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


# signed zeros and negative coordinates, where a changed rounding order or
# a dropped term would show in the sign of a zero
COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.3, 0.3))
VELOCITY = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))


@st.composite
def jet_case(draw):
    n = draw(st.sampled_from([2, 3, 5, 8]))
    count = draw(st.integers(0, 12))   # 0: one point
    shape = (n,) if count == 0 else (count, n)
    size = n * max(count, 1)
    x = np.array(draw(st.lists(COORD, min_size=size, max_size=size)))
    y = np.array(draw(st.lists(VELOCITY, min_size=size, max_size=size)))
    x, y = x.reshape(shape), y.reshape(shape)
    y[..., 0] = draw(st.sampled_from([0.5, -0.5, 1.5]))   # F off its floor
    return n, x, y


@given(case=jet_case(), family=st.integers(0, len(catalog_metrics(2)) - 1))
@settings(max_examples=120, deadline=None)
def test_velocity_rows_equal_the_full_hessian_rows_bitwise(case, family):
    n, x, y = case
    metric = catalog_metrics(n)[family]
    jet = xy_jet2(metric.evaluator, x, y)
    ref = metric.evaluator(fresh_seeds(x, 2 * n, 0), fresh_seeds(y, 2 * n, n))
    lanes = x.shape[:-1]
    assert_same_bytes(jet.value, np.reshape(ref.val, lanes))
    assert_same_bytes(jet.grad, np.reshape(ref.grad, lanes + (2 * n,)))
    full = np.broadcast_to(ref.hess, lanes + (2 * n, 2 * n))
    assert_same_bytes(jet.hess, full[..., n:, :])


@pytest.mark.parametrize("a", [-1.5, -0.0, 0.0, 2.0])
@pytest.mark.parametrize("b", [-0.25, -0.0, 0.0, 3.0])
def test_seed_product_rule_equals_the_general_rule_bytewise(a, b):
    one = [a, b, -a, 1.0]
    stack = [one, [b, a, -b, 2.0], [-0.0, 1.0, a, b]]   # velocities x[1:]
    # (seeds, reference seeds): m = 6 variables with the 3 velocity rows,
    # at one point and over a stack
    rows = 3
    cases = []
    for values in (one, stack):
        values = np.array(values)
        x, y = values[..., :3], values[..., 1:]
        cases.append((jet_seeds(x, y),
                      fresh_seeds(x, 6, 0) + fresh_seeds(y, 6, 3)))
    for seeds, fresh in cases:
        m = len(seeds)
        for i in range(m):
            for j in range(m):
                w = seeds[i] * seeds[j]
                assert w.hess is _seed_pair_hessian(i, j, rows, m)
                assert not w.hess.flags.writeable
                shifted = (seeds[i] + 1.0) * seeds[j]  # the general rule
                for got, ref in ((w, fresh[i] * fresh[j]),
                                 (shifted, (fresh[i] + 1.0) * fresh[j])):
                    ref_hess = ref.hess[..., m - rows:, :]
                    assert_same_bytes(got.val, ref.val)
                    assert_same_bytes(
                        np.broadcast_to(got.grad, ref.grad.shape), ref.grad)
                    assert_same_bytes(
                        np.broadcast_to(got.hess, ref_hess.shape), ref_hess)


@pytest.mark.parametrize("p", [2, 3, 2.0 / 3.0, 0.25])
def test_lane_power_takes_the_float_power_in_every_lane(p):
    bases = np.random.default_rng(5).uniform(0.0, 10.0, size=200)
    with np.errstate(invalid="ignore"):
        powers = lane_power(np.append(bases, -2.0), p)
        one = lane_power(np.float64(-2.0), p)
    assert powers.dtype == np.float64 and powers.shape == (201,)
    assert powers[:-1].tobytes() == np.array(
        [v ** p for v in bases.tolist()]).tobytes()
    # a negative base: an integer exponent gives the real power, a
    # fractional one nan, not a complex number
    for value in (powers[-1], one):
        assert isinstance(value, np.float64)
        if isinstance(p, int):
            assert value == (-2.0) ** p
        else:
            assert np.isnan(value)
