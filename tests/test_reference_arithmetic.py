"""Hyper-dual products, the metric-jet assembly and the oracle's pair sum,
byte for byte against the formulas they replaced.

Each reference below is the earlier form of the same arithmetic: the full
(m, m) outer product of two gradients sliced to the kept rows, the second-
derivative blocks of a metric jet from four products, and the permutation-
pair sum added term by term in a Python loop. The inputs carry +-0.0, +-inf
and NaN. The NaNs share one payload: IEEE 754 leaves the payload of a
product of two NaNs to the hardware, and on x86 it is the first operand's,
so only for NaNs of two payloads could a commuted product differ in bytes
(no report shows a NaN's sign).
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from finvar import SingularMetric, linalg, metrics
from finvar.autodiff import (HyperDual, Jet2, _seed_arrays,
                             _seed_pair_hessian, lane_power)
from finvar.oracle import _perm_sign, delta_alpha_combinatorial

SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
LAYOUTS = ("one", "stack", "lane-free")
LANES = 5


def assert_same_bytes(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


def special_array(rng, shape, values=SPECIAL, share=0.4):
    """Normal entries, about ``share`` of them replaced by ``values``."""
    a = rng.standard_normal(shape)
    mask = rng.random(shape) < share
    a[mask] = rng.choice(values, size=int(mask.sum()))
    return a


def hyperdual(rng, n, layout, val=None):
    """A hyper-dual over m = 2n variables with the n velocity rows: at one
    point, over a stack, or over a stack with lane-free gradient and Hessian
    rows, as a seed has. ``val`` draws the value, (lanes, 1, 1)."""
    m = 2 * n
    lanes = () if layout == "one" else (LANES,)
    rows = () if layout != "stack" else (LANES,)
    v = (val or (lambda shape: special_array(rng, shape)))(lanes + (1, 1))
    v = float(v[0, 0]) if layout == "one" else v
    return HyperDual(v, special_array(rng, rows + (1, m)),
                     special_array(rng, rows + (n, m)))


# -- the replaced formulas --------------------------------------------------


def old_outer_rows(u):
    g = u.grad
    return g[..., g.shape[-1] - u.hess.shape[-2]:].swapaxes(-1, -2) * g


def old_product_hess(u, v):
    cross = u.grad.swapaxes(-1, -2) * v.grad
    rows = (..., slice(cross.shape[-1] - u.hess.shape[-2], None), slice(None))
    return (u.val * v.hess + v.val * u.hess + cross[rows]
            + cross.swapaxes(-1, -2)[rows])


def old_reciprocal_hess(u):
    inv = 1.0 / u.val
    inv2 = inv * inv
    return (2.0 * inv2 * inv) * old_outer_rows(u) - inv2 * u.hess


def old_sqrt_hess(u):
    v = u.val
    s = np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)
    d1 = 0.5 / s
    d2 = -0.25 / (v * s)
    return d1 * u.hess + d2 * old_outer_rows(u)


def old_seed_pair_hessian(i, j, rows, m):
    unit = _seed_arrays(rows, m)[0]
    cross = unit[i].swapaxes(-1, -2) * unit[j]
    return (cross + cross.swapaxes(-1, -2))[m - rows:]


def old_blocks(F, grad, hess, n):
    """h, g and d^2F^2/dy dx from the four products of the earlier jet
    assembly."""
    F_x, F_y = grad[..., :n], grad[..., n:]
    F_yy, F_yx = hess[..., :, n:], hess[..., :, :n]
    F_m = np.asarray(F)[..., None, None]
    h = F_m * F_yy
    g = h + F_y[..., :, None] * F_y[..., None, :]
    F2_yx = 2.0 * (F_y[..., :, None] * F_x[..., None, :] + F_m * F_yx)
    return h, g, F2_yx


def old_pair_sum(term):
    total = 0.0
    for k in range(term.shape[-1]):
        total += term[..., k]
    return total


# -- hyper-dual arithmetic --------------------------------------------------


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", range(2, 9))
def test_product_takes_the_bytes_of_the_full_outer_product(n, layout):
    rng = np.random.default_rng(n)
    for _ in range(4):
        u = hyperdual(rng, n, "stack" if layout != "one" else "one")
        v = hyperdual(rng, n, layout)
        with np.errstate(all="ignore"):
            for a, b in ((u, v), (v, u)):
                assert_same_bytes((a * b).hess, old_product_hess(a, b))


def positive(rng):
    """Values above the square-root floor, +inf among them."""
    def draw(shape):
        v = rng.uniform(0.25, 4.0, shape)
        v[rng.random(shape) < 0.3] = np.inf
        return v
    return draw


def nonzero(rng):
    """Values with +-inf and NaN but no zero: 1 / 0.0 raises on a float."""
    def draw(shape):
        v = special_array(rng, shape)
        return np.where(v == 0.0, 0.5, v)
    return draw


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", range(2, 9))
def test_sqrt_and_reciprocal_take_the_bytes_of_the_kept_rows(n, layout):
    rng = np.random.default_rng(100 + n)
    for _ in range(4):
        u = hyperdual(rng, n, layout, val=positive(rng))
        w = hyperdual(rng, n, layout, val=nonzero(rng))
        with np.errstate(all="ignore"):
            assert_same_bytes(u.sqrt().hess, old_sqrt_hess(u))
            assert_same_bytes(w.reciprocal().hess, old_reciprocal_hess(w))


@pytest.mark.parametrize("n", range(2, 9))
def test_seed_pair_block_takes_the_bytes_of_the_sliced_block(n):
    m = 2 * n
    for i in range(m):
        for j in range(m):
            block = _seed_pair_hessian(i, j, n, m)
            assert not block.flags.writeable
            assert_same_bytes(block, old_seed_pair_hessian(i, j, n, m))


# -- the metric-jet assembly ------------------------------------------------


class JetMetric:
    """A stand-in metric whose jet is given: F and the velocity rows keep g
    positive definite, the x-blocks carry +-0.0, +-inf and NaN."""

    name = "given"

    def __init__(self, jet):
        self.jet = jet

    def jet2(self, x, y):
        return self.jet


def given_jet(rng, n, lanes):
    m = 2 * n
    F = rng.uniform(0.5, 2.0, lanes)
    grad = special_array(rng, lanes + (m,))
    grad[..., n:] = rng.choice([0.0, -0.0, 0.5, -1.5], lanes + (n,))
    hess = special_array(rng, lanes + (n, m))
    a = rng.standard_normal(lanes + (n, n))
    a[rng.random(lanes + (n, n)) < 0.3] = -0.0
    hess[..., n:] = (a @ a.swapaxes(-1, -2)) + n * np.eye(n)
    return Jet2(F.item() if not lanes else F, grad, hess)


@pytest.mark.parametrize("lanes", [(), (LANES,)], ids=["one", "stack"])
@pytest.mark.parametrize("n", range(2, 9))
def test_jet_assembly_takes_the_bytes_of_four_products(n, lanes,
                                                       monkeypatch):
    rng = np.random.default_rng(200 + n)
    seen = []
    matvec = metrics._matvec

    def spy(a, v):
        seen.append(a)
        return matvec(a, v)

    monkeypatch.setattr(metrics, "_matvec", spy)
    x = rng.standard_normal(lanes + (n,))
    y = rng.choice([1.0, -0.0, 0.0, -2.0], lanes + (n,))
    for _ in range(3):
        jet = given_jet(rng, n, lanes)
        seen.clear()
        with np.errstate(all="ignore"):
            got = metrics._jet_arrays(JetMetric(jet), x, y)
            h, g, F2_yx = old_blocks(jet.value, jet.grad, jet.hess, n)
        g_inv, det_g = linalg.inverse(g)
        assert_same_bytes(got.h, h)
        assert_same_bytes(got.g, g)
        assert_same_bytes(got.g_inv, g_inv)
        assert_same_bytes(got.det_g, det_g)
        assert_same_bytes(seen[0], F2_yx)   # the first matvec: F^2_yx y


def test_jet_assembly_refuses_a_non_finite_g():
    rng = np.random.default_rng(7)
    jet = given_jet(rng, 3, (LANES,))
    jet.hess[2, 1, 4] = np.nan
    with np.errstate(all="ignore"), pytest.raises(SingularMetric) as exc:
        metrics._jet_arrays(JetMetric(jet), np.zeros((LANES, 3)),
                            np.ones((LANES, 3)))
    assert exc.value.point == 2 and exc.value.metric == "given"


# -- the oracle's pair sum --------------------------------------------------


def given_pair(rng, n, lanes, values=SPECIAL, h=None, F_y=None):
    """Pair jets of the fields the oracle reads, h, F_y and F."""
    def jet():
        return SimpleNamespace(
            h=(special_array(rng, lanes + (n, n), values, 0.15) if h is None
               else h),
            F_y=(special_array(rng, lanes + (n,), values, 0.15) if F_y is None
                 else F_y),
            F=rng.uniform(0.5, 2.0, lanes))
    return SimpleNamespace(dim=n, base=jet(), comparison=jet())


# finite terms, where a pairwise sum would round differently, and terms
# with +-inf and NaN
@pytest.mark.parametrize("values", [(0.0, -0.0), SPECIAL],
                         ids=["signed_zeros", "special"])
@pytest.mark.parametrize("lanes", [(), (LANES,)], ids=["one", "stack"])
@pytest.mark.parametrize("n", [2, 3])
def test_pair_sum_takes_the_bytes_of_the_loop(n, lanes, values):
    rng = np.random.default_rng(300 + n)
    for _ in range(8):
        jets = given_pair(rng, n, lanes, values)
        for alpha in range(1, n + 1):
            with np.errstate(all="ignore"):
                term = pair_terms(jets, alpha)
                got = delta_alpha_combinatorial(jets, alpha)
                ref = reference_delta(jets, alpha, old_pair_sum(term))
            assert_same_bytes(got, ref)


def test_pair_sum_of_negative_zeros_is_positive_zero():
    # n = 2, alpha = 1: the four terms are sign * h~[s1(1), s2(1)] *
    # F_y[s1(2)] * F_y[s2(2)], each -0.0 here; the loop starts from +0.0
    h = np.array([[-1.0, 1.0], [1.0, -1.0]])
    jets = given_pair(np.random.default_rng(0), 2, (), h=h,
                      F_y=np.zeros(2))
    term = pair_terms(jets, 1)
    assert np.signbit(term).all() and not term.any()
    got = delta_alpha_combinatorial(jets, 1)
    assert_same_bytes(got, reference_delta(jets, 1, old_pair_sum(term)))
    assert got == 0.0 and not np.signbit(got)


def pair_terms(jets, alpha):
    """The n!^2 terms of the pair sum, in enumeration order, as the oracle
    forms them."""
    n = jets.dim
    perms = list(itertools.permutations(range(n)))
    signs = [_perm_sign(perm) for perm in perms]
    s1 = np.repeat(perms, len(perms), axis=0).T
    s2 = np.tile(perms, (len(perms), 1)).T
    term = np.outer(signs, signs).ravel().astype(float)
    for i in range(alpha - 1):
        term = term * jets.base.h[..., s1[i], s2[i]]
    for i in range(alpha - 1, n - 1):
        term = term * jets.comparison.h[..., s1[i], s2[i]]
    return term * jets.base.F_y[..., s1[n - 1]] * jets.base.F_y[..., s2[n - 1]]


def reference_delta(jets, alpha, total):
    """delta_alpha from the pair sum ``total``."""
    n = jets.dim
    prefactor = (lane_power(jets.base.F / jets.comparison.F, n - alpha)
                 / (math.factorial(alpha - 1) * math.factorial(n - alpha)))
    return prefactor * total
