"""Hyper-dual products, inner products of seed vectors, the metric-jet
assembly, the oracle's pair sum and the verdicts' relative errors, byte for
byte against the formulas they replaced.

Each reference below is the earlier form of the same arithmetic: the full
(m, m) outer product of two gradients sliced to the kept rows, the
one-pair array pass of ``gdot`` (``old_gdot``), the second-derivative
blocks of a metric jet from four products, the permutation-pair sum added
term by term in a Python loop, and the three relative errors each command
normalised itself before ``cli._check`` took the scale. The inputs carry
+-0.0, +-inf and NaN. The NaNs share one payload:
IEEE 754 leaves the payload of a product of two NaNs to the hardware, and
on x86 it is the first operand's, so only for NaNs of two payloads could
a commuted product differ in bytes (no report shows a NaN's sign). The
verdict tests draw NaNs of any payload, but a NaN error ends in an error
message, and only the messages are compared then.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from finvar import (ConfigError, NonFiniteResult, SingularMetric, cli, linalg,
                    metrics)
from finvar.autodiff import (HyperDual, Jet2, _dots_arrays, _seed_arrays,
                             _SeedVector, _seeds, gdots, lane_power)
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


def old_coefficients(u, v):
    """The entries a_k of u in the layout of v's values, (n,) or (N, n),
    or (1, n) for floats over a stack; None for the generic loop."""
    b = v.values.T
    if isinstance(u, _SeedVector):
        return u.values.T if u.values.shape == v.values.shape else None
    if all(type(t) is float for t in u):
        return np.array(u, ndmin=b.ndim)
    lanes = (len(b), 1, 1)
    if b.ndim == 2 and all(type(t) is np.ndarray and t.shape == lanes
                           for t in u):
        return np.array(u).reshape(len(u), -1).T
    return None


def old_dot_arrays(u, v, n, rows, m):
    """E_u, E_v (with a zero last column against scalars) and the kept
    Hessian rows of one pair."""
    eye = np.eye(m if u is not None else m + 1)
    e_v = eye[v:v + n]
    if u is None:
        return None, e_v, None
    e_u = eye[u:u + n]
    return e_u, e_v, (e_u.T @ e_v + e_v.T @ e_u)[m - rows:]


def old_dot(u, a, v):
    """The one-pair array pass: the value in order, the gradient terms
    summed in one reduction from -0.0."""
    b = v.values.T
    seeded = isinstance(u, _SeedVector)
    e_u, e_v, hess = old_dot_arrays(u.offset if seeded else None, v.offset,
                                    len(v), v.rows, v.m)
    if b.ndim == 1:
        val = -0.0
        for s, t in zip(a.tolist(), b.tolist()):
            val += s * t
    else:
        val = np.add.accumulate(a * b, axis=1)[:, -1, None, None]
        a, b, e_v = a.T, b.T, e_v[..., None]
        if seeded:
            e_u = e_u[..., None]
    terms = a[:, None] * e_v
    if seeded:
        terms += b[:, None] * e_u
    grad = np.add.reduce(terms, axis=0, initial=-0.0)
    if not seeded:
        hess = np.empty(b.T.shape[:-1] + (v.rows, v.m))
        hess[...] = grad[-1, ..., None, None]
        grad = grad[:-1]
    return HyperDual(val, grad.T[..., None, :], hess)


def old_gdot(u, v):
    """One inner product, by the one-pair pass or the generic loop."""
    n = len(v)
    if len(u) != n or not n:
        raise ConfigError(f"gdot needs two sequences of one nonzero length, "
                          f"got lengths {len(u)} and {n}")
    if isinstance(v, _SeedVector):
        a = old_coefficients(u, v)
        if a is not None:
            return old_dot(u, a, v)
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


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
def test_seed_dot_hessian_takes_the_bytes_of_the_seed_pair_blocks(n):
    # |x|^2, |y|^2, <x, y> and <y, x>: the n blocks summed in loop order
    m = 2 * n
    for u, v in itertools.product((0, n), repeat=2):
        hess = _dots_arrays(((u, v),), n, False, n, m)[1][0]
        assert not hess.flags.writeable
        ref = old_seed_pair_hessian(u, v, n, m)
        for k in range(1, n):
            ref = ref + old_seed_pair_hessian(u + k, v + k, n, m)
        assert_same_bytes(hess, ref)


# -- several inner products in one pass ---------------------------------------

# signed zeros, infinities, NaN and subnormals among ordinary values
DOT_ENTRIES = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     2.5e-310, -1.0e-308]))


def nan_bits(a, shape):
    """The bytes of ``a`` broadcast to ``shape``, every NaN as np.nan: the
    terms of one gradient entry are summed in another order than before,
    and which NaN a sum keeps depends on it (no report shows a NaN's
    sign)."""
    a = np.array(np.broadcast_to(a, shape), dtype=float)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


def assert_same_product(got, ref):
    if not isinstance(ref, HyperDual):
        assert type(got) is type(ref) and nan_bits(got, ()) == nan_bits(ref,
                                                                      ())
        return
    assert type(got.val) is type(ref.val)
    for name in ("val", "grad", "hess"):
        # the generic loop keeps the seeds' lane-free gradient and Hessian
        # rows for floats against a stack, and stacks those of a pair of
        # seed vectors: either broadcasts as the other one does
        a, b = (np.asarray(getattr(h, name)) for h in (got, ref))
        shape = np.broadcast_shapes(a.shape, b.shape)
        assert nan_bits(a, shape) == nan_bits(b, shape), name


@st.composite
def dots_pairs(draw):
    """1 to 3 pairs against seed vectors of one point or of a stack of 1, 3
    or 65 points (two chunks' worth), x-seeded or over the velocity
    alone: seeds against seeds, Python floats or lanes."""
    n = draw(st.sampled_from([2, 3, 5]))
    count = draw(st.sampled_from([0, 1, 3, 65]))
    shape = (n,) if not count else (count, n)
    # signed zeros and halves alone, where a sum of -0.0 terms shows the
    # start of every sum
    entries = draw(st.sampled_from(
        [DOT_ENTRIES, st.sampled_from([0.0, -0.0, 0.5, -0.5])]))

    def array():
        return np.array(draw(st.lists(entries, min_size=math.prod(shape),
                                      max_size=math.prod(shape)))
                        ).reshape(shape)

    x, y = array(), array()
    x_seeded = draw(st.booleans())
    if x_seeded:
        vectors = [_seeds(x, 2 * n, 0, n), _seeds(y, 2 * n, n, n)]
    else:
        vectors = [_seeds(y, n, 0, n)]
    floats = draw(st.lists(entries, min_size=n, max_size=n))
    operands = vectors + [floats]
    if count:
        operands.append([col[:, None, None] for col in array().T])
    picks = draw(st.lists(st.tuples(st.sampled_from(range(len(operands))),
                                    st.sampled_from(range(len(vectors)))),
                          min_size=1, max_size=3))
    return [(operands[i], vectors[j]) for i, j in picks]


@given(pairs=dots_pairs())
@settings(max_examples=200, deadline=None)
def test_gdots_takes_the_bytes_of_separate_one_pair_passes(pairs):
    with np.errstate(all="ignore"):
        got = gdots(*pairs)
        refs = [old_gdot(u, v) for u, v in pairs]
    assert len(got) == len(refs)
    for res, ref in zip(got, refs):
        assert_same_product(res, ref)


@pytest.mark.parametrize("count", [0, 3])
def test_gdots_keeps_the_sign_of_a_sum_of_negative_zeros(count):
    # every product -0.0: the value, and each gradient entry of floats
    # -0.0 times a unit gradient, is -0.0 only in a sum that starts from
    # -0.0 or from its first term
    x, y = np.array([-0.0, 0.0]), np.array([0.5, -0.5])
    if count:
        x, y = np.tile(x, (count, 1)), np.tile(y, (count, 1))
    xs, ys = _seeds(x, 4, 0, 2), _seeds(y, 4, 2, 2)
    pairs = [(xs, ys), (ys, xs), ([-0.0, 0.0], ys)]
    for res, (u, v) in zip(gdots(*pairs), pairs):
        assert_same_product(res, old_gdot(u, v))
        assert math.copysign(1.0, np.ravel(res.val)[0]) == -1.0


def test_gdots_falls_back_or_raises_as_one_pair_gdot_does():
    x = np.array([0.3, -0.0, 0.2])
    y = np.array([-0.5, 1.0, -0.0])
    xs, ys = _seeds(x, 6, 0, 3), _seeds(y, 6, 3, 3)
    stack = _seeds(np.tile(y, (2, 1)), 6, 3, 3)
    one_stack = _seeds(y[None], 6, 3, 3)
    # seed vectors of a point and of a stack, either way round: the
    # generic loop, as gdot gives it, beside a pair that takes the pass;
    # and pairs of a second layout, which take the generic loop too
    for pairs in (((xs, stack), (xs, ys)), ((stack, ys),),
                  ((one_stack, xs), (ys, ys)), ((xs, one_stack),),
                  ((xs, ys), (stack, stack), (ys, ys))):
        for res, (u, v) in zip(gdots(*pairs), pairs):
            assert_same_product(res, old_gdot(u, v))
    # operands of unequal or no length: gdot's error, also after a pair
    # that is fine
    for bad in ((xs, list(ys)[:2]), ([0.1, 0.2], ys), ([], []),
                (ys[:0], ys[:0])):
        with pytest.raises(ConfigError) as exc:
            gdots((xs, ys), bad)
        with pytest.raises(ConfigError) as ref:
            old_gdot(*bad)
        assert str(exc.value) == str(ref.value)


# -- the metric-jet assembly ------------------------------------------------


class JetMetric:
    """A stand-in metric whose jet is given: F and the velocity rows keep g
    positive definite, the x-blocks carry +-0.0, +-inf and NaN."""

    name = "given"

    def __init__(self, jet):
        self.jet = jet

    def jet2(self, x, y, **seeding):
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


# -- the verdicts' relative errors ------------------------------------------


def old_rel_err(a, b):
    """evaluate's four cross-checks and oracle's delta_combinatorial."""
    return np.abs(a - b) / np.maximum(1.0, np.abs(b))


def old_charpoly_err(a, q):
    """oracle's charpoly_interpolation, per point."""
    return (np.abs(a - q).max(axis=-1)
            / np.maximum(1.0, np.abs(a).max(axis=-1)))


def old_rel_drift(f_vals):
    """geodesic's max_rel_drift, per alpha; the check read [:n - 1]."""
    drift = np.abs(f_vals - f_vals[0]).max(axis=0)
    return drift / np.maximum(1.0, np.abs(f_vals[0]))


def old_verdict(name, errors, by_alpha=False):
    """The earlier check of ``errors``: their worst, folded in order from
    0.0, or the message of the NonFiniteResult for the first NaN or inf."""
    values = errors.tolist()
    for k, value in enumerate(values):
        if not math.isfinite(value):
            return str(NonFiniteResult(
                f"{name} {value} not finite"
                + (f" at alpha {k + 1}" if by_alpha else ""),
                point=None if by_alpha else k))
    return max([0.0] + values)


def assert_same_verdict(name, error, scale, reference, checked=None,
                        by_alpha=False):
    """``cli._check`` on ``error`` and ``scale`` gives the errors
    ``reference`` and the verdict of ``checked`` (by default all of
    ``reference``) under the earlier check, to the byte, or raises its
    message."""
    expected = old_verdict(name, reference if checked is None else checked,
                           by_alpha)
    cfg = SimpleNamespace(tolerance=None)
    with np.errstate(all="ignore"):
        if isinstance(expected, str):
            with pytest.raises(NonFiniteResult) as exc:
                cli._check(cfg, name, error, scale, by_alpha=by_alpha)
            assert str(exc.value) == expected
            return
        check = cli._check(cfg, name, error, scale, by_alpha=by_alpha)
    assert_same_bytes(check.errors, reference)
    assert_same_bytes(check.worst, expected)
    assert type(check.worst) is float
    assert check.ok == (expected <= cli.TOLERANCES[name])


# +-0.0, +-inf and NaN, and magnitudes on both sides of 1
ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                    st.floats(-2.0, 2.0), st.floats())


def entries(shape):
    return hnp.arrays(np.float64, shape, elements=ENTRIES)


@given(st.data(), st.integers(1, 6),
       st.sampled_from(["f1_rel_err", "fn1_rel_err", "ri0_rel_err",
                        "ri1_rel_err", "delta_combinatorial"]))
@settings(max_examples=150, deadline=None)
def test_check_forms_the_cross_check_errors(data, points, name):
    a, b = data.draw(entries(points)), data.draw(entries(points))
    with np.errstate(all="ignore"):
        error, scale, reference = np.abs(a - b), np.abs(b), old_rel_err(a, b)
    assert_same_verdict(name, error, scale, reference)


@given(st.data(), st.integers(1, 6), st.integers(2, 8))
@settings(max_examples=150, deadline=None)
def test_check_forms_the_charpoly_errors(data, points, n):
    a, q = (data.draw(entries((points, n + 1))) for _ in range(2))
    with np.errstate(all="ignore"):
        error = np.abs(a - q).max(axis=-1)
        scale = np.abs(a).max(axis=-1)
        reference = old_charpoly_err(a, q)
    assert_same_verdict("charpoly_interpolation", error, scale, reference)


@given(st.data(), st.integers(1, 6), st.integers(2, 8))
@settings(max_examples=150, deadline=None)
def test_check_forms_the_drift_errors_of_every_alpha(data, samples, n):
    # f_n is 1.0 at every sample, as integrals_along gives it: its drift is
    # 0.0, so the check of all n alphas has the verdict of the first n - 1
    f_vals = data.draw(entries((samples, n)))
    f_vals[:, -1] = 1.0
    with np.errstate(all="ignore"):
        drift = np.abs(f_vals - f_vals[0]).max(axis=0)
        reference = old_rel_drift(f_vals)
    assert_same_verdict("max_rel_drift", drift, np.abs(f_vals[0]), reference,
                        checked=reference[:n - 1], by_alpha=True)


@pytest.mark.parametrize("name", ["q0_abs", "max_residual"])
def test_check_without_a_scale_keeps_the_errors(name):
    error = np.array([0.5, -0.0, 3.0])
    check = cli._check(SimpleNamespace(tolerance=None), name, error)
    assert check.errors is error and check.worst == 3.0
