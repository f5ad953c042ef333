"""The stacked (N-lane) engine against N one-point evaluations, bitwise."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finvar.autodiff
from finvar import (DegenerateAngularMetric, DegenerateVelocity, DomainError,
                    FirstIntegralVector, GeodesicTrajectory, HyperDual, Jet2,
                    MetricJet, PairJets, ProjectivePair, RapcsakReport,
                    SingularMetric, build_H, charpoly_by_interpolation,
                    charpoly_coefficients, delta_alpha_combinatorial,
                    f1_closed_form, first_integrals, fn1_closed_form,
                    integrate_geodesic, metric_jet, mu, pair_jets,
                    painleve_I0, rapcsak_residual, sarlet_K, tm_I1)
from finvar.autodiff import xy_jet2
from finvar.linalg import inverse
from finvar.metrics import FinslerMetric, TangentPoint, catalog_metric
from finvar.oracle import PERMUTATION_CUTOFF, _perm_sign

from conftest import (JET_FIELDS, catalog_metrics, jet_seeds, make_pair,
                      sample_points)

FAMILIES = len(catalog_metrics(2))
CLOSED_FORMS = (f1_closed_form, fn1_closed_form, mu, painleve_I0, tm_I1,
                sarlet_K)


def assert_same_jet(a, b):
    """Two jets in the same layout, field by field, bitwise."""
    for name in JET_FIELDS:
        va, vb = getattr(a, name), getattr(b, name)
        assert type(va) is type(vb), name
        assert np.asarray(va).tobytes() == np.asarray(vb).tobytes(), name


def assert_same_jets(stacked, single):
    """Lane k of a stacked jet is the one-point jet ``single[k]``."""
    assert stacked.F.shape == (len(single),)
    for k, jet in enumerate(single):
        assert_same_jet(stacked[k], jet)


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


def one_point_residual(pair, jets, p):
    """The projective-equivalence residual at one point, from one-point
    products (the reference for the stacked rows)."""
    n = pair.dim
    cjet = pair.comparison.jet2(p.x, p.y)
    G = jets.base.G
    return (cjet.hess[:, :n] @ p.y - 2.0 * (cjet.hess[:, n:] @ G)
            - cjet.grad[:n])


def one_point_closed_forms(jets):
    """The closed forms at one point from Python floats and one-matrix
    products (the reference for the stacked lanes)."""
    jet, jet_t, y, n = jets.base, jets.comparison, jets.base.y, jets.dim
    ratio = (jet.det_g / jet_t.det_g) ** (1.0 / (n + 1))
    gty = jet_t.g @ y
    return {
        f1_closed_form: (jet.F / jet_t.F) ** (n + 1) * jet_t.det_g / jet.det_g,
        fn1_closed_form: (jet.F / jet_t.F)
        * float(np.trace(jet.g_inv @ jet_t.h)),
        mu: ratio,
        painleve_I0: ratio ** 2 * jet_t.F ** 2,
        tm_I1: ratio ** 3 * (float(np.trace(jet.g_inv @ jet_t.g))
                             * float(y @ gty) - float(gty @ jet.g_inv @ gty)),
        sarlet_K: (1.0 / ratio) * (jet_t.g_inv @ jet.g),
    }


def one_matrix_interpolation(M):
    """charpoly_by_interpolation of one matrix, one determinant at a time."""
    n = M.shape[0]
    s = float(np.abs(M).max())
    if s == 0.0:
        s = 1.0
    nodes = s * np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    dets = np.array([np.linalg.det(M + node * np.eye(n)) for node in nodes])
    return np.fft.fft(dets).real / (n + 1) / s ** np.arange(n + 1)


def one_point_delta(jets, alpha):
    """delta_alpha_combinatorial at one point, term by term on scalars."""
    n = jets.dim
    jet, jet_t = jets.base, jets.comparison
    h, h_t, b = jet.h, jet_t.h, jet.F_y
    total = 0.0
    for s1 in itertools.permutations(range(n)):
        for s2 in itertools.permutations(range(n)):
            term = float(_perm_sign(s1) * _perm_sign(s2))
            for i in range(alpha - 1):
                term *= h[s1[i], s2[i]]
            for i in range(alpha - 1, n - 1):
                term *= h_t[s1[i], s2[i]]
            total += term * b[s1[n - 1]] * b[s2[n - 1]]
    return ((jet.F / jet_t.F) ** (n - alpha)
            / (math.factorial(alpha - 1) * math.factorial(n - alpha))
            * total)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("lanes", [1, 3])
@given(n=st.sampled_from([2, 3, 5, 8]),
       base=st.integers(0, FAMILIES - 1),
       comparison=st.integers(0, FAMILIES - 1),
       count=st.integers(1, 12),
       seed=st.integers(0, 2 ** 16))
@settings(max_examples=40, deadline=None)
def test_stacked_integrals_equal_one_point_integrals_bitwise(
        lanes, n, base, comparison, count, seed):
    # H, its charpoly, the spray, the residual rows, the closed forms and
    # the two charpoly oracles of a stack take only operations that keep
    # each lane's one-point bits: this pins that property of the numpy/BLAS
    # build
    metrics = catalog_metrics(n)
    pair = ProjectivePair(metrics[base], metrics[comparison])
    points = sample_points(pair, count, seed=seed, box=(-0.3, 0.3))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(finvar.autodiff, "LANES", lanes)
        jets = pair_jets(pair, points)
        fiv = first_integrals(jets)
        spray = jets.base.G
        residuals = rapcsak_residual(pair, points).residuals
        closed = {form: form(jets) for form in CLOSED_FORMS}
        interpolated = charpoly_by_interpolation(fiv.H)
        deltas = [delta_alpha_combinatorial(jets, alpha)
                  for alpha in range(1, n + 1) if n <= PERMUTATION_CUTOFF]
    for k, p in enumerate(points):
        one = pair_jets(pair, p)
        assert_same_jet(jets[k].base, one.base)
        assert_same_jet(jets[k].comparison, one.comparison)
        one_fiv = first_integrals(one)
        for name in ("H", "coeffs", "delta"):
            assert (getattr(fiv, name)[k].tobytes()
                    == getattr(one_fiv, name).tobytes()), name
        assert spray[k].tobytes() == one.base.G.tobytes()
        assert (residuals[k].tobytes()
                == one_point_residual(pair, one, p).tobytes())
        assert (rapcsak_residual(pair, p).residuals.tobytes()
                == residuals[k].tobytes())
        # closed forms and oracles: lane k against the one-point formula,
        # and the same function at one point
        for form, value in one_point_closed_forms(one).items():
            assert same_bits(closed[form][k], value), form.__name__
            assert same_bits(form(one), value), form.__name__
        value = one_matrix_interpolation(one_fiv.H)
        assert same_bits(interpolated[k], value)
        assert same_bits(charpoly_by_interpolation(one_fiv.H), value)
        for alpha, delta in enumerate(deltas, start=1):
            value = one_point_delta(one, alpha)
            assert same_bits(delta[k], value), alpha
            assert same_bits(delta_alpha_combinatorial(one, alpha), value)


@pytest.mark.parametrize("lanes", [1, 3])
def test_chunk_size_does_not_change_results(monkeypatch, lanes):
    pair = make_pair("klein", "funk", 3)
    points = sample_points(pair, 10, seed=4)
    reference = pair_jets(pair, points)
    residuals = rapcsak_residual(pair, points).residuals
    monkeypatch.setattr(finvar.autodiff, "LANES", lanes)
    chunked = pair_jets(pair, points)
    assert_same_jet(chunked.base, reference.base)
    assert_same_jet(chunked.comparison, reference.comparison)
    assert np.array_equal(rapcsak_residual(pair, points).residuals, residuals)


def test_q0_guard_names_the_failing_point():
    pair = make_pair("klein", "funk", 2)
    jets = pair_jets(pair, sample_points(pair, 4, seed=8))
    # g~ in place of h~ at point 2: H loses its kernel there
    h = jets.comparison.h.copy()
    h[2] = jets.comparison.g[2]
    broken = PairJets(jets.base, replace(jets.comparison, h=h))
    q0 = charpoly_coefficients(build_H(broken[2]))[0]
    assert abs(q0) > 1e-3
    with pytest.raises(DegenerateAngularMetric) as info:
        first_integrals(broken)
    assert info.value.point == 2
    assert "(point 2)" in str(info.value)
    assert f"constant charpoly term {q0:.3e} " in str(info.value)


def test_lane_layouts():
    # the seeds of xy_jet2 at n = 2: m = 4 variables, 2 velocity rows
    one = jet_seeds([0.3, 0.4], [0.5, 0.6])
    stack = jet_seeds([[0.3, 0.4], [0.1, 0.2], [0.5, 0.6]],
                      [[0.5, 0.6], [0.7, 0.8], [0.9, 1.0]])
    w = one[0] * one[3] + one[2].sqrt()
    assert type(w.val) is float
    assert w.grad.shape == (1, 4) and w.hess.shape == (2, 4)
    w = stack[0] * stack[3] + stack[2].sqrt()
    assert w.val.shape == (3, 1, 1)
    assert w.grad.shape == (3, 1, 4) and w.hess.shape == (3, 2, 4)
    # a one-point constant broadcasts against stacked lanes
    c = w + HyperDual(2.0, np.zeros((1, 4)), np.zeros((2, 4)))
    assert c.hess.shape == (3, 2, 4)


def test_constant_field_in_a_stack():
    jet = xy_jet2(lambda xs, ys: 2.5, np.zeros((3, 2)), np.ones((3, 2)))
    assert np.array_equal(jet.value, [2.5, 2.5, 2.5])
    assert not jet.grad.any() and jet.hess.shape == (3, 2, 4)


DOMAIN_METRICS = [{"kind": "klein", "dim": 3}, {"kind": "funk", "dim": 3}] + [
    {"kind": "randers", "dim": 3, "alpha_field": field,
     "alpha_params": params, "beta": beta}
    for field, params in [("const_diag", [2.0, 0.5, 3.0]), ("curved_x1", [])]
    for beta in [{"potential": "linear", "params": [0.3, 0.2, 0.1]},
                 {"potential": "quadratic", "params": [0.9, 0.6, 0.3]},
                 {"covector": "x2_dx1"}]]


def boundary_rows(domain, directions, far=1e3, ulps=3):
    """Rows t * d within a few ulps of t either side of the last in-domain
    scale along each direction d that crosses the boundary, found by
    bisection on the stacked predicate."""
    d = directions[domain(0.0 * directions) & ~domain(far * directions)]
    lo, hi = np.zeros(len(d)), np.full(len(d), far)
    for _ in range(200):  # until lo and hi are adjacent floats
        mid = 0.5 * (lo + hi)
        inside = domain(mid[:, None] * d)
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    t = lo
    for _ in range(ulps):
        t = np.nextafter(t, -np.inf)
    scales = [t]
    for _ in range(2 * ulps):
        scales.append(np.nextafter(scales[-1], np.inf))
    return np.concatenate([s[:, None] * d for s in scales])


@pytest.mark.parametrize("desc", DOMAIN_METRICS,
                         ids=lambda d: d["kind"] if d["kind"] != "randers"
                         else f"randers-{d['alpha_field']}-"
                         f"{d['beta'].get('potential', 'x2_dx1')}")
def test_one_point_domain_is_its_lane_of_the_stack(desc):
    # one point is answered in Python floats and a stack in numpy arrays:
    # rows within rounding of the boundary, rows far in and out, and rows
    # holding nan, +-inf or +-1e200 (whose square overflows) get the same
    # answer either way, and one point gets a Python bool
    metric = catalog_metric(desc)
    rng = np.random.default_rng(7)
    directions = rng.normal(size=(40, 3))
    special = []
    for bad in (math.nan, math.inf, -math.inf, 1e200, -1e200):
        special.append(np.full(3, bad))
        for j in range(3):
            x = np.full(3, 0.1)
            x[j] = bad
            special.append(x)
    edge = boundary_rows(metric.domain, directions)
    x = np.concatenate([edge, rng.uniform(-2.5, 2.5, size=(100, 3)),
                        np.array(special)])
    mask = metric.domain(x)  # silent under the suite's RuntimeWarning filter
    one = [metric.domain(row) for row in x]
    assert all(type(v) is bool for v in one)
    assert mask.tolist() == one
    if desc.get("beta", {}).get("potential") == "linear":
        # ||beta||_alpha stays below 0.4 everywhere: no boundary to straddle
        assert edge.size == 0
    else:
        assert 0 < mask[:len(edge)].sum() < len(edge)


def test_zero_velocity_at_one_point_and_in_a_stack():
    # -0.0 is zero and nan is nonzero, alone and in a stack
    def field(xs, ys):
        return ys[0] * ys[0] + ys[1] * ys[1]

    x = np.zeros(2)
    with pytest.raises(DegenerateVelocity, match="^velocity is exactly "
                       "zero$") as single:
        xy_jet2(field, x, np.array([0.0, -0.0]))
    assert single.value.point is None
    with pytest.raises(DegenerateVelocity, match=r"\(point 1\)$") as stacked:
        xy_jet2(field, np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, -0.0]]))
    assert stacked.value.point == 1
    y = np.array([math.nan, 0.0])
    assert math.isnan(xy_jet2(field, x, y).value)
    assert math.isnan(xy_jet2(field, x[None], y[None]).value[0])


@pytest.mark.parametrize("lanes", [1, 3, 64])
def test_stacked_errors_name_the_first_failing_point(monkeypatch, lanes):
    # with chunks of 1 and 3 the failing chunk starts at 2 and 0: the
    # chunk's offset is added back
    monkeypatch.setattr(finvar.autodiff, "LANES", lanes)
    klein = catalog_metrics(2)[1]
    x = np.array([[0.1, 0.0], [0.2, 0.0], [1.5, 0.0], [2.0, 0.0]])
    y = np.ones((4, 2))
    with pytest.raises(DomainError) as info:
        klein.jet2(x, y)
    assert info.value.point == 2 and info.value.metric == "klein"
    assert "(point 2)" in str(info.value)
    # the square-root floor inside the field, past the first chunk
    x[2:] = 0.0
    y[3] = 1e-20
    with pytest.raises(DegenerateVelocity) as info:
        klein.jet2(x, y)
    assert info.value.point == 3 and info.value.metric == "klein"


@pytest.mark.parametrize("count", [None, 2 * finvar.autodiff.LANES + 1],
                         ids=["one_point", "three_chunks"])
def test_one_domain_call_per_jet_pass(count):
    # the region sees the float base points once, whole, before any pass:
    # two Python floats, or two lanes of the whole stack
    klein = catalog_metrics(2)[1]
    shapes = []

    def region(xs):
        shapes.append([np.shape(v) for v in xs])
        return klein.region(xs)

    shape = (2,) if count is None else (count, 2)
    x = np.full(shape, 0.1)
    replace(klein, region=region).jet2(x, np.ones(shape))
    lane = () if count is None else (count, 1, 1)
    assert shapes == [[lane, lane]]


def test_a_failure_in_the_third_chunk_names_its_global_index():
    klein = catalog_metrics(2)[1]
    last = 2 * finvar.autodiff.LANES
    x = np.zeros((last + 1, 2))
    y = np.ones((last + 1, 2))
    y[last] = 1e-20   # the square-root floor inside the field
    with pytest.raises(DegenerateVelocity) as info:
        klein.jet2(x, y)
    assert info.value.point == last and info.value.metric == "klein"
    # outside the domain, the same point fails first, before any chunk is
    # evaluated: ahead of a floor failure in the first chunk
    y[0] = 1e-20
    x[last, 0] = 1.5
    with pytest.raises(DomainError) as info:
        klein.jet2(x, y)
    assert info.value.point == last and info.value.metric == "klein"
    assert str(info.value).endswith(f"outside domain (point {last})")


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
    [[1.0, 0.0], [0.0, np.inf]],          # infinite entry
    [[1.0, 2.0], [2.0, 1.0]],             # indefinite
    [[1.0, 0.0], [0.0, 1e-14]],           # pivot ratio
    [[1e200, 0.0], [0.0, 1e200]],         # det overflows
    [[1e-170, 0.0], [0.0, 1e-170]],       # det underflows to 0
], ids=["nan", "inf", "indefinite", "pivot", "det_overflow",
        "det_underflow"])
def test_stacked_inverse_names_the_failing_matrix(bad):
    # one matrix is certified in Python floats and a stack in numpy arrays:
    # both give the same verdict and the same message
    stack = np.array([np.eye(2), 2.0 * np.eye(2), bad, np.eye(2)])
    with pytest.raises(SingularMetric) as stacked:
        inverse(stack)
    assert stacked.value.point == 2
    with pytest.raises(SingularMetric) as single:
        inverse(np.array(bad))
    assert single.value.point is None
    assert str(stacked.value).endswith(" (point 2)")
    assert str(single.value) == str(stacked.value)[:-len(" (point 2)")]


def _equal_valued(kind):
    """A new object of class ``kind``, equal in value to every other one
    this returns for ``kind``."""
    pair = make_pair("klein", "funk", 2)
    points = sample_points(pair, 3, seed=5)
    if kind is TangentPoint:
        return TangentPoint(points.x, points.y)
    if kind is Jet2:
        return pair.base.jet2(points.x, points.y)
    if kind is MetricJet:
        return metric_jet(pair.base, points)
    if kind is PairJets:
        return pair_jets(pair, points)
    if kind is FirstIntegralVector:
        return first_integrals(pair_jets(pair, points))
    if kind is GeodesicTrajectory:
        return integrate_geodesic(pair.base, points[0], 0.1)
    return rapcsak_residual(pair, points)


@pytest.mark.parametrize("kind", [
    TangentPoint, Jet2, MetricJet, PairJets, FirstIntegralVector,
    GeodesicTrajectory, RapcsakReport], ids=lambda kind: kind.__name__)
def test_array_holders_compare_by_identity(kind):
    # a field-wise == of arrays has no single truth value
    a, b = _equal_valued(kind), _equal_valued(kind)
    assert type(a) is type(b) is kind
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_metric_and_point_reach_the_message_from_a_jet():
    rank_one = FinslerMetric("rank-one", 2,
                             lambda xs, ys: (ys[0] + ys[1]) * 1.0,
                             lambda x: True)
    points = TangentPoint([[0.0, 0.0]] * 3, [[1.0, 0.5]] * 3)
    with pytest.raises(SingularMetric) as info:
        metric_jet(rank_one, points)
    assert str(info.value).startswith("rank-one: ")
    assert info.value.point == 0
