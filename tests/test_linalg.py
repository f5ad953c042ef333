"""The Cholesky inverse against LAPACK, and its convexity certificate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from finvar import ProjectivePair, SingularMetric, metric_jet
from finvar.linalg import inverse

from conftest import catalog_metrics, sample_points


@st.composite
def square(draw, n):
    return draw(arrays(np.float64, (n, n),
                       elements=st.floats(-1.0, 1.0, allow_subnormal=False)))


@st.composite
def spd_matrices(draw):
    n = draw(st.integers(2, 8))
    a = draw(square(n))
    eps = draw(st.floats(1e-3, 1.0))
    return a @ a.T + eps * np.eye(n)


@st.composite
def indefinite_matrices(draw):
    # Q diag(lam) Q^T with lam[0] < 0: a symmetric matrix with a negative
    # eigenvalue well above rounding
    n = draw(st.integers(2, 8))
    q, _ = np.linalg.qr(draw(square(n)))
    lam = np.array([draw(st.floats(-10.0, -1e-3))]
                   + [draw(st.floats(-10.0, 10.0)) for _ in range(n - 1)])
    a = (q * lam) @ q.T
    return 0.5 * (a + a.T)


@given(spd_matrices())
@settings(max_examples=60, deadline=None)
def test_inverse_matches_lapack_on_spd(a):
    inv, det = inverse(a)
    ref = np.linalg.inv(a)
    assert np.abs(inv - ref).max() <= 1e-10 * np.abs(ref).max()
    assert det == pytest.approx(np.linalg.det(a), rel=1e-10)
    assert np.array_equal(inv, inv.T)


@given(indefinite_matrices())
@settings(max_examples=60, deadline=None)
def test_negative_eigenvalue_is_singular(a):
    with pytest.raises(SingularMetric):
        inverse(a)


@pytest.mark.parametrize("a", [[[np.nan, 0.0], [0.0, 1.0]],
                               [[1.0, np.nan], [np.nan, 1.0]],
                               [[np.inf, 0.0], [0.0, 1.0]]],
                         ids=["nan_diagonal", "nan_off_diagonal", "inf"])
def test_non_finite_entry_is_singular(a):
    with pytest.raises(SingularMetric):
        inverse(np.array(a))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_catalog_inverse_metric_is_bitwise_symmetric(n):
    for metric in catalog_metrics(n):
        for p in sample_points(ProjectivePair(metric, metric), 5, seed=n,
                               box=(-0.3, 0.3)):
            g_inv = metric_jet(metric, p).g_inv
            assert np.array_equal(g_inv, g_inv.T), metric.name
