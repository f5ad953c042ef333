"""The Cholesky inverse against LAPACK, and its convexity certificate."""

import math

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
def spd_matrices(draw, n=None):
    n = draw(st.integers(2, 8)) if n is None else n
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


def _wrapper_inverse(a):
    """g^{-1} and det g through numpy's public wrappers, as ``inverse``
    formed them before it called their kernels itself."""
    L = np.linalg.cholesky(a)
    L_inv = np.linalg.inv(L)
    return L_inv.swapaxes(-1, -2) @ L_inv, np.diagonal(L, axis1=-2,
                                                       axis2=-1) ** 2


@given(st.integers(2, 8).flatmap(
    lambda n: st.lists(spd_matrices(n), min_size=1, max_size=4)))
@settings(max_examples=40, deadline=None)
def test_inverse_has_the_bits_of_numpys_wrappers(mats):
    for a in mats:
        inv, det = inverse(a)
        ref, piv = _wrapper_inverse(a)
        assert inv.tobytes() == ref.tobytes()
        assert det == math.prod(piv.tolist())
    stack = np.stack(mats)
    inv, det = inverse(stack)
    ref, piv = _wrapper_inverse(stack)
    assert inv.tobytes() == ref.tobytes()
    assert det.tobytes() == np.prod(piv, axis=-1).tobytes()


GOOD = [[2.0, 0.5], [0.5, 1.0]]

# Each certificate's failure, with the message the certificate gives; a
# stack adds the index of the failing matrix.
CERTIFICATE_CASES = {
    "nan": ([[np.nan, 0.0], [0.0, 1.0]],
            "non-finite entries in [[nan, 0.0], [0.0, 1.0]]"),
    "inf": ([[1.0, 0.5], [0.5, np.inf]],
            "non-finite entries in [[1.0, 0.5], [0.5, inf]]"),
    "indefinite": ([[1.0, 2.0], [2.0, 1.0]],
                   "not positive definite: Matrix is not positive definite"),
    "pivot_ratio": ([[1.0, 0.0], [0.0, 1e-13]],
                    "pivot ratio 1.000e-13 below 1e-12"),
    "det_overflow": ([[1e160, 0.0], [0.0, 1e160]],
                     "determinant inf outside the floating-point range"),
    "det_underflow": ([[1e-200, 0.0], [0.0, 1e-200]],
                      "determinant 0.000e+00 outside the floating-point "
                      "range"),
}


def _raises_quietly(a) -> SingularMetric:
    """The error of ``inverse(a)``, called outside any errstate: the suite
    turns a RuntimeWarning into an error, so none may escape, and the
    floating-point error settings must come back unchanged."""
    before = np.geterr()
    with pytest.raises(SingularMetric) as info:
        inverse(a)
    assert np.geterr() == before
    return info.value


@pytest.mark.parametrize("case", CERTIFICATE_CASES)
def test_one_matrix_certificate_message(case):
    a, message = CERTIFICATE_CASES[case]
    exc = _raises_quietly(np.array(a))
    assert (str(exc), exc.point) == (message, None)


@pytest.mark.parametrize("case", CERTIFICATE_CASES)
def test_stack_certificate_names_the_failing_matrix(case):
    a, message = CERTIFICATE_CASES[case]
    exc = _raises_quietly(np.array([GOOD, GOOD, a, GOOD]))
    assert (str(exc), exc.point) == (f"{message} (point 2)", 2)


def test_stack_checks_finiteness_before_factoring():
    indefinite = CERTIFICATE_CASES["indefinite"][0]
    nan, message = CERTIFICATE_CASES["nan"]
    exc = _raises_quietly(np.array([indefinite, nan]))
    assert (str(exc), exc.point) == (f"{message} (point 1)", 1)


def test_certified_inverse_leaves_errstate_unchanged():
    before = np.geterr()
    inverse(np.array(GOOD))
    inverse(np.array([GOOD, GOOD]))
    assert np.geterr() == before
