"""Inverse and determinant of a metric tensor from its Cholesky factor.

A Finsler metric is strongly convex at a point exactly when its fundamental
tensor g is positive definite there, and that is exactly when g = L L^T has
a Cholesky factor with positive diagonal. So one factorization gives g^{-1}
and det g and certifies convexity at the same time: an indefinite or
singular g raises :class:`SingularMetric` here, before any quantity that
assumes convexity (the volume ratio mu, the first integrals) is formed.

Both layouts call numpy's LAPACK kernels directly, the ones that
``np.linalg.cholesky`` and ``np.linalg.inv`` call, each once and both under
one local ``np.errstate``, so the results have the wrappers' bits without
their per-call cost: 7.8 us for the two wrappers against 2.0 us for the
bare kernels on one 2x2 tensor. A matrix that does not factor comes back
filled with NaN, so it reads as a NaN pivot; a stack is factored matrix by
matrix, so each matrix gets exactly the result it gets alone, and none is
factored twice. One matrix, the integrator's case, is certified in Python
floats, its entries and its n squared pivots each from one ``tolist()``; a
float has a numpy scalar's bits. A stack is certified in numpy arrays: its
four certificates are lane masks checked together by one ``all()``, and
only a stack that fails raises through them in turn: finite entries, the
factorization, the pivot ratio, the determinant. Both layouts give the
same verdicts and messages.

The oracles in :mod:`finvar.oracle` stay independent of this path because
they use different algorithms, not a different library: the characteristic
polynomial by interpolating det(M + lambda I) against the Faddeev-LeVerrier
recursion.
"""

from __future__ import annotations

import math

import numpy as np
# The gufuncs behind np.linalg.cholesky and np.linalg.inv, called without
# their wrappers' dtype, shape and errstate handling; present since numpy 1.8.
from numpy.linalg import _umath_linalg

from .autodiff import check_lanes
from .errors import SingularMetric

# Squared pivot smaller than this fraction of the largest counts as singular.
PIVOT_RTOL = 1e-12

# The reason np.linalg.cholesky gives for a matrix that does not factor.
_NOT_FACTORED = "not positive definite: Matrix is not positive definite"


def inverse(a: np.ndarray):
    """Inverse and determinant of the symmetric matrix ``a`` of shape (n, n),
    or of each matrix of a stack of shape (N, n, n).

    Raises :class:`SingularMetric` unless every matrix is numerically
    positive definite: its entries must be finite, the Cholesky
    factorization must succeed, the squared pivots diag(L)^2 must stay above
    ``PIVOT_RTOL`` times the largest, and the determinant must be finite and
    positive. On a stack the certificates run in that order over the whole
    stack, and the error names the first matrix that fails the first
    failing certificate, not the first failing matrix: ``[indefinite,
    NaN]`` raises the finiteness error at point 1.
    """
    a = np.asarray(a)
    L_inv, det = _factor(a)
    # numpy forms X^T X as a symmetric rank-k update, matrix by matrix, so
    # g^{-1} comes out exactly symmetric
    return L_inv.swapaxes(-1, -2) @ L_inv, det


# a failed factor is NaN-filled (an invalid flag) and the product of the
# pivots may overflow; both are certified, not warned about. As a
# decorator, errstate builds no context object per call.
@np.errstate(invalid="ignore", over="ignore")
def _factor(a: np.ndarray):
    """L^-1, with L the Cholesky factor of ``a``, and the determinant, once
    every matrix of ``a`` meets every certificate."""
    L = _umath_linalg.cholesky_lo(a, signature="d->d")
    det = (_certify_one if a.ndim == 2 else _certify_stack)(a, L)
    return _umath_linalg.inv(L, signature="d->d"), det


def _certify_one(a: np.ndarray, L: np.ndarray) -> float:
    """The determinant of one matrix ``a`` from its factor ``L``, once ``a``
    meets every certificate, in Python floats: a float product overflows
    silently."""
    if not all(map(math.isfinite, a.ravel().tolist())):
        raise SingularMetric(f"non-finite entries in {a.tolist()}")
    piv = [d * d for d in L.diagonal().tolist()]
    if math.isnan(piv[0]):
        raise SingularMetric(_NOT_FACTORED)
    lo, hi, det = min(piv), max(piv), math.prod(piv)
    if lo < PIVOT_RTOL * hi:
        raise SingularMetric(
            f"pivot ratio {lo / hi:.3e} below {PIVOT_RTOL:.0e}")
    if not (math.isfinite(det) and det > 0.0):
        raise SingularMetric(
            f"determinant {det:.3e} outside the floating-point range")
    return det


def _certify_stack(a: np.ndarray, L: np.ndarray) -> np.ndarray:
    """The determinants of a stack ``a`` from its factors ``L``, once every
    matrix meets every certificate; else the first failing certificate
    names its first failing matrix."""
    finite = np.isfinite(a).all(axis=(-2, -1))
    piv = np.square(L.diagonal(0, -2, -1))
    factored = ~np.isnan(piv[..., 0])
    lo, hi = piv.min(axis=-1), piv.max(axis=-1)
    pivots_ok = ~(lo < PIVOT_RTOL * hi)
    # np.prod's reduction, without its dispatch
    det = np.multiply.reduce(piv, axis=-1)
    det_ok = np.isfinite(det) & (det > 0.0)
    if not (finite & factored & pivots_ok & det_ok).all():
        check_lanes(finite, lambda i: SingularMetric(
            f"non-finite entries in {a[i].tolist()}", point=i))
        check_lanes(factored, lambda i: SingularMetric(_NOT_FACTORED,
                                                       point=i))
        check_lanes(pivots_ok, lambda i: SingularMetric(
            f"pivot ratio {lo[i] / hi[i]:.3e} below {PIVOT_RTOL:.0e}",
            point=i))
        check_lanes(det_ok, lambda i: SingularMetric(
            f"determinant {det[i]:.3e} outside the floating-point range",
            point=i))
    return det
