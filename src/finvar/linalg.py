"""Inverse and determinant of a metric tensor from its Cholesky factor.

A Finsler metric is strongly convex at a point exactly when its fundamental
tensor g is positive definite there, and that is exactly when g = L L^T has
a Cholesky factor with positive diagonal. So one factorization gives g^{-1}
and det g and certifies convexity at the same time: an indefinite or
singular g raises :class:`SingularMetric` here, before any quantity that
assumes convexity (the volume ratio mu, the first integrals) is formed.
A stack of tensors, one per point, goes through one stacked factorization
that numpy runs matrix by matrix, so each matrix gets exactly the result it
gets alone. Both layouts share these LAPACK calls, the Cholesky factor and
its inverse; only the certificate differs. One matrix, the integrator's
case, is certified in Python floats, its entries and its n squared pivots
each from one ``tolist()``, in 13 us against 29 us as a one-matrix stack
(12% of a geodesic_ball op), and a float has a numpy scalar's bits. A
stack is certified in numpy arrays. Both give the same verdicts and
messages.

The oracles in :mod:`finvar.oracle` stay independent of this path because
they use different algorithms, not a different library: the characteristic
polynomial by interpolating det(M + lambda I) against the Faddeev-LeVerrier
recursion.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import check_lanes, lane
from .errors import SingularMetric

# Squared pivot smaller than this fraction of the largest counts as singular.
PIVOT_RTOL = 1e-12


def inverse(a: np.ndarray):
    """Inverse and determinant of the symmetric matrix ``a`` of shape (n, n),
    or of each matrix of a stack of shape (N, n, n).

    Raises :class:`SingularMetric` unless every matrix is numerically
    positive definite: its entries must be finite, the Cholesky
    factorization must succeed, the squared pivots diag(L)^2 must stay above
    ``PIVOT_RTOL`` times the largest, and the determinant must be finite and
    positive. On a stack the error names the first failing matrix.
    """
    a = np.asarray(a)
    one = a.ndim == 2
    # numpy's Cholesky passes NaN through and factors inf without complaint
    if one:
        finite = all(map(math.isfinite, a.ravel().tolist()))
    else:
        finite = np.isfinite(a).all(axis=(-2, -1))
    check_lanes(finite, lambda i: SingularMetric(
        f"non-finite entries in {lane(a, i).tolist()}", point=i))
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        if one:
            raise SingularMetric(f"not positive definite: {exc}") from exc
        for i, ai in enumerate(a):  # a stack fails as a whole; find where
            try:
                np.linalg.cholesky(ai)
            except np.linalg.LinAlgError as exc_i:
                raise SingularMetric(f"not positive definite: {exc_i}",
                                     point=i) from exc_i
        raise
    # the product of the pivots may leave the floating-point range: a float
    # product overflows silently, and a stack's under a local errstate
    if one:
        piv = [d * d for d in L.diagonal().tolist()]
        lo, hi, det = min(piv), max(piv), math.prod(piv)
        pivots_ok = not lo < PIVOT_RTOL * hi
        det_ok = math.isfinite(det) and det > 0.0
    else:
        piv = np.diagonal(L, axis1=-2, axis2=-1) ** 2
        lo, hi = piv.min(axis=-1), piv.max(axis=-1)
        pivots_ok = ~(lo < PIVOT_RTOL * hi)
        with np.errstate(over="ignore"):
            det = np.prod(piv, axis=-1)
        det_ok = np.isfinite(det) & (det > 0.0)
    check_lanes(pivots_ok, lambda i: SingularMetric(
        f"pivot ratio {lane(lo, i) / lane(hi, i):.3e} below "
        f"{PIVOT_RTOL:.0e}", point=i))
    check_lanes(det_ok, lambda i: SingularMetric(
        f"determinant {lane(det, i):.3e} outside the floating-point range",
        point=i))
    L_inv = np.linalg.inv(L)
    # numpy forms X^T X as a symmetric rank-k update, matrix by matrix, so
    # g^{-1} comes out exactly symmetric
    return L_inv.swapaxes(-1, -2) @ L_inv, det
