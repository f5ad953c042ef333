"""Inverse and determinant of a metric tensor from its Cholesky factor.

A Finsler metric is strongly convex at a point exactly when its fundamental
tensor g is positive definite there, and that is exactly when g = L L^T has
a Cholesky factor with positive diagonal. So one factorization gives g^{-1}
and det g and certifies convexity at the same time: an indefinite or
singular g raises :class:`SingularMetric` here, before any quantity that
assumes convexity (the volume ratio mu, the first integrals) is formed.
A stack of tensors, one per point, goes through one stacked factorization
that numpy runs matrix by matrix, so each matrix gets exactly the result it
gets alone.

The oracles in :mod:`finvar.oracle` stay independent of this path because
they use different algorithms, not a different library: the characteristic
polynomial by interpolating det(M + lambda I) against the Faddeev-LeVerrier
recursion, and the spray from Christoffel symbols against the AD spray.
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
    # numpy's Cholesky passes NaN through and factors inf without complaint
    check_lanes(np.isfinite(a).all(axis=(-2, -1)), lambda i: SingularMetric(
        f"non-finite entries in {lane(a, i).tolist()}", point=i))
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        if a.ndim == 2:
            raise SingularMetric(f"not positive definite: {exc}") from exc
        for i, ai in enumerate(a):  # a stack fails as a whole; find where
            try:
                np.linalg.cholesky(ai)
            except np.linalg.LinAlgError as exc_i:
                raise SingularMetric(f"not positive definite: {exc_i}",
                                     point=i) from exc_i
        raise
    piv = np.diagonal(L, axis1=-2, axis2=-1) ** 2
    lo, hi = piv.min(axis=-1), piv.max(axis=-1)
    check_lanes(~(lo < PIVOT_RTOL * hi), lambda i: SingularMetric(
        f"pivot ratio {lane(lo, i) / lane(hi, i):.3e} below "
        f"{PIVOT_RTOL:.0e}", point=i))
    # the product of the pivots may leave the floating-point range: a float
    # product overflows silently, and a stack's under a local errstate
    if a.ndim == 2:
        det = math.prod(piv.tolist())
    else:
        with np.errstate(over="ignore"):
            det = np.prod(piv, axis=-1)
    check_lanes(np.isfinite(det) & (det > 0.0), lambda i: SingularMetric(
        f"determinant {lane(det, i):.3e} outside the floating-point range",
        point=i))
    L_inv = np.linalg.inv(L)
    # numpy forms X^T X as a symmetric rank-k update, matrix by matrix, so
    # g^{-1} comes out exactly symmetric
    return L_inv.swapaxes(-1, -2) @ L_inv, det
