"""Inverse and determinant of a metric tensor from its Cholesky factor.

A Finsler metric is strongly convex at a point exactly when its fundamental
tensor g is positive definite there, and that is exactly when g = L L^T has
a Cholesky factor with positive diagonal. So one factorization gives g^{-1}
and det g and certifies convexity at the same time: an indefinite or
singular g raises :class:`SingularMetric` here, before any quantity that
assumes convexity (the volume ratio mu, the first integrals) is formed.

The oracles in :mod:`finvar.oracle` stay independent of this path because
they use different algorithms, not a different library: the characteristic
polynomial by interpolating det(M + lambda I) against the Faddeev-LeVerrier
recursion, and the spray from Christoffel symbols against the AD spray.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularMetric

# Squared pivot smaller than this fraction of the largest counts as singular.
PIVOT_RTOL = 1e-12


def inverse(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse and determinant of the symmetric matrix ``a``.

    Raises :class:`SingularMetric` unless ``a`` is numerically positive
    definite: its entries must be finite, the Cholesky factorization must
    succeed and the squared pivots diag(L)^2 must stay above ``PIVOT_RTOL``
    times the largest.
    """
    # numpy's Cholesky passes NaN through and factors inf without complaint
    if not np.isfinite(a).all():
        raise SingularMetric(
            f"non-finite entries in {np.asarray(a).tolist()}")
    try:
        L = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"not positive definite: {exc}") from exc
    piv = np.diagonal(L) ** 2
    if piv.min() < PIVOT_RTOL * piv.max():
        raise SingularMetric(
            f"pivot ratio {piv.min() / piv.max():.3e} below {PIVOT_RTOL:.0e}")
    L_inv = np.linalg.inv(L)
    # numpy forms X^T X as a symmetric rank-k update, so g^{-1} comes out
    # exactly symmetric
    return L_inv.T @ L_inv, float(np.prod(piv))
