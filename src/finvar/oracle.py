"""Independent brute-force verifiers for the production code paths.

Everything here deliberately avoids the machinery it checks: characteristic
polynomials come from determinant interpolation (numpy determinants, not the
recursion in :mod:`finvar.integrals`), the delta coefficients from a direct
double sum over permutation pairs, derivatives from central finite
differences, and Riemannian spray values from the Christoffel formula.
Clarity over speed throughout: ``finvar oracle`` runs the first two on
the stacked jets of all its points, and the tests run all of them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .autodiff import lane_power
from .errors import ConfigError, DomainError, OracleScopeExceeded
from .integrals import PairJets

FD_STEP_MIN = 1e-8
FD_STEP_MAX = 1e-3
# (n!)^2 terms; beyond n=3 the sum is too slow to serve as a quick oracle.
PERMUTATION_CUTOFF = 3


def charpoly_by_interpolation(M: np.ndarray) -> np.ndarray:
    """Coefficients of det(M + Lambda I) via evaluation at n+1 nodes, for
    one matrix (n, n) or each of a stack (N, n, n).

    The nodes are Lambda = s w^k, k = 0..n, with s = ||M||_inf and w the
    primitive (n+1)-th root of unity. On the roots of unity the Vandermonde
    matrix is sqrt(n+1) times a unitary one, so its condition number is 1
    in every dimension n (real nodes such as u = 0..n grow ill conditioned
    with n), and the rescaling by s makes the nodes insensitive to the
    matrix scale. The coefficients of the polynomial in u = Lambda / s are
    then the discrete Fourier transform of the n+1 determinants. A stack
    takes one complex determinant pass over all (N, n+1) shifted matrices
    and one FFT.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[-1] if M.ndim >= 2 else 0
    if M.ndim < 2 or M.shape[-2] != n or n < 2:
        raise ConfigError(f"expected a square matrix of size >= 2, "
                          f"got shape {M.shape}")
    s = np.abs(M).max(axis=(-2, -1))
    s = np.where(s == 0.0, 1.0, s)[..., None]
    nodes = s * np.exp(2j * np.pi * np.arange(n + 1) / (n + 1))
    dets = np.linalg.det(M[..., None, :, :]
                         + nodes[..., None, None] * np.eye(n))
    q = np.fft.fft(dets, axis=-1).real / (n + 1)
    return q / s ** np.arange(n + 1)


def _perm_sign(perm: tuple) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def delta_alpha_combinatorial(jets: PairJets,
                              alpha: int) -> float | np.ndarray:
    """delta_alpha by direct enumeration of the permutation-pair sum, at one
    point or at each point of a stack.

    The coefficient of Lambda^alpha in det((F/F~) h~ + Lambda g) equals

        (F/F~)^(n-alpha) / ((alpha-1)! (n-alpha)!) *
        sum over sigma1, sigma2 of sign(sigma1 sigma2)
            h[s1(1), s2(1)] ... h[s1(alpha-1), s2(alpha-1)]
            h~[s1(alpha), s2(alpha)] ... h~[s1(n-1), s2(n-1)]
            dF/dy[s1(n)] dF/dy[s2(n)]

    and must match f_alpha det g from the production path. Each term takes
    its factors in the order written and the terms are added pair by pair,
    so every lane of a stack gets the bits of its point alone.
    """
    n = jets.dim
    if n > PERMUTATION_CUTOFF:
        raise OracleScopeExceeded(
            f"combinatorial sum limited to n <= {PERMUTATION_CUTOFF}, "
            f"got n = {n}")
    if not 1 <= alpha <= n:
        raise ConfigError(f"alpha must lie in 1..{n}, got {alpha}")
    jet, jet_t = jets.base, jets.comparison
    perms = list(itertools.permutations(range(n)))
    signs = [_perm_sign(perm) for perm in perms]
    # the pairs on a trailing axis, pair (a, b) at index a * n! + b: s1[i]
    # and s2[i] hold sigma1(i) and sigma2(i) of every pair
    s1 = np.repeat(perms, len(perms), axis=0).T
    s2 = np.tile(perms, (len(perms), 1)).T
    term = np.outer(signs, signs).ravel().astype(float)
    for i in range(alpha - 1):
        term = term * jet.h[..., s1[i], s2[i]]
    for i in range(alpha - 1, n - 1):
        term = term * jet_t.h[..., s1[i], s2[i]]
    term = term * jet.F_y[..., s1[n - 1]] * jet.F_y[..., s2[n - 1]]
    # summed pair by pair, in enumeration order, in every lane
    total = 0.0
    for k in range(term.shape[-1]):
        total += term[..., k]
    prefactor = (lane_power(jet.F / jet_t.F, n - alpha)
                 / (math.factorial(alpha - 1) * math.factorial(n - alpha)))
    return prefactor * total


def fd_derivative(f, x, y, which: str, step: float = 1e-5,
                  domain=None) -> np.ndarray | float:
    """Central finite-difference derivatives of a scalar field f(x, y).

    ``which`` selects ``value``, ``y_grad``, ``y_hess``, ``x_grad``, or
    ``xy_hess`` (rows: velocity index, columns: base index). Base-point
    perturbations must stay at least 2*step inside ``domain`` when one is
    given.

    Field evaluations run in extended precision (longdouble) so that the
    second differences at the default step are not swamped by rounding: in
    double precision the eps/step^2 floor alone sits near 2e-6.
    """
    if not (FD_STEP_MIN <= step <= FD_STEP_MAX):
        raise ConfigError(
            f"fd step must lie in [{FD_STEP_MIN}, {FD_STEP_MAX}], got {step}")
    x = np.asarray(x, dtype=np.longdouble)
    y = np.asarray(y, dtype=np.longdouble)
    step = np.longdouble(step)
    n = x.shape[0]

    def ev(xp, yp):
        return np.longdouble(f(list(xp), list(yp)))

    if which in ("x_grad", "xy_hess") and domain is not None:
        for j in range(n):
            for sgn in (-1.0, 1.0):
                probe = np.asarray(x + sgn * 2.0 * step * _unit(n, j),
                                   dtype=float)
                if not domain(probe):
                    raise DomainError(
                        f"point within 2*step of the domain boundary along "
                        f"axis {j}")

    if which == "value":
        return float(ev(x, y))
    if which == "y_grad":
        return _fd_grad(lambda yp: ev(x, yp), y, step)
    if which == "x_grad":
        return _fd_grad(lambda xp: ev(xp, y), x, step)
    if which == "y_hess":
        return _fd_hess(lambda yp: ev(x, yp), y, step)
    if which == "xy_hess":
        out = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                ei, ej = _unit(n, i), _unit(n, j)
                out[i, j] = (
                    ev(x + step * ej, y + step * ei)
                    - ev(x + step * ej, y - step * ei)
                    - ev(x - step * ej, y + step * ei)
                    + ev(x - step * ej, y - step * ei)
                ) / (4.0 * step * step)
        return out
    raise ConfigError(f"unknown derivative selector '{which}'")


def _unit(n: int, i: int) -> np.ndarray:
    e = np.zeros(n)
    e[i] = 1.0
    return e


def _fd_grad(f, v, step):
    n = v.shape[0]
    out = np.empty(n)
    for i in range(n):
        e = step * _unit(n, i)
        out[i] = (f(v + e) - f(v - e)) / (2.0 * step)
    return out


def _fd_hess(f, v, step):
    n = v.shape[0]
    out = np.empty((n, n))
    f0 = f(v)
    for i in range(n):
        ei = step * _unit(n, i)
        out[i, i] = (f(v + ei) - 2.0 * f0 + f(v - ei)) / (step * step)
        for j in range(i + 1, n):
            ej = step * _unit(n, j)
            out[i, j] = out[j, i] = (
                f(v + ei + ej) - f(v + ei - ej)
                - f(v - ei + ej) + f(v - ei - ej)
            ) / (4.0 * step * step)
    return out


def christoffel_oracle(matrix_field, x, step: float = 1e-5) -> np.ndarray:
    """Christoffel symbols Gamma^i_{jk} of a Riemannian matrix field at x.

    Metric derivatives come from central differences; for a quadratic metric
    sqrt(y^T A y) the spray must satisfy G^i = Gamma^i_{jk} y^j y^k / 2.
    """
    if not (FD_STEP_MIN <= step <= FD_STEP_MAX):
        raise ConfigError(
            f"fd step must lie in [{FD_STEP_MIN}, {FD_STEP_MAX}], got {step}")
    x = np.asarray(x, dtype=float)
    n = x.shape[0]

    def mat(xp):
        return np.array([[float(v) for v in row]
                         for row in matrix_field(list(xp))])

    A = mat(x)
    if not np.allclose(A, A.T, rtol=1e-12, atol=1e-12):
        raise DomainError("matrix field is not symmetric at x")
    if np.linalg.eigvalsh(A).min() <= 0.0:
        raise DomainError("matrix field is not positive definite at x")
    dA = np.empty((n, n, n))    # dA[k] = dA/dx^k
    for k in range(n):
        e = step * _unit(n, k)
        dA[k] = (mat(x + e) - mat(x - e)) / (2.0 * step)
    A_inv = np.linalg.inv(A)
    gamma = np.empty((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                gamma[i, j, k] = 0.5 * sum(
                    A_inv[i, m] * (dA[j][m, k] + dA[k][m, j] - dA[m][j, k])
                    for m in range(n))
    return gamma
