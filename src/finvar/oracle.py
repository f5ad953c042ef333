"""Independent brute-force verifiers for the production code paths.

Everything here deliberately avoids the machinery it checks: characteristic
polynomials come from determinant interpolation (numpy determinants, not the
recursion in :mod:`finvar.integrals`), and the delta coefficients from a
direct double sum over permutation pairs. Clarity over speed throughout:
``finvar oracle`` runs both on the stacked jets of all its points. The
derivatives themselves, the jets and sprays, are checked in the test suite
against exact symbolic differentiation of each metric's own field code.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .autodiff import lane_power
from .errors import ConfigError, OracleScopeExceeded
from .integrals import PairJets, square_matrices

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
    M = square_matrices(M)
    n = M.shape[-1]
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


@functools.cache
def _permutation_pairs(n: int) -> tuple:
    """Every pair (sigma1, sigma2) of permutations of 0..n-1, on a trailing
    axis at index a * n! + b for the a-th and b-th permutation in
    itertools order: s1[i] and s2[i] hold sigma1(i) and sigma2(i) of every
    pair, and sign the sign of sigma1 sigma2, as a float. Read-only, built
    once per n."""
    perms = list(itertools.permutations(range(n)))
    signs = [_perm_sign(perm) for perm in perms]
    s1 = np.repeat(perms, len(perms), axis=0).T
    s2 = np.tile(perms, (len(perms), 1)).T
    sign = np.outer(signs, signs).ravel().astype(float)
    for a in (s1, s2, sign):
        a.flags.writeable = False
    return s1, s2, sign


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
    s1, s2, term = _permutation_pairs(n)
    for i in range(alpha - 1):
        term = term * jet.h[..., s1[i], s2[i]]
    for i in range(alpha - 1, n - 1):
        term = term * jet_t.h[..., s1[i], s2[i]]
    term = term * jet.F_y[..., s1[n - 1]] * jet.F_y[..., s2[n - 1]]
    # summed pair by pair from +0.0, in enumeration order, in every lane:
    # a running sum, as np.add.reduce would sum pairwise
    total = np.add.accumulate(np.insert(term, 0, 0.0, axis=-1), axis=-1)
    prefactor = (lane_power(jet.F / jet_t.F, n - alpha)
                 / (math.factorial(alpha - 1) * math.factorial(n - alpha)))
    return prefactor * total[..., -1]
