"""Exact derivatives of catalog metrics, the reference for the hyper-dual
engine's jets and sprays.

A metric's own ``evaluator`` runs on sympy symbols, with the package's
guarded square root swapped for ``sympy.sqrt`` while the expression is
built, so the oracle differentiates the very formula production evaluates.
sympy differentiates F exactly up to the joint jet that production reads:
the value, the 2n-gradient (F_x, F_y) and the velocity Hessian rows
[F_yx | F_yy]. The jet is lambdified to mpmath once per metric and cached.
Every tensor built from it, g, h and the spray G, is formed numerically in
``DPS``-digit mpmath: forming g^-1 and G symbolically took 27 s for funk
at n = 8, against about 2 s for its jet alone. So are the first integrals
f_alpha of a pair (:func:`first_integrals`), from the eigenvalues of H
rather than production's Faddeev-LeVerrier recursion, and their derivative
along the base metric's geodesic spray (:func:`lie_derivative`), which
vanishes exactly when the f_alpha are first integrals.

For a Riemannian matrix field A(x), :func:`christoffel` gives the
Christoffel symbols from the symbolic derivatives of A, so the spray
G^i = 1/2 Gamma^i_jk y^j y^k of a quadratic metric is checked by a
different formula as well.

Each result is rounded to float64 once, at the end, so a comparison with
the engine reads the engine's own error within one rounding.
"""

from __future__ import annotations

import functools

import mpmath
import numpy as np
import sympy

import finvar.metrics

# Working precision of every evaluation, far beyond double rounding.
DPS = 40


def _symbols(name: str, n: int) -> list:
    return list(sympy.symbols(f"{name}0:{n}", real=True))


@functools.cache
def _jet_function(metric):
    """mpmath function of x^0..x^{n-1}, y^0..y^{n-1} giving the joint jet
    flat: F, the 2n-gradient, then the n velocity Hessian rows."""
    n = metric.dim
    xs, ys = _symbols("x", n), _symbols("y", n)
    # the package's square root compares its argument with a floor, which
    # a symbol cannot answer
    saved, finvar.metrics.gsqrt = finvar.metrics.gsqrt, sympy.sqrt
    try:
        F = sympy.sympify(metric.evaluator(xs, ys))
    finally:
        finvar.metrics.gsqrt = saved
    variables = xs + ys
    grad = [sympy.diff(F, v) for v in variables]
    rows = [sympy.diff(F_y, v) for F_y in grad[n:] for v in variables]
    return sympy.lambdify(variables, [F] + grad + rows, modules="mpmath",
                          cse=True)


def _mpf(values) -> list:
    return [mpmath.mpf(float(v)) for v in values]


def _exact_jet(metric, xv, yv):
    """F, the gradient (2n) and the velocity Hessian rows (n lists of 2n)
    at (xv, yv) given in mpmath, at the current precision."""
    n = metric.dim
    flat = _jet_function(metric)(*xv, *yv)
    m = 2 * n
    return flat[0], flat[1:1 + m], [flat[1 + m + i * m:1 + m + (i + 1) * m]
                                    for i in range(n)]


def jet(metric, x, y):
    """The joint jet at one point, in the layout of
    :func:`finvar.autodiff.xy_jet2`: F, the gradient (2n,) and the Hessian
    rows (n, 2n)."""
    with mpmath.workdps(DPS):
        F, grad, hess = _exact_jet(metric, _mpf(x), _mpf(y))
        return float(F), np.array(grad, dtype=float), np.array(hess,
                                                               dtype=float)


def _exact_tensors(metric, xv, yv):
    """The exact jet F, gradient and Hessian rows at (xv, yv) given in
    mpmath, then g = h + F_y F_y^T and h = F F_yy, at the current
    precision."""
    n = metric.dim
    F, grad, hess = _exact_jet(metric, xv, yv)
    F_y = grad[n:]
    h = mpmath.matrix([[F * hess[i][n + j] for j in range(n)]
                       for i in range(n)])
    g = h + mpmath.matrix([[F_y[i] * F_y[j] for j in range(n)]
                           for i in range(n)])
    return F, grad, hess, g, h


def _exact_spray(metric, xv, yv):
    """g, h, the spray G = 1/4 g^-1 (F^2_yx y - F^2_x) and the size of the
    terms that form G, at (xv, yv) given in mpmath, at the current
    precision."""
    n = metric.dim
    F, grad, hess, g, h = _exact_tensors(metric, xv, yv)
    F_x, F_y = grad[:n], grad[n:]
    # (F^2_yx y)_i and (F^2_x)_i
    F2_yx_y = [2 * sum((F_y[i] * F_x[k] + F * hess[i][k]) * yv[k]
                       for k in range(n)) for i in range(n)]
    F2_x = [2 * F * F_x[i] for i in range(n)]
    g_inv = g ** -1
    G = g_inv * mpmath.matrix([a - b for a, b in zip(F2_yx_y, F2_x)]) / 4
    scale = (max(abs(v) for v in g_inv)
             * (max(abs(v) for v in F2_yx_y) + max(abs(v) for v in F2_x)) / 4)
    return g, h, G, scale


def tensors(metric, x, y):
    """g, h, the spray G and the size of the terms that form G, at one
    point.

    G = 1/4 g^-1 (F^2_yx y - F^2_x) is formed in mpmath from the exact
    jet. Its scale 1/4 max|g^-1| (max|F^2_yx y| + max|F^2_x|) bounds the
    rounding of those terms, where G itself may nearly vanish, as klein's
    does at the origin.
    """
    with mpmath.workdps(DPS):
        g, h, G, scale = _exact_spray(metric, _mpf(x), _mpf(y))
        return (np.array(g.tolist(), dtype=float),
                np.array(h.tolist(), dtype=float),
                np.array(G.tolist(), dtype=float)[:, 0], float(scale))


def _exact_integrals(base, comparison, xv, yv) -> list:
    """f_1..f_n of the pair at (xv, yv), given in mpmath, at the current
    precision; see :func:`first_integrals`."""
    n = base.dim
    F, _, _, g, _ = _exact_tensors(base, xv, yv)
    F_t, _, _, _, h_t = _exact_tensors(comparison, xv, yv)
    L_inv = mpmath.cholesky(g) ** -1
    S = (F / F_t) * (L_inv * h_t * L_inv.T)
    # e[k] = e_k of the eigenvalues taken so far
    e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * n
    for lam in mpmath.eigsy(S, eigvals_only=True):
        for k in range(n, 0, -1):
            e[k] += e[k - 1] * lam
    return [e[n - alpha] for alpha in range(1, n + 1)]


def first_integrals(base, comparison, x, y) -> np.ndarray:
    """f_1..f_n of the pair (base, comparison) at one point, in the layout
    of :class:`finvar.integrals.FirstIntegralVector`'s ``f``.

    H = (F/F~) g^-1 h~ is formed in mpmath from both exact jets, as the
    symmetric matrix S = (F/F~) L^-1 h~ L^-T similar to it, with g = L L^T
    its Cholesky factorization. The characteristic polynomial
    det(H + Lambda I) = prod_k (Lambda + lambda_k) is then expanded from
    the eigenvalues lambda_k of S (``mpmath.eigsy``, Jacobi rotations),
    not by the Faddeev-LeVerrier recursion production runs: f_alpha, the
    coefficient of Lambda^alpha, is the elementary symmetric function
    e_(n-alpha) of the eigenvalues.
    """
    with mpmath.workdps(DPS):
        return np.array([float(f) for f in _exact_integrals(
            base, comparison, _mpf(x), _mpf(y))])


# Working precision and step of the Lie derivative's central difference:
# its truncation, of order LIE_STEP^2, and its rounding, of order
# 10^-LIE_DPS / LIE_STEP, both lie far below the 1e-30 a test resolves.
LIE_DPS = 80
LIE_STEP = "1e-30"


def lie_derivative(base, comparison, x, y) -> np.ndarray:
    """X f_1..X f_n at one point: the derivative of the pair's exact
    f_alpha along the base metric's geodesic spray
    X = y^i d/dx^i - 2 G^i d/dy^i, which vanishes for a first integral.

    It is the central difference (f(z + eps X) - f(z - eps X)) / (2 eps),
    eps = ``LIE_STEP``, of the f_alpha of :func:`first_integrals` about
    z = (x, y), with the exact spray G at z, all in ``LIE_DPS``-digit
    mpmath; ``DPS`` stays as it is for the other references.
    """
    with mpmath.workdps(LIE_DPS):
        xv, yv = _mpf(x), _mpf(y)
        G = _exact_spray(base, xv, yv)[2]
        eps = mpmath.mpf(LIE_STEP)
        ends = [_exact_integrals(
            base, comparison, [a + s * eps * b for a, b in zip(xv, yv)],
            [b - 2 * s * eps * G[i] for i, b in enumerate(yv)])
            for s in (1, -1)]
        return np.array([float((p - m) / (2 * eps)) for p, m in zip(*ends)])


@functools.cache
def _christoffel_function(matrix_field, n: int):
    """mpmath function of x^0..x^{n-1} giving A and its derivatives
    dA[k] = dA/dx^k of the matrix field ``matrix_field``."""
    xs = _symbols("x", n)
    A = sympy.Matrix(matrix_field(xs))
    return sympy.lambdify(xs, [A.tolist()] + [A.diff(v).tolist() for v in xs],
                          modules="mpmath", cse=True)


def _exact_christoffel(matrix_field, x) -> list:
    n = len(x)
    A, *dA = _christoffel_function(matrix_field, n)(*_mpf(x))
    A_inv = mpmath.matrix(A) ** -1
    return [[[sum(A_inv[i, m] * (dA[j][m][k] + dA[k][m][j] - dA[m][j][k])
                  for m in range(n)) / 2
              for k in range(n)] for j in range(n)] for i in range(n)]


def christoffel(matrix_field, x) -> np.ndarray:
    """Gamma[i, j, k] = 1/2 A^im (d_j A_mk + d_k A_mj - d_m A_jk) of a
    Riemannian matrix field, given as rows of generic scalars, at x."""
    with mpmath.workdps(DPS):
        return np.array(_exact_christoffel(matrix_field, x), dtype=float)


def christoffel_spray(matrix_field, x, y) -> np.ndarray:
    """G^i = 1/2 Gamma^i_jk y^j y^k of the quadratic metric sqrt(y^T A y)."""
    n = len(x)
    with mpmath.workdps(DPS):
        gamma = _exact_christoffel(matrix_field, x)
        yv = _mpf(y)
        return np.array([sum(gamma[i][j][k] * yv[j] * yv[k]
                             for j in range(n) for k in range(n)) / 2
                         for i in range(n)], dtype=float)
