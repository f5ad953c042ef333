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
at n = 8, against about 2 s for its jet alone.

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


def _exact_jet(metric, x, y):
    """F, the gradient (2n) and the velocity Hessian rows (n lists of 2n)
    at (x, y), in mpmath at the current precision."""
    n = metric.dim
    flat = _jet_function(metric)(*_mpf(x), *_mpf(y))
    m = 2 * n
    return flat[0], flat[1:1 + m], [flat[1 + m + i * m:1 + m + (i + 1) * m]
                                    for i in range(n)]


def jet(metric, x, y):
    """The joint jet at one point, in the layout of
    :func:`finvar.autodiff.xy_jet2`: F, the gradient (2n,) and the Hessian
    rows (n, 2n)."""
    with mpmath.workdps(DPS):
        F, grad, hess = _exact_jet(metric, x, y)
        return float(F), np.array(grad, dtype=float), np.array(hess,
                                                               dtype=float)


def tensors(metric, x, y):
    """g, h, the spray G and the size of the terms that form G, at one
    point.

    G = 1/4 g^-1 (F^2_yx y - F^2_x) is formed in mpmath from the exact
    jet. Its scale 1/4 max|g^-1| (max|F^2_yx y| + max|F^2_x|) bounds the
    rounding of those terms, where G itself may nearly vanish, as klein's
    does at the origin.
    """
    n = metric.dim
    with mpmath.workdps(DPS):
        F, grad, hess = _exact_jet(metric, x, y)
        F_x, F_y = grad[:n], grad[n:]
        h = mpmath.matrix([[F * hess[i][n + j] for j in range(n)]
                           for i in range(n)])
        g = h + mpmath.matrix([[F_y[i] * F_y[j] for j in range(n)]
                               for i in range(n)])
        yv = _mpf(y)
        # (F^2_yx y)_i and (F^2_x)_i
        F2_yx_y = [2 * sum((F_y[i] * F_x[k] + F * hess[i][k]) * yv[k]
                           for k in range(n)) for i in range(n)]
        F2_x = [2 * F * F_x[i] for i in range(n)]
        g_inv = g ** -1
        G = g_inv * mpmath.matrix([a - b for a, b in zip(F2_yx_y, F2_x)]) / 4
        scale = (max(abs(v) for v in g_inv)
                 * (max(abs(v) for v in F2_yx_y) + max(abs(v) for v in F2_x))
                 / 4)
        return (np.array(g.tolist(), dtype=float),
                np.array(h.tolist(), dtype=float),
                np.array(G.tolist(), dtype=float)[:, 0], float(scale))


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
