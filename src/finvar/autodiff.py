"""Forward-mode second-order automatic differentiation over lanes of points.

A :class:`HyperDual` carries a value, a gradient over ``m`` seeded variables,
and Hessian rows in one pass, so every second derivative of a scalar field
is exact to machine precision. This is the substrate for all metric tensors
in the package: fields are written once against generic scalars and
evaluated with plain floats or with hyper-duals.

It keeps the Hessian rows of the last ``r`` variables, as many as its seeds
have: from :func:`xy_jet2` the velocity rows ``[F_yx | F_yy]`` (r = n,
m = 2n), all the package reads, or F_yy alone (r = m = n) from a pass that
seeds the velocity alone. One class and one arithmetic code path serve two
lane layouts:

* **one point:** ``val`` is a Python float, ``grad`` has shape (1, m) and
  ``hess`` (r, m);
* **N points:** ``val`` has shape (N, 1, 1), ``grad`` (N, 1, m) and ``hess``
  (N, r, m), one lane per point (seeds keep lane-free ones, which broadcast).

Every outer product of two gradients is formed over the kept rows only, by
``_kept_outer``: a product adds grad_i other.grad_j and other.grad_i grad_j,
``sqrt`` and ``reciprocal`` take grad_i grad_j. So each kept entry takes the
floating-point operations of a full Hessian in the same order, and lane k
of a stacked pass those of a one-point pass at point k: the two agree
bitwise. Evaluating N points at once, the structure-of-arrays form of
vectorized forward-mode Taylor arithmetic (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13), replaces N interpreted passes by one.

Seeds are plain hyper-duals that share cached read-only unit gradients and
zero Hessians, and every product of two hyper-duals takes the one rule
above. :func:`_seeds` returns a seed vector: a list that also keeps the
float array it was seeded from, its first index, r and m. A velocity-only
pass hands the field x as :func:`lane_scalars`, Python floats or lanes.
:func:`gdot` of a seed vector u, or of all floats or all lanes a, against
a seed vector v of its layout (|x|^2, |y|^2 and <x, y> in the klein, funk
and euclidean fields, a Randers metric's beta . y) takes one array pass,
:func:`_dot`, in place of the 2n - 1 hyper-dual operations of its generic
loop. The value is the loop's left-to-right sum. The gradient sums the
loop's terms a_k e_{v+k}, plus b_k e_{u+k} for seeds, in one
``np.add.reduce`` that starts from -0.0, the identity of IEEE addition
(numpy's default start, +0.0, turns a sum of -0.0 into +0.0). A column of
the terms holds at most two entries that are not signed zeros, and such a
sum has the same bits in any order (but for the sign of a NaN), so the
reduction gives the loop's bytes, signed zeros included. For seeds the
Hessian rows are the kept rows of E_u^T E_v + E_v^T E_u, with E_u and E_v
the unit gradients of the two vectors as rows, cached read-only per
(u, v, n, r, m): integers (+0, 1 or 2), exact in any order. For finite
values they are the loop's bytes: its terms value times zero Hessian add up
to +-0, and +-0 plus a cross entry of two unit gradients, +0 or 1, is that
entry. For scalars every Hessian entry is the loop's sum of the a_k times a
zero Hessian, which the same reduction gives in a zero column appended to
E_v. Any other operand, a slice or a sum of seed vectors or a mix of floats
and lanes included, takes the generic loop; operands of unequal or no
length are refused. ``HyperDual.__array_ufunc__`` is None, so a lane array
times a hyper-dual defers to the hyper-dual, as a float does.

:func:`xy_jet2` takes a base point and a velocity of shape (n,), or stacks of
them of shape (N, n). Without x-seeds its jet has the bytes of the velocity
blocks of the x-seeded pass: x-seeds add to a velocity entry only terms
that are signed zeros, which leave every other entry as it is, and a chunk
whose F_y or F_yy holds a zero is evaluated again with them. A stack is
evaluated ``LANES`` points at a time, so the memory of the intermediate
hyper-duals does not grow with the number of points. Dense storage is
deliberate: the working range is a handful of variables (m <= 16), where
flat numpy arrays beat any sparsity bookkeeping.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (ConfigError, DegenerateVelocity, FinvarError,
                     NonFiniteResult)

# Square-root arguments below this floor correspond to a metric value under
# ~1e-13; differentiating through them yields NaN-contaminated jets, so the
# evaluation is refused instead.
SQRT_FLOOR = 1e-26

# Points per chunk of a stacked pass: bounds the size of every intermediate
# hyper-dual, whatever the number of points.
LANES = 64


@functools.cache
def _seed_arrays(rows: int, m: int):
    """What every seed over ``m`` variables with ``rows`` Hessian rows shares:
    read-only views (from broadcast_to) of the unit gradients and of the
    zero Hessian."""
    return (tuple(np.broadcast_to(np.eye(m)[:, None], (m, 1, m))),
            np.broadcast_to(0.0, (rows, m)))


def _kept_outer(a: np.ndarray, b: np.ndarray, rows: int) -> np.ndarray:
    """a_i * b_j over the last ``rows`` rows i, in either lane layout."""
    return a[..., a.shape[-1] - rows:].swapaxes(-1, -2) * b


# -- lanes --------------------------------------------------------------------


def lane(a, i: int | None):
    """Lane ``i`` of a stacked array; the array itself for one point."""
    return a if i is None else a[i]


class Lanes:
    """Indexing for a dataclass whose fields share one lane layout: each a
    one-point value, or a stack with the lanes on its leading axis.

    ``obj[i]`` indexes every field; an int gives lane i with its scalars as
    Python floats, as at one point, and a slice gives a stack.
    """

    def __getitem__(self, i):
        values = (getattr(self, f.name) for f in fields(self))
        return type(self)(*(None if v is None else _item(v[i])
                            for v in values))


def lane_power(a, p):
    """``a ** p`` by the power of a numpy scalar in each lane: numpy's array
    power rounds differently in some lanes, and the scalar power has the
    bits of Python's float power on a nonnegative base and gives nan, not a
    complex number, on a negative one. A numpy scalar for one point, shape
    (N,) for N lanes."""
    a = np.asarray(a)
    return np.array([v ** p for v in a.ravel()]).reshape(a.shape)[()]


def _item(v):
    return v.item() if isinstance(v, np.generic) else v


def check_lanes(ok, error) -> None:
    """Raise ``error(i)`` unless ``ok`` holds in every lane.

    ``ok`` is a bool for one point (``i`` is then None) or a mask over the
    lanes of a stack (``i`` is then the index of the first failing lane).
    """
    if isinstance(ok, np.ndarray) and ok.ndim:
        if not ok.all():
            raise error(int(np.argmin(ok)))
    elif not ok:
        raise error(None)


def floor_error(what: str, value, point: int | None,
                floor: str = "at the positivity floor") -> FinvarError:
    """The error for ``value`` failing a positivity floor, described by
    ``what.format(value)``: a collapsed velocity when the value is finite,
    :class:`NonFiniteResult` when an overflow made it inf or NaN."""
    what = what.format(value)
    if math.isfinite(value):
        return DegenerateVelocity(f"{what} {floor}", point=point)
    return NonFiniteResult(f"{what} not finite", point=point)


class HyperDual:
    """Truncated second-order Taylor number over ``m`` seeded variables, at
    one point or at a stack of points (see the module docstring).

    Arithmetic never mutates operands, so gradient/Hessian arrays may be
    shared between instances.
    """

    __slots__ = ("val", "grad", "hess")

    # a numpy lane array times a hyper-dual defers to the hyper-dual's
    # reflected operator, as a float does, instead of building an object
    # array
    __array_ufunc__ = None

    def __init__(self, val, grad: np.ndarray, hess: np.ndarray):
        self.val = val
        self.grad = grad
        self.hess = hess

    def __repr__(self) -> str:
        return f"HyperDual({self.val!r}, grad={self.grad!r})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.val + other.val, self.grad + other.grad,
                             self.hess + other.hess)
        return HyperDual(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, HyperDual):
            return HyperDual(self.val - other.val, self.grad - other.grad,
                             self.hess - other.hess)
        return HyperDual(self.val - other, self.grad, self.hess)

    def __rsub__(self, other):
        return HyperDual(other - self.val, -self.grad, -self.hess)

    def __neg__(self):
        return HyperDual(-self.val, -self.grad, -self.hess)

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            a, b, h = self.grad, other.grad, self.hess
            rows = h.shape[-2]
            return HyperDual(self.val * other.val,
                             self.val * b + other.val * a,
                             self.val * other.hess + other.val * h
                             + _kept_outer(a, b, rows)
                             + _kept_outer(b, a, rows))
        return HyperDual(self.val * other, other * self.grad, other * self.hess)

    __rmul__ = __mul__

    def reciprocal(self) -> "HyperDual":
        inv = 1.0 / self.val
        inv2 = inv * inv
        g, h = self.grad, self.hess
        return HyperDual(inv, -inv2 * g, (2.0 * inv2 * inv)
                         * _kept_outer(g, g, h.shape[-2]) - inv2 * h)

    def __truediv__(self, other):
        if isinstance(other, HyperDual):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def sqrt(self) -> "HyperDual":
        v = self.val
        s = _sqrt(v)
        d1 = 0.5 / s
        d2 = -0.25 / (v * s)
        g, h = self.grad, self.hess
        return HyperDual(s, d1 * g,
                         d1 * h + d2 * _kept_outer(g, g, h.shape[-2]))


def lane_scalars(a: np.ndarray) -> list:
    """A point's coordinates (n,) as Python floats, or a stack's (N, n) as
    one (N, 1, 1) array each: the ``val`` layouts of :class:`HyperDual`."""
    if a.ndim == 1:
        return a.tolist()
    return [a[:, i, None, None] for i in range(a.shape[-1])]


class _SeedVector(list):
    """The seeds that :func:`_seeds` makes, as a list that also keeps the
    float array they were seeded from, (n,) or (N, n), the index of the
    first, and the ``rows`` and ``m`` of their hyper-duals. A slice or a sum
    of such lists is a plain list."""

    __slots__ = ("values", "offset", "rows", "m")


def _seeds(values: np.ndarray, m: int, offset: int,
           rows: int) -> _SeedVector:
    """Seeds ``offset``.. of the float values of shape (n,), or of the
    lanes of a stack of shape (N, n)."""
    grads, hess = _seed_arrays(rows, m)
    seeds = _SeedVector(HyperDual(v, grads[offset + i], hess)
                        for i, v in enumerate(lane_scalars(values)))
    seeds.values, seeds.offset, seeds.rows, seeds.m = values, offset, rows, m
    return seeds


def _coefficients(u, v: _SeedVector) -> np.ndarray | None:
    """The entries a_k of ``u`` as an array in the layout of v's values,
    (n,) at one point and (N, n), or (1, n) for floats, over a stack of N:
    when ``u`` is a seed vector of v's layout, or all Python floats, or all
    lanes (N, 1, 1) of v's stack; None for any other operand, which takes
    the generic loop."""
    b = v.values
    if isinstance(u, _SeedVector):
        return u.values if u.values.shape == b.shape else None
    if all(type(t) is float for t in u):
        return np.array(u, ndmin=b.ndim)
    lanes = (len(b), 1, 1)
    if b.ndim == 2 and all(type(t) is np.ndarray and t.shape == lanes
                           for t in u):
        return np.array(u).reshape(len(u), -1).T
    return None


@functools.cache
def _dot_arrays(u: int | None, v: int, n: int, rows: int, m: int):
    """What :func:`_dot` of seeds u.. against seeds v.. (n each) over ``m``
    variables with ``rows`` Hessian rows needs, read-only and lane-free:
    the unit gradients e_{u+k} and e_{v+k} as the rows of (n, m) arrays
    E_u and E_v, and the kept rows of the Hessian E_u^T E_v + E_v^T E_u.
    Against scalars (u None), E_v alone, with a zero last column."""
    eye = np.eye(m if u is not None else m + 1)
    eye.flags.writeable = False
    e_v = eye[v:v + n]
    if u is None:
        return None, e_v, None
    e_u = eye[u:u + n]
    hess = (e_u.T @ e_v + e_v.T @ e_u)[m - rows:]
    hess.flags.writeable = False
    return e_u, e_v, hess


def _dot(u, a: np.ndarray, v: _SeedVector) -> HyperDual:
    """:func:`gdot` of ``u``, with the entries ``a`` of
    :func:`_coefficients`, against a seed vector in one array pass, with
    the bytes of the generic loop (see the module docstring)."""
    b = v.values
    seeded = isinstance(u, _SeedVector)
    e_u, e_v, hess = _dot_arrays(u.offset if seeded else None, v.offset,
                                 len(v), v.rows, v.m)
    if b.ndim == 1:
        # a sum from -0.0, the identity of IEEE addition, is one from the
        # first term
        val = -0.0
        for s, t in zip(a.tolist(), b.tolist()):
            val += s * t
    else:
        # accumulate, not reduce: a sum in order, as the loop's
        val = np.add.accumulate(a * b, axis=1)[:, -1, None, None]
        # the lanes last, where the reduction below runs fastest
        a, b, e_v = a.T, b.T, e_v[..., None]
        if seeded:
            e_u = e_u[..., None]
    # the loop's gradient terms a_k e_{v+k}, plus b_k e_{u+k} for seeds:
    # (n, m) at one point, (n, m, N) over a stack
    terms = a[:, None] * e_v
    if seeded:
        terms += b[:, None] * e_u
    grad = np.add.reduce(terms, axis=0, initial=-0.0)
    if not seeded:
        # every Hessian entry is the loop's sum of the a_k times a zero
        # Hessian: the zero column's
        hess = np.empty(v.values.shape[:-1] + (v.rows, v.m))
        hess[...] = grad[-1, ..., None, None]
        grad = grad[:-1]
    return HyperDual(val, grad.T[..., None, :], hess)


def _sqrt(v):
    """The square root of a float, or of lanes, above ``SQRT_FLOOR``."""
    # NaN fails too, as it cannot be certified above the floor, and is
    # reported as a non-finite result
    check_lanes(v > SQRT_FLOOR, lambda i: floor_error(
        "square root argument {:.3e}", np.ravel(v)[i or 0], i))
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


def gsqrt(z):
    """Square root of a generic scalar, guarded near zero."""
    return z.sqrt() if isinstance(z, HyperDual) else _sqrt(z)


def gdot(u, v):
    """Inner product of two sequences of generic scalars of one nonzero
    length: in one array pass for a seed vector, or floats or lanes,
    against a seed vector of its layout, else by the generic loop."""
    n = len(v)
    if len(u) != n or not n:
        raise ConfigError(f"gdot needs two sequences of one nonzero length, "
                          f"got lengths {len(u)} and {n}")
    if isinstance(v, _SeedVector):
        a = _coefficients(u, v)
        if a is not None:
            return _dot(u, a, v)
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


# -- field evaluation -------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Jet2:
    """Value, gradient, and Hessian rows of a scalar field in the seeded
    variables: a float, (m,) and (r, m) at one point; (N,), (N, m) and
    (N, r, m) over N points."""

    value: float | np.ndarray
    grad: np.ndarray
    hess: np.ndarray


def check_shapes(x: np.ndarray, y: np.ndarray) -> None:
    """Refuse a base point and a velocity unless they are vectors (n,), or
    non-empty stacks of them (N, n), of equal shape."""
    if x.shape != y.shape or x.ndim not in (1, 2) or not x.size:
        raise ConfigError(
            f"x and y must be vectors, or non-empty stacks of them, of "
            f"equal shape, got {x.shape} and {y.shape}")


def check_velocity(y: np.ndarray) -> None:
    """Refuse a velocity (n,), or a row of a stack (N, n), of all zeros."""
    # one point in floats, 0.13 us against 1.7 us as a one-row stack; a NaN
    # is nonzero and -0.0 zero, as in numpy
    ok = any(y.tolist()) if y.ndim == 1 else (y != 0.0).any(axis=-1)
    check_lanes(ok, lambda i: DegenerateVelocity(
        "velocity is exactly zero", point=i))


def xy_jet2(f, x, y, *, seed_x: bool = True) -> Jet2:
    """One joint pass of the field ``f`` over (x, y): variables 0..n-1 are
    x, n..2n-1 are y. No domain is checked here; a metric's checked entry is
    :meth:`~finvar.metrics.FinslerMetric.jet2`.

    ``hess`` holds the velocity rows ``[F_yx | F_yy]``, of shape (n, 2n).
    Without ``seed_x`` the pass seeds y alone, variables 0..n-1, and x
    enters as :func:`lane_scalars`: ``grad`` is F_y and ``hess`` F_yy, of
    shape (n, n), with the bytes of those blocks of the x-seeded pass.
    ``x`` and ``y`` of shape (n,) give the jet at one point; stacks of
    shape (N, n) give the jets at N points, evaluated ``LANES`` at a time.
    Shapes that differ raise :class:`ConfigError`. An error from a stack
    names the index of its first failing point.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    check_shapes(x, y)
    check_velocity(y)
    n = y.shape[-1]
    m = 2 * n if seed_x else n

    def field(x, y):
        if seed_x:
            return f(_seeds(x, m, 0, n), _seeds(y, m, n, n))
        res = f(lane_scalars(x), _seeds(y, m, 0, n))
        if isinstance(res, HyperDual) and not (res.grad.all()
                                               and res.hess.all()):
            # x-seeds add signed zeros to every velocity entry, and
            # -0.0 + 0.0 is +0.0: a zero entry takes its sign from a pass
            # with them
            full = f(_seeds(x, 2 * n, 0, n), _seeds(y, 2 * n, n, n))
            res = HyperDual(full.val, full.grad[..., n:], full.hess[..., n:])
        return res

    if y.ndim == 1:
        res = field(x, y)
        if isinstance(res, HyperDual):
            return Jet2(res.val, res.grad[0], res.hess)
        return Jet2(float(res), np.zeros(m), np.zeros((n, m)))
    count = y.shape[0]
    value = np.empty((count, 1, 1))
    grad = np.empty((count, 1, m))
    hess = np.empty((count, n, m))
    for start in range(0, count, LANES):
        chunk = slice(start, start + LANES)
        try:
            res = field(x[chunk], y[chunk])
        except FinvarError as exc:
            if exc.point is not None:
                exc.point += start
            raise
        if not isinstance(res, HyperDual):
            res = HyperDual(res, 0.0, 0.0)
        value[chunk], grad[chunk], hess[chunk] = res.val, res.grad, res.hess
    return Jet2(value[:, 0, 0], grad[:, 0], hess)
