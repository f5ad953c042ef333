"""Forward-mode second-order automatic differentiation over lanes of points.

A :class:`HyperDual` carries a value, a gradient over ``m`` seeded variables,
and Hessian rows in one pass, so every second derivative of a scalar field
is exact to machine precision. This is the substrate for all metric tensors
in the package: fields are written once against generic scalars and
evaluated with plain floats or with hyper-duals.

It keeps the Hessian rows of the last ``r`` variables, as many as its seeds
have: from :func:`xy_jet2` the velocity rows ``[F_yx | F_yy]`` (r = n,
m = 2n), all the package reads. One class and one arithmetic code path serve
two lane layouts:

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

Seeds share cached read-only unit gradients and zero Hessians, and each
knows the index of its variable. A product of seeds i and j computes only
its value and gradient: its Hessian rows are the kept rows of
e_i e_j^T + e_j e_i^T, cached per (i, j, r, m), read-only and lane-free.
For finite values that is what the general rule gives, bit for bit: its
terms value times zero Hessian add up to +-0, each cross entry of two unit
gradients is +0 or 1, and +-0 plus such an entry is that entry, so what
remains is the sum of the two cross terms, the cached entry. Every other
product, a seed plus a number among them, takes the general rule.

:func:`xy_jet2` takes a base point and a velocity of shape (n,), or stacks of
them of shape (N, n). A stack is evaluated ``LANES`` points at a time, so the
memory of the intermediate hyper-duals does not grow with the number of
points. Dense storage is deliberate: the working range is a handful of
variables (m <= 16), where flat numpy arrays beat any sparsity bookkeeping.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateVelocity, FinvarError, NonFiniteResult

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


@functools.cache
def _seed_pair_hessian(i: int, j: int, rows: int, m: int) -> np.ndarray:
    """The kept rows of e_i e_j^T + e_j e_i^T, the Hessian of the product of
    seeds i and j: read-only and lane-free."""
    unit = _seed_arrays(rows, m)[0]
    block = (_kept_outer(unit[i], unit[j], rows)
             + _kept_outer(unit[j], unit[i], rows))
    block.flags.writeable = False
    return block


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
        return type(self)(*(_item(getattr(self, f.name)[i])
                            for f in fields(self)))


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
            h = self.hess
            if isinstance(self, _Seed) and isinstance(other, _Seed):
                hess = _seed_pair_hessian(self.index, other.index,
                                          *h.shape[-2:])
            else:
                a, b, rows = self.grad, other.grad, h.shape[-2]
                hess = (self.val * other.hess + other.val * h
                        + _kept_outer(a, b, rows) + _kept_outer(b, a, rows))
            return HyperDual(self.val * other.val,
                             self.val * other.grad + other.val * self.grad,
                             hess)
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
        # NaN fails too, as it cannot be certified above the floor, and is
        # reported as a non-finite result
        check_lanes(v > SQRT_FLOOR, lambda i: floor_error(
            "square root argument {:.3e}", np.ravel(v)[i or 0], i))
        s = np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)
        d1 = 0.5 / s
        d2 = -0.25 / (v * s)
        g, h = self.grad, self.hess
        return HyperDual(s, d1 * g,
                         d1 * h + d2 * _kept_outer(g, g, h.shape[-2]))


class _Seed(HyperDual):
    """A seeded variable: the unit gradient of variable ``index`` and a zero
    Hessian. Arithmetic on seeds gives plain hyper-duals."""

    __slots__ = ("index",)

    def __init__(self, val, grad: np.ndarray, hess: np.ndarray, index: int):
        # not through super().__init__: every pass makes 2n seeds
        self.val = val
        self.grad = grad
        self.hess = hess
        self.index = index


def lane_scalars(a: np.ndarray) -> list:
    """A point's coordinates (n,) as Python floats, or a stack's (N, n) as
    one (N, 1, 1) array each: the ``val`` layouts of :class:`HyperDual`."""
    if a.ndim == 1:
        return a.tolist()
    return [a[:, i, None, None] for i in range(a.shape[-1])]


def _seeds(values: np.ndarray, m: int, offset: int,
           rows: int) -> list[HyperDual]:
    """Seeds ``offset``.. of the float values of shape (n,), or of the
    lanes of a stack of shape (N, n)."""
    grads, hess = _seed_arrays(rows, m)
    return [_Seed(v, grads[offset + i], hess, offset + i)
            for i, v in enumerate(lane_scalars(values))]


def gsqrt(z):
    """Square root of a generic scalar, guarded near zero."""
    if isinstance(z, HyperDual):
        return z.sqrt()
    # NaN fails too, as in HyperDual.sqrt
    if not z > SQRT_FLOOR:
        raise floor_error("square root argument {:.3e}", z, None)
    return math.sqrt(z)


def gdot(u, v):
    """Inner product of two sequences of generic scalars."""
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


def check_velocity(y: np.ndarray) -> None:
    """Refuse a velocity (n,), or a row of a stack (N, n), of all zeros."""
    # one point in floats, 0.13 us against 1.7 us as a one-row stack; a NaN
    # is nonzero and -0.0 zero, as in numpy
    ok = any(y.tolist()) if y.ndim == 1 else (y != 0.0).any(axis=-1)
    check_lanes(ok, lambda i: DegenerateVelocity(
        "velocity is exactly zero", point=i))


def xy_jet2(f, x, y) -> Jet2:
    """One joint pass of the field ``f`` over (x, y): variables 0..n-1 are
    x, n..2n-1 are y. No domain is checked here; a metric's checked entry is
    :meth:`~finvar.metrics.FinslerMetric.jet2`.

    ``hess`` holds the velocity rows ``[F_yx | F_yy]``, of shape (n, 2n).
    ``x`` and ``y`` of shape (n,) give the jet at one point; stacks of shape
    (N, n) give the jets at N points, evaluated ``LANES`` at a time. An
    error from a stack names the index of its first failing point.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    check_velocity(y)
    n = y.shape[-1]
    m = 2 * n
    if y.ndim == 1:
        res = f(_seeds(x, m, 0, n), _seeds(y, m, n, n))
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
            res = f(_seeds(x[chunk], m, 0, n), _seeds(y[chunk], m, n, n))
        except FinvarError as exc:
            if exc.point is not None:
                exc.point += start
            raise
        if not isinstance(res, HyperDual):
            res = HyperDual(res, 0.0, 0.0)
        value[chunk], grad[chunk], hess[chunk] = res.val, res.grad, res.hess
    return Jet2(value[:, 0, 0], grad[:, 0], hess)
