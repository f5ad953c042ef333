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

Every outer product of two gradients is formed over the kept rows only,
by indexing the kept gradient entries once, ``a[..., 0, -r:, None] * b``:
a product adds grad_i other.grad_j and other.grad_i grad_j, ``sqrt`` and
``reciprocal`` take grad_i grad_j. So each kept entry takes the
floating-point operations of a full Hessian in the same order, and lane k
of a stacked pass those of a one-point pass at point k: the two agree
bitwise. Evaluating N points at once, the structure-of-arrays form of
vectorized forward-mode Taylor arithmetic (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13), replaces N interpreted passes by one.

Seeds are plain hyper-duals that share cached read-only unit gradients and
zero Hessians, and every product of two hyper-duals takes the one rule
above. :func:`_seeds` returns a seed vector: a list that also keeps the
float values it was seeded from, the lanes last, its first index, r and m.
A velocity-only pass hands the field x as :func:`lane_scalars`, Python
floats or lanes.

:func:`gdots` forms several inner products at once (the klein and funk
fields take |x|^2, |y|^2 and <x, y> from one call), and :func:`gdot` is
:func:`gdots` of one pair. Every pair of two seed vectors of one layout,
the layout of the call's first such pair, joins one array pass,
:func:`_dots`, in place of the 2n - 1 hyper-dual operations of the generic
loop each. The pass stacks the values a and b of its K pairs in one
array. The values are the loop's left-to-right sums. The gradients sum
the loop's terms a_k e_{v+k} + b_k e_{u+k} in one ``np.add.reduce`` over
all K pairs that starts from -0.0, the identity of IEEE addition (numpy's
default start, +0.0, turns a sum of -0.0 into +0.0). A column of one
pair's terms holds at most two entries that are not signed zeros, and
such a sum has the same bits in any order (but for the sign of a NaN), so
the reduction gives the loop's bytes, signed zeros included. The Hessian
rows are the kept rows of E_u^T E_v + E_v^T E_u, with E_u and E_v the
unit gradients of the two vectors as rows, cached read-only per pass and
lane-free: integers (+0, 1 or 2), exact in any order. For finite values
they are the loop's bytes: its terms value times zero Hessian add up to
+-0, and +-0 plus a cross entry of two unit gradients, +0 or 1, is that
entry. Any other pair takes the generic loop: floats or lanes against a
seed vector (a velocity-only pass's <x, y>, a Randers metric's beta . y),
a slice or a sum of seed vectors, and a pair of seed vectors of another
layout than the call's first pass pair. Floats against the seeds of a
stack keep the seeds' lane-free gradient and Hessian rows, which
:func:`xy_jet2` broadcasts into its stacked jet. Operands of unequal or no
length are refused.
``HyperDual.__array_ufunc__`` is None, so a lane array times a hyper-dual
defers to the hyper-dual, as a float does: lanes against a seed vector
take the generic loop as floats do.

:func:`xy_jet2` takes a base point and a velocity of shape (n,), or stacks of
them of shape (N, n). Without x-seeds its jet has the bytes of the velocity
blocks of the x-seeded pass: x-seeds add to a velocity entry only terms
that are signed zeros, which leave every other entry as it is, and a chunk
whose F_y or F_yy holds a zero is evaluated again with them. A stack is
evaluated ``LANES`` points at a time, so the memory of the intermediate
hyper-duals does not grow with the number of points. Dense storage is
deliberate: the measured working range is a handful of variables (n <= 12,
m <= 24; see :func:`~finvar.integrals.charpoly_coefficients`), where flat
numpy arrays beat any sparsity bookkeeping.
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


def check_lanes(ok, error, *args) -> None:
    """Raise ``error(i, *args)`` unless ``ok`` holds in every lane.

    ``ok`` is a bool for one point (``i`` is then None) or a mask over the
    lanes of a stack (``i`` is then the index of the first failing lane).
    ``args`` carry what the message reads, so that a caller builds no
    closure for a check that passes.
    """
    if ok is True:
        return
    if isinstance(ok, np.ndarray) and ok.ndim:
        if not ok.all():
            raise error(int(np.argmin(ok)), *args)
    elif not ok:
        raise error(None, *args)


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
            rows = -h.shape[-2]
            return HyperDual(self.val * other.val,
                             self.val * b + other.val * a,
                             self.val * other.hess + other.val * h
                             + a[..., 0, rows:, None] * b
                             + b[..., 0, rows:, None] * a)
        return HyperDual(self.val * other, other * self.grad, other * self.hess)

    __rmul__ = __mul__

    def reciprocal(self) -> "HyperDual":
        inv = 1.0 / self.val
        inv2 = inv * inv
        g, h = self.grad, self.hess
        return HyperDual(inv, -inv2 * g, (2.0 * inv2 * inv)
                         * (g[..., 0, -h.shape[-2]:, None] * g) - inv2 * h)

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
                         d1 * h + d2 * (g[..., 0, -h.shape[-2]:, None] * g))


def lane_scalars(a: np.ndarray) -> list:
    """A point's coordinates (n,) as Python floats, or a stack's (N, n) as
    one (N, 1, 1) array each: the ``val`` layouts of :class:`HyperDual`."""
    if a.ndim == 1:
        return a.tolist()
    return [a[:, i, None, None] for i in range(a.shape[-1])]


class _SeedVector(list):
    """The seeds that :func:`_seeds` makes, as a list that also keeps the
    float values they were seeded from with the lanes last, (n,) at one
    point or (n, N) over a stack, the index of the first, and the ``rows``
    and ``m`` of their hyper-duals. A slice or a sum of such lists is a
    plain list."""

    __slots__ = ("values", "offset", "rows", "m")


def _seeds(values: np.ndarray, m: int, offset: int,
           rows: int) -> _SeedVector:
    """Seeds ``offset``.. of the float values of shape (n,), or of the
    lanes of a stack of shape (N, n)."""
    grads, hess = _seed_arrays(rows, m)
    seeds = _SeedVector([HyperDual(v, g, hess) for v, g
                         in zip(lane_scalars(values), grads[offset:])])
    seeds.values, seeds.offset, seeds.rows, seeds.m = values.T, offset, rows, m
    return seeds


@functools.cache
def _dots_arrays(offsets: tuple, n: int, stacked: bool, rows: int, m: int):
    """What :func:`_dots` of the pairs of seed vectors at ``offsets``,
    ((u, v), ...), of length ``n`` at one point or over a stack, over ``m``
    variables with ``rows`` Hessian rows needs, read-only and lane-free.

    The unit gradients of each pair as the rows of one array, e_{v+k} and
    then e_{u+k}: (K, 2n, m) with a last unit axis for the lanes of a stack.
    The kept rows of each pair's Hessian E_u^T E_v + E_v^T E_u."""
    eye = np.eye(m)
    units = np.array([np.concatenate((eye[v:v + n], eye[u:u + n]))
                      for u, v in offsets])
    units = units.reshape(units.shape + (1,) * stacked)
    units.flags.writeable = False
    hessians = []
    for u, v in offsets:
        e_u, e_v = eye[u:u + n], eye[v:v + n]
        hess = (e_u.T @ e_v + e_v.T @ e_u)[m - rows:]
        hess.flags.writeable = False
        hessians.append(hess)
    return units, tuple(hessians)


def _dots(arrays: list, offsets: tuple, shape: tuple, rows: int,
          m: int) -> list:
    """The products of the seed-vector pairs of one :func:`gdots` call in
    one array pass, with the bytes of the generic loop (see the module
    docstring): ``arrays`` holds the values a and b of each pair, of
    ``shape``, (n,) or (n, N); ``offsets`` the pairs' first seed indices
    (u, v)."""
    stacked = len(shape) == 2
    units, hessians = _dots_arrays(offsets, shape[0], stacked, rows, m)
    # (2K, n) at one point, (2K, n, N) over a stack
    ab = np.array(arrays)
    if stacked:
        # accumulate, not reduce: a sum in order, as the loop's
        vals = np.add.accumulate(ab[0::2] * ab[1::2],
                                 axis=1)[:, -1, :, None, None]
    else:
        vals = []
        entries = ab.tolist()
        for a, b in zip(entries[0::2], entries[1::2]):
            # a sum from -0.0, the identity of IEEE addition, is one from
            # the first term
            val = -0.0
            for s, t in zip(a, b):
                val += s * t
            vals.append(val)
    # the loop's gradient terms a_k e_{v+k} + b_k e_{u+k}, summed over k
    # from -0.0: (K, m) at one point, (K, m, N) over a stack, the lanes
    # last, where the product and the reduction run fastest
    count, lanes = len(offsets), shape[1:]
    grad = np.add.reduce(ab.reshape((count, 2 * shape[0], 1) + lanes)
                         * units, axis=1, initial=-0.0)
    # each pair's gradient in its hyper-dual layout, (1, m) or (N, 1, m)
    grads = grad.swapaxes(1, -1)[..., None, :]
    return list(map(HyperDual, vals, grads, hessians))


def _sqrt(v):
    """The square root of a float, or of lanes, above ``SQRT_FLOOR``."""
    # NaN fails too, as it cannot be certified above the floor, and is
    # reported as a non-finite result
    check_lanes(v > SQRT_FLOOR, _below_sqrt_floor, v)
    return np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)


def _below_sqrt_floor(i: int | None, v) -> FinvarError:
    return floor_error("square root argument {:.3e}", np.ravel(v)[i or 0], i)


def gsqrt(z):
    """Square root of a generic scalar, guarded near zero."""
    return z.sqrt() if isinstance(z, HyperDual) else _sqrt(z)


def gdots(*pairs) -> list:
    """The inner products of pairs ``(u, v)`` of sequences of generic
    scalars, each pair of one nonzero length, as separate :func:`gdot`
    calls give them. The pairs of two seed vectors of the layout of the
    first such pair take one array pass, :func:`_dots`; any other pair
    takes the generic loop."""
    out = []
    # the layout of the first pair that takes the pass
    layout = None
    for u, v in pairs:
        n = len(v)
        if len(u) != n or not n:
            raise ConfigError(f"gdot needs two sequences of one nonzero "
                              f"length, got lengths {len(u)} and {n}")
        if (type(u) is type(v) is _SeedVector
                and u.values.shape == v.values.shape
                and layout in (None, (v.values.shape, v.rows, v.m))):
            if layout is None:
                layout = (v.values.shape, v.rows, v.m)
                # the places in ``out``, offsets, a and b of its pairs
                places, offsets, arrays = [], [], []
            places.append(len(out))
            offsets.append((u.offset, v.offset))
            arrays += u.values, v.values
            out.append(None)
            continue
        acc = u[0] * v[0]
        for s, t in zip(u[1:], v[1:]):
            acc = acc + s * t
        out.append(acc)
    if layout is not None:
        for i, res in zip(places, _dots(arrays, tuple(offsets), *layout)):
            out[i] = res
    return out


def gdot(u, v):
    """The inner product of two sequences of generic scalars of one nonzero
    length: :func:`gdots` of the one pair."""
    return gdots((u, v))[0]


# -- field evaluation -------------------------------------------------------


@dataclass(slots=True, eq=False)
class Jet2:
    """Value, gradient, and Hessian rows of a scalar field in the seeded
    variables: a float, (m,) and (r, m) at one point; (N,), (N, m) and
    (N, r, m) over N points. Jets compare by identity."""

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


def _zero_velocity(i: int | None) -> DegenerateVelocity:
    return DegenerateVelocity("velocity is exactly zero", point=i)


def check_velocity(y: np.ndarray) -> None:
    """Refuse a velocity (n,), or a row of a stack (N, n), of all zeros."""
    # one point in floats, 0.13 us against 1.7 us as a one-row stack; a NaN
    # is nonzero and -0.0 zero, as in numpy
    check_lanes(any(y.tolist()) if y.ndim == 1 else (y != 0.0).any(axis=-1),
                _zero_velocity)


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
    if y.ndim == 1:
        res = _field_pass(f, x, y, n, seed_x)
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
            res = _field_pass(f, x[chunk], y[chunk], n, seed_x)
        except FinvarError as exc:
            if exc.point is not None:
                exc.point += start
            raise
        if not isinstance(res, HyperDual):
            res = HyperDual(res, 0.0, 0.0)
        value[chunk], grad[chunk], hess[chunk] = res.val, res.grad, res.hess
    return Jet2(value[:, 0, 0], grad[:, 0], hess)


def _field_pass(f, x: np.ndarray, y: np.ndarray, n: int, seed_x: bool):
    """The field ``f`` on the seeds of one point or of one chunk of a
    stack: x-seeded, or over the velocity alone with x as lane scalars."""
    if seed_x:
        return f(_seeds(x, 2 * n, 0, n), _seeds(y, 2 * n, n, n))
    res = f(lane_scalars(x), _seeds(y, n, 0, n))
    if isinstance(res, HyperDual) and not (res.grad.all()
                                           and res.hess.all()):
        # x-seeds add signed zeros to every velocity entry, and
        # -0.0 + 0.0 is +0.0: a zero entry takes its sign from a pass
        # with them
        full = f(_seeds(x, 2 * n, 0, n), _seeds(y, 2 * n, n, n))
        res = HyperDual(full.val, full.grad[..., n:], full.hess[..., n:])
    return res
