"""Forward-mode second-order automatic differentiation over lanes of points.

A :class:`HyperDual` carries a value, a gradient over ``m`` seeded variables,
and the full symmetric Hessian in one pass, so every second derivative of a
scalar field is exact to machine precision. This is the substrate for all
metric tensors in the package: fields are written once against generic
scalars and evaluated with plain floats or with hyper-duals.

One class and one arithmetic code path serve two lane layouts:

* **one point:** ``val`` is a Python float, ``grad`` has shape (1, m) and
  ``hess`` (m, m);
* **N points:** ``val`` has shape (N, 1, 1), ``grad`` (N, 1, m) and ``hess``
  (N, m, m), one lane per point.

Products of gradients are formed as ``grad.swapaxes(-1, -2) * other.grad``,
which broadcasts to the (m, m) outer product in either layout; every other
operation is elementwise. So lane k of a stacked pass performs exactly the
floating-point operations of a one-point pass at point k, and the two agree
bitwise. Evaluating N points at once, the structure-of-arrays form of
vectorized forward-mode Taylor arithmetic (Griewank & Walther, *Evaluating
Derivatives*, 2nd ed., ch. 13), replaces N interpreted passes by one.

:func:`xy_jet2` takes a base point and a velocity of shape (n,), or stacks of
them of shape (N, n). A stack is evaluated ``LANES`` points at a time, so the
memory of the intermediate hyper-duals does not grow with the number of
points. Dense storage is deliberate: the working range is a handful of
variables (m <= 16), where flat numpy arrays beat any sparsity bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVelocity, FinvarError

# Square-root arguments below this floor correspond to a metric value under
# ~1e-13; differentiating through them yields NaN-contaminated jets, so the
# evaluation is refused instead.
SQRT_FLOOR = 1e-26

# Points per chunk of a stacked pass: bounds the size of every intermediate
# hyper-dual, whatever the number of points.
LANES = 64

_ZERO_HESS: dict[int, np.ndarray] = {}


def _zeros(m: int) -> np.ndarray:
    z = _ZERO_HESS.get(m)
    if z is None:
        z = np.zeros((m, m))
        z.setflags(write=False)
        _ZERO_HESS[m] = z
    return z


# -- lanes --------------------------------------------------------------------


def lane(a, i: int | None):
    """Lane ``i`` of a stacked array; the array itself for one point."""
    return a if i is None else a[i]


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

    @classmethod
    def constant(cls, value: float, m: int) -> "HyperDual":
        """A one-point constant; it broadcasts against stacked lanes."""
        return cls(float(value), np.zeros((1, m)), _zeros(m))

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

    def _outer(self, other: "HyperDual") -> np.ndarray:
        """grad_i * other.grad_j, in either lane layout."""
        return self.grad.swapaxes(-1, -2) * other.grad

    def __mul__(self, other):
        if isinstance(other, HyperDual):
            cross = self._outer(other)
            return HyperDual(
                self.val * other.val,
                self.val * other.grad + other.val * self.grad,
                self.val * other.hess + other.val * self.hess + cross
                + cross.swapaxes(-1, -2),
            )
        return HyperDual(self.val * other, other * self.grad, other * self.hess)

    __rmul__ = __mul__

    def reciprocal(self) -> "HyperDual":
        inv = 1.0 / self.val
        inv2 = inv * inv
        return HyperDual(inv, -inv2 * self.grad,
                         (2.0 * inv2 * inv) * self._outer(self)
                         - inv2 * self.hess)

    def __truediv__(self, other):
        if isinstance(other, HyperDual):
            return self * other.reciprocal()
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            return NotImplemented
        if p == 0:
            return HyperDual.constant(1.0, self.grad.shape[-1])
        if p == 1:
            return HyperDual(self.val, self.grad, self.hess)
        if p == 2:
            return self * self
        v = self.val
        d1 = p * v ** (p - 1)
        d2 = p * (p - 1) * v ** (p - 2)
        return HyperDual(v ** p, d1 * self.grad,
                         d1 * self.hess + d2 * self._outer(self))

    def sqrt(self) -> "HyperDual":
        v = self.val
        # NaN fails too, as it cannot be certified above the floor
        check_lanes(v > SQRT_FLOOR, lambda i: DegenerateVelocity(
            f"square root argument {np.ravel(v)[i or 0]:.3e} at the "
            f"positivity floor", point=i))
        s = np.sqrt(v) if isinstance(v, np.ndarray) else math.sqrt(v)
        d1 = 0.5 / s
        d2 = -0.25 / (v * s)
        return HyperDual(s, d1 * self.grad,
                         d1 * self.hess + d2 * self._outer(self))


def seed_variables(values, m: int, offset: int = 0) -> list[HyperDual]:
    """Lift ``values`` to hyper-duals seeded as variables offset..offset+k-1.

    ``values`` of shape (k,) gives one-point hyper-duals; a stack of shape
    (N, k) gives hyper-duals over N lanes.
    """
    values = np.asarray(values, dtype=float)
    out = []
    for i in range(values.shape[-1]):
        g = np.zeros((1, m))
        g[0, offset + i] = 1.0
        g.setflags(write=False)
        if values.ndim == 1:
            out.append(HyperDual(float(values[i]), g, _zeros(m)))
        else:
            lanes = values.shape[0]
            out.append(HyperDual(values[:, i, None, None],
                                 np.broadcast_to(g, (lanes, 1, m)),
                                 np.broadcast_to(_zeros(m), (lanes, m, m))))
    return out


def scalar_value(z):
    """Value of a generic scalar: a float, or the lane values of a stacked
    hyper-dual."""
    return z.val if isinstance(z, HyperDual) else float(z)


def lane_values(zs) -> np.ndarray:
    """Values of a sequence of generic scalars: shape (n,) for one point,
    (N, n) for hyper-duals over N lanes."""
    vals = [scalar_value(z) for z in zs]
    if any(isinstance(v, np.ndarray) for v in vals):
        lanes = np.broadcast_arrays(*vals)
        return np.concatenate([v.reshape(-1, 1) for v in lanes], axis=1)
    return np.array(vals)


def gsqrt(z):
    """Square root of a generic scalar, guarded near zero."""
    if isinstance(z, HyperDual):
        return z.sqrt()
    if z <= SQRT_FLOOR:
        raise DegenerateVelocity(
            f"square root argument {z:.3e} at the positivity floor")
    if isinstance(z, np.longdouble):
        return np.sqrt(z)
    return math.sqrt(z)


def gdot(u, v):
    """Inner product of two sequences of generic scalars."""
    acc = u[0] * v[0]
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b
    return acc


# -- field evaluation -------------------------------------------------------


@dataclass(frozen=True)
class Jet2:
    """Value, gradient, and symmetric Hessian of a scalar field in the seeded
    variables: a float, (m,) and (m, m) at one point; (N,), (N, m) and
    (N, m, m) over N points."""

    value: float | np.ndarray
    grad: np.ndarray
    hess: np.ndarray


def _check_velocity(y: np.ndarray) -> None:
    check_lanes(np.any(y != 0.0, axis=-1), lambda i: DegenerateVelocity(
        "velocity is exactly zero", point=i))


def xy_jet2(f, x, y) -> Jet2:
    """One joint pass over (x, y): variables 0..n-1 are x, n..2n-1 are y.

    ``x`` and ``y`` of shape (n,) give the jet at one point; stacks of shape
    (N, n) give the jets at N points, evaluated ``LANES`` at a time. An
    error from a stack names the index of its first failing point.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_velocity(y)
    n = y.shape[-1]
    m = 2 * n
    if y.ndim == 1:
        res = f(seed_variables(x, m), seed_variables(y, m, offset=n))
        if isinstance(res, HyperDual):
            return Jet2(res.val, res.grad[0], res.hess)
        return Jet2(float(res), np.zeros(m), np.zeros((m, m)))
    count = y.shape[0]
    value = np.empty((count, 1, 1))
    grad = np.empty((count, 1, m))
    hess = np.empty((count, m, m))
    for start in range(0, count, LANES):
        chunk = slice(start, start + LANES)
        try:
            res = f(seed_variables(x[chunk], m),
                    seed_variables(y[chunk], m, offset=n))
        except FinvarError as exc:
            if exc.point is not None:
                exc.point += start
            raise
        if not isinstance(res, HyperDual):
            res = HyperDual(res, 0.0, 0.0)
        value[chunk], grad[chunk], hess[chunk] = res.val, res.grad, res.hess
    return Jet2(value[:, 0, 0], grad[:, 0], hess)
