"""Forward-mode second-order automatic differentiation for small dense problems.

A :class:`HyperDual` carries a value, a gradient over ``m`` seeded variables,
and the full symmetric Hessian in one pass, so every second derivative of a
scalar field is exact to machine precision. This is the substrate for all
metric tensors in the package: fields are written once against generic
scalars and evaluated with plain floats, velocity-seeded numbers, or jointly
position/velocity-seeded numbers, depending on which derivatives are needed.

Dense storage is deliberate: the working range is a handful of variables
(m <= 16), where flat numpy arrays beat any sparsity bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVelocity

# Square-root arguments below this floor correspond to a metric value under
# ~1e-13; differentiating through them yields NaN-contaminated jets, so the
# evaluation is refused instead.
SQRT_FLOOR = 1e-26

_ZERO_HESS: dict[int, np.ndarray] = {}


def _zeros(m: int) -> np.ndarray:
    z = _ZERO_HESS.get(m)
    if z is None:
        z = np.zeros((m, m))
        z.setflags(write=False)
        _ZERO_HESS[m] = z
    return z


class HyperDual:
    """Truncated second-order Taylor number over ``m`` seeded variables.

    Arithmetic never mutates operands, so gradient/Hessian arrays may be
    shared between instances.
    """

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val: float, grad: np.ndarray, hess: np.ndarray):
        self.val = val
        self.grad = grad
        self.hess = hess

    @classmethod
    def constant(cls, value: float, m: int) -> "HyperDual":
        return cls(float(value), np.zeros(m), _zeros(m))

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
            cross = np.outer(self.grad, other.grad)
            return HyperDual(
                self.val * other.val,
                self.val * other.grad + other.val * self.grad,
                self.val * other.hess + other.val * self.hess + cross + cross.T,
            )
        return HyperDual(self.val * other, other * self.grad, other * self.hess)

    __rmul__ = __mul__

    def reciprocal(self) -> "HyperDual":
        inv = 1.0 / self.val
        inv2 = inv * inv
        outer = np.outer(self.grad, self.grad)
        return HyperDual(inv, -inv2 * self.grad,
                         (2.0 * inv2 * inv) * outer - inv2 * self.hess)

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
            return HyperDual.constant(1.0, self.grad.shape[0])
        if p == 1:
            return HyperDual(self.val, self.grad, self.hess)
        if p == 2:
            return self * self
        v = self.val
        d1 = p * v ** (p - 1)
        d2 = p * (p - 1) * v ** (p - 2)
        return HyperDual(v ** p, d1 * self.grad,
                         d1 * self.hess + d2 * np.outer(self.grad, self.grad))

    def sqrt(self) -> "HyperDual":
        v = self.val
        if v <= SQRT_FLOOR:
            raise DegenerateVelocity(
                f"square root argument {v:.3e} at the positivity floor")
        s = math.sqrt(v)
        d1 = 0.5 / s
        d2 = -0.25 / (v * s)
        return HyperDual(s, d1 * self.grad,
                         d1 * self.hess + d2 * np.outer(self.grad, self.grad))


def seed_variables(values, m: int, offset: int = 0) -> list[HyperDual]:
    """Lift ``values`` to hyper-duals seeded as variables offset..offset+len-1."""
    out = []
    for i, v in enumerate(values):
        g = np.zeros(m)
        g[offset + i] = 1.0
        g.setflags(write=False)
        out.append(HyperDual(float(v), g, _zeros(m)))
    return out


def scalar_value(z) -> float:
    """Plain float of a generic scalar (float or HyperDual)."""
    return z.val if isinstance(z, HyperDual) else float(z)


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
    variables."""

    value: float
    grad: np.ndarray
    hess: np.ndarray


def _check_velocity(y) -> None:
    if not any(float(c) != 0.0 for c in y):
        raise DegenerateVelocity("velocity is exactly zero")


def _as_jet(res, m: int) -> Jet2:
    if isinstance(res, HyperDual):
        return Jet2(res.val, res.grad, res.hess)
    return Jet2(float(res), np.zeros(m), np.zeros((m, m)))


def xy_jet2(f, x, y) -> Jet2:
    """One joint pass over (x, y): variables 0..n-1 are x, n..2n-1 are y."""
    _check_velocity(y)
    n = len(y)
    xs = seed_variables(x, 2 * n, offset=0)
    ys = seed_variables(y, 2 * n, offset=n)
    return _as_jet(f(xs, ys), 2 * n)
