"""Machine-speed reference for op timings: a small second-order jet kernel.

Scales op times the way ``speed.py`` scales set-up times (see there):

    scaled = measured * REFERENCE_S / kernel time next to the measurement

finvar ops spend their time in hyper-dual jets, Python objects that carry a
value, a gradient array and a Hessian array through numpy arithmetic. When
another tenant competes for the core, that mix slows down differently from
plain interpreter work. Interleaved with finvar ops on a contended machine,
this kernel tracked the ops' slowdown better than the pure-Python kernel of
``speed.py``: the interquartile spread of scaled times of one repeated op
was 7-18% against 8-23%. It reimplements the jet arithmetic here and does
not import finvar, so a change to finvar moves the op and not the kernel.
It imports numpy, so the set-up probe, which times the numpy import, keeps
the standard-library kernel of ``speed.py``.
"""

import math
import time

import numpy as np

# Kernel time on the machine REFERENCE_S of speed.py describes, while it
# was quiet: that value times the ratio of the two kernels' times there,
# 1.32 (median of 6500 interleaved pairs).
REFERENCE_S = 0.61e-3

VARIABLES = 6
_EYE = np.eye(VARIABLES)
_ZERO = np.zeros((VARIABLES, VARIABLES))


class _Jet:
    """Value, gradient and Hessian, with the product rules of a jet."""

    __slots__ = ("val", "grad", "hess")

    def __init__(self, val, grad, hess):
        self.val, self.grad, self.hess = val, grad, hess

    def __add__(self, other):
        return _Jet(self.val + other.val, self.grad + other.grad,
                    self.hess + other.hess)

    def __mul__(self, other):
        cross = np.outer(self.grad, other.grad)
        return _Jet(self.val * other.val,
                    self.val * other.grad + other.val * self.grad,
                    self.val * other.hess + other.val * self.hess
                    + cross + cross.T)

    def scale(self, a):
        return _Jet(a * self.val, a * self.grad, a * self.hess)

    def sqrt(self):
        s = math.sqrt(self.val)
        d1, d2 = 0.5 / s, -0.25 / (self.val * s)
        return _Jet(s, d1 * self.grad,
                    d1 * self.hess + d2 * np.outer(self.grad, self.grad))


def reference_kernel() -> float:
    """Fixed jet work: a chain of products, sums and square roots over six
    seeded variables, about 0.6 ms on a quiet machine."""
    xs = [_Jet(0.1 * (i + 1), _EYE[i], _ZERO) for i in range(VARIABLES)]
    acc = xs[0] * xs[0]
    for _ in range(12):
        for i in range(1, VARIABLES):
            acc = acc + (xs[i] * xs[i - 1]).scale(0.3)
        acc = acc.sqrt()
    return acc.val


def kernel_s() -> float:
    """Seconds one run of the jet kernel takes now."""
    start = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - start
