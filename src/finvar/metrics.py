"""Finsler metric catalog and tensor assembly, at one point or a stack.

A metric is an evaluatable positively 1-homogeneous field F(x, y) together
with a domain predicate on the base point. The catalog provides:

====================  =======================================================
euclidean(n)          F = |y|
riemannian(A)         F = sqrt(y^T A(x) y) for a named matrix field A
randers(A, beta)      F = sqrt(y^T A(x) y) + beta_i(x) y^i
klein(n)              sqrt(|y|^2 (1-|x|^2) + <x,y>^2) / (1-|x|^2), |x| < 1
funk(n)               (sqrt((1-|x|^2)|y|^2 + <x,y>^2) + <x,y>) / (1-|x|^2)
scaled(base, c)       c * F_base, c > 0
====================  =======================================================

Klein and Funk live on the open unit ball and have straight chords as
geodesic paths, so euclidean/klein/funk are mutually projectively related;
a Randers metric with closed beta (here: beta = df for a named potential) is
projectively related to its underlying Riemannian alpha. Both facts are used
by the verification suites and are themselves re-checked dynamically.

Named matrix fields for ``riemannian``/``randers``:

* ``const_diag``  params [a_1..a_n], constant diag(a_1..a_n), a_i > 0
* ``curved_x1``   diag(1, 1 + (x^1)^2, 1, ...) - curved, not projectively
  flat; the standard negative control

Named 1-form choices for ``randers``:

* potential ``linear``    params c, f(x) = c . x, beta = c (closed)
* potential ``quadratic`` params c, f(x) = sum c_i (x^i)^2 / 2, beta_i = c_i x^i
* covector ``x2_dx1``     beta = (x^2, 0, ..., 0) - not closed; negative control
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .autodiff import (Jet2, Lanes, check_lanes, gdot, gsqrt, lane,
                       lane_values, xy_jet2)
from .errors import ConfigError, DegenerateVelocity, DomainError, FinvarError

# Points closer to a domain boundary than this margin are rejected to avoid
# catastrophic cancellation in terms like 1 - |x|^2.
EPS_DOM = 1e-9

# Far above the working range (n <= 8); bounds what a descriptor can make
# the catalog allocate before anything else is checked.
MAX_DIM = 64


def finite_number(value) -> bool:
    """A JSON number (an int or a float, not a bool) that is finite; an
    integer beyond the float range is not."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def finite_vector(values, where: str, n: int | None = None) -> list[float]:
    """``values`` as floats, when it is a list of finite numbers (of length
    ``n`` if given); :class:`ConfigError` otherwise."""
    if not (isinstance(values, (list, tuple))
            and all(finite_number(v) for v in values)):
        raise ConfigError(
            f"{where} must be a list of finite numbers, got {values!r}")
    if n is not None and len(values) != n:
        raise ConfigError(f"{where} needs {n} entries, got {len(values)}")
    return [float(v) for v in values]


@dataclass(frozen=True, eq=False)
class TangentPoint(Lanes):
    """Base point and nonzero velocity, the locus of every evaluation: x and
    y of shape (n,) at one point, or (N, n) for N >= 1 points stacked on the
    leading axis. ``points[i]`` is point i of a stack, and ``len(points)``
    is N."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if (self.x.shape != self.y.shape or self.x.ndim not in (1, 2)
                or not self.x.size):
            raise ConfigError(
                f"x and y must be vectors, or non-empty stacks of them, of "
                f"equal shape, got {self.x.shape} and {self.y.shape}")
        if self.dim < 2:
            raise ConfigError("dimension must be at least 2")
        check_lanes(np.any(self.y != 0.0, axis=-1), lambda i: (
            DegenerateVelocity("velocity is exactly zero", point=i)))

    def __len__(self) -> int:
        if self.x.ndim != 2:
            raise TypeError("one TangentPoint has no len(); a stack has")
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[-1]


@dataclass(frozen=True)
class FinslerMetric:
    """Evaluatable metric: closed-form field plus domain predicate.

    Calling the metric with generic scalars (floats or hyper-duals) first
    checks the domain of the underlying float base point, so every
    differentiation pass enforces the same boundary. The predicate takes a
    base point of shape (n,) and returns a bool, or a stack of shape (N, n)
    and returns a mask over its rows; both forms run the same arithmetic,
    so a point gets the same answer alone and in a stack.
    """

    name: str
    dim: int
    evaluator: Callable
    domain: Callable[[np.ndarray], bool]
    reversible: bool = True
    matrix_field: Callable | None = None

    def __call__(self, xs, ys):
        x = lane_values(xs)
        check_lanes(self.domain(x), lambda i: DomainError(
            f"base point {lane(x, i)} outside domain", metric=self.name,
            point=i))
        try:
            return self.evaluator(xs, ys)
        except FinvarError as exc:
            if exc.metric is None:
                exc.metric = self.name
            raise


@dataclass(frozen=True)
class ProjectivePair:
    """Ordered pair (F, F~): geodesics of ``base`` carry the verification."""

    base: FinslerMetric
    comparison: FinslerMetric

    def __post_init__(self):
        if self.base.dim != self.comparison.dim:
            raise ConfigError(
                f"pair dimensions differ: {self.base.dim} vs "
                f"{self.comparison.dim}")

    @property
    def dim(self) -> int:
        return self.base.dim

    def in_domain(self, x: np.ndarray) -> bool | np.ndarray:
        """Whether x lies in both domains: a bool for one base point (n,),
        elementwise for a stack (N, n)."""
        return self.base.domain(x) & self.comparison.domain(x)


@dataclass(frozen=True, eq=False)
class MetricJet(Lanes):
    """All derivative data of one metric at one tangent point, or at N
    points with the lanes on the leading axis of every field (F and det_g
    of shape (N,)); ``jet[i]`` is the jet at point i.

    g is the velocity Hessian of F^2 / 2, h = F * (velocity Hessian of F) the
    angular metric, and the F2_* blocks are the x-derivatives of F^2 needed
    by the geodesic spray.
    """

    F: float | np.ndarray
    F_y: np.ndarray
    F_x: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    h: np.ndarray
    det_g: float | np.ndarray
    F2_yx: np.ndarray
    F2_x: np.ndarray

    @property
    def dim(self) -> int:
        return self.F_y.shape[-1]


def metric_jet(metric: FinslerMetric, points: TangentPoint) -> MetricJet:
    """Assemble every tensor of ``metric`` from one joint AD pass: the
    one-point :class:`MetricJet` at one point, the stacked jet at a stack."""
    if points.dim != metric.dim:
        raise ConfigError(
            f"{metric.name} has dimension {metric.dim}, point has {points.dim}")
    return _jet_arrays(metric, points.x, points.y)


# Metric values under this floor are treated as a collapsed velocity; jets
# would be dominated by cancellation noise.
F_FLOOR = 1e-13


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_i v_j, for one pair of vectors or lane by lane over stacks."""
    return u[..., :, None] * v[..., None, :]


def _jet_arrays(metric: FinslerMetric, x: np.ndarray,
                y: np.ndarray) -> MetricJet:
    """The :class:`MetricJet` at one point (x, y of shape (n,)), or the
    stacked jet at the rows of stacks x, y of shape (N, n).

    Every failure names the metric, and in a stack the first failing point.
    """
    n = x.shape[-1]
    try:
        jet: Jet2 = xy_jet2(metric, x, y)
        F = jet.value
        check_lanes(np.isfinite(F) & (F >= F_FLOOR), lambda i: (
            DegenerateVelocity(f"value {lane(F, i)} below the positivity "
                               f"floor", point=i)))
        F_x = jet.grad[..., :n]
        F_y = jet.grad[..., n:]
        F_yy = jet.hess[..., :, n:]
        F_yx = jet.hess[..., :, :n]
        # F against vectors and against matrices, in either layout
        F_v = np.asarray(F)[..., None]
        F_m = F_v[..., None]
        h = F_m * F_yy
        g = h + _outer(F_y, F_y)
        g_inv, det_g = linalg.inverse(g)
    except FinvarError as exc:
        if exc.metric is None:
            exc.metric = metric.name
        raise
    F2_yx = 2.0 * (_outer(F_y, F_x) + F_m * F_yx)
    F2_x = 2.0 * F_v * F_x
    return MetricJet(F=F, F_y=F_y.copy(), F_x=F_x.copy(), g=g, g_inv=g_inv,
                     h=h, det_g=det_g, F2_yx=F2_yx, F2_x=F2_x)


# -- catalog ---------------------------------------------------------------


def _all_space(_x: np.ndarray) -> bool:
    return True


def _unit_ball(x: np.ndarray):
    xt = x.T
    return gdot(xt, xt) < (1.0 - EPS_DOM) ** 2


def _euclidean_field(xs, ys):
    return gsqrt(gdot(ys, ys))


def _klein_field(xs, ys):
    xx = gdot(xs, xs)
    yy = gdot(ys, ys)
    xy = gdot(xs, ys)
    w = 1.0 - xx
    return gsqrt(yy * w + xy * xy) / w


def _funk_field(xs, ys):
    xx = gdot(xs, xs)
    yy = gdot(ys, ys)
    xy = gdot(xs, ys)
    w = 1.0 - xx
    return (gsqrt(yy * w + xy * xy) + xy) / w


def _quadratic_form(a_rows, ys):
    acc = None
    for i, row in enumerate(a_rows):
        term = ys[i] * gdot(row, ys)
        acc = term if acc is None else acc + term
    return acc


def _matrix_field(name: str, params, n: int) -> Callable:
    if name == "const_diag":
        diag = finite_vector(params, "const_diag params", n)
        if any(v <= 0.0 for v in diag):
            raise ConfigError("const_diag entries must be positive")
        rows = [[diag[i] if i == j else 0.0 for j in range(n)]
                for i in range(n)]

        def const_field(xs):
            return rows

        return const_field
    if name == "curved_x1":
        if params:
            raise ConfigError("curved_x1 takes no parameters")

        def curved_field(xs):
            rows = [[1.0 if i == j else 0.0 for j in range(n)]
                    for i in range(n)]
            rows[1][1] = 1.0 + xs[0] * xs[0]
            return rows

        return curved_field
    raise ConfigError(f"unknown matrix field '{name}'")


def _beta_field(beta_desc: dict, n: int) -> Callable:
    """Covector field of a Randers metric."""
    if not isinstance(beta_desc, dict):
        raise ConfigError(f"randers beta must be an object, got {beta_desc!r}")
    if "potential" in beta_desc:
        pot = beta_desc["potential"]
        params = finite_vector(beta_desc.get("params", []),
                               f"potential '{pot}' params", n)
        if pot == "linear":
            return lambda xs: list(params)
        if pot == "quadratic":
            return lambda xs: [params[i] * xs[i] for i in range(n)]
        raise ConfigError(f"unknown potential '{pot}'")
    if "covector" in beta_desc:
        cov = beta_desc["covector"]
        if cov == "x2_dx1":
            if n < 2:
                raise ConfigError("x2_dx1 needs dimension >= 2")
            return lambda xs: [xs[1]] + [0.0] * (n - 1)
        raise ConfigError(f"unknown covector field '{cov}'")
    raise ConfigError("randers beta needs a 'potential' or 'covector' entry")


def _randers_beta_norm2(a_field, beta, x: np.ndarray):
    """||beta||_alpha^2 at a base point of shape (n,), or at each row of a
    stack of shape (N, n) through one batched solve."""
    n = x.shape[-1]
    coords = list(x.T)
    a = np.empty(x.shape[:-1] + (n, n))
    b = np.empty(x.shape)
    for i, row in enumerate(a_field(coords)):
        for j, v in enumerate(row):
            a[..., i, j] = v
    for i, v in enumerate(beta(coords)):
        b[..., i] = v
    # catalog alpha fields are diagonal, with entries positive or non-finite,
    # so the solve never meets a singular matrix
    sol = np.linalg.solve(a, b[..., None])[..., 0]
    return gdot(b.T, sol.T)


def _require_dim(desc: dict) -> int:
    n = desc.get("dim")
    if not isinstance(n, int) or not 2 <= n <= MAX_DIM:
        raise ConfigError(f"descriptor needs integer 'dim' in "
                          f"2..{MAX_DIM}, got {n!r}")
    return n


def catalog_metric(desc: dict) -> FinslerMetric:
    """Build a catalog metric from a descriptor dictionary.

    Raises :class:`ConfigError` for unknown kinds, invalid parameters, or a
    Randers form with ||beta||_alpha >= 1 at a probe point.
    """
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError(f"metric descriptor needs a 'kind': {desc!r}")
    kind = desc["kind"]

    if kind == "euclidean":
        n = _require_dim(desc)
        return FinslerMetric("euclidean", n, _euclidean_field, _all_space)
    if kind == "klein":
        n = _require_dim(desc)
        return FinslerMetric("klein", n, _klein_field, _unit_ball)
    if kind == "funk":
        n = _require_dim(desc)
        return FinslerMetric("funk", n, _funk_field, _unit_ball,
                             reversible=False)
    if kind == "riemannian":
        n = _require_dim(desc)
        a_field = _matrix_field(desc.get("field", "const_diag"),
                                desc.get("params"), n)

        def riemann_eval(xs, ys, _a=a_field):
            return gsqrt(_quadratic_form(_a(xs), ys))

        return FinslerMetric(f"riemannian[{desc.get('field')}]", n,
                             riemann_eval, _all_space, matrix_field=a_field)
    if kind == "randers":
        n = _require_dim(desc)
        a_field = _matrix_field(desc.get("alpha_field", "const_diag"),
                                desc.get("alpha_params", [1.0] * n), n)
        beta = _beta_field(desc.get("beta", {}), n)
        probes = [np.zeros(n)]
        for i in range(n):
            e = np.zeros(n)
            e[i] = 0.5
            probes.extend([e, -e])
        for x in probes:
            if _randers_beta_norm2(a_field, beta, x) >= 1.0:
                raise ConfigError(
                    f"randers: ||beta||_alpha >= 1 at probe point {x}")

        def randers_domain(x, _a=a_field, _b=beta):
            return _randers_beta_norm2(_a, _b, x) < (1.0 - EPS_DOM) ** 2

        def randers_eval(xs, ys, _a=a_field, _b=beta):
            return gsqrt(_quadratic_form(_a(xs), ys)) + gdot(_b(xs), ys)

        return FinslerMetric(f"randers[{desc.get('beta')}]", n, randers_eval,
                             randers_domain, reversible=False,
                             matrix_field=a_field)
    if kind == "scaled":
        factor = desc.get("factor")
        if not (finite_number(factor) and factor > 0):
            raise ConfigError(
                f"scaled needs a finite factor > 0, got {factor!r}")
        base = catalog_metric(desc.get("base", {}))
        c = float(factor)

        def scaled_eval(xs, ys, _base=base.evaluator, _c=c):
            return _c * _base(xs, ys)

        return FinslerMetric(f"scaled[{c}]{base.name}", base.dim, scaled_eval,
                             base.domain, reversible=base.reversible,
                             matrix_field=base.matrix_field)
    raise ConfigError(f"unknown metric kind '{kind}'")
