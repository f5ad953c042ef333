"""Finsler metric catalog and tensor assembly, at one point or a stack.

A metric is a positively 1-homogeneous field F(x, y) and the region of its
domain, a condition on x, both over generic scalars. The catalog provides:

====================  =======================================================
euclidean(n)          F = |y|
riemannian(a)         F = sqrt(sum_i a_i(x) (y^i)^2) for a named diagonal field
randers(a, beta)      F = sqrt(sum_i a_i(x) (y^i)^2) + beta_i(x) y^i
klein(n)              sqrt(|y|^2 (1-|x|^2) + <x,y>^2) / (1-|x|^2), |x| < 1
funk(n)               (sqrt((1-|x|^2)|y|^2 + <x,y>^2) + <x,y>) / (1-|x|^2)
scaled(base, c)       c * F_base, c > 0
====================  =======================================================

Klein and Funk live on the open unit ball and have straight chords as
geodesic paths, so euclidean/klein/funk are mutually projectively related;
a Randers metric with closed beta (here: beta = df for a named potential) is
projectively related to its underlying Riemannian alpha. Both facts are used
by the verification suites and are themselves re-checked dynamically.

Named matrix fields for ``riemannian``/``randers``, both diagonal, so a
field is its diagonal a_1(x)..a_n(x) and ||beta||_alpha^2 = sum beta_i^2 / a_i:

* ``const_diag``  params [a_1..a_n], constant diag(a_1..a_n), a_i > 0
* ``curved_x1``   diag(1, 1 + (x^1)^2, 1, ...) - curved, not projectively
  flat; the standard negative control

Named 1-form choices for ``randers``:

* potential ``linear``    params c, f(x) = c . x, beta = c (closed)
* potential ``quadratic`` params c, f(x) = sum c_i (x^i)^2 / 2, beta_i = c_i x^i
* covector ``x2_dx1``     beta = (x^2, 0, ..., 0) - not closed; negative control

A descriptor takes only the keys of its kind: ``kind`` and ``dim`` for
euclidean, klein and funk; also ``field`` and ``params`` for riemannian, and
``alpha_field``, ``alpha_params`` and ``beta`` for randers; ``kind``,
``factor`` and ``base`` for scaled. A beta object is ``potential`` with
``params``, or ``covector`` alone. Without ``alpha_params`` a Randers alpha
takes [1.0] * n for ``const_diag`` and no parameters for ``curved_x1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .autodiff import (Jet2, Lanes, check_lanes, check_shapes, check_velocity,
                       floor_error, gdot, gdots, gsqrt, lane, lane_scalars,
                       xy_jet2)
from .errors import ConfigError, DomainError, FinvarError

# Points closer to a domain boundary than this margin are rejected to avoid
# catastrophic cancellation in terms like 1 - |x|^2.
EPS_DOM = 1e-9

# Far above the measured working range (n <= 12; see
# ``integrals.charpoly_coefficients``); bounds what a descriptor can make
# the catalog allocate before anything else is checked.
MAX_DIM = 64

# Bounds how deep ``scaled`` descriptors nest: building the metric and
# echoing its descriptor in a report recurse once per level.
MAX_NESTING = 16


def finite_number(value) -> bool:
    """A JSON number (an int or a float, not a bool) that is finite; an
    integer beyond the float range is not."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_number(value, where: str) -> None:
    """:class:`ConfigError` unless ``value`` is a finite number; values keep
    their type, so reports echo them as written."""
    if not finite_number(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")


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


def check_keys(mapping: dict, allowed: set, where: str) -> None:
    """:class:`ConfigError` unless every key of ``mapping`` is allowed."""
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}; "
                          f"expected a subset of {sorted(allowed)}")


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
        check_shapes(self.x, self.y)
        if self.dim < 2:
            raise ConfigError("dimension must be at least 2")
        check_velocity(self.y)

    def __len__(self) -> int:
        if self.x.ndim != 2:
            raise TypeError("one TangentPoint has no len(); a stack has")
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[-1]


@dataclass(frozen=True)
class FinslerMetric:
    """Evaluatable metric: a field and the region of its domain, both over
    generic scalars: ``region(xs)`` reads a base point's coordinates, Python
    floats or a stack's lanes, and gives a truth value or a lane mask. The
    field checks no domain; :meth:`jet2` is the checked entry to its jet.
    """

    name: str
    dim: int
    evaluator: Callable
    region: Callable
    reversible: bool = True

    def domain(self, x: list | np.ndarray) -> bool | np.ndarray:
        """The region at a point x, (n,) or a list of Python floats, a bool
        from Python floats, or at each row of a stack (N, n), an (N,) mask:
        the same answer either way, NaN, inf and overflow included, with no
        numpy warning."""
        if isinstance(x, list):
            return self.region(x)
        if x.ndim == 1:  # 0.8 us against 5.2-6.3 us as a one-row stack
            return self.region(lane_scalars(x))
        with np.errstate(all="ignore"):
            ok = self.region(lane_scalars(x))
        # a lane mask (N, 1, 1), or a bare bool for every lane
        if isinstance(ok, np.ndarray):
            return ok[:, 0, 0]
        return np.full(len(x), ok)

    def jet2(self, x, y, *, seed_x: bool = True) -> Jet2:
        """:func:`xy_jet2` of the field at x, y of shape (n,), or at the
        rows of stacks of shape (N, n), once the domain holds at every base
        point: one call of :meth:`domain` on the float base points, before
        any pass. Without ``seed_x`` the pass seeds the velocity alone.
        Every failure names the metric, and in a stack the first failing
        point."""
        x = np.asarray(x, dtype=float)
        try:
            check_lanes(self.domain(x), _outside_domain, x)
            return xy_jet2(self.evaluator, x, y, seed_x=seed_x)
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

    def in_domain(self, x: list | np.ndarray) -> bool | np.ndarray:
        """Whether x lies in both domains: a Python bool for one base point,
        (n,) or a list of Python floats, elementwise for a stack (N, n)."""
        return self.base.domain(x) & self.comparison.domain(x)


@dataclass(frozen=True, eq=False)
class MetricJet(Lanes):
    """One metric at one tangent point (x, y), or at N points with the lanes
    on the leading axis of every field (F and det_g of shape (N,)); ``jet[i]``
    is the jet at point i.

    g is the velocity Hessian of F^2 / 2, h = F * (velocity Hessian of F) the
    angular metric, and G the geodesic spray, so the jet carries everything
    the geodesic flow (x', y') = (y, -2G) reads at its point. A jet without
    the spray, from velocity derivatives alone, has G None.
    """

    x: np.ndarray
    y: np.ndarray
    F: float | np.ndarray
    F_y: np.ndarray
    g: np.ndarray
    g_inv: np.ndarray
    h: np.ndarray
    det_g: float | np.ndarray
    G: np.ndarray | None

    @property
    def dim(self) -> int:
        return self.y.shape[-1]


def metric_jet(metric: FinslerMetric, points: TangentPoint, *,
               spray: bool = True) -> MetricJet:
    """Assemble every tensor of ``metric`` from one joint AD pass: the
    one-point :class:`MetricJet` at one point, the stacked jet at a stack.
    Without the spray the pass seeds the velocity alone, and G is None."""
    _check_dim(metric, points)
    return _jet_arrays(metric, points.x, points.y, spray=spray)


def _check_dim(metric: FinslerMetric, points: TangentPoint) -> None:
    """Refuse ``points`` of another dimension than ``metric``'s."""
    if points.dim != metric.dim:
        raise ConfigError(
            f"{metric.name} has dimension {metric.dim}, point has {points.dim}")


# Metric values under this floor are treated as a collapsed velocity; jets
# would be dominated by cancellation noise.
F_FLOOR = 1e-13


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u_i v_j, for one pair of vectors or lane by lane over stacks."""
    return u[..., :, None] * v[..., None, :]


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a v for one matrix and vector, or lane by lane over stacks, with the
    bits of the one-matrix product in every lane."""
    return (a @ v[..., None])[..., 0]


def _jet_arrays(metric: FinslerMetric, x: np.ndarray, y: np.ndarray, *,
                spray: bool = True) -> MetricJet:
    """The :class:`MetricJet` at one point (x, y of shape (n,)), or the
    stacked jet at the rows of stacks x, y of shape (N, n), from one
    :func:`_jet_pass`; without the spray, G is None."""
    n = x.shape[-1]
    F, grad, FH, S, g_inv, det_g = _jet_pass(metric, x, y, spray=spray)
    G = _spray(y, F, grad, S, g_inv) if spray else None
    return MetricJet(x=x, y=y, F=F, F_y=grad[..., -n:].copy(), g=S[..., -n:],
                     g_inv=g_inv, h=FH[..., -n:], det_g=det_g, G=G)


def _spray_at(metric: FinslerMetric, x: np.ndarray, y: np.ndarray
             ) -> np.ndarray:
    """The spray G of ``metric`` at one point (x, y of shape (n,)), or at
    the rows of stacks, with the bits of :func:`_jet_arrays`'s G and its
    checks and errors, without assembling the other tensors of the jet."""
    F, grad, _, S, g_inv, _ = _jet_pass(metric, x, y)
    return _spray(y, F, grad, S, g_inv)


def _jet_pass(metric: FinslerMetric, x: np.ndarray, y: np.ndarray, *,
              spray: bool = True):
    """One joint AD pass of ``metric`` at (x, y), one point or the rows of
    stacks, certified, and the blocks every jet part is read from:
    ``(F, grad, FH, S, g_inv, det_g)``.

    Two products give every second-derivative block: FH = F [F_yx | F_yy]
    holds h = FH[..., n:], and S = F_y (x) [F_x | F_y] + FH holds
    g = S[..., n:] and d^2F^2/dy dx = 2 S[..., :n], and F_y is
    grad[..., -n:]. Without the spray the pass seeds y alone: grad is F_y
    and the rows are F_yy, so FH = h and S = g whole.

    Every failure names the metric, and in a stack the first failing point.
    """
    n = x.shape[-1]
    try:
        jet: Jet2 = metric.jet2(x, y, seed_x=spray)
        F = jet.value
        # NaN and +-inf fail too, in either layout
        check_lanes((F >= F_FLOOR) & (F < math.inf), _below_floor, F)
        # F against matrices in either layout, with the lanes last
        FH = (jet.hess.T * F).T
        S = _outer(jet.grad[..., -n:], jet.grad) + FH
        g_inv, det_g = linalg.inverse(S[..., -n:])
    except FinvarError as exc:
        if exc.metric is None:
            exc.metric = metric.name
        raise
    return F, jet.grad, FH, S, g_inv, det_g


def _outside_domain(i: int | None, x: np.ndarray) -> DomainError:
    return DomainError(f"base point {lane(x, i)} outside domain", point=i)


def _below_floor(i: int | None, F) -> FinvarError:
    return floor_error("value {}", lane(F, i), i, "below the positivity floor")


def _spray(y: np.ndarray, F, grad: np.ndarray, S: np.ndarray,
           g_inv: np.ndarray) -> np.ndarray:
    """The spray from the blocks of an x-seeded :func:`_jet_pass`, which
    solves the Euler-Lagrange condition for F^2:

        G^i = 1/4 g^{il} ( y^k d^2F^2/dy^l dx^k - dF^2/dx^l )
    """
    n = y.shape[-1]
    F2_yx = 2.0 * S[..., :n]
    F2_x = (grad[..., :n].T * (2.0 * F)).T
    return 0.25 * _matvec(g_inv, _matvec(F2_yx, y) - F2_x)


# -- catalog ---------------------------------------------------------------


def _all_space(xs):
    return True


def _unit_ball(xs):
    return gdot(xs, xs) < (1.0 - EPS_DOM) ** 2


def _euclidean_field(xs, ys):
    return gsqrt(gdot(ys, ys))


def _klein_field(xs, ys):
    xx, yy, xy = gdots((xs, xs), (ys, ys), (xs, ys))
    w = 1.0 - xx
    return gsqrt(yy * w + xy * xy) / w


def _funk_field(xs, ys):
    xx, yy, xy = gdots((xs, xs), (ys, ys), (xs, ys))
    w = 1.0 - xx
    return (gsqrt(yy * w + xy * xy) + xy) / w


def _diagonal_field(name: str, params, n: int) -> Callable:
    """The diagonal a_1(x)..a_n(x) of a named matrix field."""
    if name == "const_diag":
        diag = finite_vector(params, "const_diag params", n)
        if any(v <= 0.0 for v in diag):
            raise ConfigError("const_diag entries must be positive")
        return lambda xs: diag
    if name == "curved_x1":
        if params:
            raise ConfigError("curved_x1 takes no parameters")
        return lambda xs: [1.0, 1.0 + xs[0] * xs[0]] + [1.0] * (n - 2)
    raise ConfigError(f"unknown matrix field '{name}'")


def _alpha(diag_field: Callable) -> Callable:
    """alpha = sqrt(sum_i y^i (a_i y^i)) of a diagonal field."""
    def alpha(xs, ys):
        return gsqrt(gdot(ys, [a * y for a, y in zip(diag_field(xs), ys)]))

    return alpha


def _beta_field(beta_desc: dict, n: int) -> Callable:
    """Covector field of a Randers metric."""
    if not isinstance(beta_desc, dict):
        raise ConfigError(f"randers beta must be an object, got {beta_desc!r}")
    if "potential" in beta_desc:
        check_keys(beta_desc, {"potential", "params"}, "randers beta")
        pot = beta_desc["potential"]
        params = finite_vector(beta_desc.get("params", []),
                               f"potential '{pot}' params", n)
        if pot == "linear":
            return lambda xs: list(params)
        if pot == "quadratic":
            return lambda xs: [params[i] * xs[i] for i in range(n)]
        raise ConfigError(f"unknown potential '{pot}'")
    if "covector" in beta_desc:
        check_keys(beta_desc, {"covector"}, "randers beta")
        cov = beta_desc["covector"]
        if cov == "x2_dx1":
            if n < 2:
                raise ConfigError("x2_dx1 needs dimension >= 2")
            return lambda xs: [xs[1]] + [0.0] * (n - 1)
        raise ConfigError(f"unknown covector field '{cov}'")
    raise ConfigError("randers beta needs a 'potential' or 'covector' entry")


def _field_name(field: str, params) -> str:
    """A named field, with the params its descriptor gives, if any."""
    return field if params is None else f"{field} {params}"


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
    where = f"metric descriptor of kind {kind!r}"
    plain = {"kind", "dim"}

    if kind == "euclidean":
        check_keys(desc, plain, where)
        n = _require_dim(desc)
        return FinslerMetric("euclidean", n, _euclidean_field, _all_space)
    if kind == "klein":
        check_keys(desc, plain, where)
        n = _require_dim(desc)
        return FinslerMetric("klein", n, _klein_field, _unit_ball)
    if kind == "funk":
        check_keys(desc, plain, where)
        n = _require_dim(desc)
        return FinslerMetric("funk", n, _funk_field, _unit_ball,
                             reversible=False)
    if kind == "riemannian":
        check_keys(desc, plain | {"field", "params"}, where)
        n = _require_dim(desc)
        field = desc.get("field", "const_diag")
        params = desc.get("params")
        alpha = _alpha(_diagonal_field(field, params, n))
        return FinslerMetric(f"riemannian[{_field_name(field, params)}]", n,
                             alpha, _all_space)
    if kind == "randers":
        check_keys(desc, plain | {"alpha_field", "alpha_params", "beta"},
                   where)
        n = _require_dim(desc)
        a_name = desc.get("alpha_field", "const_diag")
        a_params = desc.get("alpha_params",
                            [] if a_name == "curved_x1" else [1.0] * n)
        a_field = _diagonal_field(a_name, a_params, n)
        beta = _beta_field(desc.get("beta", {}), n)

        def beta_norm2(xs):
            # ||beta||_alpha^2, nan (outside) at some non-finite coordinates
            b = beta(xs)
            return gdot(b, [v / a for v, a in zip(b, a_field(xs))])

        # the origin, then +-0.5 e_i for each i
        probes = np.zeros((2 * n + 1, n))
        probes[1::2] = 0.5 * np.eye(n)
        probes[2::2] = -probes[1::2]
        for probe in probes:
            if beta_norm2(lane_scalars(probe)) >= 1.0:
                raise ConfigError(f"randers: ||beta||_alpha >= 1 at probe "
                                  f"point {probe}")

        alpha = _alpha(a_field)

        def randers_region(xs):
            return beta_norm2(xs) < (1.0 - EPS_DOM) ** 2

        def randers_eval(xs, ys):
            return alpha(xs, ys) + gdot(beta(xs), ys)

        name = (f"randers[{_field_name(a_name, desc.get('alpha_params'))}, "
                f"{desc.get('beta')}]")
        return FinslerMetric(name, n, randers_eval, randers_region,
                             reversible=False)
    if kind == "scaled":
        check_keys(desc, {"kind", "factor", "base"}, where)
        factor = desc.get("factor")
        if not (finite_number(factor) and factor > 0):
            raise ConfigError(
                f"scaled needs a finite factor > 0, got {factor!r}")
        inner, depth = desc, 0
        while isinstance(inner, dict) and inner.get("kind") == "scaled":
            depth += 1
            if depth > MAX_NESTING:
                raise ConfigError(f"scaled descriptors nest more than "
                                  f"{MAX_NESTING} deep")
            inner = inner.get("base")
        base = catalog_metric(desc.get("base", {}))
        c = float(factor)

        def scaled_eval(xs, ys, _base=base.evaluator, _c=c):
            return _c * _base(xs, ys)

        return FinslerMetric(f"scaled[{c}]{base.name}", base.dim, scaled_eval,
                             base.region, reversible=base.reversible)
    raise ConfigError(f"unknown metric kind '{kind}'")
