"""Geodesic spray, geodesic integration, and the projective-equivalence test.

The spray coefficients solve the Euler-Lagrange condition for F^2:

    G^i = 1/4 g^{il} ( y^k d^2F^2/dy^l dx^k - dF^2/dx^l )

and the geodesic flow is the first-order system (x', y') = (y, -2G).
Two integrators are provided: classical fixed-step RK4 and the adaptive
Runge-Kutta-Fehlberg 4(5) pair, which propagates the fifth-order solution
(local extrapolation) and uses the classical embedded error estimate for
step control. Conservation checks need integration error far below the
first-integral drift tolerance, hence the tight default tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .autodiff import check_lanes, xy_jet2
from .errors import (ConfigError, DomainError, IntegratorStall,
                     NonFiniteResult, NonReversibleBackward)
from .metrics import (FinslerMetric, MetricJet, ProjectivePair,
                      TangentPoint, _jet_arrays, metric_jet)

# Step size floor for the adaptive integrator.
H_MIN = 1e-12

# Names accepted by integrate_geodesic's ``method``.
INTEGRATORS = ("rk4", "rkf45")


def _spray_vector(jet: MetricJet, y: np.ndarray) -> np.ndarray:
    return 0.25 * (jet.g_inv @ (jet.F2_yx @ y - jet.F2_x))


def _flow(jet: MetricJet, y: np.ndarray) -> np.ndarray:
    return np.concatenate((y, -2.0 * _spray_vector(jet, y)))


def spray_coefficients(metric: FinslerMetric, p: TangentPoint) -> np.ndarray:
    """G^i of ``metric`` at ``p``; 2+-homogeneous in the velocity."""
    return _spray_vector(metric_jet(metric, p), p.y)


def geodesic_rhs(metric: FinslerMetric, p: TangentPoint) -> np.ndarray:
    """Concatenated (x', y') = (y, -2G) at ``p``."""
    return _flow(metric_jet(metric, p), p.y)


@dataclass(frozen=True)
class GeodesicTrajectory:
    """Accepted integration samples of one geodesic.

    ``jets`` holds the jet of the integrated ``metric`` at each sample.
    ``domain_exit`` is set when the trajectory was truncated at the last
    fully in-domain accepted step instead of reaching the requested time.
    """

    times: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    step_size: float | None
    integrator_name: str
    metric: FinslerMetric = field(repr=False)
    jets: tuple[MetricJet, ...] = field(repr=False)
    domain_exit: bool = False
    n_accepted: int = 0
    n_rejected: int = 0

    def __post_init__(self):
        dt = np.diff(self.times)
        if dt.size and not np.all(dt > 0):
            raise ConfigError("trajectory times must be strictly increasing")
        if len(self.jets) != len(self.times):
            raise ConfigError(f"{len(self.jets)} jets for {len(self.times)} "
                              f"trajectory samples")

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def states(self) -> list[TangentPoint]:
        return [TangentPoint(x, y) for x, y in zip(self.xs, self.ys)]

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def within(self, domain: Callable[[np.ndarray], bool]
               ) -> "GeodesicTrajectory":
        """The samples before the first base point outside ``domain``, with
        ``domain_exit`` set; the trajectory itself when no sample is outside.

        The first sample is always kept. The step counters still describe
        the whole integration.
        """
        for k in range(1, len(self)):
            if not domain(self.xs[k]):
                return replace(self, times=self.times[:k], xs=self.xs[:k],
                               ys=self.ys[:k], jets=self.jets[:k],
                               domain_exit=True)
        return self


def _state_jet(metric: FinslerMetric, z: np.ndarray) -> MetricJet:
    """Jet of ``metric`` at the state z = (x, y)."""
    n = metric.dim
    return _jet_arrays(metric, z[:n], z[n:])


def _make_rhs(metric: FinslerMetric):
    n = metric.dim

    def rhs(z: np.ndarray) -> np.ndarray:
        return _flow(_state_jet(metric, z), z[n:])

    return rhs


def _state_ok(metric: FinslerMetric, z: np.ndarray) -> bool:
    n = metric.dim
    return bool(metric.domain(z[:n]) and np.any(z[n:]))


# Fehlberg 4(5) tableau.
_RKF_C = (0.0, 1 / 4, 3 / 8, 12 / 13, 1.0, 1 / 2)
_RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)
_RKF_ERR = (1 / 360, 0.0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)


def _rkf45_step(rhs, z, k1, h):
    k = [k1]
    for s in range(1, 6):
        zs = z + h * sum(a * ks for a, ks in zip(_RKF_A[s], k))
        k.append(rhs(zs))
    z_new = z + h * sum(b * ks for b, ks in zip(_RKF_B5, k))
    err = h * sum(e * ks for e, ks in zip(_RKF_ERR, k))
    return z_new, err


def integrate_geodesic(metric: FinslerMetric, p0: TangentPoint, t_end: float,
                       *, method: str = "rkf45", step: float = 1e-3,
                       rtol: float = 1e-10, atol: float = 1e-10,
                       ) -> GeodesicTrajectory:
    """Integrate the geodesic flow of ``metric`` from ``p0`` to time ``t_end``.

    ``method`` is ``rk4`` (fixed step ``step``) or ``rkf45`` (adaptive with
    ``rtol``/``atol``). Samples are the accepted steps. Approaching the
    domain boundary truncates the trajectory (``domain_exit``); a step
    rejection cascade below the hard floor raises :class:`IntegratorStall`;
    a non-reversible metric rejects ``t_end < 0`` with
    :class:`NonReversibleBackward`.
    """
    if p0.dim != metric.dim:
        raise ConfigError(f"initial condition has dimension {p0.dim}, "
                          f"metric has {metric.dim}")
    if t_end == 0.0:
        raise ConfigError("t_end must be nonzero")
    if t_end < 0.0 and not metric.reversible:
        raise NonReversibleBackward(
            f"{metric.name} is not reversible; integrate forward only")
    if not metric.domain(p0.x):
        raise DomainError(f"initial point {p0.x} outside domain")
    rhs = _make_rhs(metric)
    z0 = np.concatenate((p0.x, p0.y))
    if method == "rk4":
        if not (isinstance(step, (int, float)) and step > 0):
            raise ConfigError(f"rk4 needs step > 0, got {step!r}")
        out = _integrate_rk4(metric, rhs, z0, t_end, float(step))
    elif method == "rkf45":
        if not (rtol > 0 and atol > 0):
            raise ConfigError(f"rkf45 needs positive tolerances, got "
                              f"rtol={rtol!r} atol={atol!r}")
        out = _integrate_rkf45(metric, rhs, z0, t_end, rtol, atol)
    else:
        raise ConfigError(f"unknown integrator '{method}'")
    times, zs, jets, domain_exit, n_acc, n_rej, h_used = out
    times = np.asarray(times)
    zs = np.asarray(zs)
    n = metric.dim
    if t_end < 0:  # store with increasing times
        times = times[::-1].copy()
        zs = zs[::-1].copy()
        jets = jets[::-1]
    return GeodesicTrajectory(
        times=times, xs=zs[:, :n].copy(), ys=zs[:, n:].copy(),
        step_size=h_used, integrator_name=method, metric=metric,
        jets=tuple(jets), domain_exit=domain_exit,
        n_accepted=n_acc, n_rejected=n_rej)


# Both integrators evaluate the jet once at each accepted state, the final
# one included: it gives the first stage of the next step, also when that
# step is rejected and retried, and it travels with the trajectory so that
# integrals along it need not evaluate the base metric again.


def _integrate_rk4(metric, rhs, z0, t_end, step):
    n = metric.dim
    n_steps = max(1, math.ceil(abs(t_end) / step))
    h = t_end / n_steps
    times, zs, jets = [0.0], [z0], [_state_jet(metric, z0)]
    z = z0
    domain_exit = False
    for k in range(n_steps):
        k1 = _flow(jets[-1], z[n:])
        try:
            k2 = rhs(z + 0.5 * h * k1)
            k3 = rhs(z + 0.5 * h * k2)
            k4 = rhs(z + h * k3)
        except DomainError:
            domain_exit = True
            break
        z_new = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not _state_ok(metric, z_new):
            domain_exit = True
            break
        z = z_new
        times.append((k + 1) * h)
        zs.append(z)
        jets.append(_state_jet(metric, z))
    return times, zs, jets, domain_exit, len(times) - 1, 0, abs(h)


def _integrate_rkf45(metric, rhs, z0, t_end, rtol, atol):
    n = metric.dim
    sign = 1.0 if t_end > 0 else -1.0
    h = sign * abs(t_end) / 100.0
    t, z = 0.0, z0
    times, zs, jets = [0.0], [z0], [_state_jet(metric, z0)]
    n_acc = n_rej = 0
    domain_exit = False
    boundary_pressure = False
    while sign * (t_end - t) > 0.0:
        if sign * (t + h) > sign * t_end:
            h = t_end - t
        try:
            z_new, err = _rkf45_step(rhs, z, _flow(jets[-1], z[n:]), h)
            failed = not np.all(np.isfinite(z_new))
        except DomainError:
            failed = True
            boundary_pressure = True
        if not failed:
            scale = atol + rtol * np.maximum(np.abs(z), np.abs(z_new))
            err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
            if err_norm <= 1.0 and not _state_ok(metric, z_new):
                failed = True
                boundary_pressure = True
        if failed:
            n_rej += 1
            h *= 0.5
            if abs(h) < H_MIN:
                if boundary_pressure:
                    domain_exit = True
                    break
                raise IntegratorStall(
                    f"step size fell below {H_MIN:.0e} at t={t:.6g}")
            continue
        if err_norm <= 1.0:
            t += h
            z = z_new
            times.append(t)
            zs.append(z)
            jets.append(_state_jet(metric, z))
            n_acc += 1
            boundary_pressure = False
        else:
            n_rej += 1
        factor = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if abs(h) < H_MIN:
            raise IntegratorStall(
                f"step size fell below {H_MIN:.0e} at t={t:.6g}")
    return times, zs, jets, domain_exit, n_acc, n_rej, None


def trajectory_energy(metric: FinslerMetric, traj: GeodesicTrajectory) -> np.ndarray:
    """F^2 of ``metric`` at every trajectory sample (conserved along its
    own geodesics)."""
    return np.array([metric.value(TangentPoint(x, y)) ** 2
                     for x, y in zip(traj.xs, traj.ys)])


# -- projective equivalence test ---------------------------------------------


@dataclass(frozen=True)
class RapcsakReport:
    """Residuals of S(dF~/dy^i) = dF~/dx^i over a sample set."""

    residuals: np.ndarray            # (n_samples, n)
    norms: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "norms",
                          np.linalg.norm(self.residuals, axis=1))

    @property
    def max_residual(self) -> float:
        return float(self.norms.max())

    @property
    def mean_residual(self) -> float:
        return float(self.norms.mean())

    def passes(self, tol: float) -> bool:
        return self.max_residual <= tol


def rapcsak_residual(pair: ProjectivePair,
                     samples: list[TangentPoint]) -> RapcsakReport:
    """Projective-equivalence residual of the pair on ``samples``.

    Componentwise r_i = y^j d2F~/dy^i dx^j - 2 G^j d2F~/dy^i dy^j - dF~/dx^i
    with G the spray of the base metric; the residual vanishes exactly when
    the comparison metric shares the base metric's unparameterized geodesics.
    """
    if not samples:
        raise ConfigError("rapcsak_residual needs at least one sample")
    n = pair.dim
    base_jets = metric_jet(pair.base, samples)
    cjet = xy_jet2(pair.comparison, np.array([p.x for p in samples]),
                   np.array([p.y for p in samples]))
    # the raw jet enters the residual directly: an overflow there, or in
    # the residual norm, must not pass for a large residual
    check_lanes(np.isfinite(cjet.value) & np.isfinite(cjet.grad).all(axis=1)
                & np.isfinite(cjet.hess).all(axis=(1, 2)),
                lambda i: NonFiniteResult("value or derivatives not finite",
                                          metric=pair.comparison.name,
                                          point=i))
    rows = []
    for p, base_jet, ft_x, ft_yy, ft_yx in zip(
            samples, base_jets, cjet.grad[:, :n], cjet.hess[:, n:, n:],
            cjet.hess[:, n:, :n]):
        G = _spray_vector(base_jet, p.y)
        rows.append(ft_yx @ p.y - 2.0 * (ft_yy @ G) - ft_x)
    report = RapcsakReport(residuals=np.array(rows))
    check_lanes(np.isfinite(report.norms), lambda i: NonFiniteResult(
        f"residual norm {report.norms[i]} not finite", point=i))
    return report


# -- unparameterized path comparison -----------------------------------------


def resample_by_arclength(xs: np.ndarray, count: int,
                          total: float | None = None) -> np.ndarray:
    """Resample a polyline at ``count`` points equally spaced in chord length.

    ``total`` caps the arclength (used to truncate a longer path to the
    extent of a shorter one).
    """
    seg = np.linalg.norm(np.diff(xs, axis=0), axis=1)
    s = np.concatenate(([0.0], np.cumsum(seg)))
    length = s[-1] if total is None else min(total, s[-1])
    targets = np.linspace(0.0, length, count)
    out = np.empty((count, xs.shape[1]))
    for j in range(xs.shape[1]):
        out[:, j] = np.interp(targets, s, xs[:, j])
    return out


def path_distance(xs_a: np.ndarray, xs_b: np.ndarray,
                  count: int = 200) -> float:
    """Distance between two paths as unparameterized curves.

    Both polylines are truncated to their common chord length and resampled
    at matched arclength fractions; the returned max pointwise distance
    bounds the Hausdorff distance of the truncated curves from above.
    """
    len_a = float(np.linalg.norm(np.diff(xs_a, axis=0), axis=1).sum())
    len_b = float(np.linalg.norm(np.diff(xs_b, axis=0), axis=1).sum())
    common = min(len_a, len_b)
    ra = resample_by_arclength(xs_a, count, total=common)
    rb = resample_by_arclength(xs_b, count, total=common)
    return float(np.linalg.norm(ra - rb, axis=1).max())
