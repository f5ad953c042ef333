"""Geodesic integration and the projective-equivalence test.

The geodesic flow is the first-order system (x', y') = (y, -2G). The jet
of the metric at a state carries that state and its spray G, so the flow
reads one jet and nothing else; a stage, whose jet is not kept, forms the
spray alone.
Two integrators are provided: classical fixed-step RK4 and the adaptive
Runge-Kutta-Fehlberg 4(5) pair, which propagates the fifth-order solution
(local extrapolation) and uses the classical embedded error estimate for
step control. Conservation checks need integration error far below the
first-integral drift tolerance, hence the tight default tolerances.

An RKF45 step keeps its six stages in the rows of one array. Each weighted
sum of stages is one product by a column of the tableau and one reduction
over the rows, which adds the terms in the order of Python's ``sum`` and
from its int 0, so a leading -0.0 term still gives +0.0: the sums are
bitwise those of ``sum(w * k for w, k in zip(weights, stages))``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .autodiff import check_lanes, lane, lane_power
from .errors import (ConfigError, DomainError, IntegratorStall,
                     NonFiniteResult, NonReversibleBackward)
from .metrics import (FinslerMetric, MetricJet, ProjectivePair,
                      TangentPoint, _jet_arrays, _matvec, _spray_at,
                      check_number, metric_jet)

# Step size floor of rkf45, lowered to its first step |t_end| / 100 when
# that is smaller: a step below it short of t_end ends the run.
H_MIN = 1e-12


# The most steps rk4 may take up to n = 8. A trajectory keeps one jet per
# step, about 2 KB at n = 2 and 6 KB at n = 8 at the peak, so 10**6 steps
# reach gigabytes; the benchmark's rk4 runs take 150 steps. A kept jet
# grows with n^2 (about 277 KB at n = 64), so above n = 8 the steps times
# n^2 stay at most RK4_MAX_STEPS * 8^2.
RK4_MAX_STEPS = 10 ** 5


@dataclass(frozen=True)
class IntegratorSettings:
    """The settings of :func:`integrate_geodesic`, checked when built:
    settings with which no geodesic can run are a :class:`ConfigError`."""

    method: str = "rkf45"
    rtol: float = 1e-10
    atol: float = 1e-10
    step: float = 1e-3
    t_end: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.method, str) and self.method in INTEGRATORS):
            raise ConfigError(f"integrator.method must be one of "
                              f"{list(INTEGRATORS)}, got {self.method!r}")
        for name in ("rtol", "atol", "step", "t_end"):
            check_number(getattr(self, name), f"integrator.{name}")
        if self.t_end == 0:
            raise ConfigError("t_end must be nonzero")
        if self.method == "rk4":
            if not self.step > 0:
                raise ConfigError(f"rk4 needs step > 0, got {self.step!r}")
            if abs(self.t_end) / self.step > RK4_MAX_STEPS:
                raise ConfigError(
                    f"rk4 step count |t_end| / step must be at most "
                    f"{RK4_MAX_STEPS}, got t_end={self.t_end!r} "
                    f"step={self.step!r}")
        elif not (self.rtol > 0 and self.atol > 0):
            raise ConfigError(f"rkf45 needs positive tolerances, got "
                              f"rtol={self.rtol!r} atol={self.atol!r}")

    @property
    def rk4_steps(self) -> int:
        """The steps of an rk4 run, ceil(|t_end| / step) and at least 1."""
        return max(1, math.ceil(abs(self.t_end) / float(self.step)))

    def check_dim(self, n: int) -> None:
        """:class:`ConfigError` unless a run in dimension ``n`` keeps no
        more than the jets of RK4_MAX_STEPS rk4 steps at n = 8: checked
        before the first jet, once the metric gives ``n``."""
        if self.method != "rk4":
            return
        if self.rk4_steps * n * n > RK4_MAX_STEPS * 64:
            raise ConfigError(
                f"rk4 step count times n^2 must be at most "
                f"{RK4_MAX_STEPS * 64}, got {self.rk4_steps} steps at "
                f"n = {n}")


def _flow(y: np.ndarray, G: np.ndarray) -> np.ndarray:
    """(x', y') = (y, -2G) at the state (x, y)."""
    return np.concatenate((y, -2.0 * G))


@dataclass(frozen=True, eq=False)
class GeodesicTrajectory:
    """Accepted integration samples of one geodesic, in integration order.

    ``times`` start at 0.0 and move strictly toward the requested time:
    they decrease for a backward run. ``jets`` is the stacked jet of the
    integrated ``metric`` at the samples, one lane per sample: ``jets.x``
    and ``jets.y`` are the states. ``domain_exit`` is set when the
    trajectory was truncated at the last fully in-domain accepted step
    instead of reaching the requested time.
    """

    times: np.ndarray
    metric: FinslerMetric = field(repr=False)
    jets: MetricJet = field(repr=False)
    domain_exit: bool = False
    n_accepted: int = 0
    n_rejected: int = 0

    def __post_init__(self):
        dt = np.diff(self.times)
        if dt.size and not (np.all(dt > 0) or np.all(dt < 0)):
            raise ConfigError("trajectory times must be strictly monotone")
        if self.jets.F.shape != self.times.shape:
            raise ConfigError(f"jets of shape {self.jets.F.shape} for "
                              f"{len(self.times)} trajectory samples")

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def t_final(self) -> float:
        return float(self.times[-1])

    def within(self, domain: Callable[[np.ndarray], np.ndarray | bool]
               ) -> "GeodesicTrajectory":
        """The samples before the first base point outside ``domain``, with
        ``domain_exit`` set; the trajectory itself when no sample is outside.

        The first sample, at t = 0, is always kept. The step
        counters still describe the whole integration. ``domain`` tests all
        samples in one call on their stacked base points, as every metric's
        ``domain`` can; a bare bool answers for every sample at once.
        """
        outside = np.flatnonzero(np.logical_not(domain(self.jets.x[1:])))
        if not outside.size:
            return self
        k = int(outside[0]) + 1
        return replace(self, times=self.times[:k], jets=self.jets[:k],
                       domain_exit=True)


def _state_jet(metric: FinslerMetric, z: np.ndarray) -> MetricJet:
    """Jet of ``metric`` at the state z = (x, y)."""
    n = metric.dim
    return _jet_arrays(metric, z[:n], z[n:])


def _stage_flow(metric: FinslerMetric, z: np.ndarray) -> np.ndarray:
    """The flow of ``metric`` at the state z = (x, y) of a stage, whose jet
    is not kept: the bits of ``_flow`` of :func:`_state_jet`, from the
    spray alone."""
    n = metric.dim
    return _flow(z[n:], _spray_at(metric, z[:n], z[n:]))


# Fehlberg 4(5) tableau.
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
# The same weights as columns, one weight per stage row.
_RKF_A_COLS = tuple(np.array(a).reshape(-1, 1) for a in _RKF_A)
_RKF_B5_COL = np.array(_RKF_B5).reshape(-1, 1)
_RKF_ERR_COL = np.array(_RKF_ERR).reshape(-1, 1)


def _stage_sum(weights: np.ndarray, k: np.ndarray) -> np.ndarray:
    """sum(w * k_s for w, k_s in zip(weights, k)) as one product and one
    reduction, in the same order and from the same int 0."""
    return np.add.reduce(weights * k, axis=0, initial=0)


def _rkf45_step(rhs, z, k1, h):
    k = np.empty((6, z.shape[0]))
    k[0] = k1
    for s in range(1, 6):
        k[s] = rhs(z + h * _stage_sum(_RKF_A_COLS[s], k[:s]))
    z_new = z + h * _stage_sum(_RKF_B5_COL, k)
    err = h * _stage_sum(_RKF_ERR_COL, k)
    return z_new, err


def integrate_geodesic(metric: FinslerMetric, p0: TangentPoint, t_end: float,
                       **settings) -> GeodesicTrajectory:
    """Integrate the geodesic flow of ``metric`` from ``p0`` to time ``t_end``.

    ``p0`` is one point, not a stack. The keywords are the other fields of
    :class:`IntegratorSettings`, with its defaults, and meet its checks:
    ``method`` is ``rk4`` (fixed step ``step``) or ``rkf45`` (adaptive with
    ``rtol``/``atol``). Samples are ``p0`` and the accepted steps, in
    integration order, so times decrease when ``t_end < 0``. The first jet, at ``p0``, raises
    :class:`DomainError` when ``p0`` is outside the domain. A
    :class:`DomainError` from any later jet, of a stage or of a candidate
    state, is the domain boundary: rk4 truncates the trajectory there
    (``domain_exit``). For rkf45 it rejects the step, and every rejected
    step shrinks h by its factor. A step below the floor (``H_MIN``, or the
    first step if smaller) short of ``t_end`` ends the run: as
    ``domain_exit`` if a :class:`DomainError` came since the last accepted
    step, else as :class:`IntegratorStall`. A step accepted after such a
    :class:`DomainError` that leaves the base point bitwise unchanged ends
    the run as ``domain_exit`` too. A non-reversible metric rejects
    ``t_end < 0`` with :class:`NonReversibleBackward`.
    """
    if p0.x.shape != (metric.dim,):
        raise ConfigError(f"initial condition has shape {p0.x.shape}, "
                          f"metric has dimension {metric.dim}")
    settings = IntegratorSettings(t_end=t_end, **settings)
    settings.check_dim(metric.dim)
    if t_end < 0.0 and not metric.reversible:
        raise NonReversibleBackward(
            f"{metric.name} is not reversible; integrate forward only")
    z0 = np.concatenate((p0.x, p0.y))
    times, jets, domain_exit, n_rej = INTEGRATORS[settings.method](
        metric, functools.partial(_stage_flow, metric), z0, settings)
    return GeodesicTrajectory(
        times=np.asarray(times), metric=metric, jets=_stack(jets),
        domain_exit=domain_exit, n_accepted=len(times) - 1, n_rejected=n_rej)


def _stack(jets: list[MetricJet]) -> MetricJet:
    """One stacked jet from the one-point jets at the samples, lane k equal
    to ``jets[k]``."""
    return MetricJet(*(np.array([getattr(jet, f.name) for jet in jets])
                       for f in fields(MetricJet)))


# Both integrators evaluate the jet once at each candidate state they may
# accept, the final one included. That jet is the state's domain check: a
# DomainError from it, as from a stage, is the boundary, where rk4 stops
# and rkf45 rejects the step and halves it. An accepted jet gives the first
# stage of the next step, also when that step is rejected and retried, and
# it travels with the trajectory, stacked once at the end in integration
# order. It holds the state itself, so the trajectory keeps no other copy
# of its samples, and integrals along it need not evaluate the base metric
# again.


def _integrate_rk4(metric, rhs, z0, settings):
    t_end = settings.t_end
    n_steps = settings.rk4_steps
    h = t_end / n_steps
    times, jets = [0.0], [_state_jet(metric, z0)]
    z = z0
    domain_exit = False
    for k in range(n_steps):
        k1 = _flow(jets[-1].y, jets[-1].G)
        try:
            k2 = rhs(z + 0.5 * h * k1)
            k3 = rhs(z + 0.5 * h * k2)
            k4 = rhs(z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            jets.append(_state_jet(metric, z))
        except DomainError:
            domain_exit = True
            break
        times.append((k + 1) * h)
    return times, jets, domain_exit, 0


def _integrate_rkf45(metric, rhs, z0, settings):
    t_end, rtol, atol = settings.t_end, settings.rtol, settings.atol
    sign = 1.0 if t_end > 0 else -1.0
    h = sign * abs(t_end) / 100.0
    # the floor never exceeds the first step, so a short horizon starts; a
    # first step that underflows to 0 stalls at once
    h_min = min(H_MIN, abs(h)) or H_MIN
    t, z = 0.0, z0
    times, jets = [0.0], [_state_jet(metric, z0)]
    n, n_rej = metric.dim, 0
    boundary_pressure = False
    while sign * (t_end - t) > 0.0:
        # checked only short of t_end, so the sliver step after a clamped
        # last step that rounds one ulp short of it may lie below the floor
        if abs(h) < h_min:
            if boundary_pressure:
                break
            raise IntegratorStall(
                f"step size fell below {h_min:.0e} at t={t:.6g}")
        if sign * (t + h) > sign * t_end:
            h = t_end - t
        jet, factor = None, 0.5
        k1 = _flow(jets[-1].y, jets[-1].G)
        try:
            z_new, err = _rkf45_step(rhs, z, k1, h)
            if np.isfinite(z_new).all():
                scale = atol + rtol * np.maximum(np.abs(z), np.abs(z_new))
                # the root mean square, with the bits of np.mean's sum and
                # division and without its per-call cost
                q = (err / scale) ** 2
                err_norm = math.sqrt(np.add.reduce(q) / q.size)
                if err_norm <= 1.0:
                    jet = _state_jet(metric, z_new)
                factor = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
        except DomainError:
            boundary_pressure = True
        if jet is None:
            n_rej += 1
        elif boundary_pressure and z_new[:n].tobytes() == z[:n].tobytes():
            # the base point froze at the domain margin, where h need not
            # fall to its floor: the step is the boundary, neither kept
            # nor counted
            break
        else:
            t += h
            z = z_new
            times.append(t)
            jets.append(jet)
            boundary_pressure = False
        h *= min(5.0, max(0.2, factor))
    # reaching t_end takes an accepted step, which clears boundary pressure
    return times, jets, boundary_pressure, n_rej


# integrate_geodesic's methods, by name
INTEGRATORS = {"rk4": _integrate_rk4, "rkf45": _integrate_rkf45}


def trajectory_energy(traj: GeodesicTrajectory) -> np.ndarray:
    """F^2 of the integrated metric at every trajectory sample (conserved
    along its geodesics), from the jets the integrator evaluated."""
    return lane_power(traj.jets.F, 2)


# -- projective equivalence test ---------------------------------------------


@dataclass(frozen=True, eq=False)
class RapcsakReport:
    """Residuals of S(dF~/dy^i) = dF~/dx^i over a sample set."""

    residuals: np.ndarray            # (n,), or (n_samples, n)
    norms: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "norms",
                          np.linalg.norm(self.residuals, axis=-1))

    @property
    def max_residual(self) -> float:
        return float(self.norms.max())

    @property
    def mean_residual(self) -> float:
        return float(self.norms.mean())


def rapcsak_residual(pair: ProjectivePair,
                     samples: TangentPoint) -> RapcsakReport:
    """Projective-equivalence residual of the pair at ``samples``, one point
    or a stack.

    Componentwise r_i = y^j d2F~/dy^i dx^j - 2 G^j d2F~/dy^i dy^j - dF~/dx^i
    with G the spray of the base metric; the residual vanishes exactly when
    the comparison metric shares the base metric's unparameterized geodesics.
    """
    n = pair.dim
    base_jets = metric_jet(pair.base, samples)
    cjet = pair.comparison.jet2(samples.x, samples.y)
    # the raw jet enters the residual directly: an overflow there, or in
    # the residual norm, must not pass for a large residual
    check_lanes(np.isfinite(cjet.value) & np.isfinite(cjet.grad).all(axis=-1)
                & np.isfinite(cjet.hess).all(axis=(-2, -1)),
                lambda i: NonFiniteResult("value or derivatives not finite",
                                          metric=pair.comparison.name,
                                          point=i))
    residuals = (_matvec(cjet.hess[..., :n], samples.y)
                 - 2.0 * _matvec(cjet.hess[..., n:], base_jets.G)
                 - cjet.grad[..., :n])
    report = RapcsakReport(residuals=residuals)
    check_lanes(np.isfinite(report.norms), lambda i: NonFiniteResult(
        f"residual norm {lane(report.norms, i)} not finite",
        metric=pair.comparison.name, point=i))
    return report
