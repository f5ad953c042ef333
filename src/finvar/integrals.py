"""First integrals of projectively related Finsler pairs.

Given a pair (F, F~) with inverse metric g^{ik} of F and angular metric
h~_{kj} of F~, the (1,1) tensor

    H^i_j = (F / F~) g^{ik} h~_{kj}

has rank n-1 with kernel spanned by the velocity. The coefficients f_alpha
of det(H + Lambda I) = sum_alpha f_alpha Lambda^alpha are constant along
geodesics of F whenever the pair is projectively related; f_n = 1 and the
constant term vanishes. Because every f_alpha is 0+-homogeneous in the
velocity, the same functions are conserved along the geodesics of every
metric in the projective class.

Closed forms computed here for cross-checking:

    f_1     = (F/F~)^(n+1) det g~ / det g
    f_{n-1} = Tr H
    mu      = (det g / det g~)^(1/(n+1))
    I_0     = mu^2 F~^2                       (Painleve-type)
    I_1     = mu^3 g^{ij}(g~_{ij} g~_{kl} - g~_{ik} g~_{jl}) y^k y^l
    K       = (det g~ / det g)^(1/(n+1)) g~^{ik} g_{kj}  (conformal Killing)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Lanes, check_lanes, lane, lane_power
from .dynamics import GeodesicTrajectory
from .errors import ConfigError, DegenerateAngularMetric
from .metrics import (MetricJet, ProjectivePair, TangentPoint, _jet_arrays,
                      metric_jet)

# |constant term| of det(H + Lambda I) must stay under this multiple of
# ||H||_F^n; a violation means the kernel property H y = 0 degraded.
Q0_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class PairJets(Lanes):
    """Both metric jets of a pair at one tangent point, or at N points in
    the stacked layout of :class:`MetricJet`; ``jets[i]`` is the pair of
    jets at point i.

    H, the f_alpha and every closed form below are functions of these two
    jets alone, so a caller computes them once per point and shares them.
    """

    base: MetricJet
    comparison: MetricJet

    @property
    def dim(self) -> int:
        return self.base.dim


def pair_jets(pair: ProjectivePair, points: TangentPoint) -> PairJets:
    """The jets of the base and of the comparison metric at one point, or
    stacked over a stack of points, with one pass per metric. H and the
    f_alpha read velocity derivatives only, so the passes seed the velocity
    alone and neither jet carries a spray."""
    return PairJets(metric_jet(pair.base, points, spray=False),
                    metric_jet(pair.comparison, points, spray=False))


@dataclass(frozen=True, eq=False)
class FirstIntegralVector(Lanes):
    """H at one point, the coefficients of det(H + Lambda I) and delta_alpha
    = f_alpha det g; or all of them at N points, stacked on a leading axis.

    ``coeffs[..., k]`` is the coefficient of Lambda^k, the constant term q0
    included; ``f[..., alpha-1]`` is f_alpha, and f_n is 1 identically. The
    delta coefficients transform like det g under coordinate changes and
    are kept only for cross-checks against the combinatorial oracle.
    """

    H: np.ndarray
    coeffs: np.ndarray
    delta: np.ndarray

    @property
    def f(self) -> np.ndarray:
        return self.coeffs[..., 1:]


# Below, a stack takes elementwise arithmetic, matmul and the stacked trace
# only: these give each lane its one-matrix bits; einsum, .sum(-1) and
# np.linalg.norm with an axis do not.


def _per_matrix(a) -> np.ndarray:
    """A scalar, or the values of a stack, against (n, n) matrices."""
    return np.asarray(a)[..., None, None]


def build_H(jets: PairJets) -> np.ndarray:
    """H = (F/F~) g^{-1} h~, the rank-(n-1) tensor whose characteristic
    polynomial carries the first integrals."""
    jet, jet_t = jets.base, jets.comparison
    return _per_matrix(jet.F / jet_t.F) * (jet.g_inv @ jet_t.h)


def square_matrices(M) -> np.ndarray:
    """``M`` as a float matrix (n, n) or stack (N, n, n), n >= 2; else a
    ConfigError."""
    M = np.asarray(M, dtype=float)
    n = M.shape[-1] if M.ndim >= 2 else 0
    if M.ndim < 2 or M.shape[-2] != n or n < 2:
        raise ConfigError(f"charpoly needs a square matrix of size >= 2, "
                          f"got shape {M.shape}")
    return M


def charpoly_coefficients(M: np.ndarray) -> np.ndarray:
    """Coefficients of det(M + Lambda I) in increasing powers of Lambda, for
    one matrix (n, n) or each of a stack (N, n, n).

    Faddeev-LeVerrier recursion applied to -M; exact rational structure, no
    complex arithmetic. The leading coefficient is exactly 1. Its trace
    recursion cancels as n grows: against 60-digit eigenvalue references,
    the worst relative error in f_alpha on euclidean against klein read
    9e-16 at n = 8, 1.3e-13 at n = 12 and 1.6e-7 at n = 16, where
    ``evaluate`` on that related pair (20 samples, seed 1) exits 1 with
    f1_rel_err 1.7e-7 and q0_abs 2.9 (it passes at n = 12, f1_rel_err
    4.1e-12), although configs take n up to ``metrics.MAX_DIM`` (64).
    """
    M = square_matrices(M)
    n = M.shape[-1]
    A = -M
    eye = np.eye(n)
    coeffs = np.empty(M.shape[:-2] + (n + 1,))
    coeffs[..., n] = 1.0
    Mk = eye
    for k in range(1, n + 1):
        AM = A @ Mk
        ck = -np.trace(AM, axis1=-2, axis2=-1) / k
        coeffs[..., n - k] = ck
        Mk = AM + _per_matrix(ck) * eye
    return coeffs


def first_integrals(jets: PairJets) -> FirstIntegralVector:
    """H, its characteristic polynomial and the first integrals at the point,
    or at every point of a stack.

    The constant term of the characteristic polynomial is computed and
    checked against ~0 rather than assumed; a violation is reported as a
    degenerate angular metric since it means H lost its kernel, and in a
    stack names the first failing point.
    """
    H = build_H(jets)
    coeffs = charpoly_coefficients(H)
    n = H.shape[-1]
    flat = H.reshape(H.shape[:-2] + (1, n * n))
    # ||H||_F as np.linalg.norm forms it, from the flattened H times itself
    norm = np.sqrt((flat @ flat.swapaxes(-1, -2))[..., 0, 0])
    # ||H||^n may overflow: to inf, which keeps the guard meaningful, and
    # silently, as a float power would raise
    with np.errstate(over="ignore"):
        scale = norm ** n
    q0 = coeffs[..., 0]
    check_lanes(~(np.abs(q0) > Q0_RTOL * scale),
                lambda i: DegenerateAngularMetric(
                    f"constant charpoly term {lane(q0, i):.3e} not "
                    f"negligible against ||H||^n = {lane(scale, i):.3e}",
                    point=i))
    return FirstIntegralVector(
        H=H, coeffs=coeffs,
        delta=coeffs[..., 1:] * np.asarray(jets.base.det_g)[..., None])


def f1_closed_form(jets: PairJets) -> float | np.ndarray:
    """f_1 = (F/F~)^(n+1) det g~ / det g, bypassing the polynomial."""
    jet, jet_t = jets.base, jets.comparison
    return (lane_power(jet.F / jet_t.F, jets.dim + 1) * jet_t.det_g
            / jet.det_g)


def fn1_closed_form(jets: PairJets) -> float | np.ndarray:
    """f_{n-1} = Tr H = (F/F~) g^{ij} h~_{ij}."""
    jet, jet_t = jets.base, jets.comparison
    return (jet.F / jet_t.F) * np.trace(jet.g_inv @ jet_t.h,
                                        axis1=-2, axis2=-1)


def _volume_ratio(det_g, det_g_t, n: int):
    """(det g / det g~)^(1/(n+1)); both determinants are positive because
    every jet certifies that its metric is strongly convex."""
    return lane_power(det_g / det_g_t, 1.0 / (n + 1))


def mu(jets: PairJets) -> float | np.ndarray:
    """Volume-density ratio mu = (det g / det g~)^(1/(n+1))."""
    return _volume_ratio(jets.base.det_g, jets.comparison.det_g, jets.dim)


def painleve_I0(jets: PairJets) -> float | np.ndarray:
    """Painleve-type integral I_0 = mu^2 F~^2 (equals F^2 / f_1^(2/(n+1)))."""
    jet, jet_t = jets.base, jets.comparison
    m = _volume_ratio(jet.det_g, jet_t.det_g, jets.dim)
    return lane_power(m, 2) * lane_power(jet_t.F, 2)


def tm_I1(jets: PairJets) -> float | np.ndarray:
    """Quadratic-type integral I_1 = mu^3 g^{ij}(g~_{ij} g~_{kl} -
    g~_{ik} g~_{jl}) y^k y^l (equals f_{n-1} F~^3 mu^3 / F)."""
    jet, jet_t, y = jets.base, jets.comparison, jets.base.y
    m3 = lane_power(_volume_ratio(jet.det_g, jet_t.det_g, jets.dim), 3)
    # vectors as (1, n) rows and (n, 1) columns: matmul then takes each
    # lane through the matrix-vector and dot products of a 1-D operand
    row, col = y[..., None, :], (jet_t.g @ y[..., :, None])
    gty = col.swapaxes(-1, -2)
    trace = np.trace(jet.g_inv @ jet_t.g, axis1=-2, axis2=-1)
    return m3 * (trace * (row @ col)[..., 0, 0]
                 - (gty @ jet.g_inv @ col)[..., 0, 0])


def sarlet_K(jets: PairJets) -> np.ndarray:
    """Special conformal Killing tensor K = (det g~/det g)^(1/(n+1)) g~^{-1} g.

    Only the tensor itself is exposed; the scalar integral it generates
    carries the same information as I_0.
    """
    jet, jet_t = jets.base, jets.comparison
    scale = 1.0 / _volume_ratio(jet.det_g, jet_t.det_g, jets.dim)
    return _per_matrix(scale) * (jet_t.g_inv @ jet.g)


def integrals_along(pair: ProjectivePair, traj: GeodesicTrajectory) -> np.ndarray:
    """f_1..f_n evaluated at every trajectory sample, shape (n_samples, n).

    Along a geodesic of the pair's base metric, the base jets the
    integrator evaluated at each sample are reused; along any other
    metric's geodesics they come from one stacked velocity-only pass over
    all samples, as the comparison jets always do. H and its characteristic
    polynomial are formed for all samples at once.
    """
    if traj.jets.dim != pair.dim:
        raise ConfigError(f"trajectory has dimension {traj.jets.dim}, "
                          f"pair has {pair.dim}")
    x, y = traj.jets.x, traj.jets.y
    base = (traj.jets if traj.metric is pair.base
            else _jet_arrays(pair.base, x, y, spray=False))
    comparison = _jet_arrays(pair.comparison, x, y, spray=False)
    return first_integrals(PairJets(base, comparison)).f
