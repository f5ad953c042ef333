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

from .dynamics import GeodesicTrajectory
from .errors import ConfigError, DegenerateAngularMetric
from .metrics import MetricJet, ProjectivePair, TangentPoint, metric_jet

# |constant term| of det(H + Lambda I) must stay under this multiple of
# ||H||_F^n; a violation means the kernel property H y = 0 degraded.
Q0_RTOL = 1e-10


@dataclass(frozen=True)
class PairJets:
    """Both metric jets of a pair at one tangent point, with its velocity.

    H, the f_alpha and every closed form below are functions of these two
    jets alone, so a caller computes them once per point and shares them.
    """

    base: MetricJet
    comparison: MetricJet
    y: np.ndarray

    @property
    def dim(self) -> int:
        return self.y.shape[0]


def pair_jets(pair: ProjectivePair, points):
    """The jets of the base and of the comparison metric at a
    :class:`TangentPoint`, or the list of them at each of a sequence of
    points, with one stacked pass per metric."""
    base = metric_jet(pair.base, points)
    comparison = metric_jet(pair.comparison, points)
    if isinstance(points, TangentPoint):
        return PairJets(base, comparison, points.y)
    return [PairJets(jet, jet_t, p.y)
            for jet, jet_t, p in zip(base, comparison, points)]


@dataclass(frozen=True)
class FirstIntegralVector:
    """Coefficients f_1..f_n of det(H + Lambda I) and delta_alpha = f_alpha
    det g.

    ``f[alpha-1]`` is f_alpha; f_n is 1 identically. The delta coefficients
    transform like det g under coordinate changes and are kept only for
    cross-checks against the combinatorial oracle.
    """

    f: np.ndarray
    delta: np.ndarray

    @property
    def dim(self) -> int:
        return self.f.shape[0]


def build_H(jets: PairJets) -> np.ndarray:
    """H = (F/F~) g^{-1} h~, the rank-(n-1) tensor whose characteristic
    polynomial carries the first integrals."""
    jet, jet_t = jets.base, jets.comparison
    return (jet.F / jet_t.F) * (jet.g_inv @ jet_t.h)


def charpoly_coefficients(M: np.ndarray) -> np.ndarray:
    """Coefficients of det(M + Lambda I) in increasing powers of Lambda.

    Faddeev-LeVerrier recursion applied to -M; exact rational structure, no
    complex arithmetic, adequate for the package's working range n <= 8.
    The leading coefficient is exactly 1.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0] if M.ndim == 2 else 0
    if M.ndim != 2 or M.shape != (n, n) or n < 2:
        raise ConfigError(f"charpoly needs a square matrix of size >= 2, "
                          f"got shape {M.shape}")
    A = -M
    coeffs = np.empty(n + 1)
    coeffs[n] = 1.0
    Mk = np.eye(n)
    for k in range(1, n + 1):
        AM = A @ Mk
        ck = -np.trace(AM) / k
        coeffs[n - k] = ck
        Mk = AM + ck * np.eye(n)
    return coeffs


def first_integrals(jets: PairJets) -> FirstIntegralVector:
    """First integrals f_1..f_n at the point and their delta counterparts.

    The constant term of the characteristic polynomial is computed and
    checked against ~0 rather than assumed; a violation is reported as a
    degenerate angular metric since it means H lost its kernel.
    """
    jet, jet_t = jets.base, jets.comparison
    H = (jet.F / jet_t.F) * (jet.g_inv @ jet_t.h)
    coeffs = charpoly_coefficients(H)
    # ||H||^n may overflow: to inf, which keeps the guard meaningful, and
    # silently, as a float power would raise
    with np.errstate(over="ignore"):
        scale = np.linalg.norm(H) ** H.shape[0]
    if abs(coeffs[0]) > Q0_RTOL * scale:
        raise DegenerateAngularMetric(
            f"constant charpoly term {coeffs[0]:.3e} not negligible "
            f"against ||H||^n = {scale:.3e}")
    f = coeffs[1:].copy()
    return FirstIntegralVector(f=f, delta=f * jet.det_g)


def f1_closed_form(jets: PairJets) -> float:
    """f_1 = (F/F~)^(n+1) det g~ / det g, bypassing the polynomial."""
    jet, jet_t = jets.base, jets.comparison
    return (jet.F / jet_t.F) ** (jets.dim + 1) * jet_t.det_g / jet.det_g


def fn1_closed_form(jets: PairJets) -> float:
    """f_{n-1} = Tr H = (F/F~) g^{ij} h~_{ij}."""
    jet, jet_t = jets.base, jets.comparison
    return (jet.F / jet_t.F) * float(np.trace(jet.g_inv @ jet_t.h))


def _volume_ratio(det_g: float, det_g_t: float, n: int) -> float:
    """(det g / det g~)^(1/(n+1)); both determinants are positive because
    every jet certifies that its metric is strongly convex."""
    return (det_g / det_g_t) ** (1.0 / (n + 1))


def mu(jets: PairJets) -> float:
    """Volume-density ratio mu = (det g / det g~)^(1/(n+1))."""
    return _volume_ratio(jets.base.det_g, jets.comparison.det_g, jets.dim)


def painleve_I0(jets: PairJets) -> float:
    """Painleve-type integral I_0 = mu^2 F~^2 (equals F^2 / f_1^(2/(n+1)))."""
    jet, jet_t = jets.base, jets.comparison
    return _volume_ratio(jet.det_g, jet_t.det_g, jets.dim) ** 2 * jet_t.F ** 2


def tm_I1(jets: PairJets) -> float:
    """Quadratic-type integral I_1 = mu^3 g^{ij}(g~_{ij} g~_{kl} -
    g~_{ik} g~_{jl}) y^k y^l (equals f_{n-1} F~^3 mu^3 / F)."""
    jet, jet_t, y = jets.base, jets.comparison, jets.y
    m3 = _volume_ratio(jet.det_g, jet_t.det_g, jets.dim) ** 3
    gty = jet_t.g @ y
    return m3 * (float(np.trace(jet.g_inv @ jet_t.g)) * float(y @ gty)
                 - float(gty @ jet.g_inv @ gty))


def sarlet_K(jets: PairJets) -> np.ndarray:
    """Special conformal Killing tensor K = (det g~/det g)^(1/(n+1)) g~^{-1} g.

    Only the tensor itself is exposed; the scalar integral it generates
    carries the same information as I_0.
    """
    jet, jet_t = jets.base, jets.comparison
    scale = 1.0 / _volume_ratio(jet.det_g, jet_t.det_g, jets.dim)
    return scale * (jet_t.g_inv @ jet.g)


def integrals_along(pair: ProjectivePair, traj: GeodesicTrajectory) -> np.ndarray:
    """f_1..f_n evaluated at every trajectory sample, shape (n_samples, n).

    Along a geodesic of the pair's base metric, the base jets the
    integrator evaluated at each sample are reused, and only the comparison
    metric is evaluated here; along any other metric's geodesics both are.
    Each metric evaluated here runs one stacked pass over all samples.
    """
    states = traj.states
    if traj.metric is not pair.base:
        return np.array([first_integrals(jets).f
                         for jets in pair_jets(pair, states)])
    return np.array([
        first_integrals(PairJets(jet, jet_t, p.y)).f
        for jet, jet_t, p in zip(traj.jets,
                                 metric_jet(pair.comparison, states), states)])
