"""Acceptance gate: the full verification protocol at contract tolerances.

Each test prints one [PASS]/[FAIL] line; run with ``pytest -s`` to see them
as they complete. Expensive conservation sweeps are shared across criteria
through session fixtures.
"""

import math

import numpy as np
import pytest

from finvar import (ProjectivePair, TangentPoint, build_H, catalog_metric,
                    charpoly_coefficients, f1_closed_form, first_integrals,
                    fn1_closed_form, integrals_along, integrate_geodesic, mu,
                    pair_jets, painleve_I0, rapcsak_residual, tm_I1,
                    trajectory_energy)
from finvar.config import sample_tangent_points
from finvar.oracle import charpoly_by_interpolation, delta_alpha_combinatorial

SEED = 20260809
N_TRAJECTORIES = 20
T_END = 1.0
DRIFT_TOL = 1e-6
NEGATIVE_DRIFT = 1e-3
ENERGY_TOL = 1e-8
VELOCITY_SCALE = 0.3

PASSING = [("euclidean", "klein"), ("euclidean", "funk"),
           ("klein", "funk"), ("randers_alpha", "randers_alpha_df")]


def _metric(kind, n):
    if kind == "randers_alpha":
        return catalog_metric({"kind": "euclidean", "dim": n})
    if kind == "randers_alpha_df":
        return catalog_metric({
            "kind": "randers", "dim": n,
            "beta": {"potential": "linear", "params": [0.1] + [0.0] * (n - 1)},
        })
    if kind == "curved":
        return catalog_metric({"kind": "riemannian", "dim": n,
                               "field": "curved_x1"})
    return catalog_metric({"kind": kind, "dim": n})


def _pair(base_kind, comp_kind, n):
    return ProjectivePair(_metric(base_kind, n), _metric(comp_kind, n))


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _conservation_run(pair, integrated_metric, n):
    """Drift statistics over the seeded initial-condition protocol."""
    rng = np.random.default_rng(SEED)
    points = sample_tangent_points(pair, N_TRAJECTORIES, rng,
                                   velocity_scale=VELOCITY_SCALE)
    runs = []
    for p0 in points:
        traj = integrate_geodesic(integrated_metric, p0, T_END,
                                  method="rkf45", rtol=1e-10, atol=1e-10)
        f_vals = integrals_along(pair, traj)
        energy = trajectory_energy(traj)
        rel_drift = (np.abs(f_vals - f_vals[0])
                     / np.maximum(1.0, np.abs(f_vals[0]))).max(axis=0)
        abs_drift = np.abs(f_vals - f_vals[0]).max(axis=0)
        runs.append({
            "rel_drift": rel_drift[:n - 1],
            "abs_drift": abs_drift[:n - 1],
            "energy_drift": float(np.abs(energy - energy[0]).max()
                                  / energy[0]),
            "domain_exit": traj.domain_exit,
        })
    return runs


@pytest.fixture(scope="session")
def passing_runs():
    data = {}
    for n in (2, 3):
        for base_kind, comp_kind in PASSING:
            pair = _pair(base_kind, comp_kind, n)
            data[(base_kind, comp_kind, n)] = _conservation_run(
                pair, pair.base, n)
    return data


@pytest.fixture(scope="session")
def negative_runs():
    data = {}
    for n in (2, 3):
        pair = _pair("euclidean", "curved", n)
        data[n] = _conservation_run(pair, pair.base, n)
    return data


@pytest.fixture(scope="session")
def sharing_runs():
    # f_alpha of (euclidean, klein) evaluated along funk geodesics
    data = {}
    for n in (2, 3):
        pair = _pair("euclidean", "klein", n)
        funk = _metric("funk", n)
        data[n] = _conservation_run(pair, funk, n)
    return data


def test_criterion_1_conservation_passing_pairs(passing_runs):
    worst = 0.0
    for runs in passing_runs.values():
        for run in runs:
            worst = max(worst, run["rel_drift"].max())
    _report("criterion 1 (conservation, passing pairs)",
            worst <= DRIFT_TOL,
            f"worst relative drift {worst:.3e} vs {DRIFT_TOL:.0e} over "
            f"{sum(len(r) for r in passing_runs.values())} trajectories")


def test_criterion_2_negative_control(negative_runs):
    ok = True
    detail = []
    for n, runs in negative_runs.items():
        hits = sum(run["abs_drift"].max() >= NEGATIVE_DRIFT for run in runs)
        detail.append(f"n={n}: {hits}/{len(runs)} drifted >= "
                      f"{NEGATIVE_DRIFT:.0e}")
        ok = ok and hits >= 15
    _report("criterion 2 (negative control)", ok, "; ".join(detail))


def test_criterion_3_scaled_pair_closed_form():
    worst = 0.0
    rng = np.random.default_rng(SEED + 1)
    for n in (2, 3, 4):
        for c in (0.5, 2.0, 3.0):
            base = _metric("klein", n)
            comp = catalog_metric({"kind": "scaled", "factor": c,
                                   "base": {"kind": "klein", "dim": n}})
            pair = ProjectivePair(base, comp)
            expect = np.array([
                float(math.comb(n - 1, a - 1)) * c ** (n - a)
                for a in range(1, n + 1)])
            pts = sample_tangent_points(pair, 50, rng)
            for p in pts:
                f = first_integrals(pair_jets(pair, p)).f
                worst = max(worst, np.abs(f - expect).max())
    _report("criterion 3 (scaled pair binomial coefficients)",
            worst <= 1e-10, f"worst absolute error {worst:.3e} vs 1e-10")


def _cross_check_pairs(n):
    return [_pair(b, c, n) for b, c in PASSING]


def test_criterion_4_closed_form_cross_checks():
    worst = {"f1": 0.0, "fn1": 0.0, "ri0": 0.0, "ri1": 0.0}
    rng = np.random.default_rng(SEED + 2)
    for n in (2, 3, 4):
        for pair in _cross_check_pairs(n):
            for p in sample_tangent_points(pair, 100, rng):
                jets = pair_jets(pair, p)
                jet, jet_t = jets.base, jets.comparison
                fiv = first_integrals(jets)
                m = mu(jets)
                f1c = f1_closed_form(jets)
                worst["f1"] = max(worst["f1"],
                                  abs(fiv.f[0] - f1c) / abs(f1c))
                fn1c = fn1_closed_form(jets)
                worst["fn1"] = max(worst["fn1"],
                                   abs(fiv.f[n - 2] - fn1c) / abs(fn1c))
                i0 = painleve_I0(jets)
                worst["ri0"] = max(worst["ri0"],
                                   abs(jet.F ** 2 / fiv.f[0] ** (2 / (n + 1))
                                       - i0) / abs(i0))
                i1 = tm_I1(jets)
                lhs = fiv.f[n - 2] * jet_t.F ** 3 * m ** 3 / jet.F
                worst["ri1"] = max(worst["ri1"], abs(lhs - i1) / abs(i1))
    ok = (worst["f1"] <= 1e-9 and worst["fn1"] <= 1e-12
          and worst["ri0"] <= 1e-9 and worst["ri1"] <= 1e-9)
    _report("criterion 4 (closed-form cross-checks)", ok,
            f"f1 {worst['f1']:.2e} (1e-9), fn1 {worst['fn1']:.2e} (1e-12), "
            f"ri0 {worst['ri0']:.2e} (1e-9), ri1 {worst['ri1']:.2e} (1e-9)")


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(SEED + 3)
    worst_interp = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        M = rng.uniform(-1.0, 1.0, size=(n, n))
        a = charpoly_coefficients(M)
        b = charpoly_by_interpolation(M)
        worst_interp = max(worst_interp,
                           np.abs(a - b).max() / max(1.0, np.abs(a).max()))
    worst_comb = 0.0
    for n in (2, 3):
        for base_kind, comp_kind in PASSING:
            pair = _pair(base_kind, comp_kind, n)
            for p in sample_tangent_points(pair, 50, rng):
                jets = pair_jets(pair, p)
                fiv = first_integrals(jets)
                for alpha in range(1, n + 1):
                    delta = delta_alpha_combinatorial(jets, alpha)
                    worst_comb = max(
                        worst_comb,
                        abs(delta - fiv.delta[alpha - 1])
                        / max(1.0, abs(fiv.delta[alpha - 1])))
    ok = worst_interp <= 1e-9 and worst_comb <= 1e-8
    _report("criterion 5 (oracle equivalence)", ok,
            f"interpolation {worst_interp:.2e} (1e-9, 1000 cases), "
            f"combinatorial {worst_comb:.2e} (1e-8)")


def test_criterion_6_structural_invariants():
    rng = np.random.default_rng(SEED + 4)
    worst = {"hy": 0.0, "Hy": 0.0, "gh": 0.0, "q0": 0.0, "fn": 0.0,
             "homog": 0.0}
    for n in (2, 3):
        for base_kind, comp_kind in PASSING:
            pair = _pair(base_kind, comp_kind, n)
            for p in sample_tangent_points(pair, 25, rng):
                jets = pair_jets(pair, p)
                jet = jets.base
                yn = np.linalg.norm(p.y)
                worst["hy"] = max(worst["hy"],
                                  np.abs(jet.h @ p.y).max()
                                  / (np.abs(jet.h).max() * yn))
                H = build_H(jets)
                worst["Hy"] = max(worst["Hy"],
                                  np.abs(H @ p.y).max()
                                  / (np.abs(H).max() * yn))
                gh = jet.g - jet.h - np.outer(jet.F_y, jet.F_y)
                worst["gh"] = max(worst["gh"],
                                  np.abs(gh).max() / np.abs(jet.g).max())
                coeffs = charpoly_coefficients(H)
                worst["q0"] = max(worst["q0"],
                                  abs(coeffs[0]) / np.linalg.norm(H) ** n)
                fiv = first_integrals(jets)
                worst["fn"] = max(worst["fn"], abs(fiv.f[-1] - 1.0))
                for lam in (0.5, 2.0):
                    f2 = first_integrals(
                        pair_jets(pair, TangentPoint(p.x, lam * p.y))).f
                    worst["homog"] = max(worst["homog"],
                                         np.abs(f2 - fiv.f).max()
                                         / np.abs(fiv.f).max())
    ok = (worst["hy"] <= 1e-10 and worst["Hy"] <= 1e-10
          and worst["gh"] <= 1e-12 and worst["q0"] <= 1e-10
          and worst["fn"] <= 1e-12 and worst["homog"] <= 1e-10)
    _report("criterion 6 (structural invariants)", ok,
            f"h.y {worst['hy']:.2e} (1e-10), H.y {worst['Hy']:.2e} (1e-10), "
            f"g=h+dF*dF {worst['gh']:.2e} (1e-12), Q(0) {worst['q0']:.2e} "
            f"(1e-10), f_n {worst['fn']:.2e} (1e-12), homogeneity "
            f"{worst['homog']:.2e} (1e-10)")


def test_criterion_7_rapcsak_residual():
    rng = np.random.default_rng(SEED + 5)
    worst_pass = 0.0
    for n in (2, 3):
        for base_kind, comp_kind in PASSING:
            pair = _pair(base_kind, comp_kind, n)
            rep = rapcsak_residual(pair,
                                   sample_tangent_points(pair, 100, rng))
            worst_pass = max(worst_pass, rep.norms.max())
    neg = _pair("euclidean", "curved", 2)
    neg_rep = rapcsak_residual(neg, sample_tangent_points(neg, 100, rng))
    ok = worst_pass <= 1e-8 and neg_rep.norms.max() >= 1e-2
    _report("criterion 7 (projective-equivalence residual)", ok,
            f"passing pairs {worst_pass:.2e} (<= 1e-8), negative control "
            f"{neg_rep.norms.max():.2e} (>= 1e-2)")


def test_criterion_8_energy_conservation(passing_runs, negative_runs):
    worst = 0.0
    count = 0
    for runs in list(passing_runs.values()) + list(negative_runs.values()):
        for run in runs:
            worst = max(worst, run["energy_drift"])
            count += 1
    _report("criterion 8 (energy conservation)", worst <= ENERGY_TOL,
            f"worst relative drift {worst:.3e} vs {ENERGY_TOL:.0e} over "
            f"{count} trajectories")


def test_criterion_9_projective_class_sharing(sharing_runs):
    worst = 0.0
    for runs in sharing_runs.values():
        for run in runs:
            worst = max(worst, run["rel_drift"].max())
    _report("criterion 9 (projective-class sharing)", worst <= DRIFT_TOL,
            f"(euclidean, klein) integrals along funk geodesics: worst "
            f"relative drift {worst:.3e} vs {DRIFT_TOL:.0e}")
