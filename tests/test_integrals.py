"""H tensor, characteristic polynomial, first integrals, closed-form checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finvar import (ConfigError, ProjectivePair, SingularMetric, TangentPoint,
                    build_H, charpoly_coefficients, f1_closed_form,
                    first_integrals, fn1_closed_form, integrals_along,
                    integrate_geodesic, mu, pair_jets, painleve_I0,
                    sarlet_K, tm_I1)
from finvar.oracle import charpoly_by_interpolation

from conftest import (PASSING_KINDS, catalog_metric, make_metric, make_pair,
                      sample_points)


def scaled_pair(base_kind, n, c):
    base = make_metric(base_kind, n)
    comp = make_metric("scaled", n, factor=c, base={"kind": base_kind, "dim": n})
    return ProjectivePair(base, comp)


class TestHTensor:
    def test_scaled_pair_closed_form(self):
        pair = scaled_pair("klein", 3, 2.0)
        p = TangentPoint([0.1, -0.2, 0.05], [0.3, 0.7, -0.4])
        jets = pair_jets(pair, p)
        H = build_H(jets)
        jet = jets.base
        expect = 2.0 * (np.eye(3) - np.outer(p.y / jet.F, jet.F_y))
        assert np.abs(H - expect).max() <= 1e-12 * np.abs(expect).max()
        eigs = np.sort(np.linalg.eigvals(H).real)
        assert eigs == pytest.approx([0.0, 2.0, 2.0], abs=1e-10)

    def test_euclid_klein_at_origin(self):
        pair = make_pair("euclidean", "klein", 2)
        p = TangentPoint([0.0, 0.0], [0.6, 0.8])
        H = build_H(pair_jets(pair, p))
        yhat = p.y / np.linalg.norm(p.y)
        assert np.abs(H - (np.eye(2) - np.outer(yhat, yhat))).max() < 1e-14

    @pytest.mark.parametrize("kinds", PASSING_KINDS, ids=lambda k: "-".join(k))
    def test_kernel_and_homogeneity(self, kinds):
        pair = make_pair(*kinds, 3)
        for p in sample_points(pair, 25, seed=61):
            H = build_H(pair_jets(pair, p))
            assert np.abs(H @ p.y).max() \
                <= 1e-10 * np.abs(H).max() * np.linalg.norm(p.y)
            for lam in (0.5, 2.0):
                H2 = build_H(pair_jets(pair, TangentPoint(p.x, lam * p.y)))
                assert np.abs(H2 - H).max() <= 1e-10 * np.abs(H).max()


class TestCharpoly:
    def test_identity_matrix(self):
        assert charpoly_coefficients(np.eye(2)) == pytest.approx([1.0, 2.0, 1.0])

    def test_zero_matrix(self):
        assert charpoly_coefficients(np.zeros((3, 3))) == pytest.approx(
            [0.0, 0.0, 0.0, 1.0], abs=0)

    def test_leading_coefficient_exactly_one(self):
        M = np.random.default_rng(0).uniform(-3, 3, size=(5, 5))
        assert charpoly_coefficients(M)[-1] == 1.0

    def test_random_4x4_matches_interpolation(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            M = rng.uniform(-1, 1, size=(4, 4))
            a = charpoly_coefficients(M)
            b = charpoly_by_interpolation(M)
            assert np.abs(a - b).max() <= 1e-9 * max(1.0, np.abs(a).max())

    def test_shape_guards(self):
        with pytest.raises(ConfigError):
            charpoly_coefficients(np.zeros((2, 3)))
        with pytest.raises(ConfigError):
            charpoly_coefficients(np.zeros((1, 1)))

    @given(st.integers(min_value=2, max_value=6), st.integers())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_interpolation_property(self, n, seed):
        M = np.random.default_rng(seed % 2 ** 32).uniform(-1, 1, size=(n, n))
        a = charpoly_coefficients(M)
        b = charpoly_by_interpolation(M)
        assert np.abs(a - b).max() <= 1e-9 * max(1.0, np.abs(a).max())


class TestFirstIntegrals:
    def test_scaled_pair_binomial_values(self):
        pair = scaled_pair("euclidean", 3, 2.0)
        p = TangentPoint([0.3, 0.3, 0.3], [1.0, -2.0, 0.5])
        jets = pair_jets(pair, p)
        fiv = first_integrals(jets)
        assert fiv.f == pytest.approx([4.0, 4.0, 1.0], abs=1e-12)
        assert fiv.delta == pytest.approx(fiv.f * jets.base.det_g, rel=1e-12)

    @pytest.mark.parametrize("kinds", PASSING_KINDS, ids=lambda k: "-".join(k))
    def test_f_n_is_one(self, kinds):
        pair = make_pair(*kinds, 2)
        for p in sample_points(pair, 10, seed=71):
            assert first_integrals(pair_jets(pair, p)).f[-1] == \
                pytest.approx(1.0, abs=1e-12)

    def test_f1_equals_interpolation_and_closed_form(self):
        pair = make_pair("euclidean", "klein", 2)
        p = TangentPoint([0.1, 0.2], [1.0, 0.0])
        jets = pair_jets(pair, p)
        fiv = first_integrals(jets)
        interp = charpoly_by_interpolation(build_H(jets))
        assert fiv.f[0] == pytest.approx(interp[1], rel=1e-9)
        jet, jet_t = jets.base, jets.comparison
        closed = (jet.F / jet_t.F) ** 3 * jet_t.det_g / jet.det_g
        assert fiv.f[0] == pytest.approx(closed, rel=1e-9)

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_zero_homogeneity(self, lam):
        pair = make_pair("euclidean", "funk", 3)
        for p in sample_points(pair, 15, seed=73):
            a = first_integrals(pair_jets(pair, p)).f
            q = TangentPoint(p.x, lam * p.y)
            b = first_integrals(pair_jets(pair, q)).f
            assert np.abs(a - b).max() <= 1e-10 * np.abs(a).max()

    def test_constant_term_small_at_random_points(self):
        for kinds in PASSING_KINDS:
            pair = make_pair(*kinds, 3)
            for p in sample_points(pair, 15, seed=79):
                H = build_H(pair_jets(pair, p))
                q0 = charpoly_coefficients(H)[0]
                assert abs(q0) <= 1e-10 * np.linalg.norm(H) ** 3


class TestClosedForms:
    @pytest.mark.parametrize("n,c", [(2, 0.5), (3, 2.0), (4, 3.0)])
    def test_f1_scaled(self, n, c):
        pair = scaled_pair("euclidean", n, c)
        p = TangentPoint([0.1] * n, [1.0] + [0.25] * (n - 1))
        jets = pair_jets(pair, p)
        assert f1_closed_form(jets) == pytest.approx(c ** (n - 1), rel=1e-12)
        assert first_integrals(jets).f[0] == pytest.approx(
            f1_closed_form(jets), rel=1e-9)

    def test_f1_identity_pair(self):
        pair = make_pair("funk", "funk", 2)
        p = TangentPoint([0.2, -0.1], [0.5, 1.0])
        assert f1_closed_form(pair_jets(pair, p)) == \
            pytest.approx(1.0, rel=1e-13)

    def test_f1_euclid_funk_random(self):
        pair = make_pair("euclidean", "funk", 2)
        for p in sample_points(pair, 40, seed=83):
            jets = pair_jets(pair, p)
            fiv = first_integrals(jets)
            assert abs(fiv.f[0] - f1_closed_form(jets)) \
                <= 1e-9 * abs(fiv.f[0])

    @pytest.mark.parametrize("n,c", [(2, 2.0), (3, 0.5), (4, 3.0)])
    def test_fn1_scaled(self, n, c):
        pair = scaled_pair("klein", n, c)
        p = TangentPoint([0.1] * n, [1.0] + [-0.3] * (n - 1))
        assert fn1_closed_form(pair_jets(pair, p)) == \
            pytest.approx(c * (n - 1), rel=1e-12)

    def test_fn1_identity_pair(self):
        pair = make_pair("klein", "klein", 3)
        p = TangentPoint([0.1, 0.0, 0.2], [1.0, 0.5, -0.5])
        assert fn1_closed_form(pair_jets(pair, p)) == \
            pytest.approx(2.0, rel=1e-13)

    def test_fn1_matches_charpoly_trace_term(self):
        pair = make_pair("euclidean", "klein", 3)
        for p in sample_points(pair, 30, seed=89):
            jets = pair_jets(pair, p)
            fiv = first_integrals(jets)
            assert abs(fiv.f[1] - fn1_closed_form(jets)) \
                <= 1e-12 * abs(fiv.f[1])

    def test_mu_values(self):
        pair = make_pair("funk", "funk", 2)
        p = TangentPoint([0.2, 0.1], [1.0, 0.0])
        assert mu(pair_jets(pair, p)) == pytest.approx(1.0, rel=1e-13)
        pair = scaled_pair("euclidean", 3, 2.0)
        p = TangentPoint([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
        assert mu(pair_jets(pair, p)) == \
            pytest.approx(2.0 ** (-6.0 / 4.0), rel=1e-13)
        pair = make_pair("euclidean", "klein", 2)
        p = TangentPoint([0.0, 0.0], [0.3, 0.4])
        assert mu(pair_jets(pair, p)) == pytest.approx(1.0, rel=1e-13)

    def test_indefinite_comparison_is_singular(self):
        # a pseudo-metric whose tensor is indefinite where evaluated: the
        # volume ratio is undefined there, and the jet refuses the point
        from finvar.autodiff import gsqrt
        from finvar.metrics import FinslerMetric
        indefinite = FinslerMetric(
            "indefinite", 2,
            lambda xs, ys: gsqrt(ys[0] * ys[0] - 0.5 * ys[1] * ys[1]),
            lambda x: True)
        pair = ProjectivePair(make_metric("euclidean", 2), indefinite)
        with pytest.raises(SingularMetric):
            pair_jets(pair, TangentPoint([0.0, 0.0], [1.0, 0.1]))

    def test_painleve_identity_pair(self):
        pair = make_pair("klein", "klein", 2)
        p = TangentPoint([0.3, 0.1], [0.7, -0.2])
        jets = pair_jets(pair, p)
        assert painleve_I0(jets) == pytest.approx(jets.base.F ** 2, rel=1e-12)

    def test_painleve_scaled_via_identity(self):
        # n=2, c=2: f_1 = 2, so I_0 = F^2 / 2^(2/3); both routes must agree
        pair = scaled_pair("euclidean", 2, 2.0)
        p = TangentPoint([0.1, 0.4], [0.8, -0.6])
        jets = pair_jets(pair, p)
        F = jets.base.F
        i0 = painleve_I0(jets)
        f1 = first_integrals(jets).f[0]
        assert f1 == pytest.approx(2.0, abs=1e-12)
        assert i0 == pytest.approx(F ** 2 / f1 ** (2.0 / 3.0), rel=1e-12)
        assert i0 == pytest.approx(F ** 2 * 2.0 ** (-2.0 / 3.0), rel=1e-12)

    @pytest.mark.parametrize("kinds", PASSING_KINDS, ids=lambda k: "-".join(k))
    def test_ri0_identity_random_points(self, kinds):
        pair = make_pair(*kinds, 3)
        for p in sample_points(pair, 25, seed=97):
            jets = pair_jets(pair, p)
            F = jets.base.F
            f1 = first_integrals(jets).f[0]
            i0 = painleve_I0(jets)
            assert abs(F ** 2 / f1 ** (2.0 / 4.0) - i0) <= 1e-9 * abs(i0)

    def test_painleve_conserved_for_flat_constant_pair(self):
        # two constant flat metrics (trivially projectively related): I_0
        # must be constant along straight geodesics
        base = make_metric("euclidean", 2)
        comp = catalog_metric({"kind": "riemannian", "dim": 2,
                               "field": "const_diag", "params": [2.0, 3.0]})
        pair = ProjectivePair(base, comp)
        traj = integrate_geodesic(base, TangentPoint([0.0, 0.0], [0.4, 0.3]),
                                  1.0)
        vals = [painleve_I0(pair_jets(pair, TangentPoint(x, y)))
                for x, y in zip(traj.jets.x, traj.jets.y)]
        assert np.abs(np.array(vals) - vals[0]).max() <= 1e-10 * abs(vals[0])

    def test_tm_i1_identity_pair(self):
        for n in (2, 3):
            pair = make_pair("klein", "klein", n)
            p = TangentPoint([0.1] * n, [1.0] + [0.2] * (n - 1))
            jets = pair_jets(pair, p)
            assert tm_I1(jets) == pytest.approx((n - 1) * jets.base.F ** 2,
                                                rel=1e-12)

    def test_tm_i1_scaled_identity(self):
        pair = scaled_pair("funk", 2, 2.0)
        p = TangentPoint([0.1, -0.3], [0.9, 0.4])
        jets = pair_jets(pair, p)
        jet, jet_t = jets.base, jets.comparison
        lhs = (first_integrals(jets).f[0] * jet_t.F ** 3
               * mu(jets) ** 3 / jet.F)
        assert tm_I1(jets) == pytest.approx(lhs, rel=1e-12)

    @pytest.mark.parametrize("kinds", PASSING_KINDS, ids=lambda k: "-".join(k))
    def test_ri1_identity_random_points(self, kinds):
        pair = make_pair(*kinds, 3)
        for p in sample_points(pair, 25, seed=101):
            jets = pair_jets(pair, p)
            jet, jet_t = jets.base, jets.comparison
            fiv = first_integrals(jets)
            lhs = fiv.f[1] * jet_t.F ** 3 * mu(jets) ** 3 / jet.F
            i1 = tm_I1(jets)
            assert abs(lhs - i1) <= 1e-9 * abs(i1)

    def test_sarlet_tensor(self):
        pair = make_pair("funk", "funk", 2)
        p = TangentPoint([0.2, 0.0], [1.0, 0.5])
        assert np.abs(sarlet_K(pair_jets(pair, p)) - np.eye(2)).max() < 1e-12
        pair = scaled_pair("euclidean", 3, 2.0)
        p = TangentPoint([0.0, 0.0, 0.0], [1.0, 0.0, 1.0])
        expect = 2.0 ** (-2.0 / 4.0) * np.eye(3)
        assert np.abs(sarlet_K(pair_jets(pair, p)) - expect).max() < 1e-12
        pair = make_pair("euclidean", "klein", 2)
        p = TangentPoint([0.0, 0.0], [0.3, 0.4])
        assert np.abs(sarlet_K(pair_jets(pair, p)) - np.eye(2)).max() < 1e-12


class Test2DProportionality:
    @pytest.mark.parametrize("kinds", PASSING_KINDS, ids=lambda k: "-".join(k))
    def test_angular_metrics_proportional(self, kinds):
        pair = make_pair(*kinds, 2)
        for p in sample_points(pair, 20, seed=103):
            jets = pair_jets(pair, p)
            jet, jet_t = jets.base, jets.comparison
            f1 = first_integrals(jets).f[0]
            lhs = jet_t.h / jet_t.F
            rhs = f1 * jet.h / jet.F
            assert np.abs(lhs - rhs).max() <= 1e-9 * np.abs(jet.h / jet.F).max()


class TestConservationSmoke:
    # full protocol lives in the acceptance suite; this is a fast check
    def test_passing_pair_drift_small(self):
        pair = make_pair("euclidean", "klein", 2)
        for p0 in sample_points(pair, 3, seed=107, velocity_scale=0.3):
            traj = integrate_geodesic(pair.base, p0, 1.0)
            f_vals = integrals_along(pair, traj)
            drift = np.abs(f_vals - f_vals[0]).max(axis=0)
            rel = drift / np.maximum(1.0, np.abs(f_vals[0]))
            assert rel[0] <= 1e-6

    def test_curved_pair_drifts(self):
        pair = make_pair("euclidean", "curved", 2)
        hits = 0
        for p0 in sample_points(pair, 3, seed=109, velocity_scale=0.3):
            traj = integrate_geodesic(pair.base, p0, 1.0)
            f_vals = integrals_along(pair, traj)
            if np.abs(f_vals - f_vals[0]).max() >= 1e-3:
                hits += 1
        assert hits >= 2

    def test_trajectory_of_another_dimension_rejected(self):
        traj = integrate_geodesic(make_metric("klein", 3),
                                  TangentPoint([0.1, 0.0, 0.0],
                                               [0.0, 0.3, 0.1]), 0.1)
        with pytest.raises(ConfigError):
            integrals_along(make_pair("euclidean", "klein", 2), traj)
