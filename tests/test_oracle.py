"""The brute-force verifiers themselves: hand values and mutual agreement."""

import numpy as np
import pytest

from finvar import (ConfigError, DomainError, OracleScopeExceeded,
                    TangentPoint, charpoly_by_interpolation,
                    charpoly_coefficients,
                    christoffel_oracle, delta_alpha_combinatorial,
                    fd_derivative, first_integrals, metric_jet, pair_jets)
from finvar.metrics import FinslerMetric

from conftest import curved_matrix, make_metric, make_pair, sample_points


class TestInterpolationCharpoly:
    def test_diag_example(self):
        coeffs = charpoly_by_interpolation(np.diag([1.0, 2.0]))
        assert coeffs == pytest.approx([2.0, 3.0, 1.0], abs=1e-12)

    def test_zero_matrix(self):
        coeffs = charpoly_by_interpolation(np.zeros((3, 3)))
        assert coeffs == pytest.approx([0.0, 0.0, 0.0, 1.0], abs=1e-12)

    def test_matches_production_path_on_H(self):
        pair = make_pair("euclidean", "klein", 2)
        from finvar import build_H
        for p in sample_points(pair, 20, seed=113):
            H = build_H(pair_jets(pair, p))
            a = charpoly_coefficients(H)
            b = charpoly_by_interpolation(H)
            assert np.abs(a - b).max() <= 1e-9 * max(1.0, np.abs(a).max())

    def test_node_rescaling_handles_large_matrices(self):
        rng = np.random.default_rng(127)
        M = 1e4 * rng.uniform(-1, 1, size=(4, 4))
        a = charpoly_coefficients(M)
        b = charpoly_by_interpolation(M)
        assert np.abs(a - b).max() <= 1e-9 * np.abs(a).max()


class TestCombinatorialDelta:
    def test_n2_alpha1_closed_form(self):
        pair = make_pair("euclidean", "klein", 2)
        p = TangentPoint([0.1, 0.2], [1.0, 0.0])
        jet = metric_jet(pair.base, p)
        jet_t = metric_jet(pair.comparison, p)
        delta1 = delta_alpha_combinatorial(pair_jets(pair, p), 1)
        expect = (jet.F / jet_t.F) ** 3 * jet_t.det_g
        assert delta1 == pytest.approx(expect, rel=1e-8)

    def test_n2_alpha2_is_det_g(self):
        pair = make_pair("euclidean", "funk", 2)
        p = TangentPoint([0.15, -0.2], [0.3, 1.0])
        delta2 = delta_alpha_combinatorial(pair_jets(pair, p), 2)
        assert delta2 == pytest.approx(metric_jet(pair.base, p).det_g,
                                       rel=1e-10)

    def test_n3_matches_charpoly_path(self):
        pair = make_pair("euclidean", "klein", 3)
        for p in sample_points(pair, 10, seed=131):
            fiv = first_integrals(pair_jets(pair, p))
            for alpha in (1, 2, 3):
                delta = delta_alpha_combinatorial(pair_jets(pair, p), alpha)
                assert abs(delta - fiv.delta[alpha - 1]) \
                    <= 1e-8 * max(1.0, abs(fiv.delta[alpha - 1]))

    def test_scope_limit(self):
        pair = make_pair("euclidean", "klein", 4)
        p = TangentPoint([0.1, 0.0, 0.0, 0.1], [1.0, 0.0, 0.5, 0.0])
        with pytest.raises(OracleScopeExceeded):
            delta_alpha_combinatorial(pair_jets(pair, p), 1)

    def test_alpha_range_guard(self):
        pair = make_pair("euclidean", "klein", 2)
        p = TangentPoint([0.0, 0.1], [1.0, 0.0])
        with pytest.raises(ConfigError):
            delta_alpha_combinatorial(pair_jets(pair, p), 0)

    def test_coordinate_relabeling_leaves_f_alpha_unchanged(self):
        # conjugate the whole construction by a coordinate permutation; the
        # globally defined f_alpha must not move
        perm = [2, 0, 1]
        pair = make_pair("euclidean", "klein", 3)

        def relabel(m):
            return FinslerMetric(
                m.name + "-perm", 3,
                lambda xs, ys, _m=m: _m.evaluator([xs[i] for i in perm],
                                                  [ys[i] for i in perm]),
                lambda x, _m=m: _m.domain(x[perm]))

        from finvar import ProjectivePair
        pair_p = ProjectivePair(relabel(pair.base), relabel(pair.comparison))
        inv = np.argsort(perm)
        for p in sample_points(pair, 5, seed=137):
            f = first_integrals(pair_jets(pair, p)).f
            p_relabeled = TangentPoint(p.x[inv], p.y[inv])
            f_p = first_integrals(pair_jets(pair_p, p_relabeled)).f
            assert np.abs(f - f_p).max() <= 1e-10 * max(1.0, np.abs(f).max())
            d = delta_alpha_combinatorial(pair_jets(pair, p), 1)
            d_p = delta_alpha_combinatorial(pair_jets(pair_p, p_relabeled), 1)
            assert d == pytest.approx(d_p, rel=1e-10)


class TestFiniteDifferences:
    def test_euclid_gradient(self):
        m = make_metric("euclidean", 2)
        grad = fd_derivative(m.evaluator, [0.0, 0.0], [3.0, 4.0], "y_grad")
        assert grad == pytest.approx([0.6, 0.8], abs=1e-10)

    def test_funk_hessian_matches_ad(self):
        from finvar import xy_jet2
        m = make_metric("funk", 2)
        x, y = [0.1, 0.1], [1.0, 0.0]
        fd = fd_derivative(m.evaluator, x, y, "y_hess")
        hess = xy_jet2(m.evaluator, x, y).hess[:, 2:]
        assert np.abs(fd - hess).max() / np.abs(fd).max() <= 1e-6

    def test_klein_x_gradient_at_origin(self):
        m = make_metric("klein", 2)
        grad = fd_derivative(m.evaluator, [0.0, 0.0], [1.0, 2.0], "x_grad")
        assert np.abs(grad).max() <= 1e-9

    def test_value_selector(self):
        m = make_metric("euclidean", 2)
        assert fd_derivative(m.evaluator, [0.0, 0.0], [3.0, 4.0], "value") == \
            pytest.approx(5.0)

    def test_step_range_guard(self):
        m = make_metric("euclidean", 2)
        for bad in (1e-9, 1e-2):
            with pytest.raises(ConfigError):
                fd_derivative(m.evaluator, [0.0, 0.0], [1.0, 0.0], "y_grad",
                              step=bad)

    def test_unknown_selector(self):
        m = make_metric("euclidean", 2)
        with pytest.raises(ConfigError):
            fd_derivative(m.evaluator, [0.0, 0.0], [1.0, 0.0], "y_jerk")

    def test_domain_margin_guard(self):
        m = make_metric("klein", 2)
        x = [1.0 - 1e-6, 0.0]  # in-domain, but 2*step crosses the boundary
        with pytest.raises(DomainError):
            fd_derivative(m.evaluator, x, [1.0, 0.0], "x_grad", step=1e-5,
                          domain=m.domain)


class TestChristoffel:
    def test_constant_matrix_vanishes(self):
        gamma = christoffel_oracle(lambda xs: [[2.0, 0.0], [0.0, 3.0]],
                                   [0.4, -0.1])
        assert np.abs(gamma).max() < 1e-12

    def test_curved_hand_values(self):
        gamma = christoffel_oracle(curved_matrix, [1.0, 0.0])
        # nonzero entries of diag(1, 1 + (x1)^2) at x1 = 1
        assert gamma[1, 0, 1] == pytest.approx(0.5, abs=1e-6)
        assert gamma[1, 1, 0] == pytest.approx(0.5, abs=1e-6)
        assert gamma[0, 1, 1] == pytest.approx(-1.0, abs=1e-6)
        mask = np.ones((2, 2, 2), dtype=bool)
        mask[1, 0, 1] = mask[1, 1, 0] = mask[0, 1, 1] = False
        assert np.abs(gamma[mask]).max() < 1e-6

    def test_spray_consistency(self):
        m = make_metric("curved", 3)
        p = TangentPoint([0.7, -0.2, 0.3], [0.5, 1.0, -0.8])
        gamma = christoffel_oracle(curved_matrix, p.x)
        G_ref = 0.5 * np.einsum("ijk,j,k->i", gamma, p.y, p.y)
        G = metric_jet(m, p).G
        assert np.abs(G - G_ref).max() <= 1e-6 * max(1.0, np.abs(G_ref).max())

    def test_non_positive_definite_rejected(self):
        with pytest.raises(DomainError):
            christoffel_oracle(lambda xs: [[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
