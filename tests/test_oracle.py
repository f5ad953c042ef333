"""The brute-force verifiers themselves: hand values and mutual agreement."""

import numpy as np
import pytest

from finvar import (ConfigError, OracleScopeExceeded, TangentPoint,
                    charpoly_by_interpolation, charpoly_coefficients,
                    delta_alpha_combinatorial, first_integrals, metric_jet,
                    pair_jets)
from finvar.metrics import FinslerMetric
from finvar.oracle import _permutation_pairs

from conftest import make_pair, sample_points


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
                lambda xs, _m=m: _m.region([xs[i] for i in perm]))

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


def test_permutation_pairs_are_built_once_per_dimension():
    # the pair arrays, read-only, shared by every alpha and every call
    pair = make_pair("klein", "funk", 3)
    jets = pair_jets(pair, sample_points(pair, 4, seed=2))
    before = _permutation_pairs.cache_info().misses
    for alpha in (1, 2, 3):
        delta_alpha_combinatorial(jets, alpha)
    assert _permutation_pairs.cache_info().misses <= before + 1
    s1, s2, sign = _permutation_pairs(3)
    assert s1.shape == s2.shape == (3, 36) and sign.shape == (36,)
    assert not any(a.flags.writeable for a in (s1, s2, sign))
    assert _permutation_pairs(3)[0] is s1
