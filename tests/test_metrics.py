"""Catalog formulas, MetricJet invariants, angular rank, domain handling."""

import numpy as np
import pytest

from finvar import (ConfigError, DegenerateVelocity, DomainError,
                    ProjectivePair, TangentPoint, catalog_metric, metric_jet)
from finvar.oracle import fd_derivative

from conftest import JET_FIELDS, catalog_metrics, make_metric, sample_points


class TestCatalogValues:
    def test_euclidean(self):
        m = make_metric("euclidean", 2)
        assert metric_jet(m, TangentPoint([9.0, 9.0], [3.0, 4.0])).F == 5.0

    def test_klein_at_origin(self):
        m = make_metric("klein", 2)
        assert metric_jet(m, TangentPoint([0.0, 0.0], [3.0, 4.0])).F == \
            pytest.approx(5.0, abs=1e-14)

    def test_klein_formula_off_origin(self):
        m = make_metric("klein", 2)
        x, y = np.array([0.3, -0.2]), np.array([1.0, 2.0])
        w = 1.0 - x @ x
        expect = np.sqrt((y @ y) * w + (x @ y) ** 2) / w
        assert metric_jet(m, TangentPoint(x, y)).F == pytest.approx(
            expect, rel=1e-15)

    def test_funk_non_reversible(self):
        m = make_metric("funk", 2)

        def F(x, y):
            return metric_jet(m, TangentPoint(x, y)).F

        assert not m.reversible
        # euclidean at the center regardless of direction
        assert F([0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)
        assert F([0.0, 0.0], [-3.0, -4.0]) == pytest.approx(5.0)
        fwd = F([0.5, 0.0], [1.0, 0.0])
        back = F([0.5, 0.0], [-1.0, 0.0])
        assert fwd == pytest.approx(2.0, rel=1e-14)
        assert back == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            catalog_metric({"kind": "minkowski", "dim": 2})
        with pytest.raises(ConfigError):
            catalog_metric({"dim": 2})

    def test_randers_norm_guard(self):
        with pytest.raises(ConfigError):
            catalog_metric({"kind": "randers", "dim": 2,
                            "beta": {"potential": "linear",
                                     "params": [1.5, 0.0]}})

    def test_scaled_factor_guard(self):
        for bad in (0.0, -1.0, None):
            with pytest.raises(ConfigError):
                catalog_metric({"kind": "scaled", "factor": bad,
                                "base": {"kind": "euclidean", "dim": 2}})

    def test_const_diag_needs_positive_entries(self):
        with pytest.raises(ConfigError):
            catalog_metric({"kind": "riemannian", "dim": 2,
                            "field": "const_diag", "params": [1.0, -2.0]})

    def test_randers_error_names_the_first_failing_probe(self):
        # ||beta||^2 = (x^2)^2 / 0.1: the probes are the origin, then
        # +-0.5 e_1 and +-0.5 e_2, and 0.5 e_2 is the first to reach 1
        # (-0.5 e_2, printed [-0.  -0.5], fails after it)
        with pytest.raises(ConfigError) as info:
            catalog_metric({"kind": "randers", "dim": 2,
                            "alpha_field": "const_diag",
                            "alpha_params": [0.1, 1.0],
                            "beta": {"covector": "x2_dx1"}})
        assert str(info.value) == (
            "randers: ||beta||_alpha >= 1 at probe point [0.  0.5]")

    @pytest.mark.parametrize("n", [2, 3])
    def test_randers_curved_alpha_needs_no_params(self, n):
        # curved_x1 takes no parameters, so none is the default
        desc = {"kind": "randers", "dim": n, "alpha_field": "curved_x1",
                "beta": {"potential": "linear",
                         "params": [0.1] + [0.0] * (n - 1)}}
        implicit = catalog_metric(desc)
        explicit = catalog_metric({**desc, "alpha_params": []})
        points = sample_points(ProjectivePair(implicit, implicit), 5, seed=2)
        for at in (points, points[0]):
            a, b = metric_jet(implicit, at), metric_jet(explicit, at)
            for name in JET_FIELDS:
                assert (np.asarray(getattr(a, name)).tobytes()
                        == np.asarray(getattr(b, name)).tobytes()), name

    def test_riemannian_is_named_by_the_field_it_uses(self):
        m = catalog_metric({"kind": "riemannian", "dim": 2,
                            "params": [1.0, 2.0]})
        assert m.name == "riemannian[const_diag]"
        with pytest.raises(DegenerateVelocity, match=r"^riemannian\[const_"):
            metric_jet(m, TangentPoint([0.0, 0.0], [1e-20, 0.0]))


NON_FINITE = (float("nan"), float("inf"), -float("inf"))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("beta", [
    {"potential": "linear", "params": [0.1, 0.0, 0.2]},
    {"potential": "quadratic", "params": [0.3, 0.3, 0.3]},
    {"covector": "x2_dx1"},
], ids=["linear", "quadratic", "x2_dx1"])
@pytest.mark.parametrize("field, params", [
    ("const_diag", [2.0, 0.5, 3.0]), ("curved_x1", [])])
def test_randers_domain_answers_at_non_finite_points(field, params, beta, n):
    # ||beta||^2 = sum beta_i^2 / a_i is formed elementwise, so a base point
    # holding nan or inf gets an answer, alone and in a stack, and raises no
    # floating-point warning
    beta = dict(beta, **({"params": beta["params"][:n]}
                         if "params" in beta else {}))
    randers = catalog_metric({"kind": "randers", "dim": n,
                              "alpha_field": field,
                              "alpha_params": params[:n], "beta": beta})
    points = []
    for bad in NON_FINITE:
        points.append(np.full(n, bad))
        for j in range(n):
            x = np.full(n, 0.1)
            x[j] = bad
            points.append(x)
    mask = randers.domain(np.array(points))
    assert mask.tolist() == [bool(randers.domain(x)) for x in points]
    if beta.get("potential") == "quadratic":
        # beta reads every coordinate: a non-finite one leaves the domain
        assert not mask.any()


@pytest.mark.parametrize("n", [2, 3])
def test_pair_domain_answers_for_a_stack(n):
    # as the metric predicates do: one answer per row of an (N, n) stack,
    # the one each row gets alone; the stack has points in and out of the
    # unit ball
    xs = np.random.default_rng(31).uniform(-1.2, 1.2, size=(40, n))
    xs[:3] = 0.0
    metrics = catalog_metrics(n)
    for base in metrics:
        for comparison in metrics:
            pair = ProjectivePair(base, comparison)
            mask = pair.in_domain(xs)
            assert mask.shape == (len(xs),)
            assert mask.tolist() == [bool(pair.in_domain(x)) for x in xs]


class TestTangentPoint:
    def test_zero_velocity(self):
        with pytest.raises(DegenerateVelocity):
            TangentPoint([0.0, 0.0], [0.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError):
            TangentPoint([0.0, 0.0], [1.0, 0.0, 0.0])

    def test_dimension_floor(self):
        with pytest.raises(ConfigError):
            TangentPoint([0.0], [1.0])

    def test_no_points_rejected(self):
        # a stack, and so a stacked jet, has at least one lane
        with pytest.raises(ConfigError):
            metric_jet(make_metric("euclidean", 2),
                       TangentPoint(np.empty((0, 2)), np.empty((0, 2))))

    def test_stack_indexes_its_points(self):
        points = TangentPoint([[0.1, 0.2], [-0.2, 0.0], [0.3, 0.1]],
                              [[0.3, -0.1], [1.0, 0.5], [0.0, 2.0]])
        assert len(points) == 3 and points.dim == 2
        one = points[1]
        assert one.x.tolist() == [-0.2, 0.0] and one.y.tolist() == [1.0, 0.5]
        assert one.dim == 2
        with pytest.raises(TypeError):
            len(one)
        assert len(points[1:]) == 2
        assert [p.y.tolist() for p in points] == points.y.tolist()

    def test_zero_velocity_in_a_stack_names_the_point(self):
        with pytest.raises(DegenerateVelocity) as info:
            TangentPoint([[0.0, 0.0]] * 3, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert info.value.point == 2

    @pytest.mark.parametrize("x, y", [
        ([[0.0, 0.0]], [0.0, 1.0]),               # a stack and a vector
        ([[[0.0, 0.0]]], [[[0.0, 1.0]]]),         # three axes
        ([[0.0], [0.0]], [[1.0], [1.0]]),         # dimension 1
    ], ids=["mixed_layouts", "three_axes", "dimension_floor"])
    def test_malformed_stacks(self, x, y):
        with pytest.raises(ConfigError):
            TangentPoint(x, y)

    def test_stack_dimension_must_match_the_metric(self):
        with pytest.raises(ConfigError):
            metric_jet(make_metric("klein", 3),
                       TangentPoint([[0.0, 0.0]] * 2, [[1.0, 0.0]] * 2))


class TestMetricJet:
    def test_euclid_tensors(self):
        jet = metric_jet(make_metric("euclidean", 3),
                         TangentPoint([1.0, 2.0, 3.0], [1.0, 0.0, 0.0]))
        assert np.abs(jet.g - np.eye(3)).max() < 1e-14
        yhat = np.array([1.0, 0.0, 0.0])
        assert np.abs(jet.h - (np.eye(3) - np.outer(yhat, yhat))).max() < 1e-14
        assert jet.det_g == pytest.approx(1.0, rel=1e-13)

    def test_scaled_jet_relations(self):
        base = make_metric("klein", 2)
        scaled = make_metric("scaled", 2, factor=2.0,
                             base={"kind": "klein", "dim": 2})
        p = TangentPoint([0.2, -0.1], [0.7, 0.4])
        j, js = metric_jet(base, p), metric_jet(scaled, p)
        assert np.abs(js.g - 4.0 * j.g).max() < 1e-12 * np.abs(j.g).max()
        assert np.abs(js.h - 4.0 * j.h).max() < 1e-12 * np.abs(j.h).max()
        assert js.det_g == pytest.approx(2.0 ** 4 * j.det_g, rel=1e-12)

    def test_klein_g_matches_fd_of_half_square_hessian(self):
        m = make_metric("klein", 2)
        x, y = [0.3, 0.0], [0.0, 1.0]
        jet = metric_jet(m, TangentPoint(x, y))
        fd_g = 0.5 * fd_derivative(
            lambda xs, ys: m.evaluator(xs, ys) ** 2, x, y, "y_hess")
        assert np.abs(jet.g - fd_g).max() / np.abs(fd_g).max() < 1e-6

    @pytest.mark.parametrize("metric", catalog_metrics(2) + catalog_metrics(3),
                             ids=lambda m: f"{m.name}-{m.dim}")
    def test_invariants_on_random_points(self, metric):
        pts = sample_points(ProjectivePair(metric, metric), 200, seed=17)
        for p in pts:
            jet = metric_jet(metric, p)
            scale = np.abs(jet.g).max()
            assert np.abs(jet.g - jet.h - np.outer(jet.F_y, jet.F_y)).max() \
                <= 1e-12 * scale
            assert np.abs(jet.h @ p.y).max() \
                <= 1e-10 * np.abs(jet.h).max() * np.linalg.norm(p.y)
            euler = jet.g @ p.y - jet.F * jet.F_y
            assert np.abs(euler).max() <= 1e-10 * jet.F * np.abs(jet.F_y).max()
            assert np.abs(jet.g @ jet.g_inv - np.eye(p.dim)).max() <= 1e-10
            assert jet.det_g != 0.0

    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_g_and_h_zero_homogeneous(self, lam):
        for metric in catalog_metrics(2):
            for p in sample_points(ProjectivePair(metric, metric), 20, seed=23):
                a = metric_jet(metric, p)
                b = metric_jet(metric, TangentPoint(p.x, lam * p.y))
                assert np.abs(a.g - b.g).max() <= 1e-10 * np.abs(a.g).max()
                assert np.abs(a.h - b.h).max() <= 1e-10 * np.abs(a.h).max()

    def test_riemannian_constant_matrix_reproduced(self):
        A = np.diag([2.0, 3.0, 4.0])
        m = catalog_metric({"kind": "riemannian", "dim": 3,
                            "field": "const_diag", "params": [2.0, 3.0, 4.0]})
        for p in sample_points(ProjectivePair(m, m), 30, seed=29):
            jet = metric_jet(m, p)
            assert np.abs(jet.g - A).max() <= 1e-10 * A.max()

    def test_domain_margin(self):
        m = make_metric("klein", 2)
        with pytest.raises(DomainError):
            metric_jet(m, TangentPoint([1.2, 0.0], [1.0, 0.0]))
        with pytest.raises(DomainError):
            # inside the ball but within the 1e-9 safety margin
            metric_jet(m, TangentPoint([1.0 - 1e-10, 0.0], [1.0, 0.0]))

    def test_rank_one_field_is_singular(self):
        from finvar import SingularMetric
        from finvar.autodiff import gsqrt
        from finvar.metrics import FinslerMetric
        # F^2 = (y1 + y2)^2 has a rank-one velocity Hessian
        degenerate = FinslerMetric(
            "rank-one", 2,
            lambda xs, ys: gsqrt((ys[0] + ys[1]) * (ys[0] + ys[1])),
            lambda x: True)
        with pytest.raises(SingularMetric):
            metric_jet(degenerate, TangentPoint([0.0, 0.0], [1.0, 0.5]))

    def test_value_floor_rejected(self):
        m = make_metric("euclidean", 2)
        with pytest.raises(DegenerateVelocity):
            metric_jet(m, TangentPoint([0.0, 0.0], [1e-300, 0.0]))


def null_count(eigs):
    """Eigenvalues of h within 1e-9 of its largest in modulus."""
    return int(np.sum(np.abs(eigs) <= 1e-9 * np.abs(eigs).max()))


class TestAngularRank:
    def test_euclid_projector_spectrum(self):
        jet = metric_jet(make_metric("euclidean", 3),
                         TangentPoint([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]))
        eigs = np.linalg.eigvalsh(jet.h)
        assert null_count(eigs) == 1
        assert np.sort(eigs) == pytest.approx([0.0, 1.0, 1.0], abs=1e-12)

    def test_randers_rank_on_random_points(self):
        m = catalog_metric({"kind": "randers", "dim": 3,
                            "beta": {"potential": "quadratic",
                                     "params": [0.4, 0.2, 0.1]}})
        for p in sample_points(ProjectivePair(m, m), 25, seed=31):
            assert null_count(np.linalg.eigvalsh(metric_jet(m, p).h)) == 1

    def test_scaled_eigenvalues_scale_quadratically(self):
        base = make_metric("funk", 2)
        scaled = make_metric("scaled", 2, factor=2.0,
                             base={"kind": "funk", "dim": 2})
        p = TangentPoint([0.1, 0.2], [1.0, -0.3])
        a = np.linalg.eigvalsh(metric_jet(base, p).h)
        b = np.linalg.eigvalsh(metric_jet(scaled, p).h)
        assert np.sort(b) == pytest.approx(4.0 * np.sort(a), rel=1e-10)


def test_pair_dimension_check():
    with pytest.raises(ConfigError):
        ProjectivePair(make_metric("euclidean", 2), make_metric("klein", 3))
