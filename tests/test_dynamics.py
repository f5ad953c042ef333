"""Spray coefficients, geodesic integration, and the Rapcsak residual."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import finvar.metrics
from finvar import (ConfigError, FinvarError, IntegratorStall,
                    NonReversibleBackward, ProjectivePair, TangentPoint,
                    integrate_geodesic, metric_jet, rapcsak_residual,
                    trajectory_energy)
from finvar.autodiff import gsqrt, xy_jet2
from finvar.dynamics import (_RKF_A, _RKF_B5, _RKF_ERR, _flow, _rkf45_step,
                             _stage_flow, _state_jet)
from finvar.metrics import FinslerMetric

import symbolic_oracle
from conftest import (JET_FIELDS, catalog_metrics, curved_matrix,
                      make_metric, make_pair, metric_id, path_distance,
                      sample_points, symbolic_cases, wall_clock)


def hyperbolic_matrix(xs):
    """klein's matrix field ((1 - |x|^2) I + x x^T) / (1 - |x|^2)^2."""
    n = len(xs)
    w = 1 - sum(v * v for v in xs)
    return [[((w if i == j else 0) + xs[i] * xs[j]) / w ** 2
             for j in range(n)] for i in range(n)]


EUCLID = make_metric("euclidean", 2)
KLEIN = make_metric("klein", 2)
FUNK = make_metric("funk", 2)
CURVED = make_metric("curved", 2)
# the metrics of symbolic_cases() by name and dimension, whose symbolic jets
# are cached
SYMBOLIC_METRICS = {(m.name, m.dim): m for m in symbolic_cases()
                    if isinstance(m, FinslerMetric)}


class TestSpray:
    def test_euclid_spray_vanishes(self):
        p = TangentPoint([0.4, -0.2], [1.0, 2.0])
        G = metric_jet(EUCLID, p).G
        assert np.abs(G).max() < 1e-14

    def test_constant_riemannian_spray_vanishes(self):
        from finvar import catalog_metric
        m = catalog_metric({"kind": "riemannian", "dim": 3,
                            "field": "const_diag", "params": [2.0, 3.0, 5.0]})
        p = TangentPoint([0.1, 0.2, 0.3], [1.0, -1.0, 0.5])
        G = metric_jet(m, p).G
        assert np.abs(G).max() < 1e-12

    @pytest.mark.parametrize("metric", symbolic_cases(), ids=metric_id)
    def test_spray_matches_symbolic_spray(self, metric):
        # Riemannian or not: G from the exact jet, against the size of the
        # terms that form it, as klein's G nearly vanishes at the origin
        points = sample_points(ProjectivePair(metric, metric), 25, seed=29)
        jets = metric_jet(metric, points)
        for k, p in enumerate(points):
            _, _, G, scale = symbolic_oracle.tensors(metric, p.x, p.y)
            assert np.abs(jets.G[k] - G).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("name, matrix_field", [
        ("riemannian[curved_x1]", curved_matrix),
        ("klein", hyperbolic_matrix),
    ], ids=["curved", "klein"])
    def test_riemannian_spray_matches_christoffel_symbols(self, name,
                                                          matrix_field, n):
        # G^i = Gamma^i_jk y^j y^k / 2 of sqrt(y^T A y), a second formula
        metric = SYMBOLIC_METRICS[name, n]
        points = sample_points(ProjectivePair(metric, metric), 20, seed=31)
        jets = metric_jet(metric, points)
        for k, p in enumerate(points):
            G = symbolic_oracle.christoffel_spray(matrix_field, p.x, p.y)
            _, _, _, scale = symbolic_oracle.tensors(metric, p.x, p.y)
            assert np.abs(jets.G[k] - G).max() <= 1e-12 * scale

    def test_funk_spray_closed_form(self):
        # Funk metrics are projectively flat with G = F y / 2, a classical
        # closed form independent of the Euler-Lagrange assembly
        for n in (2, 3):
            fk = make_metric("funk", n)
            for p in sample_points(make_pair("funk", "funk", n), 10, seed=37):
                G = metric_jet(fk, p).G
                expect = 0.5 * metric_jet(fk, p).F * p.y
                assert np.abs(G - expect).max() <= 1e-12 * np.abs(expect).max()

    @pytest.mark.parametrize("lam", [0.5, 2.0, 3.0])
    def test_spray_two_homogeneous(self, lam):
        for p in sample_points(make_pair("klein", "klein", 2), 10, seed=41):
            q = TangentPoint(p.x, lam * p.y)
            a = metric_jet(KLEIN, p).G
            b = metric_jet(KLEIN, q).G
            assert np.abs(b - lam ** 2 * a).max() \
                <= 1e-10 * max(1.0, np.abs(lam ** 2 * a).max())


class TestChristoffel:
    def test_constant_matrix_vanishes(self):
        gamma = symbolic_oracle.christoffel(
            lambda xs: [[2.0, 0.0], [0.0, 3.0]], [0.4, -0.1])
        assert not gamma.any()

    def test_curved_hand_values(self):
        # the nonzero entries of diag(1, 1 + (x1)^2) at x1 = 1, exactly
        gamma = symbolic_oracle.christoffel(curved_matrix, [1.0, 0.0])
        expect = np.zeros((2, 2, 2))
        expect[1, 0, 1] = expect[1, 1, 0] = 0.5
        expect[0, 1, 1] = -1.0
        assert np.array_equal(gamma, expect)


class TestGeodesicRhs:
    def test_euclid_rhs(self):
        p = TangentPoint([0.1, 0.3], [2.0, -1.0])
        rhs = _stage_flow(EUCLID, np.concatenate((p.x, p.y)))
        assert np.allclose(rhs[:2], p.y, rtol=0, atol=0)
        assert np.abs(rhs[2:]).max() < 1e-14

    def test_klein_rhs_matches_spray(self):
        p = TangentPoint([0.2, 0.0], [0.0, 1.0])
        rhs = _stage_flow(KLEIN, np.concatenate((p.x, p.y)))
        G = metric_jet(KLEIN, p).G
        assert np.allclose(rhs[2:], -2.0 * G, rtol=0, atol=0)

    def test_rhs_velocity_scaling(self):
        p = TangentPoint([0.1, -0.2], [0.5, 0.3])
        lam = 2.0
        q = TangentPoint(p.x, lam * p.y)
        a = _stage_flow(FUNK, np.concatenate((p.x, p.y)))
        b = _stage_flow(FUNK, np.concatenate((q.x, q.y)))
        assert np.abs(b[:2] - lam * a[:2]).max() < 1e-12
        assert np.abs(b[2:] - lam ** 2 * a[2:]).max() <= 1e-10 * np.abs(a[2:]).max()


# Every catalog family at each working dimension, built once.
CATALOG = {n: catalog_metrics(n) for n in (2, 3, 5, 8)}


@st.composite
def catalog_states(draw):
    """A catalog metric and an in-domain state z = (x, y) of it."""
    n = draw(st.sampled_from(list(CATALOG)))
    metric = draw(st.sampled_from(CATALOG[n]))
    coords = st.floats(-0.3, 0.3, allow_subnormal=False)
    x = np.array(draw(st.lists(coords, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.floats(-2.0, 2.0, allow_subnormal=False),
                               min_size=n, max_size=n)
                      .filter(lambda v: max(map(abs, v)) > 1e-3)))
    assume(metric.domain(x))
    return metric, np.concatenate((x, y))


@given(catalog_states())
@settings(max_examples=200, deadline=None)
def test_stage_flow_has_the_bits_of_the_jets_flow(case):
    metric, z = case
    jet = _state_jet(metric, z)
    assert _stage_flow(metric, z).tobytes() == _flow(jet.y, jet.G).tobytes()


def _error(f):
    """Type, message and metric of the error that ``f()`` raises."""
    with pytest.raises(FinvarError) as info:
        f()
    return type(info.value), str(info.value), info.value.metric


@pytest.mark.parametrize("n", list(CATALOG))
def test_stage_flow_fails_as_the_jet_does(n):
    far = np.zeros(n)
    far[0] = 4.0
    for metric in CATALOG[n]:
        states = [np.concatenate((np.full(n, 0.1), np.zeros(n)))]
        if not metric.domain(far):
            states.append(np.concatenate((far, np.ones(n))))
        for z in states:
            stage = _error(lambda: _stage_flow(metric, z))
            assert stage == _error(lambda: _state_jet(metric, z))
            assert stage[2] == metric.name


class TestIntegration:
    def test_euclid_rk4_is_exact(self):
        traj = integrate_geodesic(EUCLID, TangentPoint([0.0, 0.0], [1.0, 2.0]),
                                  1.0, method="rk4", step=1e-2)
        assert np.abs(traj.jets.x[-1] - [1.0, 2.0]).max() < 1e-13
        assert traj.times[-1] == pytest.approx(1.0, abs=0)

    def test_initial_condition_is_one_point(self):
        stack = TangentPoint([[0.0, 0.0]] * 2, [[1.0, 2.0]] * 2)
        with pytest.raises(ConfigError):
            integrate_geodesic(EUCLID, stack, 1.0)
        traj = integrate_geodesic(EUCLID, stack[1], 1.0, method="rk4",
                                  step=1e-2)
        assert np.abs(traj.jets.x[-1] - [1.0, 2.0]).max() < 1e-13

    def test_klein_geodesic_is_straight_line(self):
        traj = integrate_geodesic(KLEIN, TangentPoint([0.0, 0.1], [1.0, 0.0]),
                                  1.0)
        assert np.abs(traj.jets.x[:, 1] - 0.1).max() <= 1e-8
        assert len(traj) > 3 and not traj.domain_exit

    @pytest.mark.parametrize("metric", [KLEIN, FUNK, CURVED],
                             ids=lambda m: m.name)
    def test_energy_conserved(self, metric):
        traj = integrate_geodesic(metric, TangentPoint([0.1, 0.15], [0.3, -0.2]),
                                  1.0)
        energy = trajectory_energy(traj)
        assert np.abs(energy - energy[0]).max() / energy[0] <= 1e-8

    @pytest.mark.parametrize(
        "metric",
        [EUCLID, KLEIN, FUNK, CURVED, make_metric("randers_df", 2),
         make_metric("scaled", 2, factor=2.0, base={"kind": "klein", "dim": 2})],
        ids=lambda m: m.name)
    def test_rkf45_agrees_with_rk4(self, metric):
        p0 = TangentPoint([0.1, 0.15], [0.3, -0.2])
        a = integrate_geodesic(metric, p0, 1.0, method="rkf45",
                               rtol=1e-10, atol=1e-10)
        b = integrate_geodesic(metric, p0, 1.0, method="rk4", step=1e-3)
        end_diff = np.abs(np.concatenate([a.jets.x[-1] - b.jets.x[-1],
                                          a.jets.y[-1] - b.jets.y[-1]])).max()
        assert end_diff <= 1e-7

    def test_reparameterization_same_path(self):
        p0 = TangentPoint([0.1, 0.15], [0.3, -0.2])
        a = integrate_geodesic(KLEIN, p0, 1.0)
        b = integrate_geodesic(KLEIN, TangentPoint(p0.x, 2.0 * p0.y), 0.5)
        assert path_distance(a.jets.x, b.jets.x) <= 1e-7
        # non-power-of-two factor on a curved metric, fine fixed steps
        a = integrate_geodesic(CURVED, p0, 0.9, method="rk4", step=1e-3)
        b = integrate_geodesic(CURVED, TangentPoint(p0.x, 3.0 * p0.y), 0.3,
                               method="rk4", step=1e-3 / 3.0)
        assert path_distance(a.jets.x, b.jets.x) <= 1e-7

    @pytest.mark.parametrize("comp_kind", ["klein", "funk", "randers_df"])
    def test_pair_paths_coincide(self, comp_kind):
        comp = make_pair("euclidean", comp_kind, 2).comparison
        p0 = TangentPoint([0.1, 0.15], [0.3, -0.2])
        a = integrate_geodesic(EUCLID, p0, 1.0)
        b = integrate_geodesic(comp, p0, 1.0)
        assert path_distance(a.jets.x, b.jets.x) <= 1e-6

    def test_funk_backward_rejected(self):
        with pytest.raises(NonReversibleBackward):
            integrate_geodesic(FUNK, TangentPoint([0.0, 0.0], [1.0, 0.0]), -1.0)

    def test_reversible_backward_supported(self):
        traj = integrate_geodesic(KLEIN, TangentPoint([0.0, 0.1], [1.0, 0.0]),
                                  -0.5)
        # samples in integration order: from the initial point backward
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(-0.5)
        assert np.all(np.diff(traj.times) < 0)
        assert traj.jets.x[0].tobytes() == np.array([0.0, 0.1]).tobytes()

    def test_bad_settings_rejected(self):
        p0 = TangentPoint([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ConfigError):
            integrate_geodesic(EUCLID, p0, 1.0, method="rk4", step=0.0)
        with pytest.raises(ConfigError):
            integrate_geodesic(EUCLID, p0, 1.0, method="rkf45", rtol=-1.0)
        with pytest.raises(ConfigError):
            integrate_geodesic(EUCLID, p0, 1.0, method="verlet")
        with pytest.raises(ConfigError):
            integrate_geodesic(EUCLID, p0, 0.0)

    def test_domain_exit_truncates(self):
        # closed beta = d(|x|^2 / 2): straight geodesics that reach the
        # ||beta|| = 1 boundary of the Randers domain in finite time
        from finvar import catalog_metric
        m = catalog_metric({"kind": "randers", "dim": 2,
                            "beta": {"potential": "quadratic",
                                     "params": [1.0, 1.0]}})
        traj = integrate_geodesic(m, TangentPoint([0.5, 0.0], [1.0, 0.0]), 1.0)
        assert traj.domain_exit
        assert traj.t_final < 1.0
        assert m.domain(traj.jets.x[-1])  # last sample still strictly in-domain

    @pytest.mark.parametrize("method", ["rkf45", "rk4"])
    def test_one_domain_check_per_jet(self, monkeypatch, method):
        # every state the integrator may keep is certified by its own jet,
        # and FinslerMetric.jet2 checks the domain once per jet, on the float
        # base point, before any pass: a state outside never enters xy_jet2
        from finvar import catalog_metric
        m = catalog_metric({"kind": "randers", "dim": 2,
                            "beta": {"potential": "quadratic",
                                     "params": [1.0, 1.0]}})
        counts = {"domain": 0, "jet2": 0, "xy_jet2": 0}
        jet2 = FinslerMetric.jet2

        def region(xs):
            counts["domain"] += 1
            return m.region(xs)

        def counted_jet2(metric, x, y, **seeding):
            counts["jet2"] += 1
            return jet2(metric, x, y, **seeding)

        def counted_xy_jet2(f, x, y, **seeding):
            counts["xy_jet2"] += 1
            return xy_jet2(f, x, y, **seeding)

        monkeypatch.setattr(FinslerMetric, "jet2", counted_jet2)
        monkeypatch.setattr(finvar.metrics, "xy_jet2", counted_xy_jet2)
        traj = integrate_geodesic(replace(m, region=region),
                                  TangentPoint([0.5, 0.0], [1.0, 0.0]), 1.0,
                                  method=method, step=0.02)
        assert traj.domain_exit
        assert counts["domain"] == counts["jet2"]
        assert counts["xy_jet2"] < counts["domain"]

    def test_integrator_stall_on_rough_field(self):
        def kinked(xs, ys):
            x1 = getattr(xs[0], "val", xs[0])
            a11 = 1.0 + (xs[0] - 0.3) * 1e6 if x1 > 0.3 else 1.0
            return gsqrt(a11 * ys[0] * ys[0] + ys[1] * ys[1])

        metric = FinslerMetric("kinked", 2, kinked, lambda x: True)
        with pytest.raises(IntegratorStall):
            integrate_geodesic(metric, TangentPoint([0.0, 0.0], [1.0, 0.5]),
                               1.0)

    def test_floor_under_boundary_pressure_is_domain_exit(self):
        # the kink of the rough field above, with the domain cut 1e-12 past
        # it: error-norm rejections drive the step below the floor after a
        # stage left the domain, which ends the run at the boundary
        def kinked(xs, ys):
            x1 = getattr(xs[0], "val", xs[0])
            a11 = 1.0 + (xs[0] - 0.3) * 1e6 if x1 > 0.3 else 1.0
            return gsqrt(a11 * ys[0] * ys[0] + ys[1] * ys[1])

        metric = FinslerMetric("kinked", 2, kinked,
                               lambda xs: xs[0] < 0.3 + 1e-12)
        traj = integrate_geodesic(metric,
                                  TangentPoint([0.0, 0.0], [1.0, 0.5]), 1.0)
        assert traj.domain_exit
        assert traj.t_final < 0.3

    def test_base_point_frozen_at_the_margin_is_domain_exit(self):
        # klein is complete, but its geodesic crosses the 1e-9 domain margin
        # near t = 17.94, where the base point stops moving in floats while
        # h oscillates above its floor; the first step accepted there after
        # a DomainError leaves the base point bitwise unchanged and ends the
        # run, neither kept nor counted
        with wall_clock(10):
            traj = integrate_geodesic(
                KLEIN, TangentPoint([0.1, 0.2], [0.3, -0.5]), 20.0)
        assert traj.domain_exit
        assert traj.t_final == pytest.approx(17.93732753753897, rel=1e-12)
        assert (traj.n_accepted, traj.n_rejected, len(traj)) == (149, 58, 150)
        assert 0.0 < 1.0 - np.linalg.norm(traj.jets.x[-1]) < 1.1e-9

    @pytest.mark.parametrize("kind, t_end", [
        ("klein", 1e-11), ("klein", 1e-13), ("klein", 1e-300),
        ("klein", -1e-11), ("funk", 1e-11), ("funk", 1e-13), ("funk", 1e-300)])
    def test_rkf45_reaches_a_short_horizon(self, kind, t_end):
        # the first step |t_end| / 100 lies below H_MIN; the floor is that
        # step, so the run starts and reaches t_end
        traj = integrate_geodesic(make_metric(kind, 2),
                                  TangentPoint([0.1, 0.2], [1.0, -0.3]), t_end)
        assert traj.t_final == t_end
        assert not traj.domain_exit
        assert traj.n_rejected == 0

    def test_rkf45_first_step_underflowing_to_zero_stalls(self):
        # |t_end| / 100 rounds to 0: no step can make progress
        with pytest.raises(IntegratorStall):
            integrate_geodesic(KLEIN, TangentPoint([0.1, 0.2], [1.0, -0.3]),
                               1e-323)

    @pytest.mark.parametrize("method, accepted, rejected, t_final", [
        ("rkf45", 25, 59, 0.5833333321144831), ("rk4", 29, 0, 0.58)])
    def test_boundary_run_step_counters(self, method, accepted, rejected,
                                        t_final):
        # rkf45 finds the ||beta|| = 1 boundary by shrinking the step down
        # to the floor: every stage or candidate outside is one rejection
        from finvar import catalog_metric
        m = catalog_metric({"kind": "randers", "dim": 2,
                            "beta": {"potential": "quadratic",
                                     "params": [1.0, 1.0]}})
        traj = integrate_geodesic(m, TangentPoint([0.5, 0.0], [1.0, 0.0]), 1.0,
                                  method=method, step=0.02)
        assert traj.domain_exit
        assert (traj.n_accepted, traj.n_rejected) == (accepted, rejected)
        assert traj.t_final == t_final


# signed zeros among the stages, where a sum started from -0.0 instead of
# Python's int 0 would show
STAGE_VALUE = st.one_of(st.sampled_from([0.0, -0.0]),
                        st.floats(-1e3, 1e3, allow_subnormal=True))


@st.composite
def rkf45_case(draw):
    dim = draw(st.sampled_from([4, 6, 10, 16]))
    vector = st.lists(STAGE_VALUE, min_size=dim, max_size=dim).map(np.array)
    z = draw(vector)
    stages = [draw(vector) for _ in range(6)]
    h = draw(st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                       st.floats(-2.0, 2.0)))
    return z, stages, h


@settings(max_examples=200, deadline=None)
@given(rkf45_case())
def test_rkf45_stage_sums_equal_python_sums_bitwise(case):
    z, stages, h = case
    args = []

    def rhs(zs):
        args.append(zs.copy())
        return stages[len(args)]

    z_new, err = _rkf45_step(rhs, z, stages[0], h)
    ref_args = [z + h * sum(a * k for a, k in zip(_RKF_A[s], stages))
                for s in range(1, 6)]
    ref_z = z + h * sum(b * k for b, k in zip(_RKF_B5, stages))
    ref_err = h * sum(e * k for e, k in zip(_RKF_ERR, stages))
    for got, ref in zip(args + [z_new, err], ref_args + [ref_z, ref_err]):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_within_truncates_at_the_first_sample_outside():
    # straight euclidean lines leave the unit ball of the klein metric
    traj = integrate_geodesic(EUCLID, TangentPoint([0.5, 0.0], [1.0, 0.2]),
                              1.0, method="rk4", step=0.05)
    calls = []

    def ball(x):
        calls.append(x.shape)
        return KLEIN.domain(x)

    cut = traj.within(ball)
    first_out = next(k for k in range(1, len(traj))
                     if not KLEIN.domain(traj.jets.x[k]))
    assert calls == [(len(traj) - 1, 2)]     # one stacked call
    assert cut.domain_exit and len(cut) == first_out
    assert cut.times.tobytes() == traj.times[:first_out].tobytes()
    for name in JET_FIELDS:
        assert (getattr(cut.jets, name).tobytes()
                == getattr(traj.jets, name)[:first_out].tobytes())
    assert (cut.n_accepted, cut.n_rejected) == (traj.n_accepted,
                                                traj.n_rejected)
    assert traj.within(EUCLID.domain) is traj   # a predicate giving True


def test_within_takes_a_bare_bool():
    traj = integrate_geodesic(EUCLID, TangentPoint([0.5, 0.0], [1.0, 0.2]),
                              0.5, method="rk4", step=0.05)
    assert len(traj) == 11
    assert traj.within(lambda x: True) is traj
    cut = traj.within(lambda x: False)
    assert cut.domain_exit and len(cut) == 1
    assert cut.jets.x.tobytes() == traj.jets.x[:1].tobytes()


class TestRapcsak:
    def test_identity_pair_residual_vanishes(self):
        pair = make_pair("klein", "klein", 2)
        rep = rapcsak_residual(pair, sample_points(pair, 30, seed=43))
        assert rep.norms.max() <= 1e-10

    def test_euclid_klein_passes(self):
        pair = make_pair("euclidean", "klein", 2)
        rep = rapcsak_residual(pair, sample_points(pair, 100, seed=47))
        assert rep.norms.max() <= 1e-8

    def test_curved_pair_fails(self):
        pair = make_pair("euclidean", "curved", 2)
        rep = rapcsak_residual(pair, sample_points(pair, 100, seed=47))
        assert rep.norms.max() >= 1e-2

    def test_non_closed_beta_fails(self):
        from finvar import catalog_metric
        comp = catalog_metric({"kind": "randers", "dim": 2,
                               "beta": {"covector": "x2_dx1"}})
        pair = ProjectivePair(EUCLID, comp)
        rep = rapcsak_residual(pair, sample_points(pair, 100, seed=53))
        assert rep.norms.max() >= 1e-2

    def test_empty_samples_rejected(self):
        # a stack of no samples is refused when it is built
        with pytest.raises(ConfigError):
            rapcsak_residual(make_pair("euclidean", "klein", 2),
                             TangentPoint(np.empty((0, 2)), np.empty((0, 2))))

    def test_samples_of_another_dimension_rejected(self):
        # refused as metric_jet refuses them, before any jet
        pair = make_pair("euclidean", "klein", 2)
        with pytest.raises(ConfigError) as exc:
            rapcsak_residual(pair, TangentPoint([0.1, 0.0, 0.0],
                                                [0.0, 0.3, 0.1]))
        assert str(exc.value) == "euclidean has dimension 2, point has 3"

    def test_report_shape(self):
        pair = make_pair("euclidean", "funk", 2)
        pts = sample_points(pair, 7, seed=59)
        rep = rapcsak_residual(pair, pts)
        assert rep.residuals.shape == (7, 2)
        assert rep.norms.shape == (7,)
        assert rep.norms.max() <= 1e-8
