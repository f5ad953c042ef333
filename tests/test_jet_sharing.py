"""Each metric jet is computed once per point, in one stacked pass per metric
and command, and so are H, its characteristic polynomial and the first
integrals: call and lane counts, never timings."""

import json
import sys
from dataclasses import replace

import numpy as np
import pytest

import finvar.config
import finvar.dynamics
import finvar.integrals
import finvar.metrics
from finvar import (HyperDual, TangentPoint, first_integrals,
                    integrals_along, integrate_geodesic, pair_jets)
from finvar.cli import main

from conftest import make_pair, sample_points

POINTS = 5


def lanes(calls, name):
    """Points evaluated for the metric ``name`` over all recorded calls."""
    return sum(count for metric, count in calls if metric == name)


@pytest.fixture
def jet_calls(monkeypatch):
    """(metric name, number of points) of every xy_jet2 call, from every
    module using it."""
    calls = []
    original = finvar.metrics.xy_jet2

    def counted(f, x, y):
        y = np.asarray(y)
        calls.append((f.name, 1 if y.ndim == 1 else y.shape[0]))
        return original(f, x, y)

    monkeypatch.setattr(finvar.metrics, "xy_jet2", counted)
    monkeypatch.setattr(finvar.dynamics, "xy_jet2", counted)
    return calls


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(name) records the first argument of every call of the
    finvar.integrals function ``name``, from every finvar module holding
    it; returns the list of those arguments."""
    def install(name):
        original = getattr(finvar.integrals, name)
        calls = []

        def counted(arg, *args, **kwargs):
            calls.append(arg)
            return original(arg, *args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name == "finvar" or module_name.startswith("finvar."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        return calls
    return install


def run_command(tmp_path, capsys, command, n, **settings):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "pair": {"base": {"kind": "klein", "dim": n},
                 "comparison": {"kind": "funk", "dim": n}},
        "samples": {"count": POINTS},
        "seed": 5,
        **settings,
    }))
    assert main([command, "--config", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command",
                         ["evaluate", "geodesic", "verify", "oracle"])
def test_one_pair_per_command(tmp_path, capsys, monkeypatch, command):
    # the sampler draws from the command's pair instead of building its own
    calls = []
    catalog = finvar.config.catalog_metric

    def recording(desc):
        calls.append(desc["kind"])
        return catalog(desc)

    monkeypatch.setattr(finvar.config, "catalog_metric", recording)
    run_command(tmp_path, capsys, command, 2,
                samples={"count": POINTS, "trajectories": 2})
    assert sorted(calls) == ["funk", "klein"]


@pytest.mark.parametrize("command", ["evaluate", "verify", "oracle"])
@pytest.mark.parametrize("n", [2, 3])
def test_two_jets_per_point(tmp_path, capsys, jet_calls, command, n):
    run_command(tmp_path, capsys, command, n)
    # each point's jet exactly once, in one stacked pass per metric
    assert lanes(jet_calls, "funk") == lanes(jet_calls, "klein") == POINTS
    assert sorted(name for name, _ in jet_calls) == ["funk", "klein"]


@pytest.mark.parametrize("command", ["evaluate", "oracle"])
@pytest.mark.parametrize("n", [2, 3])
def test_one_charpoly_per_point(tmp_path, capsys, count_calls, command, n):
    # one stacked call over every point of the command
    calls = count_calls("charpoly_coefficients")
    run_command(tmp_path, capsys, command, n)
    assert [M.shape for M in calls] == [(POINTS, n, n)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_forms_first_integrals_once_per_point(tmp_path, capsys,
                                                      count_calls, n):
    # also at n = 4, where the combinatorial oracle is skipped: the q0
    # guard of first_integrals still runs at every point, in one stacked call
    calls = count_calls("first_integrals")
    run_command(tmp_path, capsys, "oracle", n)
    assert [jets.base.y.shape for jets in calls] == [(POINTS, n)]


def test_geodesic_evaluates_the_base_metric_only_in_jets(tmp_path, capsys,
                                                         monkeypatch):
    # the energy comes from the base jets the integrator carries, not from
    # a second evaluation of the field with plain floats
    calls = []
    catalog = finvar.config.catalog_metric

    def recording(desc):
        metric = catalog(desc)
        if desc["kind"] != "klein":
            return metric

        def field(xs, ys):
            calls.append(isinstance(ys[0], HyperDual))
            return metric.evaluator(xs, ys)

        return replace(metric, evaluator=field)

    monkeypatch.setattr(finvar.config, "catalog_metric", recording)
    run_command(tmp_path, capsys, "geodesic", 2,
                samples={"trajectories": 2})
    assert calls and all(calls)


def _trajectory(pair, method):
    p0 = sample_points(pair, 1, seed=17, velocity_scale=0.3)[0]
    if method == "rk4":
        return integrate_geodesic(pair.base, p0, 1.0, method="rk4", step=0.05)
    return integrate_geodesic(pair.base, p0, 1.0)


@pytest.mark.parametrize("method", ["rkf45", "rk4"])
def test_integrals_along_makes_one_comparison_jet_per_sample(jet_calls,
                                                              method):
    pair = make_pair("klein", "funk", 2)
    traj = _trajectory(pair, method)
    jet_calls.clear()
    integrals_along(pair, traj)
    assert jet_calls == [("funk", len(traj))]


@pytest.mark.parametrize("method, kinds, along", [
    ("rkf45", ("klein", "funk"), None),
    ("rk4", ("klein", "funk"), None),
    ("rkf45", ("euclidean", "klein"), "funk"),
], ids=["rkf45", "rk4", "third_metric"])
def test_integrals_along_equals_fresh_jets_bitwise(method, kinds, along):
    # along a geodesic of the base metric its jets are reused; along one of
    # a third metric of the projective class both jets are evaluated afresh
    pair = make_pair(*kinds, 3)
    traj = _trajectory(pair if along is None else make_pair(along, along, 3),
                       method)
    assert (traj.metric is pair.base) == (along is None)
    fresh = np.array([first_integrals(pair_jets(pair, TangentPoint(x, y))).f
                      for x, y in zip(traj.jets.x, traj.jets.y)])
    assert np.array_equal(integrals_along(pair, traj), fresh)
