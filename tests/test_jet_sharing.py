"""Each metric jet is computed once per point, in one stacked pass per metric
and command: call and lane counts, never timings."""

import json

import numpy as np
import pytest

import finvar.dynamics
import finvar.metrics
from finvar import (first_integrals, integrals_along, integrate_geodesic,
                    pair_jets)
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


@pytest.mark.parametrize("command", ["evaluate", "verify", "oracle"])
@pytest.mark.parametrize("n", [2, 3])
def test_two_jets_per_point(tmp_path, capsys, jet_calls, command, n):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "pair": {"base": {"kind": "klein", "dim": n},
                 "comparison": {"kind": "funk", "dim": n}},
        "samples": {"count": POINTS},
        "seed": 5,
    }))
    assert main([command, "--config", str(path)]) == 0
    capsys.readouterr()
    # each point's jet exactly once, in one stacked pass per metric
    assert lanes(jet_calls, "funk") == lanes(jet_calls, "klein") == POINTS
    assert sorted(name for name, _ in jet_calls) == ["funk", "klein"]


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


@pytest.mark.parametrize("method", ["rkf45", "rk4"])
def test_integrals_along_equals_fresh_jets_bitwise(method):
    pair = make_pair("klein", "funk", 3)
    traj = _trajectory(pair, method)
    fresh = np.array([first_integrals(pair_jets(pair, p)).f
                      for p in traj.states])
    assert np.array_equal(integrals_along(pair, traj), fresh)
