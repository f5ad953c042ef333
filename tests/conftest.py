"""Shared fixtures: catalog metrics, standard pairs, seeded samplers, and
the unparameterized distance of two sampled paths."""

import functools

import numpy as np
import pytest

from finvar import ProjectivePair, catalog_metric, xy_jet2
from finvar.config import sample_tangent_points


JET_FIELDS = ("x", "y", "F", "F_y", "g", "g_inv", "h", "det_g", "G")


def make_metric(kind, n, **kw):
    if kind == "randers_df":
        # alpha euclidean, beta = d(0.1 x^1): projectively related to alpha
        return catalog_metric({
            "kind": "randers", "dim": n,
            "beta": {"potential": "linear", "params": [0.1] + [0.0] * (n - 1)},
        })
    if kind == "curved":
        return catalog_metric({"kind": "riemannian", "dim": n,
                               "field": "curved_x1"})
    if kind == "scaled":
        return catalog_metric({"kind": "scaled", "factor": kw["factor"],
                               "base": kw["base"]})
    return catalog_metric({"kind": kind, "dim": n})


def curved_matrix(xs):
    """The matrix field of ``curved_x1`` written out as rows,
    diag(1, 1 + (x^1)^2, 1, ...), for the Christoffel symbols of
    :mod:`symbolic_oracle`."""
    n = len(xs)
    rows = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    rows[1][1] = 1.0 + xs[0] * xs[0]
    return rows


def jet_seeds(x, y):
    """The seeds of a pass of :func:`xy_jet2`: variables x then y, with
    velocity Hessian rows."""
    seeds = []

    def field(xs, ys):
        seeds.extend(xs + ys)
        return xs[0]

    xy_jet2(field, x, y)
    return seeds


def make_pair(base_kind, comp_kind, n, **kw):
    return ProjectivePair(make_metric(base_kind, n, **kw),
                          make_metric(comp_kind, n, **kw))


# (base, comparison) kinds that share unparameterized geodesics
PASSING_KINDS = [("euclidean", "klein"), ("euclidean", "funk"),
                 ("klein", "funk"), ("euclidean", "randers_df")]


def catalog_metrics(n):
    """One representative of every catalog family in dimension n."""
    return [
        make_metric("euclidean", n),
        make_metric("klein", n),
        make_metric("funk", n),
        make_metric("curved", n),
        catalog_metric({"kind": "riemannian", "dim": n, "field": "const_diag",
                        "params": list(range(2, n + 2))}),
        catalog_metric({"kind": "randers", "dim": n,
                        "beta": {"potential": "quadratic",
                                 "params": [0.3] * n}}),
        make_metric("scaled", n, factor=2.0, base={"kind": "funk", "dim": n}),
    ]


def randers_extras(n):
    """Two Randers metrics beyond :func:`catalog_metrics`: the non-closed
    ``x2_dx1`` covector, and a quadratic potential over a ``curved_x1``
    alpha."""
    return [
        catalog_metric({"kind": "randers", "dim": n,
                        "beta": {"covector": "x2_dx1"}}),
        catalog_metric({"kind": "randers", "dim": n,
                        "alpha_field": "curved_x1",
                        "beta": {"potential": "quadratic",
                                 "params": [0.5] * n}}),
    ]


@functools.cache
def symbolic_cases():
    """Every metric checked against :mod:`symbolic_oracle`: each catalog
    family and both Randers extras at n = 2 and 3, klein and funk at n = 5,
    and at n = 8 under the ``slow`` marker. Built once, so the oracle's
    per-metric cache serves every test module."""
    return tuple(
        [m for n in (2, 3) for m in catalog_metrics(n) + randers_extras(n)]
        + [make_metric(kind, 5) for kind in ("klein", "funk")]
        + [pytest.param(make_metric(kind, 8), marks=pytest.mark.slow)
           for kind in ("klein", "funk")])


def metric_id(metric):
    return f"{metric.name}-{metric.dim}"


def sample_points(pair, count, seed=0, velocity_scale=1.0, box=(-0.35, 0.35)):
    rng = np.random.default_rng(seed)
    return sample_tangent_points(pair, count, rng, box=box,
                                 velocity_scale=velocity_scale)


def _resample_by_arclength(xs, count, total):
    """``count`` points of the polyline ``xs`` equally spaced in chord
    length, up to chord length ``total``."""
    seg = np.linalg.norm(np.diff(xs, axis=0), axis=1)
    s = np.concatenate(([0.0], np.cumsum(seg)))
    targets = np.linspace(0.0, min(total, s[-1]), count)
    return np.stack([np.interp(targets, s, col) for col in xs.T], axis=1)


def path_distance(xs_a, xs_b, count=200):
    """Distance between two paths as unparameterized curves.

    Both polylines are truncated to their common chord length and resampled
    at matched arclength fractions; the max pointwise distance bounds the
    Hausdorff distance of the truncated curves from above.
    """
    common = min(float(np.linalg.norm(np.diff(xs, axis=0), axis=1).sum())
                 for xs in (xs_a, xs_b))
    ra = _resample_by_arclength(xs_a, count, common)
    rb = _resample_by_arclength(xs_b, count, common)
    return float(np.linalg.norm(ra - rb, axis=1).max())


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
