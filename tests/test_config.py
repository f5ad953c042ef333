"""Seeded point sampling against the per-draw reference loop, bitwise."""

import numpy as np
import pytest

import finvar.config
from finvar import ConfigError, ProjectivePair, catalog_metric
from finvar.config import MAX_REJECTIONS, sample_tangent_points

from conftest import make_pair


def reference_sample(pair, count, rng, box, velocity_scale):
    """One draw at a time into preallocated stacks, the domain answered by
    the stacked predicate and the norm by numpy: the loop the sampler must
    match, draw for draw. Returns the stacks and the number of draws."""
    n = pair.dim
    xs = np.empty((count, n))
    ys = np.empty((count, n))
    k = tries = 0
    while k < count:
        tries += 1
        if tries > MAX_REJECTIONS:
            raise ConfigError(
                f"could not draw {count} in-domain points from box {box}; "
                f"box may not intersect the domain")
        x = rng.uniform(box[0], box[1], size=n)
        if not pair.in_domain(x[None])[0]:
            continue
        y = rng.normal(size=n)
        norm = np.linalg.norm(y)
        if norm < 1e-12:
            continue
        xs[k], ys[k] = x, velocity_scale * y / norm
        k += 1
    return xs, ys, tries


def randers(n, field, beta):
    return catalog_metric({"kind": "randers", "dim": n, "alpha_field": field,
                           "beta": beta})


PAIRS = {
    "euclidean-klein-n2": (make_pair("euclidean", "klein", 2), (-0.35, 0.35)),
    # about half the draws of this box leave the unit ball
    "klein-funk-n3-box1": (make_pair("klein", "funk", 3), (-1.0, 1.0)),
    "klein-funk-n8": (make_pair("klein", "funk", 8), (-0.35, 0.35)),
    "euclidean-randers_df-n3": (make_pair("euclidean", "randers_df", 3),
                                (-0.35, 0.35)),
    "euclidean-randers_quadratic-n3": (ProjectivePair(
        catalog_metric({"kind": "euclidean", "dim": 3}),
        randers(3, "const_diag", {"potential": "quadratic",
                                  "params": [0.9, 0.6, 0.3]})), (-2.0, 2.0)),
    "curved-randers_curved_x2_dx1-n2": (ProjectivePair(
        catalog_metric({"kind": "riemannian", "dim": 2,
                        "field": "curved_x1"}),
        randers(2, "curved_x1", {"covector": "x2_dx1"})), (-1.5, 1.5)),
}


@pytest.mark.parametrize("velocity_scale", [1.0, 0.25, 3, -2.0, 1e-3])
@pytest.mark.parametrize("seed", [0, 1, 12345])
@pytest.mark.parametrize("name", list(PAIRS))
def test_sampler_matches_the_per_draw_loop_bitwise(name, seed,
                                                   velocity_scale):
    pair, box = PAIRS[name]
    points = sample_tangent_points(pair, 60, np.random.default_rng(seed),
                                   box=box, velocity_scale=velocity_scale)
    xs, ys, tries = reference_sample(pair, 60, np.random.default_rng(seed),
                                     box, velocity_scale)
    assert points.x.tobytes() == xs.tobytes()
    assert points.y.tobytes() == ys.tobytes()
    if name == "klein-funk-n3-box1":
        assert tries > 1.5 * 60


def test_a_box_outside_the_domain_keeps_its_message(monkeypatch):
    monkeypatch.setattr(finvar.config, "MAX_REJECTIONS", 50)
    pair = make_pair("euclidean", "klein", 2)
    with pytest.raises(ConfigError) as info:
        sample_tangent_points(pair, 5, np.random.default_rng(0),
                              box=(2.0, 3.0))
    assert str(info.value) == (
        "could not draw 5 in-domain points from box (2.0, 3.0); box may not "
        "intersect the domain")
