"""Seeded workloads of the finvar benchmark.

A workload is a fixed list of ops, one *cycle*, generated from the workload
seed. An op is one CLI command on one generated config file, together with
the exit code and verdict the command must produce. finvar itself sees only
the config files; the seed of each config is drawn from the workload seed.

Only the standard library is imported here: the set-up probe times the
finvar import in a fresh process, so nothing may load numpy before it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def euclidean(n: int) -> dict:
    return {"kind": "euclidean", "dim": n}


def klein(n: int) -> dict:
    return {"kind": "klein", "dim": n}


def funk(n: int) -> dict:
    return {"kind": "funk", "dim": n}


def randers_df(n: int) -> dict:
    """Randers metric with beta = d(0.1 x^1): closed, so projectively
    related to its euclidean alpha."""
    return {"kind": "randers", "dim": n,
            "beta": {"potential": "linear", "params": [0.1] + [0.0] * (n - 1)}}


def curved_x1(n: int) -> dict:
    """Non-flat Riemannian metric, the negative control."""
    return {"kind": "riemannian", "dim": n, "field": "curved_x1"}


# (label, base, comparison, projectively related)
ACCEPTANCE_PAIRS = (
    ("euclidean-klein", euclidean, klein, True),
    ("euclidean-funk", euclidean, funk, True),
    ("klein-funk", klein, funk, True),
    ("euclidean-randers_df", euclidean, randers_df, True),
    ("euclidean-curved_x1", euclidean, curved_x1, False),
)
HIGHDIM_PAIRS = (
    ("klein-funk", klein, funk, True),
    ("euclidean-funk", euclidean, funk, True),
    ("funk-klein", funk, klein, True),
)
# Euclidean base with a klein or funk comparison is left out of the
# geodesic workload: its straight lines leave the unit ball and the command
# exits 3 (see README.md). Such a pair would do almost no integration work.
GEODESIC_BALL_PAIRS = (
    ("klein-funk", klein, funk, True),
    ("funk-klein", funk, klein, True),
)
GEODESIC_EUCLIDEAN_PAIRS = (
    ("euclidean-randers_df", euclidean, randers_df, True),
    ("euclidean-curved_x1", euclidean, curved_x1, False),
)

RKF45 = {"method": "rkf45", "rtol": 1e-10, "atol": 1e-10, "t_end": 3.0}
RK4 = {"method": "rk4", "step": 0.02, "t_end": 3.0}

# Commands whose verdict is about projective relatedness; on an unrelated
# pair they must report "fail" (exit 1). evaluate and oracle check algebraic
# identities that hold for any pair.
RELATEDNESS_COMMANDS = ("verify", "geodesic")


@dataclass(frozen=True)
class Op:
    """One CLI command on one config, with its expected outcome."""

    name: str
    command: str
    config: dict
    items: int
    expect_exit: int
    expect_verdict: str


def _op(rng: random.Random, command: str, pair, n: int, items: int,
        copy: int, box: float | None = None,
        integrator: dict | None = None) -> Op:
    label, base, comparison, related = pair
    if command == "geodesic":
        samples = {"trajectories": items, "velocity_scale": 1.0}
    else:
        samples = {"count": items}
    if box is not None:
        samples["box"] = [-box, box]
    config = {
        "schema_version": 1,
        "pair": {"base": base(n), "comparison": comparison(n)},
        "samples": samples,
        "seed": rng.randrange(2 ** 31),
    }
    if integrator is not None:
        config["integrator"] = dict(integrator)
    fails = not related and command in RELATEDNESS_COMMANDS
    method = f"-{integrator['method']}" if integrator else ""
    return Op(name=f"{command}{method}/{label}/n{n}/{copy}", command=command,
              config=config, items=items, expect_exit=1 if fails else 0,
              expect_verdict="fail" if fails else "pass")


def _points_lowdim(rng: random.Random) -> list[Op]:
    # Points per op are chosen so that every op takes 40-60 ms at the
    # defining commit: the median op is then a typical op, not the edge
    # between two commands.
    sizes = {"evaluate": 8, "verify": 48, "oracle": 10}
    return [_op(rng, command, pair, n, items, copy)
            for copy in range(4) for pair in ACCEPTANCE_PAIRS
            for n in (2, 3) for command, items in sizes.items()]


def _points_highdim(rng: random.Random) -> list[Op]:
    # A box of half-width 0.3 keeps n = 8 points at |x| <= 0.85.
    sizes = {"evaluate": 4, "verify": 32}
    return [_op(rng, command, pair, n, items, copy, box=0.3)
            for copy in range(8) for pair in HIGHDIM_PAIRS
            for n in (5, 8) for command, items in sizes.items()]


def _geodesic_ball(rng: random.Random) -> list[Op]:
    # One trajectory per op. Across seeds the accepted steps of a cycle vary
    # by about 1%, so the cycle can stay short and repeat several times.
    # The cost of a ball trajectory varies with its initial point by up to
    # +-17%; 12 copies per group keep the median and tail ops steady across
    # seeds. Sorted by cost, the 24 funk-klein ops sit between 28 cheap
    # euclidean-base ops and the 28 klein-funk ops, so the median op lies
    # in the middle of the funk-klein block and not at its steep edge.
    ops = [_op(rng, "geodesic", pair, n, 1, copy, integrator=RKF45)
           for copy in range(12) for pair in GEODESIC_BALL_PAIRS
           for n in (2, 3)]
    ops += [_op(rng, "geodesic", pair, n, 1, copy, integrator=RKF45)
            for copy in range(7) for pair in GEODESIC_EUCLIDEAN_PAIRS
            for n in (2, 3)]
    ops += [_op(rng, "geodesic", GEODESIC_BALL_PAIRS[0], 2, 1, copy,
                integrator=RK4)
            for copy in range(4)]
    return ops


WORKLOADS = {
    "points_lowdim": _points_lowdim,
    "geodesic_ball": _geodesic_ball,
    "points_highdim": _points_highdim,
}


def cycle(workload: str, seed: int) -> list[Op]:
    """The seeded op list of one cycle, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    ops = WORKLOADS[workload](rng)
    rng.shuffle(ops)
    return ops


def pairs(workload: str) -> list[tuple[dict, dict]]:
    """Distinct (base, comparison) descriptors the workload builds."""
    seen = {}
    for op in cycle(workload, 0):
        pair = op.config["pair"]
        key = repr((pair["base"], pair["comparison"]))
        seen.setdefault(key, (pair["base"], pair["comparison"]))
    return list(seen.values())
