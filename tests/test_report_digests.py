"""Golden digests of whole CLI reports: byte identity with a recorded run.

Each case runs one command in-process on one config and format, and hashes
its exit code, stdout and stderr. ``report_digests.json`` holds the hashes
of a recorded run. A change that alters report bytes on purpose records
them again with

    PYTHONPATH=src python tests/test_report_digests.py

and says so in its change notes. The reports carry floats from numpy's
linear algebra, so the table holds for one numpy and BLAS build (it was
recorded with numpy 2.4.6); another build may need it recorded again.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from finvar.cli import main

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "report_digests.json"
COMMANDS = ("evaluate", "geodesic", "verify", "oracle")
FORMATS = ("json", "csv")


BALL_PAIRS = (("klein", "funk"), ("funk", "klein"))


def _ball_config(base: str, comparison: str, n: int, *,
                 samples: dict | None = None, integrator: dict | None = None,
                 **extra) -> dict:
    return {
        "schema_version": 1,
        "pair": {"base": {"kind": base, "dim": n},
                 "comparison": {"kind": comparison, "dim": n}},
        "samples": {"count": 4, "trajectories": 1, **(samples or {})},
        "integrator": integrator or {"t_end": 0.2},
        "seed": 7,
        **extra,
    }


def _curved_config(base: dict, comparison: dict) -> dict:
    """A pair whose fields multiply two seeds outside ``gdot``, run like the
    ball pairs."""
    return {"schema_version": 1,
            "pair": {"base": base, "comparison": comparison},
            "samples": {"count": 4, "trajectories": 1},
            "integrator": {"t_end": 0.2},
            "seed": 7}


def configs() -> dict[str, dict]:
    """Every config run by all commands, by name: the shipped ones, small
    ball-metric pairs, and small pairs with a curved_x1 alpha or an x2_dx1
    beta."""
    out = {path.name: json.loads(path.read_text())
           for path in sorted((ROOT / "configs").glob("*.json"))}
    for base, comparison in BALL_PAIRS:
        for n in (2, 3, 5, 8):
            out[f"{base}_{comparison}_n{n}"] = _ball_config(base, comparison,
                                                            n)
    for n in (2, 3):
        # not closed: a negative control
        out[f"euclidean_randers_x2_dx1_n{n}"] = _curved_config(
            {"kind": "euclidean", "dim": n},
            {"kind": "randers", "dim": n, "beta": {"covector": "x2_dx1"}})
        # closed beta over the base's own alpha: a related curved pair
        out[f"curved_x1_randers_quadratic_n{n}"] = _curved_config(
            {"kind": "riemannian", "dim": n, "field": "curved_x1"},
            {"kind": "randers", "dim": n, "alpha_field": "curved_x1",
             "beta": {"potential": "quadratic", "params": [0.5] * n}})
    return out


def geodesic_configs() -> dict[str, dict]:
    """Configs run by ``geodesic`` alone: long trajectories, which pin the
    integrator's step control, rejected steps and domain exits."""
    out = {}
    for base, comparison in BALL_PAIRS:
        for n in (2, 3):
            for method, integrator in (
                    ("rkf45", {"t_end": 3.0}),
                    ("rk4", {"method": "rk4", "step": 0.02, "t_end": 3.0})):
                out[f"{base}_{comparison}_n{n}_{method}_t3"] = _ball_config(
                    base, comparison, n, samples={"trajectories": 2},
                    integrator=integrator)
    # rejects 2 of its 121 attempted steps
    out["klein_funk_n2_explicit_t3"] = _ball_config(
        "klein", "funk", 2, integrator={"t_end": 3.0},
        points=[{"x": [0.8, 0.0], "y": [1.0, 0.0]}])
    # straight lines leave the ball: both trajectories end in domain_exit
    out["euclidean_klein_n2_t3"] = _ball_config(
        "euclidean", "klein", 2,
        samples={"trajectories": 2, "velocity_scale": 1.0},
        integrator={"t_end": 3.0})
    # the base metric's own boundary: a Randers base whose beta = d(|x|^2/2)
    # has |beta|_alpha = |x| < 1, so the second trajectory of each run meets
    # it and ends in domain_exit (the rkf45 runs also reject steps there)
    for n in (2, 3):
        for method, integrator in (
                ("rkf45", {"t_end": 1.0}),
                ("rk4", {"method": "rk4", "step": 0.02, "t_end": 1.0})):
            out[f"randers_quadratic_euclidean_n{n}_{method}_t1"] = {
                "schema_version": 1,
                "pair": {"base": {"kind": "randers", "dim": n,
                                  "beta": {"potential": "quadratic",
                                           "params": [1.0] * n}},
                         "comparison": {"kind": "euclidean", "dim": n}},
                "samples": {"trajectories": 2, "velocity_scale": 1.0,
                            "box": [-0.5, 0.5]},
                "integrator": integrator,
                "seed": 7,
            }
    return out


def signed_zero_configs() -> dict[str, dict]:
    """Configs run by ``evaluate``, ``oracle`` and ``geodesic``: explicit
    points whose x and y hold +-0.0, where a zero entry of a tensor may
    take either sign."""
    ball = [{"x": [0.0, -0.0], "y": [1.0, -0.0]},
            {"x": [0.3, 0.0], "y": [-0.0, 1.0]},
            {"x": [-0.0, -0.0], "y": [-0.0, -1.0]},
            {"x": [-0.2, -0.0], "y": [0.0, 0.5]}]
    randers = [{"x": [0.0, -0.0, 0.2], "y": [1.0, -0.0, 0.0]},
               {"x": [-0.0, 0.3, 0.0], "y": [-0.0, 0.0, -1.0]},
               {"x": [-0.0, -0.0, -0.0], "y": [0.0, -2.0, -0.0]}]
    return {
        "klein_funk_n2_signed_zeros": _ball_config(
            "klein", "funk", 2, points=ball),
        "euclidean_randers_linear_n3_signed_zeros": _curved_config(
            {"kind": "euclidean", "dim": 3},
            {"kind": "randers", "dim": 3,
             "beta": {"potential": "linear", "params": [0.1, 0.0, -0.0]}})
        | {"points": randers},
    }


ALL_COMMANDS = configs()
GEODESIC_ONLY = geodesic_configs()
SIGNED_ZEROS = signed_zero_configs()
CONFIGS = {**ALL_COMMANDS, **GEODESIC_ONLY, **SIGNED_ZEROS}
CASES = [(name, command, fmt) for name in ALL_COMMANDS
         for command in COMMANDS for fmt in FORMATS] + [
    (name, "geodesic", fmt) for name in GEODESIC_ONLY for fmt in FORMATS] + [
    (name, command, fmt) for name in SIGNED_ZEROS
    for command in ("evaluate", "oracle", "geodesic") for fmt in FORMATS]


def digest(config: dict, command: str, fmt: str, workdir: Path) -> str:
    """sha256 of the exit code, stdout and stderr of one in-process run."""
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(path), "--format", fmt])
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def _key(name: str, command: str, fmt: str) -> str:
    return f"{name} {command} {fmt}"


@pytest.fixture(scope="module")
def table() -> dict[str, str]:
    return json.loads(TABLE.read_text())


def test_table_covers_every_case(table):
    assert sorted(table) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("name,command,fmt", CASES)
def test_report_bytes_match_the_recorded_digest(table, tmp_path, name,
                                                command, fmt):
    assert digest(CONFIGS[name], command, fmt, tmp_path) == \
        table[_key(name, command, fmt)]


def record() -> None:
    """Write the digest of every case to ``report_digests.json``."""
    with tempfile.TemporaryDirectory() as workdir:
        table = {_key(name, command, fmt):
                 digest(CONFIGS[name], command, fmt, Path(workdir))
                 for name, command, fmt in CASES}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
