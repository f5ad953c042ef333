"""Command-line interface: evaluate, geodesic, verify, oracle.

Every command reads a JSON config (see :mod:`finvar.config`), runs its
check, and emits one machine-readable report (JSON document or CSV). Exit
codes: 0 pass, 1 fail verdict, 2 config error, 3 runtime error. Reports are
byte-identical for identical config + seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import namedtuple
from dataclasses import asdict, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from .autodiff import check_lanes, lane_power
from .config import RunConfig, load_config, sample_tangent_points
from .dynamics import integrate_geodesic, rapcsak_residual, trajectory_energy
from .errors import (ConfigError, FinvarError, NonFiniteResult,
                     OracleScopeExceeded)
from .integrals import (f1_closed_form, first_integrals, fn1_closed_form,
                        integrals_along, mu, pair_jets, painleve_I0,
                        sarlet_K, tm_I1)
from .metrics import ProjectivePair
from .oracle import charpoly_by_interpolation, delta_alpha_combinatorial

# Default pass threshold of each check; --tolerance replaces every one.
TOLERANCES = {"f1_rel_err": 1e-9, "fn1_rel_err": 1e-12, "ri0_rel_err": 1e-9,
              "ri1_rel_err": 1e-9, "q0_abs": np.inf, "max_rel_drift": 1e-6,
              "max_residual": 1e-8, "charpoly_interpolation": 1e-9,
              "delta_combinatorial": 1e-8}
ENERGY_TOL = 1e-8


def _rel_err(a, b):
    """|a - b| / max(1, |b|), elementwise over arrays."""
    return np.abs(a - b) / np.maximum(1.0, np.abs(b))


def _pass_fail(ok) -> str:
    return "pass" if ok else "fail"


Check = namedtuple("Check", "name worst tolerance ok")


def _check(cfg: RunConfig, name: str, errors, by_alpha=False) -> Check:
    """Check ``name``: the largest of ``errors``, folded in sample order
    from 0.0, against ``cfg.tolerance`` or else ``TOLERANCES[name]``. A NaN
    or inf error is a NonFiniteResult naming its point or, ``by_alpha``,
    its alpha (errors[k] is alpha k + 1's)."""
    values = errors.tolist()
    check_lanes(np.isfinite(errors), lambda k: NonFiniteResult(
        f"{name} {values[k]} not finite"
        + (f" at alpha {k + 1}" if by_alpha else ""),
        point=None if by_alpha else k))
    worst = max([0.0] + values)
    tolerance = TOLERANCES[name] if cfg.tolerance is None else cfg.tolerance
    return Check(name, worst, tolerance, worst <= tolerance)


def _report(cfg: RunConfig, command: str, results: list[Check],
            **body) -> tuple[dict, bool]:
    """A command's report: what every report carries (the command, the
    pair, the seed and the verdict) around the command's own fields."""
    verdict = all(check.ok for check in results)
    report = {"command": command,
              "pair": {"base": cfg.base, "comparison": cfg.comparison},
              "seed": cfg.seed, "verdict": _pass_fail(verdict), **body}
    return report, verdict


def _default_velocity_scale(cfg: RunConfig, command: str) -> float:
    if cfg.samples.velocity_scale is not None:
        return cfg.samples.velocity_scale
    return 0.3 if command == "geodesic" else 1.0


def _points(cfg: RunConfig, pair: ProjectivePair, command: str, count: int):
    if cfg.points:
        n = len(cfg.points[0]["x"])
        if n != pair.dim:
            raise ConfigError(f"points[0].x needs {pair.dim} entries, the "
                              f"dimension of the pair, got {n}")
        return cfg.explicit_points()
    rng = np.random.default_rng(cfg.seed)
    return sample_tangent_points(
        pair, count, rng, box=cfg.samples.box,
        velocity_scale=_default_velocity_scale(cfg, command))


def cmd_evaluate(cfg: RunConfig) -> tuple[dict, bool]:
    """Per-point report of all tensors, integrals, and cross-check deltas."""
    pair = cfg.build_pair()
    n = pair.dim
    points = _points(cfg, pair, "evaluate", cfg.samples.count)
    jets = pair_jets(pair, points)
    fiv = first_integrals(jets)
    jet, jet_t = jets.base, jets.comparison
    # every closed form and check takes the whole stack; only the float
    # powers go lane by lane, as one-point values would
    m = mu(jets)
    i0 = painleve_I0(jets)
    i1 = tm_I1(jets)
    f1, fn1 = fiv.f[:, 0], fiv.f[:, n - 2]
    ri0 = lane_power(jet.F, 2) / lane_power(f1, 2.0 / (n + 1))
    ri1 = fn1 * lane_power(jet_t.F, 3) * lane_power(m, 3) / jet.F
    checks = {
        "f1_rel_err": _rel_err(f1, f1_closed_form(jets)),
        "fn1_rel_err": _rel_err(fn1, fn1_closed_form(jets)),
        "ri0_rel_err": _rel_err(ri0, i0),
        "ri1_rel_err": _rel_err(ri1, i1),
        "q0_abs": np.abs(fiv.coeffs[:, 0]),
    }
    results = [_check(cfg, key, value) for key, value in checks.items()]
    worst = {check.name: check.worst for check in results}
    results.pop()  # q0_abs is reported, not checked
    checks = {key: value.tolist() for key, value in checks.items()}
    checks["f_n"] = fiv.f[:, -1].tolist()
    records = [{
        "index": idx, "x": x, "y": y, "F": F, "F_comparison": F_t,
        "g": g, "h": h, "H": H, "f": f, "delta": delta,
        "mu": m_k, "I0": i0_k, "I1": i1_k, "K": K,
        "checks": {key: values[idx] for key, values in checks.items()},
    } for idx, (x, y, F, F_t, g, h, H, f, delta, m_k, i0_k, i1_k, K)
        in enumerate(zip(points.x, points.y, jet.F.tolist(),
                         jet_t.F.tolist(), jet.g, jet.h, fiv.H, fiv.f,
                         fiv.delta, m.tolist(), i0.tolist(), i1.tolist(),
                         sarlet_K(jets)))]
    return _report(cfg, "evaluate", results, tolerance=results[0].tolerance,
                   records=records, worst=worst)


def cmd_geodesic(cfg: RunConfig) -> tuple[dict, bool]:
    """Integrate base-metric geodesics and report first-integral drift."""
    pair = cfg.build_pair()
    n = pair.dim
    cfg.integrator.check_dim(n)
    trajectories, results = [], []
    points = _points(cfg, pair, "geodesic", cfg.samples.trajectories)
    for idx in range(len(points)):
        p0 = points[idx]
        try:
            # The integrator keeps the base metric's domain; the comparison
            # metric's may end sooner, as a ball does for straight lines.
            traj = integrate_geodesic(
                pair.base, p0,
                **asdict(cfg.integrator)).within(pair.comparison.domain)
            f_vals = integrals_along(pair, traj)
            drift = np.abs(f_vals - f_vals[0]).max(axis=0)
            rel_drift = drift / np.maximum(1.0, np.abs(f_vals[0]))
            results.append(_check(cfg, "max_rel_drift", rel_drift[:n - 1],
                                  by_alpha=True))
        except FinvarError as exc:
            exc.trajectory = idx
            raise
        energy = trajectory_energy(traj)
        energy_drift = float(np.abs(energy - energy[0]).max() / energy[0])
        # verdict is about the first integrals; energy drift is reported
        # alongside as an integration diagnostic
        trajectories.append({
            "index": idx,
            "initial": {"x": p0.x, "y": p0.y},
            "f_initial": f_vals[0],
            "max_abs_drift": drift,
            "max_rel_drift": rel_drift,
            "energy_initial": float(energy[0]),
            "energy_rel_drift": energy_drift,
            "n_samples": len(traj),
            "t_final": traj.t_final,
            "domain_exit": traj.domain_exit,
            "n_accepted": traj.n_accepted,
            "n_rejected": traj.n_rejected,
            "verdict": _pass_fail(results[-1].ok),
            "series": {
                "t": traj.times, "x": traj.jets.x, "y": traj.jets.y,
                "f": f_vals, "energy": energy,
            },
        })
    return _report(cfg, "geodesic", results, tolerance=results[0].tolerance,
                   energy_tolerance=ENERGY_TOL,
                   integrator=asdict(cfg.integrator),
                   trajectories=trajectories)


def cmd_verify(cfg: RunConfig) -> tuple[dict, bool]:
    """Projective-equivalence residual over a seeded sample grid."""
    pair = cfg.build_pair()
    samples = _points(cfg, pair, "verify", cfg.samples.count)
    rep = rapcsak_residual(pair, samples)
    check = _check(cfg, "max_residual", rep.norms)
    return _report(cfg, "verify", [check], tolerance=check.tolerance,
                   n_samples=len(samples), max_residual=check.worst,
                   mean_residual=rep.mean_residual,
                   residual_norms=rep.norms)


def cmd_oracle(cfg: RunConfig) -> tuple[dict, bool]:
    """Cross-validate the polynomial path against the brute-force oracles."""
    pair = cfg.build_pair()
    points = _points(cfg, pair, "oracle", cfg.samples.count)
    jets = pair_jets(pair, points)
    fiv = first_integrals(jets)
    n = pair.dim
    checks = []

    a = fiv.coeffs
    errs = (np.abs(a - charpoly_by_interpolation(fiv.H)).max(axis=-1)
            / np.maximum(1.0, np.abs(a).max(axis=-1)))
    results = [_check(cfg, "charpoly_interpolation", errs)]
    # the oracle refuses a dimension at alpha = 1, before any check is added
    for alpha in range(1, n + 1):
        try:
            delta = delta_alpha_combinatorial(jets, alpha)
        except OracleScopeExceeded as exc:
            checks.append({"name": "delta_combinatorial", "alpha": alpha,
                           "status": "skipped", "reason": str(exc)})
            break
        results.append(_check(cfg, "delta_combinatorial",
                              _rel_err(delta, fiv.delta[:, alpha - 1])))
    # results[alpha] checks delta_alpha for alpha >= 1; a skipped one is last
    rows = [{"name": check.name, **({"alpha": alpha} if alpha else {}),
             "cases": len(points), "max_rel_err": check.worst,
             "tolerance": check.tolerance, "status": _pass_fail(check.ok)}
            for alpha, check in enumerate(results)]
    return _report(cfg, "oracle", results, checks=rows + checks)


COMMANDS = {
    "evaluate": cmd_evaluate,
    "geodesic": cmd_geodesic,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
}


# -- output -------------------------------------------------------------------


def _csv(header: list, rows) -> str:
    """CSV text: the header line, then one line per row; a float is written
    as its repr, anything else as its str."""
    lines = [",".join(header)]
    lines.extend(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                          else str(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _names(prefix: str, n: int) -> list:
    return [f"{prefix}{i + 1}" for i in range(n)]


def _csv_evaluate(report: dict) -> str:
    records = report["records"]
    n = len(records[0]["x"])
    checks = ("f1_rel_err", "fn1_rel_err", "ri0_rel_err", "ri1_rel_err")
    header = ["index", *_names("x", n), *_names("y", n), "F", "F_comparison",
              *_names("f", n), "mu", "I0", "I1", *checks]
    return _csv(header, ([r["index"], *r["x"], *r["y"], r["F"],
                          r["F_comparison"], *r["f"], r["mu"], r["I0"],
                          r["I1"], *(r["checks"][key] for key in checks)]
                         for r in records))


def _csv_geodesic(report: dict) -> str:
    # One block per trajectory, each with its own header line.
    n = len(report["trajectories"][0]["initial"]["x"])
    header = ["t", *_names("x", n), *_names("y", n), *_names("f", n),
              "energy"]
    blocks = []
    for traj in report["trajectories"]:
        series = traj["series"]
        rows = zip(series["t"], series["x"], series["y"], series["f"],
                   series["energy"])
        blocks.append(_csv(header, ([t, *x, *y, *f, e]
                                    for t, x, y, f, e in rows)))
    return "\n".join(blocks)


def _csv_verify(report: dict) -> str:
    return _csv(["index", "residual_norm"],
                enumerate(report["residual_norms"]))


def _csv_oracle(report: dict) -> str:
    # a skipped check has no cases, error or tolerance: empty fields
    columns = ["name", "alpha", "cases", "max_rel_err", "tolerance",
               "status"]
    return _csv(columns, ([check.get(key, "") for key in columns]
                          for check in report["checks"]))


_CSV_WRITERS = {
    "evaluate": _csv_evaluate,
    "geodesic": _csv_geodesic,
    "verify": _csv_verify,
    "oracle": _csv_oracle,
}


# json's spelling of the float reprs that are not JSON numbers
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _block(items, indent: str, brackets: str) -> str:
    """A non-empty JSON array or object: one encoded item per line."""
    inner = indent + "  "
    return (brackets[0] + "\n" + inner + (",\n" + inner).join(items) + "\n"
            + indent + brackets[1])


@functools.lru_cache(maxsize=64)
def _array_template(shape: tuple, indent: str) -> str:
    """The JSON text of a float array of ``shape`` (no side 0) starting on a
    line indented by ``indent``, with one ``%s`` per entry in C order.
    Bounded: a geodesic series brings a new length with every trajectory."""
    if len(shape) == 1:
        return _block(("%s",) * shape[0], indent, "[]")
    row = _array_template(shape[1:], indent + "  ")
    return _block((row,) * shape[0], indent, "[]")


def _encode(obj, indent: str) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)`` byte for byte, with
    numpy arrays and scalars written as the lists and numbers they hold;
    ``indent`` is the indentation of the line ``obj`` starts on. Dict keys
    must be strings.

    A non-empty float64 array of one or more dimensions is written by one
    ``%`` of its shape's cached template with the reprs of its entries. No
    finite float's repr contains an "n", while "nan" and "inf" do, so a
    text without one is final; a non-finite array, like an empty, 0-d or
    non-float64 one, is written from its ``tolist()``."""
    kind = type(obj)
    if kind is float:
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    inner = indent + "  "
    if kind is dict:
        if not obj:
            return "{}"
        return _block((encode_basestring_ascii(key) + ": "
                       + _encode(value, inner)
                       for key, value in sorted(obj.items())), indent, "{}")
    if (kind is np.ndarray and obj.ndim and obj.size
            and obj.dtype == np.float64):
        text = _array_template(obj.shape, indent) % tuple(
            map(float.__repr__, obj.ravel().tolist()))
        if "n" not in text:
            return text
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _encode(float.__float__(obj), indent)
    if isinstance(obj, dict):
        return _encode(dict(obj), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return _block((_encode(value, inner) for value in obj), indent, "[]")
    if isinstance(obj, (np.ndarray, np.generic)):
        return _encode(obj.tolist(), indent)
    raise TypeError(
        f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(cfg: RunConfig, command: str, report: dict) -> None:
    if cfg.fmt == "csv":
        text = _CSV_WRITERS[command](report)
    else:
        text = _encode(report, "") + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _ArgumentParser(argparse.ArgumentParser):
    """A parser that refuses a malformed command line with
    :class:`ConfigError`, so that it exits 2 with one JSON line, as a bad
    config value does; ``--help`` still prints and exits 0. Subcommand
    parsers take this class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged, so
    # repeated in-process calls of main share it
    parser = _ArgumentParser(
        prog="finvar",
        description="First integrals of projectively related Finsler metrics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("evaluate", "tensors, integrals, and cross-checks at points"),
            ("geodesic", "integrate geodesics and report conservation drift"),
            ("verify", "projective-equivalence residual on a sample grid"),
            ("oracle", "brute-force cross-validation of the polynomial path")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--tolerance", type=float, default=None)
        p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # numpy's floating-point warnings stay off stderr: an overflow that
        # matters is certified where it enters a result and raised as a
        # typed error
        with np.errstate(all="ignore"):
            # a flag given replaces its config value and meets its checks
            flags = {"seed": args.seed, "fmt": args.format,
                     "tolerance": args.tolerance, "out": args.out}
            cfg = replace(load_config(args.config),
                          **{key: value for key, value in flags.items()
                             if value is not None})
            report, verdict = COMMANDS[args.command](cfg)
        _emit(cfg, args.command, report)
        return 0 if verdict else 1
    except ConfigError as exc:
        sys.stderr.write(json.dumps({"error": "config", "message": str(exc)})
                         + "\n")
        return 2
    except (FinvarError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__,
                                     "message": str(exc)}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
