"""Command-line interface: evaluate, geodesic, verify, oracle.

Every command reads a JSON config (see :mod:`finvar.config`), runs its
check, and emits one machine-readable report (JSON document or CSV). Exit
codes: 0 pass, 1 fail verdict, 2 config error, 3 runtime error. Reports are
byte-identical for identical config + seed.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from .config import (RunConfig, apply_overrides, load_config,
                     sample_tangent_points)
from .dynamics import integrate_geodesic, rapcsak_residual, trajectory_energy
from .errors import ConfigError, FinvarError, OracleScopeExceeded
from .integrals import (build_H, charpoly_coefficients, f1_closed_form,
                        first_integrals, fn1_closed_form, integrals_along,
                        mu, pair_jets, painleve_I0, sarlet_K, tm_I1)
from .oracle import charpoly_by_interpolation, delta_alpha_combinatorial

# Default pass thresholds per command; --tolerance overrides the main one.
EVALUATE_TOL = 1e-9
FN1_TOL = 1e-12
DRIFT_TOL = 1e-6
ENERGY_TOL = 1e-8
RAPCSAK_TOL = 1e-8
ORACLE_COMB_TOL = 1e-8
ORACLE_INTERP_TOL = 1e-9


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def _default_velocity_scale(cfg: RunConfig, command: str) -> float:
    if cfg.samples.velocity_scale is not None:
        return cfg.samples.velocity_scale
    return 0.3 if command == "geodesic" else 1.0


def _points(cfg: RunConfig, command: str, count: int):
    if cfg.points:
        return cfg.explicit_points()
    rng = np.random.default_rng(cfg.seed)
    return sample_tangent_points(
        cfg.build_pair(), count, rng, box=cfg.samples.box,
        velocity_scale=_default_velocity_scale(cfg, command))


def cmd_evaluate(cfg: RunConfig) -> tuple[dict, bool]:
    """Per-point report of all tensors, integrals, and cross-check deltas."""
    pair = cfg.build_pair()
    tol = cfg.tolerance if cfg.tolerance is not None else EVALUATE_TOL
    records = []
    worst = {"f1_rel_err": 0.0, "fn1_rel_err": 0.0, "ri0_rel_err": 0.0,
             "ri1_rel_err": 0.0, "q0_abs": 0.0}
    n = pair.dim
    points = _points(cfg, "evaluate", cfg.samples.count)
    for idx, (p, jets) in enumerate(zip(points, pair_jets(pair, points))):
        jet, jet_t = jets.base, jets.comparison
        H = build_H(jets)
        fiv = first_integrals(jets)
        m = mu(jets)
        i0 = painleve_I0(jets)
        i1 = tm_I1(jets)
        checks = {
            "f1_rel_err": _rel_err(fiv.f[0], f1_closed_form(jets)),
            "fn1_rel_err": _rel_err(fiv.f[n - 2], fn1_closed_form(jets)),
            "ri0_rel_err": _rel_err(jet.F ** 2 / fiv.f[0] ** (2.0 / (n + 1)),
                                    i0),
            "ri1_rel_err": _rel_err(fiv.f[n - 2] * jet_t.F ** 3 * m ** 3
                                    / jet.F, i1),
            "q0_abs": abs(charpoly_coefficients(H)[0]),
            "f_n": float(fiv.f[-1]),
        }
        for key in worst:
            worst[key] = max(worst[key], checks[key])
        records.append({
            "index": idx, "x": p.x, "y": p.y,
            "F": jet.F, "F_comparison": jet_t.F,
            "g": jet.g, "h": jet.h, "H": H,
            "f": fiv.f, "delta": fiv.delta,
            "mu": m, "I0": i0, "I1": i1, "K": sarlet_K(jets),
            "checks": checks,
        })
    fn1_tol = min(tol, FN1_TOL) if cfg.tolerance is None else tol
    verdict = (worst["f1_rel_err"] <= tol and worst["ri0_rel_err"] <= tol
               and worst["ri1_rel_err"] <= tol
               and worst["fn1_rel_err"] <= fn1_tol)
    report = {
        "command": "evaluate",
        "pair": {"base": cfg.base, "comparison": cfg.comparison},
        "seed": cfg.seed,
        "tolerance": tol,
        "records": records,
        "worst": worst,
        "verdict": "pass" if verdict else "fail",
    }
    return report, verdict


def cmd_geodesic(cfg: RunConfig) -> tuple[dict, bool]:
    """Integrate base-metric geodesics and report first-integral drift."""
    pair = cfg.build_pair()
    tol = cfg.tolerance if cfg.tolerance is not None else DRIFT_TOL
    integ = cfg.integrator
    n = pair.dim
    trajectories = []
    all_pass = True
    for idx, p0 in enumerate(_points(cfg, "geodesic", cfg.samples.trajectories)):
        # The integrator keeps the base metric's domain; the comparison
        # metric's may end sooner, as a ball does for straight lines.
        traj = integrate_geodesic(
            pair.base, p0, integ.t_end, method=integ.method,
            step=integ.step, rtol=integ.rtol,
            atol=integ.atol).within(pair.comparison.domain)
        f_vals = integrals_along(pair, traj)
        energy = trajectory_energy(pair.base, traj)
        drift = np.abs(f_vals - f_vals[0]).max(axis=0)
        rel_drift = drift / np.maximum(1.0, np.abs(f_vals[0]))
        energy_drift = float(np.abs(energy - energy[0]).max() / energy[0])
        # verdict is about the first integrals; energy drift is reported
        # alongside as an integration diagnostic
        ok = bool(np.all(rel_drift[:n - 1] <= tol))
        all_pass = all_pass and ok
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
            "verdict": "pass" if ok else "fail",
            "series": {
                "t": traj.times, "x": traj.xs, "y": traj.ys,
                "f": f_vals, "energy": energy,
            },
        })
    report = {
        "command": "geodesic",
        "pair": {"base": cfg.base, "comparison": cfg.comparison},
        "seed": cfg.seed,
        "tolerance": tol,
        "energy_tolerance": ENERGY_TOL,
        "integrator": {"method": integ.method, "rtol": integ.rtol,
                       "atol": integ.atol, "step": integ.step,
                       "t_end": integ.t_end},
        "trajectories": trajectories,
        "verdict": "pass" if all_pass else "fail",
    }
    return report, all_pass


def cmd_verify(cfg: RunConfig) -> tuple[dict, bool]:
    """Projective-equivalence residual over a seeded sample grid."""
    pair = cfg.build_pair()
    tol = cfg.tolerance if cfg.tolerance is not None else RAPCSAK_TOL
    samples = _points(cfg, "verify", cfg.samples.count)
    rep = rapcsak_residual(pair, samples)
    verdict = rep.passes(tol)
    report = {
        "command": "verify",
        "pair": {"base": cfg.base, "comparison": cfg.comparison},
        "seed": cfg.seed,
        "tolerance": tol,
        "n_samples": len(samples),
        "max_residual": rep.max_residual,
        "mean_residual": rep.mean_residual,
        "residual_norms": rep.norms,
        "verdict": "pass" if verdict else "fail",
    }
    return report, verdict


def cmd_oracle(cfg: RunConfig) -> tuple[dict, bool]:
    """Cross-validate the polynomial path against the brute-force oracles."""
    pair = cfg.build_pair()
    tol = cfg.tolerance
    interp_tol = tol if tol is not None else ORACLE_INTERP_TOL
    comb_tol = tol if tol is not None else ORACLE_COMB_TOL
    point_jets = pair_jets(pair, _points(cfg, "oracle", cfg.samples.count))
    n = pair.dim
    checks = []
    all_pass = True

    worst = 0.0
    for jets in point_jets:
        H = build_H(jets)
        a = charpoly_coefficients(H)
        b = charpoly_by_interpolation(H)
        worst = max(worst, float(np.abs(a - b).max()
                                 / max(1.0, np.abs(a).max())))
    ok = worst <= interp_tol
    all_pass = all_pass and ok
    checks.append({"name": "charpoly_interpolation", "cases": len(point_jets),
                   "max_rel_err": worst, "tolerance": interp_tol,
                   "status": "pass" if ok else "fail"})

    for alpha in range(1, n + 1):
        try:
            worst = 0.0
            for jets in point_jets:
                delta = delta_alpha_combinatorial(jets, alpha)
                fiv = first_integrals(jets)
                worst = max(worst, _rel_err(delta, fiv.delta[alpha - 1]))
            ok = worst <= comb_tol
            all_pass = all_pass and ok
            checks.append({"name": "delta_combinatorial", "alpha": alpha,
                           "cases": len(point_jets), "max_rel_err": worst,
                           "tolerance": comb_tol,
                           "status": "pass" if ok else "fail"})
        except OracleScopeExceeded as exc:
            checks.append({"name": "delta_combinatorial", "alpha": alpha,
                           "status": "skipped", "reason": str(exc)})
            break
    report = {
        "command": "oracle",
        "pair": {"base": cfg.base, "comparison": cfg.comparison},
        "seed": cfg.seed,
        "checks": checks,
        "verdict": "pass" if all_pass else "fail",
    }
    return report, all_pass


COMMANDS = {
    "evaluate": cmd_evaluate,
    "geodesic": cmd_geodesic,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
}


# -- output -------------------------------------------------------------------


def _csv_evaluate(report: dict) -> str:
    buf = io.StringIO()
    records = report["records"]
    if not records:
        return ""
    n = len(records[0]["x"])
    cols = (["index"] + [f"x{i + 1}" for i in range(n)]
            + [f"y{i + 1}" for i in range(n)] + ["F", "F_comparison"]
            + [f"f{i + 1}" for i in range(n)] + ["mu", "I0", "I1"]
            + ["f1_rel_err", "fn1_rel_err", "ri0_rel_err", "ri1_rel_err"])
    buf.write(",".join(cols) + "\n")
    for r in records:
        row = ([r["index"]] + list(r["x"]) + list(r["y"])
               + [r["F"], r["F_comparison"]] + list(r["f"])
               + [r["mu"], r["I0"], r["I1"]]
               + [r["checks"][k] for k in ("f1_rel_err", "fn1_rel_err",
                                           "ri0_rel_err", "ri1_rel_err")])
        buf.write(",".join(repr(float(v)) if isinstance(v, (float, np.floating))
                           else str(v) for v in row) + "\n")
    return buf.getvalue()


def _csv_trajectory(series: dict, n: int) -> str:
    buf = io.StringIO()
    cols = (["t"] + [f"x{i + 1}" for i in range(n)]
            + [f"y{i + 1}" for i in range(n)]
            + [f"f{i + 1}" for i in range(n)] + ["energy"])
    buf.write(",".join(cols) + "\n")
    t, xs, ys, fs, en = (series["t"], series["x"], series["y"],
                         series["f"], series["energy"])
    for k in range(len(t)):
        row = ([t[k]] + list(xs[k]) + list(ys[k]) + list(fs[k]) + [en[k]])
        buf.write(",".join(repr(float(v)) for v in row) + "\n")
    return buf.getvalue()


def _csv_geodesic(report: dict) -> str:
    # One block per trajectory, each with its own header line.
    n = len(report["trajectories"][0]["series"]["x"][0])
    blocks = [_csv_trajectory(traj["series"], n)
              for traj in report["trajectories"]]
    return "\n".join(blocks)


def _csv_verify(report: dict) -> str:
    buf = io.StringIO()
    buf.write("index,residual_norm\n")
    for i, v in enumerate(report["residual_norms"]):
        buf.write(f"{i},{float(v)!r}\n")
    return buf.getvalue()


def _csv_oracle(report: dict) -> str:
    buf = io.StringIO()
    buf.write("name,alpha,cases,max_rel_err,tolerance,status\n")
    for c in report["checks"]:
        buf.write(",".join(str(c.get(k, "")) for k in
                           ("name", "alpha", "cases", "max_rel_err",
                            "tolerance", "status")) + "\n")
    return buf.getvalue()


_CSV_WRITERS = {
    "evaluate": _csv_evaluate,
    "geodesic": _csv_geodesic,
    "verify": _csv_verify,
    "oracle": _csv_oracle,
}


def _emit(cfg: RunConfig, command: str, report: dict) -> None:
    if cfg.fmt == "csv":
        text = _CSV_WRITERS[command](report)
    else:
        text = json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n"
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = _build_parser().parse_args(argv)
    try:
        # numpy's floating-point warnings stay off stderr: an overflow that
        # matters is certified where it enters a result and raised as a
        # typed error
        with np.errstate(all="ignore"):
            cfg = load_config(args.config)
            cfg = apply_overrides(cfg, seed=args.seed, fmt=args.format,
                                  tolerance=args.tolerance, out=args.out)
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
