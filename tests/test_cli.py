"""End-to-end CLI runs: reports, formats, determinism, exit codes."""

import argparse
import contextlib
import copy
import dataclasses
import importlib
import io
import json
import pkgutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finvar
import finvar.cli
from finvar.cli import _build_parser, main
from finvar.metrics import MAX_NESTING

from conftest import wall_clock

NAN = float("nan")

ROOT = Path(__file__).resolve().parent.parent


COMMANDS = ("evaluate", "geodesic", "verify", "oracle")


def clear_caches() -> set:
    """Empty the cache of every cached function in the finvar modules;
    returns their names."""
    cleared = set()
    for info in pkgutil.iter_modules(finvar.__path__):
        module = importlib.import_module(f"finvar.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
                cleared.add(name)
    return cleared


# boxes whose width hi - lo overflows the float range
WIDE_BOXES = {"box_width_1e308": [-1e308, 1e308],
              "box_width_9e307": [-9e307, 9e307]}

# descriptors with a key their kind does not take
DESCRIPTOR_TYPOS = {
    "randers_alpha_feild": {"kind": "randers", "dim": 2,
                            "alpha_feild": "curved_x1",
                            "beta": {"potential": "linear",
                                     "params": [0.1, 0.0]}},
    "randers_beta_parms": {"kind": "randers", "dim": 2,
                           "beta": {"potential": "linear",
                                    "params": [0.1, 0.0],
                                    "parms": [0.2, 0.0]}},
    "randers_covector_params": {"kind": "randers", "dim": 2,
                                "beta": {"covector": "x2_dx1",
                                         "params": [0.1, 0.0]}},
    "klein_factor": {"kind": "klein", "dim": 2, "factor": 2.0},
    "funk_field": {"kind": "funk", "dim": 2, "field": "curved_x1"},
    "scaled_dim": {"kind": "scaled", "dim": 2, "factor": 2.0,
                   "base": {"kind": "klein", "dim": 2}},
}


def scaled_chain(depth):
    """``depth`` scaled descriptors nested over klein."""
    desc = {"kind": "klein", "dim": 2}
    for _ in range(depth):
        desc = {"kind": "scaled", "factor": 1.0, "base": desc}
    return desc


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "schema_version": 1,
        "pair": {
            "base": {"kind": "euclidean", "dim": 2},
            "comparison": {"kind": "klein", "dim": 2},
        },
        "samples": {"count": 10, "trajectories": 2},
        "seed": 999,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluate:
    def test_explicit_point_at_origin(self, tmp_path, capsys):
        cfg = write_config(tmp_path,
                           points=[{"x": [0.0, 0.0], "y": [0.0, 1.0]}])
        code, out, _ = run(capsys, "evaluate", "--config", cfg)
        assert code == 0
        report = json.loads(out)
        rec = report["records"][0]
        assert rec["f"] == pytest.approx([1.0, 1.0], abs=1e-12)
        assert rec["mu"] == pytest.approx(1.0, abs=1e-12)
        assert report["verdict"] == "pass"

    def test_scaled_pair_record(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "euclidean", "dim": 3},
            "comparison": {"kind": "scaled", "factor": 2.0,
                           "base": {"kind": "euclidean", "dim": 3}},
        }, points=[{"x": [0.2, 0.1, 0.0], "y": [1.0, 0.5, -0.5]}])
        code, out, _ = run(capsys, "evaluate", "--config", cfg)
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["f"] == pytest.approx([4.0, 4.0, 1.0], abs=1e-10)

    def test_identity_pair_binomials(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "funk", "dim": 3},
            "comparison": {"kind": "funk", "dim": 3},
        }, samples={"count": 4})
        code, out, _ = run(capsys, "evaluate", "--config", cfg)
        assert code == 0
        for rec in json.loads(out)["records"]:
            assert rec["f"] == pytest.approx([1.0, 2.0, 1.0], abs=1e-10)

    def test_csv_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, out, _ = run(capsys, "evaluate", "--config", cfg,
                           "--format", "csv")
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[:5] == ["index", "x1", "x2", "y1", "y2"]
        assert len(out.splitlines()) == 11  # header + 10 records


class TestGeodesic:
    def test_passing_pair(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, out, _ = run(capsys, "geodesic", "--config", cfg)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        traj = report["trajectories"][0]
        assert max(traj["max_rel_drift"][:1]) <= 1e-6
        assert traj["energy_rel_drift"] <= 1e-8
        assert traj["n_samples"] == len(traj["series"]["t"])

    def test_negative_control_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "euclidean", "dim": 2},
            "comparison": {"kind": "riemannian", "dim": 2,
                           "field": "curved_x1"},
        }, samples={"trajectories": 3})
        code, out, _ = run(capsys, "geodesic", "--config", cfg)
        assert code == 1
        report = json.loads(out)
        assert report["verdict"] == "fail"
        worst = max(max(t["max_abs_drift"]) for t in report["trajectories"])
        assert worst >= 1e-3

    def test_trajectory_csv_columns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, samples={"trajectories": 1})
        code, out, _ = run(capsys, "geodesic", "--config", cfg,
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t,x1,x2,y1,y2,f1,f2,energy"
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0 and len(first) == 8

    def test_identity_pair_integrals_flat(self, tmp_path, capsys):
        # f_alpha of (F, F) are global constants; drift is pure roundoff
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "klein", "dim": 2},
            "comparison": {"kind": "klein", "dim": 2},
        }, samples={"trajectories": 2})
        code, out, _ = run(capsys, "geodesic", "--config", cfg)
        assert code == 0
        for traj in json.loads(out)["trajectories"]:
            assert max(traj["max_abs_drift"]) <= 1e-10

    @pytest.mark.parametrize("comparison", ["klein", "funk"])
    def test_euclidean_base_truncated_at_ball_boundary(self, tmp_path,
                                                       capsys, comparison):
        # straight lines leave the comparison metric's unit ball long
        # before t_end; each trajectory stops at its last sample inside
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "euclidean", "dim": 2},
            "comparison": {"kind": comparison, "dim": 2},
        }, samples={"trajectories": 3, "velocity_scale": 1.0},
            integrator={"t_end": 3.0})
        code, out, _ = run(capsys, "geodesic", "--config", cfg)
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        for traj in report["trajectories"]:
            assert traj["domain_exit"] is True
            assert traj["t_final"] < 3.0
            assert np.linalg.norm(traj["series"]["x"], axis=1).max() < 1.0

    @pytest.mark.parametrize("integrator", [
        {"t_end": 3.0}, {"method": "rk4", "step": 0.02, "t_end": 3.0}],
        ids=["rkf45", "rk4"])
    def test_backward_run_mirrors_the_forward_one(self, tmp_path, capsys,
                                                  integrator):
        # a euclidean line run backward is the line run forward with the
        # opposite velocity: it leaves the klein ball at the same point,
        # and its report starts at the initial point with times negated
        reports = []
        for sign in (1.0, -1.0):
            cfg = write_config(
                tmp_path, points=[{"x": [0.5, 0.0],
                                   "y": [-sign, -0.2 * sign]}],
                integrator={**integrator,
                            "t_end": sign * integrator["t_end"]})
            code, out, _ = run(capsys, "geodesic", "--config", cfg)
            assert code == 0
            reports.append(json.loads(out)["trajectories"][0])
        forward, backward = reports
        assert forward["domain_exit"] is backward["domain_exit"] is True
        assert backward["series"]["t"][0] == 0.0
        assert backward["series"]["t"] == [-t for t in forward["series"]["t"]]
        assert backward["t_final"] == -forward["t_final"] < 0.0
        for key in ("n_samples", "n_accepted", "n_rejected", "f_initial",
                    "energy_initial", "max_abs_drift"):
            assert backward[key] == forward[key], key
        for key in ("x", "f"):
            assert backward["series"][key] == forward["series"][key], key

    @pytest.mark.parametrize("t_end", [0.93, 1.53, -3.06])
    def test_shipped_config_reaches_t_end(self, tmp_path, capsys, t_end):
        # rkf45 runs whose clamped last step rounds one ulp short of t_end
        cfg = json.loads((ROOT / "configs" / "randers_df_n3.json").read_text())
        cfg["integrator"] = {"t_end": t_end}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "geodesic", "--config", str(path))
        assert code == 0
        for traj in json.loads(out)["trajectories"]:
            assert traj["t_final"] == t_end and not traj["domain_exit"]

    @pytest.mark.parametrize("t_end", [1e-11, 1e-13, 1e-300])
    def test_short_horizon_reaches_t_end(self, tmp_path, capsys, t_end):
        # rkf45's first step, |t_end| / 100, lies below its 1e-12 floor
        cfg = json.loads((ROOT / "configs" / "euclid_klein_n2.json").read_text())
        cfg["integrator"]["t_end"] = t_end
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(capsys, "geodesic", "--config", str(path))
        assert code == 0
        for traj in json.loads(out)["trajectories"]:
            assert traj["t_final"] == t_end and not traj["domain_exit"]

    def test_base_point_frozen_at_the_margin_ends_the_run(self, tmp_path,
                                                          capsys):
        # klein's geodesics reach its 1e-9 domain margin near t = 10 and
        # freeze there in floats, with h above its floor: each run ends as
        # a domain exit at its first frozen step instead of creeping on
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "klein", "dim": 2},
            "comparison": {"kind": "funk", "dim": 2},
        }, samples={"trajectories": 3, "velocity_scale": 1.0},
            integrator={"t_end": 50.0})
        with wall_clock(30):
            code, out, err = run(capsys, "geodesic", "--config", cfg)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert [(t["domain_exit"], t["n_accepted"], t["n_rejected"],
                 t["n_samples"]) for t in report["trajectories"]] == [
            (True, 158, 53, 159), (True, 161, 60, 162), (True, 149, 64, 150)]
        assert [t["t_final"] for t in report["trajectories"]] == pytest.approx(
            [10.16805800877421, 9.929287082579695, 9.561621151907412],
            rel=1e-12)

    def test_out_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "geodesic", "--config", cfg,
                           "--out", str(out_path))
        assert code == 0 and out == ""
        report = json.loads(out_path.read_text())
        assert report["command"] == "geodesic"


class TestVerify:
    def test_euclid_funk_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "euclidean", "dim": 2},
            "comparison": {"kind": "funk", "dim": 2},
        }, samples={"count": 50})
        code, out, _ = run(capsys, "verify", "--config", cfg)
        assert code == 0
        report = json.loads(out)
        assert report["max_residual"] <= 1e-8

    def test_identity_pair_residual_tiny(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "klein", "dim": 2},
            "comparison": {"kind": "klein", "dim": 2},
        }, samples={"count": 20})
        code, out, _ = run(capsys, "verify", "--config", cfg)
        assert code == 0
        assert json.loads(out)["max_residual"] <= 1e-10

    def test_non_closed_beta_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "euclidean", "dim": 2},
            "comparison": {"kind": "randers", "dim": 2,
                           "beta": {"covector": "x2_dx1"}},
        }, samples={"count": 50})
        code, out, _ = run(capsys, "verify", "--config", cfg)
        assert code == 1
        assert json.loads(out)["verdict"] == "fail"

    def test_csv_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, samples={"count": 7})
        code, out, _ = run(capsys, "verify", "--config", cfg)
        norms = json.loads(out)["residual_norms"]
        assert code == 0 and len(norms) == 7
        code, out, _ = run(capsys, "verify", "--config", cfg,
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,residual_norm"
        # one row per residual, its norm written as the float's repr
        assert lines[1:] == [f"{i},{v!r}" for i, v in enumerate(norms)]


class TestOracleCommand:
    def test_n2_all_checks_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, samples={"count": 10})
        code, out, _ = run(capsys, "oracle", "--config", cfg)
        assert code == 0
        report = json.loads(out)
        names = {c["name"] for c in report["checks"]}
        assert names == {"charpoly_interpolation", "delta_combinatorial"}
        assert all(c["status"] == "pass" for c in report["checks"])

    def test_n4_combinatorial_skipped(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "euclidean", "dim": 4},
            "comparison": {"kind": "klein", "dim": 4},
        }, samples={"count": 5})
        code, out, _ = run(capsys, "oracle", "--config", cfg)
        assert code == 0
        report = json.loads(out)
        statuses = {c["name"]: c["status"] for c in report["checks"]}
        assert statuses["charpoly_interpolation"] == "pass"
        assert statuses["delta_combinatorial"] == "skipped"

    @pytest.mark.parametrize("n, statuses", [(2, ["pass"] * 3),
                                              (4, ["pass", "skipped"])])
    def test_csv_format(self, tmp_path, capsys, n, statuses):
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "euclidean", "dim": n},
            "comparison": {"kind": "klein", "dim": n},
        }, samples={"count": 5})
        code, out, _ = run(capsys, "oracle", "--config", cfg)
        checks = json.loads(out)["checks"]
        assert [check["status"] for check in checks] == statuses
        code, out, _ = run(capsys, "oracle", "--config", cfg,
                           "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        columns = lines[0].split(",")
        assert columns == ["name", "alpha", "cases", "max_rel_err",
                           "tolerance", "status"]
        # one row per check, in report order; a skipped check leaves its
        # cases, error and tolerance empty
        assert [line.split(",") for line in lines[1:]] == [
            [str(check.get(key, "")) for key in columns] for check in checks]


def _descriptor(kind, n):
    if kind == "randers_df":
        return {"kind": "randers", "dim": n,
                "beta": {"potential": "linear",
                         "params": [0.1] + [0.0] * (n - 1)}}
    if kind == "scaled_klein":
        return {"kind": "scaled", "factor": 2.0,
                "base": {"kind": "klein", "dim": n}}
    return {"kind": kind, "dim": n}


# (base, comparison) catalog kinds that are projectively related
RELATED_KINDS = [("klein", "funk"), ("funk", "klein"), ("klein", "klein"),
                 ("klein", "scaled_klein"), ("euclidean", "klein"),
                 ("euclidean", "funk"), ("euclidean", "randers_df")]


@pytest.mark.parametrize("n", range(4, 9))
@pytest.mark.parametrize("base,comparison", RELATED_KINDS)
def test_interpolation_oracle_is_exact_to_roundoff(tmp_path, capsys, base,
                                                   comparison, n):
    # the interpolation nodes stay well conditioned in n: at n = 8 integer
    # nodes erred up to 3e-8, past the 1e-9 oracle tolerance
    cfg = write_config(tmp_path, pair={"base": _descriptor(base, n),
                                       "comparison": _descriptor(comparison,
                                                                 n)},
                       samples={"count": 100, "box": [-0.3, 0.3]},
                       seed=12345)
    code, out, _ = run(capsys, "oracle", "--config", cfg)
    assert code == 0
    (check,) = [c for c in json.loads(out)["checks"]
                if c["name"] == "charpoly_interpolation"]
    assert check["cases"] == 100
    assert check["max_rel_err"] <= 1e-12


class TestCliContract:
    def test_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        _, out1, _ = run(capsys, "evaluate", "--config", cfg)
        _, out2, _ = run(capsys, "evaluate", "--config", cfg)
        assert out1 == out2
        _, geo1, _ = run(capsys, "geodesic", "--config", cfg)
        _, geo2, _ = run(capsys, "geodesic", "--config", cfg)
        assert geo1 == geo2

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_second_run_in_one_process_gives_the_same_bytes(
            self, tmp_path, capsys, command, fmt):
        # the first run builds every cache of the package afresh and the
        # second reads them
        cfg = write_config(
            tmp_path, pair={"base": {"kind": "klein", "dim": 3},
                            "comparison": {"kind": "funk", "dim": 3}},
            samples={"count": 4, "trajectories": 1},
            integrator={"t_end": 0.2}, seed=7)
        assert {"_seed_arrays", "_dots_arrays", "_permutation_pairs",
                "_array_template"} <= clear_caches()
        argv = (command, "--config", cfg, "--format", fmt)
        first = run(capsys, *argv)
        assert first[0] == 0 and first[1]
        assert run(capsys, *argv) == first

    def test_seed_override_changes_samples(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        _, out1, _ = run(capsys, "evaluate", "--config", cfg)
        _, out2, _ = run(capsys, "evaluate", "--config", cfg, "--seed", "1")
        assert out1 != out2

    def test_bad_schema_version(self, tmp_path, capsys):
        cfg = write_config(tmp_path, schema_version=99)
        code, out, err = run(capsys, "evaluate", "--config", cfg)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "config"

    def test_scaled_chain_at_the_nesting_limit_runs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "euclidean", "dim": 2},
            "comparison": scaled_chain(MAX_NESTING)},
            samples={"count": 2, "trajectories": 1})
        for command in COMMANDS:
            assert run(capsys, command, "--config", cfg)[0] == 0, command

    def test_json_nested_too_deeply_to_parse(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text('{"schema_version": 1, "pair": ' + "[" * 100000 + "}")
        code, out, err = run(capsys, "evaluate", "--config", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "config"

    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, typo_key=1)
        code, _, err = run(capsys, "evaluate", "--config", cfg)
        assert code == 2
        assert "typo_key" in json.loads(err)["message"]

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "evaluate", "--config", str(path))
        assert code == 2
        assert "line" in json.loads(err)["message"]

    @pytest.mark.parametrize("command,overrides", [
        ("evaluate", {"seed": "abc"}),
        ("evaluate", {"seed": -1}),
        ("evaluate", {"samples": {"count": "5"}}),
        ("evaluate", {"samples": {"box": ["a", 0.3]}}),
        *((command, {"samples": {"velocity_scale": 0}})
          for command in COMMANDS),
        ("evaluate", {"samples": 5}),
        ("geodesic", {"integrator": {"rtol": "x"}}),
        ("evaluate", {"tolerance": "loose"}),
        ("evaluate", {"tolerance": -1.0}),
        ("evaluate", {"points": [{"x": ["a", 0.1], "y": [1.0, 0.0]}]}),
        ("evaluate", {"points": [{"x": [NAN, 0.1], "y": [1.0, 0.0]}]}),
        ("geodesic", {"points": [{"x": [NAN, 0.1], "y": [1.0, 0.0]}]}),
        ("evaluate", {"pair": {
            "base": {"kind": "euclidean", "dim": 2},
            "comparison": {"kind": "riemannian", "dim": 2,
                           "field": "const_diag", "params": ["a", 1]}}}),
        ("evaluate", {"pair": {
            "base": {"kind": "euclidean", "dim": 2},
            "comparison": {"kind": "riemannian", "dim": 2,
                           "field": "const_diag", "params": [NAN, 1]}}}),
        ("evaluate", {"pair": {
            "base": {"kind": "euclidean", "dim": 2},
            "comparison": {"kind": "randers", "dim": 2,
                           "beta": {"potential": "linear",
                                    "params": ["q", 0]}}}}),
        ("evaluate", {"pair": {
            "base": {"kind": "euclidean", "dim": 2},
            "comparison": {"kind": "randers", "dim": 2,
                           "beta": {"potential": "linear",
                                    "params": [NAN, 0]}}}}),
        ("evaluate", {"pair": {
            "base": {"kind": "euclidean", "dim": 2},
            "comparison": {"kind": "scaled", "factor": NAN,
                           "base": {"kind": "klein", "dim": 2}}}}),
        ("evaluate", {"pair": {
            "base": {"kind": "euclidean", "dim": 2},
            "comparison": {"kind": "scaled", "factor": float("inf"),
                           "base": {"kind": "klein", "dim": 2}}}}),
        ("evaluate", {"integrator": {"method": "euler"}}),
        ("verify", {"integrator": {"method": "euler"}}),
        ("evaluate", {"out": True}),
        *((command, {"points": [{"x": [0.1, 0.2], "y": [1.0, 0.0]},
                                {"x": [0.1, 0.2, 0.3], "y": [1.0, 0.0, 0.0]}]})
          for command in COMMANDS),
        ("geodesic", {"integrator": {"method": "rk4", "t_end": 1e308,
                                     "step": 1e-3}}),
        ("geodesic", {"integrator": {"method": "rk4", "t_end": 1.0,
                                     "step": 1e-320}}),
        *((command, {"samples": {"box": box}})
          for box in WIDE_BOXES.values() for command in COMMANDS),
        *(("verify", {"pair": {"base": {"kind": "euclidean", "dim": 2},
                               "comparison": desc}})
          for desc in DESCRIPTOR_TYPOS.values()),
        ("evaluate", {"schema_version": True}),
        ("evaluate", {"schema_version": 1.0}),
        ("evaluate", {"points": [{"x": [0.1, 0.2], "y": [1.0, 0.0],
                                  "weight": 3}]}),
        *((command, {"pair": {"base": {"kind": "euclidean", "dim": 2},
                              "comparison": scaled_chain(depth)}})
          for depth in (MAX_NESTING + 1, 300) for command in COMMANDS),
    ], ids=["seed", "negative_seed", "count", "box",
            "velocity_scale_zero_evaluate", "velocity_scale_zero_geodesic",
            "velocity_scale_zero_verify", "velocity_scale_zero_oracle",
            "samples", "rtol",
            "tolerance", "negative_tolerance", "point_string", "point_nan_evaluate",
            "point_nan_geodesic", "const_diag_string",
            "const_diag_nan", "randers_beta_string", "randers_beta_nan",
            "scaled_factor_nan", "scaled_factor_inf", "method_evaluate",
            "method_verify", "out", "point_lengths_evaluate",
            "point_lengths_geodesic", "point_lengths_verify",
            "point_lengths_oracle", "rk4_steps_huge_t_end",
            "rk4_steps_tiny_step",
            *(f"{box}_{command}" for box in WIDE_BOXES
              for command in COMMANDS),
            *DESCRIPTOR_TYPOS, "schema_version_true",
            "schema_version_float", "point_unknown_key",
            *(f"scaled_depth_{depth}_{command}"
              for depth in (MAX_NESTING + 1, 300) for command in COMMANDS)])
    def test_malformed_value_types(self, tmp_path, capsys, command,
                                   overrides):
        cfg = write_config(tmp_path, **overrides)
        code, out, err = run(capsys, command, "--config", cfg)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "config"

    @pytest.mark.parametrize("value", [10 ** 400, -10 ** 400],
                             ids=["plus", "minus"])
    @pytest.mark.parametrize("slot", [
        "tolerance", "box", "velocity_scale", "t_end", "point", "factor",
        "count", "dim"])
    def test_integer_beyond_float_range(self, tmp_path, capsys, slot,
                                        value):
        # json reads the literal as an int that no float can hold
        overrides = {
            "tolerance": {"tolerance": value},
            "box": {"samples": {"box": [-0.3, value]}},
            "velocity_scale": {"samples": {"velocity_scale": value}},
            "t_end": {"integrator": {"t_end": value}},
            "point": {"points": [{"x": [0.1, value], "y": [1.0, 0.0]}]},
            "factor": {"pair": {
                "base": {"kind": "klein", "dim": 2},
                "comparison": {"kind": "scaled", "factor": value,
                               "base": {"kind": "klein", "dim": 2}}}},
            "count": {"samples": {"count": value}},
            "dim": {"pair": {
                "base": {"kind": "euclidean", "dim": value},
                "comparison": {"kind": "randers", "dim": value,
                               "beta": {"covector": "x2_dx1"}}}},
        }[slot]
        cfg = write_config(tmp_path, **overrides)
        command = "geodesic" if slot == "t_end" else "evaluate"
        code, out, err = run(capsys, command, "--config", cfg)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "config"

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "evaluate", "--config",
                           str(tmp_path / "nope.json"))
        assert code == 2

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        # explicit point outside the klein domain -> runtime error, exit 3
        cfg = write_config(tmp_path,
                           points=[{"x": [2.0, 0.0], "y": [1.0, 0.0]}])
        code, out, err = run(capsys, "evaluate", "--config", cfg)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_points_of_another_dimension_than_the_pair(self, tmp_path,
                                                       capsys, command):
        # one config error in every command, naming the config entry
        cfg = write_config(tmp_path, points=[{"x": [0.1, 0.0, 0.0],
                                              "y": [1.0, 0.0, 0.0]}])
        code, out, err = run(capsys, command, "--config", cfg)
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "config", "message": "points[0].x needs 2 entries, "
            "the dimension of the pair, got 3"}

    def test_non_convex_point_exit_code(self, tmp_path, capsys, monkeypatch):
        # every catalog metric is strongly convex in its domain, so the
        # catalog is patched to hand out a pseudo-metric with indefinite g
        import finvar.config
        from finvar.autodiff import gsqrt
        from finvar.metrics import FinslerMetric
        indefinite = FinslerMetric(
            "indefinite", 2,
            lambda xs, ys: gsqrt(ys[0] * ys[0] - 0.5 * ys[1] * ys[1]),
            lambda x: True)
        catalog = finvar.config.catalog_metric
        monkeypatch.setattr(
            finvar.config, "catalog_metric",
            lambda desc: (indefinite if desc["kind"] == "indefinite"
                          else catalog(desc)))
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "euclidean", "dim": 2},
            "comparison": {"kind": "indefinite"},
        }, points=[{"x": [0.0, 0.0], "y": [1.0, 0.1]}])
        code, out, err = run(capsys, "evaluate", "--config", cfg)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "SingularMetric"

    @pytest.mark.parametrize("command", ["evaluate", "verify", "oracle"])
    @pytest.mark.parametrize("third, error, where", [
        ({"x": [2.0, 0.0], "y": [1.0, 0.0]}, "DomainError", "klein: "),
        ({"x": [0.1, 0.0], "y": [1e-20, 0.0]}, "DegenerateVelocity",
         "euclidean: "),
        ({"x": [0.1, 0.0], "y": [0.0, 0.0]}, "DegenerateVelocity", ""),
    ], ids=["outside_domain", "tiny_velocity", "zero_velocity"])
    def test_runtime_error_names_the_failing_point(self, tmp_path, capsys,
                                                   command, third, error,
                                                   where):
        # every point of a command is evaluated in one stacked pass; the
        # error still says which point broke
        good = [{"x": [0.1, 0.2], "y": [1.0, 0.0]},
                {"x": [-0.2, 0.1], "y": [0.3, 0.7]}]
        cfg = write_config(tmp_path, points=good + [third])
        code, out, err = run(capsys, command, "--config", cfg)
        assert code == 3 and out == ""
        payload = json.loads(err)
        assert payload["error"] == error
        assert payload["message"].startswith(where)
        assert payload["message"].endswith("(point 2)")

    @pytest.mark.parametrize("command",
                             ["evaluate", "verify", "oracle", "geodesic"])
    @pytest.mark.parametrize("base, comparison, third, where", [
        ("euclidean", "klein", {"x": [0.1, 0.2], "y": [1e200, 1e200]},
         "euclidean: value inf not finite"),
        ("curved_x1", "euclidean", {"x": [1e200, 0.0], "y": [1.0, 0.0]},
         "riemannian[curved_x1]: square root argument nan not finite"),
        ("euclidean", "curved_x1", {"x": [1e200, 0.0], "y": [1.0, 0.0]},
         "riemannian[curved_x1]: square root argument nan not finite"),
    ], ids=["overflowed_value", "nan_base", "nan_comparison"])
    def test_non_finite_value_is_not_a_collapsed_velocity(
            self, tmp_path, capsys, command, base, comparison, third, where):
        # an inf or NaN metric value fails the positivity floor too, but is
        # reported as what it is
        def metric(kind):
            if kind == "curved_x1":
                return {"kind": "riemannian", "dim": 2, "field": kind}
            return {"kind": kind, "dim": 2}

        good = [{"x": [0.1, 0.2], "y": [1.0, 0.0]},
                {"x": [-0.2, 0.1], "y": [0.3, 0.7]}]
        cfg = write_config(tmp_path, pair={"base": metric(base),
                                           "comparison": metric(comparison)},
                           points=good + [third], integrator={"t_end": 0.2})
        code, out, err = run(capsys, command, "--config", cfg)
        assert code == 3 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "NonFiniteResult"
        if command != "geodesic":
            where += " (point 2)"
        elif comparison == "curved_x1":  # the comparison jets along it
            where += " (trajectory 2, point 0)"
        else:
            where += " (trajectory 2)"
        assert payload["message"] == where

    @pytest.mark.parametrize("base, comparison, message", [
        ("euclidean", "klein",
         "klein: base point [2. 0.] outside domain (trajectory 2, point 0)"),
        ("klein", "funk",
         "klein: base point [2. 0.] outside domain (trajectory 2)"),
    ], ids=["comparison_domain", "base_domain"])
    def test_geodesic_error_names_the_trajectory(self, tmp_path, capsys,
                                                 base, comparison, message):
        # a point index alone counts the samples of one trajectory
        points = [{"x": [0.1, 0.2], "y": [1.0, 0.0]},
                  {"x": [-0.2, 0.1], "y": [0.3, 0.7]},
                  {"x": [2.0, 0.0], "y": [1.0, 0.0]}]
        cfg = write_config(tmp_path, pair={
            "base": {"kind": base, "dim": 2},
            "comparison": {"kind": comparison, "dim": 2},
        }, points=points)
        code, out, err = run(capsys, "geodesic", "--config", cfg)
        assert code == 3 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "DomainError"
        assert payload["message"] == message

    @pytest.mark.parametrize("factor", [1e308, 1e200])
    def test_verify_overflow_is_a_runtime_error(self, tmp_path, capsys,
                                                factor):
        # the residual of an overflowing comparison metric is not a verdict
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "funk", "dim": 2},
            "comparison": {"kind": "scaled", "factor": factor,
                           "base": {"kind": "funk", "dim": 2}},
        }, samples={"count": 5})
        code, out, err = run(capsys, "verify", "--config", cfg)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "NonFiniteResult"

    def test_verify_overflowing_residual_names_the_comparison(self, tmp_path,
                                                              capsys):
        # the comparison jet is finite; its residual norm overflows
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "euclidean", "dim": 2},
            "comparison": {"kind": "scaled", "factor": 1e160,
                           "base": {"kind": "riemannian", "dim": 2,
                                    "field": "curved_x1"}},
        }, samples={"count": 5})
        code, out, err = run(capsys, "verify", "--config", cfg)
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "NonFiniteResult",
            "message": "scaled[1e+160]riemannian[curved_x1]: residual norm "
                       "inf not finite (point 0)"}

    def test_verify_tiny_factor_still_passes(self, tmp_path, capsys):
        # finiteness is certified, not the value floor
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "funk", "dim": 2},
            "comparison": {"kind": "scaled", "factor": 1e-120,
                           "base": {"kind": "funk", "dim": 2}},
        }, samples={"count": 5})
        code, out, err = run(capsys, "verify", "--config", cfg)
        assert code == 0 and err == ""
        assert json.loads(out)["verdict"] == "pass"

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("factor", [1e100, 1e130])
    def test_overflowing_scale_keeps_exit_code_contract(self, tmp_path,
                                                        capsys, command,
                                                        factor):
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "funk", "dim": 3},
            "comparison": {"kind": "scaled", "factor": factor,
                           "base": {"kind": "funk", "dim": 3}},
        }, samples={"count": 3, "trajectories": 1},
            integrator={"t_end": 0.2})
        code, out, err = run(capsys, command, "--config", cfg)
        assert code in (0, 1, 3)
        lines = err.splitlines()
        assert len(lines) <= 1
        if lines:
            assert isinstance(json.loads(lines[0]), dict)
        if code == 1:
            assert json.loads(out)["verdict"] == "fail"

    @pytest.mark.parametrize("n, factor, message", [
        (2, 1e60, "ri0_rel_err nan not finite (point 0)"),
        (3, 1e-30, "ri1_rel_err inf not finite (point 0)"),
    ], ids=["nan", "inf"])
    def test_non_finite_check_error_is_a_runtime_error(self, tmp_path, capsys,
                                                       n, factor, message):
        # at velocity scale 1e100, ri0 is inf / inf at factor 1e60, and
        # ri1's error overflows at factor 1e-30 while I1 is about 2e215:
        # neither may be folded into a verdict
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "klein", "dim": n},
            "comparison": {"kind": "scaled", "factor": factor,
                           "base": {"kind": "funk", "dim": n}},
        }, samples={"count": 3, "velocity_scale": 1e100})
        code, out, err = run(capsys, "evaluate", "--config", cfg)
        assert code == 3 and out == ""
        assert json.loads(err) == {"error": "NonFiniteResult",
                                   "message": message}

    def test_non_finite_drift_names_its_alpha(self, tmp_path, capsys,
                                              monkeypatch):
        # a drift check's samples are the alphas of one trajectory
        integrals_along = finvar.cli.integrals_along

        def overflowing(pair, traj):
            f_vals = integrals_along(pair, traj)
            f_vals[-1, 1] = np.inf
            return f_vals

        monkeypatch.setattr(finvar.cli, "integrals_along", overflowing)
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "euclidean", "dim": 3},
            "comparison": {"kind": "klein", "dim": 3},
        }, integrator={"t_end": 0.2})
        code, out, err = run(capsys, "geodesic", "--config", cfg)
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "NonFiniteResult",
            "message": "max_rel_drift inf not finite at alpha 2 "
                       "(trajectory 0)"}

    def test_non_finite_oracle_error_names_its_point(self, tmp_path, capsys,
                                                     monkeypatch):
        interpolation = finvar.cli.charpoly_by_interpolation

        def nan_at_point_1(H):
            coeffs = interpolation(H)
            coeffs[1, 0] = np.nan
            return coeffs

        monkeypatch.setattr(finvar.cli, "charpoly_by_interpolation",
                            nan_at_point_1)
        cfg = write_config(tmp_path, samples={"count": 3})
        code, out, err = run(capsys, "oracle", "--config", cfg)
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "NonFiniteResult",
            "message": "charpoly_interpolation nan not finite (point 1)"}

    @pytest.mark.parametrize("command, defaults", [
        ("evaluate", [1e-9]), ("geodesic", [1e-6]), ("verify", [1e-8]),
        ("oracle", [1e-9, 1e-8, 1e-8])])
    def test_tolerance_replaces_every_default(self, tmp_path, capsys,
                                              command, defaults):
        # oracle echoes one tolerance per check: interpolation, then
        # delta_1 and delta_2
        def echoed(argv):
            code, out, _ = run(capsys, command, "--config", cfg, *argv)
            assert code == 0
            report = json.loads(out)
            if "tolerance" in report:
                return [report["tolerance"]]
            return [check["tolerance"] for check in report["checks"]]

        cfg = write_config(tmp_path, samples={"count": 3, "trajectories": 1},
                           integrator={"t_end": 0.2})
        assert echoed([]) == defaults
        assert echoed(["--tolerance", "1e-7"]) == [1e-7] * len(defaults)

    def test_tolerance_override(self, tmp_path, capsys):
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "euclidean", "dim": 2},
            "comparison": {"kind": "funk", "dim": 2},
        }, samples={"count": 20})
        # absurdly tight tolerance forces a fail verdict
        code, out, _ = run(capsys, "verify", "--config", cfg,
                           "--tolerance", "1e-30")
        assert code == 1

    def test_negative_tolerance_override_is_a_config_error(self, tmp_path,
                                                          capsys):
        # a tolerance below 0 fails every input, so it is malformed; 0 is
        # a valid, strict tolerance
        cfg = write_config(tmp_path, samples={"count": 5})
        code, out, err = run(capsys, "verify", "--config", cfg,
                             "--tolerance", "-1")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "config"
        code, _, _ = run(capsys, "verify", "--config", cfg,
                         "--tolerance", "0")
        assert code in (0, 1)

    @pytest.mark.parametrize("setting,flag,value", [
        ("seed", "-1", -1), ("tolerance", "-1", -1.0),
        ("tolerance", "inf", float("inf"))])
    def test_a_flag_meets_the_check_of_its_config_key(self, tmp_path, capsys,
                                                      setting, flag, value):
        by_flag = run(capsys, "verify", "--config", write_config(tmp_path),
                      f"--{setting}", flag)
        by_file = run(capsys, "verify", "--config",
                      write_config(tmp_path, "bad.json", **{setting: value}))
        assert by_flag == by_file
        code, out, err = by_flag
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "config"
        assert error["message"].startswith(f"{setting} must be")

    @pytest.mark.parametrize("argv,message", [
        (["verify", "--config", "CFG", "--seed", "abc"],
         "finvar verify: argument --seed: invalid int value: 'abc'"),
        (["verify", "--config", "CFG", "--format", "xml"],
         "finvar verify: argument --format: invalid choice: 'xml'"),
        (["verify", "--config", "CFG", "--tolerance", "tight"],
         "finvar verify: argument --tolerance: invalid float value"),
        (["verify"], "finvar verify: the following arguments are required: "
                     "--config"),
        (["verify", "--config", "CFG", "--sed", "1"],
         "finvar: unrecognized arguments: --sed 1"),
        (["validate", "--config", "CFG"],
         "finvar: argument command: invalid choice: 'validate'"),
        ([], "finvar: the following arguments are required: command")])
    def test_a_malformed_command_line_is_a_config_error(self, tmp_path,
                                                        capsys, argv,
                                                        message):
        cfg = write_config(tmp_path)
        code, out, err = run(capsys, *(cfg if a == "CFG" else a
                                       for a in argv))
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "config"
        assert error["message"].startswith(message)

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: finvar") and captured.err == ""


def reference_parser() -> argparse.ArgumentParser:
    """The argument parser as it was built before the command table held
    each command's help line: the reference for the help texts."""
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


class TestChecksByName:
    """Each report row comes from its own check record: an oracle row
    carries its own alpha, q0 is reported and never votes, and the command
    table gives the help texts of the reference parser."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_oracle_rows_carry_alpha_1_to_n(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "euclidean", "dim": n},
            "comparison": {"kind": "klein", "dim": n},
        }, samples={"count": 4})
        code, out, _ = run(capsys, "oracle", "--config", cfg)
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [(c["name"], c.get("alpha")) for c in checks] == [
            ("charpoly_interpolation", None),
            *(("delta_combinatorial", alpha) for alpha in range(1, n + 1))]
        assert all(c["status"] == "pass" for c in checks)

    @pytest.mark.parametrize("n", [4, 5])
    def test_oracle_skipped_row_comes_last_with_alpha_1(self, tmp_path,
                                                        capsys, n):
        cfg = write_config(tmp_path, pair={
            "base": {"kind": "euclidean", "dim": n},
            "comparison": {"kind": "klein", "dim": n},
        }, samples={"count": 3})
        code, out, _ = run(capsys, "oracle", "--config", cfg)
        assert code == 0
        checks = json.loads(out)["checks"]
        assert [(c["name"], c.get("alpha"), c["status"]) for c in checks] == [
            ("charpoly_interpolation", None, "pass"),
            ("delta_combinatorial", 1, "skipped")]

    def test_q0_never_votes(self, tmp_path, capsys, monkeypatch):
        # q0 set to 0.5 at every point, far above --tolerance, while the
        # four cross-checks read the true f_alpha
        first_integrals = finvar.cli.first_integrals

        def large_q0(jets):
            fiv = first_integrals(jets)
            coeffs = np.array(fiv.coeffs)
            coeffs[:, 0] = 0.5
            return dataclasses.replace(fiv, coeffs=coeffs)

        monkeypatch.setattr(finvar.cli, "first_integrals", large_q0)
        cfg = write_config(tmp_path, samples={"count": 3})
        code, out, _ = run(capsys, "evaluate", "--config", cfg,
                           "--tolerance", "1e-6")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["worst"]["q0_abs"] == 0.5
        assert [r["checks"]["q0_abs"] for r in report["records"]] == [0.5] * 3
        assert all(report["worst"][name] <= 1e-6
                   for name in finvar.cli.CROSS_CHECKS)

    @pytest.mark.parametrize("argv", [["--help"]] + [[command, "--help"]
                                                     for command in COMMANDS])
    def test_help_texts_are_the_reference_parsers(self, capsys, monkeypatch,
                                                  argv):
        monkeypatch.setenv("COLUMNS", "80")
        texts = []
        for parse in (main, reference_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            assert exc.value.code == 0
            texts.append(capsys.readouterr())
        assert texts[0] == texts[1] and texts[0].err == ""


class TestRepeatedMain:
    """main may be called many times in one process; its parser is built
    once and no flag carries over from one call to the next."""

    @pytest.fixture(autouse=True)
    def fresh_parser(self):
        _build_parser.cache_clear()

    def test_parser_built_once(self):
        assert _build_parser() is _build_parser()

    def test_flags_do_not_carry_over(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        first = run(capsys, "verify", "--config", cfg)
        code, out, _ = run(capsys, "verify", "--config", cfg, "--seed", "1",
                           "--format", "csv")
        assert code == 0 and out.startswith("index,residual_norm\n")
        assert run(capsys, "verify", "--config", cfg) == first

    def test_out_does_not_carry_over(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "oracle", "--config", cfg,
                           "--out", str(out_path))
        assert code == 0 and out == ""
        code, out, _ = run(capsys, "oracle", "--config", cfg)
        assert code == 0 and out == out_path.read_text()

    def test_argv_error_then_valid_call(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, _, err = run(capsys, "verify", "--config", cfg,
                           "--format", "xml")
        assert code == 2 and json.loads(err)["error"] == "config"
        code, out, err = run(capsys, "verify", "--config", cfg)
        assert code == 0 and err == ""
        assert json.loads(out)["verdict"] == "pass"


# -- config fuzz -------------------------------------------------------------

# Small valid configs whose leaves the fuzz replaces one at a time; count <= 3
# keeps each run to a few jets.
FUZZ_BASES = [
    {
        "schema_version": 1,
        "pair": {"base": {"kind": "euclidean", "dim": 2},
                 "comparison": {"kind": "klein", "dim": 2}},
        "samples": {"count": 3, "trajectories": 1, "box": [-0.3, 0.3],
                    "velocity_scale": 1.0},
        "integrator": {"method": "rkf45", "rtol": 1e-10, "atol": 1e-10,
                       "step": 1e-3, "t_end": 0.5},
        "tolerance": 1e-9,
        "seed": 3,
        "format": "json",
    },
    {
        "schema_version": 1,
        "pair": {"base": {"kind": "riemannian", "dim": 2,
                          "field": "const_diag", "params": [1.0, 2.0]},
                 "comparison": {"kind": "randers", "dim": 2,
                                "alpha_field": "const_diag",
                                "alpha_params": [1.0, 2.0],
                                "beta": {"potential": "linear",
                                         "params": [0.1, 0.0]}}},
        "samples": {"count": 2},
        "points": [{"x": [0.1, -0.2], "y": [1.0, 0.5]}],
    },
    {
        "schema_version": 1,
        "pair": {"base": {"kind": "funk", "dim": 2},
                 "comparison": {"kind": "scaled", "factor": 2.0,
                                "base": {"kind": "funk", "dim": 2}}},
        "samples": {"count": 2},
    },
]

FUZZ_VALUES = ["x", float("nan"), float("inf"), 1e308, 1e100, True, None,
               [0.5], 10 ** 400, -10 ** 400]


def _fuzz_paths(node, path=()):
    """Every value below the top level that is not an object."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        if not isinstance(child, dict):
            yield path + (key,)
        yield from _fuzz_paths(child, path + (key,))


FUZZ_CASES = [(i, p) for i, base in enumerate(FUZZ_BASES)
              for p in _fuzz_paths(base)]


@given(st.sampled_from(FUZZ_CASES), st.sampled_from(FUZZ_VALUES))
@settings(max_examples=60, deadline=None)
def test_config_fuzz_keeps_exit_code_contract(case, value):
    index, path = case
    cfg = copy.deepcopy(FUZZ_BASES[index])
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = f"{tmp}/cfg.json"
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        for command in ("evaluate", "verify"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main([command, "--config", cfg_path])
            assert code in (0, 1, 2, 3)
            lines = err.getvalue().splitlines()
            assert len(lines) <= 1
            if lines:
                assert isinstance(json.loads(lines[0]), dict)
            if code == 1:
                assert json.loads(out.getvalue())["verdict"] == "fail"
