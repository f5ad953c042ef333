"""The benchmark's span tracer still works on finvar.

``bench/spans.py`` wraps finvar functions by module and attribute name and
reads their results (the number of points sampled, the step counts of each
trajectory); a function renamed or removed here, or a result of another
type, would break a traced benchmark run (``bench/run.py --trace 1``) long
after the suite passed. The tracer module imports only the standard
library, so it is loaded straight from its file.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import finvar.cli
import finvar.metrics

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("finvar_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(module, attr) for module, attr, _ in load_spans().TARGETS]


@pytest.mark.parametrize("module_name, attr", TARGETS,
                         ids=[f"{m}.{a}" for m, a in TARGETS])
def test_trace_target_is_a_finvar_callable(module_name, attr):
    assert module_name.startswith("finvar.")
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_counted_pair_method_exists():
    assert callable(finvar.metrics.ProjectivePair.in_domain)


SAMPLES = {"count": 5, "trajectories": 2}


@pytest.mark.parametrize("command", ["evaluate", "geodesic", "verify",
                                     "oracle"])
def test_traced_cli_run(tmp_path, capsys, command):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "pair": {"base": {"kind": "euclidean", "dim": 2},
                 "comparison": {"kind": "klein", "dim": 2}},
        "samples": SAMPLES, "integrator": {"t_end": 0.2}, "seed": 1}))
    originals = [getattr(importlib.import_module(m), a) for m, a in TARGETS]
    tracer = load_spans().Tracer()
    with tracer.installed():
        code = finvar.cli.main([command, "--config", str(config)])
    assert code == 0 and capsys.readouterr().err == ""
    assert "config.sample_tangent_points" in tracer.names
    assert not any(tracer.errors)
    key = "trajectories" if command == "geodesic" else "count"
    assert tracer.sampled_points == SAMPLES[key]
    if command == "geodesic":
        # the integrator's own jets, outside the traced metric_jet: five
        # stages per attempted step and one at each sample, the initial
        # state included
        accepted = tracer.steps["rkf45", "accepted"]
        attempted = accepted + tracer.steps["rkf45", "rejected"]
        assert tracer.rhs_calls()["rkf45"] == (5 * attempted + accepted
                                               + SAMPLES["trajectories"])
    assert [getattr(importlib.import_module(m), a)
            for m, a in TARGETS] == originals
