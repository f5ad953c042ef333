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
RKF45 = {"t_end": 0.2}
RK4 = {"method": "rk4", "step": 0.05, "t_end": 0.2}


@pytest.mark.parametrize("command, integrator", [
    pytest.param("evaluate", RKF45, id="evaluate"),
    pytest.param("geodesic", RKF45, id="geodesic"),
    pytest.param("verify", RKF45, id="verify"),
    pytest.param("oracle", RKF45, id="oracle"),
    # the tracer reads the method from integrate_geodesic's keywords
    pytest.param("geodesic", RK4, id="geodesic-rk4")])
def test_traced_cli_run(tmp_path, capsys, command, integrator):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "pair": {"base": {"kind": "euclidean", "dim": 2},
                 "comparison": {"kind": "klein", "dim": 2}},
        "samples": SAMPLES, "integrator": integrator, "seed": 1}))
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
        # the integrator's own jets, outside the traced metric_jet: one at
        # each sample, the initial state included, and per attempted step
        # five more rkf45 stages or three more rk4 stages
        method = integrator.get("method", "rkf45")
        accepted = tracer.steps[method, "accepted"]
        attempted = accepted + tracer.steps[method, "rejected"]
        stages = 3 if method == "rk4" else 5
        assert accepted > 0 and set(tracer.rhs_calls()) == {method}
        assert tracer.rhs_calls()[method] == (stages * attempted + accepted
                                              + SAMPLES["trajectories"])
    assert [getattr(importlib.import_module(m), a)
            for m, a in TARGETS] == originals
