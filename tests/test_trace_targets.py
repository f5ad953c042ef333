"""The names the benchmark's span tracer patches still exist in finvar.

``bench/spans.py`` wraps finvar functions by module and attribute name; a
function renamed or removed here would break a traced benchmark run
(``bench/run.py --trace 1``) long after the suite passed. The tracer module
imports only the standard library, so it is loaded straight from its file.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
