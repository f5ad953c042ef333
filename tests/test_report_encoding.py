"""JSON reports: the direct encoder writes exactly what
``json.dumps(sort_keys=True, indent=2)`` writes for numpy arrays and scalars
given as the lists and numbers they hold."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from test_report_digests import ALL_COMMANDS, CONFIGS, GEODESIC_ONLY

from finvar.cli import COMMANDS, _encode
from finvar.config import load_config

EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
               1e308, -1e308, 0.1, 1.0]


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2,
                      default=lambda o: o.tolist())


floats = st.floats() | st.sampled_from(EDGE_FLOATS)
shapes = array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
float_arrays = (
    arrays(np.float64, shapes, elements=floats)
    | arrays(np.float64, shapes,
             elements=st.floats(allow_nan=False, allow_infinity=False))
    | st.sampled_from([np.empty((0,)), np.empty((2, 0)), np.empty((0, 2)),
                       np.array(1.5), np.array([np.nan, 1.0]),
                       np.array([[np.inf], [-0.0]])]))
other_arrays = (arrays(np.int64, shapes)
                | arrays(np.bool_, shapes)
                | arrays(np.float32, shapes,
                         elements=st.floats(width=32)))
numpy_scalars = (floats.map(np.float64)
                 | st.floats(width=32).map(np.float32)
                 | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
                 | st.booleans().map(np.bool_))
leaves = (st.none() | st.booleans() | st.integers() | floats | st.text()
          | float_arrays | other_arrays | numpy_scalars)
documents = st.recursive(
    leaves,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=20)


@given(documents)
@settings(max_examples=250, deadline=None)
def test_matches_json_dumps(obj):
    assert _encode(obj, "") == dumps(obj)


@pytest.mark.parametrize("obj", [
    np.array(1.5), np.array(np.nan), {}, [], (), {"": {}}, [[]],
    {"ключ ✓": [np.empty((2, 0)), np.float64(-0.0)], "a": None},
], ids=["0d", "0d_nan", "empty_dict", "empty_list", "empty_tuple",
        "nested_empty_dict", "nested_empty_list", "non_ascii"])
def test_fixed_cases(obj):
    assert _encode(obj, "") == dumps(obj)


# n = 8 tensors have sides of 8 and 9; geodesic series hundreds of samples
@given(st.one_of(
    arrays(np.float64, shape, elements=elements)
    for shape in (array_shapes(min_dims=1, max_dims=3, max_side=9),
                  st.integers(150, 250))
    for elements in (floats, st.floats(allow_nan=False,
                                       allow_infinity=False))))
@settings(max_examples=150, deadline=None)
def test_wide_and_long_arrays(a):
    assert _encode({"a": a, "b": [a]}, "") == dumps({"a": a, "b": [a]})


BASE = np.arange(1.0, 61.0).reshape(3, 4, 5) / 7.0


@pytest.mark.parametrize("view", [
    BASE.T, BASE[::2], BASE[:, ::-1], BASE[..., ::-2], BASE[1].T,
    np.asfortranarray(BASE), BASE.ravel()[::3], BASE.swapaxes(0, 1)[:, 1:],
], ids=["T", "step_2", "reversed_axis_1", "reversed_step_last", "row_T",
        "fortran", "flat_step_3", "swapped_sliced"])
def test_non_contiguous_views_keep_their_order(view):
    assert not view.flags.c_contiguous
    assert _encode(view, "") == dumps(view)


def test_one_array_at_several_indents():
    a = np.array([[0.5, -1.25], [3e-300, 1e300]])
    obj = {"a": a, "b": {"c": a, "d": [a, a]}, "e": a[:1]}
    assert _encode(obj, "") == dumps(obj)


@pytest.mark.parametrize("name,command", [
    (name, command) for name in ALL_COMMANDS for command in COMMANDS] + [
    (name, "geodesic") for name in GEODESIC_ONLY])
def test_command_reports_match_json_dumps(tmp_path, name, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIGS[name]))
    # numpy's warnings are off inside the commands, as main runs them
    with np.errstate(all="ignore"):
        report, _ = COMMANDS[command].run(load_config(str(path)))
    assert _encode(report, "") == dumps(report)


def test_unserializable_value_raises():
    with pytest.raises(TypeError):
        _encode({"a": object()}, "")
