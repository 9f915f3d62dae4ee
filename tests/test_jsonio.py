"""The emitter renders arrays exactly as its per-element float formatter does."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from growthcert import jsonio

SHAPES = [(0,), (3, 0), (1,), (5, 3), (4, 2, 4), (200, 8, 200)]


def _reference(array: np.ndarray) -> str:
    """Each element through ``format_float`` over ``tolist()``, brackets by nesting."""
    def render(v):
        if isinstance(v, list):
            return "[" + ", ".join(map(render, v)) + "]"
        return jsonio.format_float(v)
    return render(array.tolist()) + "\n"


def _assert_matches(array: np.ndarray) -> None:
    got, want = jsonio.dumps(array), _reference(array)
    if got != want:  # report a window, not a diff of megabytes
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                  min(len(got), len(want)))
        pytest.fail(f"at {at}: {got[at - 30:at + 30]!r} != {want[at - 30:at + 30]!r}")


def _edge_values(dtype) -> np.ndarray:
    info = np.finfo(dtype)
    return np.array([-0.0, info.smallest_subnormal, info.tiny, info.max, -info.max,
                     0.1, 1e16, 3.0, -7.0, 2.0 ** 24, 1.0], dtype=dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_float_arrays_match_reference(shape, dtype):
    _assert_matches(np.random.default_rng(len(shape)).standard_normal(shape).astype(dtype))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_edge_values_match_reference(dtype):
    values = _edge_values(dtype)
    _assert_matches(values)
    _assert_matches(values[::-2])
    tiled = np.resize(values, (3, 2, 4))
    _assert_matches(tiled.transpose(2, 0, 1))
    assert jsonio.dumps({"a": {"b": tiled}}) == \
        '{\n  "a": {\n    "b": ' + _reference(tiled)[:-1] + "\n  }\n}\n"


def test_double_edge_values_render_exactly():
    values = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                       0.1, 1e16, 3.0])
    assert jsonio.dumps(values) == (
        "[-0, 4.9406564584124654e-324, 2.2250738585072014e-308, "
        "1.7976931348623157e+308, 0.10000000000000001, 10000000000000000, 3]\n")


@given(hnp.arrays(np.float64,
                  hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=6),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
@settings(max_examples=200, deadline=None)
def test_finite_doubles_match_reference(array):
    _assert_matches(array)


def test_non_finite_arrays_keep_per_element_path():
    assert jsonio.dumps(np.array([[1.0, np.inf], [-np.inf, 0.5]])) == \
        '[[1, "inf"], ["-inf", 0.5]]\n'
    with pytest.raises(ValueError, match="NaN"):
        jsonio.dumps({"x": np.array([1.0, np.nan])})


def test_unknown_objects_are_refused():
    with pytest.raises(TypeError, match="cannot serialize object"):
        jsonio.dumps(object())


def test_integer_and_boolean_arrays_unchanged():
    assert jsonio.dumps(np.array([[1, -2], [3, 40]])) == "[[1, -2], [3, 40]]\n"
    assert jsonio.dumps(np.array([2 ** 63 - 1], dtype=np.int64)) == "[9223372036854775807]\n"
    assert jsonio.dumps(np.array([True, False])) == "[true, false]\n"
    assert jsonio.dumps(np.zeros((2, 0), dtype=int)) == "[[], []]\n"


def test_zero_dimensional_arrays():
    doc = {"f": np.array(0.5), "i": np.array(3), "b": np.array(True),
           "inf": np.array(-np.inf, dtype=np.float32)}
    assert jsonio.dumps(doc) == '{\n  "f": 0.5,\n  "i": 3,\n  "b": true,\n  "inf": "-inf"\n}\n'


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(), (1,), (6,), (3, 0), (5, 3), (4, 2, 4), (200, 8, 200)],
                         ids=str)
def test_arrays_of_signed_zeros_match_reference(shape, dtype):
    # +0.0 is written into the template as 0; -0.0 is still formatted, as -0
    rng = np.random.default_rng(len(shape))
    values = rng.standard_normal(shape)
    values[rng.random(shape) < 0.8] = 0.0
    values[rng.random(shape) < 0.1] = -0.0
    values = values.astype(dtype)
    _assert_matches(values)
    _assert_matches(np.zeros(shape, dtype))
    _assert_matches(-np.zeros(shape, dtype))
    assert jsonio.dumps(np.array([0.0, -0.0, 0.5, 0.0], dtype)) == "[0, -0, 0.5, 0]\n"


def test_deterministic_occupation_measure_matches_reference():
    # one chosen action per state: (a - 1) / a of the entries are +0.0
    rng = np.random.default_rng(9)
    eta = np.zeros((200, 8, 200))
    eta[np.arange(200), rng.integers(8, size=200)] = rng.random((200, 200))
    _assert_matches(eta)
    _assert_matches(eta.transpose(2, 0, 1))
