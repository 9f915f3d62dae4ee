"""Model construction, validation, generators, and file round-trips."""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

from conftest import FIB_ADJACENCY, fib_model, random_positive_model, random_walk_exit_model
from growthcert import (
    MdpModel,
    Policy,
    gen_exit_model,
    gen_graph_model,
    gen_portfolio_model,
    jsonio,
    load_model,
    save_model,
    solve_eigen,
    validate,
)
from growthcert.errors import (
    CertainExit,
    DanglingVertex,
    DimensionMismatch,
    NotStochastic,
    ParseError,
    SchemaError,
)
from growthcert.model import _number_array, _strongly_connected


def _singleton(weight: float) -> MdpModel:
    return MdpModel(
        states=["s0"], actions=["a0"],
        kernel=np.ones((1, 1, 1)), weights=np.full((1, 1, 1), weight),
    )


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def test_kernel_shape_must_match_labels():
    with pytest.raises(DimensionMismatch, match="kernel"):
        MdpModel(states=["a", "b"], actions=["u"],
                 kernel=np.ones((1, 1, 1)), weights=np.ones((2, 1, 2)) / 2)


def test_weights_shape_must_match_labels():
    with pytest.raises(DimensionMismatch, match="weights"):
        MdpModel(states=["a", "b"], actions=["u"],
                 kernel=np.ones((2, 1, 2)) / 2, weights=np.ones((2, 2, 2)))


def test_duplicate_labels_rejected():
    with pytest.raises(SchemaError, match="distinct"):
        MdpModel(states=["a", "a"], actions=["u"],
                 kernel=np.ones((2, 1, 2)) / 2, weights=np.ones((2, 1, 2)))


def test_negative_and_nonfinite_entries_rejected():
    kernel = np.ones((1, 1, 1))
    with pytest.raises(SchemaError):
        MdpModel(states=["s"], actions=["u"], kernel=kernel,
                 weights=-np.ones((1, 1, 1)))
    with pytest.raises(SchemaError):
        MdpModel(states=["s"], actions=["u"], kernel=np.full((1, 1, 1), np.nan),
                 weights=np.ones((1, 1, 1)))


@pytest.mark.parametrize("build", [
    lambda: Policy([["1.0", "0"], ["0.5", "0.5"]]),
    lambda: MdpModel(["a"], ["u"], [[["1.0"]]], [[["2"]]]),
    lambda: MdpModel(["a", "b"], ["u"], [[[0.5, 0.5]], [[1.0]]], np.ones((2, 1, 2))),
], ids=["policy-strings", "model-strings", "ragged-kernel"])
def test_constructors_refuse_what_is_not_a_rectangular_array_of_numbers(build):
    # numpy parses "1.0" under dtype=float, and a ragged list raises a bare ValueError
    with pytest.raises(SchemaError, match="rectangular array of numbers"):
        build()


def test_tensors_are_frozen():
    model = fib_model()
    with pytest.raises(ValueError):
        model.kernel[0, 0, 0] = 0.7
    with pytest.raises(ValueError):
        model.weights[0, 0, 0] = 0.7


def test_model_does_not_alias_caller_arrays():
    kernel = np.full((2, 1, 2), 0.5)
    weights = np.ones((2, 1, 2))
    model = MdpModel(states=["a", "b"], actions=["u"], kernel=kernel, weights=weights)
    assert kernel.flags.writeable and weights.flags.writeable
    assert not np.shares_memory(model.kernel, kernel)
    assert not np.shares_memory(model.weights, weights)
    weights[0, 0, 0] = 3.0
    assert model.weights[0, 0, 0] == 1.0


def test_row_sum_within_1e12_passes_silently():
    model = _singleton(1.0)
    assert model.renormalized_rows == ()
    assert validate(model).stochastic_ok


def test_row_sum_within_1e6_is_renormalized_and_recorded():
    kernel = np.ones((2, 1, 2)) / 2
    kernel[0, 0] *= 1.0 + 1e-8
    model = MdpModel(states=["a", "b"], actions=["u"],
                     kernel=kernel, weights=np.ones((2, 1, 2)))
    assert model.renormalized_rows == ((0, 0),)
    assert_allclose(model.kernel.sum(axis=2), 1.0, rtol=0, atol=1e-15)
    report = validate(model)
    assert not report.stochastic_ok
    assert (0, 0) in report.stochastic_violations


def test_row_sum_beyond_1e6_is_a_hard_error():
    kernel = np.zeros((1, 1, 1))
    kernel[0, 0, 0] = 0.9
    with pytest.raises(NotStochastic) as exc_info:
        MdpModel(states=["s"], actions=["u"], kernel=kernel,
                 weights=np.ones((1, 1, 1)))
    assert exc_info.value.violations == [(0, 0)]


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_full_support_singleton():
    report = validate(_singleton(math.e ** 2))
    assert report.a0_plus and report.a1_plus
    assert report.dead_states == ()
    assert report.gain_irreducible
    assert report.stochastic_ok


def test_validate_fibonacci_graph():
    report = validate(fib_model())
    assert not report.a0_plus  # off-edge transitions carry zero weight
    assert not report.a1_plus
    assert report.gain_irreducible
    assert report.dead_states == ()


def test_validate_reports_dead_state_and_reducibility():
    kernel = np.zeros((2, 1, 2))
    kernel[0, 0, 1] = 1.0
    kernel[1, 0, 1] = 1.0
    weights = np.zeros((2, 1, 2))
    weights[0, 0, 1] = 1.0  # state 1 has an all-zero reward row
    model = MdpModel(states=["a", "b"], actions=["u"], kernel=kernel, weights=weights)
    report = validate(model)
    assert report.dead_states == (1,)
    assert not report.gain_irreducible


def _closure_strongly_connected(adj: np.ndarray) -> bool:
    """Reference: Warshall's transitive closure (with the empty path) is all true."""
    reach = adj | np.eye(len(adj), dtype=bool)
    for k in range(len(adj)):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    return bool(reach.all())


@given(hnp.arrays(np.bool_, st.integers(1, 12).map(lambda n: (n, n))))
@settings(max_examples=300, deadline=None)
def test_strongly_connected_matches_transitive_closure(adj):
    assert _strongly_connected(adj) == _closure_strongly_connected(adj)


@pytest.mark.parametrize("closed", [False, True])
def test_strongly_connected_on_relabelled_long_cycle(closed):
    order = np.random.default_rng(7).permutation(200)
    adj = np.zeros((200, 200), dtype=bool)
    adj[order[:-1], order[1:]] = True
    adj[order[-1], order[0]] = closed
    assert _strongly_connected(adj) is closed
    assert _strongly_connected(adj.T) is closed


def test_validate_is_idempotent_and_pure():
    model = random_positive_model(3)
    kernel_before = model.kernel.copy()
    assert validate(model) == validate(model)
    assert validate(model) is validate(model) is model.report
    assert_array_equal(model.kernel, kernel_before)


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

def test_policy_rows_must_be_distributions():
    with pytest.raises(NotStochastic):
        Policy(np.array([[0.5, 0.4]]))
    assert Policy(np.array([[0.5, 0.5]])).kind == "randomized"
    assert Policy(np.array([[0.0, 1.0], [1.0, 0.0]])).kind == "deterministic"


def test_policy_constructors_and_choices():
    det = Policy.deterministic([1, 0], n_actions=2)
    assert det.kind == "deterministic"
    assert_array_equal(det.choices(), [1, 0])
    uni = Policy.uniform(2, 4)
    assert_allclose(uni.phi, 0.25, rtol=0, atol=0)



@pytest.mark.parametrize("choices", [[-1, 0], [0, 2], [0.5, 1], [[0], [1]], []])
def test_deterministic_policy_rejects_a_choice_that_is_not_an_action(choices):
    # -1 would pick the last action and 2 or 0.5 raise a bare IndexError
    with pytest.raises(SchemaError, match="integers in 0..1"):
        Policy.deterministic(choices, n_actions=2)
    assert_array_equal(Policy.deterministic(np.array([1, 0], dtype=np.uint8), 2).choices(),
                       [1, 0])

# ---------------------------------------------------------------------------
# Graph generator
# ---------------------------------------------------------------------------

def test_gen_graph_fibonacci_rows():
    model = fib_model()
    assert_array_equal(model.kernel[:, 0, :], [[0.5, 0.5], [1.0, 0.0]])
    assert_array_equal(model.weights[:, 0, :], [[2.0, 2.0], [1.0, 0.0]])
    # kernel * weights collapses back to the exact adjacency indicator
    assert_array_equal(model.gain[:, 0, :], FIB_ADJACENCY)


def test_gen_graph_complete_digraph():
    d = 4
    model = gen_graph_model([np.ones((d, d), dtype=int)])
    assert_array_equal(model.kernel, np.full((d, 1, d), 1.0 / d))
    assert_array_equal(model.weights, np.full((d, 1, d), float(d)))


def test_gen_graph_gain_is_exact_indicator():
    rng = np.random.default_rng(5)
    for _ in range(10):
        adj = (rng.random((4, 4)) < 0.5).astype(int)
        adj[np.arange(4), rng.integers(0, 4, size=4)] = 1  # ensure out-degree
        model = gen_graph_model([adj])
        assert_array_equal(model.gain[:, 0, :], adj)


def test_gen_graph_rejects_dangling_vertex():
    with pytest.raises(DanglingVertex):
        gen_graph_model([np.array([[1, 1], [0, 0]])])


# ---------------------------------------------------------------------------
# Portfolio generator
# ---------------------------------------------------------------------------

def _one_state_support(points):
    return [[points]]


def test_gen_portfolio_bank_only_rate():
    theta, r_bank = 1.5, 0.04
    model = gen_portfolio_model(
        Q=np.array([[1.0]]),
        w_support=_one_state_support([(1.0, [1.1])]),
        theta=theta,
        r_bank=r_bank,
        grid=[[0.0]],
    )
    assert_allclose(model.kernel, 1.0, rtol=0, atol=0)
    # all wealth in the bank: growth factor is exp(-(theta/2) r_bank) per step
    assert_allclose(model.weights, math.exp(-theta / 2 * r_bank), rtol=1e-15)
    sol = solve_eigen(model)
    assert abs(sol.log_rho - (-theta / 2 * r_bank)) <= 1e-12
    assert "theta=1.5" in model.metadata


def test_gen_portfolio_single_point_hand_value():
    theta, r_bank = 2.0, 0.05
    w = 1.2
    grid = [[0.0], [0.5], [1.0]]
    model = gen_portfolio_model(
        Q=np.array([[1.0]]),
        w_support=_one_state_support([(1.0, [w])]),
        theta=theta,
        r_bank=r_bank,
        grid=grid,
    )
    bank = math.exp(r_bank)
    mu = [
        (bank + a * (w - bank)) ** (-theta / 2)
        for (a,) in grid
    ]
    assert_allclose(model.weights[0, :, 0], mu, rtol=1e-15)
    sol = solve_eigen(model)
    assert_allclose(sol.log_rho, max(math.log(m) for m in mu), rtol=0, atol=1e-12)


def test_gen_portfolio_rows_stochastic_and_weights_positive():
    rng = np.random.default_rng(11)
    Q = rng.gamma(1.0, size=(2, 2)) + 0.1
    Q /= Q.sum(axis=1, keepdims=True)
    support = [
        [
            [(0.5, rng.uniform(0.8, 1.3, size=2)), (0.5, rng.uniform(0.8, 1.3, size=2))]
            for _ in range(2)
        ]
        for _ in range(2)
    ]
    model = gen_portfolio_model(Q=Q, w_support=support, theta=1.0, r_bank=0.03,
                                grid=[[0, 0], [0.5, 0.25], [0, 1]])
    assert np.all(np.abs(model.kernel.sum(axis=2) - 1.0) <= 1e-12)
    report = validate(model)
    assert report.a0_plus


def test_gen_portfolio_input_errors():
    support = _one_state_support([(1.0, [1.1])])
    with pytest.raises(NotStochastic):
        gen_portfolio_model(Q=np.array([[0.9]]), w_support=support,
                            theta=1.0, r_bank=0.05, grid=[[0.0]])
    with pytest.raises(SchemaError, match="theta"):
        gen_portfolio_model(Q=np.array([[1.0]]), w_support=support,
                            theta=0.0, r_bank=0.05, grid=[[0.0]])
    with pytest.raises(SchemaError, match="allocation"):
        gen_portfolio_model(Q=np.array([[1.0]]), w_support=support,
                            theta=1.0, r_bank=0.05, grid=[[1.5]])
    with pytest.raises(SchemaError, match="positive"):
        gen_portfolio_model(Q=np.array([[1.0]]),
                            w_support=_one_state_support([(1.0, [0.0])]),
                            theta=1.0, r_bank=0.05, grid=[[0.0]])


# ---------------------------------------------------------------------------
# Exit generator
# ---------------------------------------------------------------------------

def test_gen_exit_random_walk_structure():
    model = random_walk_exit_model()
    assert model.states == ("s1", "s2", "s3")
    # survival probability is constant across the landing state
    assert np.all(model.weights == model.weights[:, :, :1])
    assert_allclose(model.weights[:, 0, 0], [0.5, 1.0, 0.5], rtol=0, atol=0)
    assert np.all(np.abs(model.kernel.sum(axis=2) - 1.0) <= 1e-12)


def test_gen_exit_absorbing_set_has_unit_weights():
    P = np.array([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.0, 0.0, 1.0]])
    model = gen_exit_model([P], S0=[2])
    assert_array_equal(model.weights, np.ones((2, 1, 2)))
    sol = solve_eigen(model)
    assert abs(sol.log_rho) <= 1e-10  # nothing ever exits


def test_gen_exit_certain_exit_rejected():
    P = np.array([[0.0, 0.0, 1.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(CertainExit, match=r"\[0\]"):
        gen_exit_model([P], S0=[2])


def test_gen_exit_input_errors():
    with pytest.raises(NotStochastic):
        gen_exit_model([np.array([[0.5, 0.4], [0.5, 0.5]])], S0=[0])
    P = np.eye(2)
    with pytest.raises(DimensionMismatch):
        gen_exit_model([P], S0=[0, 1])
    with pytest.raises(DimensionMismatch):
        gen_exit_model([P], S0=[5])


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_save_load_round_trip_is_bit_exact(tmp_path):
    for model in (fib_model(), random_positive_model(2), random_walk_exit_model()):
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.states == model.states
        assert loaded.actions == model.actions
        assert_array_equal(loaded.kernel, model.kernel)
        assert_array_equal(loaded.weights, model.weights)
        assert loaded.metadata == model.metadata


def test_load_reports_missing_field(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"states": ["s"], "actions": ["u"], "weights": [[[1.0]]]}')
    with pytest.raises(SchemaError, match="kernel"):
        load_model(path)


def test_load_rejects_extra_field(tmp_path):
    path = tmp_path / "extra.json"
    path.write_text(
        '{"states": ["s"], "actions": ["u"], "kernel": [[[1.0]]],'
        ' "weights": [[[1.0]]], "comment": "hi"}'
    )
    with pytest.raises(SchemaError, match="comment"):
        load_model(path)


def test_load_rejects_negative_weight(tmp_path):
    path = tmp_path / "neg.json"
    path.write_text(
        '{"states": ["s"], "actions": ["u"], "kernel": [[[1.0]]],'
        ' "weights": [[[-2.0]]]}'
    )
    with pytest.raises(SchemaError, match="nonnegative"):
        load_model(path)


def test_load_parse_error_has_location(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text('{"states": ["s",\n  oops}')
    with pytest.raises(ParseError, match="line 2"):
        load_model(path)


_DEEP = 100_000
_TENSOR_TEXTS = {
    "rank 3": '{"kernel": [[[1, 0.0], [0.5, 0.5]], [[0.25, 0.75], [1e-320, -0.0]]]}',
    "outer ragged": '{"kernel": [[[0.5, 0.5]], [[1.0], [0.0]]]}',
    "inner ragged": '{"kernel": [[[0.5, 0.5], [1.0]], [[1.0, 0.0], [0.5, 0.5]]]}',
    "boolean among floats": '{"kernel": [[[true, 0.0]], [[0.5, 0.5]]]}',
    "all boolean": '{"kernel": [[[true, false]], [[false, true]]]}',
    "number as string": '{"kernel": [[["1.0", 0.0]], [[0.5, 0.5]]]}',
    "null": '{"kernel": [[[null, 1.0]], [[0.5, 0.5]]]}',
    "object": '{"kernel": [[[{"p": 1.0}, 0.0]], [[0.5, 0.5]]]}',
    "integer beyond 64 bits": '{"kernel": [[[18446744073709551616, 0.0]], [[0.5, 0.5]]]}',
    "uint64 row beside int64 row": '{"kernel": [[[9223372036854775808]], [[-1]]]}',
    "nan": '{"kernel": [[[NaN, 0.0]], [[0.5, 0.5]]]}',
    "duplicate key": '{"kernel": [[[0.5, 0.5]]], "kernel": [[[1.0, 0.0]]]}',
    "trailing comma": '{"kernel": [[[1.0, 0.0]],]}',
    "extra data": '{"kernel": [[[1.0]]]} []',
    "empty": '{"kernel": []}',
    "rank 2": '{"kernel": [[1.0, 0.0], [0.5, 0.5]]}',
    "deep array": '{"kernel": ' + "[" * _DEEP + "]" * _DEEP + "}",
    "deep object": '{"metadata": ' + '{"m": ' * _DEEP + "0" + "}" * _DEEP + "}",
    "600-deep object": '{"kernel": [[[1.0]]], "metadata": ' + '{"m": ' * 600 + "0" + "}" * 600 + "}",
}


def _kernel(decode, text):
    """The kernel array ``load_model`` would see, or the error type and message on the way."""
    try:
        arr = _number_array(decode(text)["kernel"], "kernel")
    except (ValueError, RecursionError, SchemaError) as exc:
        return type(exc), str(exc)
    return arr.dtype, arr.shape, arr.tobytes()


@pytest.mark.parametrize("text", _TENSOR_TEXTS.values(), ids=_TENSOR_TEXTS)
def test_row_decoder_reads_tensors_as_json_loads_and_asarray(text):
    assert _kernel(jsonio.RowDecoder().decode, text) == _kernel(json.loads, text)


_ENTRIES = st.sampled_from(["0.5", "1", "-0.0", "true", "null", '"1.0"', "NaN",
                            "9223372036854775808", "18446744073709551616"])
_NESTINGS = st.recursive(
    _ENTRIES, lambda rows: st.lists(rows, max_size=3).map(lambda r: "[" + ", ".join(r) + "]"),
    max_leaves=24)


@given(body=_NESTINGS)
@settings(max_examples=300, deadline=None)
def test_row_decoder_matches_json_loads_on_any_nesting(body):
    """Ragged shapes and mixed entries give numpy's own array or message at any depth."""
    text = '{"kernel": ' + body + "}"
    assert _kernel(jsonio.RowDecoder().decode, text) == _kernel(json.loads, text)


def test_load_model_peaks_near_twice_the_file_size(tmp_path):
    """Tensors are read a row at a time, so the load holds little beyond the file's text."""
    path = tmp_path / "model.json"
    save_model(random_positive_model(0, s=60, a=8), path)
    tracemalloc.start()
    try:
        model = load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * path.stat().st_size
    doc = json.loads(path.read_text(encoding="utf-8"))
    for name in ("kernel", "weights"):
        want = np.asarray(doc[name])
        assert getattr(model, name).tobytes() == want.tobytes() and want.shape == (60, 8, 60)
