import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qjoint as q
from qjoint import errors
from qjoint.serialize import (
    _plain,
    canonical_dumps,
    complex_to_pair,
    instance_to_wire,
    load_json_file,
    matrix_to_wire,
    pair_to_complex,
    repair_to_wire,
    report_to_wire,
    search_result_to_wire,
    vector_to_wire,
    wire_to_check_inputs,
    wire_to_instance,
    wire_to_matrix,
    wire_to_vector,
)


def test_complex_pair_roundtrip():
    z = 1.25 - 3.5j
    assert pair_to_complex(complex_to_pair(z)) == z
    with pytest.raises(errors.ParseError):
        pair_to_complex([1.0])
    with pytest.raises(errors.ParseError):
        pair_to_complex("nope")


@pytest.mark.parametrize("seed", [0, 1])
def test_vector_matrix_wire_roundtrip_is_exact(seed):
    """float64 -> JSON text -> float64 must be lossless."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    v2 = wire_to_vector(json.loads(json.dumps(vector_to_wire(v))))
    m2 = wire_to_matrix(json.loads(json.dumps(matrix_to_wire(m))))
    assert np.array_equal(v, v2)
    assert np.array_equal(m, m2)


def test_wire_parsers_reject_garbage():
    with pytest.raises(errors.ParseError):
        wire_to_vector([[1.0, 2.0], "x"])
    with pytest.raises(errors.ParseError):
        wire_to_matrix([[[1.0, 2.0]], [[1.0, 2.0], [3.0, 4.0]]])  # ragged


def test_canonical_dumps_is_order_insensitive():
    a = canonical_dumps({"b": 1, "a": [np.float64(2.5), np.int64(3)]})
    b = canonical_dumps({"a": [2.5, 3], "b": 1})
    assert a == b
    assert a.endswith("\n")
    assert json.loads(a) == {"a": [2.5, 3], "b": 1}


def test_canonical_dumps_handles_numpy_and_nonfinite():
    out = json.loads(canonical_dumps({"x": np.bool_(True), "y": float("inf"), "z": np.arange(2.0)}))
    assert out["x"] is True
    assert out["y"] == "inf"
    assert out["z"] == [[0.0, 0.0], [1.0, 0.0]]


@pytest.mark.parametrize("kind", [np.float64, np.float32])
def test_canonical_dumps_numpy_nonfinite_matches_python(kind):
    """A numpy inf/nan renders as the same string as a Python one, never as
    a bare Infinity/NaN, which is not JSON."""
    value = {"a": float("inf"), "b": kind("inf"), "c": kind("-inf"), "d": kind("nan")}
    expected = {"a": "inf", "b": "inf", "c": "-inf", "d": "nan"}
    assert _plain(value) == expected  # the wire helpers' form, which callers may json.dumps
    text = canonical_dumps(value)
    assert json.loads(text) == expected
    assert "Infinity" not in text and "NaN" not in text


SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 2.2250738585072014e-308, 1e22, 1e300, 1.7976931348623157e308])
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | SPECIAL_FLOATS
    | st.text()
    | st.sampled_from(['"quoted" \\ back\\slash', "tab\tnew\nline\x00", "é ü 中文 \U0001f600", ""])
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(JSON_VALUES)
def test_canonical_dumps_matches_stdlib_rendering(value):
    assert canonical_dumps(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


def test_instance_wire_roundtrip(appendix):
    wire = instance_to_wire(appendix)
    back = wire_to_instance(json.loads(json.dumps(wire)))
    assert back.dim == appendix.dim
    assert np.array_equal(back.state, appendix.state)
    for p, p2 in zip(appendix.projectors, back.projectors):
        assert np.array_equal(p, p2)
    assert back.eigenvector_form is not None


def test_wire_to_instance_missing_key():
    with pytest.raises(errors.ParseError):
        wire_to_instance({"dim": 2, "state": [[1.0, 0.0], [0.0, 0.0]]})


def test_wire_to_instance_validation_failure_is_parse_error():
    payload = {
        "dim": 2,
        "state": [[2.0, 0.0], [0.0, 0.0]],  # norm 2
        "projectors": [matrix_to_wire(np.diag([1.0, 0.0]).astype(complex))],
    }
    with pytest.raises(errors.ParseError):
        wire_to_instance(payload)
    # tol=None defers validation entirely
    inst = wire_to_instance(payload, tol=None)
    assert inst.dim == 2


def test_wire_to_check_inputs_instance_shape(appendix):
    fam, states = wire_to_check_inputs(instance_to_wire(appendix), tol=1e-6)
    assert fam.n == 4 and fam.dim == 8
    assert len(states.states) == 1


def test_wire_to_check_inputs_family_shape():
    payload = {
        "measurements": [
            {"elements": [matrix_to_wire(np.diag([1.0, 0.0]).astype(complex)),
                          matrix_to_wire(np.diag([0.0, 1.0]).astype(complex))]},
            {"elements": [matrix_to_wire(np.eye(2, dtype=complex) / 2.0),
                          matrix_to_wire(np.eye(2, dtype=complex) / 2.0)],
             "outcomes": [5, 9]},
        ],
        "states": [
            [[1.0, 0.0], [0.0, 0.0]],  # vector, gets normalized
            matrix_to_wire(np.eye(2, dtype=complex) / 2.0),  # density matrix
        ],
    }
    fam, states = wire_to_check_inputs(payload, tol=1e-9)
    assert fam.n == 2
    assert fam.povm(2).outcomes == (5, 9)
    assert len(states.states) == 2
    assert float(np.trace(states.states[0]).real) == pytest.approx(1.0, abs=1e-12)


def test_wire_to_check_inputs_bad_shape():
    with pytest.raises(errors.ParseError):
        wire_to_check_inputs({"measurements": []})
    with pytest.raises(errors.ParseError):
        wire_to_check_inputs({"measurements": [{}], "states": []})


def test_report_wire_is_json_ready(appendix_family, appendix_states):
    rep = q.check_on_state_projector(appendix_family, appendix_states, tol=1e-6)
    wire = report_to_wire(rep)
    text = canonical_dumps(wire)
    parsed = json.loads(text)
    assert parsed["property"] == "on_state_projector"
    assert parsed["passed"] is False
    assert parsed["worst_residual"] == rep.worst_residual
    assert isinstance(parsed["witnesses"], list)


def test_repair_wire_contents():
    p1 = np.diag([1.0, 0.0]).astype(complex)
    v = np.array([math.cos(0.4), math.sin(0.4)], dtype=complex)
    p2 = np.outer(v, v.conj())
    psi = np.array([1.0, 0.0], dtype=complex)
    res = q.repair_projector(p1, p2, psi)
    wire = json.loads(canonical_dumps(repair_to_wire(res)))
    assert wire["epsilon"] == res.epsilon
    assert wire["sqrt2_epsilon"] == pytest.approx(math.sqrt(2) * res.epsilon)
    assert wire["bound_margin"] >= 0.0
    assert len(wire["decomposition"]["two_dim_blocks"]) == 1
    assert wire["decomposition"]["two_dim_blocks"][0]["theta"] == pytest.approx(0.4)


def test_search_result_wire(appendix):
    fake = q.SearchResult(
        instance=appendix,
        objective=0.25,
        worst_constraint_residual=1e-9,
        iterations=10,
        evaluations=25,
        restart=3,
    )
    wire = json.loads(canonical_dumps(search_result_to_wire(fake)))
    assert wire["objective"] == 0.25
    assert wire["instance"]["dim"] == 8
    assert wire["iterations"] == 10
    assert wire["evaluations"] == 25
    assert wire["restart"] == 3


def test_load_json_file(tmp_path):
    good = tmp_path / "good.json"
    good.write_text('{"a": 1}')
    assert load_json_file(str(good)) == {"a": 1}
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(errors.ParseError):
        load_json_file(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(errors.ParseError):
        load_json_file(str(arr))
    with pytest.raises(OSError):
        load_json_file(str(tmp_path / "missing.json"))
