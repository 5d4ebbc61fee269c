import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from holostar.architecture import Circuit, RotationGate, StarArchitecture
from holostar.pulse import CouplingSegment, Envelope, FieldSegment, PulseSchedule
from holostar.serialization import (
    _quote,
    circuit_from_dict,
    circuit_to_dict,
    document_kind,
    dumps,
    loads,
    schedule_from_dict,
    schedule_to_dict,
    unwrap_document,
)
from holostar.single_qubit_holonomy import RotationTarget
from holostar.two_qubit_holonomy import EntanglingGate


def sample_schedule():
    return PulseSchedule((
        FieldSegment(0, 1.25, Envelope(math.pi / 3, "sin_squared", 0.5)),
        CouplingSegment((0, 1), 0.875, Envelope(math.tau)),
    ), 2)


def sample_circuit():
    circuit = Circuit((
        RotationGate(0, RotationTarget(1.0, 2.0, -0.5)),
        EntanglingGate((1, 0), 2.5),
    ))
    return circuit, StarArchitecture(2, auxiliary_state=1)


def test_schedule_round_trip_values():
    sched = sample_schedule()
    back = schedule_from_dict(schedule_to_dict(sched))
    assert back == sched


def test_circuit_round_trip_values():
    circuit, arch = sample_circuit()
    back_c, back_a = circuit_from_dict(circuit_to_dict(circuit, arch))
    assert back_c == circuit and back_a == arch


def test_serialize_parse_serialize_is_byte_identical():
    sched = sample_schedule()
    text1 = dumps(schedule_to_dict(sched))
    text2 = dumps(schedule_to_dict(schedule_from_dict(loads(text1))))
    assert text1 == text2

    circuit, arch = sample_circuit()
    text1 = dumps(circuit_to_dict(circuit, arch))
    text2 = dumps(circuit_to_dict(*circuit_from_dict(loads(text1))))
    assert text1 == text2


def test_dumps_is_canonical():
    assert dumps({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'
    assert dumps([1.0, 2]) == "[\n  1,\n  2\n]\n"
    assert dumps({}) == "{}\n"
    assert dumps(True) == "true\n"
    assert dumps(None) == "null\n"


def test_dumps_float_precision():
    # 17 significant digits: every double survives parse -> emit unchanged
    text = dumps(math.pi).strip()
    assert text == "3.1415926535897931"
    assert float(text) == math.pi
    assert dumps(0.1).strip() == "0.10000000000000001"
    assert dumps(-0.0).strip() == "0"
    assert dumps(np.float64(0.25)).strip() == "0.25"


def test_dumps_rejects_bad_values():
    with pytest.raises(ValueError):
        dumps(float("nan"))
    with pytest.raises(ValueError):
        dumps(float("inf"))
    with pytest.raises(TypeError):
        dumps({1: "non-string key"})
    with pytest.raises(TypeError):
        dumps(object())


def test_strict_key_validation():
    good = schedule_to_dict(sample_schedule())
    bad = {**good, "extra": 1}
    with pytest.raises(ValueError, match="unknown"):
        schedule_from_dict(bad)
    seg = dict(good["segments"][0])
    del seg["beta"]
    with pytest.raises(ValueError, match="missing"):
        schedule_from_dict({**good, "segments": [seg]})
    with pytest.raises(ValueError, match="kind"):
        schedule_from_dict({**good, "segments": [{"kind": "laser"}]})


def test_circuit_gate_key_validation():
    base = {"n_register": 2, "auxiliary_state": 0}
    with pytest.raises(ValueError, match="unknown"):
        circuit_from_dict({**base, "gates": [{"qubit": 0, "theta": 1, "phi": 0,
                                              "dphi": 0, "oops": 1}]})
    with pytest.raises(ValueError, match="expected either"):
        circuit_from_dict({**base, "gates": [{"theta": 1.0}]})
    with pytest.raises(ValueError, match="missing"):
        circuit_from_dict({**base, "gates": [{"k": 0, "l": 1}]})


def as_lists(a: np.ndarray):
    """A complex array as nested [real, imag] lists of floats: the oracle layout."""
    def pairs(x):
        return [pairs(y) for y in x] if isinstance(x, list) else [x.real, x.imag]
    return pairs(a.tolist())


def test_complex_array_layout():
    # a vector is a list of [real, imag] pairs, and -0.0 prints as 0
    assert dumps(np.array([1j, complex(2.0, -0.0)])) == ("[\n  [\n    0,\n    1\n  ],\n"
                                                         "  [\n    2,\n    0\n  ]\n]\n")
    m = np.array([[1 + 2j, 0], [0, -1j]])
    assert dumps({"m": m}) == dumps({"m": [[[1.0, 2.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]})
    assert dumps(np.zeros((0, 3), complex)) == "[]\n"
    assert dumps(np.zeros((2, 0), complex)) == "[\n  [],\n  []\n]\n"


parts = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1.7976931348623157e308])
complex_arrays = hnp.arrays(np.complex128, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0,
                                                            max_side=5),
                            elements=st.builds(complex, parts, parts))


@given(complex_arrays)
def test_complex_array_matches_float_lists(a):
    lists = as_lists(a)
    for wrap in (lambda x: x, lambda x: {"state": x}, lambda x: [[{"u": x}]]):
        assert dumps(wrap(a)) == dumps(wrap(lists))
    strided = np.stack([a, a], axis=-1)[..., 1]  # a non-contiguous view of the same values
    assert dumps(strided) == dumps(lists)


@given(complex_arrays.filter(lambda a: a.size > 0), st.data())
def test_complex_array_rejects_non_finite_parts(a, data):
    a = a.copy()
    index = data.draw(st.integers(0, a.size - 1))
    bad = data.draw(st.sampled_from([complex(math.nan, 0), complex(0, math.inf),
                                     complex(-math.inf, math.nan)]))
    a.reshape(-1)[index] = bad
    with pytest.raises(ValueError, match="non-finite") as from_array:
        dumps(a)
    with pytest.raises(ValueError) as from_lists:
        dumps(as_lists(a))
    assert str(from_array.value) == str(from_lists.value)


_awkward_chars = st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f'),  # quotes, backslashes, controls
    st.characters(),  # any code point outside the surrogates, non-ASCII included
    st.integers(0xD800, 0xDFFF).map(chr),  # lone surrogates
)


@given(st.text(_awkward_chars))
def test_quote_is_json_dumps_of_a_string(s):
    assert _quote(s) == json.dumps(s)
    assert dumps({s: s}) == "{\n  " + json.dumps(s) + ": " + json.dumps(s) + "\n}\n"


def test_document_kind():
    assert document_kind({"segments": [], "n_register": 1}) == "schedule"
    assert document_kind({"gates": [], "n_register": 1, "auxiliary_state": 0}) == "circuit"
    with pytest.raises(ValueError):
        document_kind({"neither": 1})
    with pytest.raises(ValueError):
        document_kind([1, 2])


def test_unwrap_document():
    inner = {"segments": [], "n_register": 1}
    assert unwrap_document({"schedule": inner, "command": "synth1q"}) is inner
    assert unwrap_document(inner) is inner


def test_integer_valued_floats_round_trip():
    # duration 1.0 emits as "1", parses as int, and must still validate
    sched = PulseSchedule((FieldSegment(0, 0.0, Envelope(2.0, "constant", 1.0)),), 1)
    text = dumps(schedule_to_dict(sched))
    assert '"duration": 1' in text
    back = schedule_from_dict(loads(text))
    assert back.segments[0].envelope.duration == 1.0
    assert dumps(schedule_to_dict(back)) == text
