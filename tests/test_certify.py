"""The certification module as a library: plain check records, default tolerances."""

import ast
import math
import pathlib

import numpy as np
import pytest

from holostar import certify
from holostar import serialization as ser
from holostar.architecture import (
    Circuit,
    RotationGate,
    StarArchitecture,
    compile_circuit,
    random_circuit,
)
from holostar.config import DEFAULT_TOLERANCES
from holostar.single_qubit_holonomy import RotationTarget, synthesize
from holostar.two_qubit_holonomy import EntanglingGate

CIRCUIT = Circuit((RotationGate(0, RotationTarget(1.1, 0.4, -0.9)),
                   EntanglingGate((2, 0), 0.7),
                   RotationGate(2, RotationTarget(0.3, 5.0, 2.0))))
ARCH = StarArchitecture(3, auxiliary_state=1)


def test_compiled_schedule_checks_every_protocol():
    checks = certify.verify_schedule(compile_circuit(CIRCUIT, ARCH))
    assert [(c["name"], c["segments"][0]) for c in checks] == [
        ("synthesis_distance", 0), ("max_integrand", 0), ("cyclicity_deviation", 0),
        ("off_block_residual", 3), ("transport_residual", 3), ("holonomy_reconstruction", 3),
        ("synthesis_distance", 4), ("max_integrand", 4), ("cyclicity_deviation", 4),
    ]
    assert all(c["pass"] and set(c) == {"name", "value", "tolerance", "pass", "segments"}
               for c in checks)


def test_random_circuits_are_seeded_and_tagged():
    checks = certify.verify_random_circuits(ARCH, 3, 5, seed=4)
    assert checks == certify.verify_random_circuits(ARCH, 3, 5, seed=4)
    assert [c["circuit"] for c in checks] == [0, 0, 1, 1, 2, 2]
    # the same circuits, drawn in order from one generator
    rng = np.random.default_rng(4)
    for i in range(3):
        want = certify.verify_circuit(random_circuit(3, 5, rng), ARCH)
        assert [c for c in checks if c["circuit"] == i] == [{**c, "circuit": i} for c in want]


def _schedule_check_names() -> set[str]:
    """The name of every check ``verify_schedule`` can report, read off the
    ``_check`` calls in certify's source outside the circuit checks."""
    tree = ast.parse(pathlib.Path(certify.__file__).read_text(encoding="utf-8"))
    names = set()
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("verify_"):
            names.update(node.args[0].value for node in ast.walk(fn)
                         if isinstance(node, ast.Call)
                         and getattr(node.func, "id", None) == "_check")
    return names


def _coupling_doc(excess: float = 0.0) -> dict:
    """One constant coupling pulse (mix 1.0), ``excess`` past the full area."""
    return {"n_register": 2, "segments": [
        {"kind": "coupling", "pair": [0, 1], "mix_theta": 1.0, "shape": "constant",
         "duration": 1.0, "area": 2 * math.pi + excess}]}


MERIDIAN = RotationTarget(1.0, 0.4, 0.7)


def _meridian_doc(leg2_excess: float = 0.0) -> dict:
    """The synthesized rotation of MERIDIAN with ``leg2_excess`` added to the
    middle leg's area; every leg is 0.1 long, so its peak amplitude lifts an
    energy error of ~1e-10 over the 1e-9 integrand threshold."""
    doc = ser.schedule_to_dict(synthesize(MERIDIAN))
    for seg in doc["segments"]:
        seg["duration"] = 0.1
    doc["segments"][1]["area"] += leg2_excess
    return doc


# One accepted document per check name that fails that check alone at the
# default tolerances; each is a passing document with one defect injected.
FAILING = {
    "off_block_residual": _coupling_doc(excess=2e-8),
    "field_pattern_recognized": {"n_register": 1, "segments": _meridian_doc()["segments"][:2]},
    # inside the structure test's 1e-9 slack: leg 3 starts off the pole
    "max_integrand": _meridian_doc(leg2_excess=9e-10),
}
# Checks that no accepted document is known to fail.  Only ever shrink this set.
VACUOUS = {"synthesis_distance", "cyclicity_deviation", "transport_residual",
           "holonomy_reconstruction"}


def _checks(doc: dict, tol=DEFAULT_TOLERANCES) -> dict[str, dict]:
    return {c["name"]: c for c in certify.verify_schedule(ser.schedule_from_dict(doc), tol)}


def test_every_schedule_check_fails_on_some_document_or_is_listed_vacuous():
    assert FAILING.keys().isdisjoint(VACUOUS)
    assert FAILING.keys() | VACUOUS == _schedule_check_names()
    for doc in (_coupling_doc(), _meridian_doc()):
        assert all(c["pass"] for c in _checks(doc).values())
    for name, doc in FAILING.items():
        assert [n for n, c in _checks(doc).items() if not c["pass"]] == [name]


def test_an_injected_defect_sets_the_value_that_fails():
    # leakage |sin(excess/2)| cos(mix/2) between the blocks
    assert _checks(FAILING["off_block_residual"])["off_block_residual"]["value"] == \
        pytest.approx(math.sin(1e-8) * math.cos(0.5), rel=1e-6)
    # leg 2 overshoots the pole by the excess, so leg 3 starts with energy
    # sin(excess/2) sin(dphi)/2 and holds it at its peak amplitude (pi - theta)/0.1
    checks = _checks(FAILING["max_integrand"])
    want = (math.pi - MERIDIAN.theta) / 0.1 * math.sin(4.5e-10) * math.sin(MERIDIAN.dphi)
    assert checks["max_integrand"]["value"] == pytest.approx(want, rel=1e-6)
    # the same defect moves neither vacuous meridian check off rounding
    assert checks["synthesis_distance"]["value"] <= 1e-15
    assert checks["cyclicity_deviation"]["value"] <= 1e-15


def test_the_vacuous_coupling_checks_read_zero_on_a_leaky_pulse():
    # a whole radian past the full area, admitted by a loose off_block threshold
    loose = DEFAULT_TOLERANCES.with_overrides({"off_block": 1.0})
    checks = _checks(_coupling_doc(excess=1.0), loose)
    assert checks["off_block_residual"]["value"] == pytest.approx(math.sin(0.5) * math.cos(0.5))
    assert checks["transport_residual"]["value"] == 0.0
    assert checks["holonomy_reconstruction"]["value"] == 0.0
