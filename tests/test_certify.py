"""The certification module as a library: plain check records, default tolerances."""

import numpy as np

from holostar import certify
from holostar.architecture import (
    Circuit,
    EntanglingGate,
    RotationGate,
    StarArchitecture,
    compile_circuit,
    random_circuit,
)
from holostar.single_qubit_holonomy import RotationTarget

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
