"""Command-line surface: synthesis, simulation, verification, sweep emission.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
All angles are radians.  JSON output is canonical (17-significant-digit
floats, sorted keys); CSV is available for sweep tables only.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import architecture as arch_mod
from . import serialization as ser
from . import single_qubit_holonomy as sq
from . import two_qubit_holonomy as tq
from .config import Tolerances, tolerances_from_env
from .pulse import (
    CouplingSegment,
    FieldSegment,
    PulseSchedule,
    coupling_hamiltonian,
    evolve,
    expectation_trace,
    segment_unitary,
)
from .qcore import Operator, ket, permute_basis, wrap_phase
from .single_qubit_holonomy import RotationTarget

__all__ = ["RunConfig", "main"]

USAGE_ERROR = 2
VERIFY_ERROR = 1

# Upper bounds on the size arguments, so no option asks for an unbounded allocation.
MAX_GRID = 10_000  # ep-sweep angles
MAX_SAMPLES = 10_000  # time samples per segment
MAX_GATES = 10_000  # gates per random circuit
MAX_RANDOM_CIRCUITS = 10_000
MAX_SHOTS = 10**15  # numpy's binomial sampler takes a C long


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation's numeric knobs."""

    tolerance_overrides: dict = field(default_factory=dict)
    seed: int | None = None


class _UsageError(Exception):
    pass


def _parse_tol_overrides(pairs: list[str]) -> dict:
    overrides = {}
    for p in pairs:
        name, sep, value = p.partition("=")
        if not sep:
            raise _UsageError(f"--tol expects NAME=VALUE, got {p!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise _UsageError(f"--tol {name}: {value!r} is not a number") from None
    return overrides


def _bounded(option: str, value: int, low: int, high: int) -> int:
    if not low <= value <= high:
        raise _UsageError(f"{option} must be between {low} and {high}, got {value}")
    return value


def _resolve_tolerances(config: RunConfig) -> Tolerances:
    tol = tolerances_from_env()
    if config.tolerance_overrides:
        tol = tol.with_overrides(config.tolerance_overrides)
    return tol


def _write_output(text: str, out_path: str | None):
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_synth1q(args, config: RunConfig) -> tuple[dict, int]:
    target = RotationTarget(args.theta, args.phi, args.dphi)
    schedule = sq.synthesize(target, qubit=args.qubit, shape=args.shape)
    doc = {
        "command": "synth1q",
        "schedule": ser.schedule_to_dict(schedule),
        "target_matrix": sq.target_unitary(target).matrix,
        "synthesis_distance": sq.verify_synthesis(target),
    }
    return doc, 0


def cmd_synth2q(args, config: RunConfig) -> tuple[dict, int]:
    spec = tq.CouplingGateSpec(args.theta, tuple(args.pair))
    schedule = PulseSchedule((spec.segment(args.shape),), max(spec.pair) + 1)
    dec = tq.two_qubit_gate(spec, args.shape)
    ep = tq.entangling_power(dec.u0)
    doc = {
        "command": "synth2q",
        "schedule": ser.schedule_to_dict(schedule),
        "u0": dec.u0.matrix,
        "u1": dec.u1.matrix,
        "off_block_residual": dec.off_block_residual,
        "entangling_power": ep,
        "entangling_power_formula": tq.entangling_power_law(args.theta),
    }
    return doc, 0


def cmd_simulate(args, config: RunConfig) -> tuple[dict, int]:
    _bounded("--shots", args.shots, 0, MAX_SHOTS)
    circuit, arch = ser.circuit_from_dict(ser.load_document(args.circuit))
    if args.input is None:
        input_state = None
    else:
        if len(args.input) != arch.n_register or set(args.input) - {"0", "1"}:
            raise _UsageError(
                f"--input must be a {arch.n_register}-bit string, got {args.input!r}"
            )
        input_state = ket(args.input)
    result = arch_mod.simulate(circuit, arch, input_state, shape=args.shape)
    doc = {
        "command": "simulate",
        "n_register": arch.n_register,
        "auxiliary_state": arch.auxiliary_state,
        "aux_match_probability": result.aux_match_probability,
        "ideal_fidelity": result.ideal_fidelity,
        "register_state": result.register_state.amplitudes,
    }
    if args.shots:
        doc["shots"] = {
            "requested": args.shots,
            "aux_matches": arch_mod.sample_auxiliary(result, args.shots, config.seed),
        }
    return doc, 0


def cmd_phase_report(args, config: RunConfig) -> tuple[dict, int]:
    _bounded("--samples", args.samples, 2, MAX_SAMPLES)
    target = RotationTarget(args.theta, args.phi, args.dphi)
    report = sq.geometric_phase(target, samples=args.samples, shape=args.shape)
    ortho = sq.geometric_phase(target, state=target.orthogonal_state(),
                               samples=args.samples, shape=args.shape)
    schedule = sq.synthesize(target, shape=args.shape)
    final = evolve(schedule, target.bloch_state())
    cyc = abs(1.0 - abs(target.bloch_state().overlap(final)))
    doc = {
        "command": "phase-report",
        "target": {"theta": target.theta, "phi": target.phi, "dphi": target.dphi},
        "total_phase": report.total_phase,
        "dynamical_phase": report.dynamical_phase,
        "geometric_phase": report.geometric_phase,
        "max_integrand": report.max_integrand,
        "orthogonal_geometric_phase": ortho.geometric_phase,
        "cyclicity_deviation": cyc,
    }
    return doc, 0


def cmd_ep_sweep(args, config: RunConfig) -> tuple[object, int]:
    _bounded("--grid", args.grid, 2, MAX_GRID)
    rows = []
    for theta in np.linspace(0.0, math.pi, args.grid):
        dec = tq.two_qubit_gate(tq.CouplingGateSpec(float(theta)))
        ep = tq.entangling_power(dec.u0)
        law = tq.entangling_power_law(float(theta))
        rows.append({"theta": float(theta), "ep_computed": ep,
                     "ep_formula": law, "abs_diff": abs(ep - law)})
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["theta", "ep_computed", "ep_formula", "abs_diff"])
        for r in rows:
            writer.writerow([format(r[k], ".17g") for k in
                             ("theta", "ep_computed", "ep_formula", "abs_diff")])
        return buf.getvalue(), 0
    return {"command": "ep-sweep", "rows": rows}, 0


def _check(name: str, value: float, tolerance: float, **extra) -> dict:
    return {"name": name, "value": float(value), "tolerance": float(tolerance),
            "pass": bool(value <= tolerance), **extra}


def _verify_field_chunk(chunk, index: int, tol: Tolerances, samples: int) -> list[dict]:
    """Certify three consecutive field segments as one meridian protocol."""
    where = {"segments": [index, index + 1, index + 2]}
    s1, s2, s3 = chunk
    structure = max(
        abs(s2.envelope.area - math.pi),
        abs(s1.envelope.area + s3.envelope.area - math.pi),
        abs(wrap_phase(s1.beta - s3.beta)),
    )
    if not (s1.qubit == s2.qubit == s3.qubit) or structure > 1e-9 \
            or s1.envelope.area > math.pi + 1e-9:
        return [_check("field_pattern_recognized", 1.0, 0.0, **where,
                       detail="not a three-segment meridian rotation")]
    theta = min(s1.envelope.area, math.pi)
    phi = wrap_phase(s1.beta + math.pi / 2)
    dphi = wrap_phase((s2.beta - math.pi / 2) - phi)
    target = RotationTarget(theta, phi, dphi)
    state = target.bloch_state()
    local = PulseSchedule(tuple(FieldSegment(0, s.beta, s.envelope) for s in chunk), 1)

    distance = sq.verify_synthesis(target)
    trace = expectation_trace(local, state, samples=samples)
    max_integrand = max(abs(v) for _, v in trace)
    final = evolve(local, state)
    cyc = abs(1.0 - abs(state.overlap(final)))
    return [
        _check("synthesis_distance", distance, tol.synthesis_distance, **where),
        _check("max_integrand", max_integrand, tol.dynamical_integrand, **where),
        _check("cyclicity_deviation", cyc, tol.cyclicity, **where),
    ]


def _verify_coupling_segment(seg: CouplingSegment, index: int, tol: Tolerances,
                             samples: int) -> list[dict]:
    """Certify one coupling pulse: block structure, transport, holonomy.

    The propagator is the closed form I + (cos(A/2) - 1)(2H)^2 - i sin(A/2)(2H).
    U(t) commutes with H(t) = a(t) H_unit, so U P U^dag H(t) U P U^dag =
    a(t) U (P H_unit P) U^dag and the transport residual at each sampled time
    is a(t) max_P ||P H_unit P||_2 (tq.transport_residuals).
    """
    where = {"segments": [index]}
    u = segment_unitary(seg).matrix
    ordered = permute_basis(u, tq.AUX_BLOCK_ORDER)
    mask = np.zeros((8, 8), dtype=bool)
    mask[:4, :4] = mask[4:, 4:] = True
    off = float(np.max(np.abs(ordered[~mask])))
    checks = [_check("off_block_residual", off, tol.off_block, **where)]
    if off > tol.off_block:
        return checks

    h_unit = coupling_hamiltonian(math.cos(seg.mix_theta / 2), math.sin(seg.mix_theta / 2))
    worst = max(tq.transport_residuals(h_unit, seg.envelope, samples))
    checks.append(_check("transport_residual", worst, tol.transport_residual, **where))

    dec = tq.BlockDecomposition(
        u0=Operator(ordered[:4, :4], unitary=True),
        u1=Operator(ordered[4:, 4:], unitary=True),
        off_block_residual=off,
    )
    sub = tq.holonomy_decompose(dec)
    checks.append(_check("holonomy_reconstruction", sub.reconstruction_residual,
                         tol.holonomy_reconstruction, **where))
    return checks


def _verify_schedule(schedule: PulseSchedule, tol: Tolerances, samples: int) -> list[dict]:
    checks: list[dict] = []
    segments = schedule.segments
    i = 0
    while i < len(segments):
        seg = segments[i]
        if isinstance(seg, CouplingSegment):
            checks.extend(_verify_coupling_segment(seg, i, tol, samples))
            i += 1
            continue
        chunk = segments[i:i + 3]
        if len(chunk) == 3 and all(isinstance(s, FieldSegment) for s in chunk):
            checks.extend(_verify_field_chunk(tuple(chunk), i, tol, samples))
            i += 3
        else:
            checks.append(_check("field_pattern_recognized", 1.0, 0.0,
                                 segments=[i],
                                 detail="field segments not in groups of three"))
            i += 1
    return checks


def _verify_circuit(circuit, arch, tol: Tolerances, shape: str) -> list[dict]:
    result = arch_mod.simulate(circuit, arch, shape=shape)
    return [
        _check("aux_restoration_deficit", 1.0 - result.aux_match_probability,
               tol.aux_restoration),
        _check("infidelity", 1.0 - result.ideal_fidelity, tol.compiler_fidelity),
    ]


def cmd_verify(args, config: RunConfig) -> tuple[dict, int]:
    tol = _resolve_tolerances(config)
    _bounded("--samples", args.samples, 2, MAX_SAMPLES)
    _bounded("--gates", args.gates, 0, MAX_GATES)
    _bounded("--random-circuits", args.random_circuits, 0, MAX_RANDOM_CIRCUITS)
    if args.random_circuits:
        try:
            arch = arch_mod.StarArchitecture(args.n_register)
        except ValueError as e:
            raise _UsageError(f"--n-register: {e}") from None
        rng = np.random.default_rng(config.seed)
        checks = []
        for i in range(args.random_circuits):
            circuit = arch_mod.random_circuit(args.n_register, args.gates, rng)
            for c in _verify_circuit(circuit, arch, tol, args.shape):
                checks.append({**c, "circuit": i})
        kind = "random-circuits"
    else:
        if not args.path:
            raise _UsageError("verify needs a document path (or --random-circuits N)")
        doc = ser.unwrap_document(ser.load_document(args.path))
        kind = ser.document_kind(doc)
        if kind == "schedule":
            schedule = ser.schedule_from_dict(doc)
            if not schedule.segments:
                raise _UsageError("schedule document has no segments to verify")
            checks = _verify_schedule(schedule, tol, args.samples)
        else:
            circuit, arch = ser.circuit_from_dict(doc)
            checks = _verify_circuit(circuit, arch, tol, args.shape)
    passed = all(c["pass"] for c in checks)
    out = {"command": "verify", "kind": kind, "checks": checks, "passed": passed}
    return out, 0 if passed else VERIFY_ERROR


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holostar",
        description="Synthesize, simulate and verify holonomic gates on a "
                    "star-shaped spin-qubit register (angles in radians).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("json",)):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", default="json", choices=formats)
        p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                       help="override one named tolerance (repeatable)")

    p = sub.add_parser("synth1q", help="synthesize a holonomic single-qubit rotation")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--dphi", type=float, required=True)
    p.add_argument("--qubit", type=int, default=0)
    p.add_argument("--shape", default="constant", choices=("constant", "sin_squared"))
    common(p)

    p = sub.add_parser("synth2q", help="synthesize a holonomic two-qubit gate")
    p.add_argument("--theta", type=float, required=True, help="mixing angle in [0, pi]")
    p.add_argument("--pair", type=int, nargs=2, default=(0, 1), metavar=("K", "L"))
    p.add_argument("--shape", default="constant", choices=("constant", "sin_squared"))
    common(p)

    p = sub.add_parser("simulate", help="simulate a circuit document end to end")
    p.add_argument("--circuit", required=True, help="circuit document path ('-' for stdin)")
    p.add_argument("--input", default=None, help="register input as a bit string")
    p.add_argument("--shape", default="constant", choices=("constant", "sin_squared"))
    p.add_argument("--shots", type=int, default=0,
                   help="additionally sample this many auxiliary measurements")
    p.add_argument("--seed", type=int, default=None)
    common(p)

    p = sub.add_parser("verify", help="certify a schedule or circuit document")
    p.add_argument("path", nargs="?", default=None,
                   help="schedule or circuit document ('-' for stdin)")
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--shape", default="constant", choices=("constant", "sin_squared"))
    p.add_argument("--random-circuits", type=int, default=0, metavar="N",
                   help="instead of a document, check N seeded random circuits")
    p.add_argument("--n-register", type=int, default=3)
    p.add_argument("--gates", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    common(p)

    p = sub.add_parser("ep-sweep", help="tabulate entangling power across mixing angles")
    p.add_argument("--grid", type=int, default=33, help="number of angles in [0, pi]")
    common(p, formats=("json", "csv"))

    p = sub.add_parser("phase-report", help="geometric/dynamical phase split for a rotation")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--dphi", type=float, required=True)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--shape", default="constant", choices=("constant", "sin_squared"))
    common(p)

    return parser


_HANDLERS = {
    "synth1q": cmd_synth1q,
    "synth2q": cmd_synth2q,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "ep-sweep": cmd_ep_sweep,
    "phase-report": cmd_phase_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig(
            tolerance_overrides=_parse_tol_overrides(args.tol),
            seed=getattr(args, "seed", None),
        )
        _resolve_tolerances(config)  # surface bad overrides/env before running
        doc, code = _HANDLERS[args.command](args, config)
        _write_output(doc if isinstance(doc, str) else ser.dumps(doc), args.out)
    except (_UsageError, ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except arch_mod.PostSelectionError as e:
        print(f"error: {e}", file=sys.stderr)
        return VERIFY_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
