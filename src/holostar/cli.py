"""Command-line surface: synthesis, simulation, verification, sweep emission.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error.
All angles are radians.  JSON output is canonical (17-significant-digit
floats, sorted keys); CSV is available for sweep tables only.  The checks
``verify`` runs live in :mod:`holostar.certify`; this module only parses
arguments and formats results.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import sys

from . import architecture as arch_mod
from . import certify
from . import serialization as ser
from . import single_qubit_holonomy as sq
from . import two_qubit_holonomy as tq
from .config import DEFAULT_TOLERANCES, Tolerances
from .pulse import ENVELOPE_SHAPES, PulseSchedule
from .qcore import ket
from .single_qubit_holonomy import RotationTarget

__all__ = ["main"]

USAGE_ERROR = 2
VERIFY_ERROR = 1

# Upper bounds on the size arguments, so no option asks for an unbounded allocation.
MAX_GRID = 10_000  # ep-sweep angles
MAX_GATES = 10_000  # gates per random circuit
MAX_RANDOM_CIRCUITS = 10_000
MAX_SHOTS = 10**15  # numpy's binomial sampler takes a C long


class _UsageError(Exception):
    pass


def _resolve_tolerances(pairs: list[str]) -> Tolerances:
    """The default tolerances with the ``--tol NAME=VALUE`` overrides applied."""
    overrides = {}
    for p in pairs:
        name, sep, value = p.partition("=")
        if not sep:
            raise _UsageError(f"--tol expects NAME=VALUE, got {p!r}")
        try:
            overrides[name] = float(value)
        except ValueError:
            raise _UsageError(f"--tol {name}: {value!r} is not a number") from None
    try:
        return DEFAULT_TOLERANCES.with_overrides(overrides) if overrides else DEFAULT_TOLERANCES
    except ValueError as e:
        raise _UsageError(f"--tol: {e}") from None


def _bounded(option: str, value: int, low: int, high: int) -> int:
    if not low <= value <= high:
        raise _UsageError(f"{option} must be between {low} and {high}, got {value}")
    return value


def _seed(args) -> int | None:
    """``--seed``, refused when negative (numpy's own refusal names no option)."""
    if args.seed is not None and args.seed < 0:
        raise _UsageError(f"--seed must be nonnegative, got {args.seed}")
    return args.seed


def _refuse(args, options: tuple[str, ...], source: str):
    """Exit 2 on the first of ``options`` given that does nothing for ``source``."""
    for option in options:
        if getattr(args, option[2:].replace("-", "_")) is not None:
            raise _UsageError(f"{option} does not apply to {source}")


def _write_output(text: str, out_path: str | None):
    if out_path and out_path != "-":
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_synth1q(args) -> tuple[dict, int]:
    target = RotationTarget(args.theta, args.phi, args.dphi)
    schedule = sq.synthesize(target, qubit=args.qubit, shape=args.shape)
    doc = {
        "command": "synth1q",
        "schedule": ser.schedule_to_dict(schedule),
        "target_matrix": sq.target_unitary(target).matrix,
        "synthesis_distance": sq.verify_synthesis(target),
    }
    return doc, 0


def cmd_synth2q(args) -> tuple[dict, int]:
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


def cmd_simulate(args) -> tuple[dict, int]:
    _bounded("--shots", args.shots, 0, MAX_SHOTS)
    if not args.shots:
        _refuse(args, ("--seed",), "simulate without --shots")
    seed = _seed(args)
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
            "aux_matches": arch_mod.sample_auxiliary(result, args.shots, seed),
        }
    return doc, 0


def cmd_phase_report(args) -> tuple[dict, int]:
    target = RotationTarget(args.theta, args.phi, args.dphi)
    report = sq.geometric_phase(target, shape=args.shape)
    ortho = sq.geometric_phase(target, state=target.orthogonal_state(), shape=args.shape)
    doc = {
        "command": "phase-report",
        "target": {"theta": target.theta, "phi": target.phi, "dphi": target.dphi},
        "total_phase": report.total_phase,
        "dynamical_phase": report.dynamical_phase,
        "geometric_phase": report.geometric_phase,
        "max_integrand": report.max_integrand,
        "orthogonal_geometric_phase": ortho.geometric_phase,
        "cyclicity_deviation": report.cyclicity_deviation,
    }
    return doc, 0


def cmd_ep_sweep(args) -> tuple[object, int]:
    _bounded("--grid", args.grid, 2, MAX_GRID)
    # evenly spaced over [0, pi] with both ends exact, as numpy.linspace spaces them
    step = math.pi / (args.grid - 1)
    rows = []
    for theta in [i * step for i in range(args.grid - 1)] + [math.pi]:
        dec = tq.two_qubit_gate(tq.CouplingGateSpec(theta))
        ep = tq.entangling_power(dec.u0)
        law = tq.entangling_power_law(theta)
        rows.append({"theta": theta, "ep_computed": ep,
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


def cmd_verify(args) -> tuple[dict, int]:
    tol = _resolve_tolerances(args.tol)
    if args.gates is not None:
        _bounded("--gates", args.gates, 0, MAX_GATES)
    _bounded("--random-circuits", args.random_circuits, 0, MAX_RANDOM_CIRCUITS)
    shape = args.shape or "constant"
    if args.random_circuits:
        if args.path is not None:
            raise _UsageError("verify takes a document path or --random-circuits N, not both")
        try:
            arch = arch_mod.StarArchitecture(3 if args.n_register is None else args.n_register)
        except ValueError as e:
            raise _UsageError(f"--n-register: {e}") from None
        checks = certify.verify_random_circuits(arch, args.random_circuits,
                                                20 if args.gates is None else args.gates,
                                                _seed(args), tol, shape)
        kind = "random-circuits"
    else:
        if not args.path:
            raise _UsageError("verify needs a document path (or --random-circuits N)")
        _refuse(args, ("--n-register", "--gates", "--seed"), "a document path")
        doc = ser.unwrap_document(ser.load_document(args.path))
        kind = ser.document_kind(doc)
        if kind == "schedule":
            _refuse(args, ("--shape",), "a schedule document")
            schedule = ser.schedule_from_dict(doc)
            if not schedule.segments:
                raise _UsageError("schedule document has no segments to verify")
            checks = certify.verify_schedule(schedule, tol)
        else:
            circuit, arch = ser.circuit_from_dict(doc)
            checks = certify.verify_circuit(circuit, arch, tol, shape)
    passed = all(c["pass"] for c in checks)
    out = {"command": "verify", "kind": kind, "checks": checks, "passed": passed}
    return out, 0 if passed else VERIFY_ERROR


@functools.cache  # parse_args keeps no state in the parser, so one per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holostar",
        description="Synthesize, simulate and verify holonomic gates on a "
                    "star-shaped spin-qubit register (angles in radians).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler):
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.set_defaults(handler=handler)

    p = sub.add_parser("synth1q", help="synthesize a holonomic single-qubit rotation")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--dphi", type=float, required=True)
    p.add_argument("--qubit", type=int, default=0)
    p.add_argument("--shape", default="constant", choices=ENVELOPE_SHAPES)
    common(p, cmd_synth1q)

    p = sub.add_parser("synth2q", help="synthesize a holonomic two-qubit gate")
    p.add_argument("--theta", type=float, required=True, help="mixing angle in [0, pi]")
    p.add_argument("--pair", type=int, nargs=2, default=(0, 1), metavar=("K", "L"))
    p.add_argument("--shape", default="constant", choices=ENVELOPE_SHAPES)
    common(p, cmd_synth2q)

    p = sub.add_parser("simulate", help="simulate a circuit document end to end")
    p.add_argument("--circuit", required=True, help="circuit document path ('-' for stdin)")
    p.add_argument("--input", default=None, help="register input as a bit string")
    p.add_argument("--shape", default="constant", choices=ENVELOPE_SHAPES)
    p.add_argument("--shots", type=int, default=0,
                   help="additionally sample this many auxiliary measurements")
    p.add_argument("--seed", type=int, default=None)
    common(p, cmd_simulate)

    p = sub.add_parser("verify", help="certify a schedule or circuit document")
    p.add_argument("path", nargs="?", default=None,
                   help="schedule or circuit document ('-' for stdin)")
    # None = not given, so an option that changes nothing is refused, not dropped
    p.add_argument("--shape", default=None, choices=ENVELOPE_SHAPES,
                   help="pulse envelope for a circuit (default constant)")
    p.add_argument("--random-circuits", type=int, default=0, metavar="N",
                   help="instead of a document, check N seeded random circuits")
    p.add_argument("--n-register", type=int, default=None, help="with N: default 3")
    p.add_argument("--gates", type=int, default=None, help="with N: default 20")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE",
                   help="override one named tolerance (repeatable)")
    common(p, cmd_verify)

    p = sub.add_parser("ep-sweep", help="tabulate entangling power across mixing angles")
    p.add_argument("--grid", type=int, default=33, help="number of angles in [0, pi]")
    p.add_argument("--format", default="json", choices=("json", "csv"))
    common(p, cmd_ep_sweep)

    p = sub.add_parser("phase-report", help="geometric/dynamical phase split for a rotation")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--dphi", type=float, required=True)
    p.add_argument("--shape", default="constant", choices=ENVELOPE_SHAPES)
    common(p, cmd_phase_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc, code = args.handler(args)
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
