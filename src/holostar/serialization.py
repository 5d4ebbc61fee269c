"""Reading and writing schedules, circuits, and report documents.

Documents are JSON with a canonical rendering: keys sorted, two-space
indent, floats printed with 17 significant digits so every double survives a
round trip, and serialize -> parse -> serialize is byte-identical.  The
stdlib emitter cannot be told how to format floats, hence the small emitter
here; parsing is plain ``json.loads`` plus strict key validation (unknown or
missing keys are errors, never ignored).
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .architecture import Circuit, EntanglingGate, RotationGate, StarArchitecture
from .pulse import CouplingSegment, Envelope, FieldSegment, PulseSchedule
from .qcore import _shown
from .single_qubit_holonomy import RotationTarget

__all__ = [
    "dumps",
    "loads",
    "load_document",
    "schedule_to_dict",
    "schedule_from_dict",
    "circuit_to_dict",
    "circuit_from_dict",
    "document_kind",
    "unwrap_document",
]

# What ``json.dumps`` calls for a str: the quoted, ASCII-escaped literal.
_quote = json.encoder.encode_basestring_ascii


def _complex_template(shape: tuple, indent: int) -> str:
    """Layout of a complex array as nested ``[real, imag]`` lists, one ``%.17g``
    per part; each level repeats one row template."""
    pad = "  " * indent
    if not shape:
        return f"[\n{pad}  %.17g,\n{pad}  %.17g\n{pad}]"
    if shape[0] == 0:
        return "[]"
    row = f"{pad}  {_complex_template(shape[1:], indent + 1)}"
    return "[\n" + ",\n".join([row] * shape[0]) + f"\n{pad}]"


def _emit(obj, indent: int) -> str:
    pad = "  " * indent
    if isinstance(obj, np.ndarray) and obj.dtype == np.complex128:
        parts = np.ascontiguousarray(obj).reshape(-1).view(np.float64) + 0.0  # -0.0 -> 0
        bad = parts[~np.isfinite(parts)]
        if bad.size:
            raise ValueError(f"cannot serialize non-finite number {float(bad[0])}")
        return _complex_template(obj.shape, indent) % tuple(parts.tolist())
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"document keys must be strings, got {key!r}")
            items.append(f'{pad}  {_quote(key)}: {_emit(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_emit(x, indent + 1)}" for x in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"cannot serialize non-finite number {x}")
        if x == 0:
            return "0"
        return format(x, ".17g")
    raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def dumps(obj) -> str:
    """Canonical document text (deterministic bytes for identical content).

    A complex128 array is written as nested ``[real, imag]`` pairs, the same
    bytes as the equivalent lists of floats."""
    return _emit(obj, 0) + "\n"


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


def loads(text: str):
    """Parse document text; NaN and Infinity are errors, not numbers, and so
    is nesting deeper than the parser's recursion limit."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except RecursionError:
        raise ValueError("document nests too deeply") from None


def load_document(path: str):
    """Parse a document from a file path, or from stdin when path is ``-``."""
    if path == "-":
        return loads(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as f:
        return loads(f.read())


def _require_keys(d: dict, required: set[str], what: str):
    keys = set(d)
    if keys != required:
        missing, extra = required - keys, keys - required
        parts = []
        if missing:
            parts.append(f"missing {sorted(missing)}")
        if extra:
            parts.append(f"unknown {_shown(sorted(extra))}")
        raise ValueError(f"{what}: {', '.join(parts)}")


def _get(d, key, where: str, kind: type = float):
    """``d[key]`` as a JSON integer (``kind=int``) or finite number: bools,
    strings, fractions for integers and non-finite values are errors."""
    v = d[key]
    if isinstance(v, bool) or not isinstance(v, (int, kind)) or not abs(v) <= sys.float_info.max:
        want = "an integer" if kind is int else "a finite number"
        raise ValueError(f"{where} {key} must be {want}, got {_shown(v)}")
    return kind(v)


def schedule_to_dict(schedule: PulseSchedule) -> dict:
    segments = []
    for seg in schedule.segments:
        env = seg.envelope
        common = {"shape": env.shape, "duration": float(env.duration), "area": float(env.area)}
        if isinstance(seg, FieldSegment):
            segments.append({"kind": "field", "qubit": int(seg.qubit),
                             "beta": float(seg.beta), **common})
        else:
            segments.append({"kind": "coupling", "pair": [int(seg.pair[0]), int(seg.pair[1])],
                             "mix_theta": float(seg.mix_theta), **common})
    return {"n_register": int(schedule.n_register), "segments": segments}


def _build(where: str, cls, *args):
    """``cls(*args)``; a rejected value is reported with the entry it came from."""
    try:
        return cls(*args)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


def _envelope(sd: dict, where: str) -> Envelope:
    return _build(where, Envelope, _get(sd, "area", where), sd["shape"],
                  _get(sd, "duration", where))


def schedule_from_dict(d: dict) -> PulseSchedule:
    if not isinstance(d, dict):
        raise ValueError("schedule document must be an object")
    _require_keys(d, {"n_register", "segments"}, "schedule document")
    if not isinstance(d["segments"], list):
        raise ValueError("schedule document: segments must be a list")
    segments = []
    for i, sd in enumerate(d["segments"]):
        if not isinstance(sd, dict):
            raise ValueError(f"segment {i} must be an object")
        kind = sd.get("kind")
        if kind == "field":
            where = f"field segment {i}"
            _require_keys(sd, {"kind", "qubit", "beta", "shape", "duration", "area"}, where)
            segments.append(_build(where, FieldSegment, _get(sd, "qubit", where, int),
                                   _get(sd, "beta", where), _envelope(sd, where)))
        elif kind == "coupling":
            where = f"coupling segment {i}"
            _require_keys(sd, {"kind", "pair", "mix_theta", "shape", "duration", "area"}, where)
            pair = sd["pair"]
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ValueError(f"{where}: pair must be a 2-element list")
            segments.append(_build(where, CouplingSegment,
                                   (_get(pair, 0, f"{where} pair", int),
                                    _get(pair, 1, f"{where} pair", int)),
                                   _get(sd, "mix_theta", where), _envelope(sd, where)))
        else:
            raise ValueError(f"segment {i}: unknown kind {_shown(kind)}")
    return PulseSchedule(tuple(segments), _get(d, "n_register", "schedule document", int))


def circuit_to_dict(circuit: Circuit, arch: StarArchitecture) -> dict:
    gates = []
    for g in circuit.gates:
        if isinstance(g, RotationGate):
            gates.append({"qubit": int(g.qubit), "theta": float(g.target.theta),
                          "phi": float(g.target.phi), "dphi": float(g.target.dphi)})
        else:
            gates.append({"k": int(g.pair[0]), "l": int(g.pair[1]),
                          "theta": float(g.mix_theta)})
    return {"n_register": int(arch.n_register),
            "auxiliary_state": int(arch.auxiliary_state), "gates": gates}


def circuit_from_dict(d: dict) -> tuple[Circuit, StarArchitecture]:
    if not isinstance(d, dict):
        raise ValueError("circuit document must be an object")
    _require_keys(d, {"n_register", "auxiliary_state", "gates"}, "circuit document")
    where = "circuit document"
    arch = StarArchitecture(_get(d, "n_register", where, int),
                            _get(d, "auxiliary_state", where, int))
    if not isinstance(d["gates"], list):
        raise ValueError(f"{where}: gates must be a list")
    gates: list = []
    for i, gd in enumerate(d["gates"]):
        if not isinstance(gd, dict):
            raise ValueError(f"gate {i} must be an object")
        if "qubit" in gd:
            where = f"rotation gate {i}"
            _require_keys(gd, {"qubit", "theta", "phi", "dphi"}, where)
            angles = (_get(gd, key, where) for key in ("theta", "phi", "dphi"))
            gates.append(RotationGate(_get(gd, "qubit", where, int),
                                      _build(where, RotationTarget, *angles)))
        elif "k" in gd:
            where = f"entangling gate {i}"
            _require_keys(gd, {"k", "l", "theta"}, where)
            pair = (_get(gd, "k", where, int), _get(gd, "l", where, int))
            gates.append(_build(where, EntanglingGate, pair, _get(gd, "theta", where)))
        else:
            raise ValueError(f"gate {i}: expected either a 'qubit' or a 'k'/'l' entry")
    return Circuit(tuple(gates)), arch


def unwrap_document(d):
    """Accept either a bare schedule/circuit document or one embedded under a
    ``"schedule"`` key (as the synthesis commands emit)."""
    if isinstance(d, dict) and "schedule" in d and isinstance(d["schedule"], dict):
        return d["schedule"]
    return d


def document_kind(d) -> str:
    """Classify a parsed document as ``"schedule"`` or ``"circuit"``."""
    if isinstance(d, dict):
        if "segments" in d:
            return "schedule"
        if "gates" in d:
            return "circuit"
    raise ValueError("document is neither a schedule (segments) nor a circuit (gates)")
