"""Per-layer tracing of holostar from outside the package.

``Tracer.install`` wraps every public function (the names in each module's
``__all__``) of every loaded ``holostar`` module, plus ``qcore.Operator``
construction, and rebinds each wrapped name in every ``holostar`` module that
imported it, so ``architecture.evolve`` and ``cli.expectation_trace`` are
traced as well as ``pulse.evolve``.  Each wrapper records a span: its
duration, its self time (duration minus the wrapped calls it made) and the
span that called it.  Spans are folded into per-op totals as they close, so
memory stays flat however many calls an op makes.  ``uninstall`` restores
every binding it replaced.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "serialization", "architecture", "pulse", "single_qubit_holonomy",
          "two_qubit_holonomy", "kernels", "qcore")

_APPLY = "kernels.apply_gate_inplace"
# Where a kernel apply was issued from, by its nearest caller outside ``kernels``.
_APPLY_PARENT = {"pulse.evolve": "evolve", "pulse.expectation_trace": "trace",
                 "architecture.simulate": "reference"}
# Spans that make up the gate-matrix reference when ``simulate`` calls them.
_REFERENCE = {"single_qubit_holonomy.target_unitary", "two_qubit_holonomy.ideal_block", _APPLY}
_PARSE = {"serialization." + n for n in ("loads", "load_document", "unwrap_document",
                                         "document_kind", "schedule_from_dict",
                                         "circuit_from_dict")}
_EMIT = {"serialization." + n for n in ("dumps", "schedule_to_dict", "circuit_to_dict",
                                        "matrix_to_lists", "vector_to_lists")}


def _layer(module_name: str) -> str:
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def _propagator_key(seg) -> tuple:
    """The parameters a segment propagator depends on: its direction and area."""
    direction = getattr(seg, "beta", None)
    if direction is None:
        direction = seg.mix_theta
    return type(seg).__name__, direction, seg.envelope.area


class OpTotals:
    """What the traced calls of one op added up to."""

    def __init__(self):
        # label -> calls; kernel applies also under "<label>@<caller>", the
        # caller being evolve, trace (expectation_trace), reference or other
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.apply_self_ns = defaultdict(int)  # by caller, as above
        self.apply_bytes = 0
        self.reference_ns = 0
        self.propagator_keys: set = set()
        self.propagator_repeats = 0
        self.emit_bytes = 0
        # scales this op's times to reference host speed (see hostspeed.py)
        self.scale = 1.0


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [label, ns spent in wrapped children]
        self._patches: list[tuple] = []
        self.op = OpTotals()

    def reset(self) -> OpTotals:
        """Start a new op; return the totals of the previous one."""
        done, self.op = self.op, OpTotals()
        return done

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "holostar" or name.startswith("holostar."))]
        wrappers = {}
        for mod in modules:
            for name in getattr(mod, "__all__", ()):
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{_layer(mod.__name__)}.{name}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        operator = sys.modules["holostar.qcore"].Operator
        self._patches.append((operator, "__init__", operator.__init__))
        operator.__init__ = self._wrap("qcore.Operator", operator.__init__)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, label: str, fn):
        stack = self._stack
        is_apply = label == _APPLY
        is_propagator = label == "pulse.segment_unitary"
        is_dumps = label == "serialization.dumps"
        reference_part = label in _REFERENCE

        def traced(*args, **kwargs):
            frame = [label, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                op = self.op
                self_ns = elapsed - frame[1]
                op.calls[label] += 1
                op.self_ns[label] += self_ns
                if is_apply or reference_part:
                    caller = next((f[0] for f in reversed(stack)
                                   if not f[0].startswith("kernels.")), None)
                    if reference_part and caller == "architecture.simulate":
                        op.reference_ns += elapsed
                    if is_apply:
                        where = _APPLY_PARENT.get(caller, "other")
                        op.calls[f"{_APPLY}@{where}"] += 1
                        op.apply_self_ns[where] += self_ns
                        op.apply_bytes += 2 * 16 * args[0].size  # read + write, complex128
                if is_propagator:
                    key = _propagator_key(args[0])
                    op.propagator_repeats += key in op.propagator_keys
                    op.propagator_keys.add(key)
            if is_dumps:
                self.op.emit_bytes += len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", label)
        return traced


def completeness_errors(op: OpTotals, predicted: dict) -> list[str]:
    """Mismatches between traced call counts and counts predicted from the input."""
    return [f"{label}: traced {op.calls.get(label, 0)} calls, predicted {want}"
            for label, want in predicted.items() if op.calls.get(label, 0) != want]


def layer_metrics(ops: list[OpTotals]) -> dict[str, tuple[float, str]]:
    """Per-op means of the per-layer metrics over the traced ops; times are
    scaled to reference host speed by each op's own ``scale``."""
    n = len(ops)

    def mean(f):
        return sum(f(o) for o in ops) / n if n else 0.0

    def mean_ms(f):
        """Per-op mean of a time in ns, as ms at reference host speed."""
        return mean(lambda o: f(o) * o.scale) / 1e6

    def ms(labels):
        return mean_ms(lambda o: sum(o.self_ns[lb] for lb in labels))

    def calls(label):
        return mean(lambda o: o.calls[label])

    builds = sum(o.calls["pulse.segment_unitary"] for o in ops)
    repeats = sum(o.propagator_repeats for o in ops)
    out = {
        "pulse.propagator.calls": (calls("pulse.segment_unitary"), "count"),
        "pulse.propagator.self_ms": (ms(["pulse.segment_unitary"]), "ms"),
        "pulse.propagator.repeat_ratio": (repeats / builds if builds else 0.0, "ratio"),
        "qcore.operator.calls": (calls("qcore.Operator"), "count"),
        "qcore.operator.self_ms": (ms(["qcore.Operator"]), "ms"),
        "kernels.apply.calls": (calls(_APPLY), "count"),
        "kernels.apply.self_ms": (ms([_APPLY]), "ms"),
        "kernels.apply.evolve.self_ms": (mean_ms(lambda o: o.apply_self_ns["evolve"]), "ms"),
        "kernels.apply.reference.self_ms":
            (mean_ms(lambda o: o.apply_self_ns["reference"]), "ms"),
        "kernels.apply.trace.calls": (calls(f"{_APPLY}@trace"), "count"),
        "kernels.apply.bytes_computed": (mean(lambda o: o.apply_bytes), "B"),
        "pulse.trace.self_ms": (ms(["pulse.expectation_trace"]), "ms"),
        "serialization.emit.self_ms": (ms(_EMIT), "ms"),
        "serialization.emit.bytes": (mean(lambda o: o.emit_bytes), "B"),
        "serialization.parse.self_ms": (ms(_PARSE), "ms"),
        "architecture.compile.self_ms": (ms(["architecture.compile_circuit"]), "ms"),
        "architecture.post_select.self_ms": (ms(["architecture.post_select_auxiliary"]), "ms"),
        "architecture.reference.self_ms": (mean_ms(lambda o: o.reference_ns), "ms"),
    }
    for name in ("single_qubit_holonomy.synthesize", "single_qubit_holonomy.verify_synthesis",
                 "two_qubit_holonomy.two_qubit_gate", "two_qubit_holonomy.holonomy_decompose",
                 "two_qubit_holonomy.entangling_power", "qcore.partial_trace"):
        out[f"{name}.self_ms"] = (ms([name]), "ms")
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = (
            mean_ms(lambda o: sum(v for k, v in o.self_ns.items()
                                  if k.startswith(layer + "."))), "ms")
    return out
