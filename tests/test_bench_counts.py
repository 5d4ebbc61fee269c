"""The benchmark's predicted call counts, checked on one op per workload.

``perfbench/workloads.py`` predicts from each document how often a traced op
calls each layer, and a traced benchmark run fails an op whose counts differ.
Running op 0 of every workload under the tracer here makes a change that
moves a predicted count fail the test suite too.  Only ``workloads`` and
``tracer`` are imported: ``run.py`` sets BLAS environment variables on import.
"""

import contextlib
import io
import pathlib
import sys

import pytest

import holostar.cli

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

from tracer import Tracer, completeness_errors  # noqa: E402
from workloads import WORKLOADS, make_op  # noqa: E402


@pytest.mark.parametrize("name", WORKLOADS)
def test_predicted_counts_match_a_traced_op(name, monkeypatch):
    workload = WORKLOADS[name]
    op = make_op(workload, 1, 0)
    monkeypatch.setattr(sys, "stdin", io.StringIO(op.stdin))
    out = io.StringIO()
    tracer = Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(out):
            # looked up after install, so the traced binding runs
            code = holostar.cli.main(op.argv)
    finally:
        tracer.uninstall()
    assert completeness_errors(tracer.op, op.predicted) == []
    assert workload.check(op, code, out.getvalue()) is None
