"""End-to-end command tests, run in process through ``main``."""

import contextlib
import dataclasses
import io
import json
import math
import pathlib
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from holostar import cli
from holostar.cli import main
from holostar.config import Tolerances

PI = math.pi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_circuit(tmp_path, gates, n_register=2, auxiliary_state=0):
    path = tmp_path / "circuit.json"
    path.write_text(json.dumps({"n_register": n_register,
                                "auxiliary_state": auxiliary_state,
                                "gates": gates}))
    return str(path)


ENT_GATE = {"k": 0, "l": 1, "theta": PI / 2}


def test_synth1q_document(capsys):
    doc = run_json(capsys, "synth1q", "--theta", str(PI / 2), "--dphi", str(PI / 2))
    assert doc["command"] == "synth1q"
    segs = doc["schedule"]["segments"]
    assert [s["kind"] for s in segs] == ["field"] * 3
    assert [s["area"] for s in segs] == pytest.approx([PI / 2, PI, PI / 2])
    assert doc["synthesis_distance"] < 1e-12
    # the axis lies on the equator at phi = 0, so the target is i * sigma_x
    assert doc["target_matrix"][0][1] == pytest.approx([0.0, 1.0], abs=1e-15)
    assert doc["target_matrix"][1][0] == pytest.approx([0.0, 1.0], abs=1e-15)
    assert doc["target_matrix"][0][0] == pytest.approx([0.0, 0.0], abs=1e-15)


def test_synth2q_document(capsys):
    doc = run_json(capsys, "synth2q", "--theta", str(PI / 2))
    assert doc["command"] == "synth2q"
    assert doc["schedule"]["segments"][0]["area"] == pytest.approx(math.tau)
    assert doc["off_block_residual"] < 1e-12
    assert doc["entangling_power"] == pytest.approx(2 / 9, abs=1e-10)
    assert doc["entangling_power_formula"] == pytest.approx(2 / 9)
    assert len(doc["u0"]) == 4 and len(doc["u1"]) == 4


def test_phase_report(capsys):
    doc = run_json(capsys, "phase-report", "--theta", "1.0", "--phi", "0.5",
                   "--dphi", str(PI / 3))
    assert doc["geometric_phase"] == pytest.approx(PI / 3, abs=1e-6)
    assert doc["total_phase"] == pytest.approx(PI / 3, abs=1e-6)
    assert abs(doc["dynamical_phase"]) < 1e-6
    assert doc["orthogonal_geometric_phase"] == pytest.approx(-PI / 3, abs=1e-6)
    assert doc["max_integrand"] < 1e-9
    assert doc["cyclicity_deviation"] < 1e-10


def test_ep_sweep_json(capsys):
    doc = run_json(capsys, "ep-sweep", "--grid", "5")
    rows = doc["rows"]
    assert len(rows) == 5
    assert rows[0]["theta"] == 0.0 and rows[0]["ep_computed"] == pytest.approx(0.0, abs=1e-12)
    assert rows[2]["ep_formula"] == pytest.approx(2 / 9)
    assert all(r["abs_diff"] <= 1e-10 for r in rows)


def test_ep_sweep_csv(capsys):
    code, out, err = run(capsys, "ep-sweep", "--grid", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta,ep_computed,ep_formula,abs_diff"
    assert len(lines) == 4
    theta, ep, law, diff = (float(x) for x in lines[2].split(","))
    assert theta == pytest.approx(PI / 2)
    assert ep == pytest.approx(2 / 9, abs=1e-10)


def test_ep_sweep_rejects_tiny_grid(capsys):
    code, out, err = run(capsys, "ep-sweep", "--grid", "1")
    assert code == 2 and "grid" in err


def test_simulate_entangling_gate(capsys, tmp_path):
    path = write_circuit(tmp_path, [ENT_GATE])
    doc = run_json(capsys, "simulate", "--circuit", path, "--input", "10")
    assert doc["aux_match_probability"] == pytest.approx(1.0, abs=1e-12)
    assert doc["ideal_fidelity"] == pytest.approx(1.0, abs=1e-12)
    # |10> maps to -|01>
    amps = doc["register_state"]
    assert amps[1] == pytest.approx([-1.0, 0.0], abs=1e-12)
    for i in (0, 2, 3):
        assert amps[i] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_simulate_input_validation(capsys, tmp_path):
    path = write_circuit(tmp_path, [ENT_GATE])
    code, out, err = run(capsys, "simulate", "--circuit", path, "--input", "101")
    assert code == 2 and "2-bit" in err
    code, out, err = run(capsys, "simulate", "--circuit", path, "--input", "1x")
    assert code == 2


def test_simulate_shots_are_seeded(capsys, tmp_path):
    path = write_circuit(tmp_path, [ENT_GATE])
    argv = ("simulate", "--circuit", path, "--shots", "250", "--seed", "7")
    first = run_json(capsys, *argv)["shots"]
    second = run_json(capsys, *argv)["shots"]
    assert first == second
    assert first["requested"] == 250
    assert first["aux_matches"] == 250  # restoration is deterministic here


def test_simulate_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "simulate", "--circuit", str(tmp_path / "nope.json"))
    assert code == 2


def test_verify_synthesized_schedule(capsys, tmp_path):
    out_path = str(tmp_path / "sched.json")
    assert main(["synth1q", "--theta", "1.1", "--phi", "0.4", "--dphi", "-0.9",
                 "--out", out_path]) == 0
    capsys.readouterr()
    doc = run_json(capsys, "verify", out_path)
    assert doc["passed"] is True
    names = [c["name"] for c in doc["checks"]]
    assert names == ["synthesis_distance", "max_integrand", "cyclicity_deviation"]


def test_verify_circuit_document(capsys, tmp_path):
    path = write_circuit(tmp_path, [
        {"qubit": 0, "theta": PI / 2, "phi": 0.0, "dphi": PI / 4},
        ENT_GATE,
    ])
    doc = run_json(capsys, "verify", path)
    assert doc["kind"] == "circuit" and doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert names == {"aux_restoration_deficit", "infidelity"}


def test_verify_half_area_coupling_fails(capsys, tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"n_register": 2, "segments": [
        {"kind": "coupling", "pair": [0, 1], "mix_theta": PI / 2,
         "shape": "constant", "duration": 1.0, "area": PI},
    ]}))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    (check,) = doc["checks"]
    assert check["name"] == "off_block_residual" and not check["pass"]
    assert check["value"] == pytest.approx(math.sqrt(0.5), abs=1e-12)


def write_coupling_schedule(tmp_path, duration=1.0, area=2 * PI):
    path = tmp_path / "coupling.json"
    path.write_text(json.dumps({"n_register": 2, "segments": [
        {"kind": "coupling", "pair": [0, 1], "mix_theta": 1.0,
         "shape": "constant", "duration": duration, "area": area},
    ]}))
    return str(path)


def test_a_coupling_pulse_of_uneven_duration_certifies_with_three_checks(capsys, tmp_path):
    doc = run_json(capsys, "verify", write_coupling_schedule(tmp_path, 0.8667828438243994))
    assert doc["passed"] is True
    names = [c["name"] for c in doc["checks"]]
    assert names == ["off_block_residual", "transport_residual", "holonomy_reconstruction"]


def test_leakage_is_judged_by_the_off_block_tolerance_alone(capsys, tmp_path):
    # 2e-8 past the full area leaves 8.8e-9 of leakage between the blocks:
    # too much for the default off_block threshold, and certifiable once
    # --tol loosens it (no other threshold may refuse the decomposition)
    path = write_coupling_schedule(tmp_path, area=2 * PI + 2e-8)
    code, out, err = run(capsys, "verify", path)
    assert code == 1, err
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "off_block_residual" and not check["pass"]
    assert check["value"] == pytest.approx(8.7758e-9, rel=1e-4)

    # the blocks of a leaky pulse are not unitary, however loose --tol is
    for excess, off_block in ((2e-8, "1e-7"), (2e-5, "1e-3"), (1.0, "1")):
        path = write_coupling_schedule(tmp_path, area=2 * PI + excess)
        code, out, err = run(capsys, "verify", path, "--tol", f"off_block={off_block}")
        assert code == 0, err
        checks = json.loads(out)["checks"]
        assert [c["name"] for c in checks] == [
            "off_block_residual", "transport_residual", "holonomy_reconstruction"]
        assert all(c["pass"] for c in checks)


@pytest.mark.parametrize("argv", [
    ("--random-circuits", "-1"),
    ("--random-circuits", "1", "--gates", "-1"),
    ("--random-circuits", "2", "--seed", "-1"),
], ids=["negative-circuits", "negative-gates", "negative-seed"])
def test_verify_rejects_negative_counts(capsys, argv):
    # a negative count used to certify zero checks as "passed": true, and a
    # negative seed gave numpy's message, which names no option
    code, out, err = run(capsys, "verify", *argv)
    assert_one_line_usage_error(code, out, err)
    assert argv[-2] in err


def test_simulate_rejects_a_negative_seed(capsys):
    code, out, err = run(capsys, "simulate", "--circuit", str(GOLDEN / "circuit_n3.json"),
                         "--shots", "5", "--seed", "-4")
    assert_one_line_usage_error(code, out, err)
    assert "--seed" in err


def test_verify_rejects_schedule_without_segments(capsys, tmp_path):
    code, out, err = run_document(capsys, tmp_path, '{"n_register": 1, "segments": []}',
                                  "verify")
    assert_one_line_usage_error(code, out, err)
    assert "no segments" in err


@pytest.mark.parametrize("argv, option, limit", [
    (("ep-sweep", "--grid"), "--grid", cli.MAX_GRID),
    (("verify", "--random-circuits", "1", "--gates"), "--gates", cli.MAX_GATES),
    (("verify", "--random-circuits"), "--random-circuits", cli.MAX_RANDOM_CIRCUITS),
    # beyond a C long, numpy's binomial sampler raised OverflowError with a traceback
    (("simulate", "--circuit", "-", "--shots"), "--shots", cli.MAX_SHOTS),
], ids=["grid", "gates", "random-circuits", "shots"])
def test_size_arguments_are_bounded(capsys, argv, option, limit):
    # only ever the maximum plus one: it must be refused before anything is allocated
    code, out, err = run(capsys, *argv, str(limit + 1))
    assert_one_line_usage_error(code, out, err)
    assert option in err and str(limit) in err


def test_unbuildable_segment_is_named(capsys, tmp_path):
    # the peak amplitude 2 * area / duration overflows for a subnormal duration
    text = json.dumps({"n_register": 2, "segments": [
        {"kind": "coupling", "pair": [0, 1], "mix_theta": 1.0, "shape": "constant",
         "duration": 1e-310, "area": 2 * PI}]})
    code, out, err = run_document(capsys, tmp_path, text, "verify")
    assert_one_line_usage_error(code, out, err)
    assert "coupling segment 0: " in err and "duration" in err
    # an entangling gate of a circuit is named the same way
    for gate, detail in (({"k": 0, "l": 0, "theta": 1}, "distinct qubits"),
                         ({"k": 0, "l": 1, "theta": 4}, "mixing angle")):
        code, out, err = run_document(capsys, tmp_path, circuit_text(gates=[gate]),
                                      "simulate", "--circuit")
        assert_one_line_usage_error(code, out, err)
        assert "entangling gate 0: " in err and detail in err


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, name", [
    (("simulate", "--circuit", str(GOLDEN / "circuit_n3.json"), "--input", "101"),
     "simulate_n3.json"),
    (("synth1q", "--theta", "1.0", "--phi", "0.5", "--dphi", "0.7"), "synth1q.json"),
    (("synth2q", "--theta", "1.2", "--pair", "0", "2"), "synth2q.json"),
    (("verify", str(GOLDEN / "synth1q.json")), "verify_synth1q.json"),
    (("verify", str(GOLDEN / "synth2q.json")), "verify_synth2q.json"),
    (("verify", str(GOLDEN / "circuit_n3.json")), "verify_circuit_n3.json"),
    (("synth1q", "--theta", "1.0", "--phi", "0.5", "--dphi", "0.7", "--shape", "sin_squared"),
     "synth1q_sin2.json"),
    (("synth2q", "--theta", "1.2", "--pair", "0", "2", "--shape", "sin_squared"),
     "synth2q_sin2.json"),
    (("verify", str(GOLDEN / "synth1q_sin2.json")), "verify_synth1q_sin2.json"),
    (("verify", str(GOLDEN / "synth2q_sin2.json")), "verify_synth2q_sin2.json"),
    (("phase-report", "--theta", "1.0", "--phi", "0.5", "--dphi", "0.7",
      "--shape", "sin_squared"), "phase_report_sin2.json"),
], ids=["simulate", "synth1q", "synth2q", "verify-synth1q", "verify-synth2q",
        "verify-circuit", "synth1q-sin2", "synth2q-sin2", "verify-synth1q-sin2",
        "verify-synth2q-sin2", "phase-report-sin2"])
def test_output_matches_golden_bytes(capsys, argv, name):
    # the golden files pin the emitted bytes of complex amplitudes and matrices,
    # and of every verify check record; regenerate them only for a deliberate
    # change of the numerics
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_verify_unparseable_document(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("not json at all")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2


def test_verify_needs_a_source(capsys):
    code, out, err = run(capsys, "verify")
    assert code == 2 and "random-circuits" in err


@pytest.mark.parametrize("exists", [True, False], ids=["existing-path", "missing-path"])
def test_verify_refuses_a_path_with_random_circuits(capsys, tmp_path, exists):
    path = tmp_path / "circuit.json"
    if exists:
        path = pathlib.Path(write_circuit(tmp_path, [ENT_GATE]))
    code, out, err = run(capsys, "verify", str(path), "--random-circuits", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "not both" in err


_SCHEDULE_DOC = str(GOLDEN / "synth1q_sin2.json")
_CIRCUIT_DOC = str(GOLDEN / "circuit_n3.json")


@pytest.mark.parametrize("argv, option", [
    (("verify", _SCHEDULE_DOC, "--n-register", "7"), "--n-register"),
    (("verify", _CIRCUIT_DOC, "--gates", "3"), "--gates"),
    (("verify", _SCHEDULE_DOC, "--seed", "5"), "--seed"),
    (("verify", _SCHEDULE_DOC, "--shape", "constant"), "--shape"),
    (("simulate", "--circuit", _CIRCUIT_DOC, "--seed", "5"), "--seed"),
    (("simulate", "--circuit", _CIRCUIT_DOC, "--shots", "0", "--seed", "5"), "--seed"),
], ids=["path-n-register", "path-gates", "path-seed", "schedule-shape", "simulate-seed",
        "simulate-seed-zero-shots"])
def test_an_option_that_changes_nothing_is_refused(capsys, argv, option):
    # given its default value too: the option is refused for being given at all
    code, out, err = run(capsys, *argv)
    assert_one_line_usage_error(code, out, err)
    assert option in err and "does not apply" in err


def test_each_option_is_taken_where_it_applies(capsys):
    run_json(capsys, "verify", _CIRCUIT_DOC, "--shape", "sin_squared")
    run_json(capsys, "verify", "--random-circuits", "1", "--shape", "sin_squared",
             "--n-register", "2", "--gates", "2", "--seed", "1")
    run_json(capsys, "simulate", "--circuit", _CIRCUIT_DOC, "--shots", "3", "--seed", "5")


def test_verify_random_circuits(capsys):
    doc = run_json(capsys, "verify", "--random-circuits", "3", "--n-register", "2",
                   "--gates", "4", "--seed", "11")
    assert doc["kind"] == "random-circuits"
    assert doc["passed"] is True
    assert sorted({c["circuit"] for c in doc["checks"]}) == [0, 1, 2]


def test_tolerance_override_is_reported(capsys, tmp_path):
    out_path = str(tmp_path / "sched.json")
    main(["synth1q", "--theta", "0.7", "--dphi", "0.3", "--out", out_path])
    capsys.readouterr()
    doc = run_json(capsys, "verify", out_path, "--tol", "synthesis_distance=1e-3")
    (check,) = [c for c in doc["checks"] if c["name"] == "synthesis_distance"]
    assert check["tolerance"] == 1e-3


def test_cached_parser_carries_no_state_between_calls(capsys):
    assert cli._build_parser() is cli._build_parser()
    doc_path = str(GOLDEN / "synth2q.json")
    for _ in range(2):
        doc = run_json(capsys, "verify", "--tol", "transport_residual=0.125", doc_path)
        (check,) = [c for c in doc["checks"] if c["name"] == "transport_residual"]
        assert check["tolerance"] == 0.125
    # the default tolerance is back, and the --tol list did not accumulate
    code, out, err = run(capsys, "verify", doc_path)
    assert code == 0, err
    assert out.encode() == (GOLDEN / "verify_synth2q.json").read_bytes()
    assert cli._build_parser().parse_args(["verify", doc_path]).tol == []
    assert cli._build_parser().parse_args(["verify", "--tol", "a=1", doc_path]).tol == ["a=1"]
    # an argparse error leaves the parser fit for the next command
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--circuit", str(GOLDEN / "circuit_n3.json"), "--shots", "many"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, "simulate", "--circuit", str(GOLDEN / "circuit_n3.json"),
                         "--input", "101")
    assert code == 0, err
    assert out.encode() == (GOLDEN / "simulate_n3.json").read_bytes()


def test_tolerance_override_rejects_garbage(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--random-circuits", "1",
                         "--tol", "no_such_tolerance=1")
    assert code == 2
    code, out, err = run(capsys, "verify", "--random-circuits", "1",
                         "--tol", "off_block")
    assert code == 2 and "NAME=VALUE" in err
    code, out, err = run(capsys, "verify", "--random-circuits", "1",
                         "--tol", "off_block=abc")
    assert code == 2
    # a non-finite threshold cannot be written to the report, and a negative
    # one fails every check whatever the numbers are
    for value in ("nan", "inf", "-1"):
        code, out, err = run(capsys, "verify", "--random-circuits", "1",
                             "--tol", f"off_block={value}")
        assert_one_line_usage_error(code, out, err)
        assert "--tol" in err and "off_block" in err


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Tolerances)])
def test_every_tolerance_reaches_a_check(capsys, name):
    # a Tolerances field that no verify check reports is a setting that changes nothing
    sentinel = 0.125
    reported = set()
    for doc in ("synth1q.json", "synth2q.json", "circuit_n3.json"):
        code, out, err = run(capsys, "verify", str(GOLDEN / doc), "--tol", f"{name}={sentinel}")
        assert code in (0, 1), err
        reported |= {c["name"] for c in json.loads(out)["checks"]
                     if c["tolerance"] == sentinel}
    assert reported, f"no check reports the {name} tolerance"


def test_out_writes_file_not_stdout(capsys, tmp_path):
    out_path = tmp_path / "doc.json"
    code, out, err = run(capsys, "synth2q", "--theta", "0.5", "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["command"] == "synth2q"


def test_argparse_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth1q", "--theta", "1.0", "--dphi", "0.1", "--format", "csv"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    # --tol only changes what verify checks, only ep-sweep has a second format,
    # and the phase bookkeeping is exact, so no command takes --samples
    for argv in (("synth1q", "--theta", "1.0", "--dphi", "0.1", "--tol", "off_block=1"),
                 ("synth2q", "--theta", "1.0", "--tol", "off_block=1"),
                 ("simulate", "--circuit", "-", "--tol", "off_block=1"),
                 ("ep-sweep", "--tol", "off_block=1"),
                 ("phase-report", "--theta", "1.0", "--dphi", "0.1", "--tol", "off_block=1"),
                 ("verify", "--random-circuits", "1", "--format", "json"),
                 ("simulate", "--circuit", "-", "--format", "json"),
                 ("verify", _SCHEDULE_DOC, "--samples", "64"),
                 ("phase-report", "--theta", "1.0", "--dphi", "0.1", "--samples", "64")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2


def test_stdin_document(capsys, tmp_path, monkeypatch):
    import io

    text = json.dumps({"n_register": 2, "auxiliary_state": 0, "gates": [ENT_GATE]})
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    doc = run_json(capsys, "verify", "-")
    assert doc["passed"] is True


def run_document(capsys, tmp_path, text, *argv):
    path = tmp_path / "doc.json"
    path.write_text(text)
    return run(capsys, *argv, str(path))


def assert_one_line_usage_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("text", [
    '{"a":' * 3000 + "1" + "}" * 3000,
    "[" * 200_000 + "]" * 200_000,
], ids=["object", "array"])
@pytest.mark.parametrize("argv", [("verify",), ("simulate", "--circuit")],
                         ids=["verify", "simulate"])
def test_a_deeply_nested_document_is_a_usage_error(capsys, tmp_path, text, argv):
    # the parser's RecursionError used to escape as a traceback with exit 1
    code, out, err = run_document(capsys, tmp_path, text, *argv)
    assert_one_line_usage_error(code, out, err)
    assert "nests too deeply" in err


ROTATION_NAN_PHI = ('{"n_register": 1, "auxiliary_state": 0, "gates": '
                    '[{"qubit": 0, "theta": 1.0, "phi": NaN, "dphi": 0.5}]}')
COUPLING_INFINITE_AREA = ('{"n_register": 2, "segments": [{"kind": "coupling", "pair": [0, 1], '
                          '"mix_theta": 1.0, "shape": "constant", "duration": 1.0, '
                          '"area": Infinity}]}')


@pytest.mark.parametrize("text, argv", [
    (ROTATION_NAN_PHI, ("simulate", "--circuit")),
    (ROTATION_NAN_PHI, ("verify",)),
    (COUPLING_INFINITE_AREA, ("verify",)),
    (COUPLING_INFINITE_AREA.replace("Infinity", "1e999"), ("verify",)),
], ids=["nan-simulate", "nan-verify", "infinity", "overflow"])
def test_non_finite_numbers_are_rejected(capsys, tmp_path, text, argv):
    code, out, err = run_document(capsys, tmp_path, text, *argv)
    assert_one_line_usage_error(code, out, err)
    assert "finite" in err


@pytest.mark.parametrize("argv", [
    ("synth1q", "--theta", "1.0", "--dphi", "0.5", "--phi", "nan"),
    ("synth2q", "--theta", "1.0", "--out", "no/such/dir/gate.json"),
], ids=["nan-output", "unwritable-out"])
def test_output_failures_are_usage_errors(capsys, argv):
    # the output is written inside main's error handling: a non-finite value
    # or an unwritable path is one line on stderr, not a traceback
    assert_one_line_usage_error(*run(capsys, *argv))


def circuit_text(n_register=2, auxiliary_state=0, gates=()):
    return json.dumps({"n_register": n_register, "auxiliary_state": auxiliary_state,
                       "gates": list(gates)})


def coupling_text(pair=(0, 1), n_register=2):
    return json.dumps({"n_register": n_register, "segments": [
        {"kind": "coupling", "pair": list(pair), "mix_theta": 1.0, "shape": "constant",
         "duration": 1.0, "area": 2 * PI}]})


@pytest.mark.parametrize("text, argv, field", [
    (circuit_text(gates=[{"qubit": 1.9, "theta": 1.0, "phi": 0.0, "dphi": 0.5}]),
     ("simulate", "--circuit"), "qubit"),
    (circuit_text(gates=[{"k": True, "l": 0.2, "theta": 1.0}]), ("simulate", "--circuit"), "k"),
    (circuit_text(gates=[{"k": 0, "l": 0.2, "theta": 1.0}]), ("simulate", "--circuit"), "l"),
    (circuit_text(n_register=2.5), ("simulate", "--circuit"), "n_register"),
    (circuit_text(auxiliary_state=True), ("verify",), "auxiliary_state"),
    (coupling_text(pair=(0, 1.5)), ("verify",), "pair"),
    (coupling_text(n_register=True), ("verify",), "n_register"),
    (json.dumps({"n_register": 1, "segments": [
        {"kind": "field", "qubit": 0.5, "beta": 0.0, "shape": "constant",
         "duration": 1.0, "area": 1.0}] * 3}), ("verify",), "qubit"),
], ids=["qubit-fraction", "k-bool", "l-fraction", "n_register-fraction", "aux-bool",
        "pair-fraction", "schedule-n_register-bool", "field-qubit-fraction"])
def test_document_indices_must_be_integers(capsys, tmp_path, text, argv, field):
    code, out, err = run_document(capsys, tmp_path, text, *argv)
    assert_one_line_usage_error(code, out, err)
    assert field in err and "integer" in err


_HUGE = "x" * 10**6


@pytest.mark.parametrize("text, argv", [
    (circuit_text(n_register=_HUGE), ("simulate", "--circuit")),
    (json.dumps({"n_register": 1, "segments": [], _HUGE: 0}), ("verify",)),
    (json.dumps({"n_register": 1, "segments": [{"kind": _HUGE}]}), ("verify",)),
    (json.dumps({"n_register": 1, "segments": [
        {"kind": "field", "qubit": 0, "beta": 0.0, "shape": _HUGE,
         "duration": 1.0, "area": 1.0}]}), ("verify",)),
    (circuit_text(), ("simulate", "--input", _HUGE, "--circuit")),
    (coupling_text(), ("verify", "--tol", _HUGE)),
    (coupling_text(), ("verify", "--tol", _HUGE + "=1")),
    (coupling_text(), ("verify", "--tol", "cyclicity=" + _HUGE)),
    (coupling_text(), ("verify", "--tol", _HUGE + "=y")),
], ids=["string-n_register", "unknown-key", "unknown-kind", "unknown-shape", "input",
        "tol-without-value", "tol-unknown-name", "tol-value-not-a-number",
        "tol-unknown-name-and-value"])
def test_an_error_line_cuts_a_huge_value(capsys, tmp_path, text, argv):
    # the offending value is echoed as its first 60 characters and an ellipsis
    code, out, err = run_document(capsys, tmp_path, text, *argv)
    assert_one_line_usage_error(code, out, err)
    assert "xxx..." in err and len(err) < 200


@pytest.mark.parametrize("n_register", ["0", "21"])
def test_random_circuit_register_size_is_a_usage_error(capsys, n_register):
    code, out, err = run(capsys, "verify", "--random-circuits", "1",
                         "--n-register", n_register)
    assert_one_line_usage_error(code, out, err)
    assert "--n-register" in err and "20" in err


def test_circuit_register_size_is_limited(capsys, tmp_path):
    # 40 register qubits would need a 16 TiB state vector
    code, out, err = run_document(capsys, tmp_path, circuit_text(n_register=40),
                                  "simulate", "--circuit")
    assert_one_line_usage_error(code, out, err)
    assert "40" in err


def test_benchmarked_register_size_is_admitted(capsys, tmp_path):
    doc = json.loads(run_document(capsys, tmp_path, circuit_text(n_register=14),
                                  "simulate", "--circuit")[1])
    assert doc["n_register"] == 14 and doc["ideal_fidelity"] == pytest.approx(1.0)


# Arbitrary JSON, and documents shaped like schedules and circuits whose every
# value may also be arbitrary JSON, so the fuzzing reaches the field checks.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)
indices = st.integers(-1, 3) | json_values
numbers = st.floats(-7.0, 13.0) | st.sampled_from([0, PI, 2 * PI]) | json_values
shapes = st.sampled_from(["constant", "sin_squared"]) | json_values
segments = st.fixed_dictionaries({
    "kind": st.just("field") | json_values, "qubit": indices, "beta": numbers,
    "shape": shapes, "duration": numbers, "area": numbers,
}) | st.fixed_dictionaries({
    "kind": st.just("coupling") | json_values, "pair": st.lists(indices, max_size=3) | json_values,
    "mix_theta": numbers, "shape": shapes, "duration": numbers, "area": numbers,
})
gates = st.fixed_dictionaries({"qubit": indices, "theta": numbers, "phi": numbers,
                               "dphi": numbers}) \
    | st.fixed_dictionaries({"k": indices, "l": indices, "theta": numbers})
schedules = st.fixed_dictionaries({"n_register": indices,
                                   "segments": st.lists(segments, max_size=4) | json_values})
circuits = st.fixed_dictionaries({"n_register": indices, "auxiliary_state": indices,
                                  "gates": st.lists(gates, max_size=4) | json_values})
documents = json_values | schedules | circuits | st.builds(lambda s: {"schedule": s}, schedules)


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(documents, st.sampled_from([("verify", "-"), ("simulate", "--circuit", "-")]))
def test_arbitrary_documents_never_crash(doc, argv):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
