import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

import nonlocality
from nonlocality import box_from_correlation, builtin_box, product_box
from nonlocality import correlations as corr
from nonlocality.cli import _linspace, main

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_any(capsys, *args):
    """``run_cli``, with argparse's exit on a bad argument read as its code."""
    try:
        code = main(list(args))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args, "--format", "json")
    assert out, err
    return code, json.loads(out)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


# --------------------------------------------------------------------- chsh


def test_chsh_superquantum_eq2(capsys):
    code, report = run_json(capsys, "chsh", "--model", "superquantum", "--angles", "eq2")
    assert code == 0
    assert report["results"]["value"] == 4.0
    assert report["results"]["classification"] == "superquantum"


def test_chsh_singlet_optimize(capsys):
    code, report = run_json(capsys, "chsh", "--model", "singlet", "--optimize")
    assert code == 0
    assert report["results"]["value"] == pytest.approx(2 * math.sqrt(2), abs=1e-6)
    assert report["results"]["classification"] == "quantum-maximal"


def test_chsh_deterministic_all(capsys):
    code, report = run_json(capsys, "chsh", "--deterministic", "all")
    assert code == 0
    rows = report["results"]["strategies"]
    assert len(rows) == 16
    assert report["results"]["max_abs_value"] == 2.0
    assert all(abs(r["value"]) == 2.0 for r in rows)


@pytest.mark.parametrize("sid", [0, 5, 15])
def test_chsh_deterministic_one_strategy(capsys, sid):
    _, every = run_json(capsys, "chsh", "--deterministic", "all")
    code, report = run_json(capsys, "chsh", "--deterministic", str(sid))
    assert code == 0
    assert report["params"]["deterministic"] == str(sid)
    row = every["results"]["strategies"][sid]
    assert report["results"] == {"strategies": [row], "max_abs_value": abs(row["value"])}


@pytest.mark.parametrize("value", ["16", "-1", "3.0", "abc"])
def test_chsh_deterministic_takes_all_or_a_strategy_id(capsys, value):
    # 16 used to end in an IndexError traceback and -1 to report strategy 15
    with pytest.raises(SystemExit) as exc:
        main(["chsh", "--deterministic", value, "--format", "json"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "--deterministic" in captured.err and "0..15" in captured.err
    assert not captured.out


def test_chsh_box_file(tmp_path, capsys):
    path = write_json(tmp_path / "box.json", builtin_box("superquantum-eq2").to_json())
    code, report = run_json(capsys, "chsh", "--box", path)
    assert code == 0
    assert report["results"]["value"] == 4.0


# correlations [[E(A,B), E(A,B')], [E(A',B), E(A',B')]] of the eight PR boxes:
# an odd number of -1 entries
_PR_CORRELATIONS = [e for e in itertools.product((1.0, -1.0), repeat=4) if math.prod(e) < 0]


@pytest.mark.parametrize("e", _PR_CORRELATIONS)
def test_chsh_box_classifies_every_pr_box_as_superquantum(tmp_path, capsys, e):
    # the stated form reads 0 on six of the eight, which were reported classical
    path = write_json(tmp_path / "box.json", box_from_correlation([e[:2], e[2:]]).to_json())
    code, report = run_json(capsys, "chsh", "--box", path)
    assert code == 0
    assert report["results"]["classification"] == "superquantum"
    assert report["results"]["value"] == e[0] + e[1] + e[2] - e[3]
    assert report["results"]["terms"] == list(e)


@pytest.mark.parametrize("sid", range(16))
def test_chsh_box_classifies_every_deterministic_box_as_classical(tmp_path, capsys, sid):
    path = write_json(tmp_path / "box.json", corr.enumerate_deterministic()[sid].box.to_json())
    code, report = run_json(capsys, "chsh", "--box", path)
    assert code == 0
    assert report["results"]["classification"] == "classical"


def test_chsh_angles_classifies_by_the_largest_form(capsys):
    # the stated form reads 0.85, classical; the second form of the same
    # correlators reads 2.97
    code, report = run_json(capsys, "chsh", "--model", "superquantum", "--angles", "0,0.6,1.6,0.4")
    res = corr.chsh_at_angles(corr.SuperquantumModel(), 0.0, 0.6, 1.6, 0.4)
    assert code == 0
    assert report["results"] == {"value": res.value, "terms": list(res.terms),
                                 "classification": "superquantum"}
    assert res.value == pytest.approx(0.851, abs=1e-3)
    assert max(map(abs, res.forms())) == pytest.approx(2.967, abs=1e-3)


@pytest.mark.parametrize("value", ["-5", "1000001", "100000000", "2.5", "1e3", "x"])
def test_chsh_curve_count_out_of_range_is_input_error(tmp_path, capsys, value):
    # -5 wrote a CSV with only a header and exited 0; 100000000 built the
    # whole curve first and ended in a MemoryError traceback under a memory limit
    out = tmp_path / "curve.csv"
    code, stdout, err = run_any(
        capsys, "chsh", "--model", "singlet", "--curve", value, "--csv", str(out)
    )
    assert code == 2 and stdout == ""
    assert f"argument --curve: expected an integer 0..1000000, got '{value}'" in err
    assert not out.exists()


def test_chsh_explicit_angles(capsys):
    angles = "0,1.5707963267948966,0.7853981633974483,-0.7853981633974483"
    code, report = run_json(capsys, "chsh", "--model", "singlet", "--angles", angles)
    assert code == 0
    assert report["results"]["value"] == pytest.approx(-2 * math.sqrt(2), abs=1e-12)


@pytest.mark.parametrize(
    "spec", ["classical:x", "classical:99", "quantum", "singlet:3", "table", "classical:"]
)
def test_chsh_bad_model_is_input_error(capsys, spec):
    code, out, err = run_cli(capsys, "chsh", "--model", spec)
    assert code == 2
    assert "--model" in err and "classical:ID" in err and repr(spec) in err
    assert "invalid literal" not in err


def test_chsh_angles_starting_with_dash(capsys):
    code, report = run_json(
        capsys, "chsh", "--model", "singlet", "--angles", "-0.1,0.5,0.2,1.0"
    )
    assert code == 0
    assert report["params"]["angles"] == [-0.1, 0.5, 0.2, 1.0]
    expected = -sum(
        s * math.cos(x - y)
        for s, x, y in ((1, -0.1, 0.2), (1, -0.1, 1.0), (1, 0.5, 0.2), (-1, 0.5, 1.0))
    )
    assert report["results"]["value"] == pytest.approx(expected, abs=1e-12)


def test_chsh_curve_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code, report = run_json(
        capsys, "chsh", "--model", "superquantum", "--curve", "9", "--csv", str(out)
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "theta,correlation"
    assert len(lines) == 10
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[1]) == 1.0
    assert float(last[1]) == -1.0


@pytest.mark.parametrize("args,message", [
    (["chsh", "--model", "singlet", "--curve", "5"], "--curve requires --csv PATH"),
    (["jam", "--sweep"], "--sweep requires --csv PATH"),
    (["jam", "--sweep", "--d", "2", "--sweep-range", "0,1,3"], "--sweep requires --csv PATH"),
])
def test_curve_and_sweep_without_csv_are_input_errors(tmp_path, monkeypatch, capsys, args,
                                                      message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *args)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("model", ["singlet", "superquantum", "classical:6", "table"])
def test_chsh_curve_rows_are_pointwise_correlations(tmp_path, capsys, model):
    if model == "table":
        spec = {"kind": "table", "thetas": [0.0, 0.5, 1.2, math.pi],
                "values": [-1.0, -0.7, 0.1, 1.0]}
        args = ["--model-file", write_json(tmp_path / "m.json", spec)]
    else:
        args = ["--model", model]
    out = tmp_path / "curve.csv"
    code, report = run_json(capsys, "chsh", *args, "--curve", "181", "--csv", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    instance = corr.model_from_json(report["params"]["model"])
    want = [f"{t:.12g},{instance.correlation(t):.12g}" for t in np.linspace(0.0, math.pi, 181)]
    assert lines == ["theta,correlation"] + want


# `chsh --optimize --format json` output recorded before the search stopped
# at the algebraic bound: the eq2 start reaches 4 for the superquantum model,
# a later start for the step table. Since then only the note changed (both
# values reach the bound 4, so the note calls them certified) and the
# "duration_s": null line went.
_SUPERQUANTUM_OPTIMUM_JSON = """{
  "command": "chsh",
  "ok": true,
  "params": {
    "model": {
      "kind": "superquantum"
    },
    "optimize": true,
    "tol": 1e-12
  },
  "results": {
    "angles": [
      1.5707963267948966,
      0.0,
      0.7853981633974483,
      2.356194490192345
    ],
    "classification": "superquantum",
    "note": "certified maximum: the value reaches the model's CHSH bound",
    "terms": [
      1.0,
      1.0,
      1.0,
      -1.0
    ],
    "value": 4.0
  }
}
"""
_STEP_TABLE_OPTIMUM_JSON = """{
  "command": "chsh",
  "ok": true,
  "params": {
    "model": {
      "kind": "table",
      "thetas": [
        0.0,
        0.6,
        1.7999999999999998,
        3.141592653589793
      ],
      "values": [
        1.0,
        1.0,
        -1.0,
        -1.0
      ]
    },
    "optimize": true,
    "tol": 1e-12
  },
  "results": {
    "angles": [
      0.10471975511965978,
      3.996803987067015,
      1.9198621771937625,
      4.583562073612696
    ],
    "classification": "superquantum",
    "note": "certified maximum: the value reaches the model's CHSH bound",
    "terms": [
      -1.0,
      -1.0,
      -1.0,
      1.0
    ],
    "value": 4.0
  }
}
"""


@pytest.mark.parametrize("thetas,values,message", [
    ([0.0], [1.0], ">= 2 points"),
    ([0.0, 1.0, math.pi], [1.0, 0.0], ">= 2 points"),
    ([0.0, 2.0, 1.0], [1.0, 0.0, -1.0], "strictly increasing"),
    ([0.0, 4.0], [1.0, -1.0], "within [0, pi]"),
    ([0.0, 1e-320, math.pi], [1.0, -1.0, 0.0], "segment 0 from theta 0.0 to 1e-320"),
])
def test_chsh_model_file_rejects_bad_tables(tmp_path, capsys, thetas, values, message):
    path = write_json(tmp_path / "t.json", {"kind": "table", "thetas": thetas, "values": values})
    for op in ("--optimize", "--angles=eq2"):
        code, out, err = run_cli(capsys, "chsh", "--model-file", path, op)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: table model keys 'thetas' and 'values': ")
        assert message in err


def test_chsh_optimize_output_at_bound_is_unchanged(tmp_path, capsys):
    code, out, err = run_cli(capsys, "chsh", "--optimize", "--model", "superquantum",
                             "--format", "json")
    assert code == 0 and out == _SUPERQUANTUM_OPTIMUM_JSON
    spec = {"kind": "table", "thetas": [0.0, 0.6, 3 * 0.6, math.pi],
            "values": [1.0, 1.0, -1.0, -1.0]}
    path = write_json(tmp_path / "step.json", spec)
    code, out, err = run_cli(capsys, "chsh", "--optimize", "--model-file", path,
                             "--format", "json")
    assert code == 0 and out == _STEP_TABLE_OPTIMUM_JSON


@pytest.mark.parametrize("spec,key", [
    ({"kind": "table"}, "'thetas'"),
    ([], "'kind'"),
    ({"kind": "classical", "strategy": "q"}, "'strategy'"),
    ({"kind": "classical", "strategy": 3.7}, "'strategy'"),
    ({"kind": "classical", "strategy": True}, "'strategy'"),
    ({"kind": "classical", "strategy": "7"}, "'strategy'"),
    # an unhashable kind raised TypeError: a traceback and exit 1
    ({"kind": []}, "'kind'"),
])
def test_chsh_bad_model_file_is_input_error(tmp_path, capsys, spec, key):
    path = write_json(tmp_path / "m.json", spec)
    code, out, err = run_cli(capsys, "chsh", "--optimize", "--model-file", path)
    assert code == 2
    assert key in err
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err and out == ""


# -------------------------------------------------------------------- nosig


def test_nosig_builtin_passes(capsys):
    code, report = run_json(capsys, "nosig", "--builtin", "superquantum-eq2")
    assert code == 0
    assert report["results"]["passed"] is True
    assert report["results"]["max_deviation"] == 0.0


def test_nosig_signalling_fixture_fails(tmp_path, capsys):
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 0] = [[0.45, 0.45], [0.05, 0.05]]
    path = write_json(tmp_path / "sig.json", {"P": probs.tolist()})
    code, report = run_json(capsys, "nosig", "--box", path)
    assert code == 1
    assert report["results"]["passed"] is False
    assert report["results"]["max_deviation"] == pytest.approx(0.4, abs=1e-12)


def test_nosig_product_fixture_passes(tmp_path, capsys):
    path = write_json(
        tmp_path / "prod.json", product_box((0.3, 0.8), (0.6, 0.1)).to_json()
    )
    code, report = run_json(capsys, "nosig", "--box", path)
    assert code == 0
    assert report["results"]["passed"] is True


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-9", "abc"])
def test_nosig_bad_tol_is_input_error(capsys, value):
    # --tol nan used to write "tol": NaN, which is not JSON
    with pytest.raises(SystemExit) as exc:
        main(["nosig", "--builtin", "uniform", f"--tol={value}", "--format", "json"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "--tol" in captured.err
    assert not captured.out


# ---------------------------------------------------------------------- jam


def canonical_config(jx=0.0, jt=0.5):
    return {"a": [-1.0, 0.0], "b": [1.0, 0.0], "j": [jx, jt], "d": 1}


def test_jam_config_holds(tmp_path, capsys):
    path = write_json(tmp_path / "cfg.json", canonical_config())
    code, report = run_json(capsys, "jam", "--config", path)
    assert code == 0
    assert report["results"]["validation"]["valid"] is True
    assert report["results"]["binary"]["holds"] is True
    assert report["results"]["binary"]["margin"] == pytest.approx(0.5, abs=1e-12)


def test_jam_config_fails(tmp_path, capsys):
    path = write_json(tmp_path / "cfg.json", canonical_config(jx=2.0, jt=0.0))
    code, report = run_json(capsys, "jam", "--config", path)
    assert code == 1
    assert report["results"]["binary"]["holds"] is False
    assert report["results"]["binary"]["witness"] == [0.0, 1.0]


def test_jam_config_invalid(tmp_path, capsys):
    path = write_json(tmp_path / "cfg.json", canonical_config(jt=1.5))
    code, report = run_json(capsys, "jam", "--config", path)
    assert code == 1
    assert report["results"]["validation"]["valid"] is False
    assert "binary" not in report["results"]


def test_jam_latest_1d_and_2d(capsys):
    code, report = run_json(capsys, "jam", "--latest", "--d", "1")
    assert code == 0
    assert report["results"]["time"] == pytest.approx(1.0, abs=1e-6)
    assert report["results"]["attained"] is False
    code, report = run_json(capsys, "jam", "--latest", "--d", "2")
    assert code == 0
    assert report["results"]["time"] == pytest.approx(0.0, abs=1e-6)


def test_jam_scenario_acyclic(tmp_path, capsys):
    scenario = [
        canonical_config(),
        {"a": [-1.0, 2.0], "b": [1.0, 2.0], "j": [0.0, 2.5], "d": 1},
    ]
    path = write_json(tmp_path / "scenario.json", scenario)
    code, report = run_json(capsys, "jam", "--scenario", path)
    assert code == 0
    assert report["results"]["acyclic"] is True
    assert report["results"]["edges"] == [[0, 1]]


def test_jam_box(capsys):
    code, report = run_json(capsys, "jam", "--builtin", "superquantum-eq2")
    assert code == 0
    assert report["results"]["chsh_before"] == 4.0
    assert abs(report["results"]["chsh_after"]) <= 2.0
    assert report["results"]["unary"]["holds"] is True


def assert_tol_refused(capsys, argv, value):
    """``argv`` with ``--tol value``: jam's and nosig's parsers refuse it as
    an unknown option, with the subcommand's usage and nothing on stdout."""
    code, out, err = run_any(capsys, *argv, "--tol", value)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: nonlocality {argv[0]}")
    assert err.endswith(f"nonlocality {argv[0]}: error: unrecognized arguments: --tol {value}\n")


@pytest.mark.parametrize("source", [("--builtin", "uniform"), ("--box", "missing.json")])
def test_jam_box_with_geometric_tol_is_input_error(capsys, source):
    # this refused --tol with "--tol is the geometric tolerance; jam
    # --box/--builtin checks the unary condition at the probability tolerance
    # 1e-12"; no subcommand takes --tol now
    assert_tol_refused(capsys, ["jam", *source], "0.1")


@pytest.mark.parametrize("argv", [
    ["jam", "--config", "cfg.json"],
    ["jam", "--latest", "--d", "2"],
    ["jam", "--sweep", "--csv", "sweep.csv"],
    ["jam", "--scenario", "scenario.json"],
    ["nosig", "--builtin", "uniform"],
    ["nosig", "--box", "box.json"],
], ids=lambda argv: " ".join(argv[:2]))
def test_tol_is_not_an_option(tmp_path, monkeypatch, capsys, argv):
    # jam --tol set the geometric band and nosig --tol the no-signalling one;
    # every report ran at the defaults that it echoes
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "cfg.json", canonical_config())
    write_json(tmp_path / "scenario.json", [canonical_config()])
    write_json(tmp_path / "box.json", builtin_box("uniform").to_json())
    assert_tol_refused(capsys, argv, "1e-6")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("args", [["nosig", "--builtin", "singlet-optimal"],
                                  ["jam", "--builtin", "superquantum-eq2", "--strength", "0.5"]])
def test_box_reports_ignore_the_geometric_tolerance_env(monkeypatch, capsys, args):
    # jam echoed the geometric tolerance, 1e-9, that its unary check never read
    expected = run_cli(capsys, *args, "--format", "json")
    monkeypatch.setenv("NONLOCALITY_TOL", "0.5")
    assert run_cli(capsys, *args, "--format", "json") == expected
    assert json.loads(expected[1])["params"]["tol"] == corr.PROB_TOL


def test_jam_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, report = run_json(
        capsys, "jam", "--sweep", "--d", "1", "--sweep-range", "-1.2,1.2,13",
        "--csv", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "j_t,valid,margin,holds"
    assert len(lines) == 14


@pytest.mark.parametrize("args,option,value", [
    (("jam", "--latest", "--d", "2"), "--position", "0.3,,0.4"),
    (("jam", "--sweep", "--csv", "sweep.csv"), "--position", "0.3,"),
    (("boost", "--events", "events.json"), "--v", "0.5,"),
    (("chsh", "--model", "singlet"), "--angles", ",0,0.7,0.4,1.2"),
    (("sample", "--model", "singlet", "--n", "10", "--seed", "1"), "--angles", "0,0.7,,0.4,1.2"),
])
def test_empty_item_in_a_number_list_is_input_error(tmp_path, monkeypatch, capsys, args, option,
                                                    value):
    # an empty item was dropped: --position 0.3,,0.4 ran at (0.3, 0.4) and
    # --v 0.5, at (0.5,), both with exit 0
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "events.json", [[0.0, 0.0], [1.0, 0.5]])
    code, out, err = run_any(capsys, *args, option, value)
    assert (code, out) == (2, "")
    assert f"argument {option}: expected comma-separated numbers, got {value!r}" in err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("mode", [("--latest",), ("--sweep", "--csv", "sweep.csv")])
def test_jam_position_of_another_dimension_is_input_error(tmp_path, monkeypatch, capsys, mode):
    # --sweep's error named no option: "events have mismatched dimensions: [1, 2]"
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "jam", *mode, "--d", "2", "--position", "0.3")
    assert (code, out, err) == (2, "", "error: position has dimension 1, expected 2\n")
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("events,index", [
    ([[0.0, 0.0], [1.0, 0.5]], 0),  # every event in d = 1
    ([[0.0, 0.0, 0.0], [2.0, 0.1, 0.3], [1.0, 0.5]], 2),  # the third event in d = 1
], ids=["uniform", "mixed"])
def test_boost_velocity_of_another_dimension_is_input_error(tmp_path, capsys, events, index):
    # the error named neither --v nor the file: "boost has dimension 2, event
    # has dimension 1"
    path = write_json(tmp_path / "ev.json", events)
    code, out, err = run_cli(capsys, "boost", "--events", path, "--v", "0.5,0.1")
    assert (code, out) == (2, "")
    assert err == f"error: --v has dimension 2, but event {index} of {path} has dimension 1\n"


def test_boost_orderings_of_mixed_dimensions_name_the_event(tmp_path, capsys):
    # the error named neither the file nor the event: "events have mismatched
    # dimensions: [1, 2]"
    path = write_json(tmp_path / "mixed.json", [[0.0, 0.0, 0.0], [2.0, 0.1, 0.3], [1.0, 0.5]])
    code, out, err = run_cli(capsys, "boost", "--events", path, "--orderings")
    assert (code, out) == (2, "")
    assert err == f"error: event 0 has dimension 2, but event 2 of {path} has dimension 1\n"


def test_jam_latest_position_starting_with_dash(capsys):
    code, report = run_json(capsys, "jam", "--latest", "--d", "2", "--position", "-0.4,1.6")
    assert code == 0
    assert report["params"]["position"] == [-0.4, 1.6]
    assert report["results"]["position"] == [-0.4, 1.6]


@pytest.mark.parametrize("value", ["-0.4,1.6", "0.4,1.6"])
def test_jam_latest_abbreviated_position(capsys, value):
    _, full = run_json(capsys, "jam", "--latest", "--d", "2", "--position", value)
    code, short = run_json(capsys, "jam", "--latest", "--d", "2", "--pos", value)
    assert code == 0
    assert short == full


def test_ambiguous_abbreviation_is_input_error(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        main(["jam", "--sweep", "--s", "-1,1,5", "--csv", str(out)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "ambiguous option" in err
    assert not out.exists()


# Each subcommand reads one source, and chsh does one operation: the flags of
# each group, with a value each, and the arguments every call needs.
_EXCLUSIVE_GROUPS = [
    (["chsh"], {"--model": ["singlet"], "--model-file": ["m.json"], "--deterministic": ["all"],
                "--box": ["b.json"], "--builtin": ["uniform"]}, True),
    (["chsh", "--model", "singlet"], {"--angles": ["eq2"], "--optimize": [], "--curve": ["5"]},
     False),
    (["nosig"], {"--box": ["b.json"], "--builtin": ["uniform"]}, True),
    (["jam"], {"--config": ["c.json"], "--latest": [], "--sweep": [], "--scenario": ["s.json"],
               "--box": ["b.json"], "--builtin": ["uniform"]}, True),
    (["boost", "--events", "ev.json"], {"--v": ["0.5"], "--orderings": []}, True),
    (["sample", "--n", "10"], {"--box": ["b.json"], "--builtin": ["uniform"],
                               "--model": ["singlet"], "--model-file": ["m.json"]}, True),
]
_FLAG_PAIRS = [(base, flags, first, second) for base, flags, _ in _EXCLUSIVE_GROUPS
               for first, second in itertools.combinations(flags, 2)]


@pytest.mark.parametrize("base,flags,first,second", _FLAG_PAIRS,
                         ids=[f"{b[0]} {f} {s}" for b, _, f, s in _FLAG_PAIRS])
def test_two_flags_of_one_group_are_an_argparse_error(tmp_path, monkeypatch, capsys, base, flags,
                                                     first, second):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_any(capsys, *base, first, *flags[first], second, *flags[second])
    assert (code, out) == (2, "")
    assert f"error: argument {second}: not allowed with argument {first}\n" in err


@pytest.mark.parametrize("base,flags", [(b, f) for b, f, required in _EXCLUSIVE_GROUPS if required],
                         ids=[b[0] for b, _, required in _EXCLUSIVE_GROUPS if required])
def test_a_call_without_a_source_is_an_argparse_error(capsys, base, flags):
    code, out, err = run_any(capsys, *base)
    assert (code, out) == (2, "")
    assert f"error: one of the arguments {' '.join(flags)} is required\n" in err


def test_an_empty_value_selects_its_source(capsys):
    # --box "" is a file name to open, not a missing source
    code, out, err = run_cli(capsys, "nosig", "--box", "")
    assert (code, out) == (2, "")
    assert err.startswith("error: [Errno 2]")


# An option that the chosen source does not read, and the error naming it.
# Each used to be ignored with exit 0: chsh --builtin X --optimize printed the
# box's CHSH value, and jam --config read the file's own dimension.
_UNREAD_OPTIONS = [
    (["chsh", "--builtin", "superquantum-eq2", "--optimize"],
     "--optimize: not read with --builtin; only --model or --model-file reads it"),
    (["chsh", "--deterministic", "5", "--optimize"],
     "--optimize: not read with --deterministic; only --model or --model-file reads it"),
    (["chsh", "--model", "singlet", "--csv", "out.csv"],
     "--csv: not read with --model; only --curve reads it"),
    (["jam", "--latest", "--csv", "out.csv"],
     "--csv: not read with --latest; only --sweep reads it"),
    (["jam", "--config", "c.json", "--d", "3"],
     "--d: not read with --config; only --latest or --sweep reads it"),
    (["jam", "--latest", "--strength", "0.5"],
     "--strength: not read with --latest; only --box or --builtin reads it"),
    (["sample", "--builtin", "uniform", "--n", "10", "--angles", "eq2"],
     "--angles: not read with --builtin; only --model or --model-file reads it"),
]


@pytest.mark.parametrize("argv,message", _UNREAD_OPTIONS, ids=[" ".join(a) for a, _ in _UNREAD_OPTIONS])
def test_an_option_the_source_does_not_read_is_an_argparse_error(tmp_path, monkeypatch, capsys,
                                                                 argv, message):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "c.json", {"a": [-1.0, 0.0], "b": [1.0, 0.0], "j": [0.0, 0.5]})
    code, out, err = run_any(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"error: argument {message}\n" in err
    assert not (tmp_path / "out.csv").exists()


# A dash-leading value of each number option, in the three forms argparse
# reads: OPT VALUE, OPT=VALUE and OPT abbreviated to a unique prefix (None
# where the name has no shorter prefix). Each form hands the value to the
# option's own parser, so all three give the same report or the same error.
_DASH_LEADING = [
    (("jam", "--latest", "--d", "2"), "--position", "-0.4,1.6", "--pos", 0),
    (("jam", "--latest", "--d", "2"), "--position", "-.5,-1e-05", "--po", 0),
    (("chsh", "--model", "singlet"), "--angles", "-0.1,-.5,-1e-05,1", "--ang", 0),
    (("boost", "--events", "ev.json"), "--v", "-0.5,-1e-05", None, 0),
    (("jam", "--sweep", "--csv", "sweep.csv"), "--sweep-range", "-1,-1e-1,5", "--sweep-r", 0),
    (("jam", "--builtin", "superquantum-eq2"), "--strength", "-0e-3", "--str", 0),
    (("jam", "--builtin", "superquantum-eq2"), "--strength", "-1e-05", "--str", 2),
]


@pytest.mark.parametrize("args,option,value,prefix,code", _DASH_LEADING,
                         ids=[f"{o}={v}" for _, o, v, _, _ in _DASH_LEADING])
def test_number_options_take_dash_leading_values(tmp_path, monkeypatch, capsys, args, option,
                                                 value, prefix, code):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "ev.json", [[1.0, 0.5, 0.0]])
    forms = [(option, value), (f"{option}={value}",)] + ([(prefix, value)] if prefix else [])
    runs = []
    for form in forms:
        got = run_any(capsys, *args, *form, "--format", "json")
        csv_out = tmp_path / "sweep.csv"
        runs.append((*got, csv_out.read_text() if csv_out.exists() else None))
        csv_out.unlink(missing_ok=True)
    assert all(run == runs[0] for run in runs)
    got, out, err, _ = runs[0]
    assert got == code
    assert "expected one argument" not in err and "Traceback" not in err
    if code == 0:
        parsed = [float(v) for v in value.split(",")]
        echo = json.loads(out)["params"][option[2:].replace("-", "_")]
        assert echo == (parsed if "," in value else parsed[0])
    else:
        assert option[2:] in err and out == ""


@pytest.mark.parametrize("position", ["-inf,0", "-nan,0.3", "-Infinity,0", "-INF,1"])
def test_jam_latest_dash_leading_non_finite_position_is_input_error(capsys, position):
    code, out, err = run_any(capsys, "jam", "--latest", "--d", "2", "--position", position)
    assert code == 2 and out == ""
    assert err.startswith("error: coordinates must be finite, got (")


def test_dash_leading_value_that_is_not_a_number_is_an_option(capsys):
    code, out, err = run_any(capsys, "jam", "--latest", "--d", "2", "--position", "-abc")
    assert code == 2 and out == ""
    assert "argument --position: expected one argument" in err


def test_jam_config_without_jammer_is_input_error(tmp_path, capsys):
    path = write_json(tmp_path / "cfg.json", {"a": [-1.0, 0.0], "b": [1.0, 0.0], "d": 1})
    code, out, err = run_cli(capsys, "jam", "--config", path)
    assert code == 2
    assert "'j'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cfg,key", [
    ({"a": 5, "b": [1.0, 0.0], "j": [0.0, -0.5]}, "'a'"),
    ({"a": [-1.0, 0.0], "b": [1.0, 0.0], "j": [0.0, -0.5], "d": "x"}, "'d'"),
    # d = 1.7, true and "1" used to pass as d = 1
    ({"a": [-1.0, 0.0], "b": [1.0, 0.0], "j": [0.0, -0.5], "d": 1.7}, "'d'"),
    ({"a": [-1.0, 0.0], "b": [1.0, 0.0], "j": [0.0, -0.5], "d": True}, "'d'"),
    ({"a": [-1.0, 0.0], "b": [1.0, 0.0], "j": [0.0, -0.5], "d": "1"}, "'d'"),
    ({"a": [-1.0, 0.0], "b": [1.0, 0.0], "j": [True, False]}, "'j'"),
])
def test_jam_config_with_bad_key_is_input_error(tmp_path, capsys, cfg, key):
    path = write_json(tmp_path / "cfg.json", cfg)
    code, out, err = run_cli(capsys, "jam", "--config", path)
    assert code == 2
    assert key in err
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("position", ["nan,0", "0.3,nan"])
def test_jam_latest_non_finite_position_is_input_error(capsys, position):
    # a NaN x_1 was reported as "the window is empty for |x_1| >= 1"
    code, out, err = run_cli(capsys, "jam", "--latest", "--d", "2", "--position", position)
    assert code == 2
    assert err.startswith("error: coordinates must be finite, got (")
    assert "window" not in err and "Traceback" not in err and out == ""


@pytest.mark.parametrize("mode", [("--latest",), ("--sweep", "--csv", "sweep.csv")])
@pytest.mark.parametrize("d", ["1000000000000000000", "1000001", "0", "-2", "2.5"])
def test_jam_unbuildable_dimension_is_input_error(tmp_path, monkeypatch, capsys, mode, d):
    # (0.0,) * d raised MemoryError: a traceback and exit 1, the false-verdict code
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["jam", *mode, "--d", d])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert f"argument --d: expected an integer 1..1000000, got '{d}'" in captured.err
    assert "Traceback" not in captured.err and not captured.out
    assert not (tmp_path / "sweep.csv").exists()


def test_jam_config_with_overflowing_interval_is_input_error(tmp_path, capsys):
    # s^2 of aj and bj is inf - inf: both pairs were reported as null, with
    # NaN and -Infinity written into the JSON, and jam exited 1
    cfg = {"a": [-1e160, 0.0], "b": [1e160, 0.0], "j": [0.0, -5e159]}
    path = write_json(tmp_path / "cfg.json", cfg)
    code, out, err = run_cli(capsys, "jam", "--config", path, "--format", "json")
    assert code == 2
    assert "overflows" in err and "[-1e+160, 0.0]" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("args,payload", [
    (("jam", "--scenario"), {"a": 5}),
    (("boost", "--v", "0.1", "--events"), 5),
    (("boost", "--v", "0.1", "--events"), [[0.0, 0.0], [1.0]]),
    (("boost", "--v", "0.1", "--events"), [["1", "2e0"], [3.0, 0.0]]),
    (("jam", "--scenario"), [{"a": ["-1", "0"], "b": [1.0, 0.0], "j": [0.0, -0.5]}]),
])
def test_non_list_json_is_input_error(tmp_path, capsys, args, payload):
    path = write_json(tmp_path / "in.json", payload)
    code, out, err = run_cli(capsys, *args, path)
    assert code == 2
    assert "must be a list" in err
    assert err.startswith(f"error: {path}: ")
    assert "Traceback" not in err and out == ""


def test_jam_sweep_position_in_exponent_notation(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, report = run_json(
        capsys, "jam", "--sweep", "--d", "1", "--position", "-1e-05",
        "--sweep-range", "0,0.5,3", "--csv", str(out),
    )
    assert code == 0
    assert report["params"]["position"] == [-1e-05]


def test_jam_sweep_range_echoes_integer_count(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, report = run_json(
        capsys, "jam", "--sweep", "--sweep-range=-1,1,5", "--csv", str(out)
    )
    assert code == 0
    assert report["params"]["sweep_range"] == [-1.0, 1.0, 5]
    assert isinstance(report["params"]["sweep_range"][2], int)
    assert report["results"]["rows"] == 5


@pytest.mark.parametrize("value", ["0,1,2.5", "0,1", "0,1,-3", "0,1,2,3", "nan,1,3", "a,1,3"])
def test_jam_sweep_range_malformed_is_input_error(tmp_path, capsys, value):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        main(["jam", "--sweep", f"--sweep-range={value}", "--csv", str(out)])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "--sweep-range" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0,1,1000001", "0,1,100000000", "-1,1,-5"])
def test_jam_sweep_count_out_of_range_is_input_error(tmp_path, capsys, value):
    # 100000000 built every jammer time first: a MemoryError traceback under a memory limit
    out = tmp_path / "sweep.csv"
    code, stdout, err = run_any(capsys, "jam", "--sweep", "--sweep-range", value, "--csv", str(out))
    assert code == 2 and stdout == ""
    assert ("argument --sweep-range: expected lo,hi,n with finite lo, hi and an integer "
            f"n 0..1000000; got '{value}'") in err
    assert not out.exists()


@pytest.mark.parametrize("d,n", [(1_000_000, 1_000_000), (2, 500_001), (1000, 1001)])
def test_jam_sweep_beyond_the_coordinate_cap_is_input_error(tmp_path, capsys, d, n):
    # d and n were capped apart, so d = n = 10**6 built 10**12 coordinates
    out = tmp_path / "sweep.csv"
    code, stdout, err = run_cli(capsys, "jam", "--sweep", "--d", str(d),
                                "--sweep-range", f"0,1,{n}", "--csv", str(out))
    assert code == 2 and stdout == ""
    assert err == (f"error: --sweep with d = {d} and n = {n} builds d*n = {d * n} "
                   "coordinates; d*n must be at most 1000000\n")
    assert not out.exists()


@pytest.mark.parametrize("lo,hi,n", [
    (-1.5, 1.5, 121),  # the default --sweep-range
    (-1.2, 1.2, 13),
    (0.0, 1.0, 0),
    (0.3, 0.7, 1),
    (0.5, 0.5, 4),
    (-0.0, -0.0, 3),
    (1.0, -1.0, 7),
    (0.0, 1e-300, 5),
    (-1e-300, 1e-300, 4),
    (5e-324, 0.0, 3),
    (0.0, 1.5e-323, 8),  # the step underflows to 0: numpy scales k/(n-1) instead
    (1.0, 1.0 + 2.0**-52, 9),
])
def test_linspace_matches_numpy_bit_for_bit(lo, hi, n):
    want = [x.hex() for x in np.linspace(lo, hi, n).tolist()]
    assert [x.hex() for x in _linspace(lo, hi, n)] == want


def test_linspace_matches_numpy_on_random_ranges(rng):
    for _ in range(2000):
        lo, hi = (float(v) * 10.0 ** int(rng.integers(-8, 9)) for v in rng.uniform(-1, 1, 2))
        if rng.random() < 0.2:
            hi = lo + float(rng.uniform(-1, 1)) * 10.0 ** int(rng.integers(-320, -290))
        n = int(rng.integers(0, 300))
        want = [x.hex() for x in np.linspace(lo, hi, n).tolist()]
        assert [x.hex() for x in _linspace(lo, hi, n)] == want, (lo, hi, n)


@pytest.mark.parametrize("args,digest", [
    ([], "74449acaa39f757c8db43254ff619d556524cfbc1fb5d6e01538229dd46fad5a"),
    (["--sweep-range", "-1.2,1.2,13"],
     "98aa30ac25f6c01e1ccedcf7c3e143f8d36e9e4fb2f78d33b19731403a822a62"),
    (["--d", "2", "--position", "0.1,-0.3", "--sweep-range", "-0.9,0.35,26"],
     "f0e41b8bb01a683b1f87792757a41411afe8d34717340c447d02791e28eea74d"),
])
def test_jam_sweep_csv_bytes_are_unchanged(tmp_path, capsys, args, digest):
    # SHA-256 of the CSV recorded while the sweep still ran on numpy.linspace
    out = tmp_path / "sweep.csv"
    code, _ = run_json(capsys, "jam", "--sweep", *args, "--csv", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# -------------------------------------------------------------------- boost


def test_boost_transform(tmp_path, capsys):
    path = write_json(tmp_path / "events.json", [[-1.0, 0.0], [0.0, 0.5]])
    code, report = run_json(capsys, "boost", "--events", path, "--v", "0.8")
    assert code == 0
    events = report["results"]["events"]
    gamma = 1.0 / math.sqrt(1.0 - 0.64)
    t_a, t_j = events[0][1], events[1][1]
    assert t_a == pytest.approx(gamma * 0.8, abs=1e-12)
    assert t_j == pytest.approx(gamma * 0.5, abs=1e-12)
    assert t_a > t_j  # the measurement now happens after the button press


def test_boost_velocity_starting_with_dash(tmp_path, capsys):
    path = write_json(tmp_path / "events.json", [[1.0, 0.0, 0.0]])
    code, report = run_json(capsys, "boost", "--events", path, "--v", "-0.5,0.2")
    assert code == 0
    assert report["params"]["v"] == [-0.5, 0.2]
    gamma = 1.0 / math.sqrt(1.0 - 0.29)
    assert report["results"]["events"][0][2] == pytest.approx(gamma * 0.5, abs=1e-12)


def test_boost_orderings_reversal(tmp_path, capsys):
    # simultaneous collinear triple: jammer at x=3 can come first or last
    path = write_json(tmp_path / "events.json", [[-1.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    code, report = run_json(capsys, "boost", "--events", path, "--orderings")
    assert code == 0
    orders = [tuple(o["order"]) for o in report["results"]["orderings"]]
    assert any(o[0] == 2 for o in orders)
    assert any(o[-1] == 2 for o in orders)


@pytest.mark.parametrize("option", ["--speed-step", "--n-directions"])
def test_boost_orderings_zero_grid_option_is_input_error(tmp_path, capsys, option):
    events = [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [3.0, 0.0, 0.0]]
    path = write_json(tmp_path / "events.json", events)
    code, out, err = run_any(capsys, "boost", "--events", path, "--orderings", option, "0")
    assert code == 2
    assert f"unrecognized arguments: {option} 0" in err
    assert "Traceback" not in err


def test_boost_orderings_too_many_events_is_input_error(tmp_path, capsys):
    path = write_json(tmp_path / "events.json", [[3.0 * i, 0.0] for i in range(9)])
    code, out, err = run_cli(capsys, "boost", "--events", path, "--orderings")
    assert code == 2
    assert "at most 8 events" in err


def test_boost_orderings_overflow_is_input_error(tmp_path, capsys):
    # |dx|^2 = inf used to give "count: 0" and exit 0
    path = write_json(tmp_path / "events.json", [[-1e160, 0.0], [1e160, 0.0]])
    code, out, err = run_cli(capsys, "boost", "--events", path, "--orderings")
    assert code == 2
    assert "events 0 and 1 overflows" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("env", ["0.5", "abc"])
def test_reports_do_not_read_the_tolerance_env(tmp_path, monkeypatch, capsys, env):
    # NONLOCALITY_TOL used to set the tolerance of jam and boost --orderings
    # (0.5 here: another verdict, no orders) or fail them with exit 2 (abc)
    config = write_json(tmp_path / "cfg.json", {"a": [-1.0, 0.0], "b": [1.0, 0.0], "j": [0.0, 0.8]})
    events = write_json(tmp_path / "events.json", [[0.0, 0.0], [2.0, 0.3], [5.0, -0.2]])
    calls = [("jam", "--latest", "--d", "2"), ("jam", "--config", config),
             ("boost", "--events", events, "--orderings")]
    expected = [run_cli(capsys, *args, "--format", "json") for args in calls]
    assert [json.loads(out)["params"]["tol"] for _, out, _ in expected] == [1e-9] * 3
    monkeypatch.setenv("NONLOCALITY_TOL", env)
    assert [run_cli(capsys, *args, "--format", "json") for args in calls] == expected


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-9", "abc"])
def test_jam_bad_tol_is_input_error(capsys, value):
    # --tol nan used to classify every interval as null
    with pytest.raises(SystemExit) as exc:
        main(["jam", "--latest", "--d", "2", "--position", "0.3,0.4", f"--tol={value}"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "--tol" in captured.err
    assert not captured.out


def test_boost_rejects_superluminal(tmp_path, capsys):
    path = write_json(tmp_path / "events.json", [[-1.0, 0.0]])
    code, out, err = run_cli(capsys, "boost", "--events", path, "--v", "1.0")
    assert code == 2
    assert "speed" in err


# ------------------------------------------------------------------- sample


def test_sample_builtin_reproducible(capsys):
    args = ("sample", "--builtin", "singlet-optimal", "--n", "1000", "--seed", "5")
    code1, out1, _ = run_cli(capsys, *args, "--format", "json")
    code2, out2, _ = run_cli(capsys, *args, "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical
    report = json.loads(out1)
    assert report["params"]["seed"] == 5
    assert report["results"]["n_per_pair"] == 1000


def test_sample_model_at_eq2(capsys):
    code, report = run_json(
        capsys, "sample", "--model", "superquantum", "--angles", "eq2",
        "--n", "1000", "--seed", "3",
    )
    assert code == 0
    assert report["results"]["chsh_estimate"] == 4.0
    assert report["results"]["std_error"] == 0.0


def test_sample_generates_and_echoes_seed(capsys):
    code, report = run_json(capsys, "sample", "--builtin", "uniform", "--n", "10")
    assert code == 0
    assert isinstance(report["params"]["seed"], int)
    assert report["results"]["seed"] == report["params"]["seed"]


def test_sample_rejects_zero(capsys):
    code, out, err = run_cli(capsys, "sample", "--builtin", "uniform", "--n", "0")
    assert code == 2
    assert ">= 1" in err


def test_sample_negative_seed_names_the_argument(capsys):
    # numpy's own message, "expected non-negative integer", named no argument
    code, out, err = run_cli(capsys, "sample", "--builtin", "uniform", "--n", "10", "--seed", "-1")
    assert code == 2
    assert "seed must be >= 0, got -1" in err


def test_sample_count_beyond_int64_is_input_error(capsys):
    # numpy's multinomial raised OverflowError: a traceback and exit 1
    code, out, err = run_cli(
        capsys, "sample", "--builtin", "uniform", "--n", "100000000000000000000", "--seed", "1"
    )
    assert code == 2 and out == ""
    assert err == (
        "error: n must be <= 9223372036854775807, the int64 limit, "
        "got 100000000000000000000\n"
    )


# ------------------------------------------------------------------ general


def test_missing_file_is_input_error(capsys):
    code, out, err = run_cli(capsys, "nosig", "--box", "/nonexistent/box.json")
    assert code == 2


def test_malformed_box_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"Q": []}')
    code, out, err = run_cli(capsys, "nosig", "--box", str(path))
    assert code == 2
    assert "P" in err
    assert err.startswith(f"error: {path}: ")


# every file option, each with the other options it needs
_FILE_OPTIONS = [
    ("nosig", "--box"),
    ("chsh", "--model-file"),
    ("jam", "--config"),
    ("jam", "--scenario"),
    ("boost", "--orderings", "--events"),
]


@pytest.mark.parametrize("args", _FILE_OPTIONS)
def test_file_that_is_not_json_is_input_error_naming_the_file(tmp_path, capsys, args):
    path = tmp_path / "in.json"
    path.write_text('{"P": [1, 2')
    code, out, err = run_cli(capsys, *args, str(path))
    assert code == 2
    assert err.startswith(f"error: {path}: Expecting")
    assert "Traceback" not in err and out == ""


def _deep_json(depth, kind):
    return ("[" * depth + "]" * depth) if kind == "list" else ('{"a": ' * depth + "1" + "}" * depth)


@pytest.mark.parametrize("args", _FILE_OPTIONS, ids=[a[-1] for a in _FILE_OPTIONS])
@pytest.mark.parametrize("depth,kind", [(3000, "list"), (100_000, "list"), (3000, "object")])
def test_deeply_nested_json_is_input_error_naming_the_file(tmp_path, capsys, args, depth, kind):
    # json.load raised RecursionError: a traceback and exit 1, the false-verdict code
    path = tmp_path / "in.json"
    path.write_text(_deep_json(depth, kind))
    code, out, err = run_cli(capsys, *args, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: maximum recursion depth exceeded")


@pytest.mark.parametrize("args,code", [
    (["nosig", "--builtin", "singlet-optimal"], 0),
    (["jam", "--config", "fail.json"], 1),
])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_output_pipe_keeps_the_exit_code(tmp_path, args, code, fmt):
    # the reader is gone before the report is written, as with "| head -0";
    # this used to end in a BrokenPipeError traceback and exit code 1
    write_json(tmp_path / "fail.json", {"a": [0.0, 0.0], "b": [2.0, 0.5], "j": [5.0, 1.0]})
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nonlocality.cli", *args, "--format", fmt],
            cwd=tmp_path, stdout=write_end, stderr=subprocess.PIPE, text=True, check=False,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, "")


# Seven mutually spacelike events in d = 3 (|x_i| <= 20, |t| <= 0.3): their
# boost --orderings report is larger than a 64 KiB pipe buffer in either format.
_SPACELIKE_7 = [[-14.6, 13.9, 10.6, -0.15], [-0.2, -2.0, 6.1, 0.17], [-16.2, -18.9, 13.4, -0.04],
                [10.5, -19.9, -2.2, 0.13], [-10.8, 17.8, 16.1, -0.28], [-19.0, 1.7, 17.6, -0.07],
                [-11.3, -3.1, -18.8, -0.17]]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_output_pipe_closed_mid_stream_keeps_the_exit_code(tmp_path, capsys, fmt):
    # the reader takes 100 bytes and closes, as "| head -c 100" does, so the
    # write fails partway through the report
    events = write_json(tmp_path / "events.json", _SPACELIKE_7)
    args = ["boost", "--events", events, "--orderings", "--format", fmt]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and len(out.encode()) > 2**16 + 2**12
    proc = subprocess.Popen(
        [sys.executable, "-m", "nonlocality.cli", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")
    assert head == out.encode()[:100]


@pytest.mark.parametrize("payload", [5, [], ["P"]])
def test_box_that_is_not_an_object_is_input_error(tmp_path, capsys, payload):
    path = write_json(tmp_path / "box.json", payload)
    code, out, err = run_cli(capsys, "nosig", "--box", path)
    assert code == 2
    assert "'P'" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("args,payload,key", [
    # these used to load: a string probability as a number, and table
    # points [false, "1", 3] as thetas [0, 1, 3]
    (("nosig", "--box"), {"P": [[[["0.25", 0.25], [0.25, 0.25]]] * 2] * 2}, "'P'[0][0][0][0]"),
    (("jam", "--box"), {"P": [[[[0.25, 0.25], [0.25, 0.25]]] * 2, [[[0.25, 0.25], [0.25, True]]] * 2]},
     "'P'[1][0][1][1]"),
    (("chsh", "--model-file"), {"kind": "table", "thetas": [False, "1", 3], "values": [1, 0, -1]},
     "'thetas'[0]"),
    (("sample", "--n", "10", "--model-file"),
     {"kind": "table", "thetas": [0, 1, 3], "values": [1, "0.5", -1]}, "'values'[1]"),
])
def test_json_number_that_is_not_a_number_is_input_error(tmp_path, capsys, args, payload, key):
    path = write_json(tmp_path / "in.json", payload)
    code, out, err = run_cli(capsys, *args, path)
    assert code == 2
    assert f"{key} must be a finite number" in err
    assert "Traceback" not in err and out == ""


def test_bad_angles_is_input_error(capsys):
    code, out, err = run_any(capsys, "chsh", "--model", "singlet", "--angles", "1,2")
    assert code == 2 and out == ""
    assert "argument --angles: expected a preset" in err and "got '1,2'" in err


@pytest.mark.parametrize("args", [
    ("chsh", "--model", "singlet"),
    ("sample", "--model", "singlet", "--n", "10", "--seed", "1"),
], ids=["chsh", "sample"])
def test_misspelt_angle_preset_lists_the_presets(capsys, args):
    # this read "expected comma-separated numbers, got 'foo'"
    code, out, err = run_any(capsys, *args, "--angles", "foo")
    assert (code, out) == (2, "")
    assert ("argument --angles: expected a preset (eq2, singlet-optimal) or four "
            "comma-separated angles a,a',b,b'; got 'foo'") in err


@pytest.mark.parametrize("args", [
    ("chsh", "--model", "singlet"),
    ("sample", "--model", "superquantum", "--n", "10", "--seed", "1"),
])
def test_angles_whose_difference_overflows_are_input_error(capsys, args):
    # all four angles are finite, but a - b' is inf: this used to read
    # "angle must be finite, got inf"
    code, out, err = run_any(capsys, *args, "--angles", "1e308,0,0,-1e308")
    assert (code, out) == (2, "")
    assert err == "error: angle difference a - b' = 1e+308 - -1e+308 is not finite: it overflows to inf\n"


# Values for the fuzz test: dash-leading numbers, nan/inf, out-of-range and
# oversized integers, and junk. Every count drawn is either at most 12 or
# out of range, so no draw builds a large curve, sweep or sample.
_FUZZ_TOKENS = hst.one_of(
    hst.sampled_from([
        "-0.4", "-.5", "-1e-05", "-1e-9", "-0", "-inf", "-nan", "-Infinity", "nan", "inf",
        "1e309", "1000001", "100000000", "100000000000000000000", "9" * 5000, "-abc", "",
    ]),
    hst.integers(-3, 12).map(str),
    hst.floats().map(repr),
    hst.text(alphabet="-.,eE+_ abcfinx", max_size=8),
)
_FUZZ_VALUES = hst.one_of(_FUZZ_TOKENS, hst.lists(_FUZZ_TOKENS, min_size=2, max_size=4).map(",".join))

# cheap subcommands, each with the options whose values are drawn
_FUZZ_COMMANDS = [
    (("jam", "--latest"), ("--d", "--position", "--tol")),
    (("jam", "--sweep", "--csv", "{tmp}/sweep.csv"), ("--d", "--position", "--sweep-range", "--tol")),
    (("jam", "--config", "{tmp}/fail.json"), ("--tol",)),
    (("jam", "--builtin", "superquantum-eq2"), ("--strength",)),
    (("chsh", "--model", "singlet"), ("--angles",)),
    (("chsh", "--model", "superquantum", "--csv", "{tmp}/curve.csv"), ("--curve",)),
    (("nosig", "--box", "{tmp}/sig.json"), ("--tol",)),
    (("sample", "--builtin", "uniform"), ("--n", "--seed")),
    (("boost", "--events", "{tmp}/ev.json"), ("--v",)),
]


@hst.composite
def _fuzz_argv(draw):
    base, options = draw(hst.sampled_from(_FUZZ_COMMANDS))
    argv = list(base)
    for option in options:
        if draw(hst.booleans()):
            value = draw(_FUZZ_VALUES)
            argv += [f"{option}={value}"] if draw(hst.booleans()) else [option, value]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzz_argv())
def test_fuzzed_options_end_in_a_report_or_an_input_error(tmp_path, capsys, argv):
    write_json(tmp_path / "fail.json", {"a": [0.0, 0.0], "b": [2.0, 0.5], "j": [5.0, 1.0]})
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 0] = [[0.45, 0.45], [0.05, 0.05]]
    write_json(tmp_path / "sig.json", {"P": probs.tolist()})
    write_json(tmp_path / "ev.json", [[1.0, 0.5, 0.0]])
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, out, err = run_any(capsys, *argv, "--format", "json")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
    else:
        report = json.loads(out)
        assert set(report) == {"command", "params", "results", "ok"}
        assert report["ok"] is (code == 0)


# Box files for the fuzz test: nested lists of numbers, strings, bools and
# nulls of any shape, and normalized (2, 2, 2, 2) tables with a few entries
# replaced by such values
_BOX_LEAVES = hst.one_of(
    hst.sampled_from([0.25, 0.5, 0.0, -0.0, 1, -1e-13, 0.25 + 1e-13, 10**400]),
    hst.floats(), hst.integers(-2, 2), hst.text(max_size=3), hst.booleans(), hst.none(),
)
_BOX_ROWS = [[0.25] * 4, [0.5, 0.0, 0.0, 0.5], [0.45, 0.45, 0.05, 0.05], [0, 1, 0, 0],
             [0.5, -0.0, 0.5, 0.0], [0.3, 0.3, 0.3, 0.1]]


def _box_tables(depth):
    if depth == 0:
        return _BOX_LEAVES
    inner = _box_tables(depth - 1)
    return hst.one_of(hst.lists(inner, min_size=2, max_size=2), _BOX_LEAVES,
                      hst.lists(inner, max_size=3))


@hst.composite
def _box_payloads(draw):
    kind = draw(hst.integers(0, 3))
    if kind == 0:
        return draw(_box_tables(2))
    if kind == 1:
        return {"P": draw(_box_tables(4))}
    p = [v for _ in range(4) for v in draw(hst.sampled_from(_BOX_ROWS))]
    for _ in range(draw(hst.integers(0, 2))):
        p[draw(hst.integers(0, 15))] = draw(_BOX_LEAVES)
    return {"P": [[[p[k:k + 2], p[k + 2:k + 4]] for k in (j, j + 4)] for j in (0, 8)]}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_box_payloads(), hst.sampled_from([
    ("nosig",), ("chsh",), ("jam", "--strength", "0.5"), ("sample", "--n", "10", "--seed", "1"),
]))
def test_fuzzed_box_files_end_in_a_report_or_an_input_error(tmp_path, capsys, payload, command):
    path = tmp_path / "box.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_any(capsys, *command, "--box", str(path), "--format", "json")
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith(f"error: {path}: ")
    else:
        report = json.loads(out)
        assert report["ok"] is (code == 0)


# Other input files for the fuzz test: random JSON of every type and shape,
# under the keys the readers look for, and nesting too deep to parse
_JSON_LEAVES = hst.one_of(
    hst.none(), hst.booleans(), hst.integers(-3, 3), hst.floats(), hst.text(max_size=3),
    hst.sampled_from([0.0, 0.5, -1.0, 2.0, 10**400, "singlet", "classical", "table"]),
)
_JSON_KEYS = hst.sampled_from(["a", "b", "j", "d", "kind", "strategy", "thetas", "values", "P"])
_JSON_DATA = hst.recursive(_JSON_LEAVES, lambda inner: hst.one_of(
    hst.lists(inner, max_size=4), hst.dictionaries(_JSON_KEYS, inner, max_size=4)), max_leaves=16)
_JSON_FILES = hst.one_of(
    _JSON_DATA.map(json.dumps),
    hst.builds(_deep_json, hst.sampled_from([1000, 3000, 100_000]),
               hst.sampled_from(["list", "object"])),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_JSON_FILES, hst.sampled_from(_FILE_OPTIONS[1:] + [("boost", "--v", "0.5", "--events")]))
def test_fuzzed_input_files_end_in_a_report_or_an_input_error(tmp_path, capsys, text, args):
    path = tmp_path / "in.json"
    path.write_text(text)
    code, out, err = run_any(capsys, *args, str(path), "--format", "json")
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("error: ")
    else:
        report = json.loads(out)
        assert report["ok"] is (code == 0)


def test_report_json_roundtrips(capsys):
    code, report = run_json(capsys, "chsh", "--model", "singlet", "--angles", "eq2")
    assert json.loads(json.dumps(report)) == report
    assert set(report) == {"command", "params", "results", "ok"}


def test_timing_flag_adds_duration(capsys):
    # --timing and its duration_s key are gone: every subcommand refuses it
    for argv in (["chsh", "--model", "singlet"], ["nosig", "--builtin", "uniform"],
                 ["jam", "--latest"], ["boost", "--events", "ev.json", "--v", "0.5"],
                 ["sample", "--builtin", "uniform", "--n", "1"]):
        code, out, err = run_any(capsys, *argv, "--timing")
        assert (code, out) == (2, "") and "unrecognized arguments: --timing" in err


def test_unknown_option_shows_the_subcommand_usage(capsys):
    # argparse passed the subcommand's unknown options up to the top level,
    # whose usage named no subcommand
    code, out, err = run_any(capsys, "chsh", "--model", "singlet", "--timing")
    assert (code, out) == (2, "")
    assert err.startswith("usage: nonlocality chsh")
    assert err.endswith("nonlocality chsh: error: unrecognized arguments: --timing\n")


def test_text_output_mentions_value(capsys):
    code, out, err = run_cli(capsys, "chsh", "--model", "superquantum", "--angles", "eq2")
    assert code == 0
    assert "value: 4" in out
    assert "ok: True" in out


# SHA-256 of the JSON report (and CSV) of geometry commands, recorded while
# interval, boost and cone_slack still ran in numpy; the plain-math layer
# must reproduce them byte for byte. Re-recorded when the envelope lost its
# "duration_s": null line, from the earlier output with that line removed.
_GEOMETRY_DIGESTS = [
    (["jam", "--config", "cfg.json"],
     "e572baea2296bd59b24f35e0c7b4d13b90cf8da64fb680ac9772c07f0fcd1396"),
    (["jam", "--latest", "--d", "2", "--position", "0.3,0.4"],
     "c1a10597ebed29a4f1be89a2dba67bf3d89827d409286ca2e323b9ba0ed9bb75"),
    (["jam", "--sweep", "--d", "2", "--position", "0.1,0.2", "--sweep-range", "-1.5,0.5,9",
      "--csv", "sweep.csv"],
     "369c883e839cd7d2194ce2b007030fbc6463f1f481628f72085b20e5de8ab241"),
    (["jam", "--scenario", "sc.json"],
     "650070fe23d7b28e7aff0f67dab476d51d190ea27c109efd050afde8d0143909"),
    (["boost", "--events", "ev.json", "--orderings"],
     "c310f41a547cff033c9b5054e97e19ebc98cf9d752e27877cce15e4f1bd6a11a"),
]


@pytest.mark.parametrize("args,digest", _GEOMETRY_DIGESTS, ids=[a[1] for a, _ in _GEOMETRY_DIGESTS])
def test_geometry_outputs_match_recorded_digests(tmp_path, monkeypatch, capsys, args, digest):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "cfg.json", {"a": [-1.0, 0.0], "b": [1.0, 0.0], "j": [0.3, 0.2], "d": 1})
    write_json(tmp_path / "sc.json", [
        {"a": [-1.0, 0.0, 0.0], "b": [1.0, 0.0, 0.0], "j": [0.0, 0.2, -0.5]},
        {"a": [2.0, 0.0, 1.0], "b": [4.0, 0.0, 1.0], "j": [3.0, 0.5, 0.0]},
    ])
    write_json(tmp_path / "ev.json", [[-2.0, 0.5, 0.0], [0.5, 1.5, 0.25], [3.0, -0.5, -0.1]])
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    if "--csv" in args:
        out += (tmp_path / "sweep.csv").read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of stdout in JSON and in text format, with the exit code, for each
# kind of report the CLI writes: recorded while every report dataclass still
# had a hand-written to_json method, and unchanged since but for the JSON
# digests, re-recorded from that output without its "duration_s": null line.
_REPORT_DIGESTS = [
    (["nosig", "--builtin", "singlet-optimal"], 0,
     "0a767cbf1bd6252601778d542a7916d8ab4f128e4da7ce99a9acda9b450b01c0",
     "74ae988379c05b7bb088ffd8aa8e886bbae34622c757dc3273901fc33a9221bd"),
    (["nosig", "--box", "sig.json"], 1,
     "01bfc28ecce29d0ba84adc1ef52ca8e6a334e29b3ebf7cddb0648fec9321ab11",
     "24eac4021ae7c0bd252e733bb131418b4aa5fc96928b4d102e49d8d58a810982"),
    # re-recorded when params.tol became the unary check's 1e-12 (it echoed the
    # geometric 1e-9); the rest of the report is unchanged
    (["jam", "--builtin", "superquantum-eq2", "--strength", "0.5"], 0,
     "c17cef4e1654863837b65470879bd00c7c250085929ce8f08d36cc3eacc6e349",
     "b64594981aca6f101cf0f2be96684367f4ef4fea78d228b4ee4db07f73f48ad8"),
    # re-recorded when the draws moved from numpy's generator to random.Random:
    # the same seed now gives other counts
    (["sample", "--builtin", "superquantum-eq2", "--n", "100", "--seed", "3"], 0,
     "d174befea724b6ba16ee4167f189cba35a9a52d61506bcc62f0d47c05011d487",
     "bff731a4f7ddfdd3730a1e21d615de6367bfc1281e1ffa4f0b9bd48617ce3ae0"),
    (["jam", "--config", "fail1.json"], 1,
     "9b9a646521413f2815131a7c41f75fa3ba45e90dbd9b0a3e0f47f7be4d040a83",
     "830fcba0232fcb59a9f5bbb642b132f92739e11dc33b85542297b033ad1d278e"),
    (["jam", "--config", "fail2.json"], 1,
     "74c98534ac387d6a66febfea75b6c4a5ebdd9cb2b2f86e7f1b4a5eeb156a66ad",
     "c0a12a43567570ae0b8709a8019fee4f502ac1aac9a3db90a889722214976222"),
    (["jam", "--config", "invalid.json"], 1,
     "0162f82d2ad79454d0c3140a8437ac81538ef48e10fd8848287df65a3debb95f",
     "23bd7ada814c846b84be59c0bb6d9a801fd5fdb98412484cca183608e26717f5"),
    (["jam", "--latest", "--d", "1"], 0,
     "38e504005867eade2ab4d476f6a7e2287b1c34c566e6fa479ac8623c42a0cd5a",
     "9fe9ed941c12971d34d14c815a73f33b1e4765785026dcc43bbdbcce96ca511d"),
    (["jam", "--scenario", "sc.json"], 0,
     "b25c8164f7b64ead1a297547e91d041750555199c901b1bb2ed8689b3472b50e",
     "b200dad60857bbbef37ae0886bbdc5db6d11c27ba475644d10ea91b6208b5cf7"),
    (["chsh", "--deterministic", "all"], 0,
     "0455ea97f33f5474db35efa3dedf95de636f066da8138a8e8b533c34934b60cd",
     "ed11f209324bd787071b379dcf7905c55e905d52742277d162de54c68c00d6cf"),
]


@pytest.mark.parametrize("args,code,json_digest,text_digest", _REPORT_DIGESTS,
                         ids=[" ".join(a[0]) for a in _REPORT_DIGESTS])
def test_report_outputs_match_recorded_digests(tmp_path, monkeypatch, capsys, args, code,
                                               json_digest, text_digest):
    monkeypatch.chdir(tmp_path)
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 0] = [[0.45, 0.45], [0.05, 0.05]]
    write_json(tmp_path / "sig.json", {"P": probs.tolist()})
    # d = 1 and d = 2 configurations that fail with a witness, and one whose
    # jammer is timelike to a
    write_json(tmp_path / "fail1.json", {"a": [0.0, 0.0], "b": [2.0, 0.5], "j": [5.0, 1.0], "d": 1})
    write_json(tmp_path / "fail2.json",
               {"a": [-1.0, 0.0, 0.0], "b": [1.0, 0.0, 0.0], "j": [0.0, 0.75, -0.5], "d": 2})
    write_json(tmp_path / "invalid.json", {"a": [-1.0, 0.0], "b": [1.0, 0.0], "j": [0.0, 1.5]})
    write_json(tmp_path / "sc.json", [
        {"a": [-1.0, 0.0], "b": [1.0, 0.0], "j": [10.0, 5.0]},
        {"a": [9.0, 8.0], "b": [11.0, 8.0], "j": [0.0, 4.0]},
    ])
    for fmt, digest in (("json", json_digest), ("text", text_digest)):
        got, out, err = run_cli(capsys, *args, "--format", fmt)
        assert (got, err) == (code, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# SHA-256 of stdout in JSON and in text format of chsh --optimize on models
# whose search ran every start, recorded while each refinement trial still
# evaluated all four CHSH terms and the box checks still looped per setting.
# The singlet and classical:5 entries were re-recorded when their note became
# "certified maximum"; the note is the only line of those reports that changed.
# The JSON digests were re-recorded again without the "duration_s": null line.
_OPTIMUM_DIGESTS = [
    (["--model", "singlet"],
     "f5944d4ee7895550f4c92420079b3fd09f05bf0391ca957f501c4011eb3df281",
     "55934667961399436befab6521f2dbc36c85769aabeb0710500d9d6b762d60f1"),
    (["--model", "classical:5"],
     "d8d0c38b298e199d90c1299c365139f0fd9fe8397a38d46e71632ba2e18743ea",
     "39d1d7e13197898807a6ac512bcf6d510f68d196be2ec2a4fc72e1be70ed7d62"),
    (["--model-file", "smooth.json"],
     "fbe1312c9268c0ae769d073182ec961b54d776cf713c6895b32ab796e197ae63",
     "b752da7fa6229338ebdedd1ee376e70fdf1f12cdc82921feef6611fd75a8b0a4"),
]


@pytest.mark.parametrize("args,json_digest,text_digest", _OPTIMUM_DIGESTS,
                         ids=[a[1] for a, _, _ in _OPTIMUM_DIGESTS])
def test_chsh_optimize_outputs_match_recorded_digests(tmp_path, monkeypatch, capsys, args,
                                                      json_digest, text_digest):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "smooth.json", {"kind": "table", "thetas": [0.0, 0.5, 1.2, 2.0, math.pi],
                                          "values": [-1.0, -0.7, 0.1, 0.6, 1.0]})
    for fmt, digest in (("json", json_digest), ("text", text_digest)):
        code, out, err = run_cli(capsys, "chsh", "--optimize", *args, "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# The geometry subcommands, and every subcommand's --help, run without numpy:
# the script runs them through main() with numpy importable or blocked, and
# reports each exit code and stdout, the sweep and curve CSVs (if written)
# and the modules loaded.
_GEOMETRY_COMMANDS = [
    ["jam", "--latest", "--d", "2", "--position", "0.3,0.4"],
    ["jam", "--latest", "--d", "1", "--format", "json"],
    ["jam", "--sweep", "--d", "2", "--sweep-range", "-1.5,0.5,9", "--csv", "sweep.csv"],
    ["jam", "--config", "cfg.json", "--format", "json"],
    ["jam", "--scenario", "sc.json"],
    ["boost", "--events", "ev.json", "--orderings", "--format", "json"],
    ["boost", "--events", "ev.json", "--v", "-0.3,0.2"],
] + [[command, "--help"] for command in ("chsh", "nosig", "jam", "boost", "sample")]

_RUN_WITHOUT_NUMPY = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None  # any numpy import now raises ImportError
import nonlocality
assert sys.modules.get("numpy") is None
from nonlocality.cli import main
runs = []
for args in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(args)
        except SystemExit as exc:  # --help
            code = exc.code
    runs.append([code, out.getvalue()])
loaded = [name for name in ("numpy", "nonlocality.correlations") if sys.modules.get(name)]
csv = {}
for name in ("sweep.csv", "curve.csv"):
    try:
        with open(name) as fh:
            csv[name] = fh.read()
    except FileNotFoundError:
        pass
print(json.dumps({"runs": runs, "csv": csv, "loaded": loaded}))
"""


def _run_without_numpy(tmp_path, commands):
    """The script's report on ``commands`` with numpy blocked and with it importable."""
    reports = {}
    for mode in ("blocked", "importable"):
        workdir = tmp_path / mode
        workdir.mkdir()
        write_json(workdir / "cfg.json", {"a": [-1.0, 0.0], "b": [1.0, 0.0], "j": [0.3, 0.2]})
        write_json(workdir / "sc.json", [
            {"a": [-1.0, 0.0], "b": [1.0, 0.0], "j": [10.0, 5.0]},
            {"a": [9.0, 8.0], "b": [11.0, 8.0], "j": [0.0, 4.0]},
        ])
        write_json(workdir / "ev.json", [[-2.0, 0.5, 0.0], [0.5, 1.5, 0.25], [3.0, -0.5, -0.1]])
        write_json(workdir / "box.json", product_box((0.3, 0.8), (0.6, 0.1)).to_json())
        write_json(workdir / "pr.json", box_from_correlation([[-1.0, 1.0], [1.0, 1.0]]).to_json())
        sig = [[[[0.45, 0.45], [0.05, 0.05]], [[0.25, 0.25], [0.25, 0.25]]]] * 2
        write_json(workdir / "sig.json", {"P": sig})
        write_json(workdir / "table.json", {"kind": "table", "thetas": [0.0, 1.0, 3.0],
                                            "values": [1.0, -0.5, -1.0]})
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_WITHOUT_NUMPY, mode, json.dumps(commands)],
            cwd=workdir, capture_output=True, text=True, check=False,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        reports[mode] = json.loads(proc.stdout)
    return reports["blocked"], reports["importable"]


def test_geometry_subcommands_run_without_numpy(tmp_path):
    blocked, importable = _run_without_numpy(tmp_path, _GEOMETRY_COMMANDS)
    assert [code for code, _ in blocked["runs"]] == [0] * len(_GEOMETRY_COMMANDS)
    assert blocked == importable
    assert importable["loaded"] == []


# The box subcommands, chsh on a model at given angles, chsh --curve and the
# certified chsh --optimize (each model reaches its bound at eq2) run on plain
# floats: their reports are the same with numpy blocked, and with numpy
# importable none of them loads it.
_BOX_COMMANDS = [
    (["nosig", "--builtin", "singlet-optimal"], 0),
    (["nosig", "--box", "box.json"], 0),
    (["nosig", "--box", "sig.json"], 1),
    (["chsh", "--builtin", "superquantum-eq2"], 0),
    (["chsh", "--box", "pr.json"], 0),
    (["chsh", "--model", "singlet", "--angles", "0,1.5707963267948966,0.7853981633974483,-0.5"], 0),
    (["chsh", "--model", "superquantum"], 0),
    (["chsh", "--model-file", "table.json", "--angles", "singlet-optimal"], 0),
    (["chsh", "--deterministic", "all"], 0),
    (["jam", "--builtin", "superquantum-eq2", "--strength", "0.5"], 0),
    (["jam", "--box", "sig.json"], 0),
    (["chsh", "--optimize", "--model", "singlet"], 0),
    (["chsh", "--optimize", "--model", "superquantum"], 0),
    (["chsh", "--optimize", "--model", "classical:5"], 0),
    (["chsh", "--model", "superquantum", "--curve", "9", "--csv", "curve.csv"], 0),
]


def test_box_subcommands_run_without_numpy(tmp_path):
    commands = [args + ["--format", "json"] for args, _ in _BOX_COMMANDS]
    blocked, importable = _run_without_numpy(tmp_path, commands)
    assert [code for code, _ in blocked["runs"]] == [code for _, code in _BOX_COMMANDS]
    assert blocked == importable
    assert importable["loaded"] == ["nonlocality.correlations"]


def test_sample_runs_without_numpy(tmp_path):
    # seeded, and seedless with its seed from the operating system
    commands = [["sample", "--builtin", "singlet-optimal", "--n", "1000", "--seed", "1"],
                ["sample", "--builtin", "uniform", "--n", "10", "--format", "json"]]
    blocked, importable = _run_without_numpy(tmp_path, commands)
    for report in (blocked, importable):
        assert [code for code, _ in report["runs"]] == [0, 0]
        assert report["loaded"] == ["nonlocality.correlations"]
        seedless = json.loads(report["runs"][1][1])
        assert 0 <= seedless["params"]["seed"] < 2**32
        assert [sum(map(sum, pair)) for row in seedless["results"]["counts"] for pair in row] \
            == [10] * 4
    assert blocked["runs"][0] == importable["runs"][0]


_LAZY_EXPORTS = """
import sys
import nonlocality
assert "numpy" not in sys.modules and "nonlocality.jamming" not in sys.modules
assert {"Event", "apply_jamming", "correlations"} <= set(dir(nonlocality))
from nonlocality import jamming
assert "numpy" not in sys.modules
box = nonlocality.builtin_box("superquantum-eq2")
from nonlocality import correlations
assert nonlocality.apply_jamming is correlations.apply_jamming
assert jamming.apply_jamming is correlations.apply_jamming
assert jamming.check_unary is correlations.check_unary
assert jamming.UnaryReport is correlations.UnaryReport
assert jamming.check_unary(box, jamming.apply_jamming(box)).holds
namespace = {}
exec("from nonlocality import *", namespace)
assert set(nonlocality.__all__) <= set(namespace)
assert namespace["check_unary"] is correlations.check_unary
assert namespace["spacetime"] is sys.modules["nonlocality.spacetime"]
print("ok")
"""


def test_package_exports_resolve_lazily():
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_EXPORTS], capture_output=True, text=True, check=False,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        nonlocality.nope
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        nonlocality.jamming.nope
