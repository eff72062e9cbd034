import json
import math

import numpy as np
import pytest

from nonlocality import box_from_correlation, builtin_box, product_box
from nonlocality.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
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


def test_chsh_box_file(tmp_path, capsys):
    path = write_json(tmp_path / "box.json", builtin_box("superquantum-eq2").to_json())
    code, report = run_json(capsys, "chsh", "--box", path)
    assert code == 0
    assert report["results"]["value"] == 4.0


def test_chsh_explicit_angles(capsys):
    angles = "0,1.5707963267948966,0.7853981633974483,-0.7853981633974483"
    code, report = run_json(capsys, "chsh", "--model", "singlet", "--angles", angles)
    assert code == 0
    assert report["results"]["value"] == pytest.approx(-2 * math.sqrt(2), abs=1e-12)


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


def test_jam_config_without_jammer_is_input_error(tmp_path, capsys):
    path = write_json(tmp_path / "cfg.json", {"a": [-1.0, 0.0], "b": [1.0, 0.0], "d": 1})
    code, out, err = run_cli(capsys, "jam", "--config", path)
    assert code == 2
    assert "'j'" in err
    assert "Traceback" not in err


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
    code, out, err = run_cli(capsys, "boost", "--events", path, "--orderings", option, "0")
    assert code == 2
    assert option in err
    assert "Traceback" not in err


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


def test_bad_angles_is_input_error(capsys):
    code, out, err = run_cli(capsys, "chsh", "--model", "singlet", "--angles", "1,2")
    assert code == 2


def test_report_json_roundtrips(capsys):
    code, report = run_json(capsys, "chsh", "--model", "singlet", "--angles", "eq2")
    assert json.loads(json.dumps(report)) == report
    assert report["duration_s"] is None


def test_timing_flag_adds_duration(capsys):
    code, report = run_json(
        capsys, "chsh", "--model", "singlet", "--angles", "eq2", "--timing"
    )
    assert isinstance(report["duration_s"], float)


def test_text_output_mentions_value(capsys):
    code, out, err = run_cli(capsys, "chsh", "--model", "superquantum", "--angles", "eq2")
    assert code == 0
    assert "value: 4" in out
    assert "ok: True" in out
