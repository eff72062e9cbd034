import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocality import (
    ANGLE_PRESETS,
    BUILTIN_BOXES,
    QUANTUM_BOUND,
    CorrelationModel,
    DeterministicModel,
    NoSignallingBox,
    SingletModel,
    SuperquantumModel,
    TableModel,
    apply_jamming,
    box_from_correlation,
    box_from_model,
    builtin_box,
    check_no_signalling,
    check_unary,
    chsh,
    chsh_at_angles,
    classify_chsh,
    enumerate_deterministic,
    maximize_chsh,
    product_box,
    reduce_angle,
    sample_outcomes,
)
from nonlocality.correlations import (
    ALGEBRAIC_BOUND,
    CLASSICAL_BOUND,
    PROB_TOL,
    ChshResult,
    NoSignallingReport,
    UnaryReport,
    _SWEEP_GRID,
    _binomial,
    model_from_json,
)

import box_oracle

PI = math.pi
SRC = Path(__file__).resolve().parents[1] / "src"


# ------------------------------------------------------------------- models


def test_superquantum_plateau_values():
    sq = SuperquantumModel()
    assert sq.correlation(PI / 8) == 1.0
    assert sq.correlation(PI / 2) == pytest.approx(0.0, abs=1e-12)
    assert sq.correlation(7 * PI / 8) == -1.0


def test_singlet_values():
    s = SingletModel()
    assert s.correlation(PI / 2) == pytest.approx(0.0, abs=1e-12)
    assert s.correlation(0.0) == -1.0
    assert s.correlation(PI) == 1.0


def test_angle_reduction_symmetries():
    sq = SuperquantumModel()
    for theta in (0.3, 1.1, 2.8):
        assert sq.correlation(-theta) == sq.correlation(theta)
        assert sq.correlation(2 * PI - theta) == pytest.approx(
            sq.correlation(theta), abs=1e-12
        )
    assert reduce_angle(-PI / 3) == pytest.approx(PI / 3)
    assert reduce_angle(2 * PI - 0.25) == pytest.approx(0.25)


def test_eval_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        SingletModel().correlation(float("nan"))


def test_antisymmetry_on_grid():
    thetas = np.linspace(0.0, PI, 1000)
    for model in (SingletModel(), SuperquantumModel()):
        for theta in thetas:
            assert abs(
                model.correlation(PI - theta) + model.correlation(theta)
            ) <= 1e-12


def test_superquantum_monotone_nonincreasing():
    sq = SuperquantumModel()
    values = [sq.correlation(t) for t in np.linspace(0.0, PI, 2000)]
    assert all(b - a <= 1e-12 for a, b in zip(values, values[1:]))


def test_superquantum_custom_interpolant():
    # a bridge between the plateaus other than sin(2*theta), such as the
    # paper's linear one, is a table, also loaded from JSON
    thetas, values = [0.0, PI / 4, 3 * PI / 4, PI], [1.0, 1.0, -1.0, -1.0]
    table = TableModel(thetas, values)
    loaded = model_from_json({"kind": "table", "thetas": thetas, "values": values})
    for lin in (table, loaded):
        assert lin.correlation(PI / 4) == 1.0
        assert lin.correlation(PI / 2) == pytest.approx(0.0, abs=1e-12)
        assert lin.correlation(3 * PI / 4) == -1.0
        assert chsh_at_angles(lin, *ANGLE_PRESETS["eq2"]).value == pytest.approx(4.0, abs=1e-12)


def test_superquantum_model_takes_no_interpolant():
    with pytest.raises(TypeError):
        SuperquantumModel(interpolant=lambda t: (PI / 2 - t) / (PI / 4))
    with pytest.raises(TypeError):
        SuperquantumModel(math.sin)


def test_deterministic_model_constant():
    m = DeterministicModel(0)
    assert m.alice == (1, 1) and m.bob == (1, 1)
    assert m.correlation(0.1) == m.correlation(2.9) == 1.0
    with pytest.raises(ValueError):
        DeterministicModel(16)


def test_table_model_interpolates():
    m = TableModel([0.0, PI], [-1.0, 1.0])
    assert m.correlation(PI / 2) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        TableModel([0.0, PI], [-2.0, 1.0])


def test_table_values_clipped_to_unit_interval():
    # values within PROB_TOL outside [-1, 1] are accepted and clipped, so the
    # search that stops at the algebraic bound returns exactly 4
    over = [1.0 + 1e-12, 1.0 + 1e-12, -1.0 - 1e-12, -1.0 - 1e-12]
    model = TableModel([0.0, PI / 4, 3 * PI / 4, PI], over)
    assert model.values.tolist() == [1.0, 1.0, -1.0, -1.0]
    assert model.to_json()["values"] == [1.0, 1.0, -1.0, -1.0]
    assert model.correlation(PI / 8) == 1.0
    opt = maximize_chsh(model)
    assert (opt.value, opt.evaluations) == (4.0, 8)  # certified at eq2: no start runs


def test_table_scalar_equals_array_at_edges():
    # E repeats np.interp's arithmetic in plain floats; np.interp is the reference
    tables = [
        TableModel([0.2, 1.1, 2.9], [0.3, -0.6, 0.9]),  # first > 0, last < pi
        TableModel([0.5, 2.5], [-1.0, 1.0]),  # two points
        TableModel([0.0, 0.4, 1.3, 1.9, PI], [1.0, 0.25, 0.25, -0.8, -1.0]),  # flat segment
        TableModel([0.0, PI], [0.7, -0.2]),
    ]
    for model in tables:
        nodes = model.thetas.tolist()
        thetas = [0.0, PI] + nodes
        thetas += [math.nextafter(t, -math.inf) for t in nodes]
        thetas += [math.nextafter(t, math.inf) for t in nodes]
        thetas += np.linspace(0.0, PI, 1001).tolist()
        thetas = [t for t in thetas if 0.0 <= t <= PI]
        want = np.interp(thetas, model.thetas, model.values)
        got = np.array([model.correlation(t) for t in thetas])
        assert np.array_equal(got, want), nodes
        for t, v in zip(nodes, model.values.tolist()):
            assert model.correlation(t) == v
    assert tables[2].correlation(0.8) == 0.25
    assert tables[0].correlation(0.0) == 0.3 and tables[0].correlation(PI) == 0.9


@pytest.mark.parametrize("thetas,values,message", [
    ([], [], "need matching 1-d theta/value arrays with >= 2 points"),
    ([0.0], [1.0], "with >= 2 points"),
    ([0.0, 1.0, PI], [1.0, 0.0], "need matching"),
    ([0.0, 1.0, 1.0, PI], [1.0, 0.0, 0.0, -1.0], "strictly increasing"),
    ([0.0, 2.0, 1.0], [1.0, 0.0, -1.0], "strictly increasing"),
    ([-1e-300, 1.0], [1.0, -1.0], r"within \[0, pi\]"),
    ([0.0, math.nextafter(PI, 4.0)], [1.0, -1.0], r"within \[0, pi\]"),
])
def test_table_rejects_bad_thetas(thetas, values, message):
    with pytest.raises(ValueError, match=message):
        TableModel(thetas, values)
    with pytest.raises(ValueError, match="^table model keys 'thetas' and 'values': .*" + message):
        model_from_json({"kind": "table", "thetas": thetas, "values": values})


@pytest.mark.parametrize("thetas,values", [
    ([0.0, 5e-324, 1.0, PI], [1.0, -1.0, 0.5, 0.0]),
    ([0.0, 1e-320, PI], [1.0, -1.0, 0.0]),  # E(5e-321) was -inf
])
def test_table_rejects_infinite_slopes(thetas, values):
    with pytest.raises(ValueError, match=r"segment 0 from theta 0\.0 to .* slope is -inf"):
        TableModel(thetas, values)
    with pytest.raises(ValueError, match="table model keys 'thetas' and 'values': segment 0"):
        model_from_json({"kind": "table", "thetas": thetas, "values": values})
    # a segment as narrow with a rise small enough has a finite slope
    model = TableModel(thetas, [1e-300, 0.0] + values[2:])
    assert model.correlation(thetas[1] / 2) == np.interp(thetas[1] / 2, model.thetas, model.values)


class _PointwiseModel(CorrelationModel):
    """A library subclass that defines only ``_corr`` and keeps the default
    ``chsh_bound`` of 4, so that every search of it runs all its starts."""

    def _corr(self, theta):
        return -math.cos(theta)


def _all_models():
    return [
        SingletModel(),
        SuperquantumModel(),
        TableModel([0.0, PI / 4, 3 * PI / 4, PI], [1.0, 1.0, -1.0, -1.0]),
        TableModel([0.3, 1.2, 2.0], [-0.5, 0.1, 0.8]),
        _PointwiseModel(),
    ] + [DeterministicModel(sid) for sid in range(16)]


@pytest.mark.parametrize("angles,message", [
    ((1e308, 0.0, 0.0, -1e308), "a - b' = 1e+308 - -1e+308 is not finite: it overflows to inf"),
    ((0.0, -1e308, 1e308, 0.0), "a' - b = -1e+308 - 1e+308 is not finite: it overflows to -inf"),
    ((-1.7e308, 0.0, 1.7e308, 0.0), "a - b = -1.7e+308 - 1.7e+308 is not finite: it overflows to -inf"),
], ids=["a-b'", "a'-b", "a-b"])
def test_angle_difference_that_overflows_names_its_axes(angles, message):
    # every angle is finite, but one difference is not; this used to read
    # "angle must be finite, got inf"
    for model in (SingletModel(), SuperquantumModel(), DeterministicModel(5)):
        for fn in (chsh_at_angles, box_from_model):
            with pytest.raises(ValueError) as exc:
                fn(model, *angles)
            assert str(exc.value) == f"angle difference {message}"
    # an angle that is itself not finite keeps its message
    with pytest.raises(ValueError, match="^angle must be finite, got inf$"):
        chsh_at_angles(SingletModel(), math.inf, 0.0, 0.0, -1e308)


@pytest.mark.parametrize("angles,message", [
    ((None, 0.0, 1.0, 2.0), "angle a must be a finite number, got None"),
    ((0, "0", 1, 2), "angle a' must be a finite number, got '0'"),
    ((0.0, 0.0, True, 2.0), "angle b must be a finite number, got True"),
    ((0.0, 0.0, 1.0, [2.0]), "angle b' must be a finite number, got [2.0]"),
], ids=["a", "a'", "b", "b'"])
def test_angle_that_is_not_a_number_names_its_axis(angles, message):
    # None and '0' raised TypeError, and True ran as 1.0 and was echoed as True
    for model in (SingletModel(), SuperquantumModel(), DeterministicModel(5)):
        for fn in (chsh_at_angles, box_from_model):
            with pytest.raises(ValueError) as exc:
                fn(model, *angles)
            assert str(exc.value) == message


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, None, "0.5", True, False])
def test_correlation_rejects_nonfinite(bad):
    # '0.5' gave E(0.5) and True E(1.0); None raised TypeError
    for model in _all_models():
        with pytest.raises(ValueError, match="finite"):
            model.correlation(bad)
    with pytest.raises(ValueError, match="finite"):
        reduce_angle(bad)


def _fold_inputs():
    """Angles where a fold that differs from ``reduce_angle`` in any operation
    shows: grid points, multiples of pi and 2*pi with their neighbours, signed
    zeros, huge and subnormal floats, ints and numpy scalars."""
    thetas = np.linspace(-7 * PI, 7 * PI, 2001).tolist()
    for k in range(1, 9):
        for t in (k * PI, 2 * k * PI, k * PI / 4):
            for s in (t, -t):
                thetas += [s, math.nextafter(s, math.inf), math.nextafter(s, -math.inf)]
    thetas += [0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               math.ulp(PI), 1e16, 2**53 + 1.0]
    thetas += [0, 1, -1, 3, 7, -22, 10**20]
    thetas += [np.float32(0.1), np.float32(-3.5), np.float64(PI), np.float64(-2 * PI), np.int64(5)]
    return thetas


def test_scalar_correlation_matches_the_reference_fold():
    # correlation folds inline; it must give _corr(reduce_angle(theta)) bit for bit
    for model in _all_models():
        for theta in _fold_inputs():
            got = model.correlation(theta)
            want = model._corr(reduce_angle(theta))
            assert got.hex() == want.hex(), (type(model).__name__, theta)
        for bad in (math.nan, math.inf, -math.inf, None, "abc", True, False, 10**400):
            with pytest.raises(Exception) as got:
                model.correlation(bad)
            with pytest.raises(Exception) as want:
                model._corr(reduce_angle(bad))
            assert (got.type, str(got.value)) == (want.type, str(want.value)), bad


@pytest.mark.parametrize("data,key", [
    ({"kind": "table"}, "'thetas'"),
    ({"kind": "table", "thetas": [0.0, 1.0]}, "'values'"),
    ([], "'kind'"),
    ({"kind": "quantum"}, "'kind'"),
    ({"kind": "classical"}, "'strategy'"),
    ({"kind": "classical", "strategy": "q"}, "'strategy'"),
    ({"kind": "classical", "strategy": 16}, "'strategy'"),
    ({"kind": "table", "thetas": "abc", "values": [1.0]}, "'thetas'"),
    # 3.7, true and "7" used to load strategies 3, 1 and 7
    ({"kind": "classical", "strategy": 3.7}, "'strategy' must be an integer"),
    ({"kind": "classical", "strategy": True}, "'strategy' must be an integer"),
    ({"kind": "classical", "strategy": "7"}, "'strategy' must be an integer"),
    ({"kind": "classical", "strategy": math.inf}, "'strategy' must be an integer"),
])
def test_model_from_json_names_bad_key(data, key):
    with pytest.raises(ValueError, match=key):
        model_from_json(data)


def test_model_json_roundtrip():
    for model in (SingletModel(), SuperquantumModel(), DeterministicModel(9),
                  TableModel([0.0, 1.0, PI], [0.5, 0.0, -0.5])):
        clone = model_from_json(json.loads(json.dumps(model.to_json())))
        for theta in (0.0, 0.7, 2.0, PI):
            assert clone.correlation(theta) == pytest.approx(
                model.correlation(theta), abs=1e-12
            )
    assert model_from_json({"kind": "classical", "strategy": 9.0}).strategy_id == 9


@pytest.mark.parametrize("thetas,values,key", [
    # these used to load through numpy's float conversion: [false, "1", 3]
    # read as thetas [0, 1, 3]
    ([False, "1", 3], [1.0, 0.5, -1.0], "'thetas'[0] must be a finite number"),
    ([0.0, "1", 3.0], [1.0, 0.5, -1.0], "'thetas'[1] must be a finite number"),
    ([0.0, 1.0, 3.0], [1.0, True, -1.0], "'values'[1] must be a finite number"),
    ([0.0, 1.0, 3.0], [1.0, "0.5", -1.0], "'values'[1] must be a finite number"),
    ([0.0, [1.0], 3.0], [1.0, 0.5, -1.0], "'thetas'[1] must be a finite number"),
    ([0.0, 1.0], None, "'values' must be a list"),
])
def test_table_model_json_numbers_are_json_numbers(thetas, values, key):
    with pytest.raises(ValueError, match=re.escape(key)):
        model_from_json({"kind": "table", "thetas": thetas, "values": values})


@pytest.mark.parametrize("strategy_id", [3.7, "7", True, False, None, math.nan, 2**2000])
def test_deterministic_model_takes_integral_ids_only(strategy_id):
    # 3.7, "7" and True used to give strategies 3, 7 and 1
    with pytest.raises(ValueError, match="strategy id"):
        DeterministicModel(strategy_id)


def test_deterministic_model_takes_integral_floats_and_numpy_integers():
    assert DeterministicModel(9.0).strategy_id == 9
    assert DeterministicModel(np.float64(9.0)).strategy_id == 9
    for kind in (np.int8, np.int64, np.uint16):
        model = DeterministicModel(kind(6))
        assert model.strategy_id == 6 and type(model.strategy_id) is int
        assert model.to_json() == DeterministicModel(6).to_json()


# --------------------------------------------------------------------- boxes


def test_box_from_correlation_extremes():
    perfect = box_from_correlation(1.0)
    assert perfect.probs[0, 0, 0, 0] == 0.5 and perfect.probs[0, 0, 1, 1] == 0.5
    assert perfect.probs[0, 0, 0, 1] == 0.0 and perfect.probs[0, 0, 1, 0] == 0.0
    uniform = box_from_correlation(0.0)
    assert np.all(uniform.probs == 0.25)
    anti = box_from_correlation(-1.0)
    assert anti.probs[1, 1, 0, 1] == 0.5 and anti.probs[1, 1, 1, 0] == 0.5
    assert anti.probs[1, 1, 0, 0] == 0.0


def test_box_from_correlation_rejects_out_of_range():
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        box_from_correlation(1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_box_constructors_reject_nonfinite(bad):
    # box_from_correlation(nan) used to build a box that check_no_signalling
    # passed with max_deviation 0.0
    with pytest.raises(ValueError, match="finite"):
        box_from_correlation(bad)
    with pytest.raises(ValueError, match="finite"):
        box_from_correlation([[0.5, 0.5], [bad, 0.5]])
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[1, 0, 1, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        NoSignallingBox(probs)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_table_model_rejects_nonfinite(bad):
    with pytest.raises(ValueError, match="finite"):
        TableModel([0.0, bad, PI], [1.0, 0.0, -1.0])
    with pytest.raises(ValueError, match="finite"):
        TableModel([0.0, 1.0, PI], [1.0, bad, -1.0])


def test_box_validation():
    bad = np.full((2, 2, 2, 2), 0.25)
    bad[0, 0] = [[0.5, 0.5], [0.5, 0.5]]
    with pytest.raises(ValueError, match="normalized"):
        NoSignallingBox(bad)
    neg = np.full((2, 2, 2, 2), 0.25)
    neg[0, 0] = [[0.5, -0.1], [0.1, 0.5]]
    with pytest.raises(ValueError, match="negative"):
        NoSignallingBox(neg)


@settings(max_examples=60)
@given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4))
def test_correlation_lift_is_normalized_and_uniform(es):
    box = box_from_correlation([[es[0], es[1]], [es[2], es[3]]])
    sums = box.probs.sum(axis=(2, 3))
    assert np.all(np.abs(sums - 1.0) <= 1e-12)
    assert np.all(box.probs >= 0.0)
    alice, bob = box.marginals()
    assert np.all(np.abs(alice[..., 0] - 0.5) <= 1e-12)
    assert np.all(np.abs(bob[..., 0] - 0.5) <= 1e-12)
    report = check_no_signalling(box)
    assert report.passed and report.max_deviation <= 1e-12


@pytest.mark.parametrize("where,value", [
    ((0, 0, 0, 0), "0.25"),
    ((1, 0, 1, 1), True),
    ((0, 1, 0, 1), None),
    ((1, 1, 1, 0), [0.25]),
])
def test_box_json_numbers_are_json_numbers(where, value):
    # {"P": [[[["0.25", ...]]]]} used to load as the uniform box
    probs = np.full((2, 2, 2, 2), 0.25).tolist()
    probs[where[0]][where[1]][where[2]][where[3]] = value
    key = "'P'" + "".join(f"[{i}]" for i in where)
    with pytest.raises(ValueError, match=re.escape(f"{key} must be a finite number")):
        NoSignallingBox.from_json({"P": probs})


@pytest.mark.parametrize("probs,key", [
    (np.full((2, 2), 0.5).tolist(), "'P'[0][0] must be a list of 2 items"),
    (np.full((2, 2, 2, 3), 1 / 6).tolist(), "'P'[0][0][0] must be a list of 2 items"),
    ("uniform", "'P' must be a list of 2 items"),
])
def test_box_json_shape_error_names_the_key(probs, key):
    with pytest.raises(ValueError, match=re.escape(key)):
        NoSignallingBox.from_json({"P": probs})


def test_box_json_roundtrip():
    box = builtin_box("singlet-eq2")
    clone = NoSignallingBox.from_json(json.loads(json.dumps(box.to_json())))
    assert np.array_equal(clone.probs, box.probs)


# ---------------------------------------------------------------------- CHSH


def test_superquantum_attains_algebraic_maximum():
    res = chsh_at_angles(SuperquantumModel(), *ANGLE_PRESETS["eq2"])
    assert res.value == pytest.approx(4.0, abs=1e-12)
    assert res.terms[0] == res.terms[1] == res.terms[2] == 1.0
    assert res.terms[3] == -1.0


def test_all_plus_correlations_give_two():
    box = box_from_correlation(1.0)
    assert chsh(box).value == 2.0


def test_singlet_analytic_optimum():
    # -cos at relative angles pi/4, pi/4, pi/4, 3pi/4: three times -1/sqrt2
    # minus +1/sqrt2 gives -2*sqrt(2)
    res = chsh_at_angles(SingletModel(), 0.0, PI / 2, PI / 4, -PI / 4)
    assert res.value == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-12)


def test_check_no_signalling_detects_violation():
    # Alice's +1 marginal at x=0 is 0.9 when y=0 but 0.5 when y=1
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 0] = [[0.45, 0.45], [0.05, 0.05]]
    box = NoSignallingBox(probs)
    report = check_no_signalling(box)
    assert not report.passed
    assert report.max_deviation == pytest.approx(0.4, abs=1e-12)


def test_product_box_is_no_signalling():
    box = product_box((0.3, 0.8), (0.6, 0.1))
    report = check_no_signalling(box)
    assert report.passed and report.max_deviation <= 1e-12


@pytest.mark.parametrize("pa,pb,message", [
    # "0.5" and True used to pass through float(); a list of 1 or 3 failed
    # as "box table must be a list of 2 items" without naming the argument
    (("0.5", 0.5), (0.5, 0.5), "p_plus_a[0] must be a finite number"),
    ((0.5, 0.5), (0.5, True), "p_plus_b[1] must be a finite number"),
    ((0.5,), (0.5, 0.5), "p_plus_a must be a list of 2 items"),
    ((0.5, 0.5), (0.5, 0.5, 0.5), "p_plus_b must be a list of 2 items"),
    ((0.5, math.nan), (0.5, 0.5), "p_plus_a[1] must be a finite number"),
])
def test_product_box_reads_json_numbers(pa, pb, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        product_box(pa, pb)


@pytest.mark.parametrize("strength", ["0.5", None, True, math.nan, math.inf])
def test_apply_jamming_reads_strength_as_a_json_number(strength):
    # "0.5" and None used to raise TypeError, and True jammed fully
    with pytest.raises(ValueError, match="strength must be a finite number"):
        apply_jamming(builtin_box("singlet-optimal"), strength)


def test_box_checks_read_none_as_the_probability_tolerance():
    # tol=None gave the geometric default, 1e-9; both checks now run at
    # PROB_TOL alone
    probs = np.full((2, 2, 2, 2), 0.25)
    probs[0, 0] = [[0.45, 0.45], [0.05, 0.05]]
    box = NoSignallingBox(probs)
    report = check_no_signalling(box)
    assert (report.passed, report.max_deviation, report.tol) == (False, 0.4, PROB_TOL)
    assert check_unary(box, apply_jamming(box, 0.5)).tol == PROB_TOL


def test_check_no_signalling_takes_no_tolerance():
    box = builtin_box("singlet-optimal")
    with pytest.raises(TypeError):
        check_no_signalling(box, tol=0.5)
    with pytest.raises(TypeError):
        check_no_signalling(box, None)


def test_check_unary_takes_no_tolerance():
    box = builtin_box("singlet-optimal")
    with pytest.raises(TypeError):
        check_unary(box, apply_jamming(box), tol=0.5)
    with pytest.raises(TypeError):
        check_unary(box, apply_jamming(box), None)


def test_enumerate_deterministic_bound():
    strategies = enumerate_deterministic()
    assert len(strategies) == 16
    assert strategies[0].alice == (1, 1) and strategies[0].bob == (1, 1)
    assert strategies[0].result.value == 2.0
    for s in strategies:
        # independent recomputation from the outcome assignments
        a0, a1 = s.alice
        b0, b1 = s.bob
        expected = a0 * b0 + a0 * b1 + a1 * b0 - a1 * b1
        assert s.result.value == expected
        assert abs(s.result.value) == 2.0
    assert max(abs(s.result.value) for s in strategies) == 2.0


def test_classify_chsh():
    assert classify_chsh(1.9) == "classical"
    assert classify_chsh(-2.0) == "classical"
    assert classify_chsh(2.5) == "quantum"
    assert classify_chsh(QUANTUM_BOUND) == "quantum-maximal"
    assert classify_chsh(3.9) == "superquantum"
    assert classify_chsh(4.2) == "exceeds-algebraic-bound"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_classify_chsh_rejects_nonfinite(value):
    # nan used to read "exceeds-algebraic-bound"
    with pytest.raises(ValueError, match="CHSH value must be finite"):
        classify_chsh(value)


def test_chsh_capped_at_four_for_random_boxes(rng):
    for _ in range(300):
        raw = rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2)
        assert abs(chsh(NoSignallingBox(raw)).value) <= 4.0 + 1e-12


def test_chsh_forms_place_the_minus_sign_on_each_term(rng):
    # PR box E = [[-1, 1], [1, 1]]: the stated form reads 0, the first one 4
    assert chsh(box_from_correlation([[-1.0, 1.0], [1.0, 1.0]])).forms() == (4.0, 0.0, 0.0, 0.0)
    assert max(abs(v) for s in enumerate_deterministic() for v in chsh(s.box).forms()) == 2.0
    for _ in range(100):
        box = NoSignallingBox(rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2))
        forms = chsh(box).forms()
        assert forms[3] == chsh(box).value  # bit for bit
        e = box.correlations()
        for k, value in enumerate(forms):
            signs = np.ones(4)
            signs[k] = -1.0
            assert value == pytest.approx(float(signs @ e.ravel()), abs=1e-12)


def test_mixtures_of_deterministic_stay_classical(rng):
    boxes = [s.box for s in enumerate_deterministic()]
    for _ in range(300):
        weights = rng.dirichlet(np.ones(16))
        mixed = NoSignallingBox(sum(w * b.probs for w, b in zip(weights, boxes)))
        assert abs(chsh(mixed).value) <= 2.0 + 1e-12


# ------------------------------------------------------------- optimization


def test_maximize_singlet_reaches_quantum_bound():
    opt = maximize_chsh(SingletModel())
    assert opt.value == pytest.approx(QUANTUM_BOUND, abs=1e-6)
    assert abs(opt.result.value) == pytest.approx(opt.value, abs=1e-12)


def test_maximize_superquantum_reaches_four():
    opt = maximize_chsh(SuperquantumModel())
    assert opt.value == pytest.approx(4.0, abs=1e-9)


def test_maximize_deterministic_is_two_exactly():
    for sid in (0, 5, 11):
        opt = maximize_chsh(DeterministicModel(sid))
        assert opt.value == 2.0


# maximize_chsh(model, seed=seed) as the point-by-point coarse scan found it,
# recorded before the sweeps were vectorised: (angles, value).
_EQ2_FOUND = (1.5707963267948966, 0.0, 0.7853981633974483, 2.356194490192345)
_GOLDEN_OPTIMA = {
    ("singlet", 0): (_EQ2_FOUND, 2.8284271247461903),
    ("singlet", 3): (_EQ2_FOUND, 2.8284271247461903),
    ("superquantum", 0): (_EQ2_FOUND, 4.0),
    ("superquantum", 3): (_EQ2_FOUND, 4.0),
    ("table", 0): (_EQ2_FOUND, 4.0),
    ("table", 3): (_EQ2_FOUND, 4.0),
    ("table-smooth", 0): (
        (0.7853981633974483, 5.061454830783556, 2.7936176339734238, 5.061454830783556),
        2.899224642446357,
    ),
    ("table-smooth", 3): (
        (0.8377580409572782, 3.1066860685499065, 5.113814708343385, 3.1066860685499065),
        2.899224642446357,
    ),
    ("classical-0", 0): (_EQ2_FOUND, 2.0),
    ("classical-0", 3): (_EQ2_FOUND, 2.0),
    ("classical-5", 0): (_EQ2_FOUND, 2.0),
    ("classical-5", 3): (_EQ2_FOUND, 2.0),
    ("classical-11", 0): (_EQ2_FOUND, 2.0),
    ("classical-11", 3): (_EQ2_FOUND, 2.0),
}


def _golden_model(name):
    if name == "singlet":
        return SingletModel()
    if name == "superquantum":
        return SuperquantumModel()
    if name == "table":
        return TableModel([0.0, PI / 4, 3 * PI / 4, PI], [1.0, 1.0, -1.0, -1.0])
    if name == "table-smooth":
        return TableModel([0.0, 0.5, 1.2, 2.0, PI], [-1.0, -0.7, 0.1, 0.6, 1.0])
    return DeterministicModel(int(name.split("-")[1]))


@pytest.mark.parametrize("name,seed", sorted(_GOLDEN_OPTIMA))
def test_maximize_matches_golden_optima_bit_for_bit(name, seed):
    angles, value = _GOLDEN_OPTIMA[name, seed]
    opt = maximize_chsh(_golden_model(name), seed=seed)
    assert opt.angles == angles
    assert opt.value == value
    assert abs(opt.result.value) == value


def test_maximize_float_only_interpolant():
    # a subclass that defines only _corr: with the singlet's E but the bound
    # 4, every start runs, and the search finds the singlet's maximum
    assert maximize_chsh(_PointwiseModel()).value == maximize_chsh(SingletModel()).value


# Step tables E = [1, 1, -1, -1] at thetas [0, c1, 3*c1, pi]: the eq2 start
# ends just short of 4 and a later start reaches 4, so the search stops
# there. (angles, value, terms) recorded before it stopped at the bound,
# when every start ran.
_GOLDEN_STEP_OPTIMA = {
    (0.5, 0): ((0.0, 5.096361415823442, 1.5009831567151235, 4.60766922526503),
               4.0, (-1.0, -1.0, -1.0, 1.0)),
    (0.5, 3): ((0.5381495885689892, 3.1590459461097367, 5.034555946803014,
                3.6578319513973883), 4.0, (-1.0, -1.0, -1.0, 1.0)),
    (0.6, 0): ((0.10471975511965978, 3.996803987067015, 1.9198621771937625,
                4.583562073612696), 4.0, (-1.0, -1.0, -1.0, 1.0)),
    (0.6, 3): ((0.5585053606381855, 3.07177948351002, 5.034555946803014,
                3.6578319513973883), 4.0, (-1.0, -1.0, -1.0, 1.0)),
    (0.7, 0): ((0.4188790204786391, 4.642575810304916, 2.5307274153917776,
                4.590215932745087), 4.0, (-1.0, -1.0, -1.0, 1.0)),
    (0.75, 3): ((1.0122909661567112, 2.530727415391778, 4.782202150464463,
                 3.263765701229396), 4.0, (-1.0, -1.0, -1.0, 1.0)),
}


@pytest.mark.parametrize("c1,seed", sorted(_GOLDEN_STEP_OPTIMA))
def test_maximize_stops_at_bound_with_golden_step_tables(c1, seed):
    angles, value, terms = _GOLDEN_STEP_OPTIMA[c1, seed]
    model = TableModel([0.0, c1, 3 * c1, PI], [1.0, 1.0, -1.0, -1.0])
    first = maximize_chsh(model, extra_starts=0, seed=seed)
    assert first.value < 4.0  # the preset starts fall short
    opt = maximize_chsh(model, seed=seed)
    assert opt.angles == angles
    assert opt.value == value
    assert opt.result.terms == terms


# Tables drawn from default_rng(seed), 2-5 points from 0 to pi, and
# maximize_chsh(_random_table(seed), seed=seed) recorded while every
# refinement trial still evaluated all four terms: (angles, value, terms).
# Each of these searches accepts refinement trials and sets an angle back an
# ulp off where it was; at seeds 98 and 217 the search ends elsewhere unless
# it re-evaluates the terms of such an angle.
_GOLDEN_RANDOM_TABLES = {
    0: ((0.15346806999096277, 0.257314258338806, 0.2053911621770167, 0.10154496749466267),
        2.2540162668877923,
        (0.8255111309057763, 0.8255111215621377, 0.8255111461408987, 0.22251713172102008)),
    4: ((6.260912575258713, 0.05235987755982989, -0.0027270769562411402, 3.193952531149623),
        2.4785608861507207,
        (-0.8255150984279643, -0.24702682812979065, -0.8022165456213511, 0.6038024139716145)),
    6: ((3.141592653589793, 1.6057029118347832, 0.0, 0.0174532925199433),
        1.9497799607458668,
        (0.9748899803729332, 0.9645195924674397, 0.062295844689486846, 0.05192545678399313)),
    25: ((6.2822050142270855, 0.0, 0.000980292952501361, 0.0),
         2.723350060711114,
         (-0.9953963050319842, -0.9959475808493997, -0.9959475808493994, -0.2639414060196694)),
    32: ((1.1856478394187668, 3.5552497478030114, 2.370443467288711, 0.0008415589044650405),
         2.238341857508235,
         (0.9336611684195802, 0.9336604925346828, 0.9336604925346829, 0.5626402959807104)),
    39: ((1.2217304763960306, 5.550147021341968, 0.24870941840919195, 2.4085543677521746),
         2.9200570119535705,
         (-0.6956156566837454, -0.6499880374226803, -0.6937533048771715, 0.8807000129699729)),
    98: ((0.0, 0.4670577018375309, 0.034872496577933586, 3.141592653589793),
         2.0434966559728527,
         (-0.8498918300346544, -0.8264976395300445, -0.7848456208799643, -0.41773843447181075)),
    217: ((1.9940392030357394, 2.0128186499100016, 5.980582339420428, 4.290681383222764),
          2.7420129139120046,
          (0.8119218534861747, 0.8119218556437203, 0.8015874972583791, -0.3165817075237304)),
}


def _random_table(seed):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 6))
    thetas = [0.0] + np.sort(rng.uniform(0.0, PI, size - 2)).tolist() + [PI]
    return TableModel(thetas, rng.uniform(-1.0, 1.0, size).tolist())


@pytest.mark.parametrize("seed", sorted(_GOLDEN_RANDOM_TABLES))
def test_maximize_matches_golden_random_tables(seed):
    angles, value, terms = _GOLDEN_RANDOM_TABLES[seed]
    opt = maximize_chsh(_random_table(seed), seed=seed)
    assert opt.angles == angles
    assert opt.value == value
    assert opt.result.terms == terms


def _search_starts(extra_starts, seed):
    rng = np.random.default_rng(seed)
    return [ANGLE_PRESETS["eq2"], ANGLE_PRESETS["singlet-optimal"], (0.0,) * 4] + [
        tuple(rng.uniform(0.0, 2.0 * PI, size=4).tolist()) for _ in range(extra_starts)]


def _refinement(start, coarse, final):
    """Step sizes and ulp restores of a start whose trials are all rejected:
    each sets its angle back to ``trial - delta``, which may be an ulp off."""
    angles = list(start)
    steps = restores = 0
    step = coarse
    while step >= final:
        steps += 1
        for i in range(4):
            for delta in (step, -step):
                old = angles[i]
                angles[i] = (old + delta) - delta
                restores += angles[i] != old
        step /= 2.0
    return steps, restores


def test_maximize_counts_evaluations():
    # A constant model never improves: per start one objective (4 points),
    # one round of four sweeps (2 varying terms over the grid each), then 8
    # trials of 2 points at every step size, and 2 more points for each trial
    # that set its angle back an ulp off; plus the initial objective and the
    # final breakdown. E = 1/2 gives |S| = 1, short of the bound 4, so every
    # start runs.
    coarse, final, extra = math.pi / 180.0, 1e-8, 4
    grid = np.arange(0.0, 2.0 * math.pi, coarse).size
    total = 4 + 4
    for start in _search_starts(extra, 0):
        steps, restores = _refinement(start, coarse, final)
        total += 4 + 4 * 2 * grid + steps * 8 * 2 + 2 * restores
    opt = maximize_chsh(TableModel([0.0, PI], [0.5, 0.5]), extra_starts=extra)
    assert opt.value == 1.0
    assert opt.evaluations == total
    # the same starts on a model that improves take more points
    assert maximize_chsh(_PointwiseModel(), extra_starts=extra).evaluations > opt.evaluations


def test_sweep_grid_is_numpys_arange():
    # the sweeps were np.arange's grid; float rounding of 2*pi / (pi/180)
    # could add a point to a grid built another way
    want = np.arange(0.0, 2.0 * math.pi, math.pi / 180.0).tolist()
    assert len(_SWEEP_GRID) == len(want) == 360
    assert list(_SWEEP_GRID) == want


# The 5-point table that CI searches ("table-smooth"): below 4 at eq2, so
# its sweeps and refinement run. Prints the search's angles, value,
# evaluations and whether numpy was loaded, with numpy blocked (argv[1]
# "blocked") or importable.
_TABLE_SEARCH = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from nonlocality import TableModel, maximize_chsh
model = TableModel([0.0, 0.5, 1.2, 2.0, 3.141592653589793], [-1.0, -0.7, 0.1, 0.6, 1.0])
opt = maximize_chsh(model, extra_starts=int(sys.argv[2]))
print(json.dumps([opt.angles, opt.value, opt.evaluations, sys.modules.get("numpy") is not None]))
"""


def _table_search(mode, extra_starts):
    proc = subprocess.run(
        [sys.executable, "-c", _TABLE_SEARCH, mode, str(extra_starts)],
        capture_output=True, text=True, check=False, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_search_within_the_presets_runs_without_numpy():
    blocked = _table_search("blocked", 0)
    assert blocked == _table_search("importable", 0)
    opt = maximize_chsh(_golden_model("table-smooth"), extra_starts=0)
    assert blocked == [list(opt.angles), opt.value, opt.evaluations, False]
    assert (opt.value, opt.evaluations) == (2.387380928840917, 24454)


def test_search_that_reaches_a_random_start_loads_numpy():
    angles, value, evaluations, loaded = _table_search("importable", 1)
    opt = maximize_chsh(_golden_model("table-smooth"), extra_starts=1)
    assert (tuple(angles), value, evaluations) == (opt.angles, opt.value, opt.evaluations)
    assert loaded


def test_maximize_superquantum_runs_one_start():
    # the eq2 objective is already at 4, so no start runs: 4 points for the
    # objective and 4 for the final breakdown
    opt = maximize_chsh(SuperquantumModel())
    assert (opt.angles, opt.value) == (ANGLE_PRESETS["eq2"], SuperquantumModel.chsh_bound)
    assert opt.result.terms == (1.0, 1.0, 1.0, -1.0)
    assert opt.evaluations == 8


@pytest.mark.parametrize("model", [SingletModel(), DeterministicModel(0), DeterministicModel(5),
                                   DeterministicModel(15)],
                         ids=["singlet", "classical-0", "classical-5", "classical-15"])
def test_maximize_stops_at_the_model_bound_after_one_start(model):
    # The eq2 objective already reaches the model's own bound (2*sqrt(2) for
    # the singlet, 2 for a strategy), so no start runs: the count of
    # test_maximize_superquantum_runs_one_start
    opt = maximize_chsh(model)
    assert (opt.angles, opt.value) == (ANGLE_PRESETS["eq2"], model.chsh_bound)
    assert opt.result == chsh_at_angles(model, *ANGLE_PRESETS["eq2"])
    assert opt.evaluations == 8


# The models with their bound set to the algebraic one: maximize_chsh runs
# every start, as it did before it stopped at each model's own bound.
class _AllStartsSinglet(SingletModel):
    chsh_bound = ALGEBRAIC_BOUND


class _AllStartsDeterministic(DeterministicModel):
    chsh_bound = ALGEBRAIC_BOUND


@pytest.mark.parametrize("sid", range(16))
def test_maximize_deterministic_stop_matches_all_starts_bit_for_bit(sid):
    for seed in range(10):
        opt = maximize_chsh(DeterministicModel(sid), seed=seed)
        full = maximize_chsh(_AllStartsDeterministic(sid), seed=seed)
        assert (opt.angles, opt.value, opt.result) == (full.angles, full.value, full.result)
        assert opt.evaluations < full.evaluations


def test_maximize_singlet_stop_returns_the_bound():
    # With every start run, a later start may beat the eq2 start by an ulp:
    # 2*sqrt(2) rounds up, so that value lies above the true maximum and is
    # rounding. The stop keeps the eq2 start, which reaches the bound first.
    over = math.nextafter(QUANTUM_BOUND, math.inf)
    found = set()
    for seed in range(150):
        opt = maximize_chsh(SingletModel(), seed=seed)
        assert (opt.angles, opt.value) == (ANGLE_PRESETS["eq2"], QUANTUM_BOUND)
        full = maximize_chsh(_AllStartsSinglet(), seed=seed)
        assert full.value in (QUANTUM_BOUND, over)
        found.add(full.value)
    assert found == {QUANTUM_BOUND, over}


def test_random_angles_stay_within_the_model_bound():
    quadruples = np.random.default_rng(20).uniform(-2.0 * PI, 2.0 * PI, size=(10_000, 4)).tolist()
    for model in _all_models():
        s = [abs(chsh_at_angles(model, *angles).value) for angles in quadruples]
        assert max(s) <= model.chsh_bound, type(model).__name__
        if isinstance(model, DeterministicModel):
            assert set(s) == {CLASSICAL_BOUND}


@pytest.mark.parametrize("steps", [{"final_step": 0.0}, {"final_step": -1e-8},
                                   {"coarse_step": 0.0}, {"final_step": math.nan},
                                   {"coarse_step": -0.1}, {"coarse_step": math.nan}])
def test_maximize_rejects_nonpositive_steps(steps):
    # final_step=0 used to loop forever: the step halves to 0.0 and 0.0 >= 0.0.
    # The step sizes are constants now, so no step argument is taken at all.
    with pytest.raises(TypeError, match=next(iter(steps))):
        maximize_chsh(SingletModel(), **steps)


def test_maximize_takes_no_steps_and_keyword_only_options():
    # extra_starts and seed are keyword-only: maximize_chsh(m, 2.0, 1e-8),
    # written when the two steps came first, would otherwise run with
    # extra_starts=2
    model = TableModel([0.0, PI], [0.5, -0.5])
    with pytest.raises(TypeError, match="coarse_step"):
        maximize_chsh(model, coarse_step=PI / 180.0)
    for args in ((2.0, 1e-8), (4,), (4, 0)):
        with pytest.raises(TypeError, match="positional"):
            maximize_chsh(model, *args)


@pytest.mark.parametrize("kwargs,message", [
    # The first three cases keep the ids they had when the steps were
    # arguments checked to be finite; the steps are constants now, so
    # naming either is a TypeError.
    pytest.param({"coarse_step": math.inf}, "unexpected keyword argument 'coarse_step'",
                 id="kwargs0-coarse_step must be a finite number"),
    pytest.param({"final_step": math.inf}, "unexpected keyword argument 'final_step'",
                 id="kwargs1-final_step must be a finite number"),
    pytest.param({"coarse_step": True}, "unexpected keyword argument 'coarse_step'",
                 id="kwargs2-coarse_step must be a finite number"),
    ({"extra_starts": -3}, "extra_starts must be >= 0"),
    ({"extra_starts": 2.5}, "extra_starts must be an integer"),
    ({"extra_starts": "2"}, "extra_starts must be an integer"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"seed": 1.5}, "seed must be an integer"),
    ({"seed": "3"}, "seed must be an integer"),
    ({"seed": None}, "seed must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"extra_starts": math.inf}, "extra_starts must be an integer"),
    ({"extra_starts": True}, "extra_starts must be an integer"),
    ({"seed": math.nan}, "seed must be an integer"),
])
def test_maximize_rejects_bad_arguments(kwargs, message):
    # extra_starts=-3 ran no extra start and 2.5 raised a bare TypeError;
    # seed=-1 failed in numpy without naming the seed, 1.5 and "3" raised
    # TypeError and None drew OS entropy. Each is checked before the
    # certified singlet returns and before a table searches.
    error = TypeError if kwargs.keys() & {"coarse_step", "final_step"} else ValueError
    for model in (SingletModel(), TableModel([0.0, PI], [0.5, -0.5])):
        with pytest.raises(error, match=message):
            maximize_chsh(model, **kwargs)


def test_maximize_takes_integral_extra_starts():
    model = DeterministicModel(5)
    want = maximize_chsh(model, extra_starts=1)
    assert maximize_chsh(model, extra_starts=1.0) == want
    assert maximize_chsh(model, extra_starts=np.int64(1)) == want


# ------------------------------------------------------------------ sampling


def test_sampling_perfect_correlation_is_exact():
    report = sample_outcomes(box_from_correlation(1.0), 10, seed=1)
    for x in (0, 1):
        for y in (0, 1):
            assert report.correlations[x][y] == 1.0
    assert report.chsh_estimate == 2.0
    assert report.std_error == 0.0


def test_sampling_is_deterministic_per_seed():
    box = builtin_box("singlet-optimal")
    r1 = sample_outcomes(box, 5000, seed=42)
    r2 = sample_outcomes(box, 5000, seed=42)
    assert r1 == r2
    r3 = sample_outcomes(box, 5000, seed=43)
    assert r3 != r1


def test_sampling_counts_sum_to_n():
    report = sample_outcomes(builtin_box("uniform"), 1234, seed=7)
    for x in (0, 1):
        for y in (0, 1):
            assert sum(sum(row) for row in report.counts[x][y]) == 1234


def test_sampling_rejects_zero():
    with pytest.raises(ValueError, match=">= 1"):
        sample_outcomes(builtin_box("uniform"), 0, seed=0)


@pytest.mark.parametrize("n,seed,message", [
    (2.5, 1, "n must be an integer"),
    (True, 1, "n must be an integer"),
    ("10", 1, "n must be an integer"),
    (-1, 1, "n must be >= 1"),
    (10, -1, "seed must be >= 0"),
    (10, 1.5, "seed must be an integer"),
    (10, False, "seed must be an integer"),
])
def test_sampling_rejects_bad_n_and_seed(n, seed, message):
    # n=2.5 used to draw 2 per pair and divide by 2.5, so the perfect box
    # estimated 1.2 instead of 2.0
    with pytest.raises(ValueError, match=message):
        sample_outcomes(builtin_box("perfect"), n, seed)


@pytest.mark.parametrize("n", [2**63, 10**20])
def test_sampling_rejects_counts_beyond_int64(n):
    # numpy's multinomial raised OverflowError, which the CLI reported as a
    # traceback and exit 1
    with pytest.raises(ValueError, match=r"^n must be <= 9223372036854775807, "):
        sample_outcomes(builtin_box("uniform"), n, seed=1)


@pytest.mark.parametrize("n", [2**62, 2**63 - 1])
def test_sampling_takes_the_largest_int64_counts(n):
    report = sample_outcomes(builtin_box("perfect"), n, seed=1)
    assert report.n_per_pair == n
    assert report.chsh_estimate == 2.0


def test_sampling_takes_integral_numbers():
    box = builtin_box("singlet-optimal")
    want = sample_outcomes(box, 100, 3)
    for n, seed in ((100.0, 3), (np.int64(100), np.uint8(3)), (100, 3.0)):
        report = sample_outcomes(box, n, seed)
        assert report == want
        assert type(report.n_per_pair) is int and type(report.seed) is int


def test_sampling_converges_to_true_value():
    box = builtin_box("singlet-optimal")
    truth = chsh(box).value
    hits = 0
    for seed in range(20):
        rep = sample_outcomes(box, 100_000, seed=seed)
        if abs(rep.chsh_estimate - truth) <= 5.0 * rep.std_error:
            hits += 1
    assert hits >= 19


def test_sampling_error_scales_as_sqrt_n():
    box = builtin_box("singlet-optimal")
    se_small = sample_outcomes(box, 1_000, seed=0).std_error
    se_large = sample_outcomes(box, 100_000, seed=0).std_error
    assert se_large == pytest.approx(se_small / 10.0, rel=0.2)


# (n, p) in each regime of the binomial draw: n = 1, the geometric method
# (n*p < 10), BTRS, p > 1/2, p of 0 and 1, and the largest n a sample takes
_BINOMIAL_CASES = [(1, 0.3), (1, 0.7), (2, 0.5), (25, 0.2), (1000, 0.004), (30, 0.9),
                   (50, 0.5), (1000, 0.3), (10**6, 0.0732233047033631), (10**6, 0.8),
                   (7, 0.0), (7, 1.0), (2**63 - 1, 0.25), (2**63 - 1, 0.9), (2**63 - 1, 1e-18)]


@pytest.mark.skipif(sys.version_info < (3, 12), reason="binomialvariate is new in Python 3.12")
def test_binomial_draws_equal_the_standard_library():
    meta = random.Random(2024)
    cases = list(_BINOMIAL_CASES)
    for _ in range(100):
        n = meta.choice((2, 3, 30, 10**4, 10**9, 2**63 - 1))
        cases += [(n, meta.random()), (n, min(1.0, 10.0 * meta.random() / n))]
    for seed, (n, p) in enumerate(cases):
        ours, theirs = random.Random(seed), random.Random(seed)
        draws = [_binomial(ours.random, n, p) for _ in range(20)]
        assert draws == [theirs.binomialvariate(n, p) for _ in range(20)], (seed, n, p)
        assert ours.getstate() == theirs.getstate(), (seed, n, p)


@pytest.mark.parametrize("n,p", [(12, 0.3), (40, 0.2), (1000, 0.004), (150, 0.35), (400, 0.9)])
def test_binomial_draws_fit_the_binomial_pmf(n, p):
    # Pearson's chi-square over bins with an expected count of at least 5,
    # against the chi-square quantile at z = 5 (Wilson-Hilferty)
    draws = 20_000
    rng = random.Random(n)
    observed = [0] * (n + 1)
    for _ in range(draws):
        observed[_binomial(rng.random, n, p)] += 1
    bins = [[0, 0.0]]  # observed and expected counts, merged from k = 0 up
    for k in range(n + 1):
        if bins[-1][1] >= 5.0:
            bins.append([0, 0.0])
        bins[-1][0] += observed[k]
        bins[-1][1] += draws * math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
    if bins[-1][1] < 5.0:
        o, e = bins.pop()
        bins[-1][0] += o
        bins[-1][1] += e
    stat = sum((o - e) ** 2 / e for o, e in bins)
    df = len(bins) - 1
    limit = df * (1.0 - 2.0 / (9.0 * df) + 5.0 * math.sqrt(2.0 / (9.0 * df))) ** 3
    assert df >= 3
    assert stat < limit, (stat, limit, df)


def test_sampling_puts_no_count_on_a_zero_entry():
    # the perfect box, and product boxes with one entry of 1 per setting pair
    boxes = [builtin_box("perfect"), builtin_box("anticorrelated")]
    boxes += [product_box(a, b) for a in ((1.0, 0.0), (0.0, 1.0)) for b in ((0.0, 1.0), (1.0, 1.0))]
    for i, box in enumerate(boxes):
        for n in (1, 1000, 2**63 - 1):
            report = sample_outcomes(box, n, seed=i)
            for pair, probs in zip(_pairs(report.counts), _pairs(box.probs.tolist())):
                assert sum(pair) == n
                assert all(c == 0 for c, q in zip(pair, probs) if q == 0.0), (box.probs, pair)


def test_sampling_places_every_draw_where_p_over_rest_rounds_above_1():
    # 1.0 - 0.1 is 0.9, below the second entry: the ratio is above 1, and the
    # second outcome takes every draw the first leaves
    pair = [[0.1, math.nextafter(0.9, 1.0)], [0.0, 0.0]]
    box = NoSignallingBox([[pair, pair], [pair, pair]])
    assert box.probs[0, 0, 0, 1] / (1.0 - box.probs[0, 0, 0, 0]) > 1.0
    for seed in range(20):
        for c0, c1, c2, c3 in _pairs(sample_outcomes(box, 10_000, seed).counts):
            assert (c0 + c1, c2, c3) == (10_000, 0, 0) and 800 < c0 < 1200


def _pairs(table):
    """The four outcome counts (or probabilities) of each setting pair, flat."""
    return [[v for row in table[x][y] for v in row] for x in (0, 1) for y in (0, 1)]


# ------------------------------------------------------------------ builtins


def test_builtin_boxes_are_no_signalling():
    for name in BUILTIN_BOXES:
        report = check_no_signalling(builtin_box(name))
        assert report.passed, name
        assert report.max_deviation <= 1e-12, name


def test_builtin_superquantum_box_correlations():
    box = builtin_box("superquantum-eq2")
    assert box.correlations().tolist() == [[1.0, 1.0], [1.0, -1.0]]
    assert chsh(box).value == 4.0


def test_unknown_builtin_raises():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_box("nope")


def test_box_from_model_matches_direct_evaluation():
    model = SingletModel()
    angles = ANGLE_PRESETS["eq2"]
    box = box_from_model(model, *angles)
    direct = chsh_at_angles(model, *angles)
    assert chsh(box).value == pytest.approx(direct.value, abs=1e-12)


# ------------------------------------------------- box path against the loops


def _oracle_boxes(rng):
    """Seeded Dirichlet boxes (almost all signalling), lifted correlations,
    product boxes and boxes of every model at random axes."""
    boxes = [NoSignallingBox(rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2))
             for _ in range(300)]
    boxes += [box_from_correlation(rng.uniform(-1.0, 1.0, (2, 2))) for _ in range(50)]
    boxes += [product_box(rng.uniform(size=2), rng.uniform(size=2)) for _ in range(50)]
    for model in _all_models():
        boxes += [box_from_model(model, *rng.uniform(-PI, PI, 4).tolist()) for _ in range(10)]
    return boxes


def test_box_path_matches_per_setting_loops(rng):
    boxes = _oracle_boxes(rng)
    for box, other in zip(boxes, boxes[1:] + boxes[:1]):
        p = box.probs
        e = box_oracle.correlations(p)
        assert box.correlations().tobytes() == e.tobytes()
        e00, e01, e10, e11 = e.ravel().tolist()
        assert chsh(box) == ChshResult(e00 + e01 + e10 - e11, (e00, e01, e10, e11))
        dev = box_oracle.no_signalling_deviation(p)
        assert check_no_signalling(box) == NoSignallingReport(dev <= 1e-12, dev, 1e-12)
        strength = float(rng.uniform())
        jammed = apply_jamming(box, strength)
        want = NoSignallingBox(box_oracle.jammed_probs(p, strength))
        assert jammed.probs.tobytes() == want.probs.tobytes()
        for a, b in ((box, jammed), (box, other)):
            dev = box_oracle.unary_deviation(a.probs, b.probs)
            assert check_unary(a, b) == UnaryReport(dev <= 1e-12, dev, 1e-12)


def test_box_constructors_match_per_setting_loops(rng):
    for _ in range(200):
        e = rng.uniform(-1.0, 1.0, (2, 2))
        want = NoSignallingBox(box_oracle.lifted_probs(e))
        assert box_from_correlation(e).probs.tobytes() == want.probs.tobytes()
        c = float(e[0, 0])
        scalar = NoSignallingBox(box_oracle.lifted_probs(np.full((2, 2), c)))
        assert box_from_correlation(c).probs.tobytes() == scalar.probs.tobytes()
        pa, pb = rng.uniform(size=2).tolist(), rng.uniform(size=2).tolist()
        want = NoSignallingBox(box_oracle.product_probs(pa, pb))
        assert product_box(pa, pb).probs.tobytes() == want.probs.tobytes()
    for e in (0.0, 1.0, -1.0):
        want = NoSignallingBox(box_oracle.lifted_probs(np.full((2, 2), e)))
        assert box_from_correlation(e).probs.tobytes() == want.probs.tobytes()


def test_sampling_matches_per_setting_loops(rng):
    for model in _all_models()[:6]:
        box = box_from_model(model, *rng.uniform(-PI, PI, 4).tolist())
        n, seed = int(rng.integers(1, 5000)), int(rng.integers(2**31))
        report = sample_outcomes(box, n, seed)
        corr, estimate, std_error = box_oracle.sample_statistics(report.counts, n)
        assert np.array(report.correlations).tobytes() == corr.tobytes()
        assert (report.chsh_estimate, report.std_error) == (estimate, std_error)


@pytest.mark.parametrize("n", [2**53 - 1, 2**53 + 1, 2**62 + 12345, 2**63 - 1])
def test_sampling_matches_per_setting_loops_at_large_n(rng, n):
    # beyond 2**53 counts round on their way to floats, so the statistics must
    # convert and sum as numpy's int64 arrays do
    boxes = [box_from_model(model, *rng.uniform(-PI, PI, 4).tolist()) for model in _all_models()]
    boxes += [NoSignallingBox(rng.dirichlet(np.ones(4), size=(2, 2)).reshape(2, 2, 2, 2))
              for _ in range(10)]
    for box in boxes:
        report = sample_outcomes(box, n, int(rng.integers(2**31)))
        assert [sum(pair) for pair in _pairs(report.counts)] == [n] * 4
        corr, estimate, std_error = box_oracle.sample_statistics(report.counts, n)
        assert np.array(report.correlations).tobytes() == corr.tobytes()
        assert (report.chsh_estimate.hex(), report.std_error.hex()) == (estimate.hex(), std_error.hex())
