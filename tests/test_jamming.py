import json
import math

import numpy as np
import pytest

from nonlocality import (
    BUILTIN_BOXES,
    Event,
    JammingConfiguration,
    JamScenario,
    LightCone,
    apply_jamming,
    binary_condition,
    box_from_correlation,
    builtin_box,
    check_no_signalling,
    check_unary,
    chsh,
    detect_causal_loops,
    influence_edges,
    interval,
    latest_jammer_time,
    validate_configuration,
)
from nonlocality.spacetime import NULL, SPACELIKE, cone_slack

from conftest import (
    apex_check_1d,
    boost_configuration,
    canonical_pair,
    random_boost,
    random_holding_configuration,
    random_holding_scenario,
    random_valid_configuration,
)
from ridge_oracle import ridge_margin


def cfg_1d(jx, jt):
    a, b = canonical_pair(1)
    return JammingConfiguration(a=a, b=b, j=Event((jx,), jt))


def cfg_2d(jx, jy, jt):
    a, b = canonical_pair(2)
    return JammingConfiguration(a=a, b=b, j=Event((jx, jy), jt))


# --------------------------------------------------------------- validation


def test_validate_midpoint_jammer_is_valid():
    val = validate_configuration(cfg_1d(0.0, 0.5))
    assert val.valid and not val.on_boundary
    assert val.ab.squared == -4.0
    assert val.aj.squared == pytest.approx(-0.75)
    assert val.bj.squared == pytest.approx(-0.75)


def test_validate_timelike_jammer_is_invalid():
    val = validate_configuration(cfg_1d(0.0, 1.5))
    assert not val.valid
    assert val.aj.kind == "timelike"


def test_validate_null_jammer_is_boundary():
    val = validate_configuration(cfg_1d(0.0, 1.0))
    assert not val.valid
    assert val.on_boundary
    assert val.aj.kind == NULL and val.bj.kind == NULL


def test_configuration_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        JammingConfiguration(
            a=Event((-1.0,), 0.0), b=Event((1.0,), 0.0), j=Event((0.0, 0.0), 0.5)
        )


def test_configuration_json_roundtrip():
    cfg = cfg_2d(0.1, -0.2, 0.3)
    data = json.loads(json.dumps(cfg.to_json()))
    assert JammingConfiguration.from_json(data) == cfg
    data["d"] = 3
    with pytest.raises(ValueError, match="dimension"):
        JammingConfiguration.from_json(data)


# --------------------------------------------------------- binary condition


def test_binary_1d_midpoint_holds_with_apex_slack():
    verdict = binary_condition(cfg_1d(0.0, 0.5))
    assert verdict.holds
    assert verdict.margin == pytest.approx(0.5, abs=1e-12)
    assert verdict.witness is None


def test_binary_1d_far_jammer_fails_at_apex():
    verdict = binary_condition(cfg_1d(2.0, 0.0))
    assert not verdict.holds
    assert verdict.margin == pytest.approx(-1.0, abs=1e-12)
    assert verdict.witness == Event((0.0,), 1.0)


def test_binary_2d_origin_holds_asymptotically():
    verdict = binary_condition(cfg_2d(0.0, 0.0, 0.0))
    assert verdict.holds
    assert verdict.margin == pytest.approx(0.0, abs=1e-12)


def test_binary_2d_above_origin_fails():
    verdict = binary_condition(cfg_2d(0.0, 0.0, 0.1))
    assert not verdict.holds
    assert verdict.margin == pytest.approx(-0.1, abs=1e-9)
    w = verdict.witness
    # witness lies in the (closed) overlap and outside the jammer's cone
    assert cone_slack(w, LightCone(Event((-1.0, 0.0), 0.0))) >= -1e-9
    assert cone_slack(w, LightCone(Event((1.0, 0.0), 0.0))) >= -1e-9
    assert cone_slack(w, LightCone(Event((0.0, 0.0), 0.1))) < -1e-9


def test_binary_requires_mutually_spacelike():
    with pytest.raises(ValueError, match="spacelike"):
        binary_condition(cfg_1d(0.0, 1.5))


def test_binary_margin_is_frame_invariant(rng):
    cfg = cfg_1d(0.2, 0.3)
    base = binary_condition(cfg)
    for _ in range(20):
        moved = boost_configuration(cfg, random_boost(rng, 1, max_speed=0.9))
        verdict = binary_condition(moved)
        assert verdict.holds == base.holds
        assert verdict.margin == pytest.approx(base.margin, abs=1e-9)


def test_binary_verdict_invariant_under_boosts(rng):
    checked = 0
    for _ in range(150):
        d = int(rng.integers(1, 4))
        cfg = random_valid_configuration(rng, d)
        verdict = binary_condition(cfg)
        if abs(verdict.margin) <= 1e-7:
            continue
        moved = boost_configuration(cfg, random_boost(rng, d, max_speed=0.9))
        assert binary_condition(moved).holds == verdict.holds
        checked += 1
    assert checked > 50


def test_binary_1d_matches_apex_oracle(rng):
    for _ in range(2000):
        cfg = random_valid_configuration(rng, 1)
        assert binary_condition(cfg).holds == apex_check_1d(cfg)


def test_binary_monotone_towards_the_past(rng):
    # a jammer deeper in the causal past has a larger future cone
    hits = 0
    for _ in range(200):
        cfg = random_holding_configuration(rng, int(rng.integers(1, 4)), allow_boost=False)
        assert binary_condition(cfg).holds
        d = cfg.d
        direction = rng.normal(size=d)
        dt = rng.uniform(0.1, 1.0)
        shift = rng.uniform(0.0, 0.9) * dt * direction / max(np.linalg.norm(direction), 1e-12)
        j_past = Event(tuple(cfg.j.xvec() - shift), cfg.j.t - dt)
        older = JammingConfiguration(a=cfg.a, b=cfg.b, j=j_past)
        if not validate_configuration(older).valid:
            continue
        assert binary_condition(older).holds
        hits += 1
    assert hits > 50


def _sample_overlap_point(rng, cfg, t_max=50.0):
    """Rejection-sample a point of the closed overlap of the forward cones."""
    a, b = cfg.a, cfg.b
    while True:
        t = rng.uniform(min(a.t, b.t), t_max)
        center = (a.xvec() + b.xvec()) / 2.0
        x = center + rng.uniform(-t_max, t_max, size=cfg.d)
        e = Event(tuple(x), t)
        if cone_slack(e, LightCone(a)) >= 0.0 and cone_slack(e, LightCone(b)) >= 0.0:
            return e


def test_binary_monte_carlo_soundness(rng):
    for _ in range(40):
        d = int(rng.integers(1, 4))
        cfg = random_holding_configuration(rng, d, allow_boost=False)
        verdict = binary_condition(cfg)
        assert verdict.holds
        cone_j = LightCone(cfg.j)
        for _ in range(100):
            p = _sample_overlap_point(rng, cfg)
            assert cone_slack(p, cone_j) >= -1e-9


def test_binary_witness_is_sound(rng):
    found = 0
    for _ in range(200):
        d = int(rng.integers(1, 4))
        cfg = random_valid_configuration(rng, d)
        verdict = binary_condition(cfg)
        if verdict.holds:
            continue
        w = verdict.witness
        assert w is not None
        assert cone_slack(w, LightCone(cfg.a)) >= -1e-7
        assert cone_slack(w, LightCone(cfg.b)) >= -1e-7
        assert cone_slack(w, LightCone(cfg.j)) < 1e-9
        found += 1
    assert found > 50


def test_binary_closed_form_matches_ridge_search():
    # 3,000 general-frame triples, 1,000 per d: random pairs with a free
    # jammer, and holding triples that are scaled, shifted and (half of
    # them) boosted
    rng = np.random.default_rng(3781)
    worst = 0.0
    for i in range(3000):
        d = 1 + i % 3
        if i % 2:
            cfg = random_valid_configuration(rng, d)
        else:
            cfg = random_holding_configuration(rng, d)
        verdict = binary_condition(cfg)
        oracle = ridge_margin(cfg)
        worst = max(worst, abs(verdict.margin - oracle))
        assert verdict.holds == (oracle >= -1e-9)
        if not verdict.holds:
            w = verdict.witness
            assert cone_slack(w, LightCone(cfg.a)) >= -1e-7
            assert cone_slack(w, LightCone(cfg.b)) >= -1e-7
            assert cone_slack(w, LightCone(cfg.j)) < 0.0
    assert worst <= 1e-9


# ------------------------------------------------------- latest jammer time


@pytest.mark.parametrize(
    "d, position, time, attained",
    [
        (1, (-0.75,), 0.25, False),
        (2, (-0.4, 1.6), -1.6, True),
        (2, (0.9, -0.3), -0.3, True),
        (2, (1.0 - 1e-12, 0.5), -0.5, False),  # null to b within tol: not attained
        (3, (0.2, 0.3, -0.4), -0.5, True),
    ],
)
def test_latest_jammer_time_closed_form(d, position, time, attained):
    res = latest_jammer_time(d, position=position)
    assert res.time == pytest.approx(time, abs=1e-12)
    assert res.attained is attained
    assert res.d == d


@pytest.mark.parametrize("position", [(5.0,), (-1.5,), (1.5, 0.3)])
def test_latest_jammer_time_empty_window_raises(position):
    # the binary condition needs j_t at or below the nearer measurement's
    # past cone, validity needs j_t strictly above it
    with pytest.raises(ValueError, match="empty"):
        latest_jammer_time(len(position), position=position)


def test_latest_jammer_1d_window_not_attained():
    res = latest_jammer_time(1)
    assert res.time == pytest.approx(1.0, abs=1e-6)
    assert not res.attained


def test_latest_jammer_2d_and_3d_zero():
    res2 = latest_jammer_time(2)
    assert res2.time == pytest.approx(0.0, abs=1e-6)
    assert res2.attained
    res3 = latest_jammer_time(3)
    assert res3.time == pytest.approx(0.0, abs=1e-6)
    assert res3.attained


def test_latest_jammer_1d_off_center():
    # validity against the nearer measurement bounds the window by 1 - |x|
    res = latest_jammer_time(1, position=(0.5,))
    assert res.time == pytest.approx(0.5, abs=1e-6)
    assert not res.attained


def test_latest_jammer_bad_position():
    with pytest.raises(ValueError, match="dimension"):
        latest_jammer_time(2, position=(0.0,))


# ------------------------------------------------------------ box transform


def test_apply_jamming_destroys_correlations():
    box = builtin_box("singlet-eq2")
    jammed = apply_jamming(box)
    assert np.allclose(jammed.correlations(), 0.0, atol=1e-12)
    assert chsh(jammed).value == pytest.approx(0.0, abs=1e-12)


def test_apply_jamming_fixes_product_boxes():
    from nonlocality import product_box

    box = product_box((0.3, 0.8), (0.6, 0.1))
    jammed = apply_jamming(box)
    assert np.allclose(jammed.probs, box.probs, atol=1e-12)


def test_apply_jamming_perfect_box_becomes_uniform():
    jammed = apply_jamming(box_from_correlation(1.0))
    assert np.all(jammed.probs == 0.25)


def test_apply_jamming_idempotent():
    for name in BUILTIN_BOXES:
        once = apply_jamming(builtin_box(name))
        twice = apply_jamming(once)
        assert np.array_equal(once.probs, twice.probs)


def test_apply_jamming_partial_strength():
    box = builtin_box("superquantum-eq2")
    half = apply_jamming(box, strength=0.5)
    assert chsh(half).value == pytest.approx(2.0, abs=1e-12)
    same = apply_jamming(box, strength=0.0)
    assert np.array_equal(same.probs, box.probs)
    with pytest.raises(ValueError, match="strength"):
        apply_jamming(box, strength=1.5)


def test_check_unary_passes_for_jamming():
    for name in BUILTIN_BOXES:
        box = builtin_box(name)
        report = check_unary(box, apply_jamming(box))
        assert report.holds
        assert report.max_deviation == 0.0


def test_check_unary_detects_biased_replacement():
    original = box_from_correlation(0.0)
    biased = product_box_shifted()
    report = check_unary(original, biased)
    assert not report.holds
    assert report.max_deviation == pytest.approx(0.2, abs=1e-12)


def product_box_shifted():
    from nonlocality import product_box

    return product_box((0.7, 0.5), (0.5, 0.5))


def test_jammed_boxes_are_classical_and_no_signalling():
    for name in BUILTIN_BOXES:
        jammed = apply_jamming(builtin_box(name))
        assert abs(chsh(jammed).value) <= 2.0 + 1e-12
        assert check_no_signalling(jammed).passed


# ------------------------------------------------------------ causal loops


def test_single_configuration_is_acyclic():
    report = detect_causal_loops(JamScenario((cfg_1d(0.0, 0.5),)))
    assert report.acyclic
    assert report.cycle is None
    assert report.edges == ()


def test_two_configurations_one_edge():
    first = cfg_1d(0.0, 0.5)
    # second pair shifted two units into the future: its jammer sits inside
    # the first overlap, but not conversely
    second = JammingConfiguration(
        a=Event((-1.0,), 2.0), b=Event((1.0,), 2.0), j=Event((0.0,), 2.5)
    )
    # independent membership computation
    j2 = second.j
    assert cone_slack(j2, LightCone(first.a)) >= 0
    assert cone_slack(j2, LightCone(first.b)) >= 0
    assert cone_slack(first.j, LightCone(second.a)) < 0
    scenario = JamScenario((first, second))
    report = detect_causal_loops(scenario)
    assert report.acyclic
    assert report.edges == ((0, 1),)


def test_cycle_detection_on_artificial_graph():
    # two mutually spacelike pairs whose jammers each sit in the other's
    # overlap cannot arise when the binary conditions hold; force the graph
    # code path directly
    from nonlocality.jamming import _find_cycle

    assert _find_cycle(3, [[1], [2], [0]]) is not None
    assert _find_cycle(3, [[1], [2], []]) is None
    cycle = _find_cycle(2, [[1], [0]])
    assert cycle in ((0, 1), (1, 0))


def test_randomized_scenarios_are_acyclic(rng):
    for _ in range(300):
        d = 1 if rng.random() < 0.8 else 2
        scenario = random_holding_scenario(rng, d, int(rng.integers(2, 7)))
        for cfg in scenario.configurations:
            assert binary_condition(cfg).holds
        report = detect_causal_loops(scenario)
        assert report.acyclic, report.edges


def test_scenario_rejects_invalid_configuration():
    good = cfg_1d(0.0, 0.5)
    bad = JammingConfiguration(
        a=Event((-1.0,), 0.0), b=Event((1.0,), 0.0), j=Event((0.0,), 1.5)
    )
    with pytest.raises(ValueError, match="not mutually spacelike"):
        detect_causal_loops(JamScenario((good, bad)))


def test_scenario_json_roundtrip():
    scenario = JamScenario((cfg_1d(0.0, 0.5), cfg_1d(0.2, -0.3)))
    data = json.loads(json.dumps(scenario.to_json()))
    assert JamScenario.from_json(data) == scenario
