import dataclasses
import json
import math

import numpy as np
import pytest

from nonlocality import (
    BUILTIN_BOXES,
    Event,
    JammingConfiguration,
    JamScenario,
    achievable_orderings,
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
from nonlocality import jamming
from nonlocality.spacetime import NULL, SPACELIKE, cone_slack

from conftest import (
    apex_check_1d,
    boost_configuration,
    canonical_pair,
    random_boost,
    random_event,
    random_holding_configuration,
    random_holding_scenario,
    random_spacelike_pair,
    random_valid_configuration,
)
from ridge_oracle import ridge_margin
import verdict_oracle


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


@pytest.mark.parametrize("d", [1.7, True, "1", None, 1e300])
def test_configuration_json_d_must_be_an_integer(d):
    # 1.7, true and "1" used to pass as d = 1
    data = {"a": [-1.0, 0.0], "b": [1.0, 0.0], "j": [0.0, 0.5], "d": d}
    with pytest.raises(ValueError, match="configuration key 'd'"):
        JammingConfiguration.from_json(data)
    data["d"] = 1.0
    assert JammingConfiguration.from_json(data).d == 1


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
    assert cone_slack(w, Event((-1.0, 0.0), 0.0)) >= -1e-9
    assert cone_slack(w, Event((1.0, 0.0), 0.0)) >= -1e-9
    assert cone_slack(w, Event((0.0, 0.0), 0.1)) < -1e-9


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
        j_past = Event(tuple(np.asarray(cfg.j.x) - shift), cfg.j.t - dt)
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
        center = (np.asarray(a.x) + np.asarray(b.x)) / 2.0
        x = center + rng.uniform(-t_max, t_max, size=cfg.d)
        e = Event(tuple(x), t)
        if cone_slack(e, a) >= 0.0 and cone_slack(e, b) >= 0.0:
            return e


def test_binary_monte_carlo_soundness(rng):
    for _ in range(40):
        d = int(rng.integers(1, 4))
        cfg = random_holding_configuration(rng, d, allow_boost=False)
        verdict = binary_condition(cfg)
        assert verdict.holds
        for _ in range(100):
            p = _sample_overlap_point(rng, cfg)
            assert cone_slack(p, cfg.j) >= -1e-9


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
        assert cone_slack(w, cfg.a) >= -1e-7
        assert cone_slack(w, cfg.b) >= -1e-7
        assert cone_slack(w, cfg.j) < 1e-9
        found += 1
    assert found > 50


@pytest.mark.parametrize("d", [1, 2, 3])
def test_binary_condition_is_a_statement_about_frames(d):
    # the paper's headline claim, one configuration at a time: in d >= 2 the
    # binary condition holds iff no boost puts j after both measurements; in
    # d = 1 every failing jammer can come last, and so can a holding one.
    # Holding triples in a random frame alternate with free jammers, which
    # in d = 3 almost never hold.
    rng = np.random.default_rng(820 + d)
    seen = {True: 0, False: 0}
    holding_j_last = 0
    while sum(seen.values()) < 300:
        if sum(seen.values()) % 2:
            cfg = random_holding_configuration(rng, d)
        else:
            cfg = random_valid_configuration(rng, d)
        verdict = binary_condition(cfg)
        if abs(verdict.margin) < 1e-6:
            continue
        seen[verdict.holds] += 1
        j_last = any(order[-1] == 2 for order in achievable_orderings([cfg.a, cfg.b, cfg.j]))
        if d >= 2:
            assert verdict.holds != j_last, (cfg, verdict)
        elif not verdict.holds:
            assert j_last, (cfg, verdict)
        else:
            holding_j_last += j_last
    assert seen[True] and seen[False]
    if d == 1:
        assert holding_j_last  # the reversal of cause and effect


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
            assert cone_slack(w, cfg.a) >= -1e-7
            assert cone_slack(w, cfg.b) >= -1e-7
            assert cone_slack(w, cfg.j) < 0.0
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


@pytest.mark.parametrize("position", [(math.nan,), (math.inf,), (0.3, math.nan), (math.nan, 0.0)])
def test_latest_jammer_non_finite_position(position):
    # |nan| < 1 is false, so a NaN x_1 was reported as an empty window
    want = f"coordinates must be finite, got {position}"
    with pytest.raises(ValueError) as exc:
        latest_jammer_time(len(position), position=position)
    assert str(exc.value) == want


@pytest.mark.parametrize("d", [0, -1, -5])
def test_latest_jammer_time_needs_a_spatial_dimension(d):
    with pytest.raises(ValueError, match=f"^spatial dimension must be at least 1, got {d}$"):
        latest_jammer_time(d)
    with pytest.raises(ValueError, match="at least 1"):
        latest_jammer_time(d, position=())


# 1.5 and "2" used to fail in tuple arithmetic with a TypeError, and True
# gave a result with d=True
@pytest.mark.parametrize("d, position", [(1.5, None), ("2", None), (True, (0.2,))])
def test_latest_jammer_time_reads_d_as_an_integer(d, position):
    with pytest.raises(ValueError, match=f"^d must be an integer, got {d!r}$"):
        latest_jammer_time(d, position)


@pytest.mark.parametrize("position, first, second", [
    ((0.5, 1e200), "[-1.0, 0.0, 0.0]", "[0.5, 1e+200, -1e+200]"),
    ((0.5, 1e160, 0.0), "[-1.0, 0.0, 0.0, 0.0]", "[0.5, 1e+160, 0.0, -1e+160]"),
])
def test_latest_jammer_time_overflow_names_the_events(position, first, second):
    # time = -|x_perp| squares to inf, and so does |dx|^2: s^2 = inf - inf
    want = f"the interval between events {first} and {second} overflows: s^2 = nan"
    with pytest.raises(ValueError) as exc:
        latest_jammer_time(len(position), position)
    assert str(exc.value) == want


def _window_with_events(d, position, tol):
    """The d >= 2 window as three ``Event``s give it: time = -|x_perp|, and
    ``attained`` iff the configuration at that time is valid."""
    time = -math.hypot(*position[1:]) + 0.0
    a, b = canonical_pair(d)
    cfg = JammingConfiguration(a=a, b=b, j=Event(position, time))
    return time, validate_configuration(cfg, tol=tol).valid


def _window_positions(rng, d, tol):
    """Random positions with |x_1| < 1; positions with 1 - |x_1| within 1e-9
    of sqrt(tol), where ``attained`` flips at x_perp = 0, or of 0, the
    validity boundary, with |x_perp| from about 1e-3 to 1e3; then two
    positions whose squared intervals overflow."""
    out = [(rng.uniform(-1.0, 1.0), *rng.uniform(-3.0, 3.0, d - 1)) for _ in range(100)]
    for edge in (math.sqrt(tol), 0.0):
        for _ in range(100):
            gap = max(edge + rng.uniform(-1e-9, 1e-9), 1e-15)
            perp = rng.normal(size=d - 1) * 10.0 ** rng.uniform(-3.0, 3.0)
            out.append((rng.choice([-1.0, 1.0]) * (1.0 - gap), *perp))
    out += [(0.5, 1e200, *[0.0] * (d - 2)), (-0.5, *[1e160] * (d - 1))]
    return [tuple(map(float, p)) for p in out]


@pytest.mark.parametrize("tol", [None, 1e-6])
@pytest.mark.parametrize("d", [2, 3])
def test_latest_jammer_time_matches_event_computation(d, tol):
    # the window is computed in scalars; time bits, attained and the
    # overflow error must be those of the three events it stands for
    rng = np.random.default_rng(40 + d)
    seen = set()
    for position in _window_positions(rng, d, tol or 1e-9):
        got = _outcome(latest_jammer_time, d, position, tol=tol)
        want = _outcome(_window_with_events, d, position, tol)
        if got[0] == "ok":
            fields = dict(got[1][1])
            got = "ok", (fields["time"], fields["attained"])
        assert got == want, position
        seen.add(got[0] if got[0] != "ok" else got[1][1])
    assert seen == {True, False, "ValueError"}


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
    assert cone_slack(j2, first.a) >= 0
    assert cone_slack(j2, first.b) >= 0
    assert cone_slack(first.j, second.a) < 0
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


def test_scenario_rejects_mixed_dimensions():
    mixed = (cfg_1d(0.0, 0.5), cfg_2d(0.0, 0.1, 0.5))
    with pytest.raises(ValueError, match=r"mismatched dimensions: \[1, 2\]"):
        JamScenario(mixed)
    with pytest.raises(ValueError, match=r"mismatched dimensions: \[1, 2\]"):
        JamScenario.from_json([c.to_json() for c in mixed])


def test_scenario_json_roundtrip():
    scenario = JamScenario((cfg_1d(0.0, 0.5), cfg_1d(0.2, -0.3)))
    data = json.loads(json.dumps(scenario.to_json()))
    assert JamScenario.from_json(data) == scenario


# ---------------------------------------------------------------- tolerance


def _tol_calls():
    a, b = canonical_pair(2)
    cfg = JammingConfiguration(a=a, b=b, j=Event((0.0, 0.3), -0.5))
    scenario = JamScenario((cfg,))
    return {
        "achievable_orderings": lambda tol: achievable_orderings([a, b, cfg.j], tol=tol),
        "interval": lambda tol: interval(a, b, tol=tol),
        "validate_configuration": lambda tol: validate_configuration(cfg, tol=tol),
        "binary_condition": lambda tol: binary_condition(cfg, tol=tol),
        "latest_jammer_time": lambda tol: latest_jammer_time(2, (0.3, 0.4), tol=tol),
        "influence_edges": lambda tol: influence_edges(scenario, tol=tol),
        "detect_causal_loops": lambda tol: detect_causal_loops(scenario, tol=tol),
    }


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-9, True, "1e-9"])
@pytest.mark.parametrize("call", sorted(_tol_calls()))
def test_tolerance_must_be_finite_and_positive(call, value):
    # tol=-1 made a spacelike pair timelike and nan made every interval null;
    # True was a band of 1.0 and "1e-9" was parsed
    fn = _tol_calls()[call]
    fn(1e-9)
    with pytest.raises(ValueError, match="tol must be a finite number > 0"):
        fn(value)


def _band_sensitive_calls():
    """Calls whose outcome at tol 0.5 differs from the one at the default
    1e-9: j is spacelike to a and b, but inside a 0.5 band of null."""
    cfg = cfg_1d(0.0, 0.8)
    events = [Event((0.0,), 0.0), Event((2.0,), 0.3), Event((5.0,), -0.2)]
    return {
        "validate_configuration": lambda **kw: validate_configuration(cfg, **kw),
        "binary_condition": lambda **kw: binary_condition(cfg, **kw),
        "latest_jammer_time": lambda **kw: latest_jammer_time(2, (0.3, 0.4), **kw),
        "detect_causal_loops": lambda **kw: detect_causal_loops(JamScenario((cfg,)), **kw),
        "achievable_orderings": lambda **kw: tuple(achievable_orderings(events, **kw).items()),
    }


@pytest.mark.parametrize("env", ["0.5", "abc"])
def test_defaulted_calls_do_not_read_the_environment(monkeypatch, env):
    # NONLOCALITY_TOL used to set the band of every call without a tol (0.5
    # here) or make each raise (abc); None now always means 1e-9
    calls = _band_sensitive_calls()
    expected = {name: _outcome(fn) for name, fn in calls.items()}
    monkeypatch.setenv("NONLOCALITY_TOL", env)
    assert {name: _outcome(fn) for name, fn in calls.items()} == expected
    # each call tells the two bands apart, and None is the default
    assert all(expected[name] != _outcome(fn, tol=0.5) for name, fn in calls.items())
    assert expected == {name: _outcome(fn, tol=1e-9) for name, fn in calls.items()}


# ------------------------------------------------- one-pass verdicts, oracle


def _bits(value):
    """Comparable form of a verdict: floats by ``float.hex``, dataclasses
    field by field, tuples item by item."""
    if isinstance(value, float):
        return value.hex()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, tuple(
            (f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value)
        )
    if isinstance(value, tuple):
        return tuple(_bits(item) for item in value)
    return value


def _outcome(fn, *args, **kwargs):
    try:
        return "ok", _bits(fn(*args, **kwargs))
    except Exception as exc:  # compared by type and text
        return type(exc).__name__, str(exc)


def _shifted(e, dx, dt):
    return Event(tuple(p + q for p, q in zip(e.x, dx)), e.t + dt)


def _near_null(rng, e, d, band):
    """An event whose s^2 to ``e`` lies within about +-2 band of 0."""
    n = rng.normal(size=d)
    n /= max(np.linalg.norm(n), 1e-12)
    r = rng.uniform(0.5, 3.0)
    eps = rng.uniform(-2.0, 2.0) * band / (2.0 * r * r)
    return _shifted(e, r * n, r * (1.0 + eps) * rng.choice([-1.0, 1.0]))


def _oracle_triples(rng, d, band):
    """Configurations in general frames, with a pair within +-2 band of
    null, with a timelike pair, and with overflowing s^2."""
    out = []
    for _ in range(12):
        out.append(random_valid_configuration(rng, d))
        out.append(random_holding_configuration(rng, d))
        a, b = random_spacelike_pair(rng, d)
        out.append(JammingConfiguration(a=a, b=b, j=random_event(rng, d)))
        cfg = random_valid_configuration(rng, d)
        near = _near_null(rng, cfg.a if rng.random() < 0.5 else cfg.b, d, band)
        out.append(dataclasses.replace(cfg, j=near))
        out.append(dataclasses.replace(cfg, b=_near_null(rng, cfg.a, d, band)))
        out.append(dataclasses.replace(cfg, j=_shifted(cfg.a, 0.1 * rng.normal(size=d), 2.0)))
        big = 1e160 * rng.uniform(0.5, 2.0)
        far = Event(tuple(big * rng.normal(size=d)), big * rng.normal())
        out.append(dataclasses.replace(cfg, j=far))
        out.append(JammingConfiguration(
            a=Event(tuple(big * c for c in cfg.a.x), big * cfg.a.t),
            b=Event(tuple(big * c for c in cfg.b.x), big * cfg.b.t),
            j=Event(tuple(big * c for c in cfg.j.x), big * cfg.j.t),
        ))
    return out


def _oracle_positions(rng, d, band):
    out = [tuple(rng.uniform(-1.5, 1.5, size=d)) for _ in range(20)]
    for _ in range(20):
        x1 = rng.choice([-1.0, 1.0]) * (1.0 - rng.uniform(0.0, 3.0) * band)
        out.append((x1, *rng.uniform(-1.0, 1.0, size=d - 1)))
    return [tuple(map(float, p)) for p in out]


# (tol argument, width of the near-null band)
_ORACLE_SETTINGS = [
    (None, 1e-9), (1e-12, 1e-12), (1e-3, 1e-3), (0.0, 1e-9),
    (1e-3, 1e-3), (2.5e-7, 2.5e-7), (1e-9, 1e-9), (math.nan, 1e-9),
]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_pass_verdicts_match_oracle(d):
    rng = np.random.default_rng(1300 + d)
    seen = set()
    for tol, band in _ORACLE_SETTINGS:
        # the generators validate under the default tolerance
        triples = _oracle_triples(rng, d, band)
        positions = _oracle_positions(rng, d, band)
        for cfg in triples:
            for name in ("validate_configuration", "binary_condition"):
                got = _outcome(getattr(jamming, name), cfg, tol=tol)
                want = _outcome(getattr(verdict_oracle, name), cfg, tol=tol)
                assert got == want, (name, cfg, tol)
                fields = dict(got[1][1]) if got[0] == "ok" else {}
                seen.add((name, got[0], fields.get("holds", fields.get("on_boundary"))))
        for _ in range(40):
            picks = rng.choice(len(triples), size=int(rng.integers(1, 5)), replace=False)
            scenario = JamScenario(tuple(triples[i] for i in picks))
            got = _outcome(jamming.detect_causal_loops, scenario, tol=tol)
            assert got == _outcome(verdict_oracle.detect_causal_loops, scenario, tol=tol)
            seen.add(("detect_causal_loops", got[0], None))
        for position in positions:
            got = _outcome(jamming.latest_jammer_time, d, position, tol=tol)
            assert got == _outcome(verdict_oracle.latest_jammer_time, d, position, tol=tol)
            seen.add(("latest_jammer_time", got[0], None))
    # every branch was compared: holding and failing verdicts, j on and off
    # the boundary, errors
    assert {("binary_condition", "ok", True), ("binary_condition", "ok", False),
            ("binary_condition", "ValueError", None), ("validate_configuration", "ok", True),
            ("validate_configuration", "ok", False), ("validate_configuration", "ValueError", None), ("detect_causal_loops", "ok", None),
            ("detect_causal_loops", "ValueError", None), ("latest_jammer_time", "ok", None),
            ("latest_jammer_time", "ValueError", None)} <= seen
