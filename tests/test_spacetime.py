import itertools
import math
import operator
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonlocality import (
    Boost,
    Event,
    achievable_orderings,
    boost,
    interval,
)
from nonlocality.spacetime import (
    GEOMETRIC_TOL,
    MAX_ORDERING_EVENTS,
    NULL,
    SPACELIKE,
    TIMELIKE,
    _dot,
    _face_point,
    _pair_point,
    _row_point,
    cone_slack,
)

from conftest import random_boost, random_spacelike_pair
from grid_oracle import grid_orderings
import ordering_oracle
from ridge_oracle import canonicalize_pair

coord = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)


def events_strategy(d):
    return st.builds(
        lambda xs, t: Event(tuple(xs), t),
        st.lists(coord, min_size=d, max_size=d),
        coord,
    )


def boost_strategy(d, max_speed=0.99):
    return st.builds(
        lambda comps: _boost_with_speed_cap(comps, max_speed),
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=d, max_size=d),
    )


def _boost_with_speed_cap(comps, max_speed):
    v = np.asarray(comps, dtype=float)
    norm = np.linalg.norm(v)
    if norm > max_speed:
        v = v * (max_speed / norm)
    return Boost(tuple(v))


# ---------------------------------------------------------------- intervals


def test_interval_canonical_pair_is_spacelike():
    iv = interval(Event((-1.0,), 0.0), Event((1.0,), 0.0))
    assert iv.kind == SPACELIKE
    assert iv.squared == -4.0


def test_interval_same_event_is_null():
    e = Event((0.3, -0.7), 1.2)
    iv = interval(e, e)
    assert iv.kind == NULL
    assert iv.squared == 0.0


def test_interval_pure_time_displacement_is_timelike():
    iv = interval(Event((0.0,), 0.0), Event((0.0,), 1.0))
    assert iv.kind == TIMELIKE
    assert iv.squared == 1.0


def test_interval_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        interval(Event((0.0,), 0.0), Event((0.0, 0.0), 0.0))


# |dx|^2 and dt^2 overflow above about 1.3e154: s^2 came out as -inf (spacelike)
# or as inf - inf = NaN (null)
@pytest.mark.parametrize("e1,e2", [
    (Event((-1e160, 0.0), 0.0), Event((1e160, 0.0), 0.0)),
    (Event((-1e160,), 0.0), Event((0.0,), -5e159)),
    (Event((0.0,), -1e160), Event((0.0,), 1e160)),
])
def test_interval_overflow_is_an_error(e1, e2):
    with pytest.raises(ValueError, match=r"between events \[.*\] and \[.*\] overflows"):
        interval(e1, e2)


@given(events_strategy(2), events_strategy(2))
def test_interval_symmetric(e1, e2):
    assert interval(e1, e2).squared == interval(e2, e1).squared


# ------------------------------------------------------------------- boosts


def test_boost_identity():
    e = Event((0.4, -1.1, 2.0), 0.7)
    assert boost(e, Boost((0.0,) * 3)) == e


def test_boost_closed_form_1d():
    # gamma = 1/sqrt(1 - 0.64) = 5/3; t' = gamma*(0 - 0.8*(-1)), x' = gamma*(-1 - 0)
    gamma = 1.0 / math.sqrt(1.0 - 0.8**2)
    e = boost(Event((-1.0,), 0.0), Boost((0.8,)))
    assert e.t == pytest.approx(gamma * 0.8, abs=1e-12)
    assert e.x[0] == pytest.approx(-gamma, abs=1e-12)


def test_boost_rejects_superluminal():
    with pytest.raises(ValueError, match="speed"):
        Boost((1.0,))
    with pytest.raises(ValueError, match="speed"):
        Boost((0.8, 0.8))


# "12" used to load as Event(x=(1.0, 2.0), ...) and "00" as a zero boost,
# and a number escaped as TypeError
@pytest.mark.parametrize("make", [lambda c: Event(c, 0.0), Boost], ids=["Event", "Boost"])
@pytest.mark.parametrize("coords", ["12", "00", b"12", 5, 0.5, None])
def test_constructors_reject_strings_and_non_iterables(make, coords):
    want = f"coordinates must be a sequence of numbers, got {coords!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        make(coords)


@settings(max_examples=80)
@given(events_strategy(3), boost_strategy(3, max_speed=0.95))
def test_boost_roundtrip_is_identity(e, bst):
    back = boost(boost(e, bst), Boost(tuple(-c for c in bst.v)))
    assert back.t == pytest.approx(e.t, abs=1e-12)
    assert np.allclose(back.x, e.x, atol=1e-12)


@settings(max_examples=80)
@given(events_strategy(2), events_strategy(2), boost_strategy(2))
def test_interval_invariance_under_boosts(e1, e2, bst):
    s2_before = interval(e1, e2).squared
    s2_after = interval(boost(e1, bst), boost(e2, bst)).squared
    assert abs(s2_after - s2_before) <= 1e-9


_SPACETIME_WITHOUT_NUMPY = """
import importlib.util, sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
spec = importlib.util.spec_from_file_location("spacetime", sys.argv[1])
st = importlib.util.module_from_spec(spec)
sys.modules["spacetime"] = st
spec.loader.exec_module(st)
a, j, b = st.Event((-1.0, 0.0), 0.0), st.Event((0.0, 0.2), 0.5), st.Event((1.0, 0.0), 0.0)
assert st.interval(a, b).kind == st.SPACELIKE
assert st.boost(a, st.Boost((0.5, 0.0))).t > 0.0
assert st.cone_slack(j, a) < 0.0
assert (0, 2, 1) in st.achievable_orderings([a, j, b])
print("ok")
"""


def test_spacetime_runs_without_numpy():
    path = Path(__file__).resolve().parents[1] / "src" / "nonlocality" / "spacetime.py"
    out = subprocess.run(
        [sys.executable, "-c", _SPACETIME_WITHOUT_NUMPY, str(path)],
        capture_output=True, text=True, check=False,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "ok\n"


def test_plain_math_matches_numpy_formulas(rng):
    # the numpy formulas the geometry layer used before it moved to math
    for _ in range(300):
        d = int(rng.integers(1, 4))
        e1 = Event(tuple(rng.uniform(-3, 3, d)), rng.uniform(-3, 3))
        e2 = Event(tuple(rng.uniform(-3, 3, d)), rng.uniform(-3, 3))
        bst = random_boost(rng, d, max_speed=0.95)
        dt = e2.t - e1.t
        dx = np.asarray(e2.x) - np.asarray(e1.x)
        want_s2 = dt * dt - float(dx @ dx)
        iv = interval(e1, e2)
        assert abs(iv.squared - want_s2) <= 1e-12 * (dt * dt + float(dx @ dx))
        want_kind = SPACELIKE if want_s2 < -1e-9 else TIMELIKE if want_s2 > 1e-9 else NULL
        assert iv.kind == want_kind

        v, x = np.asarray(bst.v), np.asarray(e1.x)
        g, vdotx = bst.gamma, float(v @ x)
        want_x = x + ((g - 1.0) * vdotx / float(v @ v) - g * e1.t) * v
        want_t = g * (e1.t - vdotx)
        got = boost(e1, bst)
        scale = g * (abs(e1.t) + float(np.abs(x).sum()))
        assert abs(got.t - want_t) <= 1e-12 * scale
        assert np.all(np.abs(np.asarray(got.x) - want_x) <= 1e-12 * scale)


# -------------------------------------------------------------------- cones


def test_cone_classification_examples():
    apex = Event((0.0,), 0.0)
    assert cone_slack(Event((0.0,), 2.0), apex) == 2.0  # inside
    assert cone_slack(Event((1.0,), 1.0), apex) == 0.0  # on the surface
    assert cone_slack(Event((2.0,), 1.0), apex) == -1.0  # outside


def test_past_cone_classification():
    apex = Event((0.0,), 0.0)
    assert cone_slack(apex, Event((0.0,), -2.0)) == 2.0
    assert cone_slack(apex, Event((0.0,), 2.0)) == -2.0


def test_cone_covariance_under_boosts(rng):
    for _ in range(200):
        d = int(rng.integers(1, 4))
        apex = Event(tuple(rng.uniform(-2, 2, d)), rng.uniform(-2, 2))
        # strictly inside: timelike future displacement
        direction = rng.normal(size=d)
        direction /= max(np.linalg.norm(direction), 1e-12)
        dt = rng.uniform(0.5, 3.0)
        radius = rng.uniform(0.0, 0.9) * dt
        e = Event(tuple(np.asarray(apex.x) + radius * direction), apex.t + dt)
        tol = GEOMETRIC_TOL
        assert cone_slack(e, apex) > tol
        bst = random_boost(rng, d, max_speed=0.9)
        assert cone_slack(boost(e, bst), boost(apex, bst)) >= -tol


# ----------------------------------------------------------- canonical frame


def test_canonicalize_already_canonical_is_identity():
    a = Event((-1.0,), 0.0)
    b = Event((1.0,), 0.0)
    fm, a2, b2 = canonicalize_pair(a, b)
    assert a2 == a and b2 == b
    assert fm.boost_velocity == (0.0,)
    assert fm.scale == 1.0
    e = Event((0.37,), -0.21)
    assert fm.apply(e) == e


def test_canonicalize_translation_and_scale():
    # midpoint 2 -> translate by -2, separation 4 -> scale by 1/2
    fm, a2, b2 = canonicalize_pair(Event((0.0,), 0.0), Event((4.0,), 0.0))
    assert fm.boost_velocity == (0.0,)
    assert fm.shift_x == (-2.0,)
    assert fm.scale == 0.5
    assert a2 == Event((-1.0,), 0.0)
    assert b2 == Event((1.0,), 0.0)


def test_canonicalize_includes_simultaneity_boost():
    # dt/dx = 1/2 is the velocity that makes the pair simultaneous
    fm, a2, b2 = canonicalize_pair(Event((0.0,), 0.0), Event((2.0,), 1.0))
    assert fm.boost_velocity[0] == pytest.approx(0.5, abs=1e-12)
    assert a2.t == pytest.approx(0.0, abs=1e-12)
    assert b2.t == pytest.approx(0.0, abs=1e-12)
    assert a2.x[0] == pytest.approx(-1.0, abs=1e-12)
    assert b2.x[0] == pytest.approx(1.0, abs=1e-12)


def test_canonicalize_requires_spacelike():
    with pytest.raises(ValueError, match="spacelike"):
        canonicalize_pair(Event((0.0,), 0.0), Event((0.0,), 1.0))


def test_canonicalize_selfcheck_random_pairs(rng):
    for _ in range(300):
        d = int(rng.integers(1, 4))
        a, b = random_spacelike_pair(rng, d)
        fm, a2, b2 = canonicalize_pair(a, b)
        assert abs(a2.t) <= 1e-12 and abs(b2.t) <= 1e-12
        assert abs(a2.x[0] + 1.0) <= 1e-12 and abs(b2.x[0] - 1.0) <= 1e-12
        assert np.allclose(a2.x[1:], 0.0, atol=1e-12)
        assert np.allclose(b2.x[1:], 0.0, atol=1e-12)
        # invertibility
        probe = random_spacelike_pair(rng, d)[0]
        back = fm.apply_inverse(fm.apply(probe))
        assert back.t == pytest.approx(probe.t, abs=1e-9)
        assert np.allclose(back.x, probe.x, atol=1e-9)


def test_canonicalize_maps_cones_to_cones(rng):
    for _ in range(200):
        d = int(rng.integers(1, 4))
        a, b = random_spacelike_pair(rng, d)
        fm, a2, _ = canonicalize_pair(a, b)
        # a point inside the future cone of a stays inside the image cone
        direction = rng.normal(size=d)
        direction /= max(np.linalg.norm(direction), 1e-12)
        dt = rng.uniform(0.1, 2.0)
        e = Event(tuple(np.asarray(a.x) + rng.uniform(0.0, 0.9) * dt * direction), a.t + dt)
        tol = GEOMETRIC_TOL
        assert cone_slack(e, a) > tol
        assert cone_slack(fm.apply(e), a2) >= -tol


# ----------------------------------------------------------------- orderings


def test_orderings_canonical_triple():
    a = Event((-1.0,), 0.0)
    j = Event((0.0,), 0.5)
    b = Event((1.0,), 0.0)
    found = achievable_orderings([a, j, b])  # indices: a=0, j=1, b=2
    # near the rest frame both measurements precede the jammer
    assert {(0, 2, 1), (2, 0, 1)} & set(found)
    # v > 0.5 realizes b, j, a; v < -0.5 realizes a, j, b
    assert (2, 1, 0) in found
    assert found[(2, 1, 0)].v[0] > 0.5
    assert (0, 1, 2) in found
    assert found[(0, 1, 2)].v[0] < -0.5


def test_orderings_two_spacelike_events_both_orders():
    found = achievable_orderings([Event((-1.0,), 0.0), Event((1.0,), 0.1)])
    assert (0, 1) in found and (1, 0) in found


def test_orderings_rejects_non_spacelike():
    with pytest.raises(ValueError, match="spacelike"):
        achievable_orderings([Event((0.0,), 0.0), Event((0.0,), 1.0)])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("third,message", [
    ((0.5, 2.0), "events 1 and 2 are timelike, not spacelike"),
    ((2.0, 2.0), "events 1 and 2 are null, not spacelike"),
    ((1e154, 0.0), "between events 0 and 2 overflows"),
])
def test_orderings_in_higher_dimensions_name_the_bad_pair(d, third, message):
    # d >= 2 checks each pair in its own loop, apart from the d = 1 sweep
    x, t = third
    events = [Event((-1e154,) + (0.0,) * (d - 1), 0.0), Event((0.0,) * d, 0.0),
              Event((x,) + (0.0,) * (d - 1), t)]
    with pytest.raises(ValueError, match=message):
        achievable_orderings(events)


def test_orderings_overflow_names_the_pair():
    # |dx|^2 = inf used to turn the half-spaces into NaN: no order, no error
    events = [Event((0.0,), 0.0), Event((-1e154,), 0.0), Event((1e154,), 0.0)]
    with pytest.raises(ValueError, match="between events 1 and 2 overflows"):
        achievable_orderings(events)


def test_orderings_full_reversal_for_outlying_jammer():
    # three simultaneous collinear events: any boost orders them by position,
    # so the jammer at x=3 can come first or last
    a = Event((-1.0,), 0.0)
    b = Event((1.0,), 0.0)
    j = Event((3.0,), 0.0)
    found = achievable_orderings([a, b, j])
    assert any(perm[0] == 2 for perm in found)
    assert any(perm[-1] == 2 for perm in found)


def test_orderings_never_empty_on_random_triples(rng):
    for _ in range(30):
        d = int(rng.integers(1, 3))
        while True:
            a, b = random_spacelike_pair(rng, d)
            c = random_spacelike_pair(rng, d)[0]
            if (
                interval(a, c).kind == SPACELIKE
                and interval(b, c).kind == SPACELIKE
            ):
                break
        assert achievable_orderings([a, b, c])


def _spacelike_set(rng, d, n, margin=1e-6):
    """n events whose pairwise intervals and time differences all clear
    ``margin``, so that no order depends on the tolerance."""
    while True:
        events = [Event(tuple(rng.uniform(-2.0, 2.0, size=d)), rng.uniform(-1.0, 1.0))
                  for _ in range(n)]
        pairs = [(p, q) for i, p in enumerate(events) for q in events[i + 1:]]
        if all(interval(p, q).squared < -margin and abs(p.t - q.t) > margin for p, q in pairs):
            return events


def _velocity_interval_1d(events, order):
    """Open interval of d = 1 velocities v that realise ``order``: each step
    needs v dx < dt, and |v| < 1."""
    lo, hi = -1.0, 1.0
    for i, k in zip(order, order[1:]):
        dx = events[k].x[0] - events[i].x[0]
        bound = (events[k].t - events[i].t) / dx
        if dx > 0.0:
            hi = min(hi, bound)
        else:
            lo = max(lo, bound)
    return lo, hi


def _assert_witnesses(events, found, tol=GEOMETRIC_TOL):
    """Each witness is subluminal and realises its order with every boosted
    time step at least tol*|dx|, less the 1e-12*|dx| rounding allowance."""
    for order, bst in found.items():
        assert bst.speed < 1.0
        for i, k in zip(order, order[1:]):
            dx = math.dist(events[k].x, events[i].x)
            gap = boost(events[k], bst).t - boost(events[i], bst).t
            assert gap >= (tol - 1e-12) * dx, (order, bst.v, gap)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_orderings_1d_match_velocity_intervals(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(40):
        while True:
            events = _spacelike_set(rng, 1, n)
            spans = {order: _velocity_interval_1d(events, order)
                     for order in itertools.permutations(range(n))}
            # an interval within 1e-6 of empty is decided by the tolerance
            if all(abs(hi - lo) > 1e-6 for lo, hi in spans.values()):
                break
        found = achievable_orderings(events)
        assert set(found) == {order for order, (lo, hi) in spans.items() if lo < hi}
        _assert_witnesses(events, found)


@pytest.mark.parametrize("d", [2, 3])
def test_orderings_contain_grid_orderings(d):
    rng = np.random.default_rng(200 + d)
    for trial in range(100):
        events = _spacelike_set(rng, d, 3 + trial % 2)
        found = achievable_orderings(events)
        grid = grid_orderings(events)
        assert grid and set(grid) <= set(found)
        assert tuple(sorted(range(len(events)), key=lambda i: events[i].t)) in found
        _assert_witnesses(events, found)


def test_orderings_reject_too_many_events():
    events = [Event((3.0 * i,), 0.0) for i in range(MAX_ORDERING_EVENTS + 1)]
    with pytest.raises(ValueError, match=f"at most {MAX_ORDERING_EVENTS} events"):
        achievable_orderings(events)
    assert len(achievable_orderings(events[:4])) == 2  # collinear: by position, either way


@pytest.mark.parametrize("value", ["1e-15", "1e-12"])
def test_orderings_reject_a_tol_within_the_rounding_allowance(value):
    # each boosted step is only kept above (tol - 1e-12)*|dx|: at tol 1e-15
    # both orders of two simultaneous events came back with witness v = 0
    for d in (1, 2):
        events = [Event((0.0,) * d, 0.0), Event((1.0,) + (0.0,) * (d - 1), 0.0)]
        with pytest.raises(ValueError, match=rf"tol > 1e-12.* tol = {value}$"):
            achievable_orderings(events, tol=float(value))
    found = achievable_orderings(events, tol=2e-12)
    assert set(found) == {(0, 1), (1, 0)}
    _assert_witnesses(events, found, tol=2e-12)


def _oracle_event_sets(rng):
    """Seeded event sets in d = 1..3 with n = 2..6: mutually spacelike
    random, simultaneous and collinear ones, and a random one that may hold a
    timelike or null pair; then one d = 1 set of 8 events; random d = 4 sets,
    whose faces of three and four rows go through ``_face_point``;
    integer-lattice sets in d = 1..4, with exact ties and exactly dependent
    rows; d = 2 sets of 7 and 8 events along a line; sets that must raise;
    random d = 1 sets of 7 and 8 events; and d = 1 sets of 8 events whose
    simultaneity velocities coincide: exactly (dyadic coordinates), to the
    last few bits, and after one event is moved by 1e-9, which splits
    coincident velocities less than 2*tol apart."""

    def spacelike(draw):
        while True:
            events = draw()
            if all(interval(p, q).kind == SPACELIKE
                   for i, p in enumerate(events) for q in events[i + 1:]):
                return events

    for d in (1, 2, 3):
        for n in range(2, 7):
            def general():
                return [Event(tuple(rng.uniform(-n, n, d)), rng.uniform(-1.0, 1.0))
                        for _ in range(n)]

            def collinear():
                u = rng.normal(size=d)
                u /= np.linalg.norm(u)
                return [Event(tuple(rng.uniform(-n, n) * u), rng.uniform(-0.5, 0.5))
                        for _ in range(n)]

            for _ in range(3 if n < 6 else 1):
                yield spacelike(general)
            yield general()
            yield [Event(tuple(rng.uniform(-n, n, d)), 0.0) for _ in range(n)]
            yield spacelike(collinear)
    yield spacelike(lambda: [Event((2.5 * i + rng.uniform(-0.5, 0.5),), rng.uniform(-1.0, 1.0))
                             for i in range(8)])
    for n in range(3, 6):
        yield spacelike(lambda: [Event(tuple(rng.uniform(-n, n, 4)), rng.uniform(-1.0, 1.0))
                                 for _ in range(n)])
    for d in (1, 2, 3, 4):
        for n in (3, 4, 5):
            yield spacelike(lambda: [Event(tuple(map(float, rng.integers(-3, 4, d))),
                                           float(rng.integers(-1, 2)))
                                     for _ in range(n)])
    for n in (7, 8):
        yield spacelike(lambda: [Event((2.5 * i + rng.uniform(-0.5, 0.5),
                                        rng.uniform(-0.25, 0.25)), rng.uniform(-1.0, 1.0))
                                 for i in range(n)])
    yield [Event((0.0,), 0.0), Event((1.0,), 1.0)]
    yield [Event((0.0,), 0.0), Event((0.0, 1.0), 0.0)]
    yield [Event((3.0 * i,), 0.0) for i in range(MAX_ORDERING_EVENTS + 1)]
    yield [Event((0.0,), 0.0)]
    for n in (7, 8):
        yield spacelike(lambda: [Event((rng.uniform(-n, n),), rng.uniform(-1.0, 1.0))
                                 for _ in range(n)])
    for times in ([0.0, 0.3125, -0.1875, 0.125, 0.375, -0.3125, 0.1875, -0.125],
                  [0.0, 0.3, -0.2, 0.1, 0.4, -0.3, 0.2, -0.1]):
        yield [Event((2.5 * i,), t) for i, t in enumerate(times)]
        yield [Event((2.5 * i,), t + 1e-9 * (i == 4)) for i, t in enumerate(times)]


def _outcome(search, events, tol=None):
    """The orders in the order returned, with witness velocities as hex
    strings, or the ValueError text."""
    try:
        found = search(events, tol=tol)
    except ValueError as exc:
        return str(exc)
    return [(order, [c.hex() for c in bst.v]) for order, bst in found.items()]


def test_orderings_match_oracle_bit_for_bit():
    rng = np.random.default_rng(711)
    kinds = set()
    for events in _oracle_event_sets(rng):
        got = _outcome(achievable_orderings, events)
        assert got == _outcome(ordering_oracle.achievable_orderings, events)
        kinds.add(type(got))
    assert kinds == {list, str}


def test_orderings_match_oracle_when_tol_leaves_no_ball():
    # tol = 1 leaves no velocity inside |v| < 1 - tol, not even v = 0, which
    # satisfies the half-space of this nearly null pair (1e-12 of rounding)
    events = [Event((0.0,), 0.0), Event((1e7,), 1e7 - 2e-7)]
    assert interval(*events, tol=1.0).kind == SPACELIKE
    assert (achievable_orderings(events, tol=1.0)
            == ordering_oracle.achievable_orderings(events, tol=1.0) == {})


def test_orderings_keep_no_state_between_calls():
    # the search grows and restores one prefix state within a call; no set,
    # and no call that raises, may change the answer of the next call
    a = [Event((0.0, 0.0), 0.0), Event((2.0, 0.5), 0.3), Event((-1.0, 2.0), -0.2),
         Event((1.5, -2.0), 0.1)]
    b = [Event((0.0,), 0.0), Event((3.0,), 0.5), Event((-2.0,), -0.4)]
    first = _outcome(achievable_orderings, a)
    assert first == _outcome(ordering_oracle.achievable_orderings, a)
    assert len(first) > 1
    assert _outcome(achievable_orderings, b) == _outcome(ordering_oracle.achievable_orderings, b)
    assert _outcome(achievable_orderings, a) == first
    assert "not spacelike" in _outcome(achievable_orderings, [Event((0.0,), 0.0), Event((1.0,), 1.0)])
    assert _outcome(achievable_orderings, a) == first


def test_orderings_match_oracle_under_a_wider_tol():
    # a second shrink of every half-space, and another set of pruned prefixes
    kinds = set()
    for events in _oracle_event_sets(np.random.default_rng(711)):
        got = _outcome(achievable_orderings, events, tol=1e-6)
        assert got == _outcome(ordering_oracle.achievable_orderings, events, tol=1e-6)
        kinds.add(type(got))
    assert kinds == {list, str}


@pytest.mark.parametrize("tol", [None, pytest.param(1e-6, id="1e-6")])
def test_orderings_witnesses_equal_validated_boosts(tol):
    # witnesses skip Boost's checks, so each must be the Boost those checks
    # would have built: a tuple of floats below the speed the search tested
    dims = set()
    for events in _oracle_event_sets(np.random.default_rng(711)):
        try:
            found = achievable_orderings(events, tol=tol)
        except ValueError:
            continue
        for w in found.values():
            rebuilt = Boost(w.v)
            assert type(w) is Boost and type(w.v) is tuple
            assert all(type(c) is float for c in w.v)
            assert w == rebuilt and hash(w) == hash(rebuilt)
            assert w.speed < 1.0 - (GEOMETRIC_TOL if tol is None else tol)
            dims.add(w.d)
    assert dims == {1, 2, 3, 4}


_awkward = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                            math.inf, -math.inf, math.nan])


def _bits(x):
    return type(x), "nan" if math.isnan(x) else float(x).hex()


@settings(max_examples=1000)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    *[st.lists(st.one_of(st.floats(), _awkward), min_size=n, max_size=n)] * 2)))
def test_dot_equals_sum_bit_for_bit(pair):
    # one and two terms are written out; sum() is compensated from 3.12 on
    p, q = pair
    assert _bits(_dot(p, q)) == _bits(sum(map(operator.mul, p, q)))


def _unit(v):
    norm = math.sqrt(sum(c * c for c in v))
    return tuple(c / norm for c in v)


def _hex(v):
    return None if v is None else [c.hex() for c in v]


@st.composite
def _two_rows(draw):
    """Two unit rows in d = 1..4, the second at times within about 1e-6
    (sine of the angle) of the first's line, and right-hand sides
    b = A A^T lam for multipliers drawn at times near the 1e-12 cut."""
    d = draw(st.integers(1, 4))
    comps = st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)
    a1 = _unit(draw(comps.filter(lambda v: max(map(abs, v)) > 1e-3)))
    offset = draw(st.one_of(st.none(), st.floats(0.0, 3e-6)))
    if offset is None:
        a2 = _unit(draw(comps.filter(lambda v: max(map(abs, v)) > 1e-3)))
    else:
        sign = draw(st.sampled_from([1.0, -1.0]))
        nudge = draw(comps)
        a2 = _unit([sign * c + offset * e for c, e in zip(a1, nudge)])
    lam = st.one_of(st.floats(-1.0, 1.0), st.floats(-3e-12, 3e-12), st.just(1e-12))
    lam1, lam2 = draw(lam), draw(lam)
    p = sum(x * y for x, y in zip(a1, a2))
    return d, (a1, lam1 + p * lam2), (a2, p * lam1 + lam2)


@settings(max_examples=200)
@given(_two_rows())
def test_closed_form_faces_equal_face_point(rows):
    # the one- and two-row forms must repeat _face_point's arithmetic bit
    # for bit, a dependent row and a positive multiplier (None) included
    d, first, second = rows
    assert _hex(_row_point(*first)) == _hex(_face_point([first], d))
    assert _hex(_row_point(*second)) == _hex(_face_point([second], d))
    assert _hex(_pair_point(*first, *second)) == _hex(_face_point([first, second], d))


# ------------------------------------------------------------- serialization


def test_event_json_roundtrip():
    e = Event((1.5, -2.0), 0.25)
    assert Event.from_json(e.to_json()) == e
    assert e.to_json() == [1.5, -2.0, 0.25]
    assert Event.from_json([1, 2]) == Event((1.0,), 2.0)


# [true, false] and ["1", "2e0"] used to load as events, and 10**400 to
# escape as OverflowError
@pytest.mark.parametrize("data", [5, [1.0], [1.0, "t"], "12", [1.0, math.nan], {"x": 1},
                                  [True, False], ["1", "2e0"], [1, 10**400]])
def test_event_from_json_names_bad_key(data):
    with pytest.raises(ValueError, match="key 'j' must be a list"):
        Event.from_json(data, key="key 'j'")


# Event((0.0,), "5") had t = 5.0, Event(("1e0", True), 0.0) had x = (1.0, 1.0),
# and Event((None,), 0.0) raised TypeError
@pytest.mark.parametrize("x,t,message", [
    ((0.0,), "5", "time coordinate must be a finite number, got '5'"),
    ((0.0,), True, "time coordinate must be a finite number, got True"),
    ((0.0, 1.0), None, "time coordinate must be a finite number, got None"),
    (("1e0", True), 0.0, "coordinates must be a sequence of numbers, got ('1e0', True)"),
    ((None,), 0.0, "coordinates must be a sequence of numbers, got (None,)"),
])
def test_event_takes_real_numbers_only(x, t, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Event(x, t)


def test_event_and_boost_take_ints_and_numpy_numbers():
    e = Event((1, np.float32(0.5), np.int64(-2)), np.float64(3.0))
    assert e == Event((1.0, 0.5, -2.0), 3.0)
    assert all(type(v) is float for v in (*e.x, e.t))
    v = Boost((np.float64(0.25), 0)).v
    assert v == (0.25, 0.0) and all(type(c) is float for c in v)
    with pytest.raises(ValueError, match=re.escape("numbers, got ('0.1',)")):
        Boost(("0.1",))

