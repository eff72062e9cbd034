"""Shared random generators for geometry and jamming tests.

All generators take an explicit numpy Generator so every test is seeded
and reproducible.
"""

import math

import numpy as np
import pytest

from nonlocality import (
    Boost,
    Event,
    JammingConfiguration,
    JamScenario,
    binary_condition,
    boost,
    validate_configuration,
)


def random_boost(rng, d, max_speed=0.9):
    direction = rng.normal(size=d)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        direction = np.zeros(d)
        direction[0] = 1.0
        norm = 1.0
    speed = rng.uniform(0.0, max_speed)
    return Boost(tuple(speed * direction / norm))


def boost_configuration(cfg, bst):
    return JammingConfiguration(
        a=boost(cfg.a, bst), b=boost(cfg.b, bst), j=boost(cfg.j, bst)
    )


def random_event(rng, d, spread=3.0):
    return Event(tuple(rng.uniform(-spread, spread, size=d)), rng.uniform(-spread, spread))


def random_spacelike_pair(rng, d, spread=3.0):
    """Two events with spatial separation strictly exceeding time separation."""
    while True:
        x1 = rng.uniform(-spread, spread, size=d)
        x2 = rng.uniform(-spread, spread, size=d)
        sep = np.linalg.norm(x2 - x1)
        if sep < 0.3:
            continue
        t1 = rng.uniform(-spread, spread)
        dt = rng.uniform(-0.9, 0.9) * sep
        return Event(tuple(x1), t1), Event(tuple(x2), float(t1 + dt))


def canonical_pair(d):
    a = Event((-1.0,) + (0.0,) * (d - 1), 0.0)
    b = Event((+1.0,) + (0.0,) * (d - 1), 0.0)
    return a, b


def diamond_jammer_1d(rng, gap=0.05):
    """Jammer inside the open 1-d allowed region, margin at least ``gap``."""
    x = rng.uniform(-1.0 + 2 * gap, 1.0 - 2 * gap)
    half = 1.0 - abs(x) - gap
    t = rng.uniform(-half, half)
    return Event((float(x),), float(t))


def holding_jammer(rng, d, gap=0.05):
    """Jammer satisfying validity and the binary condition, canonical frame."""
    if d == 1:
        return diamond_jammer_1d(rng, gap=gap)
    while True:
        vec = rng.normal(size=d)
        vec *= rng.uniform(0.0, 0.35) / max(np.linalg.norm(vec), 1e-12)
        jt = -float(np.linalg.norm(vec)) - rng.uniform(gap, 0.5)
        j = Event(tuple(vec), jt)
        a, b = canonical_pair(d)
        cfg = JammingConfiguration(a=a, b=b, j=j)
        if validate_configuration(cfg).valid:
            return j


def random_valid_configuration(rng, d, spread=2.0):
    """Mutually spacelike triple; binary condition may or may not hold."""
    while True:
        a, b = random_spacelike_pair(rng, d, spread=spread)
        mid_x = (np.asarray(a.x) + np.asarray(b.x)) / 2.0
        mid_t = (a.t + b.t) / 2.0
        sep = np.linalg.norm(np.asarray(b.x) - np.asarray(a.x))
        j = Event(
            tuple(mid_x + rng.uniform(-sep, sep, size=d)),
            float(mid_t + rng.uniform(-sep, sep)),
        )
        cfg = JammingConfiguration(a=a, b=b, j=j)
        if validate_configuration(cfg).valid:
            return cfg


def random_holding_configuration(rng, d, allow_boost=True):
    """Valid configuration satisfying the binary condition, random frame."""
    a, b = canonical_pair(d)
    j = holding_jammer(rng, d)
    cfg = JammingConfiguration(a=a, b=b, j=j)
    scale = rng.uniform(0.5, 2.0)
    shift_x = rng.uniform(-5.0, 5.0, size=d)
    shift_t = rng.uniform(-5.0, 5.0)

    def move(e):
        return Event(tuple(scale * np.asarray(e.x) + shift_x), float(scale * e.t + shift_t))

    cfg = JammingConfiguration(a=move(cfg.a), b=move(cfg.b), j=move(cfg.j))
    if allow_boost and rng.random() < 0.5:
        cfg = boost_configuration(cfg, random_boost(rng, d, max_speed=0.6))
    return cfg


def random_holding_scenario(rng, d, n_jammers):
    """Multi-jammer scenario in which every binary condition holds."""
    return JamScenario(
        tuple(random_holding_configuration(rng, d, allow_boost=False) for _ in range(n_jammers))
    )


def apex_check_1d(cfg, tol=1e-9):
    """Closed-form 1-d oracle: overlap apex inside the jammer's cone.

    Works directly in the configuration's own frame: the overlap of the two
    forward cones is the forward cone of the apex where the inner edges
    cross, so containment is the apex slack in original (unscaled) units.
    """
    (xa,), ta = cfg.a.x, cfg.a.t
    (xb,), tb = cfg.b.x, cfg.b.t
    if xa > xb:
        xa, ta, xb, tb = xb, tb, xa, ta
    apex_x = (xa + xb + tb - ta) / 2.0
    apex_t = (ta + tb + (xb - xa)) / 2.0
    (xj,), tj = cfg.j.x, cfg.j.t
    slack = (apex_t - tj) - abs(apex_x - xj)
    return slack >= -tol


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
