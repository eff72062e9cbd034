"""The validate-then-decide jamming verdicts, kept as an oracle for the
one-pass versions in ``nonlocality.jamming``.

Each call classifies the three pairs with its own copy of ``interval``
(building an ``IntervalClass`` per pair and a ``ConfigurationValidation``)
and reads ``.valid`` before it decides. The library computes the three
squared intervals once and compares the largest with -tol; both must give
the same results, bit for bit, and the same errors, text included. The
pieces that do not touch validation (``influence_edges``, ``_find_cycle``,
``_orthogonal_unit``) are the library's.
"""

import math

from nonlocality.jamming import (
    BinaryVerdict,
    ConfigurationValidation,
    JammingConfiguration,
    LatestJammerResult,
    LoopReport,
    _find_cycle,
    _orthogonal_unit,
    influence_edges,
)
from nonlocality.spacetime import (
    NULL,
    SPACELIKE,
    TIMELIKE,
    Event,
    IntervalClass,
    _require_same_dimension,
    _resolve_tol,
)


def interval(e1, e2, tol=None):
    _require_same_dimension(e1, e2)
    tol = _resolve_tol(tol)
    dt = e2.t - e1.t
    dx = [q - p for p, q in zip(e1.x, e2.x)]
    s2 = dt * dt - sum(p * q for p, q in zip(dx, dx))
    if not math.isfinite(s2):
        raise ValueError(
            f"the interval between events {e1.to_json()} and {e2.to_json()} "
            f"overflows: s^2 = {s2}"
        )
    if s2 > tol:
        kind = TIMELIKE
    elif s2 < -tol:
        kind = SPACELIKE
    else:
        kind = NULL
    return IntervalClass(kind=kind, squared=s2)


def validate_configuration(cfg, tol=None):
    tol = _resolve_tol(tol)
    ab = interval(cfg.a, cfg.b, tol=tol)
    aj = interval(cfg.a, cfg.j, tol=tol)
    bj = interval(cfg.b, cfg.j, tol=tol)
    valid = all(iv.kind == SPACELIKE for iv in (ab, aj, bj))
    on_boundary = aj.kind == NULL or bj.kind == NULL
    return ConfigurationValidation(ab=ab, aj=aj, bj=bj, valid=valid, on_boundary=on_boundary)


def binary_condition(cfg, tol=None):
    tol = _resolve_tol(tol)
    val = validate_configuration(cfg, tol=tol)
    if not val.valid:
        raise ValueError(
            "binary condition requires mutually spacelike a, b, j; got "
            f"ab={val.ab.kind}, aj={val.aj.kind}, bj={val.bj.kind}"
        )
    a, b, j = cfg.a, cfg.b, cfg.j
    dx = [xb - xa for xa, xb in zip(a.x, b.x)]
    sep = math.hypot(*dx)
    u = [c / sep for c in dx]
    beta = (b.t - a.t) / sep
    gamma = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
    half = sep / (2.0 * gamma)
    mid_x = [(xa + xb) / 2.0 for xa, xb in zip(a.x, b.x)]
    mid_t = (a.t + b.t) / 2.0
    v_x = [xj - m for xj, m in zip(j.x, mid_x)]
    v_t = j.t - mid_t
    p = sum(c * e for c, e in zip(v_x, u))
    q = [c - p * e for c, e in zip(v_x, u)]
    q_norm = math.hypot(*q)
    jt = gamma * (v_t - beta * p) / half
    j1_abs = abs(gamma * (p - beta * v_t) / half)
    w = q_norm / half

    if cfg.d == 1:
        margin = 1.0 - jt - j1_abs
    else:
        margin = -jt - math.hypot(max(j1_abs - 1.0, 0.0), w)
    margin += 0.0
    if margin >= -tol:
        return BinaryVerdict(holds=True, margin=margin)

    if cfg.d == 1:
        t, r = 1.0, 0.0
    elif j1_abs > 1.0:
        r = w / (j1_abs - 1.0)
        t = math.hypot(1.0, r)
    else:
        t = max(1.0, 2.0 / -margin)
        r = math.sqrt((t - 1.0) * (t + 1.0))
    along = beta * t * sep / 2.0
    x = [m + along * e for m, e in zip(mid_x, u)]
    if r > 0.0:
        away = [-c / q_norm for c in q] if q_norm > 0.0 else _orthogonal_unit(u)
        x = [c + r * half * e for c, e in zip(x, away)]
    witness = Event(tuple(x), mid_t + t * sep / 2.0)
    return BinaryVerdict(holds=False, margin=margin, witness=witness)


def latest_jammer_time(d, position=None, tol=None):
    """Finite positions only: a NaN x_1 here reports an empty window."""
    tol = _resolve_tol(tol)
    if d < 1:
        raise ValueError(f"spatial dimension must be at least 1, got {d}")
    if position is None:
        position = (0.0,) * d
    position = tuple(float(p) for p in position)
    if len(position) != d:
        raise ValueError(f"position has dimension {len(position)}, expected {d}")
    x1 = abs(position[0])
    if not x1 < 1.0:
        raise ValueError(f"no valid jammer time at {position}: the window is empty for |x_1| >= 1")
    if d == 1:
        return LatestJammerResult(time=1.0 - x1, attained=False, d=d, position=position)
    time = -math.hypot(*position[1:]) + 0.0
    a = Event((-1.0,) + (0.0,) * (d - 1), 0.0)
    b = Event((+1.0,) + (0.0,) * (d - 1), 0.0)
    cfg = JammingConfiguration(a=a, b=b, j=Event(position, time))
    attained = validate_configuration(cfg, tol=tol).valid
    return LatestJammerResult(time=time, attained=attained, d=d, position=position)


def detect_causal_loops(scenario, tol=None):
    tol = _resolve_tol(tol)
    for idx, cfg in enumerate(scenario.configurations):
        if not validate_configuration(cfg, tol=tol).valid:
            raise ValueError(f"configuration {idx} is not mutually spacelike")
    edges = influence_edges(scenario, tol=tol)
    n = len(scenario.configurations)
    adj = [[] for _ in range(n)]
    for i, k in edges:
        adj[i].append(k)
    cycle = _find_cycle(n, adj)
    return LoopReport(acyclic=cycle is None, cycle=cycle, edges=tuple(edges))
