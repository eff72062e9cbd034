"""Nonlocal jamming of correlations under relativistic causality.

A jamming configuration is a triple of mutually spacelike events: two
measurement events a and b, and a jammer event j that destroys the
correlations between them. Causality imposes two constraints:

* unary: jamming must leave each party's local statistics untouched, so
  no one-party record reveals whether the jammer acted (a statement about
  boxes: ``correlations.apply_jamming`` and ``correlations.check_unary``);
* binary: the overlap of the forward light cones of a and b, the only
  region where the two records can be compared, must lie entirely within
  the forward light cone of j, so a light signal from j can reach every
  comparison point.

All cone containment is decided on closed sets: the extremal placement of
the jammer, where the cone-overlap surface is asymptotically tangent to
the jammer's cone, counts as satisfying the condition. Mutual spacelike
separation is enforced strictly (squared interval below -tol), so
boundary placements of j are excluded from valid configurations.

Both decisions are closed forms in the canonical frame, where a and b sit
at (-1, 0...; 0) and (+1, 0...; 0) and j at (j1, w_vec; jt), w = |w_vec|.
In one space dimension the overlap of the two forward cones is the
forward cone of its apex (0; 1), so the binary margin is the apex slack
1 - jt - |j1|, and the jammer may act up to one light-crossing time after
both measurements (t = 1 - |x1|, not attained). In two or more space
dimensions the critical set is the intersection of the two cone surfaces,
which recedes to infinity; the margin is -jt - hypot(max(|j1| - 1, 0), w),
i.e. -jt minus the distance from j to the segment [a, b], and the jammer
can never act after both measurements: the latest time is -|x_perp|,
at most 0. Grunhaus, Popescu & Rohrlich, Phys. Rev. A 53, 3781 (1996).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spacetime import (
    NULL,
    SPACELIKE,
    Event,
    IntervalClass,
    _as_float_tuple,
    _dot,
    _interval_kind,
    _json_number,
    _overflow_error,
    _require_same_dimension,
    _resolve_tol,
    _squared_interval,
    cone_slack,
)


@dataclass(frozen=True)
class JammingConfiguration:
    """Measurement events a, b and jammer event j in d spatial dimensions."""

    a: Event
    b: Event
    j: Event

    def __post_init__(self):
        _require_same_dimension(self.a, self.b, self.j)

    @property
    def d(self) -> int:
        return self.a.d

    def to_json(self) -> dict:
        return {
            "a": self.a.to_json(),
            "b": self.b.to_json(),
            "j": self.j.to_json(),
            "d": self.d,
        }

    @classmethod
    def from_json(cls, data) -> "JammingConfiguration":
        if not isinstance(data, dict):
            raise ValueError(f"configuration JSON must be an object, got {type(data).__name__}")
        missing = [key for key in "abj" if key not in data]
        if missing:
            raise ValueError(f"configuration JSON lacks key(s) {', '.join(map(repr, missing))}")
        cfg = cls(**{k: Event.from_json(data[k], key=f"configuration key {k!r}") for k in "abj"})
        if "d" in data:
            d = _json_number(data["d"], "configuration key 'd'", integer=True)
            if d != cfg.d:
                raise ValueError(
                    f"configuration key 'd' declares dimension {data['d']!r}, "
                    f"but the coordinates have d = {cfg.d}"
                )
        return cfg


@dataclass(frozen=True)
class ConfigurationValidation:
    """Pairwise interval classes; valid iff all three strictly spacelike."""

    ab: IntervalClass
    aj: IntervalClass
    bj: IntervalClass
    valid: bool
    on_boundary: bool  # j null-separated from a or b: edge of the allowed region


def _squared_intervals(a: Event, b: Event, j: Event) -> tuple[float, float, float]:
    """s^2 of the pairs (a, b), (a, j) and (b, j), in that order; the first
    that overflows raises ``interval``'s ``ValueError``. The triple is
    mutually spacelike under ``tol`` iff the largest is below -tol."""
    return _squared_interval(a, b), _squared_interval(a, j), _squared_interval(b, j)


def validate_configuration(
    cfg: JammingConfiguration, tol: float | None = None
) -> ConfigurationValidation:
    """Classify the three pairs of ``cfg`` as :func:`spacetime.interval` does.

    ``valid`` iff all three squared intervals are below -tol (strictly
    spacelike). ``on_boundary`` is True when j is null-separated from a or
    b (|s^2| <= tol): j sits on the edge of the allowed region, and the
    configuration is not valid. Raises ``ValueError`` naming the two events
    when a squared interval overflows (a coordinate difference above about
    1.3e154).
    """
    tol = _resolve_tol(tol)
    ab, aj, bj = (
        IntervalClass(kind=_interval_kind(s2, tol), squared=s2)
        for s2 in _squared_intervals(cfg.a, cfg.b, cfg.j)
    )
    valid = all(iv.kind == SPACELIKE for iv in (ab, aj, bj))
    on_boundary = aj.kind == NULL or bj.kind == NULL
    return ConfigurationValidation(ab=ab, aj=aj, bj=bj, valid=valid, on_boundary=on_boundary)


@dataclass(frozen=True)
class BinaryVerdict:
    """Outcome of the cone-containment check.

    ``margin`` is the canonical-frame containment slack, where a and b sit
    at (-1, 0...; 0) and (+1, 0...; 0) and j at (j1, w_vec; jt), w = |w_vec|:

    * d = 1: ``1 - jt - |j1|``, the slack of the overlap's apex (0; 1);
    * d >= 2: ``-jt - hypot(max(|j1| - 1, 0), w)``, the infimum of the slack
      over the cone-surface intersection (-jt - w when |j1| <= 1, reached
      only as t -> infinity).

    ``witness`` is a point of the closed cone overlap strictly outside the
    jammer's cone (original coordinates) when the condition fails.
    """

    holds: bool
    margin: float
    witness: Event | None = None


def _orthogonal_unit(u: list[float]) -> list[float]:
    """A unit vector orthogonal to the unit vector u (len(u) >= 2)."""
    k = min(range(len(u)), key=lambda i: abs(u[i]))
    e = [-u[k] * c for c in u]
    e[k] += 1.0
    norm = math.hypot(*e)
    return [c / norm for c in e]


def binary_condition(cfg: JammingConfiguration, tol: float | None = None) -> BinaryVerdict:
    """Decide whether the overlap of the forward cones of a and b lies
    within the forward cone of j (closed sets), in closed form.

    With u = dx/|dx|, beta = dt/|dx| (dx, dt: b minus a), gamma =
    1/sqrt(1 - beta^2), L = |dx|/(2 gamma) and v = j - midpoint(a, b), the
    canonical coordinates of j are

        p = v_x.u,  q = v_x - p u,
        jt = gamma (v_t - beta p) / L,  j1 = gamma (p - beta v_t) / L,
        w = |q| / L,

    i.e. j after the boost to simultaneity, the shift of the midpoint to
    the origin, the rotation of u onto x_1 and the scaling by 1/L. The
    margin follows from them (see :class:`BinaryVerdict`); the condition
    holds iff margin >= -tol. In d >= 2 the ridge slack
    cosh(eta) - jt - hypot(j1, sinh(eta) + w) has its one stationary point
    at sinh(eta) = w/(|j1| - 1), which exists only when |j1| > 1.

    On failure the witness is the ridge point (0, -r q/|q|; t) with
    t = sqrt(1 + r^2), mapped back to the input frame: the stationary point
    r = w/(|j1| - 1) when |j1| > 1, else t = max(1, 2/|margin|), where the
    slack is at most margin/2. In d = 1 it is the apex (r = 0, t = 1).

    Validation and the transform share one pass: the three squared
    intervals are computed once, and the transform runs iff the largest is
    below -tol. Raises ``ValueError`` when a, b and j are not mutually
    spacelike (naming the three interval classes) or when a squared
    interval overflows (as :func:`validate_configuration` does).
    """
    tol = _resolve_tol(tol)
    a, b, j = cfg.a, cfg.b, cfg.j
    s2 = _squared_intervals(a, b, j)
    if not max(s2) < -tol:
        ab, aj, bj = (_interval_kind(s, tol) for s in s2)
        raise ValueError(
            f"binary condition requires mutually spacelike a, b, j; got ab={ab}, aj={aj}, bj={bj}"
        )
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
    margin += 0.0  # normalize -0.0
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
    # undo the scaling (L), the boost (gamma L = |dx|/2) and the shift
    along = beta * t * sep / 2.0
    x = [m + along * e for m, e in zip(mid_x, u)]
    if r > 0.0:
        away = [-c / q_norm for c in q] if q_norm > 0.0 else _orthogonal_unit(u)
        x = [c + r * half * e for c, e in zip(x, away)]
    witness = Event(tuple(x), mid_t + t * sep / 2.0)
    return BinaryVerdict(holds=False, margin=margin, witness=witness)


@dataclass(frozen=True)
class LatestJammerResult:
    """Supremum of valid jammer times at a fixed spatial position."""

    time: float
    attained: bool
    d: int
    position: tuple[float, ...]


def latest_jammer_time(d: int, position=None, tol: float | None = None) -> LatestJammerResult:
    """Latest jammer time consistent with validity and the binary condition.

    Measurement events are fixed at the canonical (-1, 0...; 0) and
    (+1, 0...; 0); the jammer sits at ``position`` x (default: the spatial
    midpoint). The supremum over j_t is, in closed form:

    * d = 1: ``1 - |x1|``, not attained (there j is null-separated from
      the nearer measurement);
    * d >= 2: ``-|x_perp|`` (x_perp: x without its x1 component), where the
      binary margin is 0; attained iff j at that time is strictly spacelike
      to a and b under ``tol``.

    In d >= 2 the three squared intervals are computed in scalars, with no
    ``Event`` built: s^2 from a to b is -4, and s^2 from a and from b to j
    is time^2 - _dot(dx, dx) with dx = (x1 + 1, x_perp) and (x1 - 1,
    x_perp), the operations of ``spacetime.interval``. So ``attained`` is
    ``validate_configuration(...).valid`` on the same three events, and a
    squared interval that overflows (|x_perp| above about 1.3e154) raises
    ``interval``'s ``ValueError``, naming a and j (or b and j) as
    ``[x..., t]``.

    For |x1| >= 1 the binary condition caps j_t at the past light cone of
    the nearer measurement, where validity fails, so the window is empty
    and ``ValueError`` is raised; so it is, with ``Event``'s wording, for a
    position that is not finite, and for a ``d`` that is not an integer (a
    bool or a string included).
    """
    d = _json_number(d, "d", integer=True)
    tol = _resolve_tol(tol)
    if d < 1:
        raise ValueError(f"spatial dimension must be at least 1, got {d}")
    if position is None:
        position = (0.0,) * d
    position = _as_float_tuple(position)
    if len(position) != d:
        raise ValueError(f"position has dimension {len(position)}, expected {d}")
    x1 = abs(position[0])
    if not x1 < 1.0:
        raise ValueError(f"no valid jammer time at {position}: the window is empty for |x_1| >= 1")
    if d == 1:
        return LatestJammerResult(time=1.0 - x1, attained=False, d=d, position=position)
    time = -math.hypot(*position[1:]) + 0.0  # normalize -0.0
    # s^2 from a, then from b, to j in _squared_interval's operations: dt =
    # time - 0.0 = time, and dx = x - (-+1, 0...), where x - 0.0 = x
    worst = -4.0
    for side, along in ((-1.0, position[0] + 1.0), (1.0, position[0] - 1.0)):
        dx = (along, *position[1:])
        s2 = time * time - _dot(dx, dx)
        if not math.isfinite(s2):
            raise _overflow_error([side] + [0.0] * d, [*position, time], s2)
        worst = max(worst, s2)
    return LatestJammerResult(time=time, attained=worst < -tol, d=d, position=position)


# --------------------------------------------------------------------------
# Multi-jammer scenarios


@dataclass(frozen=True)
class JamScenario:
    configurations: tuple[JammingConfiguration, ...]

    def __post_init__(self):
        if not self.configurations:
            raise ValueError("scenario needs at least one configuration")
        object.__setattr__(self, "configurations", tuple(self.configurations))
        dims = {c.d for c in self.configurations}
        if len(dims) != 1:
            raise ValueError(f"configurations have mismatched dimensions: {sorted(dims)}")

    @property
    def d(self) -> int:
        return self.configurations[0].d

    def to_json(self) -> list:
        return [c.to_json() for c in self.configurations]

    @classmethod
    def from_json(cls, data) -> "JamScenario":
        if not isinstance(data, list):
            raise ValueError(
                f"scenario JSON must be a list of configurations, got {type(data).__name__}"
            )
        return cls(tuple(JammingConfiguration.from_json(item) for item in data))


@dataclass(frozen=True)
class LoopReport:
    acyclic: bool
    cycle: tuple[int, ...] | None
    edges: tuple[tuple[int, int], ...]


def influence_edges(scenario: JamScenario, tol: float | None = None) -> list[tuple[int, int]]:
    """Edge i -> k iff jammer k sits in the closed cone overlap of pair i.

    That overlap is the only region where configuration i's effect is
    readable, so it is the weakest relation under which one jamming event
    can influence another.
    """
    tol = _resolve_tol(tol)
    edges = []
    configs = scenario.configurations
    for i, c in enumerate(configs):
        for k, cfg_k in enumerate(configs):
            if i != k and cone_slack(cfg_k.j, c.a) >= -tol and cone_slack(cfg_k.j, c.b) >= -tol:
                edges.append((i, k))
    return edges


def _find_cycle(n: int, adj: list[list[int]]) -> tuple[int, ...] | None:
    color = [0] * n  # 0 white, 1 gray, 2 black
    parent: dict[int, int] = {}
    for s in range(n):
        if color[s]:
            continue
        color[s] = 1
        stack = [(s, iter(adj[s]))]
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                color[node] = 2
                stack.pop()
                continue
            if color[nxt] == 0:
                color[nxt] = 1
                parent[nxt] = node
                stack.append((nxt, iter(adj[nxt])))
            elif color[nxt] == 1:
                path = [node]
                cur = node
                while cur != nxt:
                    cur = parent[cur]
                    path.append(cur)
                return tuple(reversed(path))
    return None


def detect_causal_loops(scenario: JamScenario, tol: float | None = None) -> LoopReport:
    """Cycle detection on the influence graph of a multi-jammer scenario.

    Raises if any configuration is not mutually spacelike. When every
    configuration satisfies the binary condition, each edge target lies in
    the strict causal future of the source jammer, so the graph embeds in a
    partial order and no cycle can occur; this function verifies that claim
    mechanically for concrete scenarios.
    """
    tol = _resolve_tol(tol)
    for idx, cfg in enumerate(scenario.configurations):
        if not max(_squared_intervals(cfg.a, cfg.b, cfg.j)) < -tol:
            raise ValueError(f"configuration {idx} is not mutually spacelike")
    edges = influence_edges(scenario, tol=tol)
    n = len(scenario.configurations)
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, k in edges:
        adj[i].append(k)
    cycle = _find_cycle(n, adj)
    return LoopReport(acyclic=cycle is None, cycle=cycle, edges=tuple(edges))


# The action on boxes lives in ``correlations``, beside the box code, so
# this module imports no numpy. These names still resolve here (PEP 562),
# importing ``correlations`` on first use and kept here after it.
_BOX_NAMES = frozenset({"apply_jamming", "check_unary", "UnaryReport"})


def __getattr__(name):
    if name not in _BOX_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import correlations

    value = globals()[name] = getattr(correlations, name)
    return value
