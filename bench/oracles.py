"""Closed-form answers that the benchmark checks the library against.

Nothing here imports the library. Each answer comes from the geometry or
from a model's definition, so a defect in the library cannot hide behind
its own code. Events are plain sequences ``[x_1, ..., x_d, t]``.
"""

from __future__ import annotations

import itertools
import math

# Inputs closer than this to a decision boundary are not drawn: on the
# boundary the verdict depends on the library's tolerance, not on geometry.
MARGIN = 1e-6

SQRT2 = math.sqrt(2.0)
QUARTER = math.pi / 4.0

# Measurement axes (a, a', b, b'), restated from the model definitions.
ANGLES_EQ2 = (math.pi / 2.0, 0.0, QUARTER, 3.0 * QUARTER)
ANGLES_SINGLET_OPTIMAL = (0.0, math.pi / 2.0, QUARTER, -QUARTER)

# (thetas, values) of the table model whose optimum is the algebraic bound.
TABLE_POINTS = ((0.0, QUARTER, 3.0 * QUARTER, math.pi), (1.0, 1.0, -1.0, -1.0))

# Known max |CHSH| of each correlation model the benchmark optimizes.
CHSH_OPTIMUM = {"singlet": 2.0 * SQRT2, "superquantum": 4.0, "table": 4.0, "classical": 2.0}


# --------------------------------------------------------------------------
# Minkowski geometry


def interval_sq(e1, e2) -> float:
    """Squared interval dt^2 - |dx|^2; negative means spacelike."""
    dt = e2[-1] - e1[-1]
    return dt * dt - sum((p - q) ** 2 for p, q in zip(e1[:-1], e2[:-1]))


def cone_slack(apex, e) -> float:
    """(t - t_apex) - |x - x_apex|: >= 0 iff e is in apex's closed future cone."""
    return (e[-1] - apex[-1]) - math.dist(e[:-1], apex[:-1])


def apex_margin(a, b, j) -> float:
    """d = 1: slack of the forward-cone overlap's apex in j's future cone.

    The overlap of the forward cones of a and b is itself the forward cone
    of the point where their inner light rays cross, so the binary
    condition holds iff that apex lies in j's closed future cone.
    """
    (xa, ta), (xb, tb) = a, b
    if xa > xb:
        xa, ta, xb, tb = xb, tb, xa, ta
    apex = ((xa + xb + tb - ta) / 2.0, (ta + tb + xb - xa) / 2.0)
    return cone_slack(j, apex)


def segment_past_margin(a, b, j) -> float:
    """d >= 2: max over the spacetime segment [a, b] of p_t - j_t - |p_x - j_x|.

    The binary condition holds iff j lies in the closed causal past of some
    point of the straight segment from a to b, i.e. iff this is >= 0. Along
    the segment the slack is concave, with its one stationary point where
    r / |(r, h)| = dt / L (r: offset along the segment's spatial direction,
    h: perpendicular distance, L: spatial length), so the maximum is that
    point clamped to the segment.
    """
    xa, ta = a[:-1], a[-1]
    dx = [q - p for p, q in zip(xa, b[:-1])]
    dt = b[-1] - ta
    length = math.hypot(*dx)
    unit = [c / length for c in dx]
    u = [p - q for p, q in zip(xa, j[:-1])]
    along = sum(p * q for p, q in zip(u, unit))
    perp = math.sqrt(max(sum(c * c for c in u) - along * along, 0.0))
    beta = dt / length
    r_star = beta * perp / math.sqrt(1.0 - beta * beta)
    s = min(max((r_star - along) / length, 0.0), 1.0)
    r = along + s * length
    return ta + s * dt - j[-1] - math.hypot(r, perp)


def binary_margin(a, b, j) -> float:
    """Signed oracle margin of the binary condition (>= 0: holds)."""
    if len(a) == 2:
        return apex_margin(a, b, j)
    return segment_past_margin(a, b, j)


def window(position):
    """Latest valid jammer time at ``position`` for the canonical pair.

    Returns ``(sup, attained, lowest)`` or ``None`` when no jammer time is
    both valid and binary-satisfying. ``lowest`` is the (excluded) lower
    end of the valid range, where j becomes timelike to a or b.

    * d = 1, |x| < 1: sup 1 - |x|, not attained (j null to a or b there).
    * d >= 2, |x_1| < 1: sup -|x_perp|, attained (j strictly spacelike).
    * |x_1| >= 1: the binary condition caps j_t at the null cone of the
      nearer measurement, where validity fails, so no time exists.
    """
    x1 = position[0]
    if abs(x1) >= 1.0:
        return None
    nearest = min(math.dist(position, e) for e in _canonical_spatial(len(position)))
    if len(position) == 1:
        return 1.0 - abs(x1), False, -nearest
    return -math.hypot(*position[1:]), True, -nearest


def _canonical_spatial(d):
    return ((-1.0,) + (0.0,) * (d - 1), (1.0,) + (0.0,) * (d - 1))


def boosted_time(event, v) -> float:
    """t' = gamma (t - v.x) under the boost with velocity v."""
    gamma = 1.0 / math.sqrt(1.0 - sum(c * c for c in v))
    return gamma * (event[-1] - sum(p * q for p, q in zip(v, event[:-1])))


def realised_gap(events, v, order) -> float:
    """Smallest time step along ``order`` in the boosted frame (> 0: strict)."""
    times = [boosted_time(events[i], v) for i in order]
    return min(t2 - t1 for t1, t2 in zip(times, times[1:]))


def velocity_interval(events, order) -> tuple[float, float]:
    """Open interval (lo, hi) of d = 1 boost velocities that put ``order``
    strictly in time order; empty when lo >= hi.

    Each step needs v (x_next - x_prev) < t_next - t_prev, and |v| < 1.
    """
    lo, hi = -1.0, 1.0
    for i, k in zip(order, order[1:]):
        dx = events[k][0] - events[i][0]
        bound = (events[k][1] - events[i][1]) / dx
        if dx > 0.0:
            hi = min(hi, bound)
        else:
            lo = max(lo, bound)
    return lo, hi


def orderings_1d(events) -> dict:
    """Every strict time order of d = 1 spacelike events, exactly:
    ``{order: (lo, hi)}`` for each order with a nonempty velocity interval."""
    found = {}
    for order in itertools.permutations(range(len(events))):
        lo, hi = velocity_interval(events, order)
        if lo < hi:
            found[order] = (lo, hi)
    return found


def acyclic(n: int, edges) -> bool:
    """Kahn's algorithm: True iff the directed graph has no cycle."""
    indegree = [0] * n
    out = [[] for _ in range(n)]
    for i, k in edges:
        out[i].append(k)
        indegree[k] += 1
    ready = [v for v in range(n) if indegree[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for k in out[v]:
            indegree[k] -= 1
            if indegree[k] == 0:
                ready.append(k)
    return seen == n


# --------------------------------------------------------------------------
# Correlation models


def fold(theta: float) -> float:
    """Angle folded into [0, pi] by E(t) = E(-t) = E(2 pi - t)."""
    t = math.fmod(abs(theta), 2.0 * math.pi)
    return 2.0 * math.pi - t if t > math.pi else t


def correlation(model, theta: float) -> float:
    """E(theta) of a model spec: ``("singlet",)``, ``("superquantum",)``,
    ``("table",)`` or ``("classical", strategy_id)``."""
    kind = model[0]
    t = fold(theta)
    if kind == "singlet":
        return -math.cos(t)
    if kind == "superquantum":
        if t <= QUARTER:
            return 1.0
        if t >= 3.0 * QUARTER:
            return -1.0
        return math.sin(2.0 * t)
    if kind == "table":
        xs, ys = TABLE_POINTS
        for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
            if t <= x1:
                return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
        return ys[-1]
    if kind == "classical":
        # bits msb..lsb: Alice setting 0, Alice 1, Bob 0, Bob 1; bit 0 is +1
        sid = model[1]
        alice0 = 1 - 2 * ((sid >> 3) & 1)
        bob0 = 1 - 2 * ((sid >> 1) & 1)
        return float(alice0 * bob0)
    raise ValueError(f"unknown model {model!r}")


def setting_correlations(model, angles):
    """[[E(a-b), E(a-b')], [E(a'-b), E(a'-b')]] for axes (a, a', b, b')."""
    a, a_prime, b, b_prime = angles
    return [
        [correlation(model, a - b), correlation(model, a - b_prime)],
        [correlation(model, a_prime - b), correlation(model, a_prime - b_prime)],
    ]


def chsh_value(corrs) -> float:
    return corrs[0][0] + corrs[0][1] + corrs[1][0] - corrs[1][1]


# Built-in boxes by name: per-setting correlations from their definitions.
BUILTIN_CORRELATIONS = {
    "uniform": [[0.0, 0.0], [0.0, 0.0]],
    "perfect": [[1.0, 1.0], [1.0, 1.0]],
    "anticorrelated": [[-1.0, -1.0], [-1.0, -1.0]],
    "superquantum-eq2": setting_correlations(("superquantum",), ANGLES_EQ2),
    "singlet-eq2": setting_correlations(("singlet",), ANGLES_EQ2),
    "singlet-optimal": setting_correlations(("singlet",), ANGLES_SINGLET_OPTIMAL),
}


def sampling_sigma(corrs, n: int) -> float:
    """Standard deviation of the sampled CHSH sum with n draws per pair.

    Each term is 2 p_same - 1 with p_same = (1 + E) / 2 binomial, so its
    variance is 4 p (1 - p) / n.
    """
    var = 0.0
    for row in corrs:
        for e in row:
            p = (1.0 + e) / 2.0
            var += 4.0 * p * (1.0 - p) / n
    return math.sqrt(var)


def within_5_sigma(estimate: float, corrs, n: int) -> bool:
    sigma = sampling_sigma(corrs, n)
    return abs(estimate - chsh_value(corrs)) <= max(5.0 * sigma, 1e-12)
