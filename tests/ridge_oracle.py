"""The numerical ridge solver, kept as an independent oracle for the
closed-form binary condition.

It maps the pair (a, b) to the canonical frame with ``canonicalize_pair``
and minimizes the containment slack over the cone-surface intersection:
a 481-point geometric grid on t in [1, 1e12], golden-section refinement
around the grid minimum, and the t -> infinity limit -(j_t + w) taken
analytically. In d = 1 the slack is evaluated at the overlap's apex.
"""

import math

import numpy as np

from nonlocality.spacetime import canonicalize_pair

RIDGE_T_MAX = 1e12
RIDGE_GRID_POINTS = 480
RIDGE_GRID = np.concatenate(([1.0], 1.0 + np.geomspace(1e-12, RIDGE_T_MAX - 1.0, RIDGE_GRID_POINTS)))


def ridge_slack(t, j1, wnorm, jt):
    """Containment slack of the worst cone-surface-intersection point at time t.

    The intersection of the two cone surfaces at canonical time t >= 1 is a
    sphere of radius sqrt(t^2 - 1) in the subspace orthogonal to the
    measurement axis; the farthest point from the jammer's spatial position
    (axis offset j1, orthogonal offset wnorm) sits opposite its orthogonal
    component. Written in a form stable for very large t.
    """
    r = math.sqrt((t - 1.0) * (t + 1.0))
    u = r + wnorm
    dd = math.hypot(j1, u)
    tail = 0.0 if j1 == 0.0 else (j1 * j1) / (dd + u)
    return 1.0 / (t + r) - jt - wnorm - tail


def ridge_slack_vec(ts, j1, wnorm, jt):
    r = np.sqrt((ts - 1.0) * (ts + 1.0))
    u = r + wnorm
    dd = np.hypot(j1, u)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(dd + u > 0.0, (j1 * j1) / (dd + u), 0.0)
    return 1.0 / (ts + r) - jt - wnorm - tail


def golden_min(f, lo, hi, max_iter=120):
    """Golden-section minimum of f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= 1e-9 * (1.0 + abs(a)):
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def ridge_margin(cfg, tol=1e-9):
    """Canonical-frame binary margin of a valid configuration, by search."""
    fm, _, _ = canonicalize_pair(cfg.a, cfg.b, tol=tol)
    jc = fm.apply(cfg.j)
    j1 = jc.x[0]
    wnorm = math.hypot(*jc.x[1:]) if cfg.d > 1 else 0.0
    jt = jc.t
    if cfg.d == 1:
        return ridge_slack(1.0, j1, 0.0, jt)
    slacks = ridge_slack_vec(RIDGE_GRID, j1, wnorm, jt)
    i = int(np.argmin(slacks))
    lo = RIDGE_GRID[max(i - 1, 0)]
    hi = RIDGE_GRID[min(i + 1, len(RIDGE_GRID) - 1)]
    _, refined = golden_min(lambda t: ridge_slack(t, j1, wnorm, jt), lo, hi)
    return min(float(slacks[i]), refined, -(jt + wnorm))
