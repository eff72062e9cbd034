"""The numerical ridge solver, kept as an independent oracle for the
closed-form binary condition, with the canonical-frame map it needs.

``canonicalize_pair`` builds a ``FrameMap`` (boost, shift, rotation and
scaling, in numpy) that puts a spacelike pair at (-1, 0...; 0) and
(+1, 0...; 0). The solver maps the pair (a, b) there and minimizes the
containment slack over the cone-surface intersection: a 481-point
geometric grid on t in [1, 1e12], golden-section refinement around the
grid minimum, and the t -> infinity limit -(j_t + w) taken analytically. In d = 1 the slack is evaluated at the overlap's apex.
"""

import math
from dataclasses import dataclass

import numpy as np

from nonlocality.spacetime import SPACELIKE, Boost, Event, boost, interval


@dataclass(frozen=True)
class FrameMap:
    """Composite coordinate change: boost, translation, orthogonal spatial
    alignment, then uniform positive scaling of all coordinates.

    Each step maps light cones to light cones (the scaling conformally), so
    cone-containment questions are invariant under the map. It is invertible
    via :meth:`apply_inverse`.
    """

    boost_velocity: tuple[float, ...]
    shift_x: tuple[float, ...]  # added to spatial coords after the boost
    shift_t: float
    alignment: tuple[tuple[float, ...], ...]  # orthogonal matrix, rows
    scale: float

    def _matrix(self) -> np.ndarray:
        return np.asarray(self.alignment, dtype=float)

    def apply(self, e: Event) -> Event:
        e1 = boost(e, Boost(self.boost_velocity))
        x = np.asarray(e1.x) + np.asarray(self.shift_x)
        t = e1.t + self.shift_t
        x = self._matrix() @ x
        return Event(tuple(self.scale * x), self.scale * t)

    def apply_inverse(self, e: Event) -> Event:
        x = np.asarray(e.x) / self.scale
        t = e.t / self.scale
        x = self._matrix().T @ x
        x = x - np.asarray(self.shift_x)
        t = t - self.shift_t
        return boost(Event(tuple(x), t), Boost(tuple(-c for c in self.boost_velocity)))


def _alignment_to_first_axis(u: np.ndarray) -> np.ndarray:
    """Orthogonal matrix Q with Q @ u = e1 for a unit vector u.

    Householder reflection; for u already equal to e1 returns the identity.
    """
    d = u.shape[0]
    e1 = np.zeros(d)
    e1[0] = 1.0
    w = u - e1
    wnorm2 = float(w @ w)
    if wnorm2 < 1e-30:
        return np.eye(d)
    return np.eye(d) - 2.0 * np.outer(w, w) / wnorm2


def canonicalize_pair(
    a: Event, b: Event, tol: float | None = None
) -> tuple[FrameMap, Event, Event]:
    """Construct the frame in which a spacelike pair sits at (-1, 0...; 0)
    and (+1, 0...; 0).

    Combines a boost to simultaneity, a translation of the midpoint to the
    origin, an orthogonal alignment of the separation axis with x_1, and a
    uniform scaling to separation 2. Raises if the pair is not spacelike.
    """
    iv = interval(a, b, tol=tol)
    if iv.kind != SPACELIKE:
        raise ValueError(f"canonicalize_pair requires a spacelike pair, got {iv.kind}")
    dx = np.asarray(b.x) - np.asarray(a.x)
    dt = b.t - a.t
    sep = float(np.linalg.norm(dx))
    if dt != 0.0:
        vel = (dt / sep) * (dx / sep)  # |vel| = |dt|/sep < 1 since spacelike
    else:
        vel = np.zeros(a.d)
    bst = Boost(tuple(vel))
    a1 = boost(a, bst)
    b1 = boost(b, bst)
    mid_x = (np.asarray(a1.x) + np.asarray(b1.x)) / 2.0
    mid_t = (a1.t + b1.t) / 2.0
    sep1 = np.asarray(b1.x) - np.asarray(a1.x)
    u = sep1 / np.linalg.norm(sep1)
    q = _alignment_to_first_axis(u)
    scale = 2.0 / float(np.linalg.norm(sep1))
    fm = FrameMap(
        boost_velocity=tuple(float(v) for v in vel),
        shift_x=tuple(float(v) for v in -mid_x),
        shift_t=float(-mid_t),
        alignment=tuple(tuple(float(v) for v in row) for row in q),
        scale=float(scale),
    )
    return fm, fm.apply(a), fm.apply(b)


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
