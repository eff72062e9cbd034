"""The boost-sampling ordering search, kept as an independent oracle for the
exact ``achievable_orderings``.

It boosts the events by every velocity of a ``VelocityGrid`` (speeds in
steps of 0.01 up to 0.99 crossed with 24 directions, random directions for
d >= 3), sorts the boosted times, skips samples with two times closer than
``TIE_TOL`` and records the first velocity that gives each order. The
boosted times of all velocities are computed in one array step,
t' = gamma (t - v.x); the sort-and-skip rule is unchanged. Every order it
reports is reachable, but it can miss orders whose velocity set falls
between grid points.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from nonlocality.spacetime import Boost

TIE_TOL = 1e-12  # samples with two boosted times closer than this are skipped


@dataclass(frozen=True)
class VelocityGrid:
    """Sampling grid of boost velocities: speeds crossed with directions."""

    speeds: tuple[float, ...]
    directions: tuple[tuple[float, ...], ...]

    @classmethod
    def for_dimension(
        cls,
        d: int,
        speed_step: float = 0.01,
        max_speed: float = 0.99,
        n_directions: int = 24,
        seed: int = 7,
    ) -> "VelocityGrid":
        if not 0.0 < max_speed < 1.0:
            raise ValueError(f"max_speed must lie in (0, 1), got {max_speed}")
        raw = np.arange(0.0, max_speed + speed_step / 2, speed_step)
        speeds = tuple(float(s) for s in raw[raw <= max_speed])
        if d == 1:
            dirs = ((1.0,), (-1.0,))
        elif d == 2:
            angles = np.linspace(0.0, 2.0 * np.pi, n_directions, endpoint=False)
            dirs = tuple((math.cos(a), math.sin(a)) for a in angles)
        else:
            rng = np.random.default_rng(seed)
            raw = rng.normal(size=(n_directions, d))
            raw /= np.linalg.norm(raw, axis=1, keepdims=True)
            dirs = tuple(tuple(row) for row in raw)
        return cls(speeds=speeds, directions=dirs)

    def velocities(self):
        yield Boost((0.0,) * len(self.directions[0]))
        for s in self.speeds:
            if s == 0.0:
                continue
            for u in self.directions:
                yield Boost(tuple(s * c for c in u))


@functools.lru_cache(maxsize=None)
def _default_velocities(d: int) -> tuple[list[Boost], np.ndarray]:
    boosts = list(VelocityGrid.for_dimension(d).velocities())
    return boosts, np.array([b.v for b in boosts])


def grid_orderings(events) -> dict[tuple[int, ...], Boost]:
    """Strict time orders of ``events`` reached by the default grid's
    velocities, each with the first velocity that reaches it."""
    boosts, vel = _default_velocities(events[0].d)
    x = np.array([e.x for e in events])
    t = np.array([e.t for e in events])
    gamma = 1.0 / np.sqrt(1.0 - np.einsum("ij,ij->i", vel, vel))
    times = gamma[:, None] * (t[None, :] - vel @ x.T)
    orders = np.argsort(times, axis=1, kind="stable")
    gaps = np.diff(np.take_along_axis(times, orders, axis=1), axis=1)
    kept = np.flatnonzero((gaps >= TIE_TOL).all(axis=1))
    unique, first = np.unique(orders[kept], axis=0, return_index=True)
    return {tuple(int(i) for i in row): boosts[kept[j]] for row, j in zip(unique, first)}
