"""The prefix search of ``achievable_orderings`` as it was before face points
were shared across prefixes, kept as an oracle.

Every prefix solves its faces afresh: ``_min_norm_point`` tries the faces
of a prefix's half-spaces smallest first, with the new half-space last, and
``_face_point`` solves each one by Gram-Schmidt. The library must return
the same orders, in the same order, with bit-identical witness velocities,
and raise the same errors.
"""

import itertools
import math

from nonlocality.spacetime import (
    GEOMETRIC_TOL,
    MAX_ORDERING_EVENTS,
    SPACELIKE,
    Boost,
    _require_same_dimension,
    interval,
)


def _dot(p, q) -> float:
    return sum(x * y for x, y in zip(p, q))


def _face_point(face, d: int):
    """Minimum-norm v with a.v = b on every row (a, b) of ``face``, if it is
    a KKT point (lam <= 1e-12); None for a dependent row or a positive lam."""
    basis = []
    r = []
    coef = []
    for a, b in face:
        row = [_dot(a, q) for q in basis]
        w = [a[k] - _dot(row, [q[k] for q in basis]) for k in range(d)]
        norm = math.sqrt(_dot(w, w))
        if norm <= 1e-6:
            return None
        basis.append(tuple(c / norm for c in w))
        coef.append((b - _dot(row, coef)) / norm)
        r.append([*row, norm])
    lam = [0.0] * len(face)
    for i in reversed(range(len(face))):
        lam[i] = (coef[i] - sum(r[k][i] * lam[k] for k in range(i + 1, len(face)))) / r[i][i]
        if lam[i] > 1e-12:
            return None
    return tuple(_dot(coef, [q[k] for q in basis]) for k in range(d))


def _within(v, rows) -> bool:
    return all(_dot(a, v) <= b + 1e-12 for a, b in rows)


def _min_norm_point(rows, d: int):
    """Minimum-norm point of the half-spaces in ``rows`` that lies on the
    last one, or None: the first face, smallest first, whose KKT point
    satisfies every row."""
    *old, last = rows
    for size in range(min(d, len(rows))):
        for subset in itertools.combinations(old, size):
            v = _face_point((*subset, last), d)
            if v is not None and _within(v, rows):
                return v
    return None


def achievable_orderings(events, tol=None):
    n = len(events)
    if n < 2:
        raise ValueError("need at least two events")
    if n > MAX_ORDERING_EVENTS:
        raise ValueError(
            f"at most {MAX_ORDERING_EVENTS} events, got {n}: "
            "the number of orders grows as n!"
        )
    d = _require_same_dimension(*events)
    tol = GEOMETRIC_TOL if tol is None else tol
    for i in range(n):
        for k in range(i + 1, n):
            iv = interval(events[i], events[k], tol=tol)
            if iv.kind != SPACELIKE:
                raise ValueError(
                    f"events {i} and {k} are {iv.kind}, not spacelike; "
                    "their order is frame-independent"
                )
    step = [[None] * n for _ in range(n)]
    for i, ei in enumerate(events):
        for k, ek in enumerate(events):
            if i != k:
                dx = [q - p for p, q in zip(ei.x, ek.x)]
                length = math.sqrt(_dot(dx, dx))
                step[i][k] = (tuple(c / length for c in dx), (ek.t - ei.t) / length - tol)

    found = {}

    def extend(order, rows, v):
        if len(order) == n:
            found[order] = Boost(v)
            return
        for k in range(n):
            if k in order:
                continue
            grown = (*rows, step[order[-1]][k])
            w = v if _within(v, grown[-1:]) else _min_norm_point(grown, d)
            if w is not None and math.sqrt(_dot(w, w)) < 1.0 - tol:
                extend((*order, k), grown, w)

    for i in range(n):
        extend((i,), (), (0.0,) * d)
    return found
