"""Minkowski geometry in d spatial dimensions, natural units (c = 1).

Events are points (x_1 .. x_d, t). Light cones are closed sets, and all
classifications use a symmetric tolerance band so that points numerically
on a cone surface are reported as boundary rather than flipping sides.
Every ``tol`` argument must be a finite number > 0 (not a bool or a
string); None means ``GEOMETRIC_TOL`` = 1e-9. No result reads the
environment: each depends on its arguments alone.

Each call takes single events, so the module is plain ``math`` on
coordinate tuples and imports no numpy.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass

GEOMETRIC_TOL = 1e-9

TIMELIKE = "timelike"
SPACELIKE = "spacelike"
NULL = "null"


def _resolve_tol(tol=None) -> float:
    """``tol`` as a float, or ``GEOMETRIC_TOL`` when it is None.

    Raises ``ValueError`` unless the value is a real number by ``_real``'s
    rule (``_json_number``'s: not a bool or a string), finite and > 0. A
    float skips ``_real``, which costs about eight times as much. Every
    ``tol`` argument of ``spacetime`` and ``jamming`` goes through it.
    """
    if tol is None:
        return GEOMETRIC_TOL
    value = tol if type(tol) is float else _real(tol)
    if value is None or not 0.0 < value < math.inf:
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    return value


def _real(value) -> float | None:
    """``value`` as a float if it is a real number and not a bool (an int
    too large for a float gives inf), else None."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return math.inf
    return None


def _json_number(value, name: str, integer: bool = False):
    """``value`` as a float, or an int if ``integer``; ``ValueError`` naming
    ``name`` unless it is a finite real number (not a bool or a string), and
    integral if ``integer``. The package's one rule for numbers read from
    JSON (event coordinates, configuration ``'d'``, box ``'P'``, model
    ``'strategy'``, ``'thetas'`` and ``'values'``), for strategy ids, and,
    through ``_real``, for the coordinates of every ``Event`` and ``Boost``."""
    number = _real(value)
    if number is not None and math.isfinite(number) and (not integer or number.is_integer()):
        return int(value) if integer else number
    kind = "an integer" if integer else "a finite number"
    raise ValueError(f"{name} must be {kind}, got {value!r}")


def _as_float_tuple(values) -> tuple[float, ...]:
    """``values`` as a tuple of finite floats; ``ValueError`` naming the
    value for a string, bytes or a non-iterable, for a coordinate that is
    not a real number by ``_real``'s rule (a bool, a string, None), and for
    one that is not finite."""
    if not isinstance(values, (str, bytes, bytearray)):
        try:
            out = tuple(values)
        except TypeError:
            pass
        else:
            for v in out:
                if type(v) is not float:  # floats, the common case, skip this
                    out = tuple(map(_real, out))
                    break
            if None not in out:
                if not all(map(math.isfinite, out)):
                    raise ValueError(f"coordinates must be finite, got {out}")
                return out
    raise ValueError(f"coordinates must be a sequence of numbers, got {values!r}")


def _dot(p, q) -> float:
    """p.q for sequences of equal length: ``sum(map(operator.mul, p, q))``,
    with sums of one and two terms written out from 0.0 (the note above
    ``_row_point`` says why the bits are the same)."""
    n = len(p)
    if n == 2:
        return 0.0 + p[0] * q[0] + p[1] * q[1]
    if n == 1:
        return 0.0 + p[0] * q[0]
    return sum(map(operator.mul, p, q))


@dataclass(frozen=True)
class Event:
    """A point in (d+1)-dimensional Minkowski spacetime."""

    x: tuple[float, ...]
    t: float

    def __post_init__(self):
        object.__setattr__(self, "x", _as_float_tuple(self.x))
        if type(self.t) is not float:
            t = _real(self.t)
            if t is None:
                raise ValueError(f"time coordinate must be a finite number, got {self.t!r}")
            object.__setattr__(self, "t", t)
        if len(self.x) < 1:
            raise ValueError("spatial dimension must be at least 1")
        if not math.isfinite(self.t):
            raise ValueError(f"time coordinate must be finite, got {self.t}")

    @property
    def d(self) -> int:
        return len(self.x)

    def to_json(self) -> list[float]:
        """Serialize as [x_1, ..., x_d, t]."""
        return [*self.x, self.t]

    @classmethod
    def from_json(cls, data, key: str = "event JSON") -> "Event":
        """Read ``[x_1, ..., x_d, t]``; ``ValueError`` names ``key`` unless
        ``data`` is a list of at least two finite numbers."""
        try:
            if isinstance(data, (list, tuple)) and len(data) >= 2:
                coords = [_json_number(v, key) for v in data]
                return cls(x=tuple(coords[:-1]), t=coords[-1])
        except ValueError:
            pass
        raise ValueError(
            f"{key} must be a list [x..., t] of at least two finite numbers, got {data!r}"
        )


@dataclass(frozen=True)
class Boost:
    """A Lorentz boost with velocity strictly below light speed."""

    v: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "v", _as_float_tuple(self.v))
        if self.speed >= 1.0:
            raise ValueError(f"boost speed must be < 1, got {self.speed}")

    @property
    def d(self) -> int:
        return len(self.v)

    @property
    def speed(self) -> float:
        return math.sqrt(_dot(self.v, self.v))

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.speed**2)


@dataclass(frozen=True)
class IntervalClass:
    """Separation class of an event pair, with s^2 = dt^2 - |dx|^2."""

    kind: str
    squared: float


def _require_same_dimension(*events: Event) -> int:
    dims = {e.d for e in events}
    if len(dims) != 1:
        raise ValueError(f"events have mismatched dimensions: {sorted(dims)}")
    return dims.pop()


def _squared_interval(e1: Event, e2: Event) -> float:
    """s^2 = dt^2 - |dx|^2 between two events of one dimension.

    Raises ``ValueError`` naming both events when s^2 is not finite: a time
    or space difference above about 1.3e154 overflows when squared.
    """
    dt = e2.t - e1.t
    dx = [q - p for p, q in zip(e1.x, e2.x)]
    s2 = dt * dt - _dot(dx, dx)
    if not math.isfinite(s2):
        raise _overflow_error(e1.to_json(), e2.to_json(), s2)
    return s2


def _overflow_error(first: list[float], second: list[float], s2: float) -> ValueError:
    """``_squared_interval``'s error for the events ``first`` and ``second``
    ([x..., t]), whose s^2 is not finite."""
    return ValueError(f"the interval between events {first} and {second} overflows: s^2 = {s2}")


def _interval_kind(s2: float, tol: float) -> str:
    """Separation class of a squared interval under the tolerance band."""
    if s2 > tol:
        return TIMELIKE
    if s2 < -tol:
        return SPACELIKE
    return NULL


def interval(e1: Event, e2: Event, tol: float | None = None) -> IntervalClass:
    """Classify the interval between two events; symmetric in its arguments.

    Raises ``ValueError`` naming both events when s^2 is not finite: a time
    or space difference above about 1.3e154 overflows when squared.
    """
    _require_same_dimension(e1, e2)
    tol = _resolve_tol(tol)
    s2 = _squared_interval(e1, e2)
    return IntervalClass(kind=_interval_kind(s2, tol), squared=s2)


def boost(e: Event, b: Boost) -> Event:
    """Apply a Lorentz boost to an event.

    The component of x along v maps to gamma*(x_par - v t), orthogonal
    components are unchanged, and t' = gamma*(t - v.x).
    """
    if b.d != e.d:
        raise ValueError(f"boost has dimension {b.d}, event has dimension {e.d}")
    v2 = _dot(b.v, b.v)
    if v2 == 0.0:
        return e
    g = b.gamma
    vdotx = _dot(b.v, e.x)
    k = (g - 1.0) * vdotx / v2 - g * e.t
    return Event(tuple(x + k * c for x, c in zip(e.x, b.v)), g * (e.t - vdotx))


def cone_slack(e: Event, apex: Event) -> float:
    """Signed distance-to-surface proxy for the future cone of ``apex``:
    (e.t - apex.t) - |e.x - apex.x|, positive inside, negative outside.
    Membership in the closed cone is slack >= 0 up to tolerance. Swapping
    the arguments, ``cone_slack(apex, e)``, gives the past cone of ``apex``.
    """
    _require_same_dimension(e, apex)
    return (e.t - apex.t) - math.dist(e.x, apex.x)


MAX_ORDERING_EVENTS = 8
_UNSOLVED = object()  # a face not yet solved; None is a face without a KKT point


def _face_point(face, d: int) -> tuple[float, ...] | None:
    """Minimum-norm v with a.v = b on every row (a, b) of ``face``, if it is
    a KKT point: v = A^T lam with lam = (A A^T)^-1 b <= 0.

    Gram-Schmidt on the unit rows gives A = R Q with Q orthonormal and R
    lower triangular; then v = Q^T c with R c = b, and R^T lam = c. None when
    a row lies within 1e-6 (sine of the angle) of the span of those before
    it, or when some lam > 1e-12 (rounding allowed for).

    ``_row_point`` and ``_pair_point`` are this function written out for
    one and two rows; the prefix search calls it for three or more.
    """
    basis: list[tuple[float, ...]] = []
    r: list[list[float]] = []
    coef: list[float] = []
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


# The written-out forms below perform _face_point's float operations in the
# same order. A dot product of d terms stays a _dot call: from Python 3.12 on,
# sum() of floats is compensated, and an unrolled sum of three or more terms
# can differ from it in the last bit. A sum of one or two terms, started
# from 0 as sum() starts, is the same in every version, so those are
# written out as 0.0 + x (+ y), here and in _dot for d = 1 and 2.


def _row_point(a, b) -> tuple[float, ...] | None:
    """``_face_point([(a, b)], d)``: the projection of 0 onto a.v = b, if
    its multiplier (b / |a|^2) is <= 1e-12."""
    norm = math.sqrt(_dot(a, a))
    if norm <= 1e-6:
        return None
    c = b / norm
    if c / norm > 1e-12:
        return None
    return tuple([0.0 + c * (x / norm) for x in a])


def _pair_point(a1, b1, a2, b2) -> tuple[float, ...] | None:
    """``_face_point([(a1, b1), (a2, b2)], d)``: one 2x2 Gram-Schmidt step."""
    n1 = math.sqrt(_dot(a1, a1))
    if n1 <= 1e-6:
        return None
    q1 = [x / n1 for x in a1]
    c1 = b1 / n1
    p = _dot(a2, q1)
    w = [x - (0.0 + p * y) for x, y in zip(a2, q1)]
    n2 = math.sqrt(_dot(w, w))
    if n2 <= 1e-6:
        return None
    c2 = (b2 - (0.0 + p * c1)) / n2
    lam2 = c2 / n2
    if lam2 > 1e-12 or (c1 - (0.0 + p * lam2)) / n1 > 1e-12:
        return None
    return tuple([0.0 + c1 * x + c2 * (y / n2) for x, y in zip(q1, w)])


def _min_norm_point(path, rows, rhs, bounds, faces, d: int) -> tuple[float, ...] | None:
    """Minimum-norm point of the half-spaces rows[s].v <= rhs[s] (unit
    rows) for s in ``path``, given that it lies on the last one; None if
    they do not intersect.

    The minimum is the KKT point of a face A_S v = b_S of at most d
    independent rows, one of them the last. The faces are tried smallest
    first; the first KKT point that satisfies every row, up to 1e-12 of
    rounding (``bounds[s]`` is ``rhs[s] + 1e-12``), is the minimum, as the
    problem is convex. ``faces`` maps each face solved so far to its KKT
    point or None, and gains the faces solved here; it is local to one call
    of ``achievable_orderings``. A face of the one row s is keyed by the int
    s, a face of the rows s0 and s by the int (s0 + 1) * nn + s (nn =
    len(rows), so the two never meet), and a larger face by its tuple of
    rows, the new row last.
    """
    last = path[-1]
    v = faces.get(last, _UNSOLVED)
    if v is _UNSOLVED:
        v = faces[last] = _row_point(rows[last], rhs[last])
    if v is not None and _within(v, path, rows, bounds):
        return v
    nn = len(rows)
    old = path[:-1]
    for size in range(1, min(d, len(path))):
        for subset in itertools.combinations(old, size):
            key = (subset[0] + 1) * nn + last if size == 1 else (*subset, last)
            v = faces.get(key, _UNSOLVED)
            if v is _UNSOLVED:
                if size == 1:
                    s = subset[0]
                    v = _pair_point(rows[s], rhs[s], rows[last], rhs[last])
                else:
                    v = _face_point([(rows[s], rhs[s]) for s in key], d)
                faces[key] = v
            if v is not None and _within(v, path, rows, bounds):
                return v
    return None


def _within(v, path, rows, bounds) -> bool:
    """Whether v satisfies rows[s].v <= bounds[s] for every s in ``path``."""
    for s in path:
        if not _dot(rows[s], v) <= bounds[s]:
            return False
    return True


def _witness(v: tuple[float, ...]) -> Boost:
    """``Boost(v)`` for a tuple of floats whose norm the search found below
    1 - tol, built without ``Boost.__post_init__``, whose check of
    ``Boost.speed`` (the same sqrt(_dot(v, v))) would repeat that test."""
    witness = object.__new__(Boost)
    object.__setattr__(witness, "v", v)
    return witness


def _pair_error(i: int, k: int, s2: float, tol: float) -> ValueError:
    """The error for events i and k, whose s^2 is not below -tol."""
    if not math.isfinite(s2):
        return ValueError(f"the interval between events {i} and {k} overflows: s^2 = {s2}")
    return ValueError(
        f"events {i} and {k} are {TIMELIKE if s2 > tol else NULL}, not spacelike; "
        "their order is frame-independent"
    )


def achievable_orderings(
    events: list[Event], tol: float | None = None
) -> dict[tuple[int, ...], Boost]:
    """Every strict time order of mutually spacelike events that a boost
    realises, each with a witness boost.

    A boost with velocity v gives t' = gamma (t - v.x) with gamma > 0, so the
    order pi (earliest first) is reachable iff some |v| < 1 satisfies
    v.(x_{pi(k+1)} - x_{pi(k)}) < t_{pi(k+1)} - t_{pi(k)} for every k. The
    test is exact up to ``tol`` (None means ``GEOMETRIC_TOL``): each
    half-space is shrunk by tol*|dx|, and the order is kept iff the
    minimum-norm point of the shrunk, closed half-spaces has norm < 1 - tol.
    That point is the witness, so each of its boosted time steps is at least
    tol*|dx|, less 1e-12*|dx| of rounding; tol must exceed that allowance,
    or a witness could leave two events simultaneous. Both paths below test
    that norm as ``Boost.speed`` computes it, so each witness is built
    without running ``Boost``'s checks again; it equals ``Boost(witness.v)``.

    In d >= 2, orders are built by depth-first search over prefixes: each
    added event adds one half-space, and a prefix whose half-spaces miss the
    ball |v| < 1 - tol is pruned with all its extensions. The half-spaces of
    all ordered pairs, as unit rows, right-hand sides and test bounds
    (right-hand side + 1e-12), are built once per call in flat lists indexed
    by i * n + k. The minimum is the KKT point of a face (the new half-space
    and at most d - 1 earlier ones). Faces of one row are solved in closed
    form as the projection of 0 onto the row's hyperplane, faces of two rows
    as one written-out Gram-Schmidt step, and larger faces (d >= 3) by
    Gram-Schmidt on a list of rows; all three give the same bits. Many
    prefixes share a face, so each face is solved once per call: the face
    points live in a dict local to the call, keyed by int for faces of one
    and two rows and by tuple for larger ones (see ``_min_norm_point``), and
    no cache outlives the call. The search state is one prefix per call: its
    order, written in place at a depth counter, its half-spaces, and a flag
    per event not yet placed.

    In d = 1 no search runs. The C(n, 2) simultaneity velocities v = dt/dx
    cut (-1, 1) into gaps, and every velocity in one gap gives one order. A
    sweep up from v = -1, which swaps each pair at its own velocity, gives
    the order of every gap, and each order is tested along its own path by
    the prefix search's rules: keep w while a*w <= b + 1e-12, else reject
    if b > 1e-12, or project w to b*a and reject if an earlier row fails or
    |w| >= 1 - tol. The gaps are complete: a kept order's witness lies at
    least tol - 1e-12 inside the order's open cell, so the gap that holds
    the witness has that order. The bits are the prefix search's, since
    u = dx/|dx| is exactly +-1 (sqrt(fl(dx^2)) = |dx|), which turns the
    pair loop, ``_dot`` and ``_row_point`` into these scalar operations.

    Returns a map from index permutation to witness boost, in lexicographic
    order of the permutations. Raises ``ValueError`` for fewer than 2 or
    more than ``MAX_ORDERING_EVENTS`` events, for a tol that is not a finite
    number > 1e-12, for a pair that is not spacelike, or for a pair whose
    |dx|^2 or s^2 overflows (|dx| or |dt| above about 1.3e154).
    """
    n = len(events)
    if n < 2:
        raise ValueError("need at least two events")
    if n > MAX_ORDERING_EVENTS:
        raise ValueError(
            f"at most {MAX_ORDERING_EVENTS} events, got {n}: "
            "the number of orders grows as n!"
        )
    d = _require_same_dimension(*events)
    tol = _resolve_tol(tol)
    if tol <= 1e-12:
        raise ValueError(
            f"orderings need tol > 1e-12, the rounding allowance of their test, or an "
            f"order may leave two events simultaneous; got tol = {tol!r}"
        )
    if d == 1:
        return _orderings_1d(events, tol)
    # rows[i * n + k], rhs[i * n + k]: the half-space u.v <= dt/|dx| - tol that
    # puts k after i; the one that puts i after k is its negation, shrunk by
    # tol too
    rows: list = [None] * (n * n)
    rhs = [0.0] * (n * n)
    for i, ei in enumerate(events):
        for k in range(i + 1, n):
            ek = events[k]
            dx = [q - p for p, q in zip(ei.x, ek.x)]
            dt = ek.t - ei.t
            sq = _dot(dx, dx)
            s2 = dt * dt - sq
            if not -math.inf < s2 < -tol:
                raise _pair_error(i, k, s2, tol)
            length = math.sqrt(sq)
            u = tuple([c / length for c in dx])
            beta = dt / length
            rows[i * n + k], rhs[i * n + k] = u, beta - tol
            rows[k * n + i], rhs[k * n + i] = tuple([-c for c in u]), -beta - tol
    bounds = [b + 1e-12 for b in rhs]

    found: dict[tuple[int, ...], Boost] = {}
    faces: dict = {}
    order = [0] * n
    path: list[int] = []
    free = [True] * n
    limit = 1.0 - tol

    def extend(k, v, depth):
        order[depth] = k
        depth += 1
        if depth == n:
            found[tuple(order)] = _witness(v)
            return
        free[k] = False
        base = k * n
        for j in range(n):
            if free[j]:
                s = base + j
                path.append(s)
                # the old minimum stays the minimum while it satisfies the new
                # row, and its norm was checked when it was found
                if _dot(rows[s], v) <= bounds[s]:
                    extend(j, v, depth)
                else:
                    w = _min_norm_point(path, rows, rhs, bounds, faces, d)
                    if w is not None and math.sqrt(_dot(w, w)) < limit:
                        extend(j, w, depth)
                path.pop()
        free[k] = True

    # every branch starts at v = 0, whose norm is checked here, once
    if 0.0 < limit:
        for i in range(n):
            extend(i, (0.0,) * d, 0)
    return found


def _orderings_1d(events, tol) -> dict[tuple[int, ...], Boost]:
    """``achievable_orderings`` in d = 1: the order of each gap between the
    sorted simultaneity velocities, kept if it passes the prefix search's
    rules along its own path."""
    n = len(events)
    xs = [e.x[0] for e in events]
    ts = [e.t for e in events]
    # step[i * n + k] = (a, b): the half-space a*v <= b, a = +-1, that puts k
    # after i; pos[i]: how many events come before event i, swept upwards in
    # v from -1; swaps[cut]: the pairs (first, last) whose order flips at
    # v = cut
    step = [None] * (n * n)
    pos = [0] * n
    swaps: dict[float, list[tuple[int, int]]] = {}
    for i in range(n):
        for k in range(i + 1, n):
            dx = xs[k] - xs[i]
            dt = ts[k] - ts[i]
            s2 = dt * dt - (0.0 + dx * dx)
            if not -math.inf < s2 < -tol:
                raise _pair_error(i, k, s2, tol)
            # |dx| is sqrt(fl(dx^2)), the prefix search's length
            beta = dt / abs(dx)
            a = 1.0 if dx > 0.0 else -1.0
            step[i * n + k] = (a, beta - tol)
            step[k * n + i] = (-a, -beta - tol)
            # below the cut, t' = gamma (t - v x) puts k after i iff dx > 0;
            # |cut| < 1, since fl(dt^2) < fl(dx^2)
            first, last = (i, k) if dx > 0.0 else (k, i)
            swaps.setdefault(dt / dx, []).append((first, last))
            pos[last] += 1
    found: dict[tuple[int, ...], Boost] = {}
    if not 0.0 < 1.0 - tol:
        return found
    orders = {tuple(sorted(range(n), key=pos.__getitem__))}
    for cut in sorted(swaps):
        for first, last in swaps[cut]:
            pos[first] += 1
            pos[last] -= 1
        orders.add(tuple(sorted(range(n), key=pos.__getitem__)))
    for order in sorted(orders):
        # the prefix search's rules on one path: 0.0 + a*w <= b + 1e-12 for
        # every row so far, with a = +-1, reads lo <= w <= hi, and its norm
        # sqrt(fl(w^2)) is |w| wherever it can reach 1 - tol
        w = 0.0
        lo, hi = -math.inf, math.inf
        for i, k in zip(order, order[1:]):
            a, b = step[i * n + k]
            if a > 0.0:
                hi = min(hi, b + 1e-12)
            else:
                lo = max(lo, -(b + 1e-12))
            if not lo <= w <= hi:
                w = 0.0 + b * a
                if b > 1e-12 or not lo <= w <= hi or not abs(w) < 1.0 - tol:
                    break
        else:
            found[order] = _witness((w,))
    return found
