"""No-signalling boxes and correlation-function models for two-party,
binary-setting, binary-outcome measurements.

Outcomes are encoded as +1/-1 (index 0 is +1). A box stores the joint
distribution P(a, b | x, y) for settings x, y in {0, 1}; the four CHSH
correlations are E(x, y) = sum_ab a*b*P(a, b | x, y) and the CHSH sum is

    E(0,0) + E(0,1) + E(1,0) - E(1,1)

bounded by 2 for local deterministic strategies, 2*sqrt(2) for the singlet
correlation E(theta) = -cos(theta), and 4 algebraically. The superquantum
model reaches 4 while keeping uniform single-party marginals.

Every caller passes one box or one angle at a time, so boxes, models and
their checks are plain ``math`` on floats, and each model has one E,
``_corr`` on a folded angle, behind ``correlation``; ``maximize_chsh``
sweeps and refines through it too. numpy is imported only for the random
starts of a ``maximize_chsh`` search that reaches them
(``numpy.random.default_rng``), and in the ndarray views
``NoSignallingBox.probs``, ``correlations()``, ``marginals()`` and
``TableModel.thetas`` and ``values``. ``sample_outcomes`` draws its counts
from the standard library's ``random``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from math import fabs, floor, lgamma, log, log2, sqrt
from operator import sub
from typing import TYPE_CHECKING, Callable

from .spacetime import _json_number, _real

PROB_TOL = 1e-12
CLASSICAL_BOUND = 2.0
QUANTUM_BOUND = 2.0 * math.sqrt(2.0)
ALGEBRAIC_BOUND = 4.0

OUTCOMES = (+1, -1)  # outcome value at index 0 and 1

if TYPE_CHECKING:
    import numpy as np


_TWO_PI = 2.0 * math.pi


def _angle(theta, name: str = "angle") -> float:
    """``theta`` as a float by ``_real``'s rule, ``_json_number``'s: ``ValueError``
    naming ``name`` for a bool, a string or None. An int too large gives inf."""
    value = _real(theta)
    if value is None:
        raise ValueError(f"{name} must be a finite number, got {theta!r}")
    return value


def reduce_angle(theta: float) -> float:
    """Fold any finite angle into [0, pi] using E(t) = E(-t) = E(2*pi - t):
    ``_angle`` on a non-float, the finite check, t = fmod(|theta|, 2*pi),
    then 2*pi - t where t > pi. ``CorrelationModel.correlation`` repeats
    these operations inline, bit for bit
    (``test_scalar_correlation_matches_the_reference_fold``)."""
    if type(theta) is not float:
        theta = _angle(theta)
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta}")
    t = math.fmod(abs(theta), _TWO_PI)
    return _TWO_PI - t if t > math.pi else t


def _json_numbers(data, name: str, shape: tuple) -> list[float]:
    """The numbers of ``data``, nested lists of the given shape (``None``: any
    length), in index order as one flat list; each is read by ``_json_number``
    under its key, such as ``'P'[0][1][0][0]``. ``ValueError`` names the first
    bad key."""
    if not isinstance(data, (list, tuple)) or shape[0] not in (None, len(data)):
        size = "a list" if shape[0] is None else f"a list of {shape[0]} items"
        raise ValueError(f"{name} must be {size}, got {data!r}")
    if len(shape) > 1:
        return [v for i, item in enumerate(data) for v in _json_numbers(item, f"{name}[{i}]", shape[1:])]
    # finite floats, the common case, need no key
    return [v if type(v) is float and math.isfinite(v) else _json_number(v, f"{name}[{i}]")
            for i, v in enumerate(data)]


def _listed(data):
    """``data`` as nested lists where it is an ndarray or a numpy scalar."""
    return data.tolist() if hasattr(data, "tolist") else data


def _table(p: list[float]) -> tuple[float, ...]:
    """A box table, 16 finite floats in index order (x, y, a, b), checked for
    negative entries and per-setting normalization and clipped at 0 as
    ``ndarray.clip(0.0, None)`` does (which gives -0.0 as +0.0). The sums run
    in numpy's order for ``sum(axis=(2, 3))``, from +0.0 one entry at a time."""
    low = min(p)
    if low < -PROB_TOL:
        raise ValueError("box has negative probabilities")
    sums = [0.0 + p[k] + p[k + 1] + p[k + 2] + p[k + 3] for k in (0, 4, 8, 12)]
    for s in sums:
        if abs(s - 1.0) > PROB_TOL:
            raise ValueError(f"box not normalized per setting pair: sums {[sums[:2], sums[2:]]}")
    return tuple(p) if low > 0.0 else tuple([v if v > 0.0 else 0.0 for v in p])


class NoSignallingBox:
    """Joint outcome table P(a, b | x, y), indexed probs[x, y, ia, ib].

    Construction validates nonnegativity and per-setting normalization.
    The no-signalling property itself is checked, never assumed; see
    :func:`check_no_signalling`.

    A box holds its 16 numbers as floats and works on them in plain ``math``.
    ``probs``, ``correlations()`` and ``marginals()`` build ndarrays on
    access, for callers that want arrays. The sums over two outcomes are
    ``a + b``, as numpy's reductions over an axis of length 2 are for these
    nonnegative entries, so both forms agree bit for bit.
    """

    __slots__ = ("_p",)

    def __init__(self, probs):
        """``probs``: an ndarray or nested lists of shape (2, 2, 2, 2) of
        finite real numbers (not bools or strings)."""
        self._p = _table(_json_numbers(_listed(probs), "box table", (2, 2, 2, 2)))

    @classmethod
    def _of(cls, p: list[float]) -> "NoSignallingBox":
        """The box of 16 finite floats in index order, with the table checks."""
        box = object.__new__(cls)
        box._p = _table(p)
        return box

    @property
    def probs(self):
        """The table as a read-only ndarray indexed [x, y, ia, ib]."""
        import numpy as np

        arr = np.array(self._p).reshape(2, 2, 2, 2)
        arr.setflags(write=False)
        return arr

    def _correlations(self) -> list[float]:
        """E(0,0), E(0,1), E(1,0), E(1,1)."""
        p = self._p
        return [p[0] + p[3] - p[1] - p[2], p[4] + p[7] - p[5] - p[6],
                p[8] + p[11] - p[9] - p[10], p[12] + p[15] - p[13] - p[14]]

    def _marginals(self) -> tuple[list[float], list[float]]:
        """Alice's and Bob's marginals, each flat in index order (x, y, outcome)."""
        p = self._p
        return ([p[0] + p[1], p[2] + p[3], p[4] + p[5], p[6] + p[7],
                 p[8] + p[9], p[10] + p[11], p[12] + p[13], p[14] + p[15]],
                [p[0] + p[2], p[1] + p[3], p[4] + p[6], p[5] + p[7],
                 p[8] + p[10], p[9] + p[11], p[12] + p[14], p[13] + p[15]])

    def correlations(self):
        """E(x, y) for all four setting pairs, as an ndarray indexed [x, y]."""
        import numpy as np

        return np.array(self._correlations()).reshape(2, 2)

    def marginals(self):
        """Alice's and Bob's outcome distributions (P(+1), P(-1)) for every
        setting pair, each an ndarray indexed [x, y, outcome]."""
        import numpy as np

        return tuple(np.array(m).reshape(2, 2, 2) for m in self._marginals())

    def to_json(self) -> dict:
        """Index order (x, y, a, b), outcome +1 before -1."""
        p = self._p
        return {"P": [[[list(p[k:k + 2]), list(p[k + 2:k + 4])] for k in (j, j + 4)]
                      for j in (0, 8)]}

    @classmethod
    def from_json(cls, data) -> "NoSignallingBox":
        if not isinstance(data, dict) or "P" not in data:
            raise ValueError("box JSON must be an object with key 'P'")
        return cls._of(_json_numbers(data["P"], "box JSON key 'P'", (2, 2, 2, 2)))

    def __repr__(self):
        e = self._correlations()
        return f"NoSignallingBox(correlations={[e[:2], e[2:]]})"


def _lift(e: list[float]) -> NoSignallingBox:
    """``box_from_correlation`` of the four floats E(0,0), E(0,1), E(1,0), E(1,1)."""
    if not all(map(math.isfinite, e)):
        raise ValueError(f"correlations must be finite, got {[e[:2], e[2:]]}")
    if max(map(abs, e)) > 1.0 + PROB_TOL:
        raise ValueError(f"correlations must lie in [-1, 1], got {[e[:2], e[2:]]}")
    p = []
    for c in e:
        same, diff = (1.0 + c) / 4.0, (1.0 - c) / 4.0
        p += (same, diff, diff, same)
    return NoSignallingBox._of(p)


def box_from_correlation(e) -> NoSignallingBox:
    """Lift correlations to a box with uniform single-party marginals.

    ``e`` is a scalar (same correlation for all setting pairs) or a 2x2
    array indexed [x][y]. Equal outcomes get probability (1+E)/4 each and
    unequal ones (1-E)/4, so each party sees 1/2 for either outcome and the
    result is no-signalling by construction.
    """
    e = _listed(e)
    if isinstance(e, (list, tuple)):
        return _lift(_json_numbers(e, "correlation", (2, 2)))
    return _lift([_json_number(e, "correlation")] * 4)


def product_box(p_plus_a, p_plus_b) -> NoSignallingBox:
    """Uncorrelated box from per-setting P(outcome = +1) for each party, two
    finite real numbers each (not bools or strings)."""
    pa, pb = ([(p, 1.0 - p) for p in _json_numbers(_listed(data), name, (2,))]
              for data, name in ((p_plus_a, "p_plus_a"), (p_plus_b, "p_plus_b")))
    return NoSignallingBox([[[[a * b for b in qb] for a in qa] for qb in pb] for qa in pa])


@dataclass(frozen=True)
class NoSignallingReport:
    passed: bool
    max_deviation: float
    tol: float


def check_no_signalling(box: NoSignallingBox) -> NoSignallingReport:
    """Largest dependence of one party's marginals on the other's setting,
    at the probability tolerance ``PROB_TOL``."""
    pa, pb = box._marginals()
    # Alice's marginal at (x, 0) against (x, 1); Bob's at (0, y) against (1, y)
    dev = max(abs(pa[0] - pa[2]), abs(pa[1] - pa[3]), abs(pa[4] - pa[6]), abs(pa[5] - pa[7]),
              abs(pb[0] - pb[4]), abs(pb[1] - pb[5]), abs(pb[2] - pb[6]), abs(pb[3] - pb[7]))
    return NoSignallingReport(passed=dev <= PROB_TOL, max_deviation=dev, tol=PROB_TOL)


# --------------------------------------------------------------------------
# Jamming acting on boxes (the unary condition; the geometry of jamming is
# in ``jamming``)


def apply_jamming(box: NoSignallingBox, strength: float = 1.0) -> NoSignallingBox:
    """Replace correlations by the product of the single-party marginals.

    Marginals are preserved exactly per setting pair, so the unary condition
    holds by construction, and the fully jammed box is a product box with
    |CHSH| <= 2. ``strength``, a finite real number in [0, 1], mixes the
    jammed box with the original (1 = full jamming). The jammer gets no
    access to outcomes, so selective jamming is impossible by construction.
    """
    strength = _json_number(strength, "strength")
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength must lie in [0, 1], got {strength}")
    keep = 1.0 - strength
    p = []
    for k in (0, 4, 8, 12):  # one setting pair, with its marginals summed as _marginals sums them
        p0, p1, p2, p3 = box._p[k:k + 4]
        a0, a1, b0, b1 = p0 + p1, p2 + p3, p0 + p2, p1 + p3
        p += (strength * (a0 * b0) + keep * p0, strength * (a0 * b1) + keep * p1,
              strength * (a1 * b0) + keep * p2, strength * (a1 * b1) + keep * p3)
    return NoSignallingBox._of(p)


@dataclass(frozen=True)
class UnaryReport:
    holds: bool
    max_deviation: float
    tol: float


def check_unary(original: NoSignallingBox, jammed: NoSignallingBox) -> UnaryReport:
    """No single-party statistic may reveal jamming: compare all marginals,
    at the probability tolerance ``PROB_TOL``."""
    (pa, pb), (qa, qb) = original._marginals(), jammed._marginals()
    dev = max(map(abs, map(sub, pa + pb, qa + qb)))
    return UnaryReport(holds=dev <= PROB_TOL, max_deviation=dev, tol=PROB_TOL)


# --------------------------------------------------------------------------
# CHSH


@dataclass(frozen=True)
class ChshResult:
    """CHSH value with its four-term breakdown E(A,B), E(A,B'), E(A',B), E(A',B')."""

    value: float
    terms: tuple[float, float, float, float]
    angles: tuple[float, float, float, float] | None = None

    def forms(self) -> tuple[float, float, float, float]:
        """The four CHSH sums of ``terms``, with the minus sign on E(A,B),
        E(A,B'), E(A',B) and E(A',B') in turn; the last is ``value``.

        Four correlators have a local model iff every |S| <= 2 (Fine, Phys.
        Rev. Lett. 48, 291 (1982)), so the largest |S| classifies them: a PR
        box with its outcomes or settings relabelled reads 0 in the stated
        form and 4 in another.
        """
        e00, e01, e10, e11 = self.terms
        return (-e00 + e01 + e10 + e11, e00 - e01 + e10 + e11,
                e00 + e01 - e10 + e11, e00 + e01 + e10 - e11)


def chsh(box: NoSignallingBox) -> ChshResult:
    e00, e01, e10, e11 = box._correlations()
    return ChshResult(value=e00 + e01 + e10 - e11, terms=(e00, e01, e10, e11))


# Band of classify_chsh around the classical, quantum and algebraic bounds
_CLASSIFY_TOL = 1e-6


def classify_chsh(value: float) -> str:
    """Place |value| against the classical, quantum and algebraic bounds,
    each with a band of ``_CLASSIFY_TOL`` (1e-6); ``ValueError`` if it is not
    finite."""
    a = abs(value)
    if not a < math.inf:
        raise ValueError(f"CHSH value must be finite, got {value}")
    if a <= CLASSICAL_BOUND + _CLASSIFY_TOL:
        return "classical"
    if abs(a - QUANTUM_BOUND) <= _CLASSIFY_TOL:
        return "quantum-maximal"
    if a < QUANTUM_BOUND:
        return "quantum"
    if a <= ALGEBRAIC_BOUND + _CLASSIFY_TOL:
        return "superquantum"
    return "exceeds-algebraic-bound"


# --------------------------------------------------------------------------
# Correlation models E(theta)


class CorrelationModel:
    """A correlation function of the relative measurement angle.

    ``correlation``, the one scalar entry point, is ``_corr(reduce_angle(theta))``
    with the fold inline: ``_angle`` runs only on a non-float (a bool, a string
    or None is a ``ValueError``), |theta| < inf is the finite check, and the
    error and every bit are ``reduce_angle``'s
    (``test_scalar_correlation_matches_the_reference_fold``). A subclass
    defines ``_corr`` on [0, pi], a float to a float; ``maximize_chsh``
    calls it directly on angles it folds with the same operations.

    ``chsh_bound`` is a certified upper bound on |CHSH| at any four angles,
    in exact arithmetic; ``maximize_chsh`` returns as soon as it reaches
    it. The default, ``ALGEBRAIC_BOUND``, holds for every E with |E| <= 1;
    ``SingletModel`` states Tsirelson's 2*sqrt(2) (Cirel'son, Lett. Math.
    Phys. 4, 93 (1980)) and ``DeterministicModel`` 2. A subclass that
    changes E must restate ``chsh_bound``, or a search of it may stop
    before its maximum.
    """

    kind = "abstract"
    chsh_bound = ALGEBRAIC_BOUND

    def correlation(self, theta: float) -> float:
        if type(theta) is not float:
            theta = _angle(theta)
        t = abs(theta)
        if not t < math.inf:
            raise ValueError(f"angle must be finite, got {theta}")
        t = math.fmod(t, _TWO_PI)
        return self._corr(_TWO_PI - t if t > math.pi else t)

    def _corr(self, theta: float) -> float:
        raise NotImplementedError

    def to_json(self) -> dict:
        return {"kind": self.kind}


class SingletModel(CorrelationModel):
    """Two spin-1/2 particles in the singlet state: E(theta) = -cos(theta).

    No quantum state gives |CHSH| above 2*sqrt(2) (Cirel'son, Lett. Math.
    Phys. 4, 93 (1980)), so ``chsh_bound`` is ``QUANTUM_BOUND``. The float
    2*sqrt(2) lies about 1.9e-16 above the true value, and a sum of four
    rounded cosines may still land an ulp above it.
    """

    kind = "singlet"
    chsh_bound = QUANTUM_BOUND

    def _corr(self, theta: float) -> float:
        return -math.cos(theta)


_BAND_LO = math.pi / 4.0  # superquantum E is +1 up to here
_BAND_HI = 3.0 * math.pi / 4.0  # and -1 from here


class SuperquantumModel(CorrelationModel):
    """Maximally nonlocal no-signalling correlation family.

    E(theta) = 1 up to pi/4, -1 from 3*pi/4, and sin(2*theta) in between. It
    reaches CHSH = 3*E(pi/4) - E(3*pi/4) = 4 at eq2 whatever monotone bridge
    joins the plateaus; a ``TableModel`` carries any other bridge, such as
    the linear one through (pi/4, 1) and (3*pi/4, -1).
    """

    kind = "superquantum"

    def _corr(self, theta: float) -> float:
        if theta <= _BAND_LO:
            return 1.0
        if theta >= _BAND_HI:
            return -1.0
        # sin(2*theta) == cos(2*theta - pi/2): strictly decreasing on
        # (pi/4, 3*pi/4), hits +1 and -1 at the endpoints, and is odd about
        # theta = pi/2 so the antisymmetry E(pi - theta) = -E(theta) is exact.
        return math.sin(2.0 * theta)


class DeterministicModel(CorrelationModel):
    """Local deterministic strategy, id 0..15.

    The id encodes fixed outcomes (msb to lsb): Alice at setting 0 and 1,
    Bob at setting 0 and 1, with bit 0 meaning outcome +1. As a function of
    relative angle the strategy contributes a constant correlation (taken as
    the product of the two setting-0 outcomes); its full per-setting
    structure lives in :func:`enumerate_deterministic`.

    E is a constant +1 or -1, so every four angles give |CHSH| = 2 exactly,
    also in floats: ``chsh_bound`` is ``CLASSICAL_BOUND``. ``_corr`` reads it
    from ``alice`` and ``bob`` on each call (+1.0 where their setting-0
    outcomes agree, else -1.0), so no copy of it can go stale.
    """

    kind = "classical"
    chsh_bound = CLASSICAL_BOUND

    def __init__(self, strategy_id: int):
        self.strategy_id = _json_number(strategy_id, "strategy id", integer=True)
        if not 0 <= self.strategy_id <= 15:
            raise ValueError(f"strategy id must be in 0..15, got {strategy_id}")
        bits = [(self.strategy_id >> k) & 1 for k in (3, 2, 1, 0)]
        self.alice = (OUTCOMES[bits[0]], OUTCOMES[bits[1]])
        self.bob = (OUTCOMES[bits[2]], OUTCOMES[bits[3]])

    def _corr(self, theta: float) -> float:
        return 1.0 if self.alice[0] == self.bob[0] else -1.0

    def to_json(self) -> dict:
        return {"kind": self.kind, "strategy": self.strategy_id}


class TableModel(CorrelationModel):
    """Custom correlation model, linearly interpolated from (theta, E) pairs.

    Outside the table E is held at the first or last value. Values may
    exceed [-1, 1] by ``PROB_TOL`` and are clipped to it, so no table
    passes the algebraic bound. E repeats ``np.interp``'s arithmetic in
    plain floats: a node gives its value, and theta inside segment j gives
    slope_j * (theta - x_j) + y_j, the slopes computed at construction as
    np.interp computes them, (y_{j+1} - y_j) / (x_{j+1} - x_j). Both agree
    bit for bit (``test_table_scalar_equals_array_at_edges``).
    A slope that is not finite, from a segment narrower than about 1e-308,
    raises ``ValueError`` naming the segment, as E would be infinite inside it.
    """

    kind = "table"

    def __init__(self, thetas, values):
        xs, ys = (_json_numbers(_listed(data), name, (None,))
                  for data, name in ((thetas, "thetas"), (values, "values")))
        if len(xs) != len(ys) or len(xs) < 2:
            raise ValueError("need matching 1-d theta/value arrays with >= 2 points")
        if any(b <= a for a, b in zip(xs, xs[1:])) or xs[0] < 0 or xs[-1] > math.pi:
            raise ValueError("thetas must be strictly increasing within [0, pi]")
        if max(map(abs, ys)) > 1.0 + PROB_TOL:
            raise ValueError("correlation values must lie in [-1, 1]")
        self._xs = xs
        self._ys = ys = [min(max(y, -1.0), 1.0) for y in ys]  # as np.clip, -0.0 kept
        self._slopes = [(ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j]) for j in range(len(xs) - 1)]
        for j, slope in enumerate(self._slopes):
            if not abs(slope) < math.inf:
                raise ValueError(f"segment {j} from theta {xs[j]!r} to {xs[j + 1]!r} is too "
                                 f"narrow: its slope is {slope}")

    @property
    def thetas(self) -> np.ndarray:
        import numpy as np

        return np.array(self._xs)

    @property
    def values(self) -> np.ndarray:
        import numpy as np

        return np.array(self._ys)

    def _corr(self, theta: float) -> float:
        xs = self._xs
        j = bisect_right(xs, theta) - 1
        if j < 0:
            return self._ys[0]
        x, y = xs[j], self._ys[j]
        if theta == x or j == len(xs) - 1:  # a node, or beyond the last
            return y
        return self._slopes[j] * (theta - x) + y

    def to_json(self) -> dict:
        return {"kind": self.kind, "thetas": list(self._xs), "values": list(self._ys)}


# Keys each model kind's JSON object needs besides "kind".
_MODEL_KEYS = {"singlet": (), "superquantum": (), "classical": ("strategy",),
               "table": ("thetas", "values")}


def model_from_json(data) -> CorrelationModel:
    """Model from its ``to_json`` object; ``ValueError`` names a missing or bad key."""
    if not isinstance(data, dict):
        raise ValueError(f"model JSON must be an object with key 'kind', got {type(data).__name__}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _MODEL_KEYS:
        raise ValueError(f"model JSON key 'kind' must be one of {sorted(_MODEL_KEYS)}, "
                         f"got {kind!r}")
    missing = [key for key in _MODEL_KEYS[kind] if key not in data]
    if missing:
        raise ValueError(f"{kind} model JSON lacks key(s) {', '.join(map(repr, missing))}")
    if kind == "singlet":
        return SingletModel()
    if kind == "superquantum":
        return SuperquantumModel()
    if kind == "classical":
        try:
            return DeterministicModel(_json_number(data["strategy"], "strategy", integer=True))
        except ValueError:
            raise ValueError("classical model key 'strategy' must be an integer 0..15, "
                             f"got {data['strategy']!r}") from None
    thetas, values = (_json_numbers(data[key], f"table model key {key!r}", (None,))
                      for key in ("thetas", "values"))
    try:
        return TableModel(thetas, values)
    except ValueError as exc:
        raise ValueError(f"table model keys 'thetas' and 'values': {exc}") from None


# Measurement axes a, a', b, b' for chsh_at_angles. The "eq2" preset is the
# coplanar configuration a' = 0, b = pi/4, a = pi/2, b' = 3*pi/4 (successive
# 45 degree separations), which drives the superquantum model to the
# algebraic maximum 3*E(pi/4) - E(3*pi/4) = 4.
ANGLE_PRESETS: dict[str, tuple[float, float, float, float]] = {
    "eq2": (math.pi / 2.0, 0.0, math.pi / 4.0, 3.0 * math.pi / 4.0),
    "singlet-optimal": (0.0, math.pi / 2.0, math.pi / 4.0, -math.pi / 4.0),
}


def _terms_at_angles(model: CorrelationModel, a, a_prime, b, b_prime) -> list[float]:
    """E(a - b), E(a - b'), E(a' - b), E(a' - b'). ``ValueError`` names the
    axis of an angle that ``_angle`` refuses, and where the angles are
    finite but a difference overflows, its two axes."""
    if not type(a) is type(a_prime) is type(b) is type(b_prime) is float:
        for x, name in ((a, "a"), (a_prime, "a'"), (b, "b"), (b_prime, "b'")):
            _angle(x, f"angle {name}")
    try:
        return [model.correlation(x - y) for x in (a, a_prime) for y in (b, b_prime)]
    except ValueError:
        for x, xn in ((a, "a"), (a_prime, "a'")):
            for y, yn in ((b, "b"), (b_prime, "b'")):
                if math.isfinite(x) and math.isfinite(y) and not math.isfinite(x - y):
                    raise ValueError(f"angle difference {xn} - {yn} = {x!r} - {y!r} is not "
                                     f"finite: it overflows to {x - y}") from None
        raise


def chsh_at_angles(model: CorrelationModel, a: float, a_prime: float, b: float,
                   b_prime: float) -> ChshResult:
    """CHSH sum for measurements along four axes, via relative angles."""
    e = _terms_at_angles(model, a, a_prime, b, b_prime)
    return ChshResult(value=e[0] + e[1] + e[2] - e[3], terms=tuple(e),
                      angles=(a, a_prime, b, b_prime))


def box_from_model(model: CorrelationModel, a: float, a_prime: float, b: float,
                   b_prime: float) -> NoSignallingBox:
    """Box whose setting pairs realize the model correlations at four axes."""
    return _lift(_terms_at_angles(model, a, a_prime, b, b_prime))


@dataclass(frozen=True)
class DeterministicStrategy:
    strategy_id: int
    alice: tuple[int, int]  # outcome per Alice setting
    bob: tuple[int, int]  # outcome per Bob setting
    box: NoSignallingBox
    result: ChshResult


def enumerate_deterministic() -> list[DeterministicStrategy]:
    """All 16 local deterministic strategies with their boxes and CHSH values."""
    out = []
    for sid in range(16):
        model = DeterministicModel(sid)
        box = product_box([float(o == +1) for o in model.alice],
                          [float(o == +1) for o in model.bob])
        out.append(DeterministicStrategy(sid, model.alice, model.bob, box, chsh(box)))
    return out


@dataclass(frozen=True)
class ChshOptimum:
    """Best |CHSH| found: the true maximum, up to rounding, where it reaches
    the model's ``chsh_bound`` (2 for a deterministic strategy, 2*sqrt(2)
    for the singlet, 4 otherwise; see ``maximize_chsh``), else a heuristic
    lower bound on it."""

    angles: tuple[float, float, float, float]
    value: float  # max |CHSH| found
    result: ChshResult  # signed breakdown at those angles
    evaluations: int  # E(theta) points the search evaluated; a sweep point or a
    # refinement trial evaluates only the two terms its angle moves


# Axis pairs (a, b), (a, b'), (a', b), (a', b') of the four CHSH terms, as
# indices into the angle list [a, a', b, b'].
_TERM_AXES = ((0, 2), (0, 3), (1, 2), (1, 3))
# For each angle of [a, a', b, b']: the two terms that involve it, each as
# (term index, index of the term's other angle).
_MOVES = tuple(tuple((k, p + q - i) for k, (p, q) in enumerate(_TERM_AXES) if i in (p, q))
               for i in range(4))
# Grid step of maximize_chsh's coarse sweeps, and the step below which its
# refinement stops
_COARSE_STEP = math.pi / 180.0
_FINAL_STEP = 1e-8
# The angles of a coarse sweep, those of np.arange(0.0, 2*pi, _COARSE_STEP):
# its length, ceil(2*pi / step), and its values k * step
_SWEEP_GRID = tuple(k * _COARSE_STEP for k in range(math.ceil(_TWO_PI / _COARSE_STEP)))
# The starts of maximize_chsh before its random ones
_PRESET_STARTS = (ANGLE_PRESETS["eq2"], ANGLE_PRESETS["singlet-optimal"], (0.0,) * 4)


def maximize_chsh(model: CorrelationModel, *, extra_starts: int = 4, seed: int = 0) -> ChshOptimum:
    """Maximize |CHSH| over the four measurement angles.

    Per-coordinate exhaustive search on a grid of step ``_COARSE_STEP`` (one
    degree), then shrinking-step coordinate descent from that step until it
    drops below ``_FINAL_STEP`` (1e-8). Runs from the known-good presets
    plus ``extra_starts`` random starts drawn from ``seed``, so a table is
    not at the mercy of a single basin. Both are keyword-only.
    Raises ``ValueError`` naming the argument unless ``extra_starts`` and
    ``seed`` are integers >= 0.

    Before each start the best |CHSH| so far is tested against
    ``model.chsh_bound``, which no start can beat, and the search ends once
    it is there: 2 for ``DeterministicModel``, ``QUANTUM_BOUND`` for
    ``SingletModel`` (Tsirelson's bound; Cirel'son, Lett. Math. Phys. 4, 93
    (1980)) and the algebraic bound 4 for every other model. The first value
    tested is the eq2 preset's. It is at the bound for the singlet, every
    deterministic strategy, the superquantum model and any table at
    4 there, so they get eq2 after 8 evaluations, with no sweep. A model
    that reaches 4 later gets the result of all starts run, bit for bit. A
    start's own refinement always runs to the end, because its rejected
    trials may move an angle by an ulp. A subclass that changes E must
    restate ``chsh_bound``.

    Every E is ``model._corr`` on a plain float, and the search keeps the
    four terms of the current angles. A coarse sweep sets one angle to each
    point of ``_SWEEP_GRID`` in turn, evaluates the two terms it moves and
    keeps the first point whose |CHSH| beats the current value. A
    refinement trial evaluates the same two terms; a rejected trial sets the
    angle back to ``trial - delta`` and re-evaluates those two terms only if
    that is an ulp off the old angle. Both fold each angle inline with
    ``reduce_angle``'s operations. Results are those of evaluating all four
    terms at every point. numpy is imported only to draw the first random
    start (``numpy.random.default_rng(seed)``), so a search that ends within
    the presets runs on the standard library alone.
    """
    extra_starts = _json_number(extra_starts, "extra_starts", integer=True)
    if extra_starts < 0:
        raise ValueError(f"extra_starts must be >= 0, got {extra_starts}")
    seed = _json_number(seed, "seed", integer=True)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    corr = model._corr
    fmod, pi, two_pi = math.fmod, math.pi, _TWO_PI
    evaluations = 0

    def all_terms(angles):
        nonlocal evaluations
        evaluations += 4
        return [corr(reduce_angle(angles[p] - angles[q])) for p, q in _TERM_AXES]

    def value(t):
        return abs(t[0] + t[1] + t[2] - t[3])

    best_angles = ANGLE_PRESETS["eq2"]
    best_val = value(all_terms(best_angles))
    rng = None
    for n in range(len(_PRESET_STARTS) + extra_starts):
        if best_val >= model.chsh_bound:
            break
        if n < len(_PRESET_STARTS):
            angles = list(_PRESET_STARTS[n])
        else:
            if rng is None:
                import numpy as np  # only a search that reaches a random start needs it

                rng = np.random.default_rng(seed)
            angles = rng.uniform(0.0, two_pi, size=4).tolist()
        terms = all_terms(angles)
        val = value(terms)
        # coarse per-coordinate sweeps; E is even, so both moved terms are
        # E(point - partner)
        for _ in range(4):
            changed = False
            for i in range(4):
                (k0, j0), (k1, j1) = _MOVES[i]
                p0, p1 = angles[j0], angles[j1]
                t, found = terms[:], None
                for x in _SWEEP_GRID:
                    d = fmod(abs(x - p0), two_pi)
                    t[k0] = corr(two_pi - d if d > pi else d)
                    d = fmod(abs(x - p1), two_pi)
                    t[k1] = corr(two_pi - d if d > pi else d)
                    v = abs(t[0] + t[1] + t[2] - t[3])
                    if v > val:
                        val, found = v, (x, t[k0], t[k1])
                evaluations += 2 * len(_SWEEP_GRID)
                if found is not None:
                    angles[i], terms[k0], terms[k1] = found
                    changed = True
            if not changed:
                break
        # shrinking-step refinement
        step = _COARSE_STEP
        while step >= _FINAL_STEP:
            improved = False
            for i in range(4):
                (k0, j0), (k1, j1) = _MOVES[i]
                for delta in (step, -step):
                    old = angles[i]
                    trial = old + delta
                    t = terms[:]
                    d = fmod(abs(trial - angles[j0]), two_pi)
                    t[k0] = corr(two_pi - d if d > pi else d)
                    d = fmod(abs(trial - angles[j1]), two_pi)
                    t[k1] = corr(two_pi - d if d > pi else d)
                    evaluations += 2
                    v = abs(t[0] + t[1] + t[2] - t[3])
                    if v > val:
                        val, terms, improved = v, t, True
                        angles[i] = trial
                    else:
                        angles[i] = back = trial - delta
                        if back != old:
                            terms[k0] = corr(reduce_angle(back - angles[j0]))
                            terms[k1] = corr(reduce_angle(back - angles[j1]))
                            evaluations += 2
            if not improved:
                step /= 2.0
        if val > best_val:
            best_val = val
            best_angles = tuple(angles)
    return ChshOptimum(
        angles=tuple(best_angles),
        value=best_val,
        result=chsh_at_angles(model, *best_angles),
        evaluations=evaluations + 4,
    )


# --------------------------------------------------------------------------
# Finite statistics


@dataclass(frozen=True)
class SampleReport:
    """Seeded Monte Carlo estimate of the CHSH sum from per-pair counts."""

    n_per_pair: int
    seed: int
    counts: tuple  # counts[x][y][ia][ib], each pair summing to n_per_pair
    correlations: tuple  # empirical E(x, y)
    chsh_estimate: float
    std_error: float


# Largest n: the int64 limit, so that every count fits an int64 array
_MAX_SAMPLES = 2**63 - 1


def _binomial(random: Callable[[], float], n: int, p: float) -> int:
    """A Binomial(n, p) draw from the uniform floats of ``random``.

    CPython 3.12's ``random.Random.binomialvariate`` (the same source in
    3.13), draw for draw: Devroye's geometric method below n*p = 10 and
    Hörmann's BTRS transformed rejection (1993) above it, for p <= 1/2; a
    larger p draws n - Binomial(n, 1 - p). Kept here so that every supported
    Python draws the same counts. p is at least 0; where the standard
    library refuses a p above 1, this draws n, as for p = 1.
    """
    if p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if n == 1:
        return int(random() < p)
    flip = p > 0.5
    if flip:
        p = 1.0 - p
    mean = n * p
    if mean < 10.0:
        x = y = 0
        c = log2(1.0 - p)
        if c:
            while True:
                y += floor(log2(random()) / c) + 1
                if y > n:
                    break
                x += 1
        return n - x if flip else x
    spq = sqrt(mean * (1.0 - p))  # the standard deviation
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    a2, c = 2.0 * a, mean + 0.5
    vr = 0.92 - 4.2 / b
    h = None
    while True:
        u = random() - 0.5
        us = 0.5 - fabs(u)
        k = floor((a2 / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = random()
        if us >= 0.07 and v <= vr:  # the squeeze: most draws end here
            break
        if h is None:  # set up the exact test once per draw
            alpha = (2.83 + 5.1 / b) * spq
            lpq = log(p / (1.0 - p))
            m = floor((n + 1) * p)  # the mode
            h = lgamma(m + 1) + lgamma(n - m + 1)
        v *= alpha / (a / (us * us) + b)
        if log(v) <= h - lgamma(k + 1) - lgamma(n - k + 1) + (k - m) * lpq:
            break
    return n - k if flip else k


def sample_outcomes(box: NoSignallingBox, n: int, seed: int) -> SampleReport:
    """Draw n outcome pairs per setting pair and estimate the CHSH sum.

    The draws come from ``random.Random(seed)`` (MT19937), whose seeding is
    the same on every platform and Python version, so a seed reproduces its
    report. Each setting pair is one multinomial draw, made as numpy's
    ``multinomial`` makes it: outcome j takes a Binomial(left, p_j / rest)
    count of the ``left`` draws not yet placed (all of them where rounding
    puts p_j at or above rest), rest drops by p_j, and the last outcome
    takes what is left. No binomial is drawn once none is left, so rest
    stays above 0 where it divides. The standard error combines the
    binomial variance of each correlation term.

    The statistics run on the counts as Python ints in numpy's operations
    and order for int64 arrays: p_same = float(n_00 + n_11) / float(n), and
    the four variances summed from 0.0 in setting order, as ``ndarray.sum``
    does. Bits agree up to n = 2**63 - 1
    (``test_sampling_matches_per_setting_loops_at_large_n``).
    """
    n = _json_number(n, "n", integer=True)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > _MAX_SAMPLES:
        raise ValueError(f"n must be <= {_MAX_SAMPLES}, the int64 limit, got {n}")
    seed = _json_number(seed, "seed", integer=True)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    import random  # here, so that the calls that never sample do not load it

    draw = random.Random(seed).random
    probs = box._p
    total = float(n)
    counts, corr, var = [], [], 0.0
    for k in (0, 4, 8, 12):
        p0, p1, p2, _ = probs[k:k + 4]
        c0 = _binomial(draw, n, p0)  # rest = 1.0: p0 itself
        left, rest = n - c0, 1.0 - p0
        c1 = _binomial(draw, left, p1 / rest) if left else 0
        left -= c1
        rest -= p1
        c2 = _binomial(draw, left, p2 / rest) if left else 0
        c3 = left - c2
        counts.append(((c0, c1), (c2, c3)))
        p_same = float(c0 + c3) / total
        corr.append(2.0 * p_same - 1.0)
        var += 4.0 * p_same * (1.0 - p_same) / total
    return SampleReport(n_per_pair=n, seed=seed,
                        counts=((counts[0], counts[1]), (counts[2], counts[3])),
                        correlations=((corr[0], corr[1]), (corr[2], corr[3])),
                        chsh_estimate=corr[0] + corr[1] + corr[2] - corr[3],
                        std_error=math.sqrt(var))


# --------------------------------------------------------------------------
# Built-in boxes


def _builtin_factories() -> dict[str, Callable[[], NoSignallingBox]]:
    eq2 = ANGLE_PRESETS["eq2"]
    opt = ANGLE_PRESETS["singlet-optimal"]
    return {
        "uniform": lambda: box_from_correlation(0.0),
        "perfect": lambda: box_from_correlation(1.0),
        "anticorrelated": lambda: box_from_correlation(-1.0),
        "superquantum-eq2": lambda: box_from_model(SuperquantumModel(), *eq2),
        "singlet-eq2": lambda: box_from_model(SingletModel(), *eq2),
        "singlet-optimal": lambda: box_from_model(SingletModel(), *opt),
    }


BUILTIN_BOXES = _builtin_factories()


def builtin_box(name: str) -> NoSignallingBox:
    try:
        return BUILTIN_BOXES[name]()
    except KeyError:
        raise ValueError(f"unknown builtin box {name!r}; available: {sorted(BUILTIN_BOXES)}"
                         ) from None
