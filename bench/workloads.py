"""The four workloads: seeded inputs, the library calls of each op, and the
oracle check of each op's result.

Ops come in blocks: each block holds a fixed number of ops of each kind,
shuffled by the seed, so that every run sees the same mix while the
inputs themselves change with the seed. Inputs are plain numbers (events
as ``[x_1, ..., x_d, t]``); ``prepare`` turns them into library objects
outside the timed region, ``run`` makes the library calls, and ``check``
compares the result with ``oracles``.

``check`` returns ``None`` for a correct result, or ``(reason, known)``:
``known`` marks a defect the benchmark's README documents, which counts
as a failed op; any other disagreement also makes the run incorrect.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles as orc
import reference
import spans

BENCH_DIR = Path(__file__).resolve().parent
CLI_SHIM = BENCH_DIR / "cli_shim.py"


def _floats(values) -> list[float]:
    return [float(v) for v in values]


def _event(lib, e):
    return lib.spacetime.Event(tuple(e[:-1]), e[-1])


def _model(lib, spec):
    co = lib.correlations
    kind = spec[0]
    if kind == "singlet":
        return co.SingletModel()
    if kind == "superquantum":
        return co.SuperquantumModel()
    if kind == "table":
        return co.TableModel(*orc.TABLE_POINTS)
    return co.DeterministicModel(spec[1])


def _model_spec(rng, kind):
    """A model spec for ``oracles.correlation``; classical strategies are drawn."""
    return [kind, int(rng.integers(16))] if kind == "classical" else [kind]


class Workload:
    """Base: block composition, generation and the op loop's hooks."""

    name = ""
    block: tuple[tuple[str, dict, int], ...] = ()  # (kind, generator kwargs, count)
    run_blocks = 1  # blocks in a timed run: its fixed set of distinct ops
    trace_blocks = 1  # blocks in a traced run (fixed, so counts repeat)
    known_base: dict[str, float] = {}  # share of ops per known failure class
    reference = reference.PYTHON  # host-speed kernel timed between ops

    def __init__(self, lib, root: Path, workdir: Path):
        self.lib = lib
        self.root = root
        self.workdir = workdir

    def generate(self, rng, n_blocks: int) -> list[dict]:
        slots = [(kind, params) for kind, params, count in self.block for _ in range(count)]
        ops = []
        for _ in range(n_blocks):
            self._start_block(rng)
            for i in rng.permutation(len(slots)):
                kind, params = slots[i]
                op = getattr(self, f"_gen_{kind}")(rng, **params)
                op["kind"] = kind
                ops.append(op)
        return ops

    def _start_block(self, rng) -> None:
        """Draw what the ops of one block share (nothing by default)."""

    def prepare(self, op):
        return op

    def run(self, op, prepared):
        return getattr(self, f"_run_{op['kind']}")(prepared)

    def check(self, op, outcome):
        return getattr(self, f"_check_{op['kind']}")(op, outcome)

    def warm_up(self) -> None:
        """One fixed, untimed op that fills lazy caches."""

    def extra_metrics(self, ops, outcomes) -> dict:
        """Counts the benchmark needs from results (traced runs only)."""
        return {}


# --------------------------------------------------------------------------
# verdicts: binary-condition verdicts and loop detection


def _random_frame(rng, d):
    direction = rng.normal(size=d)
    v = rng.uniform(0.0, 0.8) * direction / np.linalg.norm(direction)
    if d == 1:
        q = np.array([[rng.choice((-1.0, 1.0))]])
    else:
        q, r = np.linalg.qr(rng.normal(size=(d, d)))
        q = q * np.sign(np.diag(r))
    return v, q, rng.uniform(0.5, 2.0), rng.uniform(-5.0, 5.0, size=d + 1)


def _to_frame(frame, e) -> list[float]:
    """Boost by v, rotate, scale and shift: each step preserves light cones."""
    v, q, scale, shift = frame
    x, t = np.asarray(e[:-1], dtype=float), float(e[-1])
    v2 = float(v @ v)
    if v2 > 0.0:
        g = 1.0 / math.sqrt(1.0 - v2)
        vx = float(v @ x)
        x, t = x + ((g - 1.0) * vx / v2 - g * t) * v, g * (t - vx)
    return _floats(np.append(scale * (q @ x), scale * t) + shift)


def _canonical_jammer(rng, d, want):
    """Jammer for the canonical pair for which the condition 'holds' or 'fails'.

    Valid iff |j_t| < m (m: distance to the nearer measurement); the
    binary condition holds iff j_t <= T (the window's supremum).
    """
    while True:
        x = rng.uniform(-2.5, 2.5, size=d)
        x1, perp = abs(x[0]), float(np.linalg.norm(x[1:]))
        m = math.hypot(x1 - 1.0, perp)
        if d == 1:
            top = 1.0 - x1
        else:
            top = -(perp if x1 <= 1.0 else math.hypot(x1 - 1.0, perp))
        lo, hi = (-m, min(top, m)) if want == "holds" else (max(top, -m), m)
        if hi - lo < 1e-3:
            continue
        jt = rng.uniform(lo, hi)
        return _floats(x) + [float(jt)]


def _decidable(a, b, j) -> bool:
    """Valid, and away from every decision boundary of the oracles."""
    s_ab, s_aj, s_bj = orc.interval_sq(a, b), orc.interval_sq(a, j), orc.interval_sq(b, j)
    return (s_ab < -orc.MARGIN and max(s_aj, s_bj) < -orc.MARGIN
            and abs(orc.binary_margin(a, b, j)) > orc.MARGIN)


def _general_triple(rng, d, want):
    """(a, b, j) in a random frame, away from every decision boundary."""
    while True:
        a = [-1.0] + [0.0] * (d - 1) + [0.0]
        b = [1.0] + [0.0] * (d - 1) + [0.0]
        j = _canonical_jammer(rng, d, want)
        frame = _random_frame(rng, d)
        a, b, j = (_to_frame(frame, e) for e in (a, b, j))
        if rng.random() < 0.5:
            a, b = b, a
        if _decidable(a, b, j):
            return a, b, j


def _criterion_08_triple(rng):
    """A d = 1 triple drawn as acceptance criterion 08 draws it: a random
    spacelike pair, and j uniform in a box around its midpoint, kept if valid."""
    while True:
        xa, sep, ta = rng.uniform(-3.0, 3.0), rng.uniform(0.5, 4.0), rng.uniform(-3.0, 3.0)
        tb = ta + rng.uniform(-0.9, 0.9) * sep
        xj = xa + sep / 2.0 + rng.uniform(-1.0, 1.0) * sep
        tj = (ta + tb) / 2.0 + rng.uniform(-1.0, 1.0) * sep
        a, b, j = [float(xa), float(ta)], [float(xa + sep), float(tb)], [float(xj), float(tj)]
        if _decidable(a, b, j):
            return a, b, j


class Verdicts(Workload):
    """Single verdicts on general-frame triples, as property sweeps make them."""

    name = "verdicts"
    # One op per library call. The counts are the calls that acceptance
    # criteria 07, 08 and 10 make, one op per 1,000/3 calls:
    #   08: 100,000 d = 1 verdicts, drawn as the criterion draws them -> 300;
    #   07: 2,000 verdicts, d = 1, 2, 3, half holding -> 6;
    #   10: 10,000 scenarios of 2-6 holding jammers, 80 % d = 1 and 20 % d = 2:
    #       about 40,000 verdicts -> 120 and 10,000 loop checks -> 30.
    block = (
        ("binary", {"d": 1, "want": "criterion-08"}, 300),
        *(("binary", {"d": d, "want": want}, 1) for d in (1, 2, 3) for want in ("holds", "fails")),
        ("binary", {"d": 1, "want": "holds"}, 96),
        ("binary", {"d": 2, "want": "holds"}, 24),
        ("loops", {"d": 1}, 24),
        ("loops", {"d": 2}, 6),
    )
    run_blocks = 6
    trace_blocks = 4
    known_base = {"witness-inside-jammer-cone": 2.5e-5}

    def _gen_binary(self, rng, d, want):
        a, b, j = _criterion_08_triple(rng) if want == "criterion-08" else _general_triple(rng, d, want)
        return {"d": d, "a": a, "b": b, "j": j}

    def _gen_loops(self, rng, d):
        n = int(rng.integers(2, 7))
        while True:
            configs = [list(_general_triple(rng, d, "holds")) for _ in range(n)]
            slacks = [
                orc.cone_slack(configs[i][m], configs[k][2])
                for i in range(n) for k in range(n) if i != k for m in (0, 1)
            ]
            if min(abs(s) for s in slacks) > orc.MARGIN:
                return {"d": d, "configs": configs}

    def prepare(self, op):
        jm = self.lib.jamming
        if op["kind"] == "loops":
            return jm.JamScenario(tuple(
                jm.JammingConfiguration(*(_event(self.lib, e) for e in cfg)) for cfg in op["configs"]
            ))
        return jm.JammingConfiguration(*(_event(self.lib, op[k]) for k in "abj"))

    def _run_binary(self, cfg):
        return self.lib.jamming.binary_condition(cfg)

    def _run_loops(self, scenario):
        return self.lib.jamming.detect_causal_loops(scenario)

    def _check_binary(self, op, outcome):
        if outcome[0] != "ok":
            return "binary-raised", False
        verdict = outcome[1]
        a, b, j = op["a"], op["b"], op["j"]
        holds = orc.binary_margin(a, b, j) >= 0.0
        if verdict.holds != holds:
            return "binary-verdict", False
        if not holds:
            w = verdict.witness.to_json()
            if min(orc.cone_slack(a, w), orc.cone_slack(b, w)) < -1e-7:
                return "witness-outside-overlap", False
            if orc.cone_slack(j, w) >= 0.0:
                # d >= 2: when the ridge minimum lies between the solver's grid
                # points, the witness is the grid argmin, still inside j's cone
                return "witness-inside-jammer-cone", op["d"] >= 2
        return None

    def _check_loops(self, op, outcome):
        if outcome[0] != "ok":
            return "loops-raised", False
        report = outcome[1]
        configs = op["configs"]
        n = len(configs)
        edges = {
            (i, k) for i in range(n) for k in range(n) if i != k
            and min(orc.cone_slack(configs[i][0], configs[k][2]),
                    orc.cone_slack(configs[i][1], configs[k][2])) >= 0.0
        }
        if set(map(tuple, report.edges)) != edges or report.acyclic != orc.acyclic(n, edges):
            return "loops-graph", False
        if report.cycle is not None:
            cyc = list(report.cycle)
            if any((p, q) not in edges for p, q in zip(cyc, cyc[1:] + cyc[:1])):
                return "loops-cycle", False
        return None

    def warm_up(self):
        jm, st = self.lib.jamming, self.lib.spacetime
        cfg = jm.JammingConfiguration(
            st.Event((-1.0, 0.2), 0.1), st.Event((1.0, -0.3), 0.2), st.Event((0.1, 0.4), -0.8)
        )
        jm.binary_condition(cfg)


# --------------------------------------------------------------------------
# searches: jammer windows and reachable orderings


def _spacelike_events(rng, d, n):
    while True:
        events = [_floats(rng.uniform(-2.0, 2.0, size=d)) + [float(rng.uniform(-1.0, 1.0))]
                  for _ in range(n)]
        if max(orc.interval_sq(events[i], events[k])
               for i in range(n) for k in range(i + 1, n)) >= -orc.MARGIN:
            continue
        times = sorted(e[-1] for e in events)
        if min(t2 - t1 for t1, t2 in zip(times, times[1:])) <= orc.MARGIN:
            continue
        if d == 1 and any(abs(hi - lo) <= orc.MARGIN for lo, hi in
                          (orc.velocity_interval(events, o) for o in itertools.permutations(range(n)))):
            continue
        return events


HALTON_BASES = (2, 3, 5)


def _halton(i: int, bases) -> np.ndarray:
    """The i-th point of the Halton sequence in len(bases) dimensions."""
    point = []
    for base in bases:
        f, r, k = 1.0, 0.0, i
        while k:
            f /= base
            r += f * (k % base)
            k //= base
        point.append(r)
    return np.array(point)


def check_window(x, outcome_time, raised: bool):
    """Oracle check of one window answer: None, or (reason, known)."""
    expected = orc.window(x)
    if expected is None:
        return None if raised else ("window-unexpected-time", False)
    sup, attained, lowest = expected
    if raised:
        # the library scans (-3, 3) in steps of 0.01 before bisecting
        known = sup - max(lowest, -3.0) < 0.02
        return "window-missed", known
    time_, got_attained = outcome_time
    if abs(time_ - sup) > 1e-6:
        # validity needs interval^2 < -1e-9, which cuts up to 1e-9 / (2 d)
        # off the top of the window when j sits within d of a measurement
        if abs(time_ - sup) <= 1e-6 + 1e-9 / (2.0 * -lowest):
            return "window-tolerance-band", True
        return "window-wrong-time", False
    if got_attained != attained:
        return "attained-flag", True
    return None


def check_orderings(events, found: dict):
    """Every witness must realise its order; in d = 1 none may be missing."""
    for order, v in found.items():
        if orc.realised_gap(events, v, order) <= 0.0:
            return "ordering-unsound", False
    rest = tuple(sorted(range(len(events)), key=lambda i: events[i][-1]))
    if rest not in found:
        return "ordering-missed", False
    if len(events[0]) == 2:
        for order, (lo, hi) in orc.orderings_1d(events).items():
            if order not in found:
                # the library samples |v| <= 0.99 in steps of 0.01
                return "grid-incomplete", hi - lo < 0.02
    return None


class Searches(Workload):
    """Answers that each cost many calls on the canonical fast path."""

    name = "searches"
    # No test or tool makes searches in bulk (criteria 05, 06 and 11 make
    # four calls in all), so there is no measured traffic to follow. Each of
    # the two functions gets half the ops of a block, split evenly over the
    # cases named for this workload: 4 windows for each d = 1, 2, 3 and 3
    # event sets for each (d, n) in {1, 2} x {3, 4}.
    # Window positions of each d follow a Halton sequence, shifted modulo
    # the box by a seeded offset. Each run then covers the box evenly, so
    # the spread of window costs and the share of positions between the
    # measurements barely change from seed to seed.
    block = tuple(("window", {"d": d}, 4) for d in (1, 2, 3)) + tuple(
        ("orderings", {"d": d, "n": n}, 3) for d in (1, 2) for n in (3, 4))
    run_blocks = 8
    trace_blocks = 2
    known_base = {"attained-flag": 0.092, "window-missed": 0.020, "grid-incomplete": 0.018,
                  "window-tolerance-band": 0.001}

    def __init__(self, lib, root, workdir):
        super().__init__(lib, root, workdir)
        self._offset = None
        self._drawn = dict.fromkeys((1, 2, 3), 0)

    def _start_block(self, rng):
        if self._offset is None:
            self._offset = {d: rng.random(d) for d in (1, 2, 3)}

    def _gen_window(self, rng, d):
        while True:
            self._drawn[d] += 1
            u = (_halton(self._drawn[d], HALTON_BASES[:d]) + self._offset[d]) % 1.0
            x = _floats(5.0 * u - 2.5)
            if abs(abs(x[0]) - 1.0) > orc.MARGIN:
                return {"d": d, "x": x}

    def _gen_orderings(self, rng, d, n):
        return {"d": d, "events": _spacelike_events(rng, d, n)}

    def prepare(self, op):
        if op["kind"] == "orderings":
            return [_event(self.lib, e) for e in op["events"]]
        return op

    def _run_window(self, op):
        return self.lib.jamming.latest_jammer_time(op["d"], tuple(op["x"]))

    def _run_orderings(self, events):
        return self.lib.spacetime.achievable_orderings(events)

    def _check_window(self, op, outcome):
        if outcome[0] == "raise" and outcome[1] != "ValueError":
            return "window-raised", False
        res = outcome[1] if outcome[0] == "ok" else None
        return check_window(op["x"], res and (res.time, res.attained), res is None)

    def _check_orderings(self, op, outcome):
        if outcome[0] != "ok":
            return "orderings-raised", False
        return check_orderings(op["events"], {k: v.v for k, v in outcome[1].items()})

    def warm_up(self):
        self.lib.jamming.latest_jammer_time(2, (0.3, 0.4))

    def extra_metrics(self, ops, outcomes):
        found = sum(len(o[1]) for op, o in zip(ops, outcomes)
                    if op["kind"] == "orderings" and o[0] == "ok")
        return {"orderings_found": found}


# --------------------------------------------------------------------------
# chsh: optimization, curves, boxes and sampling


class Chsh(Workload):
    """Correlation work only: no geometry or jamming-decision code runs."""

    name = "chsh"
    # Each kind runs once (optimize, curve) or twice (box, sample) per model
    # in a block, so the mix of model costs is the same in every run; p50
    # then falls inside the box builds and p90 inside the singlet optimum.
    block = tuple((kind, {"model": m}, count) for m in ("singlet", "superquantum", "table", "classical")
                  for kind, count in (("optimize", 1), ("curve", 1), ("box", 2), ("sample", 2)))
    run_blocks = 8
    trace_blocks = 1
    sample_n = 1_000_000

    def _gen_optimize(self, rng, model):
        return {"model": _model_spec(rng, model)}

    def _gen_curve(self, rng, model):
        lo = float(rng.uniform(-2.0 * math.pi, 0.0))
        return {"model": _model_spec(rng, model), "lo": lo,
                "hi": lo + float(rng.uniform(math.pi, 4.0 * math.pi)),
                "n": int(rng.integers(1000, 1201))}

    def _gen_box(self, rng, model):
        return {"model": _model_spec(rng, model), "angles": _floats(rng.uniform(-math.pi, math.pi, 4)),
                "strength": float(rng.uniform(0.0, 1.0))}

    def _gen_sample(self, rng, model):
        return {"model": _model_spec(rng, model), "angles": _floats(rng.uniform(-math.pi, math.pi, 4)),
                "seed": int(rng.integers(2**31))}

    def prepare(self, op):
        model = _model(self.lib, op["model"])
        if op["kind"] == "curve":
            return model, np.linspace(op["lo"], op["hi"], op["n"]).tolist()
        return model, op

    def _run_optimize(self, prepared):
        return self.lib.correlations.maximize_chsh(prepared[0])

    def _run_curve(self, prepared):
        model, thetas = prepared
        return [model.correlation(t) for t in thetas]

    def _run_box(self, prepared):
        co, jm = self.lib.correlations, self.lib.jamming
        model, op = prepared
        box = co.box_from_model(model, *op["angles"])
        nosig = co.check_no_signalling(box)
        jammed = jm.apply_jamming(box, strength=op["strength"])
        return box.correlations(), co.chsh(box), nosig, co.chsh(jammed), jm.check_unary(box, jammed)

    def _run_sample(self, prepared):
        co = self.lib.correlations
        model, op = prepared
        return co.sample_outcomes(co.box_from_model(model, *op["angles"]), self.sample_n, op["seed"])

    def _check_optimize(self, op, outcome):
        if outcome[0] != "ok":
            return "optimize-raised", False
        opt = outcome[1]
        at_angles = orc.chsh_value(orc.setting_correlations(op["model"], opt.angles))
        if abs(opt.value - orc.CHSH_OPTIMUM[op["model"][0]]) > 1e-6 or abs(abs(at_angles) - opt.value) > 1e-9:
            return "optimize-value", False
        return None

    def _check_curve(self, op, outcome):
        if outcome[0] != "ok":
            return "curve-raised", False
        thetas = np.linspace(op["lo"], op["hi"], op["n"]).tolist()
        if max(abs(e - orc.correlation(op["model"], t)) for e, t in zip(outcome[1], thetas)) > 1e-12:
            return "curve-value", False
        return None

    def _check_box(self, op, outcome):
        if outcome[0] != "ok":
            return "box-raised", False
        corrs, before, nosig, after, unary = outcome[1]
        exact = orc.setting_correlations(op["model"], op["angles"])
        value = orc.chsh_value(exact)
        if (np.max(np.abs(np.asarray(corrs) - exact)) > 1e-12 or abs(before.value - value) > 1e-12
                or not nosig.passed or not unary.holds
                or abs(after.value - (1.0 - op["strength"]) * value) > 1e-12):
            return "box-value", False
        return None

    def _check_sample(self, op, outcome):
        if outcome[0] != "ok":
            return "sample-raised", False
        rep = outcome[1]
        counts = np.asarray(rep.counts)
        exact = orc.setting_correlations(op["model"], op["angles"])
        if (counts.sum(axis=(2, 3)) != self.sample_n).any() or not orc.within_5_sigma(
                rep.chsh_estimate, exact, self.sample_n):
            return "sample-5sigma", False
        return None

    def warm_up(self):
        co = self.lib.correlations
        box = co.box_from_model(co.SingletModel(), *orc.ANGLES_SINGLET_OPTIMAL)
        co.sample_outcomes(box, self.sample_n, 1)


# --------------------------------------------------------------------------
# cli: cold command-line invocations, one at a time


class Cli(Workload):
    """Interpreter start, import, argparse and rendering around small jobs."""

    name = "cli"
    block = tuple((kind, {}, 1) for kind in (
        "chsh_optimize", "nosig", "jam_latest", "boost_orderings", "sample", "jam_sweep"))
    run_blocks = 17
    trace_blocks = 2
    sample_n = 1_000_000
    sweep_range = "-1.2,1.2,13"
    reference = reference.SPAWN
    known_base = {"argparse-dash-value": 0.25, "attained-flag": 0.023, "grid-incomplete": 0.005,
                  "window-missed": 0.003, "window-tolerance-band": 0.001}

    def __init__(self, lib, root, workdir):
        super().__init__(lib, root, workdir)
        self.env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self.blocks = 0
        self.files = 0
        self.traced = False
        self.trace_records: list[dict] = []

    def _start_block(self, rng):
        self.blocks += 1

    def _gen_chsh_optimize(self, rng):
        return {}

    def _gen_nosig(self, rng):
        return {"builtin": sorted(orc.BUILTIN_CORRELATIONS)[int(rng.integers(6))]}

    def _gen_jam_latest(self, rng):
        # x_1 < 0 in every other block, so the share of positions that hit
        # the argparse defect is one half in every run
        sign = 1.0 if self.blocks % 2 else -1.0
        while True:
            x = [sign * float(rng.uniform(0.0, 2.5)), float(rng.uniform(-2.5, 2.5))]
            if abs(abs(x[0]) - 1.0) > orc.MARGIN:
                return {"x": x}

    def _gen_boost_orderings(self, rng):
        return {"events": _spacelike_events(rng, 1, 3)}

    def _gen_sample(self, rng):
        return {"builtin": sorted(orc.BUILTIN_CORRELATIONS)[int(rng.integers(6))],
                "seed": int(rng.integers(2**31))}

    def _gen_jam_sweep(self, rng):
        return {"x": float(rng.uniform(-1.5, 1.5))}

    def _path(self, stem: str) -> str:
        self.files += 1
        return str(self.workdir / f"{stem}-{self.files}")

    def prepare(self, op):
        kind = op["kind"]
        if kind == "chsh_optimize":
            args = ["chsh", "--optimize", "--model", "singlet"]
        elif kind == "nosig":
            args = ["nosig", "--builtin", op["builtin"]]
        elif kind == "jam_latest":
            args = ["jam", "--latest", "--d", "2", "--position", ",".join(map(repr, op["x"]))]
        elif kind == "boost_orderings":
            path = self._path("events") + ".json"
            Path(path).write_text(json.dumps(op["events"]))
            args = ["boost", "--events", path, "--orderings"]
        elif kind == "sample":
            args = ["sample", "--builtin", op["builtin"], "--n", str(self.sample_n), "--seed", str(op["seed"])]
        else:
            path = self._path("sweep") + ".csv"
            args = ["jam", "--sweep", "--d", "1", "--position", repr(op["x"]),
                    "--sweep-range", self.sweep_range, "--csv", path]
        return args + ["--format", "json"]

    def run(self, op, args):
        if not self.traced:
            proc = subprocess.run([sys.executable, "-m", "nonlocality.cli", *args], cwd=self.root,
                                  env=self.env, capture_output=True, text=True, check=False)
            return proc.returncode, proc.stdout, proc.stderr, args
        spawn = time.perf_counter()
        proc = subprocess.run([sys.executable, str(CLI_SHIM), *args], cwd=self.root,
                              env=self.env, capture_output=True, text=True, check=False)
        exited = time.perf_counter()
        lines = proc.stderr.splitlines()
        tag = spans.TRACE_TAG
        record = json.loads(lines[-1][len(tag):]) if lines and lines[-1].startswith(tag) else None
        if record is not None:
            record.update(spawn=spawn, exited=exited, code=proc.returncode)
            lines = lines[:-1]
        self.trace_records.append(record)
        return proc.returncode, proc.stdout, "\n".join(lines), args

    def check(self, op, outcome):
        if outcome[0] != "ok":
            return "cli-raised", False
        code, out, err, args = outcome[1]
        kind = op["kind"]
        if code == 2 and "expected one argument" in err:
            # argparse takes a value such as "-1.2,1.2,13" or "-0.4,1.6" for an
            # option string: its negative-number pattern matches bare numbers only
            return "argparse-dash-value", True
        if kind == "jam_latest":
            if code not in (0, 2):
                return "cli-exit-code", False
            res = json.loads(out)["results"] if code == 0 else None
            return check_window(op["x"], res and (res["time"], res["attained"]), code == 2)
        if code != 0:
            return "cli-exit-code", False
        report = json.loads(out)
        res = report["results"]
        if kind == "chsh_optimize":
            bad = abs(res["value"] - orc.CHSH_OPTIMUM["singlet"]) > 1e-6
        elif kind == "nosig":
            bad = not res["passed"] or res["max_deviation"] > 1e-12
        elif kind == "boost_orderings":
            found = {tuple(o["order"]): o["witness_velocity"] for o in res["orderings"]}
            return check_orderings(op["events"], found)
        elif kind == "sample":
            counts = np.asarray(res["counts"])
            bad = (counts.sum(axis=(2, 3)) != self.sample_n).any() or not orc.within_5_sigma(
                res["chsh_estimate"], orc.BUILTIN_CORRELATIONS[op["builtin"]], self.sample_n)
        else:
            bad = not self._sweep_matches(op, args[args.index("--csv") + 1])
        return ("cli-value", False) if bad else None

    def _sweep_matches(self, op, path) -> bool:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        lo, hi, n = (float(v) for v in self.sweep_range.split(","))
        if len(rows) != int(n):
            return False
        x = op["x"]
        a, b = [-1.0, 0.0], [1.0, 0.0]
        for row, jt in zip(rows, np.linspace(lo, hi, int(n))):
            j = [x, float(jt)]
            s = max(orc.interval_sq(a, j), orc.interval_sq(b, j))
            margin = orc.apex_margin(a, b, j)
            if abs(s) <= orc.MARGIN or abs(margin) <= orc.MARGIN:
                continue
            if int(row["valid"]) != (s < 0.0) or (s < 0.0 and int(row["holds"]) != (margin >= 0.0)):
                return False
        return True

    def warm_up(self):
        subprocess.run([sys.executable, "-m", "nonlocality.cli", "nosig", "--builtin", "uniform"],
                       cwd=self.root, env=self.env, capture_output=True, check=False)

    def extra_metrics(self, ops, outcomes):
        found = 0
        for op, o in zip(ops, outcomes):
            if op["kind"] == "boost_orderings" and o[0] == "ok" and o[1][0] == 0:
                found += json.loads(o[1][1])["results"]["count"]
        return {"orderings_found": found}


WORKLOADS = {w.name: w for w in (Verdicts, Searches, Chsh, Cli)}
