"""In-memory call spans around the library's public functions.

The tracer wraps every public function of the four layer modules, and
``CorrelationModel.correlation``, at every place the library binds it: the
defining module, the package namespace and each module that imported it
by name (``jamming`` binds ``canonicalize_pair``, for instance). Each call
becomes a span with a name, start, end, parent span and op id, stored in
flat arrays so that a few hundred thousand spans stay small.

Self time is a span's duration minus the durations of its direct
children; it is computed after the run, never inside the wrappers.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("spacetime", "jamming", "correlations", "cli")
BENCH_PREFIX = "bench."
TRACE_TAG = "BENCH-TRACE "  # prefix of the summary line a traced CLI process writes

# (descendant, ancestor) span pairs whose nesting the benchmark reports.
NESTED = (
    ("jamming.binary_condition", "jamming.latest_jammer_time"),
    ("spacetime.boost", "spacetime.achievable_orderings"),
    ("correlations.chsh_at_angles", "correlations.maximize_chsh"),
)


class Tracer:
    """Records spans for calls made while installed; one thread only."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.error = bytearray()
        self.stack = [-1]
        self.op_id = -1
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.error.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        name_id = self._intern(name)
        open_, close, error = self._open, self._close, self.error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error[idx] = 1
                raise
            finally:
                close(idx)

        return traced

    def span(self, name: str, op_id: int):
        """Context manager for a benchmark-side span (name starts ``bench.``)."""
        return _Span(self, self._intern(name), op_id)

    # ------------------------------------------------------------------
    # Installing and removing the wrappers

    def install(self) -> None:
        package = sys.modules["nonlocality"]
        originals = {}
        for layer in LAYERS:
            module = sys.modules.get(f"nonlocality.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    originals[obj] = self.wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "nonlocality" or name.startswith("nonlocality.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in originals:
                    self._patch(module, attr, originals[obj])
        model = package.correlations.CorrelationModel
        self._patch(model, "correlation", self.wrap("correlations.correlation", model.correlation))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # Analysis

    def arrays(self):
        """Copies of the span columns (copies: the arrays may still grow)."""
        return (
            np.array(self.name, dtype=np.int64),
            np.array(self.parent, dtype=np.int64),
            np.array(self.op, dtype=np.int64),
            np.array(self.start, dtype=np.float64),
            np.array(self.end, dtype=np.float64),
            np.array(self.error, dtype=bool),
        )

    def summary(self, wall_s: float | None = None) -> dict:
        """Per-name totals, nesting counts and the consistency check
        (``wall_s`` defaults to the root spans' total)."""
        return summarize(self.names, *self.arrays(), wall_s=wall_s)


class _Span:
    __slots__ = ("tracer", "name_id", "op_id", "idx", "saved")

    def __init__(self, tracer: Tracer, name_id: int, op_id: int):
        self.tracer, self.name_id, self.op_id = tracer, name_id, op_id

    def __enter__(self):
        self.saved = self.tracer.op_id
        self.tracer.op_id = self.op_id
        self.idx = self.tracer._open(self.name_id)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.idx)
        self.tracer.op_id = self.saved
        return False


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    has_parent = parent >= 0
    child_sum = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration - child_sum


def nearest_ancestor(name: np.ndarray, parent: np.ndarray, target: int) -> np.ndarray:
    """Index of each span's nearest proper ancestor named ``target``, or -1."""
    found = np.full(len(parent), -1, dtype=np.int64)
    cur = parent.copy()
    todo = cur >= 0
    while todo.any():
        idx = np.nonzero(todo)[0]
        hit = name[cur[idx]] == target
        found[idx[hit]] = cur[idx[hit]]
        nxt = parent[cur[idx]]
        cur[idx] = nxt
        todo[idx] = ~hit & (nxt >= 0)
    return found


def root_of(parent: np.ndarray) -> np.ndarray:
    """Index of each span's outermost ancestor (itself for a root)."""
    root = np.where(parent >= 0, parent, np.arange(len(parent)))
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            return root
        root = nxt


def summarize(names, name, parent, op, start, end, error, wall_s: float | None) -> dict:
    """Aggregate spans by name and check that they form a consistent tree.

    Consistency: every library span carries an op id and sits, in time and
    in the tree, inside the benchmark span of that op (or, in a traced CLI
    process, inside ``cli.main``); no self time is negative; and the
    layers' self times plus the benchmark's own span time add up to the
    roots' total, so that ``wall_s`` minus that total is the only time the
    trace does not attribute.
    """
    duration = end - start
    own = self_times(parent, duration)
    per_name = {}
    for nid, label in enumerate(names):
        mask = name == nid
        if mask.any():
            per_name[label] = [
                int(mask.sum()),
                float(duration[mask].sum()),
                float(own[mask].sum()),
                int(error[mask].sum()),
            ]
    nested = {}
    ids = {label: nid for nid, label in enumerate(names)}
    for child, ancestor in NESTED:
        if child in ids and ancestor in ids:
            anc = nearest_ancestor(name, parent, ids[ancestor])
            nested[f"{child}<{ancestor}"] = int(((name == ids[child]) & (anc >= 0)).sum())

    is_bench = np.array([label.startswith(BENCH_PREFIX) for label in names], dtype=bool)
    library = ~is_bench[name]
    root = root_of(parent)
    roots = parent < 0
    problems = []
    if (op[library] < 0).any():
        problems.append("library span without an op id")
    if (library & roots & ~_named(name, names, "cli.main")).any():
        problems.append("library span outside any op span")
    if (op != op[root]).any():
        problems.append("span op id differs from its root's")
    has_parent = ~roots
    p = parent[has_parent]
    if (start[has_parent] < start[p]).any() or (end[has_parent] > end[p]).any():
        problems.append("child span outside its parent's interval")
    if (own < -1e-9).any():
        problems.append("negative self time")
    accounted = float(own.sum())
    root_total = float(duration[roots].sum())
    if wall_s is None:
        wall_s = root_total
    if abs(accounted - root_total) > 1e-6 * max(root_total, 1.0):
        problems.append("self times do not add up to root spans")
    return {
        "spans": int(len(name)),
        "per_name": per_name,
        "nested": nested,
        "accounted_s": accounted,
        "wall_s": float(wall_s),
        "unaccounted_s": float(wall_s) - accounted,
        "problems": problems,
    }


def _named(name: np.ndarray, names, label: str) -> np.ndarray:
    if label not in names:
        return np.zeros(len(name), dtype=bool)
    return name == names.index(label)


def merge(summaries) -> dict:
    """Sum the per-name rows, nesting counts and problems of several summaries."""
    out = {"spans": 0, "per_name": {}, "nested": {}, "problems": []}
    for s in summaries:
        out["spans"] += s["spans"]
        for label, row in s["per_name"].items():
            acc = out["per_name"].setdefault(label, [0, 0.0, 0.0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        for key, v in s["nested"].items():
            out["nested"][key] = out["nested"].get(key, 0) + v
        out["problems"].extend(p for p in s["problems"] if p not in out["problems"])
    return out
