"""Child process of the benchmark: one set-up sample, or one measured pass.

    python3 bench/worker.py setup WORKLOAD
    python3 bench/worker.py measure WORKLOAD SEED SECONDS TRACE

``setup`` imports the library, makes the workload's fixed warm-up op and
prints one JSON line with its own timestamps; the parent times it from
spawn. ``measure`` generates a fixed number of ops from SEED and makes
the warm-up op. With TRACE = 0 it then times whole passes over those
ops, as many as bring the op time nearest to SECONDS; with TRACE = 1 it
runs them once untraced and once traced. It checks every result against
the oracles and prints one JSON line. The ops, and so ``attempted`` and ``failed``,
depend only on the workload and SEED, not on the speed of the host.
"""

import time

T_FIRST = time.perf_counter()

import hashlib  # noqa: E402
from array import array  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100  # so that p90 has at least ten samples beyond it


def _import_library(workload: str):
    import nonlocality

    if workload == "cli":
        import nonlocality.cli  # noqa: F401
    return nonlocality


def setup(workload: str) -> None:
    t0 = time.perf_counter()
    lib = _import_library(workload)
    t1 = time.perf_counter()
    if workload == "cli":
        import contextlib
        import io

        with contextlib.redirect_stdout(io.StringIO()):
            lib.cli.main(["nosig", "--builtin", "uniform", "--format", "json"])
    else:
        import workloads

        workloads.WORKLOADS[workload](lib, ROOT, ROOT).warm_up()
    t2 = time.perf_counter()
    print(json.dumps({"first": T_FIRST, "import_s": t1 - t0, "warmup_s": t2 - t1, "ready": t2}),
          flush=True)


def _execute(w, ops, prepared, latencies, outcomes, tracer=None, sampler=None, midpoints=None):
    """Run prepared ops in order. A ``sampler`` times the host-speed kernel
    between ops, outside the op's latency."""
    clock = time.perf_counter
    for k, (op, prep) in enumerate(zip(ops, prepared)):
        if sampler:
            sampler.maybe()
        span = tracer.span("bench.op", k) if tracer else None
        t0 = clock()
        if span:
            span.__enter__()
        try:
            out = ("ok", w.run(op, prep))
        except Exception as exc:  # the op's answer: checked against the oracle
            out = ("raise", type(exc).__name__, str(exc))
        if span:
            span.__exit__(None, None, None)
        t1 = clock()
        latencies.append(t1 - t0)
        outcomes.append(out)
        if midpoints is not None:
            midpoints.append(0.5 * (t0 + t1))


class Tally:
    """Per-op outcome accounting, input hash and outcome digest."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.unknown: dict[str, int] = {}
        self.inputs = hashlib.sha256()
        self.outcomes = hashlib.sha256()

    def add(self, w, ops, outcomes):
        for op, out in zip(ops, outcomes):
            self.attempted += 1
            self.inputs.update(json.dumps(op, sort_keys=True).encode())
            verdict = w.check(op, out)
            label = "ok" if verdict is None else verdict[0]
            self.outcomes.update(label.encode() + b"\n")
            if verdict is not None:
                reason, known = verdict
                self.failures[reason] = self.failures.get(reason, 0) + 1
                if not known:
                    self.unknown[reason] = self.unknown.get(reason, 0) + 1

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def over_baseline(self, base: dict) -> list[str]:
        """Known classes seen far more often than their documented share of
        ops: more than 5 binomial sigmas and one op above it."""
        n, over = self.attempted, []
        for reason, count in self.failures.items():
            p = base.get(reason, 0.0)
            if reason not in self.unknown and count > n * p + 5.0 * math.sqrt(n * p * (1.0 - p)) + 1.0:
                over.append(reason)
        return sorted(over)

    def record(self, base: dict) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "unknown_failures": self.unknown,
            "known_over_baseline": self.over_baseline(base),
            "inputs_sha256": self.inputs.hexdigest(),
            "outcomes_sha256": self.outcomes.hexdigest(),
        }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    import reference
    import workloads

    lib = _import_library(workload)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp:
        w = workloads.WORKLOADS[workload](lib, ROOT, Path(tmp))
        rng = np.random.default_rng(seed)
        tally = Tally()
        w.warm_up()
        if trace:
            return _traced(w, rng, tally)
        ops = w.generate(rng, w.run_blocks)
        if len(ops) < MIN_OPS:
            raise ValueError(f"{workload}: {len(ops)} ops in a run, fewer than {MIN_OPS}")
        prepared = [w.prepare(op) for op in ops]
        latencies = array("d")  # compact, so that peak RSS barely grows with op count
        midpoints = array("d")
        sampler = reference.Sampler(w.reference)
        wall, passes, problems = 0.0, 0, []
        while passes == 0 or wall + 0.5 * wall / passes < seconds:  # ends within half a pass of it
            outcomes: list = []
            begin, spent = time.perf_counter(), sampler.spent_s
            _execute(w, ops, prepared, latencies, outcomes, sampler=sampler, midpoints=midpoints)
            wall += time.perf_counter() - begin - (sampler.spent_s - spent)
            if passes == 0:
                tally.add(w, ops, outcomes)
            else:
                again = Tally()
                again.add(w, ops, outcomes)
                if again.outcomes.hexdigest() != tally.outcomes.hexdigest() and not problems:
                    problems.append(f"pass {passes + 1} gave other outcomes than pass 1")
            passes += 1
        sampler.sample()
        rss = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF)
        raw = np.asarray(latencies)
        corrected = raw * sampler.factors(midpoints)
        out = tally.record(w.known_base)
        out.update(
            correct=not tally.unknown and not out["known_over_baseline"] and not problems,
            pass_problems=problems,
            passes=passes,
            runs=len(latencies),
            wall_s=wall,
            metrics={
                "ops_per_s": len(latencies) / (wall * corrected.sum() / raw.sum()),
                "op_p50_ms": 1e3 * float(np.percentile(corrected, 50)),
                "op_p90_ms": 1e3 * float(np.percentile(corrected, 90)),
                "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
                "peak_rss_mb": rss.ru_maxrss / 1024.0,
            },
            raw={
                "ops_per_s": len(latencies) / wall,
                "op_p50_ms": 1e3 * float(np.percentile(raw, 50)),
                "op_p90_ms": 1e3 * float(np.percentile(raw, 90)),
                "kernel_median_ms": 1e3 * float(np.median(sampler.durations)),
                "kernel_samples": len(sampler.durations),
            },
        )
        return out


def _traced(w, rng, tally) -> dict:
    """Same fixed ops twice: untraced, then traced; per-layer metrics.

    Each pass's wall time is one clock interval around its op loop, taken
    after the inputs are prepared, so the loop's own time between ops is in
    it and shows as ``unaccounted_s``.
    """
    import spans

    clock = time.perf_counter
    ops = w.generate(rng, w.trace_blocks)
    plain_out: list = []
    prepared = [w.prepare(op) for op in ops]
    begin = clock()
    _execute(w, ops, prepared, [], plain_out)
    plain_wall = clock() - begin

    tracer = spans.Tracer()
    outcomes: list = []
    prepared = [w.prepare(op) for op in ops]
    if w.name == "cli":
        w.traced = True
    else:
        tracer.install()
    try:
        begin = clock()
        _execute(w, ops, prepared, [], outcomes, tracer=tracer)
        traced_wall = clock() - begin
    finally:
        tracer.uninstall()
    tally.add(w, ops, outcomes)
    check = Tally()
    check.add(w, ops, plain_out)
    summary = tracer.summary(traced_wall)
    cli_parts = None
    if w.name == "cli":
        summary, cli_parts = _merge_cli(summary, w.trace_records)
    out = tally.record(w.known_base)
    problems = summary["problems"]
    if check.outcomes.hexdigest() != tally.outcomes.hexdigest():
        problems.append("traced and untraced outcomes differ")
    out.update(
        correct=not tally.unknown and not out["known_over_baseline"] and not problems,
        trace_problems=problems,
        plain_wall_s=plain_wall,
        traced_wall_s=traced_wall,
        summary=summary,
        cli=cli_parts,
        extra=w.extra_metrics(ops, outcomes),
    )
    return out


def _merge_cli(parent_summary, records):
    """Fold the traced CLI processes' spans into the parent's op spans.

    Each op's wall time splits into interpreter start and exit, import,
    ``cli.main`` (with the library spans under it) and the shim's own
    bookkeeping, which counts as benchmark time.
    """
    import spans

    parts = {"interpreter_s": 0.0, "import_s": 0.0, "main_s": 0.0, "errors": 0}
    missing = []
    children = []
    for rec in records:
        if rec is None:
            missing = ["traced CLI process sent no trace"]
            continue
        parts["interpreter_s"] += (rec["first"] - rec["spawn"]) + (rec["exited"] - rec["last"])
        parts["import_s"] += rec["import_s"]
        parts["main_s"] += rec["summary"]["per_name"].get("cli.main", [0, 0.0])[1]
        parts["errors"] += int(rec["code"] == 2)
        children.append(rec["summary"])
    merged = spans.merge([parent_summary, *children])
    # the children's roots (cli.main) ran inside the parent's bench.op spans:
    # take that time, and interpreter and import time, out of bench.op
    op_row = merged["per_name"].get("bench.op")
    if op_row is not None:
        op_row[2] -= parts["main_s"] + parts["interpreter_s"] + parts["import_s"]
    merged.update({key: parent_summary[key] for key in ("accounted_s", "wall_s", "unaccounted_s")})
    merged["problems"] += missing
    return merged, parts


def main(argv) -> int:
    mode, workload = argv[0], argv[1]
    sys.path.insert(0, str(ROOT / "src"))
    if mode == "setup":
        setup(workload)
        return 0
    seed, seconds, trace = int(argv[2]), float(argv[3]), argv[4] == "1"
    out = measure(workload, seed, seconds, trace)
    out["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
