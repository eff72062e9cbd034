"""Benchmark of the nonlocality library: one command, four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the library is imported from
``src/``; nothing needs installing). Each run times set-up in fresh
interpreters, then runs the workload's closed loop in one child process
(whole passes over a fixed, seeded set of ops for about --seconds),
checks every result against closed-form oracles and prints each metric
with its unit and sample count. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
WORKLOADS = ("verdicts", "searches", "chsh", "cli")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

LAYER_CALLS = (
    "spacetime.interval",
    "spacetime.boost",
    "spacetime.canonicalize_pair",
    "spacetime.achievable_orderings",
    "jamming.validate_configuration",
    "jamming.binary_condition",
    "jamming.latest_jammer_time",
    "jamming.detect_causal_loops",
    "correlations.chsh_at_angles",
    "correlations.maximize_chsh",
    "correlations.sample_outcomes",
)

PER_LAYER = {
    **{f"{fn}.{part}": unit for fn in LAYER_CALLS for part, unit in (("calls", "count"), ("self_s", "s"))},
    "correlations.correlation.calls": "count",
    "jamming.binary_condition.errors": "count",
    "jamming.latest_jammer_time.errors": "count",
    "jamming.binary_calls_per_window": "calls/window",
    "spacetime.boosts_per_ordering": "boosts/ordering",
    "correlations.evals_per_optimum": "evals/optimum",
    "spacetime.self_s": "s",
    "jamming.self_s": "s",
    "correlations.self_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "cli.errors": "count",
    "bench.self_s": "s",
    "setup.interpreter_s": "s",
    "setup.import_s": "s",
    "setup.warmup_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_s": "s",
    "trace.spans": "count",
    "trace.ops": "count",
}

NOTE = ("measured only this benchmark's own processes: no CPU pinning, cache dropping "
        "or system-wide tracing was done")
HOST_NOTE = ("setup_s, ops_per_s, op_p50_ms and op_p90_ms are corrected to the nominal host "
             "speed of bench/reference.py; 'raw' and 'setup_samples_raw_s' are uncorrected")


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def setup_samples(workload: str) -> tuple[list[dict], float]:
    """Spawn fresh interpreters; time each from spawn to its warm-up's end.

    The spawn kernel of ``reference`` runs before the first spawn and after
    each one; the samples are corrected by the factor of those kernel runs.
    """
    import reference

    sampler = reference.Sampler(reference.SPAWN)
    sampler.sample()
    samples = []
    for _ in range(SETUP_SAMPLES):
        spawn = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(WORKER), "setup", workload], cwd=ROOT,
                                env=_child_env(), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0 or not line:
            raise BenchError(f"set-up child for {workload} exited with {code}")
        rec = json.loads(line)
        sampler.sample()
        samples.append({
            "raw_setup_s": rec["ready"] - spawn,
            "interpreter_s": rec["first"] - spawn,
            "import_s": rec["import_s"],
            "warmup_s": rec["warmup_s"],
        })
    return samples, sampler.factor()


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(WORKER), "measure", workload, str(seed), repr(seconds), str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} run exceeded {CHILD_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{workload} run exited with {proc.returncode}")
    return json.loads(lines[-1])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(res: dict, setups: list[dict]) -> dict:
    summary = res["summary"]
    rows = summary["per_name"]
    nested = summary["nested"]

    def row(name):
        return rows.get(name, [0, 0.0, 0.0, 0])

    out = {}
    for fn in LAYER_CALLS:
        out[f"{fn}.calls"] = row(fn)[0]
        out[f"{fn}.self_s"] = row(fn)[2]
    out["correlations.correlation.calls"] = row("correlations.correlation")[0]
    out["jamming.binary_condition.errors"] = row("jamming.binary_condition")[3]
    out["jamming.latest_jammer_time.errors"] = row("jamming.latest_jammer_time")[3]
    out["jamming.binary_calls_per_window"] = _ratio(
        nested.get("jamming.binary_condition<jamming.latest_jammer_time", 0),
        row("jamming.latest_jammer_time")[0])
    out["spacetime.boosts_per_ordering"] = _ratio(
        nested.get("spacetime.boost<spacetime.achievable_orderings", 0),
        res["extra"].get("orderings_found", 0))
    out["correlations.evals_per_optimum"] = _ratio(
        nested.get("correlations.chsh_at_angles<correlations.maximize_chsh", 0),
        row("correlations.maximize_chsh")[0])
    for layer in ("spacetime", "jamming", "correlations", "cli", "bench"):
        out[f"{layer}.self_s"] = sum(r[2] for name, r in rows.items() if name.startswith(layer + "."))
    cli = res["cli"] or {}
    out["cli.interpreter_s"] = cli.get("interpreter_s", 0.0)
    out["cli.import_s"] = cli.get("import_s", 0.0)
    out["cli.main_s"] = cli.get("main_s", 0.0)
    out["cli.errors"] = cli.get("errors", 0)
    for part in ("interpreter_s", "import_s", "warmup_s"):
        out[f"setup.{part}"] = statistics.median(s[part] for s in setups)
    out["trace.overhead_ratio"] = res["traced_wall_s"] / res["plain_wall_s"]
    out["trace.unaccounted_s"] = summary["unaccounted_s"]
    out["trace.spans"] = summary["spans"]
    out["trace.ops"] = res["attempted"]
    return out


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load = os.getloadavg()
    setups, setup_factor = setup_samples(workload)
    res = measure(workload, seed, seconds, trace)
    if trace:
        values, units = per_layer(res, setups), PER_LAYER
    else:
        values = {"setup_s": statistics.median(s["raw_setup_s"] for s in setups) * setup_factor,
                  **res["metrics"]}
        units = END_TO_END
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs_sha256": res["inputs_sha256"],
        "outcomes_sha256": res["outcomes_sha256"],
        "failures": res["failures"],
        "unknown_failures": res["unknown_failures"],
        "known_over_baseline": res["known_over_baseline"],
        "trace_problems": res.get("trace_problems", []),
        "pass_problems": res.get("pass_problems", []),
        "passes": res.get("passes"),
        "setup_samples_raw_s": [s["raw_setup_s"] for s in setups],
        "raw": res.get("raw"),
        "host_speed_note": HOST_NOTE,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(load),
        "note": NOTE,
    }
    return {"record": record, "values": values, "units": units, "res": res,
            "samples": _samples(res, setups, trace)}


def _samples(res: dict, setups: list[dict], trace: bool) -> dict:
    n = res["attempted"]
    if trace:
        return {}
    raw, runs = res["raw"], res["runs"]
    return {
        "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters "
                   f"(raw {statistics.median(s['raw_setup_s'] for s in setups):.6g} s)",
        "ops_per_s": f"{runs} op runs ({res['passes']} passes over {n} ops) in {res['wall_s']:.3f} s "
                     f"(raw {raw['ops_per_s']:.6g} 1/s)",
        "op_p50_ms": f"{runs} op runs (raw {raw['op_p50_ms']:.6g} ms)",
        "op_p90_ms": f"{runs} op runs (raw {raw['op_p90_ms']:.6g} ms)",
        "ok_ratio": f"{n - res['failed']} of {n} ops agree with the oracle "
                    f"(fail_ratio {res['failed'] / n:.4f})",
        "peak_rss_mb": "peak of the process that ran the ops",
    }


def report(out: dict) -> None:
    rec = out["record"]
    head = f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}"
    if rec["trace"]:
        head += f"  ({out['res']['attempted']} ops, run untraced and then traced; times are totals)"
    print(head)
    for name, value in out["values"].items():
        print(f"  {name:42s} {value:>16.6g} {out['units'][name]:<16s} {out['samples'].get(name, '')}")
    print("record " + json.dumps(rec, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nonlocality" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        outs = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for out in outs:
        report(out)
    single = len(outs) == 1
    metrics = {
        (name if single else f"{out['record']['workload']}.{name}"): {"value": value, "unit": out["units"][name]}
        for out in outs for name, value in out["values"].items()
    }
    result = {
        "correct": all(out["res"]["correct"] for out in outs),
        "attempted": sum(out["res"]["attempted"] for out in outs),
        "failed": sum(out["res"]["failed"] for out in outs),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
