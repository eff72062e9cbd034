"""Command-line front end.

One binary with subcommands ``chsh``, ``nosig``, ``jam``, ``boost`` and
``sample``. Each prints one report, as JSON with sorted keys (identical
inputs and seeds give byte-identical JSON) or as text lines: the envelope
``command``, ``params`` (the inputs echoed), ``results`` and ``ok``, with
no wall-clock time in it. Where a report is a library dataclass,
``results`` holds its fields in declaration order (the text line order),
with tuples written as lists and events as ``[x..., t]``. Exit
codes: 0 on success, 1 when a checked claim fails (a verdict is false), 2
on input errors. Any option takes a dash-leading number as its value,
in every form ``float()`` reads: ``--position -0.4,1.6``, ``--v -inf,0``,
also as ``OPT=VALUE`` or under an abbreviated option name. No option sets
a tolerance: ``params.tol`` echoes the fixed one that a check ran at.

Each subcommand takes exactly one source (``boost`` one of ``--v`` and
``--orderings``; ``chsh`` at most one of ``--angles``, ``--optimize`` and
``--curve``). A missing or second source, an option that the chosen source
does not read (``chsh --builtin X --optimize``, ``jam --config F --d 3``,
``--csv`` without ``--curve`` or ``--sweep``) and a bad flag value are
argparse errors: usage and message on stderr, exit 2. A bad file or a value
that a library check rejects fails as ``error: ...`` on stderr, also exit 2.

Only the subcommands that work on boxes or correlation models import
``correlations``: ``chsh``, ``nosig``, ``sample`` and ``jam --box/--builtin``.
Of those, only ``chsh --optimize`` on a table below its CHSH bound at its
preset starts imports numpy, to draw the search's random starts. The
singlet, ``classical:ID`` and superquantum models reach their bound at
the eq2 preset, so their ``--optimize``, like ``--curve``, does not. The
others, ``sample`` among them (its draws come from the
standard library's ``random``), and the geometry subcommands
(``jam --config``, ``--latest``, ``--sweep`` and ``--scenario``, and
``boost``), run on the standard library alone, which keeps their cold start
short.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import re
import sys

from . import jamming as jam
from . import spacetime as st


def _parse_floats(text: str) -> tuple[float, ...]:
    """``--position``, ``--v`` and ``--angles``: numbers between commas; an
    empty item, as in ``0.3,,0.4`` or ``0.5,``, is refused."""
    try:
        return tuple(map(float, text.split(",")))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        ) from None


def _parse_sweep_range(text: str) -> tuple[float, float, int]:
    """``lo,hi,n`` for ``jam --sweep``: finite bounds and a count n 0.._MAX_COUNT."""
    parts = text.split(",")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), _parse_count(parts[2])
        ok = len(parts) == 3 and math.isfinite(lo) and math.isfinite(hi)
    except (ValueError, IndexError, argparse.ArgumentTypeError):
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(
            f"expected lo,hi,n with finite lo, hi and an integer n 0..{_MAX_COUNT}; got {text!r}"
        )
    return lo, hi, n


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``numpy.linspace(lo, hi, n).tolist()`` bit for bit, in plain floats:
    the same operations in the same order (k*step + lo, the last point set
    to hi, and (k/(n-1))*(hi - lo) + lo when the step underflows to 0)."""
    delta = hi - lo
    if n <= 1:
        return [0.0 * delta + lo] * n
    div = n - 1
    step = delta / div
    if step == 0:
        values = [k / div * delta + lo for k in range(n)]
    else:
        values = [k * step + lo for k in range(n)]
    values[-1] = hi
    return values


# Largest count an option takes: ``jam --d``, ``chsh --curve`` and the n of
# ``jam --sweep-range``. The geometry modes build tuples of d coordinates, and
# the curve and the sweep build all their points, before any other check, so
# an unbounded count ran out of memory (MemoryError, exit 1) instead of
# failing as an input error.
_MAX_COUNT = 1_000_000
# jam --sweep-range when it is not given
_SWEEP_RANGE = (-1.5, 1.5, 121)


def _parse_count(text: str, lo: int = 0) -> int:
    """A count option's value: an integer lo.._MAX_COUNT."""
    try:
        n = int(text)
    except ValueError:
        n = lo - 1
    if not lo <= n <= _MAX_COUNT:
        raise argparse.ArgumentTypeError(f"expected an integer {lo}..{_MAX_COUNT}, got {text!r}")
    return n


def _parse_dimension(text: str) -> int:
    """``jam --d``: the spatial dimension, an integer 1.._MAX_COUNT."""
    return _parse_count(text, 1)


def _parse_deterministic(text: str) -> str:
    """``chsh --deterministic``: 'all' or a strategy id, an integer 0..15."""
    try:
        ok = text == "all" or 0 <= int(text) <= 15
    except ValueError:
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"expected 'all' or an integer 0..15, got {text!r}")
    return text


def _parse_angles(text: str) -> tuple[float, float, float, float]:
    """``--angles``: a preset name or four numbers between commas. Text with
    no comma, such as a misspelt preset, gets the message that lists the
    presets."""
    from . import correlations as corr

    if text in corr.ANGLE_PRESETS:
        return corr.ANGLE_PRESETS[text]
    values = _parse_floats(text) if "," in text else ()
    if len(values) != 4:
        raise argparse.ArgumentTypeError(
            f"expected a preset ({', '.join(sorted(corr.ANGLE_PRESETS))}) "
            f"or four comma-separated angles a,a',b,b'; got {text!r}"
        )
    return values  # type: ignore[return-value]


def _load_json(path: str, read):
    """``read`` applied to the JSON data in the file at ``path``. Every input
    file is read here, and a ``ValueError`` from the JSON parser or from
    ``read`` is raised again with the path as a prefix, as is the
    ``RecursionError`` of data nested too deeply to parse or read."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return read(json.load(fh))
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_events(data) -> list[st.Event]:
    """``boost --events``: a list of ``[x..., t]`` events."""
    if not isinstance(data, list):
        raise ValueError(
            f"events JSON must be a list of [x..., t] events, got {type(data).__name__}"
        )
    return [st.Event.from_json(item, key=f"event {i}") for i, item in enumerate(data)]


def _load_box(args):
    """The box of ``--box FILE`` or ``--builtin NAME``, and that FILE or NAME."""
    from . import correlations as corr

    if args.box is not None:
        return _load_json(args.box, corr.NoSignallingBox.from_json), args.box
    return corr.builtin_box(args.builtin), args.builtin


def _model_from_args(args):
    from . import correlations as corr

    if args.model_file is not None:
        return _load_json(args.model_file, corr.model_from_json)
    # NAME[:ID] is the model JSON {"kind": NAME, "strategy": ID}
    kind, sep, ident = args.model.partition(":")
    try:
        data = {"kind": kind, "strategy": int(ident)} if sep else {"kind": kind}
        # only classical takes an ID, and a table needs --model-file
        if kind != "table" and bool(sep) == (kind == "classical"):
            return corr.model_from_json(data)
    except ValueError:
        pass
    raise ValueError(
        "--model takes singlet, superquantum or classical:ID with ID an integer "
        f"0..15, got {args.model!r}; or use --model-file"
    )


def _write_csv(path: str, header: list[str], rows: list[list]) -> int:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return len(rows)


def _jsonable(value):
    """JSON data for a report value: its ``to_json()`` where the type has
    one, else a dataclass as a dict of its fields in declaration order, a
    tuple or list as a list, and a dict value by value."""
    if hasattr(value, "to_json"):
        return value.to_json()
    if dataclasses.is_dataclass(value):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    return value


# --------------------------------------------------------------------------
# Subcommands: each returns (results, params echo dict, ok flag); main
# turns the report objects in them into JSON data with _jsonable


def _chsh_results(res) -> dict:
    """The value and terms of ``res``, the stated CHSH form, classified by the
    largest |S| of its four forms: the stated form reads 0 on a relabelled PR
    box, and on some correlators of a model at four angles."""
    from . import correlations as corr

    largest = max(abs(s) for s in res.forms())
    return {"value": res.value, "terms": res.terms, "classification": corr.classify_chsh(largest)}


def _cmd_chsh(args):
    from . import correlations as corr

    params = {"tol": corr.PROB_TOL}
    if args.deterministic is not None:
        strategies = corr.enumerate_deterministic()
        if args.deterministic != "all":
            strategies = [strategies[int(args.deterministic)]]
        rows = [
            {
                "strategy": s.strategy_id,
                "alice": s.alice,
                "bob": s.bob,
                "value": s.result.value,
            }
            for s in strategies
        ]
        params["deterministic"] = args.deterministic
        results = {
            "strategies": rows,
            "max_abs_value": max(abs(r["value"]) for r in rows),
        }
        return results, params, True

    if args.box is not None or args.builtin is not None:
        box, params["box"] = _load_box(args)
        return _chsh_results(corr.chsh(box)), params, True

    model = _model_from_args(args)
    params["model"] = model
    if args.curve is not None:
        if not args.csv:
            raise ValueError("--curve requires --csv PATH")
        rows = [[f"{t:.12g}", f"{model.correlation(t):.12g}"]
                for t in _linspace(0.0, math.pi, args.curve)]
        n = _write_csv(args.csv, ["theta", "correlation"], rows)
        params["curve_points"] = args.curve
        return {"csv": args.csv, "rows": n}, params, True
    if args.optimize:
        opt = corr.maximize_chsh(model)
        params["optimize"] = True
        results = {
            "value": opt.value,
            "angles": opt.angles,
            "terms": opt.result.terms,
            "classification": corr.classify_chsh(opt.value),
            "note": ("certified maximum: the value reaches the model's CHSH bound"
                     if opt.value >= model.chsh_bound
                     else "search result: heuristic lower bound on the true maximum"),
        }
        return results, params, True
    angles = args.angles or corr.ANGLE_PRESETS["eq2"]
    params["angles"] = angles
    return _chsh_results(corr.chsh_at_angles(model, *angles)), params, True


def _cmd_nosig(args):
    from . import correlations as corr

    box, name = _load_box(args)
    report = corr.check_no_signalling(box)
    return report, {"box": name, "tol": report.tol}, report.passed


def _cmd_jam(args):
    if args.box is not None or args.builtin is not None:
        from . import correlations as corr

        box, name = _load_box(args)
        strength = 1.0 if args.strength is None else args.strength
        jammed = corr.apply_jamming(box, strength=strength)
        unary = corr.check_unary(box, jammed)
        params = {"tol": unary.tol, "box": name, "strength": strength}
        results = {
            "chsh_before": corr.chsh(box).value,
            "chsh_after": corr.chsh(jammed).value,
            "unary": unary,
            "jammed_box": jammed,
        }
        return results, params, unary.holds
    params = {"tol": st.GEOMETRIC_TOL}
    d = args.d or 1
    if args.latest:
        res = jam.latest_jammer_time(d, position=args.position)
        params.update({"d": d, "position": res.position})
        return res, params, True
    if args.sweep:
        if not args.csv:
            raise ValueError("--sweep requires --csv PATH")
        sweep_range = args.sweep_range or _SWEEP_RANGE
        lo, hi, n = sweep_range
        if d * n > _MAX_COUNT:
            raise ValueError(
                f"--sweep with d = {d} and n = {n} builds d*n = {d * n} coordinates; "
                f"d*n must be at most {_MAX_COUNT}"
            )
        position = (0.0,) * d if args.position is None else args.position
        if len(position) != d:
            raise ValueError(f"position has dimension {len(position)}, expected {d}")
        a = st.Event((-1.0,) + (0.0,) * (d - 1), 0.0)
        b = st.Event((+1.0,) + (0.0,) * (d - 1), 0.0)
        rows = []
        for jt in _linspace(lo, hi, n):
            cfg = jam.JammingConfiguration(a=a, b=b, j=st.Event(position, jt))
            valid = jam.validate_configuration(cfg).valid
            if valid:
                verdict = jam.binary_condition(cfg)
                rows.append([f"{jt:.12g}", 1, f"{verdict.margin:.12g}", int(verdict.holds)])
            else:
                rows.append([f"{jt:.12g}", 0, "nan", 0])
        count = _write_csv(args.csv, ["j_t", "valid", "margin", "holds"], rows)
        params.update({"d": d, "position": position, "sweep_range": sweep_range})
        return {"csv": args.csv, "rows": count}, params, True
    if args.scenario is not None:
        scenario = _load_json(args.scenario, jam.JamScenario.from_json)
        report = jam.detect_causal_loops(scenario)
        params["scenario"] = args.scenario
        return report, params, report.acyclic
    cfg = _load_json(args.config, jam.JammingConfiguration.from_json)
    validation = jam.validate_configuration(cfg)
    params["config"] = args.config
    if not validation.valid:
        return {"validation": validation}, params, False
    verdict = jam.binary_condition(cfg)
    return {"validation": validation, "binary": verdict}, params, verdict.holds


def _cmd_boost(args):
    events = _load_json(args.events, _read_events)
    params = {"events": args.events, "tol": st.GEOMETRIC_TOL}
    if args.orderings:
        name, d = "event 0", events[0].d if events else None
    else:
        bst = st.Boost(args.v)
        name, d = "--v", bst.d
    for i, event in enumerate(events):
        if event.d != d:
            raise ValueError(f"{name} has dimension {d}, but event {i} of {args.events} "
                             f"has dimension {event.d}")
    if args.orderings:
        found = st.achievable_orderings(events)
        orderings = [
            {"order": perm, "witness_velocity": bst.v}
            for perm, bst in sorted(found.items())
        ]
        return {"orderings": orderings, "count": len(orderings)}, params, True
    params["v"] = bst.v
    transformed = [st.boost(e, bst) for e in events]
    return {"events": transformed}, params, True


def _cmd_sample(args):
    from . import correlations as corr

    if args.box is not None or args.builtin is not None:
        box, name = _load_box(args)
        source = {"box": name}
    else:
        model = _model_from_args(args)
        angles = args.angles or corr.ANGLE_PRESETS["eq2"]
        box = corr.box_from_model(model, *angles)
        source = {"model": model, "angles": angles}
    seed = args.seed
    if seed is None:
        import random

        seed = random.SystemRandom().getrandbits(32)
    report = corr.sample_outcomes(box, args.n, seed)
    params = {"n": args.n, "seed": seed, **source}
    return report, params, True


# --------------------------------------------------------------------------
# Parser and entry point


class _Parser(argparse.ArgumentParser):
    """``ArgumentParser`` that reads a dash-leading number as a value, and
    refuses an option that no flag given reads.

    argparse takes an argument for a value when its private
    ``_negative_number_matcher`` matches and no option looks like a negative
    number; its own pattern matches a bare decimal only (``-1``, ``-.5``), so
    ``-0.4,1.6``, ``-1e-05`` or ``-inf,0`` read as unknown options. Here it
    matches everything ``float()`` reads after a minus sign. Subparsers are
    ``_CommandParser``, a subclass.

    ``reads`` maps each source or operation flag to the options it reads.
    An option named there, given without any flag that reads it, would be
    ignored; argparse groups cannot state that, so ``parse_known_args``
    makes it an error naming the option and the flags given. Every option
    named in ``reads`` defaults to None or False, so given means set.
    """

    def __init__(self, *args, reads=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
        self.reads = reads or {}

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)

        def given(flag):
            value = getattr(namespace, flag[2:].replace("-", "_"))
            return value is not None and value is not False

        for option in dict.fromkeys(o for options in self.reads.values() for o in options):
            readers = [flag for flag, options in self.reads.items() if option in options]
            if given(option) and not any(map(given, readers)):
                chosen = [flag for flag in self.reads if flag != option and given(flag)]
                self.error(f"argument {option}: not read with {' '.join(chosen)}; "
                           f"only {' or '.join(readers)} reads it")
        return namespace, extras


class _CommandParser(_Parser):
    """A subcommand's parser: it refuses an unknown option itself, so that
    the error shows the subcommand's usage, not the top level's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nonlocality",
        description="Superquantum correlations and the jamming model: "
        "CHSH bounds, no-signalling checks, and causal-order geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    model_reads = ("--angles", "--optimize", "--curve")
    p = sub.add_parser("chsh", help="CHSH value of a model, box, or strategy family", reads={
        "--model": model_reads, "--model-file": model_reads, "--deterministic": (), "--box": (),
        "--builtin": (), "--curve": ("--csv",)})
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", help="singlet | superquantum | classical:ID")
    source.add_argument("--model-file", help="JSON model file")
    source.add_argument("--deterministic", type=_parse_deterministic,
                        help="'all' or a strategy id 0..15")
    source.add_argument("--box", help="box JSON file")
    source.add_argument("--builtin", help="a builtin box name")
    operation = p.add_mutually_exclusive_group()
    operation.add_argument("--angles", type=_parse_angles,
                           help="preset name or a,a',b,b' (default eq2)")
    operation.add_argument("--optimize", action="store_true",
                           help="maximize |CHSH| over angles; the search stops once it reaches "
                           "the model's bound (2 classical, 2*sqrt(2) singlet, else 4)")
    operation.add_argument("--curve", type=_parse_count,
                           help=f"E(theta) curve with N points, an integer 0..{_MAX_COUNT}")
    p.add_argument("--csv", help="CSV output path for --curve")
    common(p)

    p = sub.add_parser("nosig", help="no-signalling check of a box")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--box", help="box JSON file")
    source.add_argument("--builtin", help="a builtin box name")
    common(p)

    p = sub.add_parser("jam", help="jamming configurations, windows, scenarios, boxes", reads={
        "--config": (), "--latest": ("--d", "--position"),
        "--sweep": ("--d", "--position", "--sweep-range", "--csv"), "--scenario": (),
        "--box": ("--strength",), "--builtin": ("--strength",)})
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="configuration JSON file")
    source.add_argument("--latest", action="store_true", help="latest jammer time sweep")
    source.add_argument("--sweep", action="store_true", help="margin vs jammer time CSV")
    source.add_argument("--scenario", help="multi-jammer scenario JSON file")
    source.add_argument("--box", help="box JSON file to jam")
    source.add_argument("--builtin", help="a builtin box name")
    p.add_argument("--d", type=_parse_dimension,
                   help=f"spatial dimension, an integer 1..{_MAX_COUNT} (default 1)")
    p.add_argument("--position", type=_parse_floats, help="jammer position, comma-separated")
    p.add_argument(
        "--sweep-range",
        type=_parse_sweep_range,
        help=f"lo,hi,n (n an integer 0..{_MAX_COUNT}, d*n at most {_MAX_COUNT}; "
        "lo may be negative; default -1.5,1.5,121)",
    )
    p.add_argument("--csv", help="CSV output path for --sweep")
    p.add_argument("--strength", type=float, help="jamming strength in [0, 1] (default 1)")
    common(p)

    p = sub.add_parser("boost", help="Lorentz-transform events or enumerate orderings")
    p.add_argument("--events", required=True, help="JSON file: list of [x..., t] events")
    operation = p.add_mutually_exclusive_group(required=True)
    operation.add_argument("--v", type=_parse_floats,
                           help="boost velocity, comma-separated components")
    operation.add_argument(
        "--orderings",
        action="store_true",
        help="list every strict time order some boost realises, with a witness velocity "
        f"(exact; mutually spacelike events, at most {st.MAX_ORDERING_EVENTS})",
    )
    common(p)

    p = sub.add_parser("sample", help="finite-statistics CHSH estimate from a box", reads={
        "--box": (), "--builtin": (), "--model": ("--angles",), "--model-file": ("--angles",)})
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--box", help="box JSON file")
    source.add_argument("--builtin", help="a builtin box name")
    source.add_argument("--model", help="build the box from a model at --angles")
    source.add_argument("--model-file")
    p.add_argument("--angles", type=_parse_angles,
                   help="preset name or a,a',b,b' for --model (default eq2)")
    p.add_argument("--n", type=int, required=True, help="samples per setting pair")
    p.add_argument("--seed", type=int, default=None)
    common(p)

    return parser


_DISPATCH = {
    "chsh": _cmd_chsh,
    "nosig": _cmd_nosig,
    "jam": _cmd_jam,
    "boost": _cmd_boost,
    "sample": _cmd_sample,
}


def _render_text(value, indent=0) -> list[str]:
    """Text lines of a dict or a list of JSON data, nested items indented."""
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in value:
            item = value[key]
            if isinstance(item, (dict, list)) and item and not _is_flat_list(item):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_fmt_scalar(item)}")
    else:
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_fmt_scalar(item)}")
    return lines


def _is_flat_list(value) -> bool:
    return isinstance(value, list) and all(
        not isinstance(v, (dict, list)) for v in value
    )


def _fmt_scalar(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt_scalar(v) for v in value) + "]"
    return str(value)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        results, params, ok = _DISPATCH[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = _jsonable({
        "command": args.command,
        "params": params,
        "results": results,
        "ok": ok,
    })
    if args.format == "json":
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = "\n".join([
            f"command: {args.command}",
            *(f"  {line}" for line in _render_text(report["params"])),
            *_render_text(report["results"]),
            f"ok: {ok}",
        ])
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed the pipe (``| head``). The verdict stands. The
        # failed write leaves nothing in stdout's buffer, so the flush at exit
        # has nothing to write and cannot fail again (CPython 3.10-3.13).
        pass
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
