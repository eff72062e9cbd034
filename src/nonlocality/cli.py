"""Command-line front end.

One binary with subcommands ``chsh``, ``nosig``, ``jam``, ``boost`` and
``sample``. Each prints one report, as JSON with sorted keys (identical
inputs and seeds give byte-identical JSON) or as text lines: the envelope
``command``, ``params`` (the inputs echoed), ``results``, ``ok`` and
``duration_s`` (null without ``--timing``). Where a report is a library
dataclass, ``results`` holds its fields in declaration order (the text line
order), with tuples written as lists and events as ``[x..., t]``. Exit
codes: 0 on success, 1 when a checked claim fails (a verdict is false), 2
on input errors.

Only the subcommands that work on boxes or correlation models import
``correlations``, and with it numpy: ``chsh``, ``nosig``, ``sample`` and
``jam --box/--builtin``. The geometry subcommands (``jam --config``,
``--latest``, ``--sweep`` and ``--scenario``, and ``boost``) run on the
standard library alone, which keeps their cold start short.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time

from . import jamming as jam
from . import spacetime as st


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_sweep_range(text: str) -> tuple[float, float, int]:
    """``lo,hi,n`` for ``jam --sweep``: finite bounds and an integer count n >= 0."""
    parts = text.split(",")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        ok = len(parts) == 3 and n >= 0 and math.isfinite(lo) and math.isfinite(hi)
    except (ValueError, IndexError):
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(
            f"expected lo,hi,n with finite lo, hi and an integer n >= 0; got {text!r}"
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


def _parse_tol(text: str) -> float:
    """``--tol``: a finite number > 0."""
    try:
        return st._resolve_tol(text, "value")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# Largest ``jam --d``. The geometry modes build tuples of d coordinates before
# any other check, so an unbounded d ran out of memory (MemoryError, exit 1)
# instead of failing as an input error.
_MAX_DIMENSION = 1_000_000


def _parse_dimension(text: str) -> int:
    """``jam --d``: the spatial dimension, an integer 1.._MAX_DIMENSION."""
    try:
        d = int(text)
    except ValueError:
        d = 0
    if not 1 <= d <= _MAX_DIMENSION:
        raise argparse.ArgumentTypeError(
            f"expected an integer 1..{_MAX_DIMENSION}, got {text!r}"
        )
    return d


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
    from . import correlations as corr

    if text in corr.ANGLE_PRESETS:
        return corr.ANGLE_PRESETS[text]
    values = _parse_floats(text)
    if len(values) != 4:
        raise ValueError(
            f"--angles takes a preset ({', '.join(sorted(corr.ANGLE_PRESETS))}) "
            f"or four comma-separated angles a,a',b,b'; got {text!r}"
        )
    return tuple(values)  # type: ignore[return-value]


def _load_json(path: str, read):
    """``read`` applied to the JSON data in the file at ``path``. Every input
    file is read here, and a ``ValueError`` from the JSON parser or from
    ``read`` is raised again with the path as a prefix."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return read(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_events(data) -> list[st.Event]:
    """``boost --events``: a list of ``[x..., t]`` events."""
    if not isinstance(data, list):
        raise ValueError(
            f"events JSON must be a list of [x..., t] events, got {type(data).__name__}"
        )
    return [st.Event.from_json(item, key=f"event {i}") for i, item in enumerate(data)]


def _load_box(args):
    from . import correlations as corr

    if getattr(args, "box", None):
        return _load_json(args.box, corr.NoSignallingBox.from_json)
    if getattr(args, "builtin", None):
        return corr.builtin_box(args.builtin)
    raise ValueError("provide --box FILE or --builtin NAME")


def _model_from_args(args):
    from . import correlations as corr

    if getattr(args, "model_file", None):
        return _load_json(args.model_file, corr.model_from_json)
    if getattr(args, "model", None):
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
    raise ValueError("provide --model NAME or --model-file FILE")


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
    from . import correlations as corr

    return {"value": res.value, "terms": res.terms, "classification": corr.classify_chsh(res.value)}


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

    if args.box or args.builtin:
        box = _load_box(args)
        params["box"] = args.box or args.builtin
        return _chsh_results(corr.chsh(box)), params, True

    model = _model_from_args(args)
    params["model"] = model
    if args.curve is not None:
        if not args.csv:
            raise ValueError("--curve requires --csv PATH")
        thetas = _linspace(0.0, math.pi, args.curve)
        values = model.correlation_array(thetas)
        rows = [[f"{t:.12g}", f"{v:.12g}"] for t, v in zip(thetas, values.tolist())]
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
            "note": "search result: heuristic lower bound on the true maximum",
        }
        return results, params, True
    angles = _parse_angles(args.angles or "eq2")
    params["angles"] = angles
    return _chsh_results(corr.chsh_at_angles(model, *angles)), params, True


def _cmd_nosig(args):
    from . import correlations as corr

    tol = corr.PROB_TOL if args.tol is None else args.tol
    box = _load_box(args)
    report = corr.check_no_signalling(box, tol=tol)
    params = {"box": args.box or args.builtin, "tol": tol}
    return report, params, report.passed


def _cmd_jam(args):
    tol = st._resolve_tol(args.tol)
    params = {"tol": tol}
    if args.latest:
        position = tuple(_parse_floats(args.position)) if args.position else None
        res = jam.latest_jammer_time(args.d, position=position, tol=tol)
        params.update({"d": args.d, "position": res.position})
        return res, params, True
    if args.sweep:
        if not args.csv:
            raise ValueError("--sweep requires --csv PATH")
        d = args.d
        position = tuple(_parse_floats(args.position)) if args.position else (0.0,) * d
        lo, hi, n = args.sweep_range
        a = st.Event((-1.0,) + (0.0,) * (d - 1), 0.0)
        b = st.Event((+1.0,) + (0.0,) * (d - 1), 0.0)
        rows = []
        for jt in _linspace(lo, hi, n):
            cfg = jam.JammingConfiguration(a=a, b=b, j=st.Event(position, jt))
            valid = jam.validate_configuration(cfg, tol=tol).valid
            if valid:
                verdict = jam.binary_condition(cfg, tol=tol)
                rows.append([f"{jt:.12g}", 1, f"{verdict.margin:.12g}", int(verdict.holds)])
            else:
                rows.append([f"{jt:.12g}", 0, "nan", 0])
        count = _write_csv(args.csv, ["j_t", "valid", "margin", "holds"], rows)
        params.update({"d": d, "position": position, "sweep_range": args.sweep_range})
        return {"csv": args.csv, "rows": count}, params, True
    if args.scenario:
        scenario = _load_json(args.scenario, jam.JamScenario.from_json)
        report = jam.detect_causal_loops(scenario, tol=tol)
        params["scenario"] = args.scenario
        return report, params, report.acyclic
    if args.config:
        cfg = _load_json(args.config, jam.JammingConfiguration.from_json)
        validation = jam.validate_configuration(cfg, tol=tol)
        params["config"] = args.config
        if not validation.valid:
            return {"validation": validation}, params, False
        verdict = jam.binary_condition(cfg, tol=tol)
        return {"validation": validation, "binary": verdict}, params, verdict.holds
    if args.box or args.builtin:
        from . import correlations as corr

        box = _load_box(args)
        jammed = corr.apply_jamming(box, strength=args.strength)
        unary = corr.check_unary(box, jammed)
        params.update({"box": args.box or args.builtin, "strength": args.strength})
        results = {
            "chsh_before": corr.chsh(box).value,
            "chsh_after": corr.chsh(jammed).value,
            "unary": unary,
            "jammed_box": jammed,
        }
        return results, params, unary.holds
    raise ValueError("jam needs one of --config, --latest, --sweep, --scenario, --box/--builtin")


def _cmd_boost(args):
    events = _load_json(args.events, _read_events)
    params = {"events": args.events, "tol": st.default_tol()}
    if args.orderings:
        found = st.achievable_orderings(events)
        orderings = [
            {"order": perm, "witness_velocity": bst.v}
            for perm, bst in sorted(found.items())
        ]
        return {"orderings": orderings, "count": len(orderings)}, params, True
    if args.v is None:
        raise ValueError("boost needs --v or --orderings")
    bst = st.Boost(tuple(_parse_floats(args.v)))
    params["v"] = bst.v
    transformed = [st.boost(e, bst) for e in events]
    return {"events": transformed}, params, True


def _cmd_sample(args):
    import numpy as np

    from . import correlations as corr

    if args.model or args.model_file:
        model = _model_from_args(args)
        angles = _parse_angles(args.angles or "eq2")
        box = corr.box_from_model(model, *angles)
        source = {"model": model, "angles": angles}
    else:
        box = _load_box(args)
        source = {"box": args.box or args.builtin}
    seed = args.seed
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**32))
    report = corr.sample_outcomes(box, args.n, seed)
    params = {"n": args.n, "seed": seed, **source}
    return report, params, True


# --------------------------------------------------------------------------
# Parser and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonlocality",
        description="Superquantum correlations and the jamming model: "
        "CHSH bounds, no-signalling checks, and causal-order geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument(
            "--timing", action="store_true", help="include wall-clock duration in the report"
        )

    p = sub.add_parser("chsh", help="CHSH value of a model, box, or strategy family")
    p.add_argument("--model", help="singlet | superquantum | classical:ID")
    p.add_argument("--model-file", help="JSON model file")
    p.add_argument("--angles", help="preset name or a,a',b,b'")
    p.add_argument("--optimize", action="store_true", help="maximize |CHSH| over angles")
    p.add_argument("--deterministic", type=_parse_deterministic,
                   help="'all' or a strategy id 0..15")
    p.add_argument("--box", help="box JSON file")
    p.add_argument("--builtin", help="a builtin box name")
    p.add_argument("--curve", type=int, help="emit an E(theta) curve with N points")
    p.add_argument("--csv", help="CSV output path for --curve")
    common(p)

    p = sub.add_parser("nosig", help="no-signalling check of a box")
    p.add_argument("--box", help="box JSON file")
    p.add_argument("--builtin", help="a builtin box name")
    p.add_argument("--tol", type=_parse_tol, default=None,
                   help="probability tolerance, a finite number > 0")
    common(p)

    p = sub.add_parser("jam", help="jamming configurations, windows, scenarios, boxes")
    p.add_argument("--config", help="configuration JSON file")
    p.add_argument("--latest", action="store_true", help="latest jammer time sweep")
    p.add_argument("--d", type=_parse_dimension, default=1,
                   help=f"spatial dimension, an integer 1..{_MAX_DIMENSION}")
    p.add_argument("--position", help="jammer spatial position, comma-separated")
    p.add_argument("--sweep", action="store_true", help="margin vs jammer time CSV")
    p.add_argument(
        "--sweep-range",
        type=_parse_sweep_range,
        default=(-1.5, 1.5, 121),
        help="lo,hi,n (n an integer >= 0; lo may be negative)",
    )
    p.add_argument("--csv", help="CSV output path for --sweep")
    p.add_argument("--scenario", help="multi-jammer scenario JSON file")
    p.add_argument("--box", help="box JSON file to jam")
    p.add_argument("--builtin", help="a builtin box name")
    p.add_argument("--strength", type=float, default=1.0, help="jamming strength in [0, 1]")
    p.add_argument("--tol", type=_parse_tol, default=None, help="geometric tolerance, a finite number > 0")
    common(p)

    p = sub.add_parser("boost", help="Lorentz-transform events or enumerate orderings")
    p.add_argument("--events", required=True, help="JSON file: list of [x..., t] events")
    p.add_argument("--v", help="boost velocity, comma-separated components")
    p.add_argument(
        "--orderings",
        action="store_true",
        help="list every strict time order some boost realises, with a witness velocity "
        f"(exact; mutually spacelike events, at most {st.MAX_ORDERING_EVENTS})",
    )
    common(p)

    p = sub.add_parser("sample", help="finite-statistics CHSH estimate from a box")
    p.add_argument("--box", help="box JSON file")
    p.add_argument("--builtin", help="a builtin box name")
    p.add_argument("--model", help="build the box from a model at --angles")
    p.add_argument("--model-file")
    p.add_argument("--angles", help="preset name or a,a',b,b'")
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
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(item, indent + 1))
            else:
                lines.append(f"{pad}- {_fmt_scalar(item)}")
    else:
        lines.append(f"{pad}{_fmt_scalar(value)}")
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


# Options whose value is a comma-separated number list. argparse's
# negative-number pattern matches a bare decimal only, so it takes a value
# such as "-0.4,1.6" or "-1e-05" for an option string. ``main`` therefore
# passes each of these options its value as ``OPT=VALUE``, also when the
# option is given by a unique prefix of its name, as argparse allows.
_NUMBER_LIST_OPTIONS = frozenset({"--angles", "--position", "--sweep-range", "--v"})


def _attach_number_lists(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Rewrite ``OPT VALUE`` as ``OPT=VALUE`` for the number-list options,
    where OPT may also be a unique prefix of one of the subcommand's options."""
    command = next((token for token in argv if not token.startswith("-")), None)
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    sub = subparsers.choices.get(command)
    options = sub._option_string_actions if sub is not None else {}
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        name = token
        if token.startswith("--") and token not in options:
            matches = [o for o in options if o.startswith(token)]
            if len(matches) == 1:
                name = matches[0]
        if name in _NUMBER_LIST_OPTIONS and i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            token = f"{name}={argv[i + 1]}"
            i += 1
        out.append(token)
        i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args, unknown = parser.parse_known_args(_attach_number_lists(parser, argv))
    if unknown:
        print(f"error: unrecognized arguments: {' '.join(unknown)}", file=sys.stderr)
        return 2
    started = time.perf_counter()
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
        "duration_s": round(time.perf_counter() - started, 6) if args.timing else None,
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
        # The reader closed the pipe (``| head``). The verdict stands; point
        # stdout at devnull so that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
