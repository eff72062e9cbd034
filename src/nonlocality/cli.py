"""Command-line front end.

One binary with subcommands ``chsh``, ``nosig``, ``jam``, ``boost`` and
``sample``. Reports are emitted as text tables or JSON (stable key order;
identical inputs and seeds give byte-identical JSON). Exit codes: 0 on
success, 1 when a checked claim fails (a verdict is false), 2 on input
errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time

import numpy as np

from . import correlations as corr
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


def _parse_angles(text: str) -> tuple[float, float, float, float]:
    if text in corr.ANGLE_PRESETS:
        return corr.ANGLE_PRESETS[text]
    values = _parse_floats(text)
    if len(values) != 4:
        raise ValueError(
            f"--angles takes a preset ({', '.join(sorted(corr.ANGLE_PRESETS))}) "
            f"or four comma-separated angles a,a',b,b'; got {text!r}"
        )
    return tuple(values)  # type: ignore[return-value]


def _parse_model(spec: str) -> corr.CorrelationModel:
    if spec == "singlet":
        return corr.SingletModel()
    if spec == "superquantum":
        return corr.SuperquantumModel()
    if spec.startswith("classical:"):
        return corr.DeterministicModel(int(spec.split(":", 1)[1]))
    raise ValueError(
        f"unknown model {spec!r}; use singlet, superquantum, classical:ID "
        "or --model-file"
    )


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_box(args) -> corr.NoSignallingBox:
    if getattr(args, "box", None):
        return corr.NoSignallingBox.from_json(_load_json(args.box))
    if getattr(args, "builtin", None):
        return corr.builtin_box(args.builtin)
    raise ValueError("provide --box FILE or --builtin NAME")


def _model_from_args(args) -> corr.CorrelationModel:
    if getattr(args, "model_file", None):
        return corr.model_from_json(_load_json(args.model_file))
    if getattr(args, "model", None):
        return _parse_model(args.model)
    raise ValueError("provide --model NAME or --model-file FILE")


def _write_csv(path: str, header: list[str], rows: list[list]) -> int:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return len(rows)


# --------------------------------------------------------------------------
# Subcommands: each returns (results dict, params echo dict, ok flag)


def _cmd_chsh(args):
    params = {"tol": corr.PROB_TOL}
    if args.deterministic is not None:
        strategies = corr.enumerate_deterministic()
        if args.deterministic != "all":
            strategies = [strategies[int(args.deterministic)]]
        rows = [
            {
                "strategy": s.strategy_id,
                "alice": list(s.alice),
                "bob": list(s.bob),
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
        res = corr.chsh(box)
        params["box"] = args.box or args.builtin
        results = {
            "value": res.value,
            "terms": list(res.terms),
            "classification": corr.classify_chsh(res.value),
        }
        return results, params, True

    model = _model_from_args(args)
    params["model"] = model.to_json()
    if args.curve is not None:
        if not args.csv:
            raise ValueError("--curve requires --csv PATH")
        thetas = np.linspace(0.0, math.pi, args.curve)
        rows = [[f"{t:.12g}", f"{corr.eval_correlation(model, t):.12g}"] for t in thetas]
        n = _write_csv(args.csv, ["theta", "correlation"], rows)
        params["curve_points"] = args.curve
        return {"csv": args.csv, "rows": n}, params, True
    if args.optimize:
        opt = corr.maximize_chsh(model)
        params["optimize"] = True
        results = {
            "value": opt.value,
            "angles": list(opt.angles),
            "terms": list(opt.result.terms),
            "classification": corr.classify_chsh(opt.value),
            "note": "search result: heuristic lower bound on the true maximum",
        }
        return results, params, True
    angles = _parse_angles(args.angles or "eq2")
    res = corr.chsh_at_angles(model, *angles)
    params["angles"] = list(angles)
    results = {
        "value": res.value,
        "terms": list(res.terms),
        "classification": corr.classify_chsh(res.value),
    }
    return results, params, True


def _cmd_nosig(args):
    box = _load_box(args)
    report = corr.check_no_signalling(box, tol=args.tol)
    params = {"box": args.box or args.builtin, "tol": args.tol}
    return report.to_json(), params, report.passed


def _cmd_jam(args):
    tol = args.tol if args.tol is not None else st.default_tol()
    params = {"tol": tol}
    if args.latest:
        position = tuple(_parse_floats(args.position)) if args.position else None
        res = jam.latest_jammer_time(args.d, position=position, tol=tol)
        params.update({"d": args.d, "position": list(res.position)})
        return res.to_json(), params, True
    if args.sweep:
        if not args.csv:
            raise ValueError("--sweep requires --csv PATH")
        d = args.d
        position = tuple(_parse_floats(args.position)) if args.position else (0.0,) * d
        lo, hi, n = args.sweep_range
        a = st.Event((-1.0,) + (0.0,) * (d - 1), 0.0)
        b = st.Event((+1.0,) + (0.0,) * (d - 1), 0.0)
        rows = []
        for jt in np.linspace(lo, hi, n):
            cfg = jam.JammingConfiguration(a=a, b=b, j=st.Event(position, jt))
            valid = jam.validate_configuration(cfg, tol=tol).valid
            if valid:
                verdict = jam.binary_condition(cfg, tol=tol)
                rows.append([f"{jt:.12g}", 1, f"{verdict.margin:.12g}", int(verdict.holds)])
            else:
                rows.append([f"{jt:.12g}", 0, "nan", 0])
        count = _write_csv(args.csv, ["j_t", "valid", "margin", "holds"], rows)
        params.update({"d": d, "position": list(position), "sweep_range": [lo, hi, n]})
        return {"csv": args.csv, "rows": count}, params, True
    if args.scenario:
        scenario = jam.JamScenario.from_json(_load_json(args.scenario))
        report = jam.detect_causal_loops(scenario, tol=tol)
        params["scenario"] = args.scenario
        return report.to_json(), params, report.acyclic
    if args.config:
        cfg = jam.JammingConfiguration.from_json(_load_json(args.config))
        validation = jam.validate_configuration(cfg, tol=tol)
        params["config"] = args.config
        results = {"validation": validation.to_json()}
        ok = validation.valid
        if validation.valid:
            verdict = jam.binary_condition(cfg, tol=tol)
            results["binary"] = verdict.to_json()
            ok = verdict.holds
        return results, params, ok
    if args.box or args.builtin:
        box = _load_box(args)
        jammed = jam.apply_jamming(box, strength=args.strength)
        unary = jam.check_unary(box, jammed)
        params.update({"box": args.box or args.builtin, "strength": args.strength})
        results = {
            "chsh_before": corr.chsh(box).value,
            "chsh_after": corr.chsh(jammed).value,
            "unary": unary.to_json(),
            "jammed_box": jammed.to_json(),
        }
        return results, params, unary.holds
    raise ValueError("jam needs one of --config, --latest, --sweep, --scenario, --box/--builtin")


def _cmd_boost(args):
    events = [st.Event.from_json(item) for item in _load_json(args.events)]
    params = {"events": args.events, "tol": st.default_tol()}
    if args.orderings:
        if not args.speed_step > 0.0:
            raise ValueError(f"--speed-step must be > 0, got {args.speed_step}")
        if args.n_directions < 1:
            raise ValueError(f"--n-directions must be >= 1, got {args.n_directions}")
        d = events[0].d
        grid = st.VelocityGrid.for_dimension(
            d,
            speed_step=args.speed_step,
            max_speed=args.max_speed,
            n_directions=args.n_directions,
        )
        found = st.achievable_orderings(events, grid=grid)
        params.update(
            {
                "speed_step": args.speed_step,
                "max_speed": args.max_speed,
                "n_directions": args.n_directions,
            }
        )
        orderings = [
            {"order": list(perm), "witness_velocity": list(bst.v)}
            for perm, bst in sorted(found.items())
        ]
        return {"orderings": orderings, "count": len(orderings)}, params, True
    if args.v is None:
        raise ValueError("boost needs --v or --orderings")
    bst = st.Boost(tuple(_parse_floats(args.v)))
    params["v"] = list(bst.v)
    transformed = [st.boost(e, bst).to_json() for e in events]
    return {"events": transformed}, params, True


def _cmd_sample(args):
    if args.model or args.model_file:
        model = _model_from_args(args)
        angles = _parse_angles(args.angles or "eq2")
        box = corr.box_from_model(model, *angles)
        source = {"model": model.to_json(), "angles": list(angles)}
    else:
        box = _load_box(args)
        source = {"box": args.box or args.builtin}
    seed = args.seed
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2**32))
    report = corr.sample_outcomes(box, args.n, seed)
    params = {"n": args.n, "seed": seed, **source}
    return report.to_json(), params, True


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
    p.add_argument("--deterministic", help="'all' or a strategy id 0..15")
    p.add_argument("--box", help="box JSON file")
    p.add_argument("--builtin", help=f"one of {sorted(corr.BUILTIN_BOXES)}")
    p.add_argument("--curve", type=int, help="emit an E(theta) curve with N points")
    p.add_argument("--csv", help="CSV output path for --curve")
    common(p)

    p = sub.add_parser("nosig", help="no-signalling check of a box")
    p.add_argument("--box", help="box JSON file")
    p.add_argument("--builtin", help=f"one of {sorted(corr.BUILTIN_BOXES)}")
    p.add_argument("--tol", type=float, default=corr.PROB_TOL)
    common(p)

    p = sub.add_parser("jam", help="jamming configurations, windows, scenarios, boxes")
    p.add_argument("--config", help="configuration JSON file")
    p.add_argument("--latest", action="store_true", help="latest jammer time sweep")
    p.add_argument("--d", type=int, default=1, help="spatial dimension")
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
    p.add_argument("--builtin", help=f"one of {sorted(corr.BUILTIN_BOXES)}")
    p.add_argument("--strength", type=float, default=1.0, help="jamming strength in [0, 1]")
    p.add_argument("--tol", type=float, default=None, help="geometric tolerance")
    common(p)

    p = sub.add_parser("boost", help="Lorentz-transform events or enumerate orderings")
    p.add_argument("--events", required=True, help="JSON file: list of [x..., t] events")
    p.add_argument("--v", help="boost velocity, comma-separated components")
    p.add_argument("--orderings", action="store_true", help="enumerate achievable time orders")
    p.add_argument("--speed-step", type=float, default=0.01)
    p.add_argument("--max-speed", type=float, default=0.99)
    p.add_argument("--n-directions", type=int, default=24)
    common(p)

    p = sub.add_parser("sample", help="finite-statistics CHSH estimate from a box")
    p.add_argument("--box", help="box JSON file")
    p.add_argument("--builtin", help=f"one of {sorted(corr.BUILTIN_BOXES)}")
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
    args = parser.parse_args(_attach_number_lists(parser, argv))
    started = time.perf_counter()
    try:
        results, params, ok = _DISPATCH[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "params": params,
        "results": results,
        "ok": ok,
        "duration_s": round(time.perf_counter() - started, 6) if args.timing else None,
    }
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(f"command: {args.command}")
        for line in _render_text(params):
            print(f"  {line}")
        for line in _render_text(results):
            print(line)
        print(f"ok: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
