"""Traced stand-in for ``python -m nonlocality.cli``.

    python3 bench/cli_shim.py ARGS...

Imports the CLI, wraps the library's public functions, runs ``main(ARGS)``
and exits with its code, as the real entry point would. The last line on
stderr is ``BENCH-TRACE <json>`` with this process's span summary and
timestamps on the parent's clock (``perf_counter`` is CLOCK_MONOTONIC on
Linux, shared by every process of the machine), so the parent can split
the op's wall time into interpreter start and exit, import and ``main``.
"""

import time

T_FIRST = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    args = sys.argv[1:]
    t0 = time.perf_counter()
    import nonlocality.cli as cli

    import_s = time.perf_counter() - t0
    import spans

    tracer = spans.Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        code = cli.main(args)
    except SystemExit as exc:  # argparse rejects its input by exiting
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    record = {"first": T_FIRST, "import_s": import_s, "summary": tracer.summary()}
    record["last"] = time.perf_counter()
    print(spans.TRACE_TAG + json.dumps(record), file=sys.stderr, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
