"""One fresh benchmark process: calls `hessaut.cli.main` in-process.

Run with `src` on PYTHONPATH. Reads a plan (JSON) from stdin:

    {"seed": str, "trace": path | null, "calibrate": bool,
     "steps": [["cli", argv] | ["words", seconds | null, count | null], ...]}

With `calibrate` set, the session first starts `calibrate.start()`, and
every line it prints carries the reference samples taken since the last
one. It prints `{"kind": "ready"}` once `hessaut.cli` is imported, then
runs the steps in order. A `cli` step is one call; a `words` step reduces
the next words of `words.blocks(seed)`, either exactly `count` of them or,
after `seconds`, up to the end of the current block. Every call prints one
JSON line with its exit code, captured standard output, any exception and
its start and end (`time.monotonic`). With `trace` set, the calls run
under `tracing.Tracer`, whose spans are written to that path and whose
aggregates close the output.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

import calibrate
import words


def emit(record: dict) -> None:
    record["cal"] = calibrate.take()
    sys.stdout.write(json.dumps(record, separators=(",", ":")) + "\n")
    sys.stdout.flush()


def call(main, argv: list) -> dict:
    buf = io.StringIO()
    error = None
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except SystemExit as e:  # argparse usage errors
        rc = e.code if isinstance(e.code, int) else 2
    except Exception:  # a failed call is counted by the parent, not fatal
        rc = None
        error = traceback.format_exc(limit=3)
    end = time.monotonic()
    return {"rc": rc, "out": buf.getvalue(), "error": error, "t0": start, "t1": end}


def main() -> int:
    plan = json.load(sys.stdin)
    if plan["calibrate"]:
        calibrate.start()
    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
    import hessaut.cli

    if tracer:
        tracer.install("hessaut")
    emit({"kind": "ready", "t1": time.monotonic()})
    stream = (
        (block, position, word, k == len(items) - 1)
        for block, items in words.blocks(plan["seed"])
        for k, (position, word) in enumerate(items)
    )
    request = 0

    def run(kind: str, argv: list, **extra) -> None:
        nonlocal request
        if tracer:
            tracer.request = request
        request += 1
        emit({"kind": kind, **extra, **call(hessaut.cli.main, argv)})

    for step_no, (kind, *args) in enumerate(plan["steps"]):
        if kind == "cli":
            run("cli", args[0], step=step_no)
            continue
        seconds, count = args
        start = time.monotonic()
        done = 0
        for block, position, word, block_end in stream:
            run("word", ["reduce", "--word", word, "--json"],
                step=step_no, block=block, position=position)
            done += 1
            if done == count:
                break
            if seconds is not None and block_end and time.monotonic() - start >= seconds:
                break
    if tracer:
        tracer.write(plan["trace"])
        emit({"kind": "trace", "metrics": tracer.metrics()})
    if plan["calibrate"]:
        calibrate.stop()
        emit({"kind": "end"})
    return 0


if __name__ == "__main__":
    sys.exit(main())
