"""hessaut benchmark: a cold `verify all` and a seeded reduce stream.

    python3 perfbench/run.py --workload verify_cold --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Every measured process is a fresh
`python perfbench/session.py` with `src` on PYTHONPATH, which calls
`hessaut.cli.main` in-process; the last line of standard output is the
result object, and a readable report with units, sample counts and the
machine goes to standard error and to `.perfbench-out/`.

Every time metric is in reference seconds (`calibrate.py`): wall time
scaled, piece by piece, by the speed the shared host had at that moment,
as a reference task timed every 50 ms inside the session shows it. The
raw wall times and the host's slowdown are in the report.

Workloads (closed loop, one client, one process at a time). A run
reduces seeded words for `--seconds`, stopping at the end of a 20-word
block:

* `verify_cold`: one session runs `verify all --json --seed S` cold, then
  the words. `verify_s` is spawn to verify document; `setup_s` the median
  of eight spawns up to `import hessaut.cli`, four before the session and
  four after.
* `reduce_stream`: two sessions share the words. Each first reduces a
  one-letter word, the set-up call; the second then runs `verify all
  --json --seed S`, then the words. `setup_s` is the median over sessions
  of spawn to the first reduce result, `verify_s` the second session's
  spawn to verify document.

Word metrics exclude set-up words; `words_per_s` is words over their
summed time. `peak_rss_mb` is the largest `ru_maxrss` that `os.wait4`
reports for a session.

With `--trace 1` the run's last session runs twice, untraced and then
under `tracing.Tracer` with the same words; the outputs must match, and
the result carries the per-layer metrics and `trace.overhead_ratio`, the
traced over the untraced session wall time. Neither of these two
sessions samples the reference task, so that no sample lands in a span.

Every output is checked; failures are counted, never fatal:

* a verify document: exit 0, and every check id recorded in
  `expected.json` is present with status pass (new ids are allowed); it
  must be byte-identical to the document of any earlier run with the
  same seed in this checkout (so also across the sessions of a run);
* a word: exit 0, the height trace strictly decreases and ends at 20, the
  residual is named, and the output hashes to the value recorded in
  `expected.json`. A `RuntimeError` at the descent cap is one failed word.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

from calibrate import Calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
STARTED = time.monotonic()
RUN_LIMIT_S = 170  # every session is killed by then, so a run ends within 180 s
IMPORT_PROBES = 4
REDUCE_SESSIONS = 2


def spawn(plan: dict, label: str, kill_at: float | None = None) -> dict:
    """Run one session to completion; returns its records, costs and samples.

    The session is killed at monotonic time `kill_at`, by default when
    the run has lasted RUN_LIMIT_S.
    """
    if kill_at is None:
        kill_at = STARTED + RUN_LIMIT_S
    env = dict(os.environ, PYTHONPATH=SRC)
    err_path = os.path.join(OUT, f"{label}.stderr")
    with open(err_path, "w") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "session.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            cwd=ROOT, env=env, text=True,
        )
        watchdog = threading.Timer(kill_at - time.monotonic(), proc.kill)
        watchdog.start()
        try:
            try:
                proc.stdin.write(json.dumps(plan))
                proc.stdin.close()
            except BrokenPipeError:  # the session died at start; its records say so
                pass
            records = []
            for line in proc.stdout:
                try:
                    record = json.loads(line)
                except ValueError:  # stray output of the program itself
                    continue
                records.append(record)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            proc.stdout.close()
    return {
        "records": records,
        "exit": proc.returncode,
        "start": start,
        "wall": wall,
        "rss_mb": usage.ru_maxrss / 1024,
        "cal": Calibration([s for r in records for s in r.get("cal", ())]),
    }


def session_plan(seed: int, j, steps: list) -> dict:
    """Session `j` of a run: its own word stream, derived from the seed."""
    return {"seed": f"{seed}-{j}", "steps": steps, "trace": None, "calibrate": True}


class Checker:
    def __init__(self, seed: int):
        with open(os.path.join(HERE, "expected.json")) as fh:
            expected = json.load(fh)
        self.check_ids = expected["verify_check_ids"]
        self.word_hashes = expected["word_sha256_16"]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def fail(self, what: str, calls: int = 1) -> None:
        self.failed += calls
        if len(self.problems) < 20:
            self.problems.append(what)

    def verify_doc(self, record) -> None:
        self.attempted += 1
        if record["rc"] != 0:
            self.fail(f"verify: {record['error'] or record['rc']}")
            return
        try:
            status = {c["id"]: c["status"] for c in json.loads(record["out"])["checks"]}
        except (ValueError, KeyError, TypeError):
            self.fail("verify: output is not a verify document")
            return
        missing = [cid for cid in self.check_ids if status.get(cid) != "pass"]
        if missing:
            self.fail(f"verify: not passing {missing[:5]}")
            return
        # byte-identical across runs with the same seed in this checkout
        digest = hashlib.sha256(record["out"].encode()).hexdigest()
        pinned = os.path.join(OUT, f"verify-all-seed{self.seed}.sha256")
        if os.path.exists(pinned):
            with open(pinned) as fh:
                if fh.read() != digest:
                    self.fail("verify: document differs from an earlier run")
        else:
            with open(pinned, "w") as fh:
                fh.write(digest)

    def word(self, record) -> None:
        self.attempted += 1
        if record["rc"] != 0:
            self.fail(f"word {record['block']}/{record['position']}: "
                      f"{record['error'] or record['rc']}")
            return
        try:
            doc = json.loads(record["out"])
            heights, residual = doc["heights"], doc["residual"]
            descending = all(a > b for a, b in zip(heights, heights[1:]))
        except (ValueError, KeyError, TypeError):
            self.fail(f"word {record['block']}/{record['position']}: not a reduce document")
            return
        if not (descending and heights[-1] == 20 and residual):
            self.fail(f"word {record['block']}/{record['position']}: bad trace")
            return
        digest = hashlib.sha256(record["out"].encode()).hexdigest()[:16]
        if digest != self.word_hashes[record["block"]][record["position"]]:
            self.fail(f"word {record['block']}/{record['position']}: output changed")

    def session(self, result: dict, plan: dict) -> None:
        """Check every call; a crashed session fails the calls it lost."""
        for r in result["records"]:
            if r["kind"] == "cli":
                self.verify_doc(r)
            elif r["kind"] == "word":
                self.word(r)
        lost = (sum(1 for step in plan["steps"] if step[0] == "cli")
                - len(records(result, "cli")))
        if result["exit"] != 0 or lost:
            self.attempted += max(lost, 1)
            self.fail(f"session exit {result['exit']}, {lost} verify calls lost",
                      max(lost, 1))


class Unmeasured(Exception):
    """A session ended without the calls a metric is taken from."""


def records(result: dict, kind: str) -> list:
    return [r for r in result["records"] if r["kind"] == kind]


def first(result: dict, kind: str) -> dict:
    found = records(result, kind)
    if not found:
        raise Unmeasured(f"a session (exit {result['exit']}) returned no {kind} call")
    return found[0]


def reference(result: dict, a: float, b: float) -> float:
    """Reference seconds of the session's time between monotonic times a and b."""
    if not result["cal"]:
        raise Unmeasured(f"a session (exit {result['exit']}) took no reference samples")
    return result["cal"].seconds(a, b)


def since_spawn(result: dict, kind: str) -> float:
    """Reference seconds from the session's spawn to the end of its first `kind` call."""
    return reference(result, result["start"], first(result, kind)["t1"])


def word_metrics(times: list) -> dict:
    if len(times) < 20:
        raise Unmeasured(f"only {len(times)} words were timed")
    return {
        "words_per_s": len(times) / sum(times),
        "word_p50_ms": 1000 * statistics.median(times),
        "word_p95_ms": 1000 * statistics.quantiles(times, n=20)[18],
    }


VERIFY_ALL = ["verify", "all", "--json", "--seed"]


def plans(workload: str, seed: int, seconds: float) -> list:
    """The sessions of one run; the word stream is split evenly over them."""
    verify = ["cli", VERIFY_ALL + [str(seed)]]
    if workload == "verify_cold":
        return [session_plan(seed, 0, [verify, ["words", seconds, None]])]
    setup = ["words", None, 1]
    stream = ["words", seconds / REDUCE_SESSIONS, None]
    return [
        session_plan(seed, j, [setup, verify, stream] if j == REDUCE_SESSIONS - 1
                     else [setup, stream])
        for j in range(REDUCE_SESSIONS)
    ]


def import_probes(seed: int) -> list:
    probe = session_plan(seed, "probe", [])
    return [since_spawn(spawn(probe, "probe"), "ready") for _ in range(IMPORT_PROBES)]


def measure(workload: str, seed: int, seconds: float, check: Checker):
    # verify_cold probes on both sides of its session, which spans the run
    probes = import_probes(seed) if workload == "verify_cold" else []
    results = []
    for j, plan in enumerate(plans(workload, seed, seconds)):
        results.append(spawn(plan, f"{workload}{j}"))
        check.session(results[-1], plan)
    if workload == "verify_cold":
        setup = statistics.median(probes + import_probes(seed))
        verify = since_spawn(results[0], "cli")
        skip = 0
    else:
        setup = statistics.median(since_spawn(r, "word") for r in results)
        verify = since_spawn(results[-1], "cli")
        skip = 1  # the set-up word
    times = [reference(r, w["t0"], w["t1"]) for r in results for w in records(r, "word")[skip:]]
    metrics = {
        "setup_s": setup,
        "verify_s": verify,
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        **word_metrics(times),
    }
    samples = {"sessions": len(results), "words": len(times),
               "session_wall_s": [r["wall"] for r in results],
               "verify_wall_s": first(results[-1], "cli")["t1"] - results[-1]["start"],
               "host_slowdown": [r["cal"].speed() for r in results]}
    return metrics, samples


def measure_traced(workload: str, seed: int, seconds: float, check: Checker):
    """The run's last session untraced, then traced with the same words."""
    plan = dict(plans(workload, seed, seconds)[-1], calibrate=False)
    plain = spawn(plan, "untraced")
    check.session(plain, plan)
    done = [sum(1 for w in records(plain, "word") if w["step"] == i)
            for i in range(len(plan["steps"]))]
    steps = [["words", None, done[i]] if step[0] == "words" else step
             for i, step in enumerate(plan["steps"])]
    replay = dict(plan, steps=steps,
                  trace=os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl"))
    traced = spawn(replay, "traced")
    check.session(traced, replay)

    def outputs(res):
        return [r["out"] for r in res["records"] if r["kind"] in ("cli", "word")]

    if outputs(plain) != outputs(traced):
        check.fail("traced outputs differ from the untraced outputs")
    metrics = first(traced, "trace")["metrics"]
    metrics["trace.overhead_ratio"] = traced["wall"] / plain["wall"]
    return metrics, {"untraced_wall_s": plain["wall"], "traced_wall_s": traced["wall"]}


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("reduce_stream", "verify_cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "hessaut", "cli.py")):
        print(f"no hessaut sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    machine = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": commit(),
    }
    check = Checker(args.seed)
    try:
        measured, samples = (measure_traced if args.trace else measure)(
            args.workload, args.seed, args.seconds, check)
    except Unmeasured as e:
        print(f"cannot measure {args.workload}: {e}; failed calls: {check.problems}",
              file=sys.stderr)
        return 1
    machine["loadavg_end"] = os.getloadavg()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "failed_ratio": check.failed / check.attempted,
        "problems": check.problems, "samples": samples, "machine": machine,
        "result": result,
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(report, fh, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload} failed_ratio = {report['failed_ratio']:.6g} ratio "
          f"({check.failed}/{check.attempted}); samples {samples}; {machine}",
          file=sys.stderr)
    for p in check.problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(result, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
