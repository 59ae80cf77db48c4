"""Benchmark a change against its parent in alternating pairs; write BENCH_*.json.

    python3 bench/pairs.py --parent HEAD --seeds 201-210 --out BENCH_N.json \\
        --claim verify_cold:verify_s

Run from the root of a git checkout. The parent is a git revision, unpacked
by `git archive`; the change is the working tree, its tracked files and the
untracked ones git does not ignore. Both are copied into clean directories
with no bytecode cache, and `perfbench/run.py` runs there, with the same
Python and settings on both sides. Pair i runs one seed on both sides; the
side that runs first alternates from pair to pair. Every workload of
BENCHMARK.json runs, at its `run_seconds`.

The file holds, per workload, every run's raw end-to-end metrics, and per
metric each side's median and interquartile range (the quartiles of
`statistics.quantiles(values, n=4)`), the bound from BENCHMARK.json and
the number of pairs the change wins (ties count for neither side). A
claim (`workload:metric`) is met when the change wins at least nine
tenths of the pairs and the medians differ, in the metric's better
direction, by more than the parent's interquartile range. The host part
records `nproc`, the Python version, the CPU model, load averages and
the `python -c pass` floor (median of five spawns).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def unpack_revision(rev: str, dest: str) -> dict:
    """`git archive` of `rev` into `dest`."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(dest)
    return {"rev": rev, "commit": commit}


def unpack_worktree(dest: str) -> dict:
    """The working tree's files that git does not ignore, copied into `dest`."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, (n.decode() for n in names)):
        if os.path.isfile(os.path.join(ROOT, name)):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(os.path.join(ROOT, name), os.path.join(dest, name))
    dirty = bool(git("status", "--porcelain").strip())
    return {"rev": "working tree", "commit": git("rev-parse", "HEAD").decode().strip(),
            "uncommitted_changes": dirty}


def run_once(tree: str, workload: str, seed: int, seconds: float, metrics: list) -> dict:
    """One `perfbench/run.py` run; its raw end-to-end metrics and verdict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} in {tree} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: result["metrics"][m]["value"] for m in metrics},
    }


def median_iqr(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": q3 - q1}


def better(a: float, b: float, direction: str) -> bool:
    """Whether a reads better than b."""
    return a < b if direction == "lower" else a > b


def summarize(seeds: list, runs: list, spec: list) -> dict:
    """Per metric: each side's median and IQR, the bound and the pairs won."""
    out = {}
    for m in spec:
        value = {(r["seed"], r["side"]): r["metrics"][m["name"]] for r in runs}
        out[m["name"]] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            **{side: median_iqr([value[seed, side] for seed in seeds]) for side in SIDES},
            "change_wins": sum(better(value[seed, "change"], value[seed, "parent"], m["better"])
                               for seed in seeds),
        }
    return out


def claim_met(metric: dict, pairs: int) -> bool:
    """Nine tenths of the pairs won, and the medians apart by more than
    the parent's interquartile range, in the better direction."""
    gap = metric["parent"]["median"] - metric["change"]["median"]
    if metric["better"] == "higher":
        gap = -gap
    return 10 * metric["change_wins"] >= 9 * pairs and gap > metric["parent"]["iqr"]


def pass_floor() -> float:
    """Median wall seconds of five `python -c pass` spawns."""
    times = []
    for _ in range(5):
        start = time.monotonic()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(time.monotonic() - start)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def seed_range(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="one seed per pair, as FIRST-LAST")
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    claim = None
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in workloads or metric not in {m["name"] for m in spec["end_to_end"]}:
            parser.error(f"--claim {args.claim}: not a workload and an end-to-end metric")
        claim = {"workload": workload, "metric": metric}
    names = [m["name"] for m in spec["end_to_end"]]
    work = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        trees = {side: os.path.join(work, side) for side in SIDES}
        for tree in trees.values():
            os.makedirs(tree)
        revisions = {
            "parent": unpack_revision(args.parent, trees["parent"]),
            "change": unpack_worktree(trees["change"]),
        }
        host = {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
                "machine": platform.machine(), "cpu": cpu_model(),
                "loadavg_start": os.getloadavg(), "pass_floor_s": pass_floor()}
        results = {}
        for workload in workloads:
            runs = []
            for i, seed in enumerate(args.seeds):
                for order, side in enumerate(SIDES if i % 2 == 0 else SIDES[::-1]):
                    run = run_once(trees[side], workload, seed, seconds, names)
                    runs.append({"seed": seed, "side": side, "order": order, **run})
                    print(f"{workload} seed {seed} {side}: {run['metrics']}", file=sys.stderr)
            metrics = summarize(args.seeds, runs, spec["end_to_end"])
            results[workload] = {"seeds": args.seeds, "runs": runs, "metrics": metrics}
            if claim and claim["workload"] == workload:
                claim["met"] = claim_met(metrics[claim["metric"]], len(args.seeds))
        host["loadavg_end"] = os.getloadavg()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc = {"benchmark": spec["command"], "seconds": seconds, **revisions, "host": host,
           "claim": claim, "workloads": results}
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for workload, summary in results.items():
        for name, m in summary["metrics"].items():
            print(f"{workload} {name}: {m['parent']['median']:.6g} "
                  f"(IQR {m['parent']['iqr']:.3g}) -> {m['change']['median']:.6g} "
                  f"(IQR {m['change']['iqr']:.3g}) {m['unit']}, change wins "
                  f"{m['change_wins']}/{len(summary['seeds'])}")
    if claim:
        print(f"claim {claim['workload']}:{claim['metric']} met: {claim['met']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
