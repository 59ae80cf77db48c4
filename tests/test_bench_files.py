"""Every `BENCH_*.json` at the repository root is a complete, self-consistent
record of `bench/pairs.py`: its metric names, units, directions and bounds
are those of BENCHMARK.json, every seed has one run on each side with
the side that runs first alternating, and the medians, interquartile
ranges, pair wins and claim verdict recompute from the raw values."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def test_there_is_a_bench_file():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_recomputes_from_its_runs(path):
    doc = json.loads(path.read_text())
    assert doc["benchmark"] == SPEC["command"]
    assert isinstance(doc["host"]["nproc"], int) and doc["host"]["python"]
    assert all(doc[side]["commit"] for side in SIDES)
    assert doc["workloads"]
    assert set(doc["workloads"]) <= {w["name"] for w in SPEC["workloads"]}
    for workload in doc["workloads"].values():
        seeds = workload["seeds"]
        assert seeds and len(set(seeds)) == len(seeds)
        runs = {(r["seed"], r["side"]): r for r in workload["runs"]}
        assert len(runs) == len(workload["runs"]) == 2 * len(seeds)
        assert set(runs) == {(s, side) for s in seeds for side in SIDES}
        firsts = [next(side for side in SIDES if runs[s, side]["order"] == 0) for s in seeds]
        assert all(a != b for a, b in zip(firsts, firsts[1:])), "first side must alternate"
        for r in runs.values():
            assert set(r["metrics"]) == set(END_TO_END)
            assert 0 <= r["failed"] <= r["attempted"]
        assert set(workload["metrics"]) == set(END_TO_END)
        for name, m in workload["metrics"].items():
            spec = END_TO_END[name]
            assert (m["unit"], m["better"], m["bound"]) == (spec["unit"], spec["better"],
                                                             spec["bound"])
            values = {side: [runs[s, side]["metrics"][name] for s in seeds] for side in SIDES}
            for side in SIDES:
                q1, q2, q3 = statistics.quantiles(values[side], n=4)
                assert m[side]["median"] == pytest.approx(statistics.median(values[side]))
                assert m[side]["iqr"] == pytest.approx(q3 - q1)
            sign = 1 if spec["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            assert m["change_wins"] == wins
    claim = doc["claim"]
    if claim is not None:
        m = doc["workloads"][claim["workload"]]["metrics"][claim["metric"]]
        sign = 1 if m["better"] == "lower" else -1
        gap = sign * (m["parent"]["median"] - m["change"]["median"])
        pairs = len(doc["workloads"][claim["workload"]]["seeds"])
        assert claim["met"] == (10 * m["change_wins"] >= 9 * pairs
                                and gap > m["parent"]["iqr"])
