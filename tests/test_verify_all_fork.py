"""`verify all` runs the group suites in one forked child.

The serial loop over SUITE_NAMES is the reference: the forked run must
give its checks in its order, its certification message and its exit
status, leave no child behind, and never flush the stdio it inherited.
A live thread, or no `os.fork`, falls back to the serial loop, and a
single suite never forks. Everything runs in one fresh interpreter per
flag set, plain and under -O, so that no other child of the test process
can hide a leftover one. It also pins what a cold `verify all` loads,
builds and keeps.
"""

import json

import pytest

from forked_runs import python

SCRIPT = r"""
import sys
import hessaut.cli
early = sorted({"dataclasses", "inspect"} & set(sys.modules))
import contextlib, gc, io, json, os, threading
from hessaut import autgroup, cli, golay, hessian, weber
from hessaut.checks import CertificationError


def refuse(*args):
    raise RuntimeError("verify all must not build this table")


weber.affine_symplectic_group = golay.SteinerSystem.covering_counts = refuse
print("unflushed", end="")  # a child that flushed the inherited stdout prints it twice
forks = []
real_fork = os.fork


def counted_fork():
    forks.append(1)
    return real_fork()


os.fork = counted_fork


def no_child():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def main(argv):
    out, err = io.StringIO(), io.StringIO()
    before = len(forks)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except RuntimeError as e:
            rc = f"RuntimeError: {e}"
    return [rc, out.getvalue(), err.getvalue(), len(forks) - before, no_child()]


def status(call):
    return [call[0], *call[3:]]


def patched(suites, action):
    saved = dict(cli.SUITES)
    for name in suites:
        cli.SUITES[name] = lambda seed, name=name: action(name)
    try:
        return main(["verify", "all"])
    finally:
        cli.SUITES.update(saved)


def certify_false(name):
    raise CertificationError(f"forced in {name}")


def key_error(name):
    raise KeyError(name)


result = {}
kinds = set()
for seed in (1, 7):
    serial = [c for name in cli.SUITE_NAMES for c in cli.run(name, seed)["checks"]]
    before = len(forks)
    forked = cli.run("all", seed)["checks"]
    result[f"seed {seed}"] = [forked == serial, len(serial), len(forks) - before, no_child()]
    kinds |= {(type(c).__name__, *c) for c in serial + forked}

document = main(["verify", "all", "--json", "--seed", "1"])
result["document"] = status(document)
result["certify reduce"] = patched(["reduce"], certify_false)
result["certify walls"] = patched(["walls"], certify_false)
result["certify walls and reduce"] = patched(["walls", "reduce"], certify_false)
result["crash by exception"] = patched(["reduce"], key_error)
result["crash by exit"] = patched(["reduce"], lambda name: os._exit(3))
result["single suites fork"] = [main(["verify", n])[3] for n in cli.SUITE_NAMES]

stop = threading.Event()
thread = threading.Thread(target=stop.wait)
thread.start()
try:
    threaded = main(["verify", "all", "--json", "--seed", "1"])
finally:
    stop.set()
    thread.join()
result["live thread"] = [threaded[1] == document[1], status(threaded)]
del os.fork
unforked = main(["verify", "all", "--json", "--seed", "1"])
os.fork = counted_fork
result["no fork"] = [unforked[1] == document[1], status(unforked)]

named = [*hessian.COMPLEMENT_OCTADS.values(), *hessian.CURVE_OCTADS.values(),
         *autgroup.WALL_1A_OCTADS, *autgroup.WALL_3B_OCTADS_FIRST,
         autgroup.WALL_1A_EXAMPLE_OCTAD, autgroup.WALL_2_EXAMPLE_OCTAD, golay.BASE_OCTAD]
ids = set(map(id, named))
stray = [s for s in gc.get_objects() if isinstance(s, frozenset) and len(s) == 8
         and all(type(p) is int for p in s) and id(s) not in ids]
system = golay.steiner_system()
octads = {"optimize": sys.flags.optimize, "code_cached": hasattr(golay.golay_code, "cache_info"),
          "fields": sorted(vars(system)), "stray_octads": len(stray),
          "types": sorted({type(m).__name__ for m in (*system.masks, *system._members)})}
print(json.dumps({"fork": result, "early": early, "check kinds": sorted(kinds), "octads": octads}))
"""

CRASHED = ("RuntimeError: the suites generators, reduce crashed in their forked child "
           "(exit status {}, 0 bytes)")


@pytest.fixture(scope="module", params=[[], ["-O"]], ids=["plain", "O"])
def child(request):
    """The flags, how often stdout holds "unflushed", and SCRIPT's report."""
    # PYTHONUNBUFFERED unset, to keep "unflushed" in the inherited buffer
    proc = python(*request.param, "-c", SCRIPT, PYTHONUNBUFFERED=None)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.removeprefix("unflushed"))
    return request.param, proc.stdout.count("unflushed"), report


def test_verify_all_forks_once_and_matches_the_serial_suites(child):
    _, unflushed, report = child
    assert unflushed == 1
    result = dict(report["fork"])
    assert result.pop("seed 1") == [True, 76, 1, True]
    assert result.pop("seed 7") == [True, 76, 1, True]
    assert result.pop("document") == [0, 1, True]

    def failed(message):
        return [1, "", f"certification failed: {message}\n", 1, True]

    assert result.pop("certify reduce") == failed("forced in reduce")
    assert result.pop("certify walls") == failed("forced in walls")
    # the parent's error wins, as walls comes first in the serial order
    assert result.pop("certify walls and reduce") == failed("forced in walls")
    assert result.pop("crash by exception") == [CRASHED.format(1), "", "", 1, True]
    assert result.pop("crash by exit") == [CRASHED.format(3), "", "", 1, True]
    assert result.pop("single suites fork") == [0] * 10
    assert result.pop("live thread") == [True, [0, 0, True]]
    assert result.pop("no fork") == [True, [0, 0, True]]
    assert result == {}


def test_checks_are_dicts_with_the_report_keys_in_order(child):
    """A check is the report's own dict, from the suite to the document:
    every suite's checks run in process, and those `verify all` gets back
    from its forked child, are plain dicts with exactly these keys, in
    this order."""
    assert child[2]["check kinds"] == [["dict", "id", "status", "expected", "actual", "ref"]]


def test_cli_imports_no_dataclasses_and_verify_all_builds_no_group_or_cover_table(child):
    report = child[2]
    assert report["early"] == []  # of dataclasses and inspect, after `import hessaut.cli`
    # refused before the first run, so a passing `verify all` built neither
    assert report["fork"]["document"][0] == 0
    assert report["fork"]["seed 1"][:2] == [True, 76]


def test_a_cold_verify_all_keeps_the_octads_as_ints_and_no_code(child):
    assert child[2]["octads"] == {"optimize": len(child[0]), "code_cached": False, "stray_octads": 0,
                                  "fields": ["_members", "masks"], "types": ["int"]}
