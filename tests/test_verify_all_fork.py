"""`verify all` runs the group suites in one forked child.

The serial loop over SUITE_NAMES is the reference: the forked run must
give its checks in its order, its certification message and its exit
status, leave no child behind, and never flush the stdio it inherited.
A live thread, or no `os.fork`, falls back to the serial loop, and a
single suite never forks. Everything runs in one fresh interpreter per
flag set, plain and under -O, so that no other child of the test process
can hide a leftover one.
"""

import json

import pytest

from test_certification import _python

SCRIPT = r"""
import contextlib, io, json, os, sys, threading
from hessaut import cli
from hessaut.checks import CertificationError

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
for seed in (1, 7):
    serial = [c for name in cli.SUITE_NAMES for c in cli.run(name, seed)["checks"]]
    before = len(forks)
    forked = cli.run("all", seed)["checks"]
    result[f"seed {seed}"] = [forked == serial, len(serial), len(forks) - before, no_child()]

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
print(json.dumps(result))
"""

CRASHED = ("RuntimeError: the suites generators, reduce crashed in their forked child "
           "(exit status {}, 0 bytes)")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_verify_all_forks_once_and_matches_the_serial_suites(flags):
    # PYTHONUNBUFFERED unset, to keep "unflushed" in the inherited buffer
    proc = _python(*flags, "-c", SCRIPT, PYTHONUNBUFFERED=None)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("unflushed") == 1
    result = json.loads(proc.stdout.removeprefix("unflushed"))
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
