"""Fresh interpreters for the tests: `python` starts one with `src` on the
path, and `forked_runs` runs each probe, a code string as `python -c` takes
it, in a fork of one interpreter per flag set that imported `hessaut.cli`,
so each builds everything a fresh process would and leaves nothing behind."""

import json
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def python(*args, path=(), **env):
    """`python *args`, output as text, with `path` and `src` before any
    inherited PYTHONPATH; a keyword sets an environment variable, None unsets it."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (*map(str, path), str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=600,
                          env={k: v for k, v in env.items() if v is not None})


def python_O(code):
    return python("-O", "-c", code)


def main_after(patch, argv):
    """The probe that runs `patch` and then exits with `cli.main(argv)`."""
    return f"import sys\nfrom hessaut import autgroup, cli, hessian\n{patch}sys.exit(cli.main({argv!r}))\n"


# argv[1]: the probes as {name: code}. Prints {name: [status, stdout,
# stderr]}: each probe ends as `python -c` would end it, in its fork.
CHILD = """\
import json, os, sys, tempfile
import hessaut.cli

results = {}
for name, code in json.loads(sys.argv[1]).items():
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        if os.fork() == 0:
            os.dup2(out.fileno(), 1)
            os.dup2(err.fileno(), 2)
            exec(compile(code, "<probe>", "exec"))
            sys.exit()
        status = os.waitstatus_to_exitcode(os.wait()[1])
        results[name] = [status] + [(f.seek(0), f.read().decode())[1] for f in (out, err)]
print(json.dumps(results))
"""


def forked_runs(probes: dict):
    """A module-scoped fixture `runs`: `runs(*flags)[name]` is [status,
    stdout, stderr] of probe `name`, from one child per flag set, spawned
    when first asked for."""
    @cache
    def runs(*flags):
        proc = python(*flags, "-c", CHILD, json.dumps(probes))
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)
    return pytest.fixture(scope="module", name="runs")(lambda: runs)
