"""Certification is one mechanism, `checks.certify`, that `python -O`
cannot strip, and a failed certification is a reported failure (exit 1)
rather than a traceback."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hessaut import cli, hessian, weber
from hessaut.checks import CertificationError
from hessaut.hessian import Picard

SRC = Path(__file__).resolve().parents[1] / "src"


def _python(*args, path=(), **env):
    """`python *args` in a fresh interpreter, output captured as text, with
    `path` and then `src` put before any inherited PYTHONPATH; each keyword
    sets an environment variable, or unsets it when None."""
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (*map(str, path), str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=600,
        env={k: v for k, v in env.items() if v is not None},
    )


def _python_O(code):
    """Run code in a fresh `python -O` with `src` on the path."""
    return _python("-O", "-c", code)


def test_src_has_no_assert_statements_or_assertion_errors():
    found = []
    for path in sorted((SRC / "hessaut").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert found == []


def test_only_the_boundary_views_import_fractions():
    """Integers inside: `Fraction` is imported by the modules whose API and
    report views give rationals (exact inverses and solutions, the Picard
    inner product, the wall projections r1, the report) and by no other,
    so `lattices` and `products` compute on integers only. An import says
    nothing about what runs: `EmbeddedLattice.disc_order` once read its
    determinant as a `Fraction` through `exact`, which this check allowed.
    `test_only_verify_walls_computes_with_fractions` pins the run-time side."""
    found = set()
    for path in sorted((SRC / "hessaut").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                found.add(path.stem)
    assert found == {"exact", "hessian", "autgroup", "cli"}


# every command a user runs: the ten suites alone, and the pinned word
CENSUS_COMMANDS = [["verify", suite, "--json"] for suite in cli.SUITE_NAMES] + [
    ["reduce", "--word", "tau,p16,g1,phi2,s21345", "--json"]
]

# run after `import hessaut.cli`, so the module constants built at import
# (the `WALL_*_EXPR` coefficients) are not counted: for each command of
# argv[1] in turn, its exit status and the names of the functions of
# `fractions.py` whose frames it entered, under a `sys.setprofile` hook
CENSUS = """\
import contextlib, fractions, io, json, sys
import hessaut.cli

entered = set()

def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename == fractions.__file__:
        entered.add(frame.f_code.co_name)

out = {}
for argv in json.loads(sys.argv[1]):
    entered.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(hook)
        try:
            status = hessaut.cli.main(argv)
        finally:
            sys.setprofile(None)
    out[" ".join(argv)] = [status, sorted(entered)]
print(json.dumps(out))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_only_verify_walls_computes_with_fractions(flags):
    """Integers inside, at run time: of every command, only `verify walls`
    enters `fractions.py`, for the projection norms it prints and the
    `WALL_*_EXPR` expansions it displays. That it does shows the hook is
    live. Frames, not `Fraction.__new__` calls, are counted: from Python
    3.12 `Fraction` arithmetic builds its results through
    `_from_coprime_ints`. One fresh interpreter runs every command, so a
    command is charged with what it builds first."""
    proc = _python(*flags, "-c", CENSUS, json.dumps(CENSUS_COMMANDS))
    assert proc.returncode == 0, proc.stderr
    census = json.loads(proc.stdout)
    assert [status for status, _ in census.values()] == [0] * len(CENSUS_COMMANDS)
    assert census.pop("verify walls --json")[1] != []
    assert {k: entered for k, (_, entered) in census.items()} == dict.fromkeys(census, [])


def test_constructor_certification_runs_under_python_O():
    # p16's push on omega is certified by `AutContext`, which a reduce builds
    code = (
        "import sys\n"
        "from hessaut import autgroup, cli\n"
        "autgroup.PUSH_MULTIPLES['2'] = 5\n"
        "sys.exit(cli.main(['reduce', '--word', 'p16']))\n"
    )
    proc = _python_O(code)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [
        "certification failed: p16 must push omega by 5 times its wall's r1"
    ]
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_pinned_packets_are_certified(monkeypatch, capsys):
    packets = [list(p) for p in weber.PINNED_PACKETS]
    packets[0][0], packets[1][1] = packets[1][1], packets[0][0]
    monkeypatch.setattr(weber, "PINNED_PACKETS", tuple(map(tuple, packets)))
    assert cli.main(["verify", "weber"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("certification failed:")
    assert err.count("\n") == 1


# one incidence of the non-basis curve T15 changed: with N16 the coordinates
# of T15 over the basis are no longer integral; with T36, whose column of
# G^-1 is integral, they are integral but are not T15 in L
FORGED_INCIDENCES = {
    "N16": ("T15 must have integral coordinates over the basis curves", 0),
    "T36": ("T15 must be the sum of its coordinates times the basis curves in L", 1),
}


def _forged_incidence(incidence, other, value):
    """`hessian.incidence` with the incidence of T15 and other set to value."""
    return lambda a, b: value if {a, b} == {"T15", other} else incidence(a, b)


@pytest.mark.parametrize("other", sorted(FORGED_INCIDENCES))
def test_a_forged_curve_incidence_is_a_failed_certification(monkeypatch, other):
    message, value = FORGED_INCIDENCES[other]
    assert "T15" not in hessian.picard().basis_names
    assert hessian.incidence("T15", other) != value
    monkeypatch.setattr(hessian, "incidence",
                        _forged_incidence(hessian.incidence, other, value))
    with pytest.raises(CertificationError) as raised:
        Picard()
    assert str(raised.value) == message


@pytest.mark.parametrize("other", sorted(FORGED_INCIDENCES))
def test_a_forged_curve_incidence_is_a_failed_certification_under_python_O(other):
    message, value = FORGED_INCIDENCES[other]
    code = (
        "import sys\n"
        "from hessaut import cli, hessian\n"
        + inspect.getsource(_forged_incidence)
        + f"hessian.incidence = _forged_incidence(hessian.incidence, {other!r}, {value})\n"
        "sys.exit(cli.main(['reduce', '--word', 'tau']))\n"
    )
    proc = _python_O(code)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [f"certification failed: {message}"]
    assert proc.stdout == ""


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("command", [["reduce", "--word", "tau"], ["verify", "walls"]])
def test_a_broken_built_in_table_is_a_failed_certification(flags, command):
    # N56 and N24 fixed instead of swapped: p16 violates the curve relations
    code = (
        "import sys\n"
        "from hessaut import autgroup, cli\n"
        "autgroup.NODE_PROJECTION_TABLE.update({'N56': {'N56': 1}, 'N24': {'N24': 1}})\n"
        f"sys.exit(cli.main({command!r}))\n"
    )
    proc = _python(*flags, "-c", code)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [
        "certification failed: p16: images violate the curve relations at T34"
    ]

