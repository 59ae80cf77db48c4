"""Certification is one mechanism, `checks.certify`, that `python -O`
cannot strip, and a failed certification is a reported failure (exit 1)
rather than a traceback."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hessaut import cli, weber
from hessaut.checks import CertificationError
from hessaut.hessian import CURVE_NAMES, Picard

SRC = Path(__file__).resolve().parents[1] / "src"


def _python_O(code):
    """Run code in a fresh `python -O` with `src` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=600,
    )


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


def test_constructor_certification_runs_under_python_O():
    code = (
        "import sys\n"
        "from hessaut import autgroup, cli\n"
        "autgroup.CASE_ROOT_TYPES['2'] = 'A1'\n"
        "sys.exit(cli.main(['reduce', '--word', 'p16']))\n"
    )
    proc = _python_O(code)
    assert proc.returncode == 1, proc.stderr
    assert any(
        line.startswith("certification failed:") for line in proc.stderr.splitlines()
    ), proc.stderr
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


def _unit_coords(scale):
    """Raw coordinates of the twenty curves: the first sixteen the unit
    vectors, the first of them times scale, the last four zero."""
    rows = [[int(i == j) for j in range(16)] for i in range(16)]
    rows[0][0] = scale
    return dict(zip(CURVE_NAMES, rows + [[0] * 16] * 4))


def test_the_greedy_curve_basis_is_certified_unimodular():
    assert Picard._pick_unimodular_basis(_unit_coords(1)) == tuple(CURVE_NAMES[:16])
    doubled = _unit_coords(2)
    # a later curve would complete a unimodular basis, but the pick stays greedy
    other = {**doubled, CURVE_NAMES[16]: _unit_coords(1)[CURVE_NAMES[0]]}
    for coords in (doubled, _unit_coords(0), other):  # det 2, rank 15, det 2
        with pytest.raises(CertificationError, match="unimodular basis"):
            Picard._pick_unimodular_basis(coords)


def test_the_greedy_curve_basis_is_certified_under_python_O():
    code = (
        "from hessaut.checks import CertificationError\n"
        "from hessaut.hessian import CURVE_NAMES, Picard\n"
        + inspect.getsource(_unit_coords)
        + "try:\n"
        "    Picard._pick_unimodular_basis(_unit_coords(2))\n"
        "except CertificationError as e:\n"
        "    print('rejected:', e)\n"
    )
    proc = _python_O(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rejected:") and "unimodular basis" in proc.stdout


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
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.splitlines() == [
        "certification failed: p16: images violate the curve relations at T34"
    ]

