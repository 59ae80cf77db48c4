"""Certification is one mechanism, `checks.certify`, that `python -O`
cannot strip, and a failed certification is a reported failure (exit 1)
rather than a traceback."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from hessaut import cli, weber

SRC = Path(__file__).resolve().parents[1] / "src"


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=600,
    )
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
