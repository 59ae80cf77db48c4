"""The benchmark tracer (`perfbench/tracing.py`) wraps functions by module
path; a renamed or removed target must fail here, not only inside a
`perfbench/run.py --trace` run."""

import subprocess
from pathlib import Path

from forked_runs import python

ROOT = Path(__file__).resolve().parents[1]


def _run_traced(code: str) -> subprocess.CompletedProcess:
    # no bytecode, to leave perfbench/ as it is
    return python("-c", code, path=[ROOT / "perfbench"], PYTHONDONTWRITEBYTECODE="1")


def test_tracer_installs_on_every_target():
    proc = _run_traced("import tracing; tracing.Tracer().install('hessaut')")
    assert proc.returncode == 0, proc.stderr


def test_traced_reduce_suite_counts_descent_steps():
    """The tracer unpacks `reduce_height` results as (word, residual)."""
    proc = _run_traced(
        "import sys, tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install('hessaut')\n"
        "from hessaut import cli\n"
        "code = cli.main(['verify', 'reduce'])\n"
        "print('steps', tracer.metrics()['autgroup.descent.steps'])\n"
        "sys.exit(code)\n"
    )
    assert proc.returncode == 0, proc.stderr
    steps = int(proc.stdout.splitlines()[-1].split()[1])
    assert steps > 0
