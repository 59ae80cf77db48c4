"""The `verify all --json` document is pinned byte for byte.

Refactors of the kernels below the suites must leave every check id,
expected/actual string and verdict as it is. The SHA-256 below was taken
from `hessaut verify all --json` before the root typing moved to the
basis graph; seeds 1 and 7 give the same document, and `python -O` must
too, since certification cannot be stripped.
"""

import hashlib

import pytest

from hessaut import cli
from forked_runs import python

VERIFY_ALL_JSON_SHA256 = "33bdbe42166c9cea52ecc6534155c440204e834fcae97489b86cc94aee9a6129"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", ["1", "7"])
def test_verify_all_json_is_pinned(capsys, seed):
    assert cli.main(["verify", "all", "--json", "--seed", seed]) == 0
    assert _sha256(capsys.readouterr().out) == VERIFY_ALL_JSON_SHA256


@pytest.mark.parametrize("seed", ["1", "7"])
def test_verify_all_json_is_pinned_under_python_O(seed):
    proc = python("-O", "-B", "-m", "hessaut.cli", "verify", "all", "--json", "--seed", seed)
    assert proc.returncode == 0, proc.stderr
    assert _sha256(proc.stdout) == VERIFY_ALL_JSON_SHA256
