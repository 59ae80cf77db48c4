"""`hessaut reduce --json` output pinned byte for byte.

The benchmark in `perfbench/` records, for every word of its seeded pool,
the first 16 hex digits of the SHA-256 of the reduce output. The words of
the first two pool blocks (short, medium and long, up to 600 letters) are
checked here against those recorded hashes, and so are the two long words
(200-600 letters, where the packed product re-packs most) of every block.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from hessaut import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import words  # noqa: E402  (perfbench/words.py)

EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())["word_sha256_16"]
POOL = words.pool()


@pytest.mark.parametrize("block", [0, 1])
def test_reduce_outputs_match_recorded_hashes(block, capsys):
    got = []
    for word in POOL[block]:
        assert cli.main(["reduce", "--word", word, "--json"]) == 0
        got.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16])
    assert got == EXPECTED[block]


LONG = (words.BLOCK_SIZE - 2, words.BLOCK_SIZE - 1)  # each block ends with its long words


@pytest.mark.parametrize("first", range(0, words.POOL_BLOCKS, 10))
def test_long_word_outputs_match_recorded_hashes(first, capsys):
    got, want = [], []
    for block in range(first, first + 10):
        for position in LONG:
            assert cli.main(["reduce", "--word", POOL[block][position], "--json"]) == 0
            got.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16])
            want.append(EXPECTED[block][position])
    assert got == want
