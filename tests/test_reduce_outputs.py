"""`hessaut reduce --json` output pinned byte for byte.

The benchmark in `perfbench/` records, for every word of its seeded pool,
the first 16 hex digits of the SHA-256 of the reduce output. The words of
the first two pool blocks (short, medium and long, up to 600 letters) are
checked here against those recorded hashes, and so are the two long words
(200-600 letters, where the packed product re-packs most) of every block.

The `verify reduce` suite reduces its seeded words as sequences of
letters; the product-then-reduce loop it replaced is kept here and must
agree with it word for word.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from hessaut import cli
from hessaut.autgroup import autctx, compose

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


@pytest.mark.parametrize("seed", range(10))
def test_suite_words_reduce_as_letters_as_their_products_do(seed):
    a = autctx()
    for word in cli.suite_words(seed):
        letters = [a.registry[n] for n in word]
        gamma = compose(*letters)
        applied, residual = a.reduce_height(gamma)
        floor = a.height(gamma.apply(a.omega)) == 20
        old = (applied, residual.matrix, floor, a.classify_symmetry(residual))
        applied, residual, heights = a.descend(letters)
        new = (applied, residual.matrix, heights[0] == 20, a.classify_symmetry(residual))
        assert new == old, word
        if floor:
            assert applied == [] and a.classify_symmetry(gamma) == new[3], word
