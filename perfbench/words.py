"""Seeded words over the generator names documented in README.md.

Names are spelled out here from the documentation, not read from the
program, so the program under test only ever sees the generated words.

A stream is made of blocks of 20 words: 12 short words (lengths 1..12,
each once), 6 medium words (40..80 letters, one per sixth of the range)
and 2 long words (200..399 and 400..600 letters). Every block therefore
holds the 60/30/10 length mix exactly, which keeps the median inside the
short class and the 95th percentile at the boundary of the two long
strata, so these percentiles do not jump with the seed.

The blocks come from a fixed pool whose reduce outputs were recorded
(`expected.json`); a seed picks and orders pool blocks. When a run needs
more blocks than the pool holds, the pool is reshuffled and reused.
"""

from __future__ import annotations

import random
from itertools import permutations

POOL_SEED = "hessaut-word-pool-v1"
POOL_BLOCKS = 100
BLOCK_SIZE = 20

# the ten nodes N_ij of the Sylvester pentahedron give the projections p_ij
_NODE_PAIRS = ("16", "26", "36", "46", "56", "12", "13", "24", "35", "45")

NAMES = tuple(
    ["tau"]
    + [f"p{ij}" for ij in _NODE_PAIRS]
    + [f"phi{i}" for i in range(1, 13)]
    + [f"phib{i}" for i in range(1, 13)]
    + [f"g{i}" for i in range(1, 16)]
    + [f"gb{i}" for i in range(1, 16)]
    + ["s" + "".join(map(str, p)) for p in permutations(range(1, 6))]
)


def _lengths(rng: random.Random) -> list[int]:
    short = list(range(1, 13))
    medium = [rng.randint(40 + k * 41 // 6, 40 + (k + 1) * 41 // 6 - 1) for k in range(6)]
    long = [rng.randint(200, 399), rng.randint(400, 600)]
    return short + medium + long


def make_block(rng: random.Random) -> list[str]:
    """Twenty comma-separated words with the fixed length mix."""
    return [",".join(rng.choice(NAMES) for _ in range(n)) for n in _lengths(rng)]


def pool() -> list[list[str]]:
    rng = random.Random(POOL_SEED)
    return [make_block(rng) for _ in range(POOL_BLOCKS)]


def blocks(seed: str):
    """Endless stream of blocks chosen and ordered by `seed`.

    Yields (block, [(position, word), ...]) with the words of each block
    shuffled, except that the stream opens with the block's one-letter word
    so that a first call timed as set-up does the same work on every seed.
    """
    words = pool()
    rng = random.Random(seed)
    first = True
    while True:
        for b in rng.sample(range(POOL_BLOCKS), POOL_BLOCKS):
            positions = list(range(BLOCK_SIZE))
            rng.shuffle(positions)
            if first:
                positions.remove(0)
                positions.insert(0, 0)
                first = False
            yield b, [(i, words[b][i]) for i in positions]
