"""The Steiner system S(5,8,24) on the projective line over F_23.

Points of Omega = P^1(F_23) are the integers 0..22 plus a point at
infinity, encoded as -1 so that sorted order puts it first. The octads
are generated as the orbit of one base octad under the fractional linear
maps t -> t+1 and t -> -1/t, which generate PSL(2,23); nothing is read
from a shipped table, so the construction itself stays under test.

The binary Golay code is recovered as the F_2-span of the octads and is
consumed by the Leech lattice membership test.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations
from math import comb
from typing import Iterable

from .checks import certify

INFINITY = -1
OMEGA: tuple[int, ...] = (INFINITY,) + tuple(range(23))

BASE_OCTAD = frozenset({INFINITY, 0, 1, 3, 12, 15, 21, 22})


def point_index(p: int) -> int:
    """Coordinate slot of a point: infinity first, then 0..22."""
    return p + 1


def _translation() -> dict[int, int]:
    g = {k: (k + 1) % 23 for k in range(23)}
    g[INFINITY] = INFINITY
    return g


def _negated_inverse() -> dict[int, int]:
    g = {0: INFINITY, INFINITY: 0}
    for k in range(1, 23):
        g[k] = (-pow(k, -1, 23)) % 23
    return g


class SteinerSystem:
    """All 759 octads, with membership and covering queries."""

    def __init__(self, octads: tuple[frozenset[int], ...]):
        self.octads = octads
        self._members = frozenset(octads)
        self.masks = tuple(set_mask(k) for k in octads)

    def __len__(self) -> int:
        return len(self.octads)

    def is_octad(self, s: Iterable[int]) -> bool:
        s = frozenset(s)
        return len(s) == 8 and s in self._members

    def covering_counts(self) -> Counter:
        """How often each 5-subset of Omega appears inside an octad, keyed
        by its 24-bit mask (`set_mask`): an octad's 56 five-subsets are its
        mask minus three of its bits. `five_subset_cover` counts instead."""
        counts: Counter = Counter()
        for m in self.masks:
            bits = [1 << i for i in range(24) if m >> i & 1]
            counts.update([m ^ a ^ b ^ c for a, b, c in combinations(bits, 3)])
        return counts

    def five_subset_cover(self, sizes: set[int]) -> tuple[int, set[int]] | None:
        """(how many 5-subsets of Omega lie in an octad, how many octads hold
        each), by counting: when the octads are distinct and any two meet
        in at most 4 points (sizes, from `pair_intersection_sizes`), no
        5-subset lies in two of them, so each octad adds its C(|octad|, 5)
        five-subsets, all new. None when that does not hold."""
        if len(set(self.masks)) < len(self.masks) or max(sizes, default=0) > 4:
            return None
        return sum(comb(m.bit_count(), 5) for m in self.masks), {1}

    def pair_intersection_sizes(self) -> set[int]:
        """The sizes |A & B| over all pairs of distinct octads, read off the
        base octad: the octads are its orbit under t -> t+1 and t -> -1/t
        (`steiner_system`), so once they are certified closed under both
        maps, every pair is the image of a pair (BASE_OCTAD, B)."""
        members = set(self.masks)
        base = set_mask(BASE_OCTAD)
        maps = [[1 << point_index(g[p]) for p in OMEGA]
                for g in (_translation(), _negated_inverse())]
        certify(base in members and all(
            sum([image[i] for i in range(24) if m >> i & 1]) in members
            for image in maps for m in members
        ), "the octads must contain the base octad and be closed under t -> t+1 and t -> -1/t")
        return {(base & m).bit_count() for m in members if m != base}


@cache
def steiner_system() -> SteinerSystem:
    """Orbit closure of the base octad under the two generating maps."""
    gens = (_translation(), _negated_inverse())
    seen = {BASE_OCTAD}
    frontier = [BASE_OCTAD]
    while frontier:
        nxt = []
        for octad in frontier:
            for g in gens:
                image = frozenset(g[p] for p in octad)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    octads = tuple(sorted(seen, key=lambda k: tuple(sorted(k))))
    return SteinerSystem(octads)


def is_octad(s: Iterable[int]) -> bool:
    return steiner_system().is_octad(s)


def set_mask(s: Iterable[int]) -> int:
    mask = 0
    for p in s:
        mask |= 1 << point_index(p)
    return mask


@cache
def golay_code() -> frozenset[int]:
    """The 4096 codewords (as 24-bit masks): the F_2-span of the octads."""
    basis: dict[int, int] = {}  # leading bit -> reduced word
    for w in steiner_system().masks:
        while w:
            lead = w.bit_length() - 1
            if lead in basis:
                w ^= basis[lead]
            else:
                basis[lead] = w
                break
    span = {0}
    for b in basis.values():
        span |= {w ^ b for w in span}
    return frozenset(span)
