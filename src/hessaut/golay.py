"""The Steiner system S(5,8,24) on the projective line over F_23.

Points of Omega = P^1(F_23) are the integers 0..22 plus a point at
infinity, encoded as -1 so that sorted order puts it first. The octads
are generated as the orbit of one base octad under the fractional linear
maps t -> t+1 and t -> -1/t, which generate PSL(2,23); nothing is read
from a shipped table, so the construction itself stays under test.

An octad is held as a 24-bit mask, bit `point_index(p)` for point p. The
binary Golay code is the F_2-span of the octads; a word is a member when it
reduces to 0 against an echelon basis, and no list of codewords is kept.
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


class SteinerSystem:
    """All 759 octads as masks, with membership and covering queries."""

    def __init__(self, masks: tuple[int, ...]):
        self.masks = masks
        self._members = frozenset(masks)

    @property
    def octads(self) -> tuple[frozenset[int], ...]:
        """The octads as point sets, in mask order, rebuilt on each read."""
        return tuple(frozenset(mask_points(m)) for m in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    def is_octad(self, s: Iterable[int]) -> bool:
        s = frozenset(s)
        return len(s) == 8 and s.issubset(OMEGA) and set_mask(s) in self._members

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
        if len(self._members) < len(self.masks) or max(sizes, default=0) > 4:
            return None
        return sum(comb(m.bit_count(), 5) for m in self.masks), {1}

    def pair_intersection_sizes(self) -> set[int]:
        """The sizes |A & B| over all pairs of distinct octads, read off the
        base octad: the octads are its orbit under t -> t+1 and t -> -1/t
        (`steiner_system`), so once they are certified closed under both
        maps, every pair is the image of a pair (BASE_OCTAD, B)."""
        members = self._members
        base = set_mask(BASE_OCTAD)
        certify(base in members and all(
            sum([image[i] for i in range(24) if m >> i & 1]) in members
            for image in _image_tables() for m in members
        ), "the octads must contain the base octad and be closed under t -> t+1 and t -> -1/t")
        return {(base & m).bit_count() for m in members if m != base}


def _image_tables() -> tuple[list[int], list[int]]:
    """t -> t+1 and t -> -1/t as the mask of each point's image, by bit."""
    inverse = {0: INFINITY, INFINITY: 0, **{k: -pow(k, -1, 23) % 23 for k in range(1, 23)}}
    return ([1 << point_index(p if p == INFINITY else (p + 1) % 23) for p in OMEGA],
            [1 << point_index(inverse[p]) for p in OMEGA])


@cache
def steiner_system() -> SteinerSystem:
    """Orbit closure of the base octad under the two generating maps, in
    sorted-point order (ascending set bits)."""
    tables = _image_tables()
    seen = {set_mask(BASE_OCTAD)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for octad in frontier:
            for table in tables:
                image = sum([table[i] for i in range(24) if octad >> i & 1])
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return SteinerSystem(tuple(sorted(seen, key=mask_points)))


def is_octad(s: Iterable[int]) -> bool:
    return steiner_system().is_octad(s)


def set_mask(s: Iterable[int]) -> int:
    mask = 0
    for p in s:
        mask |= 1 << point_index(p)
    return mask


def mask_points(mask: int) -> tuple[int, ...]:
    """The points of a 24-bit mask, sorted (infinity, -1, first)."""
    return tuple(i - 1 for i in range(24) if mask >> i & 1)


@cache
def golay_basis() -> tuple[int, ...]:
    """The octads in echelon form: 12 codewords, leading bits descending."""
    basis: dict[int, int] = {}  # leading bit -> reduced word
    for w in steiner_system().masks:
        while w:
            lead = w.bit_length() - 1
            if lead in basis:
                w ^= basis[lead]
            else:
                basis[lead] = w
                break
    return tuple(basis[lead] for lead in sorted(basis, reverse=True))


def is_codeword(w: int) -> bool:
    """Whether a 24-bit word reduces to 0 against the basis: min(w, w ^ b)
    clears b's leading bit, and sets none that an earlier b cleared."""
    for b in golay_basis():
        w = min(w, w ^ b)
    return w == 0


def golay_code() -> frozenset[int]:
    """The 4096 codewords (as 24-bit masks): the F_2-span of the octads."""
    span = {0}
    for b in golay_basis():
        span |= {w ^ b for w in span}
    return frozenset(span)
