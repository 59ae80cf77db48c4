"""Reference paths that the mask-based Golay layer replaced in `hessaut`.

`octads` is the orbit closure of the base octad on point sets: each image
is a frozenset, and the octads are sorted by their sorted points.
`steiner_system` now closes the orbit on 24-bit masks and sorts by
ascending set bits. `code` is the whole code stored as a set of 4096
masks, the F_2-span of the octads built by doubling a span over an
echelon basis; `golay.is_codeword` reduces a word against the basis
instead. `contains` is the Leech congruence test that looks the support
mask up in that stored set.
"""

from functools import cache

from hessaut.golay import BASE_OCTAD, INFINITY


def _translation():
    g = {k: (k + 1) % 23 for k in range(23)}
    g[INFINITY] = INFINITY
    return g


def _negated_inverse():
    g = {0: INFINITY, INFINITY: 0}
    for k in range(1, 23):
        g[k] = (-pow(k, -1, 23)) % 23
    return g


@cache
def octads() -> tuple[frozenset[int], ...]:
    """The 759 octads as point sets, in sorted-point order."""
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
    return tuple(sorted(seen, key=lambda k: tuple(sorted(k))))


def _mask(points) -> int:
    return sum(1 << (p + 1) for p in points)


@cache
def code() -> frozenset[int]:
    """The 4096 codewords as 24-bit masks: the F_2-span of the octads."""
    basis: dict[int, int] = {}  # leading bit -> reduced word
    for w in map(_mask, octads()):
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


def contains(v) -> bool:
    """Congruence test: common parity m, a Golay support set, sum = 4m (8)."""
    if len(v) != 24:
        return False
    m = v[0] & 1
    if any((x & 1) != m for x in v):
        return False
    support = 0
    for i, x in enumerate(v):
        if (x - m) % 4:
            support |= 1 << i
    if support not in code():
        return False
    return sum(v) % 8 == 4 * m % 8
