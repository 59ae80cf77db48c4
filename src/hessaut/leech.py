"""The Leech lattice as integer 24-tuples indexed by P^1(F_23).

At this scaling the minimal vectors have euclidean dot product 32, and the
lattice inner product is <x,y> = -(x.y)/8, making the lattice negative
definite. Membership uses the classical congruence characterization over
the binary Golay code rather than a generator span, so that the stated
generators themselves can be checked against it.
"""

from __future__ import annotations

from collections import Counter
from operator import mul
from typing import Iterable, Sequence

from .golay import INFINITY, OMEGA, is_codeword, point_index

LeechVector = tuple[int, ...]

ZERO: LeechVector = (0,) * 24


def nu(points: Iterable[int]) -> LeechVector:
    """Sum of standard basis vectors over the given points."""
    v = [0] * 24
    for p in points:
        v[point_index(p)] += 1
    return tuple(v)


NU_OMEGA: LeechVector = nu(OMEGA)


def two_nu(points: Iterable[int]) -> LeechVector:
    return tuple(2 * x for x in nu(points))


def vadd(u: Sequence[int], v: Sequence[int]) -> LeechVector:
    return tuple(x + y for x, y in zip(u, v))


def vsub(u: Sequence[int], v: Sequence[int]) -> LeechVector:
    return tuple(x - y for x, y in zip(u, v))


def vscale(c: int, v: Sequence[int]) -> LeechVector:
    return tuple(c * x for x in v)


def contains(v: Sequence[int]) -> bool:
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
    if not is_codeword(support):
        return False
    return sum(v) % 8 == 4 * m % 8


def raw_dot(v: Sequence[int], w: Sequence[int]) -> int:
    return sum(map(mul, v, w))


def inner(v: Sequence[int], w: Sequence[int]) -> int:
    """Lattice inner product -(v.w)/8; both arguments must be members."""
    if not (contains(v) and contains(w)):
        raise ValueError("inner product is only defined on lattice members")
    d = raw_dot(v, w)
    if d % 8:
        raise ValueError("members must pair integrally")
    return -d // 8


def norm(v: Sequence[int]) -> int:
    """Positive norm (v.v)/8 of a member; 4 on minimal vectors."""
    if not contains(v):
        raise ValueError("norm is only defined on lattice members")
    return raw_dot(v, v) // 8


# coordinate shapes (multisets of absolute values) of the two norm classes
_SHAPES_4 = (
    Counter({2: 8, 0: 16}),
    Counter({3: 1, 1: 23}),
    Counter({4: 2, 0: 22}),
)
_SHAPES_6 = (
    Counter({2: 12, 0: 12}),
    Counter({3: 3, 1: 21}),
    Counter({4: 1, 2: 8, 0: 15}),
    Counter({5: 1, 1: 23}),
)


def shape_class(v: Sequence[int]) -> str:
    """Classify a member as 'zero', 'norm4', 'norm6' or 'other'.

    Raises when a norm-4 or norm-6 member fails to match one of the known
    coordinate shapes, which would signal a membership bug.
    """
    n = norm(v)
    if n == 0:
        return "zero"
    profile = Counter(abs(x) for x in v)
    if n == 4:
        if profile not in _SHAPES_4:
            raise ValueError(f"norm-4 member with impossible shape {sorted(profile.items())}")
        return "norm4"
    if n == 6:
        if profile not in _SHAPES_6:
            raise ValueError(f"norm-6 member with impossible shape {sorted(profile.items())}")
        return "norm6"
    return "other"


def generator_minus_three() -> LeechVector:
    """The generator with a -4 dent at infinity: nu_Omega - 4 nu_oo."""
    return vsub(NU_OMEGA, vscale(4, nu([INFINITY])))
