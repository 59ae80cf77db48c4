"""The dense column product that `autgroup.PackedProduct` replaced, and
conjugation through `Isometry.inverse`.

Column j of A*B is the sum, over the terms (i, c) of column j of B, of c
times column i of A, one entry at a time. It is the reference the packed
kernel is tested against, and is itself tested against `exact.mat_mul`.
`conjugate` is the reference for `AutContext.s5_conjugate`, which reads
s^-1 off the S5 element of the inverse permutation instead. `inversion_f`
builds the pencil inversions f_i that tests use as isometries outside the
registry.
"""

from itertools import repeat
from operator import add, mul, neg

from hessaut.autgroup import WALL_3A_EXAMPLE_K, Isometry, autctx, compose


def column_product(cols, sparse) -> tuple[tuple[int, ...], ...]:
    """Columns of A*B, from the columns of A and the sparse columns of B.

    Column j of A*B sums c times column i of A over the terms (i, c) of
    column j of B, as one lazy chain of `map`s evaluated by `tuple`. A
    column that is a single column of A is reused, not copied; an empty
    one gives a zero column.
    """
    zero = (0,) * len(cols[0]) if cols else ()
    out = []
    for terms in sparse:
        if not terms:
            out.append(zero)
            continue
        acc = None
        for i, c in terms:
            col = cols[i]
            if c == -1:
                col = map(neg, col)
            elif c != 1:
                col = map(mul, col, repeat(c))
            acc = col if acc is None else map(add, acc, col)
        out.append(tuple(acc))  # a lone column of A comes back as itself
    return tuple(out)


def conjugate(g: Isometry, s: Isometry, name: str = "") -> Isometry:
    """s o g o s^-1 (apply s^-1, then g, then s)."""
    out = compose(s.inverse(), g, s)
    return Isometry(out.matrix, name or f"{s.name}.{g.name}.{s.name}^-1")


def inversion_f(index: int) -> Isometry:
    """f_i, the pencil inversion of the i-th case 3a wall in key order
    (1-based): f conjugated by the first S5 element, in sorted order, that
    carries the worked wall to it, as that wall's generator conjugates g."""
    a = autctx()
    worked = next(w for w in a.walls["3a"] if w.key[1:] == (1, WALL_3A_EXAMPLE_K))
    wall = sorted(a.walls["3a"], key=lambda w: w.key)[index - 1]
    perm = next(p for p in sorted(a.s5) if a.s5[p].apply(worked.vec) == wall.vec)
    return a.s5_conjugate(a.f, perm, name=f"f{index}")
