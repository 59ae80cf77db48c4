"""The two former root typings and the former root search, kept as
references.

`short_vectors` is the Fincke-Pohst search as it ran on `Fraction`s
before `lattices.short_vectors` moved to integers; the integer search
must return the same vectors in the same order. `root_components` is the
typing from before the basis-graph rule: the roots come from that search,
a union-find over every pair of roots with nonzero pairing groups them,
and the rank of each component is the Hermite rank of its roots.
`closure_components` is the basis-graph rule that followed: close a root
basis under its reflections (`reflection_closure`), count the roots on
each component of the basis pairing graph, and type it by rank and count.
`lattices.root_components` now reads the type off the Dynkin diagram and
counts no roots, so neither path shares its typing, counting or search.
`_negative_definite` is the Sylvester test that typing ran on each
component before it read the diagram.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations

from hessaut import exact
from hessaut.lattices import _simple_system_gram


def _type_by_rank_count(rank: int, count: int) -> str:
    """The ADE type with this rank and root count: A_n has n(n+1) roots,
    D_n (n >= 4) 2n(n-1), and E6, E7 and E8 have 72, 126 and 240."""
    if count == rank * (rank + 1):
        return f"A{rank}"
    if rank >= 4 and count == 2 * rank * (rank - 1):
        return f"D{rank}"
    if {6: 72, 7: 126, 8: 240}.get(rank) == count:
        return f"E{rank}"
    raise ValueError(f"unrecognized root component with rank/count {(rank, count)}")


def _fraction_sqrt_upper(f: Fraction) -> Fraction:
    if f < 0:
        raise ValueError("square root of a negative number")
    return Fraction(math.isqrt(f.numerator * f.denominator) + 1, f.denominator)


def short_vectors(gram, target: int) -> list[tuple[int, ...]]:
    """All integer vectors v with v*gram*v^T == target, by a rational
    Fincke-Pohst recursion; gram negative definite, target <= 0."""
    n = len(gram)
    if n == 0:
        return []
    q = [[Fraction(-x) for x in row] for row in gram]
    for i in range(n):
        if q[i][i] <= 0:
            raise ValueError("short_vectors expects a negative definite form")
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    tau = Fraction(-target)
    out: list[tuple[int, ...]] = []
    x = [0] * n

    def rec(i: int, rem: Fraction):
        if i < 0:
            if rem == 0:
                out.append(tuple(x))
            return
        u = sum((q[i][j] * x[j] for j in range(i + 1, n)), Fraction(0))
        s = _fraction_sqrt_upper(rem / q[i][i])
        for xi in range(math.ceil(-u - s), math.floor(-u + s) + 1):
            t = q[i][i] * (xi + u) ** 2
            if t <= rem:
                x[i] = xi
                rec(i - 1, rem - t)
        x[i] = 0

    rec(n - 1, tau)
    return out


def _negative_definite(gram) -> bool:
    """Sylvester's criterion: every leading minor of -gram is positive.

    `exact.eliminate` swaps rows or skips a column only when a leading
    minor vanishes; otherwise its minors are the leading minors.
    `lattices.root_components` ran this on each component before reading
    its diagram, which refuses every indefinite one already.
    """
    _, cols, minors, swaps = exact.eliminate([[-x for x in row] for row in gram])
    return not swaps and len(cols) == len(gram) and all(p > 0 for p in minors)


def reflection_closure(gram) -> list[tuple[int, ...]]:
    """All roots of a negative definite lattice whose basis vectors are roots.

    The roots are the orbit of the basis vectors under the reflections in
    them; see the `hessaut.lattices` docstring for why no root is missed.
    Reflecting in the i-th basis vector only changes the i-th coordinate.
    The order matches `short_vectors`.
    """
    n = len(gram)
    if any(gram[i][i] != -2 for i in range(n)):
        raise ValueError("reflection closure needs basis vectors of norm -2")
    if not _negative_definite(gram):
        raise ValueError("reflection closure expects a negative definite form")
    basis = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(basis)
    frontier = basis
    while frontier:
        nxt = []
        for v in frontier:
            for i, p in enumerate(exact.vec_mat(v, gram)):
                if p:
                    w = list(v)
                    w[i] += p
                    w = tuple(w)
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
        frontier = nxt
    return sorted(seen, key=lambda v: v[::-1])


def closure_components(gram) -> list[tuple[str, int, int]]:
    """The closure typing: components of the pairing graph of a simple
    system, each typed by its rank and its number of closure roots."""
    basis = _simple_system_gram(gram)
    comp = list(range(len(basis)))
    for i, j in combinations(range(len(basis)), 2):
        if basis[i][j] and comp[i] != comp[j]:
            old = comp[j]
            comp = [comp[i] if c == old else c for c in comp]
    # a reflection moves only the coordinate of a basis root that v meets,
    # so a closure root v lies on the component of its first nonzero entry
    first = (next(i for i, x in enumerate(v) if x) for v in reflection_closure(basis))
    counts = Counter(comp[i] for i in first)
    comps = []
    for c, rank in Counter(comp).items():
        comps.append((_type_by_rank_count(rank, counts[c]), rank, counts[c]))
    return comps


def root_components(gram) -> list[tuple[str, int, int]]:
    roots = short_vectors(gram, -2)
    if not roots:
        return []
    glist = [list(r) for r in gram]
    parent = list(range(len(roots)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    pair_rows = [exact.vec_mat(list(r), glist) for r in roots]
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if exact.dot(pair_rows[i], list(roots[j])):
                pi, pj = find(i), find(j)
                if pi != pj:
                    parent[pi] = pj
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for i, r in enumerate(roots):
        buckets.setdefault(find(i), []).append(r)
    comps = []
    for vs in buckets.values():
        rank = len(exact.hnf_rows([list(v) for v in vs]))
        comps.append((_type_by_rank_count(rank, len(vs)), rank, len(vs)))
    return comps


def root_type(gram) -> str:
    comps = Counter(label for label, _, _ in root_components(gram))
    parts = []
    for label in sorted(comps, key=lambda s: (-int(s[1:]), s[0])):
        k = comps[label]
        parts.append(label if k == 1 else f"{k}{label}")
    return "+".join(parts) if parts else "0"
