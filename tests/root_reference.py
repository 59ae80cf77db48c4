"""The two former root typings, kept as references.

`root_components` is the typing from before the basis-graph rule: the
roots come from the Fincke-Pohst search `short_vectors`, a union-find
over every pair of roots with nonzero pairing groups them, and the rank
of each component is the Hermite rank of its roots. `closure_components`
is the basis-graph rule that followed: close a root basis under its
reflections (`reflection_closure`), count the roots on each component of
the basis pairing graph, and look the type up by rank and count.
`lattices.root_components` now reads the type off the Dynkin diagram and
counts no roots, so neither path shares its typing or counting.
`_negative_definite` is the Sylvester test that typing ran on each
component before it read the diagram.
"""

from collections import Counter
from itertools import combinations

from hessaut import exact
from hessaut.lattices import _simple_system_gram, short_vectors

_TYPE_BY_RANK_COUNT = {
    (1, 2): "A1", (2, 6): "A2", (3, 12): "A3", (4, 20): "A4", (5, 30): "A5",
    (6, 42): "A6", (7, 56): "A7", (8, 72): "A8",
    (4, 24): "D4", (5, 40): "D5", (6, 60): "D6", (7, 84): "D7", (8, 112): "D8",
    (6, 72): "E6", (7, 126): "E7", (8, 240): "E8",
}


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
        key = (rank, counts[c])
        label = _TYPE_BY_RANK_COUNT.get(key)
        if label is None:
            raise ValueError(f"unrecognized root component with rank/count {key}")
        comps.append((label, rank, counts[c]))
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
        key = (rank, len(vs))
        label = _TYPE_BY_RANK_COUNT.get(key)
        if label is None:
            raise ValueError(f"unrecognized root component with rank/count {key}")
        comps.append((label, rank, len(vs)))
    return comps


def root_type(gram) -> str:
    comps = Counter(label for label, _, _ in root_components(gram))
    parts = []
    for label in sorted(comps, key=lambda s: (-int(s[1:]), s[0])):
        k = comps[label]
        parts.append(label if k == 1 else f"{k}{label}")
    return "+".join(parts) if parts else "0"
