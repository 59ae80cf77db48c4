"""Root typing as it was before the basis-graph rule, kept as the reference.

The roots come from the Fincke-Pohst search `short_vectors`, and the body
of `root_components` below is the former `hessaut.lattices` version
verbatim: a union-find over every pair of roots with nonzero pairing, and
the rank of each component from the Hermite form of its roots.
`lattices.root_components` now reads its components off the pairing graph
of a root basis instead, so this path shares none of its grouping, rank
or counting.
"""

from collections import Counter

from hessaut import exact
from hessaut.lattices import _TYPE_BY_RANK_COUNT, short_vectors


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
