"""The relations of length 4 among the 64 descent generators, found by the
descent.

If the word b_i b_j descends by [x, y] with residual id, then
b_i b_j x y = 1. Over all 4,096 ordered pairs every residual is id, so no
product of two generators is a nontrivial chamber symmetry, and each word
is one of four kinds:

- b_i b_i applies nothing (b^2 = 1);
- 3,777 descend by [b_j, b_i], the plain undo;
- 15 descend by [b_i, b_j]: b_i and b_j commute. They are case 2
  projections p_n, p_m whose nodes miss disjoint pairs of faces, the edges
  of the Petersen graph that `curves.petersen` certifies;
- 240 give the 120 relations p b p = b', p a case 2 projection and b, b'
  in partner families (1a with 1b, 3a with 3b), twelve for each p.

Each relation is checked by a dense product of the matrices that does not
use `compose`.
"""

from collections import Counter
from itertools import combinations
from operator import mul

import pytest

from hessaut.autgroup import autctx
from hessaut.hessian import NODE_NAMES, picard

PARTNER_FAMILIES = {"1a": "1b", "1b": "1a", "3a": "3b", "3b": "3a"}


def _product(*matrices):
    """The dense matrix product, left to right, row by column."""
    out = matrices[0]
    for m in matrices[1:]:
        cols = list(zip(*m))
        out = tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in out)
    return out


@pytest.fixture(scope="module")
def words():
    """{(b_i, b_j): (the word b_i b_j descends by, its residual's label)}."""
    a = autctx()
    out = {}
    for ni, bi, _ in a.descent:
        for nj, bj, _ in a.descent:
            word, residual, _ = a.descend([bi, bj])
            out[ni, nj] = (word, a.classify_symmetry(residual))
    return out


def _kind(pair, word):
    ni, nj = pair
    if not word:
        return "nothing"
    if word == [nj, ni]:
        return "undo"
    if word == [ni, nj]:
        return "commuting"
    return "relation"


def test_every_pair_of_generators_descends_to_the_identity(words):
    assert len(words) == 64 * 64
    assert {label for _, label in words.values()} == {"id"}


def test_the_words_fall_into_four_kinds(words):
    kinds = Counter(_kind(pair, word) for pair, (word, _) in words.items())
    assert kinds == {"nothing": 64, "undo": 3777, "commuting": 15, "relation": 240}
    # the words that apply nothing are the squares
    assert {pair for pair, (word, _) in words.items() if not word} == {(n, n) for n, _ in words}


def test_the_commuting_pairs_are_the_petersen_graph_of_the_node_face_pairs(words):
    a, ctx = autctx(), picard()
    commuting = [pair for pair, (word, _) in words.items() if _kind(pair, word) == "commuting"]
    # each commuting pair in one of its two orders
    edges = {frozenset(pair) for pair in commuting}
    assert len(edges) == len(commuting) == 15
    missed = {f"p{n[1:]}": frozenset(range(1, 6)) - ctx.node_faces[n] for n in NODE_NAMES}
    petersen = {frozenset((p, q)) for p, q in combinations(missed, 2)
                if not missed[p] & missed[q]}
    assert edges == petersen
    assert Counter(p for edge in edges for p in edge) == dict.fromkeys(missed, 3)
    # densely, among the 45 pairs of projections, exactly these commute
    m = {p: a.registry[p].matrix for p in missed}
    assert {frozenset((p, q)) for p, q in combinations(missed, 2)
            if _product(m[p], m[q]) == _product(m[q], m[p])} == petersen


def test_the_other_words_give_120_relations_p_b_p(words):
    a = autctx()
    case_of = {iso.name: case for case, pairs in a.wall_generators.items() for _, iso in pairs}
    relations = set()
    for (ni, nj), (word, _) in words.items():
        if _kind((ni, nj), word) != "relation":
            continue
        x, y = word
        # b_i b_j x y = 1 with b_i = x or b_j = y, a projection p: p b p = b'
        p, b, b2 = (ni, nj, y) if ni == x else (nj, x, ni)
        assert (ni == x or nj == y) and case_of[p] == "2"
        relations.add((p, frozenset((b, b2))))
    assert len(relations) == 120
    assert Counter(p for p, _ in relations) == {iso.name: 12 for iso in a.projections.values()}
    matrix = {name: iso.matrix for name, iso, _ in a.descent}
    for p, pair in relations:
        b, b2 = sorted(pair)
        assert PARTNER_FAMILIES[case_of[b]] == case_of[b2]
        assert _product(matrix[p], matrix[b], matrix[p]) == matrix[b2], (p, b, b2)
