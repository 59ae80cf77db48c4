"""Root typing from the Dynkin diagram against the two former typings.

`root_components` reads each component's type and root count off the
Dynkin diagram of a simple system. The slower paths stay as independent
references (`root_reference`): the former `Fraction` search with a
union-find over every pair of roots and a Hermite-form rank, and the
reflection closure of the simple system, counted on each component of
its pairing graph. On every root Gram matrix the construction uses, on
the standard ADE types, on shuffled bases and on random re-bases of block
sums, all three must give the same components, and the closure the same
roots as `short_vectors`, vector for vector. The integer `short_vectors`
must return the `Fraction` search's vectors in its order, on the wall
lattices, on scaled standard types and on random re-bases.
"""

from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import root_reference as ref
from root_reference import reflection_closure
from hessaut import cli, lattices
from hessaut.autgroup import (
    CASE_ROOT_TYPES,
    classify_wall_root,
    enumerate_wall_roots,
    wall_root_gram,
)
from hessaut.hessian import BASE_ROOT_ORDER, expected_base_gram, picard
from hessaut.lattices import (
    root_components,
    root_type,
    short_vectors,
    standard_gram,
)

from test_hessian import _lattice_r0


def _negated(gram):
    return [[-x for x in row] for row in gram]


def _submatrix(gram, keep):
    return [[gram[i][j] for j in keep] for i in keep]


def _block_sum(*grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    k = 0
    for g in grams:
        for i, row in enumerate(g):
            out[k + i][k:k + len(row)] = row
        k += len(g)
    return out


def _graph_gram(edges):
    n = 1 + max(j for e in edges for j in e)
    gram = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = 1
    return gram


_TRIANGLE = _graph_gram([(0, 1), (1, 2), (0, 2)])  # the affine diagram of A2
# E10: a branch node with arms (1, 2, 6)
_E10 = _graph_gram([(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)])


def _standard_root_grams():
    grams = {}
    for n in range(1, 11):
        grams[f"A{n}"] = _negated(standard_gram(f"A{n}"))
    for n in range(4, 11):
        grams[f"D{n}"] = _negated(standard_gram(f"D{n}"))
    e8 = _negated(standard_gram("E8"))
    # E8 branches at node 2 with arms (1, 0), (3, 4, 5, 6) and (7,)
    grams["E7"] = _submatrix(e8, [0, 1, 2, 3, 4, 5, 7])
    grams["E6"] = _submatrix(e8, [0, 1, 2, 3, 4, 7])
    grams["E8"] = e8
    return grams


def _base_root_grams():
    base = expected_base_gram()
    without_r0 = [i for i, k in enumerate(BASE_ROOT_ORDER) if k != "r0"]
    return {"R": base, "R0": _submatrix(base, without_r0)}


def _same_components(gram):
    want = Counter(root_components(gram))
    return want == Counter(ref.root_components(gram)) == Counter(ref.closure_components(gram))


@pytest.mark.parametrize("name,gram", sorted(_standard_root_grams().items()))
def test_closure_matches_fincke_pohst_on_standard_types(name, gram):
    roots = reflection_closure(gram)
    assert roots == short_vectors(gram, -2)
    assert root_type(gram) == name
    assert ref.root_type(gram) == name
    assert _same_components(gram)


def test_closure_matches_fincke_pohst_on_base_roots():
    labels = {}
    for name, gram in _base_root_grams().items():
        assert reflection_closure(gram) == short_vectors(gram, -2)
        labels[name] = root_type(gram)
        assert ref.root_type(gram) == labels[name]
        assert _same_components(gram)
    assert labels == {"R": "A5+5A1", "R0": "A3+6A1"}


def test_hnf_grams_of_R_and_R0_match_their_root_bases():
    ctx = picard()
    base = _base_root_grams()
    for name, lattice in (("R", ctx.lattice_R), ("R0", _lattice_r0())):
        hnf = [list(row) for row in lattice.gram]
        assert any(hnf[i][i] != -2 for i in range(len(hnf)))  # the simple-system path
        assert len(short_vectors(hnf, -2)) == len(reflection_closure(base[name]))
        assert Counter(root_components(hnf)) == Counter(root_components(base[name]))
        assert _same_components(hnf)


def test_closure_matches_fincke_pohst_on_all_wall_lattices():
    walls = enumerate_wall_roots()
    assert sum(len(ws) for ws in walls.values()) == 52
    counts = {}
    for case, ws in walls.items():
        for w in ws:
            gram = wall_root_gram(w.root)
            roots = reflection_closure(gram)
            assert roots == short_vectors(gram, -2) == ref.short_vectors(gram, -2), w.key
            assert root_type(gram) == CASE_ROOT_TYPES[case], w.key
            assert ref.root_type(gram) == CASE_ROOT_TYPES[case], w.key
            assert _same_components(gram), w.key
            counts.setdefault(case, set()).add(len(roots))
    assert counts == {"1a": {70}, "2": {48}, "3a": {64}, "3b": {64}}


def test_root_bases_are_typed_without_fincke_pohst(monkeypatch):
    walls = [w for ws in enumerate_wall_roots().values() for w in ws]

    def refuse(gram, target):
        raise AssertionError("a root basis needs no Fincke-Pohst search")

    monkeypatch.setattr(lattices, "short_vectors", refuse)
    assert all(classify_wall_root(w.root).case == w.case for w in walls)
    checks = {c["id"]: c["status"] for c in cli.embedding_suite(0)}
    assert checks["embedding.R-type"] == checks["embedding.R0-type"] == "pass"


_BLOCKS = ("A1(-1)", "A2(-1)", "A3(-1)", "A4(-1)", "D4(-1)", "A1(-2)", "A2(-2)", "A1(-3)")


@st.composite
def _rebased_block_sums(draw):
    """A block sum of ADE and scaled blocks, and U G U^T for a unimodular U."""
    names = draw(st.lists(st.sampled_from(_BLOCKS), min_size=1, max_size=3))
    gram = _block_sum(*(standard_gram(name) for name in names))
    n = len(gram)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        if i != j:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    if draw(st.booleans()):
        u[0] = [-a for a in u[0]]
    ug = [[sum(a * b for a, b in zip(row, col)) for col in zip(*gram)] for row in u]
    rebased = [[sum(a * b for a, b in zip(row, other)) for other in u] for row in ug]
    return gram, rebased


@pytest.mark.parametrize("name", ["A1", "A6", "D4", "D7", "E8"])
@pytest.mark.parametrize("scale", [-1, -2, -3])
def test_integer_search_matches_the_fraction_search_on_scaled_types(name, scale):
    gram = standard_gram(f"{name}({scale})")
    for target in (-2, -4, -6):
        assert short_vectors(gram, target) == ref.short_vectors(gram, target), target


@pytest.mark.parametrize("n", [2, 5, 8])
def test_integer_search_matches_the_fraction_search_on_odd_unimodular_forms(n):
    """-I_n: every leading minor is 1, so each level's bound on x_i is the
    isqrt itself, and a bound one too wide leaves a negative remainder."""
    gram = [[-int(i == j) for j in range(n)] for i in range(n)]
    for target in (-1, -2, -3, -4):
        assert short_vectors(gram, target) == ref.short_vectors(gram, target), target


# target -6 on a rank-12 re-base costs the Fraction search up to 3 s; the
# scaled types above cover it
@settings(max_examples=40, deadline=None)
@given(_rebased_block_sums(), st.sampled_from((-2, -4)))
def test_integer_search_matches_the_fraction_search_on_rebased_forms(grams, target):
    _, rebased = grams
    assert short_vectors(rebased, target) == ref.short_vectors(rebased, target)


@cache
def _named_grams():
    grams = {**_standard_root_grams(), **_base_root_grams()}
    for ws in enumerate_wall_roots().values():
        for w in ws:
            grams[str(w.key)] = wall_root_gram(w.root)
    return sorted(grams.items())


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_typing_ignores_the_order_of_the_basis(data):
    """Every named basis, shuffled: the same components from the diagram;
    one of them, drawn, also against both references."""
    rng = data.draw(st.randoms(use_true_random=False), label="rng")
    shuffled = {}
    for name, gram in _named_grams():
        order = list(range(len(gram)))
        rng.shuffle(order)
        shuffled[name] = [[gram[i][j] for j in order] for i in order]
        assert Counter(root_components(shuffled[name])) == Counter(root_components(gram)), name
    name = data.draw(st.sampled_from(sorted(shuffled)), label="checked")
    assert _same_components(shuffled[name]), name


@settings(max_examples=60, deadline=None)
@given(_rebased_block_sums())
def test_root_type_is_basis_independent(grams):
    gram, rebased = grams
    assert root_type(rebased) == root_type(gram)
    assert Counter(root_components(rebased)) == Counter(root_components(gram))
    assert _same_components(rebased)


def test_no_roots_types_as_zero():
    for gram in ([], standard_gram("A2(-2)"), standard_gram("A1(-4)")):
        assert root_components(gram) == []
        assert root_type(gram) == "0"
        assert ref.root_type(gram) == "0"


def test_roots_spanning_a_proper_sublattice():
    gram = _block_sum(standard_gram("A1(-1)"), standard_gram("A2(-2)"))
    assert root_components(gram) == [("A1", 1, 2)]
    assert root_type(gram) == "A1"
    assert ref.root_type(gram) == "A1"


@pytest.mark.parametrize(
    "gram",
    [
        [[-2, 3], [3, -2]],  # roots spanning a hyperbolic plane: the basis path
        [[-2, 2], [2, -2]],  # semidefinite and singular
        standard_gram("U"),  # no -2 diagonal: the simple-system path
        [[-2, 1], [1, 4]],
        [[-4, 4], [4, -4]],
        _TRIANGLE,  # 0/1 pairings, semidefinite
        _E10,  # 0/1 pairings, indefinite
    ],
)
def test_indefinite_forms_are_rejected_on_both_paths(gram):
    with pytest.raises(ValueError):
        root_type(gram)
    with pytest.raises(ValueError):
        ref.root_type(gram)
    with pytest.raises(ValueError):
        ref.closure_components(gram)


@pytest.mark.parametrize(
    "gram",
    [
        _TRIANGLE,
        _E10,
        _graph_gram([(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)]),  # affine E6
        _graph_gram([(0, 2), (1, 2), (2, 3), (3, 4), (4, 5)]),  # D6, a Dynkin diagram
        _graph_gram([(0, 1), (1, 2), (1, 3), (1, 4)]),  # affine D4: four arms
        _graph_gram([(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6)]),  # affine D6: two branches
    ],
)
def test_the_diagram_alone_refuses_non_dynkin_graphs(gram):
    """The diagram reader, with no definiteness test ahead of it, accepts
    exactly the Dynkin diagrams."""
    dynkin = Counter(ref.closure_components(gram)) if ref._negative_definite(gram) else None
    if dynkin is not None:
        assert Counter(root_components(gram)) == dynkin
    else:
        with pytest.raises(ValueError):
            root_components(gram)


@st.composite
def zero_one_grams(draw):
    """-2 on the diagonal and 0 or 1 off it, on at most nine nodes: a random
    forest (each node joined to at most one earlier node), so Dynkin
    diagrams and disconnected graphs are common, plus up to two more edges,
    which close cycles."""
    n = draw(st.integers(1, 9))
    edges = {(parent, i) for i in range(1, n)
             if (parent := draw(st.integers(-1, i - 1))) >= 0}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges.update(draw(st.lists(st.sampled_from(pairs), max_size=2)))
    gram = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        gram[i][j] = gram[j][i] = 1
    return gram


@settings(max_examples=300, deadline=None)
@given(zero_one_grams())
def test_root_type_accepts_exactly_the_definite_zero_one_grams(gram):
    """A connected simply-laced graph is negative definite exactly when it is
    a Dynkin diagram, so the diagram alone decides what the Sylvester test
    of `root_reference` decides; on a form it accepts, the diagram's
    components are those of the reflection closure."""
    try:
        comps = root_components(gram)
    except ValueError:
        comps = None
    assert (comps is not None) is ref._negative_definite(gram)
    if comps is not None:
        assert Counter(comps) == Counter(ref.closure_components(gram))


@pytest.mark.parametrize("name", ["A2", "A5", "D4", "D6", "E6", "E8"])
def test_negative_pairings_fall_back_to_fincke_pohst(monkeypatch, name):
    """A -2 basis with a -1 pairing is not a simple system: the simple
    system of the Fincke-Pohst roots gives the same type."""
    gram = _standard_root_grams()[name]
    flipped = [[-x if (i == 0) != (j == 0) else x for j, x in enumerate(row)]
               for i, row in enumerate(gram)]
    assert -1 in flipped[0]
    searched = []

    def spy(g, target):
        searched.append(target)
        return short_vectors(g, target)

    monkeypatch.setattr(lattices, "short_vectors", spy)
    assert root_type(flipped) == name
    assert searched == [-2]
    assert _same_components(flipped)


def test_closure_rejects_indefinite_forms():
    # -2 on the diagonal, but the two roots span a hyperbolic plane: the
    # closure would never end, so it must be refused up front
    with pytest.raises(ValueError):
        reflection_closure([[-2, 3], [3, -2]])
    with pytest.raises(ValueError):
        root_type([[-2, 3], [3, -2]])
    with pytest.raises(ValueError):
        reflection_closure([[-2, 2], [2, -2]])  # semidefinite, singular


def test_closure_rejects_non_root_basis():
    with pytest.raises(ValueError):
        reflection_closure(standard_gram("A2(-2)"))
