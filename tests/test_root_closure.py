"""Reflection closure against the Fincke-Pohst search it replaced.

`root_components` finds the roots of a lattice whose basis vectors are
roots by closing them under their reflections. The slower `short_vectors`
search stays as the independent reference: on every root Gram matrix the
construction uses, and on the standard ADE types, both must give the same
roots, vector for vector, and the same root-type labels.
"""

import pytest

from hessaut import lattices
from hessaut.autgroup import CASE_ROOT_TYPES, enumerate_wall_roots, wall_root_gram
from hessaut.hessian import BASE_ROOT_ORDER, expected_base_gram
from hessaut.lattices import reflection_closure, root_type, short_vectors, standard_gram


def _negated(gram):
    return [[-x for x in row] for row in gram]


def _submatrix(gram, keep):
    return [[gram[i][j] for j in keep] for i in keep]


def _standard_root_grams():
    grams = {}
    for n in range(1, 9):
        grams[f"A{n}"] = _negated(standard_gram(f"A{n}"))
    for n in range(4, 9):
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


def _slow_root_type(monkeypatch, gram):
    with monkeypatch.context() as m:
        m.setattr(lattices, "root_vectors", lambda g: short_vectors(g, -2))
        return root_type(gram)


@pytest.mark.parametrize("name,gram", sorted(_standard_root_grams().items()))
def test_closure_matches_fincke_pohst_on_standard_types(monkeypatch, name, gram):
    roots = reflection_closure(gram)
    assert roots == short_vectors(gram, -2)
    assert root_type(gram) == name
    assert _slow_root_type(monkeypatch, gram) == name


def test_closure_matches_fincke_pohst_on_base_roots(monkeypatch):
    labels = {}
    for name, gram in _base_root_grams().items():
        assert reflection_closure(gram) == short_vectors(gram, -2)
        labels[name] = root_type(gram)
        assert _slow_root_type(monkeypatch, gram) == labels[name]
    assert labels == {"R": "A5+5A1", "R0": "A3+6A1"}


def test_closure_matches_fincke_pohst_on_all_wall_lattices(monkeypatch):
    walls = enumerate_wall_roots()
    assert sum(len(ws) for ws in walls.values()) == 52
    counts = {}
    for case, ws in walls.items():
        for w in ws:
            gram = wall_root_gram(w.root)
            roots = reflection_closure(gram)
            assert roots == short_vectors(gram, -2), w.key
            assert root_type(gram) == CASE_ROOT_TYPES[case], w.key
            assert _slow_root_type(monkeypatch, gram) == CASE_ROOT_TYPES[case], w.key
            counts.setdefault(case, set()).add(len(roots))
    assert counts == {"1a": {70}, "2": {48}, "3a": {64}, "3b": {64}}


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
