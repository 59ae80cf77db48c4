"""The value classes compare and hash by their fields.

Code and tests key dicts and sets on these classes and compare them, so
each has field-wise equality, a hash that agrees with it, and no equality
with any other type.
"""

from fractions import Fraction

import pytest

from hessaut import leech
from hessaut.autgroup import Isometry, WallRoot, autctx
from hessaut.lattices import EmbeddedLattice, FiniteQuadraticForm, discriminant_form
from hessaut.hessian import picard
from hessaut.lorentz import LorentzVector


def _pair_and_variants():
    """For each class: a factory of fresh equal instances, and the
    instances that differ from them in exactly one field."""
    lam = leech.two_nu(frozenset({-1, 0, 1, 3, 12, 15, 21, 22}))
    rows, gram = ((1, 0), (0, 1)), ((-2, 1), (1, -2))
    # q = 1/2, 2/3 and pairings 1/2, 1/3 over den 6
    orders, den, qvals, pairings = (2, 3), 6, (3, 4), ((3, 0), (0, 2))
    matrix = tuple(tuple(int(i == j) for j in range(16)) for i in range(16))
    root = LorentzVector(lam, 1, 3)
    vec = tuple(range(16))
    return {
        "LorentzVector": (
            lambda: LorentzVector(tuple(lam), 1, 3),
            [LorentzVector(leech.ZERO, 1, 3), LorentzVector(lam, 0, 3), LorentzVector(lam, 1, 4)],
        ),
        "EmbeddedLattice": (
            lambda: EmbeddedLattice(tuple(rows), tuple(gram)),
            [EmbeddedLattice(((2, 0), (0, 1)), gram), EmbeddedLattice(rows, ((-2, 0), (0, -2)))],
        ),
        "FiniteQuadraticForm": (
            lambda: FiniteQuadraticForm(tuple(orders), den, tuple(qvals), tuple(pairings)),
            [FiniteQuadraticForm((2, 2), den, qvals, pairings),
             FiniteQuadraticForm(orders, 12, qvals, pairings),
             FiniteQuadraticForm(orders, den, (3, 8), pairings),
             FiniteQuadraticForm(orders, den, qvals, ((0, 0), (0, 2)))],
        ),
        "WallRoot": (
            lambda: WallRoot("1a", LorentzVector(lam, 1, 3), tuple(vec), 3, ("1a", 1)),
            [WallRoot("2", root, vec, 3, ("1a", 1)), WallRoot("1a", None, vec, 3, ("1a", 1)),
             WallRoot("1a", root, vec[::-1], 3, ("1a", 1)), WallRoot("1a", root, vec, 2, ("1a", 1)),
             WallRoot("1a", root, vec, 3, ("1a", 2))],
        ),
        "Isometry": (
            lambda: Isometry(tuple(matrix), "id"),
            [Isometry(matrix[::-1], "id"), Isometry(matrix, "other"), Isometry(matrix)],
        ),
    }


@pytest.mark.parametrize("name", list(_pair_and_variants()))
def test_equality_and_hashing_are_field_wise(name):
    make, variants = _pair_and_variants()[name]
    a, b = make(), make()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert len({a, b}) == 1 and {a: 1}[b] == 1
    for v in variants:
        assert a != v and v != a
    assert len({a, *variants}) == 1 + len(variants)
    assert a != object() and a.__eq__(object()) is NotImplemented


def test_a_lorentz_vector_is_not_its_triple():
    v = LorentzVector(leech.ZERO, 1, -1)
    assert v != (leech.ZERO, 1, -1) and v == LorentzVector(leech.ZERO, 1, -1)


def test_isometry_default_name_and_cached_curve_action():
    a = autctx()
    iso = Isometry(a.tau.matrix)
    assert iso.name == "" and iso == Isometry(a.tau.matrix, "")
    # the certified action is built on first use and kept on the instance
    assert iso.curve_action is iso.curve_action
    assert iso.inverse().matrix == a.tau.matrix


def test_built_values_compare_by_value():
    ctx = picard()
    assert discriminant_form(ctx.lattice_SH) == discriminant_form(ctx.lattice_SH)
    walls = autctx().walls
    assert len({w for ws in walls.values() for w in ws}) == 52
    assert walls["3a"][0].r1 == tuple(Fraction(x, 6) for x in walls["3a"][0].vec)
