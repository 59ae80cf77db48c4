"""Integer fast paths against the Fraction formulas they replaced.

Each routine that now runs on integers over a common denominator is
compared, on generated input, with the plain rational computation it
replaced: same values, and Fractions wherever the old formula gave them.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from hessaut import exact, lattices
from hessaut.autgroup import Isometry, autctx
from hessaut.hessian import picard
from hessaut.lorentz import LorentzVector

DENOMINATORS = (1, 2, 3, 5, 6, 15)

rationals = st.builds(Fraction, st.integers(-40, 40), st.sampled_from(DENOMINATORS))
entries = st.one_of(st.integers(-9, 9), rationals)


def class_vectors(elements):
    return st.lists(elements, min_size=16, max_size=16).map(tuple)


ISOMETRY_NAMES = ("id", "tau", "p16", "p45", "f", "g1", "phi3", "phib7", "gb2", "s21345")


@cache
def _rational_inverse_of_frame():
    return ref.invert(lattices.ambient().rows)


# --- exact kernels -----------------------------------------------------------------


@st.composite
def matrix_pair(draw):
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    a = [[draw(entries) for _ in range(k)] for _ in range(n)]
    b = [[draw(entries) for _ in range(m)] for _ in range(k)]
    return a, b


def _triple_loop(a, b):
    return [
        [sum(a[i][l] * b[l][j] for l in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _types(rows):
    return [[type(x) for x in row] for row in rows]


@settings(max_examples=150, deadline=None)
@given(matrix_pair())
def test_kernels_match_triple_loop_on_mixed_input(pair):
    a, b = pair
    want = _triple_loop(a, b)
    got = exact.mat_mul(a, b)
    assert got == want and _types(got) == _types(want)
    row = exact.vec_mat(a[0], b)
    assert row == want[0] and _types([row]) == _types([want[0]])
    col = [r[0] for r in b]
    assert exact.mat_vec(a, col) == [r[0] for r in _triple_loop(a, [[x] for x in col])]
    d = exact.dot(a[0], col)
    assert d == want[0][0] and type(d) is type(want[0][0])


# --- lattices.Ambient ----------------------------------------------------------------


def _reference_coords(v):
    return exact.vec_mat(v.raw(), _rational_inverse_of_frame())


def _check_against_reference(v):
    amb = lattices.ambient()
    ref = _reference_coords(v)
    integral = all(x.denominator == 1 for x in ref)
    if integral:
        assert amb.coords(v) == tuple(int(x) for x in ref)
    else:
        with pytest.raises(ValueError):
            amb.coords(v)
    return integral


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=26, max_size=26))
def test_ambient_coords_on_lattice_vectors(coords):
    v = lattices.ambient().vector(coords)
    assert _check_against_reference(v)
    assert lattices.ambient().coords(v) == tuple(coords)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=26, max_size=26),
    st.integers(0, 25),
    st.integers(1, 7),
)
def test_ambient_coords_off_lattice_vectors(coords, slot, shift):
    raw = lattices.ambient().vector(coords).raw()
    raw[slot] += shift
    v = LorentzVector(tuple(raw[:24]), raw[24], raw[25])
    _check_against_reference(v)


# --- AutContext._apply_q and Picard.inner ----------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(ISOMETRY_NAMES), class_vectors(entries))
def test_apply_q_matches_fraction_formula(name, vec):
    a = autctx()
    iso = a.registry[name]
    want = tuple(
        sum(Fraction(vec[i]) * iso.matrix[i][j] for i in range(16)) for j in range(16)
    )
    got = a._apply_q(iso, vec)
    assert got == want
    assert all(type(x) is Fraction for x in got)


@settings(max_examples=100, deadline=None)
@given(
    class_vectors(st.one_of(entries, st.integers(-40, 40))),
    class_vectors(st.one_of(entries, st.integers(-40, 40))),
)
def test_picard_inner_matches_fraction_formula(u, v):
    ctx = picard()
    want = exact.dot(exact.vec_mat(list(u), [list(r) for r in ctx.gram]), list(v))
    got = ctx.inner(u, v)
    assert got == want and type(got) is type(want)


def test_picard_inner_keeps_integer_type_on_integer_input():
    ctx = picard()
    n = ctx.curve_coord["N16"]
    assert type(ctx.inner(n, n)) is int
    eta = tuple(map(Fraction, ctx.eta_h))  # integral values, Fraction-typed
    assert type(ctx.inner(eta, n)) is Fraction


# --- AutContext.discriminant_action -----------------------------------------------------


@cache
def _discriminant_generators():
    rows, den = lattices.discriminant_form_from_gram(picard().gram)[1]
    return [[Fraction(x, den) for x in row] for row in rows]


def _reference_action(iso):
    """The Fraction formula: map the rational generators, test integrality."""
    plus = minus = True
    for gvec in _discriminant_generators():
        image = tuple(
            sum(Fraction(gvec[i]) * iso.matrix[i][j] for i in range(16)) for j in range(16)
        )
        if any((x - y).denominator != 1 for x, y in zip(image, gvec)):
            plus = False
        if any((x + y).denominator != 1 for x, y in zip(image, gvec)):
            minus = False
    return "+1" if plus else "-1" if minus else "other"


def test_discriminant_action_matches_reference_on_named_isometries():
    a = autctx()
    odd = a.s5[(2, 1, 3, 4, 5)]
    named = {"id": a.registry["id"], "tau": a.tau, "g": a.g, "odd": odd}
    got = {k: a.discriminant_action(iso) for k, iso in named.items()}
    assert got == {k: _reference_action(iso) for k, iso in named.items()}
    assert got["odd"] == "other"


def test_discriminant_action_matches_reference_on_descent_generators():
    a = autctx()
    assert len(a.descent) == 64
    for name, iso, _ in a.descent:
        assert a.discriminant_action(iso) == _reference_action(iso), name


@settings(max_examples=40, deadline=None)
@given(st.integers(-20, 20))
def test_discriminant_action_of_scalar_maps(k):
    # the discriminant group has exponent 6, so k acts as +1 or -1 exactly
    # when k is 1 or -1 mod 6; k = 3 is -1 on the 2-part only
    iso = Isometry(tuple(tuple(k * (i == j) for j in range(16)) for i in range(16)))
    want = "+1" if k % 6 == 1 else "-1" if k % 6 == 5 else "other"
    assert autctx().discriminant_action(iso) == want == _reference_action(iso)
