"""The fraction-free kernel `exact.eliminate` against the `Fraction`
Gauss-Jordan routines it replaced (`fraction_reference`).

Inputs are integer matrices of every shape, drawn as products U*V so that
singular and rank-deficient ones are common; right-hand sides are either
random (mostly inconsistent when the rank is low) or images a*x.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
import picard_reference
from hessaut import exact
from root_reference import _negative_definite

small = st.integers(-6, 6)


@st.composite
def matrices(draw, nr=None, nc=None):
    """An integer nr x nc matrix of rank at most a drawn bound."""
    nr = draw(st.integers(1, 6)) if nr is None else nr
    nc = draw(st.integers(1, 6)) if nc is None else nc
    rank = draw(st.integers(0, min(nr, nc)))
    u = [[draw(small) for _ in range(rank)] for _ in range(nr)]
    v = [[draw(small) for _ in range(nc)] for _ in range(rank)]
    if not rank:
        return [[0] * nc for _ in range(nr)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*v)] for row in u]


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        return [[draw(small) for _ in range(n)] for _ in range(n)]
    return draw(matrices(n, n))


rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))


@st.composite
def systems(draw):
    a = draw(matrices())
    nc = len(a[0])
    if draw(st.booleans()):
        b = [draw(st.one_of(small, rationals)) for _ in a]
    else:
        x = [draw(st.one_of(small, rationals)) for _ in range(nc)]
        b = [sum(p * q for p, q in zip(row, x)) for row in a]
    return a, b


def _rank(m):
    return len(exact.hnf_rows([list(r) for r in m]))


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_eliminate_gives_integer_reduced_echelon_form(m):
    rows, cols, minors, swaps = exact.eliminate(m)
    assert len(cols) == len(minors) - 1 == _rank(m)
    assert cols == sorted(cols) and swaps >= 0 and minors[0] == 1
    assert all(type(x) is int for row in rows for x in row)
    d = minors[-1]
    for i, c in enumerate(cols):
        assert [row[c] for row in rows] == [d * (k == i) for k in range(len(rows))]
    assert not any(any(row) for row in rows[len(cols):])
    # row operations only: the rows span the same rational row space
    assert _rank(m + rows) == len(cols)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_det_matches_fraction_reference(m):
    got = exact.det(m)
    assert got == ref.det(m) and type(got) is int


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_inverse_matches_fraction_reference(m):
    try:
        want = ref.invert(m)
    except ValueError:
        with pytest.raises(ValueError):
            exact.invert_integer(m)
        with pytest.raises(ValueError):
            exact.invert_rational(m)
        return
    n, d = exact.invert_integer(m)
    assert all(type(x) is int for row in n for x in row)
    assert [[Fraction(x, d) for x in row] for row in n] == want
    assert d == math.lcm(*(x.denominator for row in want for x in row))
    got = exact.invert_rational(m)
    assert got == want and all(type(x) is Fraction for row in got for x in row)


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_inverse_and_det_match_fraction_reference(m):
    """`Picard` reads its inverse Gram matrix and determinant off this one
    elimination."""
    want = ref.det(m)
    if not want:
        with pytest.raises(ValueError):
            exact.inverse_and_det(m)
        return
    n, d, det = exact.inverse_and_det(m)
    assert type(det) is int and det == want
    assert (n, d) == tuple(exact.invert_integer(m))
    assert [[Fraction(x, d) for x in row] for row in n] == ref.invert(m)


@settings(max_examples=400, deadline=None)
@given(systems())
def test_solve_matches_fraction_reference(system):
    a, b = system
    got = exact.solve_rational(a, b)
    want = ref.solve(a, b)
    assert got == want
    if got is None:
        return
    assert all(type(x) is Fraction for x in got)
    assert [sum(p * q for p, q in zip(row, got)) for row in a] == b


@st.composite
def full_rank_systems(draw):
    """A matrix of full column rank and a few integer right-hand sides:
    images a*x of rational x cleared of denominators, whose solutions may be
    fractions, and random vectors (mostly inconsistent)."""
    nc = draw(st.integers(1, 5))
    nr = draw(st.integers(nc, 7))
    a = [[draw(small) for _ in range(nc)] for _ in range(nr)]
    assume(_rank(a) == nc)
    bs = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            x = [draw(st.one_of(small, rationals)) for _ in range(nc)]
            b = [sum((p * q for p, q in zip(row, x)), Fraction(0)) for row in a]
            bs.append(exact.clear_denominators(b)[0])
        else:
            bs.append([draw(small) for _ in a])
    return a, bs


@settings(max_examples=300, deadline=None)
@given(full_rank_systems())
def test_solve_integer_matches_one_solve_per_vector(system):
    a, bs = system
    got = picard_reference.solve_integer(a, bs)
    assert len(got) == len(bs)
    for b, x in zip(bs, got):
        want = exact.solve_rational(a, b)
        if want is None or any(y.denominator != 1 for y in want):
            assert x is None
        else:
            assert x == want and all(type(y) is int for y in x)


def test_solve_integer_needs_full_column_rank():
    with pytest.raises(ValueError, match="full column rank"):
        picard_reference.solve_integer([[1, 2], [2, 4]], [[1, 2]])
    assert picard_reference.solve_integer([[2], [4]], [[2, 4], [1, 2], [2, 5]]) == [[1], None, None]


@settings(max_examples=100, deadline=None)
@given(systems())
def test_solve_accepts_rational_coefficients(system):
    a, b = system
    scaled = [[Fraction(x, 2 + i) for x in row] for i, row in enumerate(a)]
    b = [Fraction(y, 2 + i) for i, y in enumerate(b)]
    assert exact.solve_rational(scaled, b) == ref.solve(scaled, b)


@st.composite
def symmetric_grams(draw):
    """Negative definite, semidefinite and indefinite integer Gram matrices."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("gram", "symmetric")))
    if kind == "gram":
        # -B B^T: definite when B has rank n, singular semidefinite otherwise
        b = draw(matrices(n, draw(st.integers(1, 7))))
        return [[-sum(x * y for x, y in zip(r, s)) for s in b] for r in b]
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(small)
    return g


@settings(max_examples=400, deadline=None)
@given(symmetric_grams())
def test_negative_definite_matches_leading_minors(gram):
    assert _negative_definite(gram) == ref.negative_definite(gram)


@pytest.mark.parametrize("gram, definite", [
    ([[-2, 1], [1, -2]], True),
    ([[-2, 2], [2, -2]], False),  # semidefinite
    ([[0, -1], [-1, 0]], False),  # one row swap, minors positive
    # two row swaps: the swap sign is +1 and every minor is positive
    ([[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]], False),
    ([[2]], False),
    ([], True),
])
def test_negative_definite_examples(gram, definite):
    assert _negative_definite(gram) is definite
    assert ref.negative_definite(gram) is definite


def test_solve_edge_cases():
    assert exact.solve_rational([[0]], [1]) is None
    assert exact.solve_rational([[1], [1]], [1, 2]) is None
    assert exact.solve_rational([[2, 4]], [Fraction(1, 3)]) == [Fraction(1, 6), 0]
    assert exact.solve_rational([], []) == []
