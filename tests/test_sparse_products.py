"""Word products and the height descent against the dense products.

`compose` multiplies dense matrices with `exact.mat_mul`, and
`AutContext.descend` runs in curve-pairing coordinates; the reference
column product (`column_compose`, which shares no code with
`exact.mat_mul`), the old dense descent loop and `column_product` stay
here, and must give the same matrices, words, residuals and heights.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from hessaut import exact
from hessaut.autgroup import (
    Isometry,
    autctx,
    compose,
    identity_isometry,
)
from product_reference import (
    column_compose,
    column_product,
    conjugate,
    inversion_f,
    sparse_columns,
)

BIG = 2**400

entries = st.one_of(
    st.just(0),
    st.sampled_from((1, -1)),
    st.integers(-9, 9),
    st.integers(-BIG, BIG),
)


@st.composite
def matrix_pair(draw):
    n, k, m = (draw(st.integers(1, 6)) for _ in range(3))
    a = [[draw(entries) for _ in range(k)] for _ in range(n)]
    b = [[draw(entries) for _ in range(m)] for _ in range(k)]
    for j in draw(st.sets(st.integers(0, m - 1))):
        for row in b:
            row[j] = 0
    return a, b


def _columns(rows):
    return tuple(zip(*rows))


@settings(max_examples=300, deadline=None)
@given(matrix_pair())
def test_column_product_matches_mat_mul(pair):
    a, b = pair
    got = column_product(_columns(a), sparse_columns(b))
    assert got == _columns(exact.mat_mul(a, b))
    assert all(type(x) is int for col in got for x in col)


@settings(max_examples=100, deadline=None)
@given(matrix_pair())
def test_sparse_columns_rebuild_the_matrix(pair):
    _, b = pair
    dense = [[0] * len(b[0]) for _ in b]
    for j, terms in enumerate(sparse_columns(b)):
        for i, c in terms:
            assert c != 0
            dense[i][j] = c
    assert dense == b


def test_zero_column_and_column_reuse():
    cols = ((1, 2), (3, 4), (5, 6))
    b = [[0, 0, 0], [0, 0, 1], [0, 1, 0]]  # column 0 empty, then two unit columns
    out = column_product(cols, sparse_columns(b))
    assert out == ((0, 0), (5, 6), (3, 4))
    assert out[1] is cols[2] and out[2] is cols[1]


# --- isometries ------------------------------------------------------------------


def test_compose_matches_the_column_product_on_registry_pairs():
    a = autctx()
    partners = [a.tau] + [a.registry[n] for n in ("p16", "g1", "phi2", "s21345")]
    for iso in a.registry.values():
        for other in partners:
            for pair in ((iso, other), (other, iso)):
                got, want = compose(*pair), column_compose(*pair)
                assert (got.matrix, got.name) == (want.matrix, want.name), want.name


@st.composite
def short_word(draw):
    return draw(st.lists(st.sampled_from(sorted(autctx().registry)), min_size=1, max_size=8))


@settings(max_examples=100, deadline=None)
@given(short_word())
def test_compose_matches_the_column_product_on_short_words(names):
    isos = [autctx().registry[n] for n in names]
    got, want = compose(*isos), column_compose(*isos)
    assert (got.matrix, got.name) == (want.matrix, want.name)
    assert all(type(x) is int for row in got.matrix for x in row)


def test_integer_inverse_matches_rational_inverse_on_the_registry():
    a = autctx()
    ident = identity_isometry()
    for name, iso in a.registry.items():
        inv = iso.inverse()
        want = ref.invert([list(r) for r in iso.matrix])
        assert inv.matrix == tuple(tuple(int(x) for x in row) for row in want), name
        assert all(type(x) is int for row in inv.matrix for x in row)
        assert compose(iso, inv).same_matrix(ident)
        assert inv.name == f"{name}^-1"


@pytest.mark.parametrize("rows", [
    [[2 * int(i == j) for j in range(16)] for i in range(16)],
    [[int(i == j) + int((i, j) == (0, 1)) for j in range(16)] for i in range(16)],
])
def test_inverse_rejects_non_isometries(rows):
    with pytest.raises(ValueError):
        Isometry(tuple(map(tuple, rows)), "bad").inverse()


def _dense_compose(isos):
    m = exact.identity_matrix(16)
    for iso in isos:
        m = exact.mat_mul(m, [list(r) for r in iso.matrix])
    return tuple(tuple(r) for r in m)


def _dense_reduce_height(a, gamma, cap=10000):
    """The descent loop as it ran on dense products."""
    v = gamma.apply(a.omega)
    gram_omega = exact.mat_vec(a.ctx.gram, a.omega)
    word = []
    matrices = [list(r) for r in gamma.matrix]
    while True:
        h = exact.dot(v, gram_omega)
        for name, iso, _ in a.descent:
            wvec = exact.mat_vec([list(r) for r in iso.matrix], gram_omega)
            if exact.dot(list(v), wvec) < h:
                v = iso.apply(v)
                word.append(name)
                matrices = exact.mat_mul(matrices, [list(r) for r in iso.matrix])
                break
        else:
            break
        if len(word) > cap:
            raise RuntimeError("height descent failed to terminate")
    return word, tuple(tuple(r) for r in matrices)


@pytest.mark.parametrize("length", [1, 2, 7, 12, 45, 80, 230, 600])
def test_sparse_words_and_descent_match_dense(length):
    a = autctx()
    names = sorted(a.registry)
    rng = random.Random(f"sparse-{length}")
    isos = [a.registry[rng.choice(names)] for _ in range(length)]
    gamma = compose(*isos)
    assert gamma.matrix == _dense_compose(isos)
    assert gamma.name == "*".join(i.name for i in isos)
    assert compose(isos[0], isos[-1]).matrix == _dense_compose([isos[0], isos[-1]])
    word, residual, heights = a.descend(gamma)
    assert (word, residual.matrix) == _dense_reduce_height(a, gamma)
    assert residual.name == "residual"
    assert a.classify_symmetry(residual) is not None
    v = gamma.apply(a.omega)
    replay = [a.height(v)]
    for n in word:
        v = a.registry[n].apply(v)
        replay.append(a.height(v))
    assert heights == replay
    assert a.reduce_height(gamma) == (word, residual)


def _replay_heights(a, gamma, word):
    v = gamma.apply(a.omega)
    heights = [a.height(v)]
    for n in word:
        v = a.registry[n].apply(v)
        heights.append(a.height(v))
    return heights


@st.composite
def registry_word(draw):
    n = draw(st.integers(1, 600))
    return draw(st.lists(st.sampled_from(sorted(autctx().registry)), min_size=n, max_size=n))


@settings(max_examples=15, deadline=None)
@given(registry_word())
def test_word_descent_in_curve_pairings_matches_dense(names):
    a = autctx()
    isos = [a.registry[n] for n in names]
    gamma = Isometry(_dense_compose(isos), "gamma")
    want = _dense_reduce_height(a, gamma)
    word, residual, heights = a.descend(isos)
    assert (word, residual.matrix) == want
    assert heights == _replay_heights(a, gamma, word)


@pytest.mark.parametrize("key", ["f2", "f9", "f15", "p12*s", "phi4^g", "gb3*f"])
def test_descent_from_non_registry_isometries_matches_dense(key):
    a = autctx()
    r = a.registry
    gamma = {
        "p12*s": lambda: compose(r["p12"], r["s34512"]),
        "phi4^g": lambda: conjugate(r["phi4"], a.g),
        "gb3*f": lambda: compose(r["gb3"], a.f),
    }.get(key, lambda: inversion_f(int(key[1:])))()
    assert gamma.matrix not in {iso.matrix for iso in a.registry.values()}
    word, residual, heights = a.descend(gamma)
    assert (word, residual.matrix) == _dense_reduce_height(a, gamma)
    assert heights == _replay_heights(a, gamma, word)
    assert a.classify_symmetry(residual) is not None
