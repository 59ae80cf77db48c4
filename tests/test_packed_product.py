"""The packed product kernel against the dense column product it replaced.

`PackedProduct` keeps each column of a running product as one int of
balanced w-bit slots. These tests pin its decoding at the edges of the
slot range, the re-pack rule (taken on the largest column L1 norm) and
long products across many re-packs, against `product_reference`.
"""

import random
from functools import reduce

from hypothesis import given, settings
from hypothesis import strategies as st

from hessaut.autgroup import autctx
from hessaut.products import PackedProduct, column_norm, sparse_columns
from product_reference import column_product

BIG = 2**400

entries = st.one_of(
    st.just(0),
    st.sampled_from((1, -1)),
    st.integers(-9, 9),
    st.integers(-BIG, BIG),
)


@st.composite
def matrix_chain(draw):
    """A first matrix and 1-8 square factors, some columns zeroed."""
    n = draw(st.integers(1, 6))
    mats = []
    for _ in range(draw(st.integers(2, 9))):
        m = [[draw(entries) for _ in range(n)] for _ in range(n)]
        for j in draw(st.sets(st.integers(0, n - 1))):
            for row in m:
                row[j] = 0
        mats.append(m)
    return mats


def _columns(rows):
    return tuple(zip(*rows))


def _times(product, rows):
    sparse = sparse_columns(rows)
    return product.times(sparse, column_norm(sparse))


@settings(max_examples=150, deadline=None)
@given(matrix_chain())
def test_packed_chain_matches_reference(mats):
    first, *factors = mats
    product = PackedProduct(_columns(first))
    want = _columns(first)
    for m in factors:
        want = column_product(want, sparse_columns(m))
        assert _times(product, m).columns() == want
        assert all(type(x) is int for col in want for x in col)


def test_slots_one_short_of_half_range_decode_in_place():
    cols = ((1, -1), (-1, 0))
    product = PackedProduct(cols)
    w = product.width
    c = (1 << (w - 1)) - 1  # every |entry| of the result is at most c: no re-pack
    rows = [[c, 0], [0, -c]]
    got = _times(product, rows).columns()
    assert product.width == w
    assert got == column_product(cols, sparse_columns(rows))
    assert {abs(x) for col in got for x in col} == {0, c}
    assert min(x for col in got for x in col) == -c


def test_bound_reaching_half_range_repacks_wider():
    cols = ((1, -1), (0, 1))
    product = PackedProduct(cols)
    w = product.width
    c = 1 << (w - 1)  # bound times norm is exactly 2^(w-1): one too many
    rows = [[c, 0], [0, 1]]
    assert _times(product, rows).columns() == column_product(cols, sparse_columns(rows))
    assert product.width > w


def test_norm_is_taken_over_columns():
    cols = ((1, 1), (1, 1))
    product = PackedProduct(cols)
    w = product.width
    c = 1 << (w - 2)  # each row sums to c, but column 0 sums to 2c = 2^(w-1)
    rows = [[c, 0], [c, 0]]
    assert column_norm(sparse_columns(rows)) == 2 * c
    assert _times(product, rows).columns() == ((2 * c, 2 * c), (0, 0))
    assert product.width > w


def test_zero_matrix_and_zero_columns():
    product = PackedProduct(((0, 0), (0, 0)))
    assert _times(product, [[5, 0], [-7, 0]]).columns() == ((0, 0), (0, 0))
    product = PackedProduct(((3, -4), (5, 6)))
    assert _times(product, [[0, 2], [0, -1]]).columns() == ((0, 0), (1, -14))
    assert column_norm(sparse_columns([[0, 0], [0, 0]])) == 0


def test_isometry_norm_is_the_largest_column_sum():
    for name, iso in autctx().registry.items():
        m = iso.matrix
        want = max(sum(abs(row[j]) for row in m) for j in range(16))
        assert column_norm(sparse_columns(m)) == want, name


def test_widths_grow_across_repacks_on_a_long_word():
    a = autctx()
    names = sorted(a.registry)
    rng = random.Random("packed-600")
    isos = [a.registry[rng.choice(names)] for _ in range(600)]
    product = PackedProduct(_columns(isos[0].matrix))
    widths = {product.width}
    sparse = [sparse_columns(iso.matrix) for iso in isos[1:]]
    for terms in sparse:
        widths.add(product.times(terms, column_norm(terms)).width)
    want = reduce(column_product, sparse, _columns(isos[0].matrix))
    assert product.columns() == want
    assert len(widths) > 10
    assert max(abs(x) for col in want for x in col).bit_length() > 200
