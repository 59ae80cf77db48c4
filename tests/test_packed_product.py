"""The packed product kernel against the dense column product it replaced.

`PackedProduct` keeps each column of a running product as one int of
balanced w-bit slots, w being the bit length of its cap plus
`SLOT_MARGIN`. These tests pin its decoding at the edges of the slot
range, the re-pack when a cap reaches 2^(w-1), zero columns, and long
products across re-packs, against `product_reference`.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from hessaut.autgroup import autctx
from hessaut.products import SLOT_MARGIN, CurveAction, PackedProduct, curve_frame
from product_reference import column_compose, column_product, sparse_columns

BIG = 2**400

entries = st.one_of(
    st.just(0),
    st.sampled_from((1, -1)),
    st.integers(-9, 9),
    st.integers(-BIG, BIG),
)


@st.composite
def matrix_chain(draw):
    """A first matrix and 1-8 square factors, at least 2 x 2, some columns
    zeroed and some unit columns."""
    n = draw(st.integers(2, 6))
    mats = []
    for _ in range(draw(st.integers(2, 9))):
        m = [[draw(entries) for _ in range(n)] for _ in range(n)]
        for j in draw(st.sets(st.integers(0, n - 1))):
            for row in m:
                row[j] = 0
        for j, i in draw(st.dictionaries(st.integers(0, n - 1), st.integers(0, n - 1))).items():
            for k, row in enumerate(m):
                row[j] = int(k == i)
        mats.append(m)
    return mats


def _columns(rows):
    return tuple(zip(*rows))


def _action(rows):
    """The action of the square matrix B on columns: column c of the result
    is column d when column c of B is the unit vector e_d, and otherwise
    the combination of columns that column c of B holds."""
    src, combos = [], []
    for c, terms in enumerate(sparse_columns(rows)):
        if len(terms) == 1 and terms[0][1] == 1:
            src.append(terms[0][0])
        else:
            src.append(None)
            combos.append((c, tuple(i for i, _ in terms), tuple(k for _, k in terms)))
    return CurveAction(src, combos)


def _largest(cols):
    return max(abs(x) for col in cols for x in col)


@settings(max_examples=150, deadline=None)
@given(matrix_chain())
def test_packed_chain_matches_reference(mats):
    first, *factors = mats
    want = _columns(first)
    product = PackedProduct(want, _largest(want))
    for m in factors:
        want = column_product(want, sparse_columns(m))
        cap = _largest(want)
        w = product.width
        assert product.act(_action(m), cap).columns() == want
        assert all(type(x) is int for col in want for x in col)
        # re-packed at the cap's width exactly when the cap reaches 2^(w-1)
        assert product.width == (cap.bit_length() + SLOT_MARGIN if cap >= 1 << (w - 1) else w)


def test_slots_one_short_of_half_range_decode_in_place():
    cols = ((1, -1), (-1, 0))
    product = PackedProduct(cols, 1)
    w = product.width
    c = (1 << (w - 1)) - 1  # every |entry| of the result is at most c: no re-pack
    rows = [[c, 0], [0, -c]]
    got = product.act(_action(rows), c).columns()
    assert product.width == w
    assert got == column_product(cols, sparse_columns(rows))
    assert {abs(x) for col in got for x in col} == {0, c}
    assert min(x for col in got for x in col) == -c


def test_bound_reaching_half_range_repacks_wider():
    cols = ((1, -1), (0, 1))
    product = PackedProduct(cols, 1)
    w = product.width
    c = 1 << (w - 1)  # the cap is exactly 2^(w-1): one too many
    rows = [[c, 0], [0, 1]]
    assert product.act(_action(rows), c).columns() == column_product(cols, sparse_columns(rows))
    assert product.width == c.bit_length() + SLOT_MARGIN > w


def test_zero_matrix_and_zero_columns():
    product = PackedProduct(((0, 0), (0, 0)), 0)
    assert product.act(_action([[5, 0], [-7, 0]]), 0).columns() == ((0, 0), (0, 0))
    product = PackedProduct(((3, -4), (5, 6)), 6)
    assert product.act(_action([[0, 2], [0, -1]]), 14).columns() == ((0, 0), (1, -14))


def test_widths_grow_across_repacks_on_a_long_word():
    a, frame = autctx(), curve_frame()
    names = sorted(a.registry)
    rng = random.Random("packed-600")
    isos = [a.registry[rng.choice(names)] for _ in range(600)]
    product = frame.identity_pairings.copy()
    widths, v = [product.width], a.omega
    for iso in isos:
        v = iso.apply(v)
        cap = frame.entry_cap(a.height(v))
        if product.act(iso.curve_action, cap).width != widths[-1]:
            assert product.width == cap.bit_length() + SLOT_MARGIN
            widths.append(product.width)
    m = column_compose(*isos).matrix
    want = tuple(tuple(sum(x * y for x, y in zip(row, g)) for row in m) for g in frame.pairings)
    assert product.columns() == want
    assert len(widths) == 5  # the identity's width and four re-packs
    assert _largest(want).bit_length() > 200
