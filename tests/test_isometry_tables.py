"""`isometry_from_images` runs on integers; the former `Fraction` version is
kept here as the reference."""

from fractions import Fraction
from itertools import permutations

import pytest

from hessaut import exact
from hessaut.autgroup import (
    NODE_PROJECTION_TABLE,
    PENCIL_INVERSION_TABLE,
    SKEW_LINE_TABLE,
    SYMMETRIZED_INVERSION_TABLE,
    Isometry,
    autctx,
    isometry_from_images,
)
from hessaut.hessian import CURVE_NAMES, LINE_NAMES, NODE_NAMES, picard
from product_reference import preserves_form
from test_hessian import TAU_PAIRS


def _reference(images, name):
    ctx = picard()
    rows = []
    for b in ctx.basis_names:
        v = [Fraction(x) for x in images[b]]
        if any(x.denominator != 1 for x in v):
            raise ValueError(f"{name}: non-integral image of {b}")
        rows.append(tuple(int(x) for x in v))
    iso = Isometry(tuple(rows), name)
    for c, target in images.items():
        got = iso.apply(ctx.curve_coord[c])
        if tuple(Fraction(x) for x in got) != tuple(Fraction(x) for x in target):
            raise ValueError(f"{name}: images violate the curve relations at {c}")
    g = [list(r) for r in ctx.gram]
    m = [list(r) for r in iso.matrix]
    if exact.mat_mul(exact.mat_mul(m, g), exact.transpose(m)) != g:
        raise ValueError(f"{name}: table is not an isometry")
    return iso


def _s5_table(perm):
    ctx = picard()
    sigma = dict(zip(range(1, 6), perm))
    table = {}
    for names, faces in ((NODE_NAMES, ctx.node_faces), (LINE_NAMES, ctx.line_faces)):
        for c in names:
            image = frozenset(sigma[i] for i in faces[c])
            table[c] = {next(m for m in names if faces[m] == image): 1}
    return table


def _tables():
    tau = {a: {b: 1} for pair in TAU_PAIRS for a, b in (pair, pair[::-1])}
    named = {
        "tau": tau, "p16": NODE_PROJECTION_TABLE, "f": PENCIL_INVERSION_TABLE,
        "g": SYMMETRIZED_INVERSION_TABLE, "skew": SKEW_LINE_TABLE,
    }
    for perm in list(permutations(range(1, 6)))[::13]:
        named["s" + "".join(map(str, perm))] = _s5_table(perm)
    return named


def test_integer_tables_match_the_fraction_reference_and_the_registry():
    ctx = picard()
    registry = autctx().registry
    for name, table in _tables().items():
        images = {c: ctx.resolve(expr) for c, expr in table.items()}
        got = isometry_from_images(images, name)
        assert got.matrix == _reference(images, name).matrix, name
        if name in registry:
            assert got.matrix == registry[name].matrix, name
        assert all(type(x) is int for row in got.matrix for x in row)


def _identity_images():
    ctx = picard()
    return {c: ctx.curve(c) for c in CURVE_NAMES}


@pytest.mark.parametrize("in_basis", [True, False])
def test_non_integral_images_are_rejected(in_basis):
    ctx = picard()
    c = next(n for n in CURVE_NAMES if (n in ctx.basis_names) == in_basis)
    images = _identity_images()
    images[c] = tuple(Fraction(x, 2) for x in images[c])
    for build in (isometry_from_images, _reference):
        with pytest.raises(ValueError):
            build(images, "half")


def test_images_off_the_basis_must_follow_the_curve_relations():
    ctx = picard()
    c = next(n for n in CURVE_NAMES if n not in ctx.basis_names)
    images = _identity_images()
    images[c] = ctx.curve(next(n for n in CURVE_NAMES if n != c))
    with pytest.raises(ValueError, match="curve relations"):
        isometry_from_images(images, "relations")
    assert isometry_from_images(_identity_images(), "id").matrix == tuple(
        tuple(int(i == j) for j in range(16)) for i in range(16)
    )


def test_a_linear_table_that_breaks_the_form_is_rejected():
    """2 times every curve is integral and keeps the curve relations, so
    only the isometry certificate (`CurveAction.of`) can reject it."""
    images = {c: tuple(2 * x for x in v) for c, v in _identity_images().items()}
    for build in (isometry_from_images, _reference):
        with pytest.raises(ValueError, match="table is not an isometry"):
            build(images, "double")


def test_preserves_form_against_the_dense_product():
    ctx = picard()
    shear = [[int(i == j) + int((i, j) == (0, 1)) for j in range(16)] for i in range(16)]
    doubled = [[2 * int(i == j) for j in range(16)] for i in range(16)]
    for rows in [iso.matrix for iso in autctx().registry.values()] + [shear, doubled]:
        m = [list(r) for r in rows]
        want = exact.mat_mul(exact.mat_mul(m, ctx.gram), exact.transpose(m)) == ctx._gram_rows
        assert preserves_form(rows) is want
    assert not preserves_form(shear) and not preserves_form(doubled)
