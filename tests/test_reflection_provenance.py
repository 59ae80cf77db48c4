"""Which wall generators are reflections, read off their wall vector alone.

For a wall vector v (`WallRoot.vec`), rho_v(x) = x - 2<x, v>/<v, v> v is
the reflection in v. It is built here by plain int loops on `picard().gram`
and `w.vec`, and shares nothing with the image tables, with
`CurveAction.conjugate` or with `CurveAction.inverse_rows`:
- each case 1a and 1b generator (v^2 = -6) is rho_v;
- each case 2 generator p_n (v^2 = -4) is sigma_n rho_v = rho_v sigma_n,
  for sigma_n the chamber symmetry that swaps the two pentahedral faces
  missing the node N_n;
- for a case 3a or 3b wall (v^2 = -24), rho_v is not integral, so no case 3
  generator is the reflection in its wall.
Matrices act on row vectors: row i is the image of basis curve i.
"""

from fractions import Fraction

from hessaut.autgroup import autctx
from hessaut.hessian import picard


def _reflection(v):
    """(rows of rho_v over the curve basis as Fractions, v^2): row i is
    e_i - 2 (G v)_i / v^2 v."""
    gv = [sum(g * x for g, x in zip(row, v)) for row in picard().gram]
    square = sum(a * x for a, x in zip(gv, v))
    rows = []
    for i in range(16):
        row = [Fraction(-2 * gv[i] * x, square) for x in v]
        row[i] += 1
        rows.append(tuple(row))
    return tuple(rows), square


def _integral(rows) -> bool:
    return all(x.denominator == 1 for row in rows for x in row)


def _product(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(16)) for j in range(16)) for i in range(16)
    )


def test_every_case_1_generator_is_the_reflection_in_its_wall():
    gens = autctx().wall_generators
    for case in ("1a", "1b"):
        assert len(gens[case]) == 12
        for w, iso in gens[case]:
            rho, square = _reflection(w.vec)
            assert square == -6 and _integral(rho), iso.name
            assert iso.matrix == rho, iso.name


def _face_swap(node):
    """The chamber symmetry that swaps the two faces missing the node."""
    a = autctx()
    f, g = sorted(set(range(1, 6)) - picard().node_faces[node])
    return a.s5[tuple(g if k == f else f if k == g else k for k in range(1, 6))]


def test_every_case_2_generator_is_a_face_swap_times_the_reflection_in_its_wall():
    gens = autctx().wall_generators["2"]
    assert len(gens) == 10
    for w, iso in gens:
        rho, square = _reflection(w.vec)
        assert square == -4 and _integral(rho), iso.name
        sigma = _face_swap("N" + iso.name[1:]).matrix
        assert iso.matrix == _product(sigma, rho) == _product(rho, sigma), iso.name
    assert _face_swap("N16").name == "s12435" and _face_swap("N45").name == "s15342"


def test_no_case_3_wall_has_an_integral_reflection():
    gens = autctx().wall_generators
    for case in ("3a", "3b"):
        assert len(gens[case]) == 15
        for w, iso in gens[case]:
            rho, square = _reflection(w.vec)
            assert square == -24 and not _integral(rho), iso.name
