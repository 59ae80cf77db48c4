"""The Picard lattice in the Leech frame, as `hessian.Picard` built it
before it computed in the lattice that the twenty curves span.

`solve_integer` solves a*x = b over the integers for several b in one
elimination (`exact.eliminate`). `frame_coords` solves for the twenty
curves over the rows of S_H = T^perp, takes as basis the first sixteen
curves that raise the rank of their span, checks it unimodular over S_H,
and expresses every curve over it. `frame_project` projects through
ambient coordinates: the pairings with the basis curves read off the
frame's Gram matrix, then the inverse of the basis Gram matrix, which is
itself read off the frame, not off the incidence rule. Tests compare
`Picard` with them.
"""

import math
from functools import cache

from hessaut import exact, lattices
from hessaut.hessian import CURVE_NAMES, picard


def solve_integer(a, bs) -> list[list[int] | None]:
    """For each vector b of bs, the x with a*x = b if it is integral, else
    None; a must have full column rank (ValueError otherwise).

    One elimination of a with every b appended serves them all. A b in the
    column space of a leaves every row past the first len(a[0]) zero, and
    its column of the reduced echelon form then holds x times the last
    minor.
    """
    nc = len(a[0])
    rows, cols, minors, _ = exact.eliminate(
        [list(row) + list(ys) for row, ys in zip(a, zip(*bs))]
    )
    if cols[:nc] != list(range(nc)):
        raise ValueError("matrix must have full column rank")
    d, out = minors[-1], []
    for j in range(nc, nc + len(bs)):
        col = [row[j] for row in rows]
        solved = not any(col[nc:]) and not any(x % d for x in col[:nc])
        out.append([x // d for x in col[:nc]] if solved else None)
    return out


def sh_coords() -> dict[str, list[int] | None]:
    """Each curve's coordinates over the rows of S_H, by `solve_integer`."""
    ctx = picard()
    amb = lattices.ambient()
    sh_cols = exact.transpose([list(r) for r in ctx.lattice_SH.rows])
    targets = [list(amb.coords(ctx.curve_roots[n])) for n in CURVE_NAMES]
    return dict(zip(CURVE_NAMES, solve_integer(sh_cols, targets)))


@cache
def frame_coords():
    """(basis names, the basis curves' ambient coordinates, each curve's
    coordinates over the basis), with the basis certified unimodular over
    the rows of S_H."""
    raw = sh_coords()
    basis, span = [], exact.RowSpan(16)
    for name in CURVE_NAMES:
        if span.add(raw[name]) and span.rank > len(basis):
            basis.append(name)
    inverse, den = exact.inverse_and_det([raw[n] for n in basis])[:2]
    if len(basis) != 16 or den != 1:
        raise ValueError("the first sixteen independent curves must form a unimodular basis")
    sh_rows = [list(r) for r in picard().lattice_SH.rows]
    basis_coords = [exact.vec_mat(raw[n], sh_rows) for n in basis]
    curve_coord = {n: tuple(exact.vec_mat(raw[n], inverse)) for n in CURVE_NAMES}
    return tuple(basis), basis_coords, curve_coord


@cache
def _frame_pairing():
    """The L pairings of the basis curves with the ambient basis, and the
    inverse of their Gram matrix as (adj, den), both read off the frame."""
    _, basis_coords, _ = frame_coords()
    pairing = exact.mat_mul(basis_coords, lattices.ambient().gram)
    gram = exact.mat_mul(pairing, exact.transpose(basis_coords))
    return pairing, exact.inverse_and_det(gram)[:2]


def frame_project(v) -> tuple[tuple[int, ...], int]:
    """`Picard.project` through ambient coordinates, as (nums, den)."""
    pairing, (adj, den) = _frame_pairing()
    nums = exact.mat_vec(adj, exact.mat_vec(pairing, lattices.ambient().coords(v)))
    g = math.gcd(den, *nums)
    return tuple(x // g for x in nums), den // g
