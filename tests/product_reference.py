"""Reference paths that the certified curve action replaced in `hessaut`.

`column_product` is the dense column product that `PackedProduct`
replaced. Column j of A*B is the sum, over the terms (i, c) of column j
of B (`sparse_columns`), of c times column i of A, one entry at a time.
It is the reference the packed kernel is tested against, and is itself
tested against `exact.mat_mul`. `column_compose` is the product of
isometry matrices on those columns, so the cross-check of
`autgroup.compose` shares no code with `exact.mat_mul`. `preserves_form`
is the dense M G M^T = G test that `CurveAction.of` replaced.
`conjugate` conjugates through `Isometry.inverse`, and `s5_conjugate`
through the S5 element of the inverse permutation; `autgroup.relabel`
renames curves instead.
`inversion_f` builds the pencil inversions f_i that tests use as
isometries outside the registry.
`matrix_from_pairings` recovers any matrix from its packed curve
pairings, as the descent's residual did before a non-symmetry was
replayed through `compose`. `read_off_action` is `CurveAction.of` as it
was before one curve-table check replaced its row pairings: it checks
M G q_d = G q_c for each curve c read off as the preimage of d.
`involution_by_rows` is the involution test of the generators suite
before `CurveAction.is_involution` read it off the action: the action
applied twice to each of the identity's 16 basis-curve pairing rows.
`HeightScan` is the packed first-hit scan as it ran before the descent
scanned walls: on the descent vectors y_k = b_k^-1(omega) against the
height h, with `descent_vectors` giving y_k = omega + push_k r_k.
"""

from itertools import repeat
from operator import add, mul, neg

from hessaut import exact
from hessaut.autgroup import WALL_3A_EXAMPLE_K, Isometry, autctx, compose
from hessaut.hessian import picard
from hessaut.products import CurveAction, _support, curve_frame, exact_quotient, preimage


def sparse_columns(rows) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each column j of a matrix, the pairs (i, c) with rows[i][j] == c != 0."""
    return tuple(tuple((i, c) for i, c in enumerate(col) if c) for col in zip(*rows))


def column_product(cols, sparse) -> tuple[tuple[int, ...], ...]:
    """Columns of A*B, from the columns of A and the sparse columns of B.

    Column j of A*B sums c times column i of A over the terms (i, c) of
    column j of B, as one lazy chain of `map`s evaluated by `tuple`. A
    column that is a single column of A is reused, not copied; an empty
    one gives a zero column.
    """
    zero = (0,) * len(cols[0]) if cols else ()
    out = []
    for terms in sparse:
        if not terms:
            out.append(zero)
            continue
        acc = None
        for i, c in terms:
            col = cols[i]
            if c == -1:
                col = map(neg, col)
            elif c != 1:
                col = map(mul, col, repeat(c))
            acc = col if acc is None else map(add, acc, col)
        out.append(tuple(acc))  # a lone column of A comes back as itself
    return tuple(out)


def column_compose(*isos: Isometry) -> Isometry:
    """Apply left to right, as `compose`, by `column_product`."""
    cols = tuple(zip(*isos[0].matrix))
    for iso in isos[1:]:
        cols = column_product(cols, sparse_columns(iso.matrix))
    return Isometry(tuple(zip(*cols)), "*".join(i.name for i in isos))


def preserves_form(rows) -> bool:
    """M G M^T == G for the matrix M with these rows: M is an isometry."""
    g = picard()._gram_rows
    return exact.mat_mul(exact.mat_mul(rows, g), exact.transpose(rows)) == g


def conjugate(g: Isometry, s: Isometry, name: str = "") -> Isometry:
    """s o g o s^-1 (apply s^-1, then g, then s)."""
    out = compose(s.inverse(), g, s)
    return Isometry(out.matrix, name or f"{s.name}.{g.name}.{s.name}^-1")


def inversion_f(index: int) -> Isometry:
    """f_i, the pencil inversion of the i-th case 3a wall in key order
    (1-based): f conjugated by the first S5 element, in sorted order, that
    carries the worked wall to it, as that wall's generator conjugates g."""
    a = autctx()
    worked = next(w for w in a.walls["3a"] if w.key[1:] == (1, WALL_3A_EXAMPLE_K))
    wall = sorted(a.walls["3a"], key=lambda w: w.key)[index - 1]
    perm = next(p for p in sorted(a.s5) if a.s5[p].apply(worked.vec) == wall.vec)
    return s5_conjugate(a.f, perm, name=f"f{index}")


def s5_conjugate(g: Isometry, perm: tuple, name: str = "") -> Isometry:
    """s o g o s^-1 for s = s5[perm] and any isometry g, as a column
    product: s^-1 is the S5 element of the inverse permutation, as both
    agree on the spanning curves."""
    a = autctx()
    s, s_inv = a.s5[perm], a.s5[tuple(perm.index(i) + 1 for i in range(1, 6))]
    return Isometry(column_compose(s_inv, g, s).matrix, name or f"{s.name}.{g.name}.{s.name}^-1")


def matrix_from_pairings(product) -> tuple[tuple[int, ...], ...]:
    """Rows of the integer matrix M whose curve pairings K = M G Q^T are packed.

    The curves beyond the basis are integer combinations of the basis
    curves, so on every decoded row of K their pairings must be the same
    combinations of the basis pairings. The basis columns are M G, so M =
    K_basis adj / den, and every entry must divide. Raises ValueError
    unless both hold.
    """
    frame = curve_frame()
    rows = tuple(zip(*product.columns()))
    # each curve beyond the basis as (curve, basis curves, coefficients)
    relations = tuple((c, *_support(q)) for c, q in enumerate(frame.coords[16:], 16))
    for c, curves, coeffs in relations:
        if any([r[c] != sum([a * r[d] for d, a in zip(curves, coeffs)]) for r in rows]):
            raise ValueError(f"curve pairings break the relation of {frame.names[c]}")
    m = exact.mat_mul([r[:16] for r in rows], frame.adj)
    return exact_quotient(m, frame.den, "curve pairings of no integer matrix")


def read_off_action(matrix, name: str = "") -> CurveAction:
    """`CurveAction.of` with the read-off check on the pairings of the rows
    of M: a curve c read off as the preimage of d must have M G q_d = G q_c,
    row i of M pairing with d by the curve table when it is a curve, else
    by a dot product."""
    frame = curve_frame()
    cols = tuple(zip(*matrix))
    src = [None] * len(frame.coords)
    for c, q in enumerate(frame.coords):
        image = matrix[c] if c < 16 else tuple([sum(map(mul, q, col)) for col in cols])
        d = frame.index.get(image)
        if d is not None:
            src[d] = c
    combos = []
    for d, c in enumerate(src):
        if c is None:
            x = preimage(matrix, frame.pairings[d], name)
            if tuple([sum(map(mul, x, col)) for col in cols]) != frame.coords[d]:
                raise ValueError(f"{name}: not an isometry of the Picard lattice")
            combos.append((d, *_support(x)))
    rows = {i: frame.curve_gram[a] for a, i in enumerate(src) if i is not None and i < 16}
    if any(tuple([rows[i][d] if i in rows else sum(map(mul, r, frame.pairings[d]))
                  for i, r in enumerate(matrix)]) != frame.pairings[c]
           for d, c in enumerate(src) if c is not None):
        raise ValueError(f"{name}: not an isometry of the Picard lattice")
    return CurveAction(src, combos)


def involution_by_rows(action: CurveAction) -> bool:
    """b o b = id: b applied twice gives back each basis curve's row of
    the curve table, the identity's curve pairings."""
    return all(action(action(r)) == list(r) for r in curve_frame().curve_gram[:16])


def descent_vectors(a) -> list[tuple[int, ...]]:
    """y_k = b_k^-1(omega) = omega + push_k r_k for each descent letter, r_k
    its wall vector, in descent order."""
    return [tuple(o + push * x for o, x in zip(a.omega, r))
            for (_, _, push), r in zip(a.descent, a.scan.rs)]


class HeightScan:
    """The first letter that lowers the height, from packed sign bits.

    `first_hit(u, h)` is the first (k, d_k) with d_k = u . y_k < h, or
    None. For a slot width w, sum_i u_i P_i + SIGN - h ONES holds
    d_k - h + 2^(w-1) in slot k, P_i packing the i-th entries of the y_k of
    a group of 16, ONES a 1 at the bottom of every slot and SIGN = 2^(w-1)
    ONES; w is chosen with |d_k - h| < 2^(w-1), so nothing carries and bit
    w-1 of slot k is clear exactly when d_k < h.
    """

    def __init__(self, ys):
        self.ys = tuple(tuple(y) for y in ys)
        self.dim = len(self.ys[0])
        self.norm = max(sum(map(abs, y)) for y in self.ys)

    def first_hit(self, u, h: int) -> tuple[int, int] | None:
        u = u[:self.dim]
        reach = max(map(abs, u)) * self.norm + abs(h)
        w = (reach.bit_length() + 32) // 32 * 32
        for base in range(0, len(self.ys), 16):
            block = self.ys[base:base + 16]
            shifts = range(0, w * len(block), w)
            packed = [sum([y[i] << s for y, s in zip(block, shifts)]) for i in range(self.dim)]
            ones = sum([1 << s for s in shifts])
            sign = ones << (w - 1)
            x = sum(map(mul, u, packed)) + sign - h * ones
            hits = sign & ~x
            if hits:
                k = ((hits & -hits).bit_length() - 1) // w
                return base + k, ((x >> (k * w)) & ((1 << w) - 1)) - (1 << (w - 1)) + h
        return None
