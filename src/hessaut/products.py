"""Products of lattice isometries: packed columns in curve-pairing coordinates.

A reduce word runs on one kernel. A running product, `PackedProduct`,
holds each column as one Python int of balanced w-bit slots (Kronecker
substitution). This is exact because packing is a ring map from integer
columns to integers, and reading the slots back is unique while every
|entry| < 2^(w-1). One rule sizes the slots: every entry is a curve
pairing of a certified isometry, at most the height cap below, so a
product is packed at the cap's bit length plus SLOT_MARGIN and re-packs
only when a cap reaches 2^(w-1).

The packed columns are curve pairings. Tau, the 120 pentahedral
permutations and the 240 chamber symmetries are dense in the curve
basis, but they permute the twenty node and line curves: each is built
from its curve map (`autgroup.curve_permutation`) and certified on the
table of curve intersection numbers, with no product
(`CurveAction.permutation`). Each wall generator sends 15-18 of the
curves to curves. So a product keeps K = M G Q^T, whose column c holds
the pairings of the images of the basis vectors with curve c (Q: the
curve coordinates), starting from the identity's
(`CurveFrame.identity_pairings`). Appending a letter b sends column c to
the old column of b^-1(c), a pure reindex when b^-1(c) is a curve and a
short combination otherwise (`CurveAction`). The basis curves come
first, so the first 16 columns are M G. At the end of a descent,
`AutContext.residual` looks a chamber symmetry up by its columns
(`CurveFrame.curve_keys`). A product of a few given isometries,
`autgroup.compose`, is a dense matrix product.

An isometry's `CurveAction` is its one certificate: `CurveAction.of`
certifies M G M^T = G from the curve table and exact preimages, and
`CurveAction.inverse_rows` reads the matrix of b^-1 off it, so an
inverse, an involution test or a conjugate (`CurveAction.conjugate`)
needs no product.

A descent step costs a few big-int operations more:

* The first-hit scan is packed too (`DescentScan`). Letter k lowers the
  height h = <v, omega> to h + push_k e_k, push_k > 0, when v lies on the
  wrong side of its wall, e_k = u . r_k < 0: u holds the 16 basis pairings
  of v and r_k is the wall vector (`AutContext.descend`). For 16 letters at
  a time and a slot width w with |e_k| < 2^(w-1), the int X = sum_i u_i P_i
  + SIGN, P_i packing the i-th entries of the 16 r_k and SIGN the top bit
  of every slot, holds e_k + 2^(w-1) in slot k. Nothing carries, and bit
  w-1 of slot k is clear exactly when e_k < 0: the lowest set bit of ~X &
  SIGN names the first letter that lowers the height, and its slot gives
  e_k. The scan order and the strict < are those of the dot scan.
* The entries of K are capped by the height (`CurveFrame.entry_cap`).
  With n = <omega, omega> > 0 and signature (1, 15), ||x||^2 =
  2 <x, omega>^2 / n - <x, x> is positive definite (the Euclidean
  majorant of omega), and |<a, b>| <= ||a|| ||b||. An isometry g with
  H = <g omega, omega> moves omega hyperbolic distance t, cosh t = |H| / n,
  and its operator norm for this majorant is e^t <= 2 cosh t = 2 |H| / n
  (Cartan decomposition: the stabilizer of omega is orthogonal for the
  majorant, and a boost by t stretches by at most e^t); this holds for
  isometries only, and every letter's `CurveAction` is certified one.
  Along a descent the heights fall, so the product never re-packs. Every
  entry K_ic = <g e_i, q_c> is at most (2 |H| / n) ||e_i|| ||q_c||, the
  e_i are the basis curves, and `CurveFrame` certifies ||q||^2 <= n / 2
  for every curve q, as 4 <q, omega>^2 - 2 n <q, q> <= n^2 (each curve
  has <q, omega> = 1 and <q, q> = -2, and n = 20: 2.1 <= 10). So every
  entry is at most |H|.
"""

from __future__ import annotations

from functools import cache
from itertools import chain
from operator import itemgetter, mul

from . import exact
from .checks import certify
from .hessian import CURVE_NAMES, picard


# spare bits per slot above the packing cap: how far caps may grow before a re-pack
SLOT_MARGIN = 64


class PackedProduct:
    """A running product on packed curve pairings, each column one Python int.

    Column j is packed as the sum of K[i][j] * 2^(w*i) over its n rows; a
    letter's `CurveAction` moves the columns by big-int multiply-adds, exact
    whatever the carries, as packing is a ring map. Reading the slots back
    (balanced, in [-2^(w-1), 2^(w-1))) is unique while every |entry| <
    2^(w-1). cap bounds every |entry|: `CurveFrame.entry_cap(H)` for an
    isometry of height H (see the module docstring). The product is packed
    at width cap.bit_length() + SLOT_MARGIN, and `act` re-packs at its cap's
    width only when that cap reaches 2^(w-1); along a descent caps fall.
    """

    __slots__ = ("cols", "rows", "width")

    def __init__(self, cols, cap: int):
        self.rows = len(cols[0]) if cols else 0
        self._pack(cols, cap)

    def _pack(self, cols, cap: int) -> None:
        self.width = w = cap.bit_length() + SLOT_MARGIN
        shifts = range(0, w * self.rows, w)
        self.cols = [sum([x << s for x, s in zip(col, shifts)]) for col in cols]

    def copy(self) -> "PackedProduct":
        """An independent product; the column list is shared, as no method
        changes it in place."""
        out = object.__new__(PackedProduct)
        out.cols, out.rows, out.width = self.cols, self.rows, self.width
        return out

    def act(self, action: "CurveAction", cap: int) -> "PackedProduct":
        """Apply a letter to packed curve pairings (see `CurveAction`); cap
        must bound every |entry| of the result."""
        if cap >= 1 << (self.width - 1):
            self._pack(self.columns(), cap)
        self.cols = action(self.cols)
        return self

    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Decode: shift every slot up by half its range, read it, shift back."""
        w = self.width
        half, mask = 1 << (w - 1), (1 << w) - 1
        shifts = range(0, w * self.rows, w)
        offset = sum([half << s for s in shifts])
        out = []
        for col in self.cols:
            col += offset
            out.append(tuple([((col >> s) & mask) - half for s in shifts]))
        return tuple(out)


def _support(vec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The positions and the values of the nonzero entries of vec."""
    pos = tuple(i for i, x in enumerate(vec) if x)
    return pos, tuple(vec[i] for i in pos)


class CurveFrame:
    """The twenty curves, the 16 basis curves first (in basis order), and
    what curve-pairing coordinates need of them."""

    def __init__(self):
        ctx = picard()
        self.names = ctx.basis_names + tuple(
            c for c in CURVE_NAMES if c not in ctx.basis_names
        )
        self.coords = tuple(ctx.curve_coord[c] for c in self.names)
        self.index = {q: d for d, q in enumerate(self.coords)}
        self.name_index = {c: d for d, c in enumerate(self.names)}
        # G q for each curve q: column d holds the pairings of the basis
        # vectors with curve d
        self.pairings = tuple(tuple(exact.mat_vec(ctx.gram, q)) for q in self.coords)
        # the intersection numbers of the twenty curves
        self.curve_gram = tuple(tuple(exact.dot(q, g) for g in self.pairings) for q in self.coords)
        self.adj, self.den = ctx._gram_adj, ctx._gram_den
        certify(tuple(map(sum, zip(*self.coords))) == ctx.omega_prime,
                "the Weyl projection must be the sum of the twenty curves")
        # so omega pairs with curve c as the sum of row c of the curve table,
        # and n = <omega, omega> is the sum of those pairings
        self.omega_pairings = tuple(map(sum, self.curve_gram))
        n = sum(self.omega_pairings)
        certify(n > 0, "the Weyl projection must have positive square")
        # the height cap |K_ic| <= |<g omega, omega>| for every isometry g:
        # each curve's majorant norm is at most n / 2 (see the module docstring)
        certify(all(4 * u * u - 2 * n * self.curve_gram[c][c] <= n * n
                    for c, u in enumerate(self.omega_pairings)),
                "the curves' majorant norms must be at most half the Weyl square")
        # K of the identity, at the cap of its height n; every reduce word `copy`s it
        self.identity_pairings = PackedProduct(self.pairings, self.entry_cap(n))
        # each curve's packed pairing column, fixed before anyone can touch the start
        self.key_width = self.identity_pairings.width
        self.curve_keys = {col: d for d, col in enumerate(self.identity_pairings.cols)}

    def entry_cap(self, height: int) -> int:
        """|height|, a bound on every curve pairing K_ic of an isometry with
        this height, by the certificate on the curves' majorant norms (see
        the module docstring)."""
        return abs(height)


@cache
def curve_frame() -> CurveFrame:
    return CurveFrame()


def exact_quotient(cols, den: int, message: str) -> tuple[tuple[int, ...], ...]:
    """Every entry divided by den; ValueError(message) unless each divides."""
    if any([x % den for x in chain.from_iterable(cols)]):
        raise ValueError(message)
    return tuple([tuple([x // den for x in col]) for col in cols])


def preimage(matrix, pairing, name: str = "") -> tuple[int, ...]:
    """b^-1(x) for the isometry b with this matrix M, given G x.

    As M G M^T = G, b^-1(x) = G^-1 M G x = adj (M G x) / den; ValueError
    unless it is integral.
    """
    frame = curve_frame()
    w = exact.mat_vec(frame.adj, exact.mat_vec(matrix, pairing))
    return exact_quotient([w], frame.den, f"{name}: not an isometry of the Picard lattice")[0]


class CurveAction:
    """An isometry b acting on pairings with the curves of `curve_frame`.

    Called on a sequence whose entry d is a pairing <x, curve d>, it returns
    the pairings of b(x): entry c is <b(x), c> = <x, b^-1(c)>. `src[c]` is
    the curve b^-1(c), or None where b^-1(c) is not a curve; for those c,
    `combos` holds (c, curves, coefficients) with b^-1(c) the sum of the
    coefficients times the curves.
    """

    __slots__ = ("src", "combos", "_take")

    def __init__(self, src, combos):
        self.src = tuple(src)
        self.combos = tuple(combos)
        self._take = itemgetter(*(0 if d is None else d for d in self.src))

    @classmethod
    def permutation(cls, pi, name: str = "") -> "CurveAction":
        """The checked action of M, rows q_pi(i), sending curve c to pi[c].

        ValueError unless pi is a bijection keeping every <q_a, q_j>, a a
        curve and j a basis curve (`CurveFrame.curve_gram`). Rows a < 16 say
        M G M^T = G, so M is an isometry and its rows span. For c beyond the
        basis, q_c = sum a_i e_i, M q_c = sum a_i q_pi(i) pairs with q_pi(j)
        as <q_c, e_j> = <q_pi(c), q_pi(j)> (row c), so M q_c = q_pi(c).
        """
        frame = curve_frame()
        if sorted(pi) != list(range(len(frame.names))):
            raise ValueError(f"{name}: not a bijection of the twenty curves")
        table, take = frame.curve_gram, itemgetter(*pi[:16])
        for a, d in enumerate(pi):
            if take(table[d]) != table[a][:16]:
                raise ValueError(f"{name}: not an isometry of the Picard lattice" if a < 16 else
                                 f"{name}: images violate the curve relations at {frame.names[a]}")
        return cls(sorted(range(len(pi)), key=pi.__getitem__), ())

    @classmethod
    def of(cls, matrix, name: str = "") -> "CurveAction":
        """The checked action of the isometry with this matrix M.

        Row i of M is the image of basis curve i, and the other four curves
        are mapped, so every preimage that is a curve is read off without
        an inverse. `preimage` gives the rest, exactly, and ValueError
        unless M is an isometry, that is N = M G M^T - G is 0. For each
        curve q_d this finds a preimage x_d with x_d M = q_d: the curve
        q_src[d] read off, or x_d = adj (M G q_d) / den, checked for it.
        A computed x_d has G x_d = M G q_d, so N x_d = M G q_d - G x_d =
        0. The x_d span, as their images q_d do, and N is symmetric, so N
        = 0 exactly when x_d N x_e = 0 for every two read-off d, e, and
        that is <q_d, q_e> = <q_src[d], q_src[e]>: two entries of the
        curve table, no product. `PackedProduct.act`'s height cap rests
        on this.
        """
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
        table, read = frame.curve_gram, [(d, c) for d, c in enumerate(src) if c is not None]
        if any(table[d][e] != table[c][f] for d, c in read for e, f in read):
            raise ValueError(f"{name}: not an isometry of the Picard lattice")
        return cls(src, combos)

    def conjugate(self, perm: "CurveAction") -> "CurveAction":
        """The action of s b s^-1, b this isometry and s the curve permutation
        whose action is perm: this action with every curve d renamed s(d),
        as (s b s^-1)^-1 (s(d)) = s(b^-1(d)), and each combination expanded
        over the basis again, as `of` gives it. Certified when both are."""
        if perm.combos:
            raise ValueError("conjugation needs a permutation of the curves")
        coords = curve_frame().coords
        rename = [0] * len(perm.src)
        for c, d in enumerate(perm.src):  # s^-1(c) = d
            rename[d] = c
        src = [None] * len(self.src)
        for c, d in enumerate(self.src):
            src[rename[c]] = None if d is None else rename[d]
        combos = []
        for c, curves, coeffs in self.combos:
            x = [0] * 16
            for d, a in zip(curves, coeffs):
                d = rename[d]
                if d < 16:
                    x[d] += a
                else:
                    x = [u + a * v for u, v in zip(x, coords[d])]
            combos.append((rename[c], *_support(x)))
        return CurveAction(src, sorted(combos))

    def inverse_rows(self) -> tuple[tuple[int, ...], ...]:
        """The matrix of b^-1: row i is b^-1 of basis curve i, a curve or a
        combination of basis curves. For an involution b it is the matrix of b."""
        coords = curve_frame().coords
        rows = [None if d is None else coords[d] for d in self.src[:16]]
        for c, pos, vals in self.combos:
            if c < 16:
                row = [0] * 16
                for i, a in zip(pos, vals):
                    row[i] = a
                rows[c] = tuple(row)
        return tuple(rows)

    def is_involution(self) -> bool:
        """Whether b o b = id, read off the action.

        b^2 = id exactly when b^-1(b^-1(c)) = c for each curve c. For src[c]
        a curve d, that is src[d] == c (`of` reads off every preimage that is
        a curve). Otherwise b applied twice to curve c's row of the curve
        table gives the row back: b^2(c) pairs with each curve as c does.
        """
        table = curve_frame().curve_gram
        if any(d is not None and self.src[d] != c for c, d in enumerate(self.src)):
            return False
        return all(self(self(table[c])) == list(table[c]) for c, _, _ in self.combos)

    def __call__(self, vals) -> list:
        out = list(self._take(vals))
        get = vals.__getitem__
        for c, curves, coeffs in self.combos:
            out[c] = sum(map(mul, coeffs, map(get, curves)))
        return out


# letters per group of the packed first-hit scan
SCAN_GROUP = 16
# scan tables up to this slot width are kept; a wider one only until the width changes
SCAN_CACHE_WIDTH = 288


class DescentScan:
    """The first wall that v lies on the wrong side of, from packed sign bits.

    Built from the wall vectors r_k in scan order; `first_hit(u)` is the
    first (k, e_k) with e_k = u . r_k < 0, or None, exactly as a dot
    product per letter would find it. Letters sit in groups of SCAN_GROUP.
    For a slot width w, group g holds P_i = sum_k r_k[i] 2^(w k) over its
    letters, one int per entry i; then sum_i u_i P_i + SIGN holds e_k +
    2^(w-1) in slot k, where SIGN has a 1 at the top of every slot. w is
    chosen with |e_k| <= max|u_i| max||r_k||_1 < 2^(w-1), so every slot
    lies in [0, 2^w) and nothing carries; bit w-1 of slot k is then clear
    exactly when e_k < 0. The tables are built per width, rounded up to a
    multiple of 32 bits, and kept up to SCAN_CACHE_WIDTH.
    """

    __slots__ = ("rs", "dim", "norm", "_tables", "_wide")

    def __init__(self, rs):
        self.rs = tuple(tuple(r) for r in rs)
        self.dim = len(self.rs[0])
        self.norm = max(sum(map(abs, r)) for r in self.rs)
        self._tables: dict[int, tuple] = {}
        self._wide = None

    def _groups(self, w: int) -> tuple:
        """(base, P, SIGN) for each group of letters, at width w."""
        groups = self._tables.get(w)
        if groups is None:
            groups = []
            for base in range(0, len(self.rs), SCAN_GROUP):
                block = self.rs[base:base + SCAN_GROUP]
                shifts = range(0, w * len(block), w)
                packed = tuple(
                    sum([r[i] << s for r, s in zip(block, shifts)]) for i in range(self.dim)
                )
                groups.append((base, packed, sum([1 << (s + w - 1) for s in shifts])))
            groups = tuple(groups)
            if w > SCAN_CACHE_WIDTH:
                self._tables.pop(self._wide, None)
                self._wide = w
            self._tables[w] = groups
        return groups

    def first_hit(self, u) -> tuple[int, int] | None:
        """(k, u . r_k) for the first k with u . r_k < 0; None if there is
        none. Only the first `dim` entries of u are read."""
        u = u[:self.dim]
        w = ((max(map(abs, u)) * self.norm).bit_length() + 32) // 32 * 32
        for base, packed, sign in self._groups(w):
            x = sum(map(mul, u, packed)) + sign
            hits = sign & ~x
            if hits:
                k = ((hits & -hits).bit_length() - 1) // w
                return base + k, ((x >> (k * w)) & ((1 << w) - 1)) - (1 << (w - 1))
        return None
