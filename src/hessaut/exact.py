"""Exact integer linear algebra on small dense matrices.

Everything runs over arbitrary-precision ints; no floating point is used
anywhere. Hermite and Smith forms use unimodular row and column
operations. Determinants, inverses and linear solves all go through one
fraction-free elimination, `eliminate`; ``fractions.Fraction`` is
imported only inside the two rational views `invert_rational` and
`solve_rational`, whose rational input `clear_denominators` scales to
integers. Matrices are lists of row lists and public functions never
mutate their arguments.
"""

from __future__ import annotations

import math
from operator import mul


def identity_matrix(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def vec_mat(v, m):
    """Row vector times matrix."""
    return [sum(map(mul, v, col)) for col in zip(*m)]


def mat_vec(m, v):
    return [sum(map(mul, row, v)) for row in m]


def dot(u, v):
    return sum(map(mul, u, v))


def clear_denominators(v) -> tuple[list[int], int]:
    """(n, d) with v = n / d: integer numerators over the least common
    denominator of a vector of ints and Fractions."""
    d = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def hermite_normal_form(m: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row-style Hermite normal form: returns (h, u) with u unimodular, u*m = h.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), and zero rows sink to the bottom.
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    h = [list(row) for row in m]
    u = identity_matrix(nr)

    def sub(i, j, q):
        if q:
            h[i] = [a - q * b for a, b in zip(h[i], h[j])]
            u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def swap(i, j):
        if i != j:
            h[i], h[j] = h[j], h[i]
            u[i], u[j] = u[j], u[i]

    pr = 0
    for c in range(nc):
        if pr == nr:
            break
        r = next((i for i in range(pr, nr) if h[i][c]), None)
        if r is None:
            continue
        swap(pr, r)
        for i in range(pr + 1, nr):
            while h[i][c]:
                q = h[pr][c] // h[i][c]
                sub(pr, i, q)
                swap(pr, i)
        if h[pr][c] < 0:
            h[pr] = [-a for a in h[pr]]
            u[pr] = [-a for a in u[pr]]
        for i in range(pr):
            q = h[i][c] // h[pr][c]
            sub(i, pr, q)
        pr += 1
    return h, u


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Canonical nonzero HNF rows of the span of the given rows."""
    if not rows:
        return []
    h, _ = hermite_normal_form(rows)
    return [row for row in h if any(row)]


def kernel_basis(m: list[list[int]]) -> list[list[int]]:
    """HNF-canonical basis of the left integer kernel {x : x*m = 0}."""
    h, u = hermite_normal_form(m)
    return hnf_rows([u[i] for i in range(len(h)) if not any(h[i])])


def smith_normal_form(
    m: list[list[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form: (d, u, v) with u, v unimodular and u*m*v = d.

    d is diagonal with nonnegative entries satisfying d1 | d2 | ... (zeros,
    if any, at the end).
    """
    nr = len(m)
    nc = len(m[0]) if nr else 0
    d = [list(row) for row in m]
    u = identity_matrix(nr)
    v = identity_matrix(nc)

    def row_sub(i, j, q):
        if q:
            d[i] = [a - q * b for a, b in zip(d[i], d[j])]
            u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def col_sub(j, k, q):
        if q:
            for row in d:
                row[j] -= q * row[k]
            for row in v:
                row[j] -= q * row[k]

    def row_swap(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            u[i], u[j] = u[j], u[i]

    def col_swap(j, k):
        if j != k:
            for row in d:
                row[j], row[k] = row[k], row[j]
            for row in v:
                row[j], row[k] = row[k], row[j]

    t = 0
    while t < min(nr, nc):
        piv = next(
            ((i, j) for i in range(t, nr) for j in range(t, nc) if d[i][j]), None
        )
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            for i in range(t + 1, nr):
                while d[i][t]:
                    q = d[i][t] // d[t][t]
                    row_sub(i, t, q)
                    if d[i][t]:
                        row_swap(i, t)
            for j in range(t + 1, nc):
                while d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_sub(j, t, q)
                    if d[t][j]:
                        col_swap(j, t)
            if any(d[i][t] for i in range(t + 1, nr)):
                continue
            # pivot must divide every remaining entry for the divisor chain
            g = d[t][t]
            bad = next(
                (i for i in range(t + 1, nr) if any(x % g for x in d[i][t + 1 :])),
                None,
            )
            if bad is None:
                break
            row_sub(t, bad, -1)
        t += 1
    for i in range(min(nr, nc)):
        if d[i][i] < 0:
            d[i] = [-a for a in d[i]]
            u[i] = [-a for a in u[i]]
    return d, u, v


def eliminate(m) -> tuple[list[list[int]], list[int], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix.

    Returns (rows, cols, minors, swaps): the pivot columns, each the first
    column independent of those before it; 1 followed by the successive
    pivots, pivot k being the minor of m on the first k pivot rows and
    columns (a leading minor when no row was swapped); and the number of
    row swaps. In `rows` each pivot column is d = minors[-1] times a unit
    column, so rows / d is the reduced echelon form. A step sets every
    other row to (p*x - f*y) / prev, an exact division because every entry
    stays a minor of m (Bareiss 1968, Math. Comp. 22; Cohen, GTM 138, 2.2).
    """
    a = [list(row) for row in m]
    cols: list[int] = []
    minors = [1]
    swaps = 0
    for c in range(len(a[0]) if a else 0):
        r = len(cols)
        if r == len(a):
            break
        pr = next((i for i in range(r, len(a)) if a[i][c]), None)
        if pr is None:
            continue
        if pr != r:
            a[r], a[pr] = a[pr], a[r]
            swaps += 1
        prow, prev = a[r], minors[-1]
        p = prow[c]
        for i, row in enumerate(a):
            f = row[c]
            if i != r and (f or p != prev):
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        cols.append(c)
        minors.append(p)
    return a, cols, minors, swaps


def solve_rational(a, b) -> list[Fraction] | None:
    """One exact solution x of a*x = b, or None when inconsistent.

    Entries may be ints or Fractions: each equation is first scaled to
    integers. Free variables, if any, are set to zero, which makes the
    result deterministic.
    """
    from fractions import Fraction
    nc = len(a[0]) if a else 0
    rows, cols, minors, _ = eliminate(
        [clear_denominators(list(row) + [y])[0] for row, y in zip(a, b)]
    )
    if nc in cols:
        return None
    x = [Fraction(0)] * nc
    for row, c in zip(rows, cols):
        x[c] = Fraction(row[nc], minors[-1])
    return x


def inverse_and_det(a) -> tuple[list[list[int]], int, int]:
    """(n, d, det) with a^-1 = n / d, d > 0 least, for a square integer
    matrix of determinant det, from one elimination of (a | I), whose last
    minor is det up to the sign of its row swaps; ValueError if singular."""
    size = len(a)
    rows, cols, minors, swaps = eliminate(
        [list(row) + [int(i == j) for j in range(size)] for i, row in enumerate(a)]
    )
    if cols != list(range(size)):
        raise ValueError("matrix is singular")
    n = [row[size:] for row in rows]
    g = math.gcd(*(x for row in n for x in row), minors[-1])
    if minors[-1] < 0:
        g = -g
    return [[x // g for x in row] for row in n], minors[-1] // g, (-1) ** swaps * minors[-1]


def invert_integer(a) -> tuple[list[list[int]], int]:
    """(n, d) of `inverse_and_det`: a^-1 = n / d, d > 0 least."""
    return inverse_and_det(a)[:2]


def invert_rational(a) -> list[list[Fraction]]:
    """Exact inverse of a square integer matrix over the rationals."""
    from fractions import Fraction
    n, d = invert_integer(a)
    return [[Fraction(x, d) for x in row] for row in n]


def det(a) -> int:
    """Determinant of a square integer matrix: the signed last minor."""
    _, cols, minors, swaps = eliminate(a)
    return (-1) ** swaps * minors[-1] if len(cols) == len(a) else 0


class RowSpan:
    """Incrementally built integer row span in Z^n.

    Rows are kept in echelon form with positive pivots, so both insertion
    and membership are cheap. Used wherever many generators feed one span.
    The row with pivot c is stored from column c on, and a vector reduced
    at column c is zero before it, so row operations run on that suffix.
    """

    def __init__(self, n: int):
        self.n = n
        self._rows: dict[int, list[int]] = {}  # pivot column -> row from it on

    def add(self, vec) -> bool:
        """Insert a vector; True when the span strictly grew."""
        v, start, grew = list(vec), 0, False  # v holds columns start..n-1
        for c in range(self.n):
            if not v[c - start]:
                continue
            v, start = v[c - start:], c
            row = self._rows.get(c)
            if row is None:
                self._rows[c] = v if v[0] > 0 else [-a for a in v]
                return True
            while v[0]:
                q = v[0] // row[0]
                v = [a - q * b for a, b in zip(v, row)]
                if v[0]:
                    self._rows[c] = v
                    v, row = row, v
                    grew = True
        return grew

    def contains(self, vec) -> bool:
        v, start = list(vec), 0
        for c in range(self.n):
            if not v[c - start]:
                continue
            v, start = v[c - start:], c
            row = self._rows.get(c)
            if row is None or v[0] % row[0]:
                return False
            q = v[0] // row[0]
            v = [a - q * b for a, b in zip(v, row)]
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def pivot_product(self) -> int:
        """The product of the pivots: at rank n, the index of the span in Z^n."""
        return math.prod(row[0] for row in self._rows.values())

    def basis(self) -> list[list[int]]:
        """HNF-canonical basis rows of the current span."""
        return hnf_rows([[0] * c + self._rows[c] for c in sorted(self._rows)])
