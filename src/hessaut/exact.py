"""Exact integer and rational linear algebra on small dense matrices.

Everything runs over arbitrary-precision ints and ``fractions.Fraction``;
no floating point is used anywhere. Matrices are lists of row lists and
public functions never mutate their arguments.
"""

from __future__ import annotations

import math
from fractions import Fraction
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


def clear_row_denominators(m) -> tuple[list[list[int]], int]:
    """(n, d) with m = n / d, as `clear_denominators` for a matrix."""
    d = math.lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in m], d


def vec_add(u, v):
    return [x + y for x, y in zip(u, v)]


def vec_sub(u, v):
    return [x - y for x, y in zip(u, v)]


def vec_scale(c, v):
    return [c * x for x in v]


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


def solve_rational(a, b) -> list[Fraction] | None:
    """One exact solution x of a*x = b, or None when inconsistent.

    Free variables, if any, are set to zero, which makes the result
    deterministic.
    """
    nr = len(a)
    nc = len(a[0]) if nr else 0
    aug = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    pivots = []
    r = 0
    for c in range(nc):
        pr = next((i for i in range(r, nr) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(nr):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    if any(aug[i][nc] for i in range(r, nr)):
        return None
    x = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        x[c] = aug[i][nc]
    return x


def invert_rational(a) -> list[list[Fraction]]:
    """Exact inverse of a square matrix over the rationals."""
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pr = next((i for i in range(c, n) if aug[i][c]), None)
        if pr is None:
            raise ValueError("matrix is singular")
        aug[c], aug[pr] = aug[pr], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def det_rational(a) -> Fraction:
    """Exact determinant via fraction Gaussian elimination."""
    n = len(a)
    w = [[Fraction(x) for x in row] for row in a]
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if w[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            w[c], w[pr] = w[pr], w[c]
            det = -det
        det *= w[c][c]
        inv = 1 / w[c][c]
        for i in range(c + 1, n):
            if w[i][c]:
                f = w[i][c] * inv
                w[i] = [x - f * y for x, y in zip(w[i], w[c])]
    return det


def is_unimodular(u) -> bool:
    return len(u) > 0 and abs(det_rational(u)) == 1


class RowSpan:
    """Incrementally built integer row span in Z^n.

    Rows are kept in echelon form with positive pivots, so both insertion
    and membership are cheap. Used wherever many generators feed one span.
    """

    def __init__(self, n: int):
        self.n = n
        self._rows: dict[int, list[int]] = {}

    def add(self, vec) -> bool:
        """Insert a vector; True when the span strictly grew."""
        v = list(vec)
        grew = False
        for c in range(self.n):
            if not v[c]:
                continue
            row = self._rows.get(c)
            if row is None:
                if v[c] < 0:
                    v = [-a for a in v]
                self._rows[c] = v
                return True
            while v[c]:
                q = v[c] // row[c]
                v = [a - q * b for a, b in zip(v, row)]
                if v[c]:
                    self._rows[c] = v
                    v, row = row, v
                    grew = True
        return grew

    def contains(self, vec) -> bool:
        v = list(vec)
        for c in range(self.n):
            if not v[c]:
                continue
            row = self._rows.get(c)
            if row is None or v[c] % row[c]:
                return False
            q = v[c] // row[c]
            v = [a - q * b for a, b in zip(v, row)]
        return True

    @property
    def rank(self) -> int:
        return len(self._rows)

    def basis(self) -> list[list[int]]:
        """HNF-canonical basis rows of the current span."""
        return hnf_rows([self._rows[c] for c in sorted(self._rows)])
