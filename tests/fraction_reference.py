"""Gauss-Jordan elimination on `Fraction`: the reference for `exact.eliminate`.

These are the rational routines that `exact.solve_rational`,
`exact.invert_rational` and `exact.det_rational` ran before they moved
onto the fraction-free integer kernel. Tests compare the kernel with them.
"""

from fractions import Fraction


def solve(a, b) -> list[Fraction] | None:
    """One exact solution x of a*x = b, free variables zero; None when
    inconsistent."""
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


def invert(a) -> list[list[Fraction]]:
    """Exact inverse of a square matrix; ValueError when singular."""
    n = len(a)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(a)
    ]
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


def det(a) -> Fraction:
    """Exact determinant by Gaussian elimination."""
    n = len(a)
    w = [[Fraction(x) for x in row] for row in a]
    d = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if w[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            w[c], w[pr] = w[pr], w[c]
            d = -d
        d *= w[c][c]
        inv = 1 / w[c][c]
        for i in range(c + 1, n):
            if w[i][c]:
                f = w[i][c] * inv
                w[i] = [x - f * y for x, y in zip(w[i], w[c])]
    return d


def negative_definite(gram) -> bool:
    """Sylvester's criterion, one `det` per leading minor of -gram."""
    neg = [[-x for x in row] for row in gram]
    return all(det([row[:k] for row in neg[:k]]) > 0 for k in range(1, len(gram) + 1))
