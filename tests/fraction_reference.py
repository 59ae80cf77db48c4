"""Rational routines on `Fraction`: the references for the integer paths.

Gauss-Jordan elimination is what `exact.solve_rational`,
`exact.invert_rational` and `exact.det` (formerly `det_rational`, a
Fraction) ran before they moved onto the fraction-free integer kernel
(`exact.eliminate`). `resolve` is the summation `hessian.Picard.resolve`
ran while classes were Fraction tuples. Tests compare the integer paths
with them.
"""

import math
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


def resolve(ctx, expr) -> tuple[Fraction, ...]:
    """A formal sum of named classes of the Picard context ctx, as
    `Picard.resolve` summed it on Fractions: each class as integers over
    its least denominator, every term over the common denominator of the
    scaled coefficients. Cxx and Rxx are `Picard.conic` and `Picard.cubic`."""
    named = {"etaH": ctx.eta_h, "etaS": ctx.eta_s, "NN": ctx.NN, "TT": ctx.TT,
             "omega": ctx.omega_prime}
    terms = []
    for key, coeff in expr.items():
        if key in ctx.curve_coord:
            vec = ctx.curve_coord[key]
        elif key in named:
            vec = named[key]
        elif key[0] == "C":
            vec = ctx.conic("T" + key[1:])
        else:
            vec = ctx.cubic("N" + key[1:])
        vec = [Fraction(x) for x in vec]
        den = math.lcm(*(x.denominator for x in vec))
        terms.append((Fraction(coeff) / den, [x.numerator * (den // x.denominator) for x in vec]))
    den = math.lcm(*(c.denominator for c, _ in terms))
    out = [0] * 16
    for c, nums in terms:
        k = c.numerator * (den // c.denominator)
        out = [a + k * b for a, b in zip(out, nums)]
    return tuple(Fraction(x, den) for x in out)
