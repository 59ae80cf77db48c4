"""Integral sublattices of L = Leech + U and their exact invariants.

A fixed Z-basis of L (24 Hermite-reduced Leech generators plus f, g) turns
every lattice question into integer row arithmetic in Z^26: spans and
orthogonal complements come from Hermite forms and integer kernels,
saturations from double kernels, discriminant groups from Smith forms of
Gram matrices, their forms as integer numerators over one denominator.
The Fincke-Pohst search runs on integers, over a fraction-free LDL^T.

Root systems are typed one way (`root_components`): read the components
off the Dynkin diagram of a simple system. The simple system is the given
basis when every diagonal entry is -2 and every pairing 0 or 1, else the
simple system of the Fincke-Pohst roots (`short_vectors`) for the
lexicographic order: the positive roots that are not a sum of two
positive roots. This is exact. Linearly independent roots with pairings
0 or 1 in a negative definite lattice are a base of the finite root
system R' that their reflections generate (Bourbaki, Lie Groups and Lie
Algebras, ch. VI 1.5-1.7; Humphreys, Reflection Groups and Coxeter
Groups, 1.3-1.5), and their graph is a simply-laced Dynkin diagram
(Bourbaki, ch. VI 4): a path is A_n, a branch node with arms (1, 1, k) is
D_{k+3}, arms (1, 2, 2), (1, 2, 3) and (1, 2, 4) are E6, E7 and E8. The
type fixes the root count. R' spans the lattice of the simple system, so
its norm -2 vectors are exactly R' (Conway-Sloane, SPLAG ch. 4). Basis
roots in different components are orthogonal, and a norm -2 vector of an
orthogonal sum of negative definite even lattices lies in one summand, as
each nonzero part has norm at most -2. So each root lies on one
component of the diagram. The form is negative definite exactly when
the block of each component is, and a connected simply-laced graph is
negative definite exactly when it is a Dynkin diagram (Bourbaki, ch. VI
4), so reading the diagram is the definiteness test; `short_vectors`
refuses an indefinite form itself.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Iterable, Sequence
from functools import cache
from itertools import product
from operator import mul, sub

from . import exact, leech
from .checks import certify
from .golay import mask_points, steiner_system
from .lorentz import LorentzVector, bilinear


# the step through the sorted octads: consecutive octads are close, so in
# sorted order 255 generators reach the full Leech index, in this stride 25
LEECH_STRIDE = 37


def _leech_generators():
    """nu_Omega - 4 nu_oo, then the doubled octads in steps of LEECH_STRIDE
    (prime to 759, so every octad comes once)."""
    masks = steiner_system().masks
    yield leech.generator_minus_three()
    for k in range(len(masks)):
        yield leech.two_nu(mask_points(masks[k * LEECH_STRIDE % len(masks)]))


class Ambient:
    """The fixed coordinate frame: basis rows, Gram matrix and inverse."""

    def __init__(self):
        # At this scaling the Leech lattice has index 8^12 in Z^24 (its Gram
        # matrix, dot products over -8, is unimodular), so once the pivots of
        # the span of members multiply to 8^12 the span is all of it. Feeding
        # stops there; the membership and det -1 certificates below decide.
        span = exact.RowSpan(24)
        for gen in _leech_generators():
            span.add(gen)
            if span.rank == 24 and span.pivot_product == 8 ** 12:
                break
        lam_rows = span.basis()
        certify(len(lam_rows) == 24, "the Leech generators must have rank 24")
        certify(all(leech.contains(r) for r in lam_rows), "Leech basis rows must be members")
        vectors = [LorentzVector(tuple(r), 0, 0) for r in lam_rows]
        vectors += [LorentzVector(leech.ZERO, 1, 0), LorentzVector(leech.ZERO, 0, 1)]
        self.rows = [v.raw() for v in vectors]
        self.gram = [[bilinear(a, b) for b in vectors] for a in vectors]
        # the inverse of the rows as adj / den, with adj an integer matrix
        self._adj, self._den, det = exact.inverse_and_det(self.rows)
        # the raw form is (-1/8) I_24 + [[0, 1], [1, 0]], so det(gram) is
        # -det(rows)^2 / 8^24
        certify(abs(det) == 8 ** 12, "L must be unimodular with det -1")

    def coords(self, v: LorentzVector) -> tuple[int, ...]:
        """Integer coordinates over the L basis; fails off the lattice."""
        c = exact.vec_mat(v.raw(), self._adj)
        if any(x % self._den for x in c):
            raise ValueError("vector does not lie in L")
        return tuple(x // self._den for x in c)

    def vector(self, coords: Sequence[int]) -> LorentzVector:
        raw = exact.vec_mat(list(coords), self.rows)
        return LorentzVector(tuple(raw[:24]), raw[24], raw[25])


@cache
def ambient() -> Ambient:
    return Ambient()


class EmbeddedLattice:
    """A sublattice of L given by HNF-canonical coordinate rows; equal and
    hashed as (rows, gram)."""

    __slots__ = ("rows", "gram")

    def __init__(self, rows: tuple[tuple[int, ...], ...], gram: tuple[tuple[int, ...], ...]):
        self.rows, self.gram = rows, gram

    def __eq__(self, other):
        if other.__class__ is not EmbeddedLattice:
            return NotImplemented
        return (self.rows, self.gram) == (other.rows, other.gram)

    def __hash__(self) -> int:
        return hash((self.rows, self.gram))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def disc_order(self) -> int:
        return abs(exact.det(self.gram))


def _from_rows(rows: list[list[int]]) -> EmbeddedLattice:
    """The lattice of rows in Hermite form, as every builder passes them."""
    amb = ambient()
    gram = [[exact.dot(g, b) for b in rows] for g in [exact.vec_mat(a, amb.gram) for a in rows]]
    return EmbeddedLattice(
        tuple(tuple(r) for r in rows), tuple(tuple(g) for g in gram)
    )


def span(gens: Iterable[LorentzVector]) -> EmbeddedLattice:
    amb = ambient()
    rs = exact.RowSpan(26)
    for v in gens:
        rs.add(list(amb.coords(v)))
    return _from_rows(rs.basis())


def orthogonal_complement(m: EmbeddedLattice) -> EmbeddedLattice:
    """All of L orthogonal to m; always a primitive sublattice."""
    amb = ambient()
    if not m.rows:
        return _from_rows(exact.identity_matrix(26))
    pairing_cols = exact.mat_mul(amb.gram, exact.transpose([list(r) for r in m.rows]))
    return _from_rows(exact.kernel_basis(pairing_cols))


def saturation(m: EmbeddedLattice) -> EmbeddedLattice:
    """(m tensor Q) intersected with L."""
    if not m.rows:
        return m
    normals = exact.kernel_basis(exact.transpose([list(r) for r in m.rows]))
    if not normals:
        return _from_rows(exact.identity_matrix(26))
    return _from_rows(exact.kernel_basis(exact.transpose(normals)))


def is_primitive(m: EmbeddedLattice) -> bool:
    return saturation(m).rows == m.rows


class FiniteQuadraticForm:
    """Discriminant group with q mod 2 and pairings mod 1 as numerators over
    their least denominator den; equal and hashed as (orders, den, qvals,
    pairings), so equal values built over any denominator compare equal."""

    __slots__ = ("orders", "den", "qvals", "pairings")

    def __init__(self, orders: tuple[int, ...], den: int, qvals: tuple[int, ...],
                 pairings: tuple[tuple[int, ...], ...]):
        g = math.gcd(den, *qvals, *(b for row in pairings for b in row))
        self.orders, self.den = orders, den // g
        self.qvals = tuple(q // g % (2 * self.den) for q in qvals)
        self.pairings = tuple(tuple(b // g % self.den for b in row) for row in pairings)

    def __eq__(self, other):
        if other.__class__ is not FiniteQuadraticForm:
            return NotImplemented
        return ((self.orders, self.den, self.qvals, self.pairings)
                == (other.orders, other.den, other.qvals, other.pairings))

    def __hash__(self) -> int:
        return hash((self.orders, self.den, self.qvals, self.pairings))

    @property
    def group_order(self) -> int:
        return math.prod(self.orders) if self.orders else 1


def discriminant_form_from_gram(gram) -> tuple[FiniteQuadraticForm, tuple[list[list[int]], int]]:
    """Discriminant form of a nondegenerate Gram matrix.

    Also returns generators of the discriminant group, read off the Smith
    transform, as (rows, den): generator i has the rational coordinates
    rows[i] / den over the lattice basis.
    """
    d, u, _ = exact.smith_normal_form([list(r) for r in gram])
    if not gram or not d[-1][-1]:  # zeros end the Smith diagonal
        raise ValueError("discriminant form requires a nondegenerate Gram matrix")
    # u G v = D, so G^-1 = v D^-1 u: generator i is u[i] / d_i, over the
    # exponent den = d_n, the least denominator of G^-1; and u[i] G / d_i is
    # row i of v^-1, an integer row whose dot with nums[j] is den times the
    # pairing of generators i and j
    den = d[-1][-1]
    keep = [i for i in range(len(gram)) if d[i][i] > 1]
    nums = [[den // d[i][i] * x for x in u[i]] for i in keep]
    duals = [[x // d[i][i] for x in exact.vec_mat(u[i], gram)] for i in keep]
    pair = [[exact.dot(w, n) for n in nums] for w in duals]
    form = FiniteQuadraticForm(
        tuple(d[i][i] for i in keep),
        den,
        tuple(row[k] for k, row in enumerate(pair)),
        tuple(tuple(row) for row in pair),
    )
    return form, (nums, den)


def discriminant_form(m: EmbeddedLattice) -> FiniteQuadraticForm:
    return discriminant_form_from_gram(m.gram)[0]


def negated(f: FiniteQuadraticForm) -> FiniteQuadraticForm:
    return FiniteQuadraticForm(
        f.orders, f.den, tuple(-q for q in f.qvals),
        tuple(tuple(-b for b in row) for row in f.pairings),
    )


def direct_sum(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm) -> FiniteQuadraticForm:
    den = math.lcm(f1.den, f2.den)
    s1, s2 = den // f1.den, den // f2.den
    k1, k2 = len(f1.orders), len(f2.orders)
    return FiniteQuadraticForm(
        f1.orders + f2.orders,
        den,
        tuple(s1 * q for q in f1.qvals) + tuple(s2 * q for q in f2.qvals),
        tuple(tuple(s1 * b for b in row) + (0,) * k2 for row in f1.pairings)
        + tuple((0,) * k1 + tuple(s2 * b for b in row) for row in f2.pairings),
    )


def _elements(orders):
    return product(*[range(d) for d in orders])


def _element_order(orders, a) -> int:
    out = 1
    for d, x in zip(orders, a):
        out = math.lcm(out, d // math.gcd(d, x))
    return out


def _invariants(f: FiniteQuadraticForm) -> dict:
    """(order, q) of each element of f, q as its numerator over f.den."""
    k, qs = len(f.orders), f.qvals
    bs = [[2 * b for b in row] for row in f.pairings]
    out = {}
    for a in _elements(f.orders):
        s = sum(a[i] * (a[i] * qs[i] + sum(a[j] * bs[i][j] for j in range(i + 1, k)))
                for i in range(k))
        out[a] = (_element_order(f.orders, a), s % (2 * f.den))
    return out


def fqf_isomorphic(f1: FiniteQuadraticForm, f2: FiniteQuadraticForm) -> bool:
    """Exhaustive isomorphism search; group orders in scope stay tiny."""
    # every value is a combination of the generators', so den is an invariant
    if f1.group_order != f2.group_order or f1.den != f2.den:
        return False
    inv2 = _invariants(f2)
    if Counter(_invariants(f1).values()) != Counter(inv2.values()):
        return False

    k, k2, den = len(f1.orders), len(f2.orders), f1.den
    # the images of generator i: the elements of its order and q value
    candidates = [[t for t, inv in inv2.items() if inv == (f1.orders[i], f1.qvals[i])]
                  for i in range(k)]
    b2 = f2.pairings

    def pair(a, b) -> int:
        return sum(a[i] * b[j] * b2[i][j] for i in range(k2) for j in range(k2)) % den

    def closure_size(images) -> int:
        seen = {tuple([0] * len(f2.orders))}
        frontier = [tuple([0] * len(f2.orders))]
        while frontier:
            nxt = []
            for x in frontier:
                for g in images:
                    y = tuple((a + b) % d for a, b, d in zip(x, g, f2.orders))
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return len(seen)

    def dfs(i, chosen):
        if i == k:
            return closure_size(chosen) == f2.group_order
        for t in candidates[i]:
            if any(pair(t, chosen[j]) != f1.pairings[i][j] for j in range(i)):
                continue
            if dfs(i + 1, chosen + [t]):
                return True
        return False

    return dfs(0, [])


_NAME_RE = re.compile(r"^(U|A(\d+)|D(\d+)|E8)(?:\((-?\d+)\))?$")


def standard_gram(name: str) -> list[list[int]]:
    """Gram matrix of U, A_n, D_n or E8, with 'M(m)' scaling as in A2(-2).

    Root lattices use the positive definite Cartan convention before
    scaling.
    """
    m = _NAME_RE.match(name.replace(" ", ""))
    if not m:
        raise ValueError(f"unknown lattice name {name!r}")
    base, a_n, d_n, scale = m.groups()
    scale = int(scale) if scale else 1
    if scale == 0:
        raise ValueError(f"lattice name {name!r} has scale 0")
    if base == "U":
        g = [[0, 1], [1, 0]]
    elif a_n is not None:
        n = int(a_n)
        if n < 1:
            raise ValueError("A_n needs n >= 1")
        g = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    elif d_n is not None:
        n = int(d_n)
        if n < 3:
            raise ValueError("D_n needs n >= 3")
        g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n - 2):
            g[i][i + 1] = g[i + 1][i] = -1
        g[n - 3][n - 1] = g[n - 1][n - 3] = -1
    else:  # E8: branch node at position 2, arms of lengths 1, 2, 4
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)]
        g = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
        for i, j in edges:
            g[i][j] = g[j][i] = -1
    return [[scale * x for x in row] for row in g]


def short_vectors(gram, target: int) -> list[tuple[int, ...]]:
    """All integer vectors v (over the basis) with v*gram*v^T == target.

    Requires a negative definite Gram matrix and target <= 0 (ValueError
    otherwise). Fincke-Pohst (Math. Comp. 44, 1985) on integers: a
    fraction-free LDL^T of -gram (Bareiss 1968, Math. Comp. 22) gives its
    leading minors d_0 = 1, ..., d_n, all positive exactly when it is
    definite, and integers e[i][j] with -v*gram*v^T the sum over i of
    (d_{i+1} v_i + U_i)^2 / (d_i d_{i+1}), U_i = sum over j > i of
    e[i][j] v_j. Over L = lcm(d_0..d_{n-1}) and D = lcm(d_1..d_n), level i
    adds c_i (D v_i + U)^2 to L D^2 times the norm, so v_i runs exactly
    over |D v_i + U| <= isqrt(rem // c_i), rem what is left, from v_{n-1}
    down to v_0, each in increasing order.
    """
    n = len(gram)
    if n == 0:
        return []
    # step i sets each later entry to (p*x - f*y) / d_i, an exact division
    # as every entry stays a minor; row i keeps e[i] from then on
    e, d = [[-x for x in row] for row in gram], [1]
    for i in range(n):
        p = e[i][i]
        if p <= 0:
            raise ValueError("short_vectors expects a negative definite form")
        for k in range(i + 1, n):
            for l in range(k, n):
                e[k][l] = (p * e[k][l] - e[i][k] * e[i][l]) // d[-1]
        d.append(p)
    big_l, big_d = math.lcm(*d[:n]), math.lcm(*d[1:])
    c = [d[i + 1] * (big_l // d[i]) for i in range(n)]
    m = [[e[i][j] * (big_d // d[i + 1]) for j in range(i + 1, n)] for i in range(n)]
    out: list[tuple[int, ...]] = []
    x = [0] * n

    def rec(i: int, rem: int):
        if i < 0:
            if rem == 0:
                out.append(tuple(x))
            return
        u = sum(map(mul, m[i], x[i + 1:]))
        s = math.isqrt(rem // c[i])
        for xi in range(-((s + u) // big_d), (s - u) // big_d + 1):
            x[i] = xi
            y = big_d * xi + u
            rec(i - 1, rem - c[i] * y * y)
        x[i] = 0

    # a positive target starts rem below 0, which math.isqrt refuses
    rec(n - 1, -target * big_l * big_d ** 2)
    return out


def root_count(gram) -> int:
    return len(short_vectors(gram, -2))


def _simple_system_gram(gram):
    """Gram matrix of a simple system of the roots; see the module docstring."""
    n = len(gram)
    if all(gram[i][j] == -2 if i == j else gram[i][j] in (0, 1)
           for i in range(n) for j in range(n)):
        return gram
    positive = [r for r in short_vectors(gram, -2) if r > (0,) * n]
    known = set(positive)
    simple = [p for p in positive if not any(tuple(map(sub, p, q)) in known for q in positive)]
    rows = [exact.vec_mat(s, gram) for s in simple]
    return [[exact.dot(r, t) for t in simple] for r in rows]


def _dynkin_type(nodes: list[int], edges: list[list[int]]) -> tuple[str, int, int]:
    """(type, rank, root count) of a connected simply-laced Dynkin diagram."""
    n = len(nodes)
    branches = [i for i in nodes if len(edges[i]) > 2]
    if sum(len(edges[i]) for i in nodes) != 2 * (n - 1) or len(branches) > 1:
        raise ValueError(f"a component of {n} roots is not a Dynkin diagram")
    if not branches:
        return f"A{n}", n, n * (n + 1)
    (b,) = branches
    arms = []
    for j in edges[b]:
        prev, node, length = b, j, 1
        while nxt := [k for k in edges[node] if k != prev]:
            prev, node, length = node, nxt[0], length + 1
        arms.append(length)
    arms.sort()
    if len(arms) == 3 and arms[:2] == [1, 1]:
        return f"D{n}", n, 2 * n * (n - 1)
    if arms in ([1, 2, 2], [1, 2, 3], [1, 2, 4]):
        return f"E{n}", n, {6: 72, 7: 126, 8: 240}[n]
    raise ValueError(f"a branch node with arms {arms} is not a Dynkin diagram")


def root_components(gram) -> list[tuple[str, int, int]]:
    """Irreducible components as (type, rank, root count) triples."""
    basis = _simple_system_gram(gram)
    n = len(basis)
    edges = [[j for j in range(n) if j != i and basis[i][j]] for i in range(n)]
    seen: set[int] = set()
    comps = []
    for start in range(n):
        if start in seen:
            continue
        nodes = [start]
        seen.add(start)
        for i in nodes:
            fresh = [j for j in edges[i] if j not in seen]
            seen.update(fresh)
            nodes += fresh
        comps.append(_dynkin_type(nodes, edges))
    return comps


def root_type(gram) -> str:
    """Canonical label such as 'A5+5A1' or 'D6+5A1'."""
    comps = Counter(label for label, _, _ in root_components(gram))
    parts = []
    for label in sorted(comps, key=lambda s: (-int(s[1:]), s[0])):
        k = comps[label]
        parts.append(label if k == 1 else f"{k}{label}")
    return "+".join(parts) if parts else "0"
