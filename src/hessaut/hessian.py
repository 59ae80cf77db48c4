"""The Picard lattice of the resolved quartic Hessian surface.

The rank-16 intersection lattice is realized inside L as the orthogonal
complement of T = <R, theta>, where R is the A5+A1^5 root lattice spanned
by ten pinned Leech roots and theta is a half-integral glue vector. The
twenty smooth rational curves (ten nodes N, ten lines T of the Sylvester
pentahedron) appear as Leech roots orthogonal to T; their incidence is
governed by a symmetric-difference rule transported from the two-torsion
geometry, and every divisor-class identity about hyperplane sections,
conics, cubics and elliptic pencils is checked as an exact vector
identity over a Z-basis chosen among the curves themselves. `Picard`
computes in the lattice the curves span; R, theta, T and its complement
are built only when read, by the suites that certify the embedding.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property
from itertools import combinations

from . import exact, lattices, leech, weber
from .checks import certify
from .golay import INFINITY
from .leech import NU_OMEGA, nu, two_nu, vadd, vscale
from .lorentz import LorentzVector, bilinear, leech_root

oo = INFINITY

# the octads behind the roots spanning the complement of the Picard lattice
COMPLEMENT_OCTADS: dict[str, frozenset[int]] = {
    "r0": frozenset({oo, 1, 2, 3, 4, 6, 15, 18}),
    "x1": frozenset({oo, 0, 1, 2, 3, 5, 14, 17}),
    "x2": frozenset({oo, 0, 1, 2, 4, 13, 16, 22}),
    "x3": frozenset({oo, 0, 1, 2, 6, 7, 19, 21}),
    "x4": frozenset({oo, 0, 1, 2, 8, 11, 12, 18}),
    "x5": frozenset({oo, 0, 1, 2, 9, 10, 15, 20}),
}

BASE_ROOT_ORDER = ("x", "z", "y", "r0", "x0", "x1", "x2", "x3", "x4", "x5")

NODE_NAMES = ("N16", "N26", "N36", "N46", "N56", "N12", "N13", "N24", "N35", "N45")
LINE_NAMES = ("T16", "T26", "T36", "T46", "T56", "T14", "T15", "T23", "T25", "T34")
CURVE_NAMES = NODE_NAMES + LINE_NAMES

# octads whose doubled indicator vectors give the twenty curve roots
CURVE_OCTADS: dict[str, frozenset[int]] = {
    "N45": frozenset({oo, 0, 1, 3, 4, 11, 19, 20}),
    "N56": frozenset({oo, 0, 1, 3, 6, 8, 10, 13}),
    "N24": frozenset({oo, 0, 1, 3, 7, 9, 16, 18}),
    "N26": frozenset({oo, 0, 1, 3, 12, 15, 21, 22}),
    "N36": frozenset({oo, 0, 1, 4, 5, 7, 8, 15}),
    "N35": frozenset({oo, 0, 1, 4, 6, 9, 12, 17}),
    "N46": frozenset({oo, 0, 1, 4, 10, 14, 18, 21}),
    "N16": frozenset({oo, 0, 1, 5, 6, 18, 20, 22}),
    "N13": frozenset({oo, 0, 1, 6, 11, 14, 15, 16}),
    "N12": frozenset({oo, 0, 1, 13, 15, 17, 18, 19}),
    "T16": frozenset({oo, 0, 2, 3, 4, 8, 9, 21}),
    "T34": frozenset({oo, 0, 2, 3, 6, 12, 16, 20}),
    "T14": frozenset({oo, 0, 2, 3, 7, 11, 13, 15}),
    "T36": frozenset({oo, 0, 2, 3, 10, 18, 19, 22}),
    "T26": frozenset({oo, 0, 2, 4, 5, 6, 10, 11}),
    "T25": frozenset({oo, 0, 2, 4, 7, 17, 18, 20}),
    "T15": frozenset({oo, 0, 2, 4, 12, 14, 15, 19}),
    "T56": frozenset({oo, 0, 2, 5, 15, 16, 18, 21}),
    "T46": frozenset({oo, 0, 2, 6, 8, 15, 17, 22}),
    "T23": frozenset({oo, 0, 2, 6, 9, 13, 14, 18}),
}

ClassVec = tuple[int, ...]


def curve_label(name: str) -> frozenset[int]:
    return frozenset(int(c) for c in name[1:])


@cache
def incidence(a: str, b: str) -> int:
    """Intersection number of two named curves from the index rule.

    A node lies on a line exactly when the symmetric difference of their
    labels, reduced mod complement, is empty or one of 16..56.
    """
    if a == b:
        return -2
    if a[0] == b[0]:
        return 0
    return 1 if weber.add(curve_label(a), curve_label(b)) in weber.THETA_STEP else 0


def base_roots() -> dict[str, LorentzVector]:
    """The ten Leech roots whose span is the root lattice R = A5+A1^5."""
    return {
        "x": LorentzVector(vadd(vscale(4, nu([oo])), NU_OMEGA), 1, 2),
        "y": LorentzVector(vadd(vscale(4, nu([0])), NU_OMEGA), 1, 2),
        "z": LorentzVector(leech.ZERO, 1, -1),
        "x0": LorentzVector(vadd(vscale(4, nu([oo])), vscale(4, nu([0]))), 1, 1),
        **{k: leech_root(two_nu(octad)) for k, octad in COMPLEMENT_OCTADS.items()},
    }


@cache
def base_root_gram() -> tuple[tuple[int, ...], ...]:
    """The pairings of the ten base roots, in BASE_ROOT_ORDER."""
    vecs = list(map(picard().roots.get, BASE_ROOT_ORDER))
    return tuple(tuple(bilinear(a, b) for b in vecs) for a in vecs)


def expected_base_gram() -> list[list[int]]:
    """The Coxeter-Dynkin data: a chain x-z-y-r0-x0 and five isolated roots."""
    order = BASE_ROOT_ORDER
    chain = ("x", "z", "y", "r0", "x0")
    g = [[0] * 10 for _ in range(10)]
    for i in range(10):
        g[i][i] = -2
    for a, b in zip(chain, chain[1:]):
        i, j = order.index(a), order.index(b)
        g[i][j] = g[j][i] = 1
    return g


class Picard:
    """The Picard lattice as the span of the twenty curves in L.

    Construction reads the Gram matrix off the incidence rule over sixteen
    basis curves and certifies each curve's coordinates over them in L.
    The base roots, theta and the Leech-frame lattices R, T = <R, theta> and
    S_H = T^perp, which `verify` certifies, are built on first read.
    """

    def __init__(self):
        self.curve_roots = {
            name: leech_root(two_nu(octad)) for name, octad in CURVE_OCTADS.items()
        }
        # the basis: the first curves that each raise the rank of their span in L
        raw = {name: self.curve_roots[name].raw() for name in CURVE_NAMES}
        span, basis = exact.RowSpan(26), []
        for name in CURVE_NAMES:
            if span.add(raw[name]) and span.rank > len(basis):
                basis.append(name)
        self.basis_names = tuple(basis)
        self.gram = tuple(tuple(incidence(a, b) for b in basis) for a in basis)
        self._gram_rows = [list(r) for r in self.gram]
        # inverse Gram matrix as adj / den, and the determinant, in one elimination
        try:
            self._gram_adj, self._gram_den, det = exact.inverse_and_det(self.gram)
        except ValueError:  # singular
            det = 0
        certify(len(basis) == 16 and abs(det) == 48, "the Picard lattice must have rank 16 and det 48")
        # a curve's coordinates are G^-1 times its incidences with the basis,
        # certified integral and, summed over the basis curves, the curve in L
        basis_raw = [raw[b] for b in basis]
        self.curve_coord = {}
        for name in CURVE_NAMES:
            nums = exact.mat_vec(self._gram_adj, [incidence(name, b) for b in basis])
            certify(all(x % self._gram_den == 0 for x in nums),
                    f"{name} must have integral coordinates over the basis curves")
            coord = tuple(x // self._gram_den for x in nums)
            certify(exact.vec_mat(coord, basis_raw) == raw[name],
                    f"{name} must be the sum of its coordinates times the basis curves in L")
            self.curve_coord[name] = coord

        # pentahedral dictionary from the pinned Weber hexad
        line_faces, node_faces = weber.pentahedral_dictionary()
        self.line_faces = {"T" + weber.label_name(k): v for k, v in line_faces.items()}
        self.node_faces = {"N" + weber.label_name(k): v for k, v in node_faces.items()}
        certify(set(self.line_faces) | set(self.node_faces) == set(CURVE_NAMES),
                "the pentahedral dictionary must name every curve")

        self._tau = {}
        for n in NODE_NAMES:
            partner = next(
                l for l in LINE_NAMES
                if not (self.node_faces[n] & self.line_faces[l])
            )
            self._tau[n] = partner
            self._tau[partner] = n
        self._derived: dict[tuple[str, str], ClassVec] = {}  # conics and cubics, by first use

        self.NN = self.resolve({n: 1 for n in NODE_NAMES})
        self.TT = self.resolve({l: 1 for l in LINE_NAMES})
        eta_h = tuple(3 * a + 2 * b for a, b in zip(self.NN, self.TT))
        eta_s = tuple(2 * a + 3 * b for a, b in zip(self.NN, self.TT))
        certify(all(x % 5 == 0 for x in eta_h + eta_s), "the hyperplane classes must be integral")
        self.eta_h = eta_h = tuple(x // 5 for x in eta_h)
        self.eta_s = eta_s = tuple(x // 5 for x in eta_s)
        squares = (self.inner(eta_h, eta_h), self.inner(eta_s, eta_s), self.inner(eta_h, eta_s))
        certify(squares == (4, 4, 6), f"hyperplane class intersections {squares}, not (4, 4, 6)")
        for c in CURVE_NAMES:
            want = (0, 1) if c in NODE_NAMES else (1, 0)
            got = (self.inner(eta_h, self.curve_coord[c]), self.inner(eta_s, self.curve_coord[c]))
            certify(got == want, f"hyperplane classes meet {c} in {got}, not {want}")

        self.omega_prime = tuple(a + b for a, b in zip(self.NN, self.TT))

    @cached_property
    def roots(self) -> dict[str, LorentzVector]:
        """The ten base roots spanning R (`base_roots`)."""
        return base_roots()

    @cached_property
    def theta(self) -> LorentzVector:
        """The glue vector (x + y + x0 + ... + x5) / 2, certified in L."""
        glue = ("x", "y", "x0", "x1", "x2", "x3", "x4", "x5")
        total = [sum(c) for c in zip(*(self.roots[k].raw() for k in glue))]
        lam = tuple(c // 2 for c in total[:24])
        certify(not any(c % 2 for c in total) and leech.contains(lam), "the glue vector must lie in L")
        return LorentzVector(lam, total[24] // 2, total[25] // 2)

    @cached_property
    def lattice_R(self) -> lattices.EmbeddedLattice:
        """R, the span of the ten base roots."""
        return lattices.span(self.roots.values())

    @cached_property
    def lattice_T(self) -> lattices.EmbeddedLattice:
        """T = <R, theta>."""
        return lattices.span(list(self.roots.values()) + [self.theta])

    @cached_property
    def lattice_SH(self) -> lattices.EmbeddedLattice:
        """S_H = T^perp, the Picard lattice in the Leech frame."""
        return lattices.orthogonal_complement(self.lattice_T)

    # --- basic queries --------------------------------------------------

    def curve(self, name: str) -> ClassVec:
        return self.curve_coord[name]

    def tau_partner(self, name: str) -> str:
        return self._tau[name]

    def inner(self, u, v):
        """Intersection number u G v: an int on int vectors, a Fraction
        when either vector holds a Fraction."""
        return exact.dot(exact.vec_mat(u, self._gram_rows), v)

    def lines_through(self, node: str) -> list[str]:
        return [l for l in LINE_NAMES if incidence(node, l) == 1]

    def nodes_on(self, line: str) -> list[str]:
        return [n for n in NODE_NAMES if incidence(n, line) == 1]

    def face_lines(self, face: int) -> list[str]:
        return [l for l in LINE_NAMES if face in self.line_faces[l]]

    def face_nodes(self, face: int) -> list[str]:
        """The four nodes of the tetrahedron opposite the face."""
        return [n for n in NODE_NAMES if face not in self.node_faces[n]]

    def conic(self, line: str) -> ClassVec:
        """Class of the conic cut by the plane tangent along a line."""
        if ("C", line) not in self._derived:
            expr = {"etaH": 1, line: -2, **dict.fromkeys(self.nodes_on(line), -1)}
            self._derived["C", line] = self.resolve(expr)
        return self._derived["C", line]

    def cubic(self, node: str) -> ClassVec:
        """Class of the residual cubic through a node's opposite line."""
        if ("R", node) not in self._derived:
            line = self.tau_partner(node)
            expr = {"etaH": 1, line: -1, node: -1, **dict.fromkeys(self.nodes_on(line), -1)}
            self._derived["R", node] = self.resolve(expr)
        return self._derived["R", node]

    def resolve(self, expr: dict) -> ClassVec:
        """Evaluate a formal sum over curve names, etaH/etaS, NN/TT, omega,
        Cxx and Rxx as the sum of coeff * class. The classes are int tuples,
        so int coefficients give an int tuple, and a Fraction coefficient
        (as in the displayed wall projections) a Fraction tuple."""
        out = (0,) * 16
        for key, coeff in expr.items():
            if key in self.curve_coord:
                vec = self.curve_coord[key]
            elif key == "etaH":
                vec = self.eta_h
            elif key == "etaS":
                vec = self.eta_s
            elif key == "NN":
                vec = self.NN
            elif key == "TT":
                vec = self.TT
            elif key == "omega":
                vec = self.omega_prime
            elif key.startswith("C") and "T" + key[1:] in self.curve_coord:
                vec = self.conic("T" + key[1:])
            elif key.startswith("R") and "N" + key[1:] in self.curve_coord:
                vec = self.cubic("N" + key[1:])
            else:
                raise ValueError(f"unresolvable class name {key!r}")
            out = tuple(a + coeff * b for a, b in zip(out, vec))
        return out

    def verify_relation(self, lhs: dict, rhs: dict) -> bool:
        return self.resolve(lhs) == self.resolve(rhs)

    def project(self, v: LorentzVector) -> tuple[ClassVec, int]:
        """Orthogonal projection onto the Picard lattice as (nums, den):
        the class nums / den, den the least positive denominator. Over the
        basis curves b_i it is G^-1 (<v, b_i>)_i, which reads only pairings
        in L, no Leech frame."""
        pairings = [bilinear(v, self.curve_roots[b]) for b in self.basis_names]
        nums = exact.mat_vec(self._gram_adj, pairings)
        g = math.gcd(self._gram_den, *nums)
        return tuple(x // g for x in nums), self._gram_den // g

    def project_to_sh(self, v: LorentzVector) -> tuple[Fraction, ...]:
        """`project` as a tuple of Fractions."""
        nums, den = self.project(v)
        return tuple(Fraction(x, den) for x in nums)

    # --- elliptic pencils -------------------------------------------------

    def hexagon_fiber(self, line: str, face: int) -> dict[str, int]:
        """The six-component cycle cut on a face containing the line."""
        if face not in self.line_faces[line]:
            raise ValueError(f"face {face} does not contain {line}")
        others = [l for l in self.face_lines(face) if l != line]
        comps = {l: 1 for l in others}
        for l1, l2 in combinations(others, 2):
            triple = self.line_faces[l1] | self.line_faces[l2]
            node = next(n for n in NODE_NAMES if self.node_faces[n] == triple)
            comps[node] = 1
        return comps

    def type1_pencil(self, line: str) -> "Pencil":
        opp = self.tau_partner(line)
        fiber = self.resolve({"C" + line[1:]: 1, line: 1})
        fibers = [
            ("I2", {"C" + line[1:]: 1, line: 1}),
            ("I2", {opp: 1, "R" + opp[1:]: 1}),
        ]
        for face in sorted(self.line_faces[line]):
            fibers.append(("I6", self.hexagon_fiber(line, face)))
        return Pencil(self, f"type1[{line}]", fiber, fibers, [], [])

    def type2_class(self, node: str, line: str) -> ClassVec:
        """Pencil of quartic curves from the cone at a node tangent along
        one of its lines."""
        if incidence(node, line) != 1:
            raise ValueError(f"{node} does not lie on {line}")
        expr = {"etaH": 2, line: -2, node: -2}
        for l in self.lines_through(node):
            if l != line:
                expr[l] = -1
        for other in NODE_NAMES:
            if other != node and any(
                incidence(other, l) == 1 for l in self.lines_through(node)
            ):
                expr[other] = -1
        return self.resolve(expr)

    def type3_pencil(self, l1: str, l2: str) -> "Pencil":
        shared = [n for n in NODE_NAMES if incidence(n, l1) == 1 and incidence(n, l2) == 1]
        if len(shared) != 1:
            raise ValueError(f"{l1} and {l2} do not meet at one node")
        fiber = self.resolve({"C" + l1[1:]: 1, "C" + l2[1:]: 1})
        return Pencil(self, f"type3[{l1},{l2}]", fiber, [("I2", {"C" + l1[1:]: 1, "C" + l2[1:]: 1})], [], [])


class Pencil:
    """An elliptic pencil class together with verified reducible fibers."""

    __slots__ = ("ctx", "name", "fiber", "reducible", "sections", "bisections")

    def __init__(self, ctx: "Picard", name: str, fiber: ClassVec,
                 reducible: list[tuple[str, dict]], sections: list[str], bisections: list[str]):
        self.ctx, self.name, self.fiber = ctx, name, fiber
        self.reducible, self.sections, self.bisections = reducible, sections, bisections
        certify(ctx.inner(fiber, fiber) == 0, f"{name}: fiber class has nonzero square")
        for tag, comps in reducible:
            certify(ctx.resolve(comps) == fiber, f"{name}: {tag} fiber does not sum to the class")
        for s in sections:
            certify(ctx.inner(ctx.resolve({s: 1}), fiber) == 1, f"{name}: {s} is not a section")
        for b in bisections:
            certify(ctx.inner(ctx.resolve({b: 1}), fiber) == 2, f"{name}: {b} is not a bisection")


@cache
def picard() -> Picard:
    return Picard()


# --- fixture identities for the displayed pencil computations ----------------

TYPE2_EXAMPLE = {
    "flag": ("N16", "T15"),
    "partner_flag": ("N36", "T23"),
    "fiber_I8": {
        "T25": 1, "N26": 1, "T26": 1, "N24": 1, "T46": 1, "N45": 1, "T56": 1, "N56": 1,
    },
    "fibers_I4": (
        {"C15": 1, "N36": 1, "T34": 1, "T36": 1},
        {"C23": 1, "N16": 1, "T16": 1, "T14": 1},
    ),
    "sections": ("N46", "N35", "N13", "N12"),
    "bisections": ("T23", "T15"),
    "class_display": {
        "etaH": 2, "T15": -2, "T16": -1, "T14": -1, "N24": -1, "N56": -1,
        "N12": -1, "N13": -1, "N46": -1, "N35": -1, "N16": -2,
    },
    # the 2-torsion identity for the section N13 over the zero section N46
    "torsion": (
        {"N13": 2, "N46": -2},
        {
            "T36": -1, "T34": 1, "T14": 1, "T16": -1, "T46": 2, "N56": -1,
            "T25": -2, "N26": -1, "N24": 1, "N45": 1,
        },
    ),
    # N13 + N35 = N12 in the Mordell-Weil group law
    "group_law": (
        {"N12": 1},
        {
            "N13": 1, "N35": 1, "N46": -1, "T34": -1, "T36": 1, "T46": -1,
            "T56": 1, "N56": 1, "T25": 1, "T26": -1, "N24": -1,
        },
    ),
}

TYPE2_SECOND_EXAMPLE = {
    "flag": ("N12", "T26"),
    "partner_flag": ("N35", "T56"),
    "fiber_I8": {
        "T23": 1, "N26": 1, "T25": 1, "N56": 1, "T15": 1, "N24": 1, "T46": 1, "N45": 1,
    },
    "fibers_I4": (
        {"C56": 1, "T34": 1, "N12": 1, "T16": 1},
        {"C26": 1, "T36": 1, "N35": 1, "T14": 1},
    ),
    "sections": ("N13", "N46", "N16", "N36"),
    "bisections": (),
}

TYPE3_EXAMPLE = {
    "lines": ("T16", "T14"),
    "class_display": {
        "etaH": 2, "T16": -2, "T14": -2, "N12": -1, "N13": -1, "N46": -1,
        "N35": -1, "N16": -2,
    },
    "fiber_I0star": {"C23": 1, "T15": 2, "N16": 1, "N56": 1, "N24": 1},
    "fiber_I2star": {"T36": 2, "T34": 2, "N36": 2, "N13": 1, "N12": 1, "N46": 1, "N35": 1},
    "fiber_I2": {"C16": 1, "C14": 1},
    "extra_I2_nodes": ("N26", "N45"),
    "sections": ("T26", "T56", "T25", "T46"),
    "bisections": ("T16", "T14", "T23"),
    "torsion": (
        {"T25": 2, "T46": -2},
        {
            "T36": 2, "N36": 3, "T34": 4, "N35": 1, "N46": 3, "N12": 2,
            "N56": -1, "N24": 1, "C16": -1, "N45": 1, "N26": -1, "C14": -2,
        },
    ),
}


def pencil_catalog() -> list[Pencil]:
    """Every displayed pencil, verified, plus schema members for symmetry."""
    ctx = picard()
    pencils = []

    type1 = {line: ctx.type1_pencil(line) for line in LINE_NAMES}
    pencils.extend(type1.values())

    # skew lines: disjoint pentahedral face pairs
    for a, b in combinations(LINE_NAMES, 2):
        if not (ctx.line_faces[a] & ctx.line_faces[b]):
            certify(ctx.inner(type1[a].fiber, type1[b].fiber) == 2,
                    f"skew pencils {a},{b} must meet twice")

    # type 2: thirty flags pair up into fifteen pencils under tau, one class each
    flags = [(n, l) for n in NODE_NAMES for l in LINE_NAMES if incidence(n, l) == 1]
    certify(len(flags) == 30, "there must be thirty node-line flags")
    classes = {}
    for n, l in flags:
        partner = (ctx.tau_partner(l), ctx.tau_partner(n))
        if frozenset(((n, l), partner)) not in classes:
            f = classes[frozenset(((n, l), partner))] = ctx.type2_class(n, l)
            certify(ctx.inner(f, f) == 0, f"type 2 class of {n},{l} has nonzero square")
            certify(ctx.type2_class(*partner) == f, f"flag {n},{l} and its tau partner differ")
    certify(len(classes) == 15, "the flags must pair into fifteen type 2 pencils")

    for data in (TYPE2_EXAMPLE, TYPE2_SECOND_EXAMPLE):
        node, line = data["flag"]
        f = classes.get(frozenset((data["flag"], data["partner_flag"])))
        certify(f is not None, f"the partner flag of {node},{line} is not its tau partner")
        if "class_display" in data:
            certify(ctx.resolve(data["class_display"]) == f,
                    f"the displayed class of {node},{line} differs")
        fibers = [("I8", data["fiber_I8"])] + [("I4", c) for c in data["fibers_I4"]]
        pencils.append(
            Pencil(ctx, f"type2[{node},{line}]", f, fibers,
                   list(data["sections"]), list(data["bisections"]))
        )

    # type 3: thirty line pairs meeting at a node
    count3 = 0
    for a, b in combinations(LINE_NAMES, 2):
        if sum(1 for n in NODE_NAMES if incidence(n, a) == 1 and incidence(n, b) == 1):
            pencils.append(ctx.type3_pencil(a, b))
            count3 += 1
    certify(count3 == 30, "there must be thirty type 3 pencils")

    data = TYPE3_EXAMPLE
    l1, l2 = data["lines"]
    f = ctx.resolve({"C" + l1[1:]: 1, "C" + l2[1:]: 1})
    certify(ctx.resolve(data["class_display"]) == f, f"displayed class of {l1},{l2} differs")
    fibers = [
        ("I0*", data["fiber_I0star"]),
        ("I2*", data["fiber_I2star"]),
        ("I2", data["fiber_I2"]),
    ]
    pencils.append(
        Pencil(ctx, f"type3[{l1},{l2}]", f, fibers,
               list(data["sections"]), list(data["bisections"]))
    )
    for n in data["extra_I2_nodes"]:
        residual = tuple(x - y for x, y in zip(f, ctx.curve(n)))
        certify((ctx.inner(residual, residual), ctx.inner(residual, f)) == (-2, 0),
                f"the residual of {n} must be a (-2)-class in a fiber")

    return pencils


def relation_checks() -> list[tuple[str, bool]]:
    """Every displayed linear equivalence, as named exact identities."""
    ctx = picard()
    checks = []
    checks.append((
        "hyperplane-swap-T",
        ctx.verify_relation({"etaH": 2}, {"etaS": 3, "TT": -1}),
    ))
    checks.append((
        "hyperplane-swap-N",
        ctx.verify_relation({"etaS": 2}, {"etaH": 3, "NN": -1}),
    ))
    checks.append((
        "pullback-diagonal",
        ctx.verify_relation({"NN": 1, "TT": 1}, {"etaH": 1, "etaS": 1}),
    ))
    for face in range(1, 6):
        expr = {l: 1 for l in ctx.face_lines(face)}
        for n in ctx.face_nodes(face):
            expr[n] = -1
        checks.append((
            f"face-difference-{face}",
            ctx.verify_relation({"etaS": 2, "etaH": -2}, expr),
        ))
    for line in LINE_NAMES:
        c = ctx.conic(line)
        checks.append((f"conic-square-{line}", ctx.inner(c, c) == -2))
        checks.append((f"conic-meets-line-{line}", ctx.inner(c, ctx.curve(line)) == 2))
    for node in NODE_NAMES:
        r = ctx.cubic(node)
        checks.append((f"cubic-square-{node}", ctx.inner(r, r) == -2))
    # the half-pencil decomposition of the diagonal minus twice a fiber
    for line in LINE_NAMES:
        b = {line: 1}
        for n in ctx.nodes_on(line):
            b[n] = 1
        tau_b = {ctx.tau_partner(k): v for k, v in b.items()}
        lhs = {"NN": 1, "TT": 1, "C" + line[1:]: -2, line: -2}
        checks.append((
            f"half-pencil-{line}",
            ctx.resolve(lhs) == tuple(
                x + y for x, y in zip(ctx.resolve(b), ctx.resolve(tau_b))
            ),
        ))
    checks.append((
        "torsion-type2",
        ctx.verify_relation(*TYPE2_EXAMPLE["torsion"]),
    ))
    checks.append((
        "group-law-type2",
        ctx.verify_relation(*TYPE2_EXAMPLE["group_law"]),
    ))
    checks.append((
        "torsion-type3",
        ctx.verify_relation(*TYPE3_EXAMPLE["torsion"]),
    ))
    # the section arithmetic restated invariantly: the defining differences
    # are integral combinations of fiber components of the worked fibration
    vert = exact.RowSpan(16)
    comps = set(TYPE2_EXAMPLE["fiber_I8"])
    for f in TYPE2_EXAMPLE["fibers_I4"]:
        comps |= set(f)
    for c in sorted(comps):
        vert.add(ctx.resolve({c: 1}))
    checks.append((
        "two-torsion-vertical",
        vert.contains(ctx.resolve({"N13": 2, "N46": -2})),
    ))
    checks.append((
        "group-law-vertical",
        vert.contains(ctx.resolve({"N13": 1, "N35": 1, "N12": -1, "N46": -1})),
    ))
    return checks


def petersen_graph_data() -> tuple[int | None, int, int]:
    """(regularity, edge count, girth) of the meet graph of the node/line
    pairs on the Enriques quotient; the regularity is None when vertex
    degrees differ."""
    ctx = picard()
    pairs = {}
    for line in LINE_NAMES:
        node = ctx.tau_partner(line)
        pairs[line] = tuple(
            x + y for x, y in zip(ctx.curve(node), ctx.curve(line))
        )
    labels = list(pairs)
    adj = {a: set() for a in labels}
    for a, b in combinations(labels, 2):
        m = ctx.inner(pairs[a], pairs[b])
        expected = 2 if not (ctx.line_faces[a] & ctx.line_faces[b]) else 0
        certify(m == expected, f"meet number {m} at {a},{b}, not {expected}")
        if m == 2:
            adj[a].add(b)
            adj[b].add(a)
    degrees = {len(v) for v in adj.values()}
    regularity = degrees.pop() if len(degrees) == 1 else None
    edges = sum(len(v) for v in adj.values()) // 2
    return regularity, edges, _girth(labels, adj)


def _girth(labels, adj) -> int:
    best = len(labels) + 1
    for start in labels:
        dist = {start: 0}
        parent = {start: None}
        queue = [start]
        while queue:
            u = queue.pop(0)
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    best = min(best, dist[u] + dist[w] + 1)
        # even cycles through start are caught from other roots
    return best
