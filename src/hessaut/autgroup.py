"""Generators of the symmetry group of the Picard lattice and the walls
of its restricted fundamental domain.

Isometries are 16x16 integer matrices over the curve basis, built from
explicit image tables for the twenty curves: the node/line swap involution
tau, the node projections p_a, the (-6)-reflection attached to inversions
of pencils with two tangent lines, and the symmetrized inversion g of the
cone pencils. Boundary walls are Leech roots spanning, together with the
fixed root lattice R, a rank-11 root lattice; they fall into four
enumerable shapes whose projections into the Picard lattice have squares
-2/3, -1, -2/3, -2/3 and are matched with involutions pushing the Weyl
projection by 15, 4 and 12 times the wall vector. A greedy descent on the
pairing with the Weyl projection certifies that the generators cut the
symmetry group down to the 240-element group generated by tau and the
pentahedral permutations.

Reduce words run on the kernels of `products`.
"""

from __future__ import annotations

from functools import cache, cached_property, reduce
from itertools import permutations
from math import gcd
from operator import mul

from . import exact, lattices
from .checks import CertificationError, certify
from .golay import INFINITY, mask_points, point_index, set_mask, steiner_system
from .hessian import (
    BASE_ROOT_ORDER,
    COMPLEMENT_OCTADS,
    CURVE_NAMES,
    LINE_NAMES,
    NODE_NAMES,
    ClassVec,
    base_root_gram,
    picard,
)
from .leech import NU_OMEGA, nu, two_nu, vadd, vscale, vsub
from .lorentz import LorentzVector, bilinear, leech_root
from .products import CurveAction, DescentScan, PackedProduct, curve_frame

oo = INFINITY


class Isometry:
    """A 16x16 integer matrix over the curve basis, with a name; equal and
    hashed as (matrix, name)."""

    def __init__(self, matrix: tuple[tuple[int, ...], ...], name: str = ""):
        self.matrix, self.name = matrix, name

    def __eq__(self, other):
        if other.__class__ is not Isometry:
            return NotImplemented
        return (self.matrix, self.name) == (other.matrix, other.name)

    def __hash__(self) -> int:
        return hash((self.matrix, self.name))

    @cached_property
    def curve_action(self) -> CurveAction:
        """This isometry on curve pairings (`CurveAction.of`), built on first use:
        the certificate that M is an isometry, ValueError otherwise."""
        return CurveAction.of(self.matrix, self.name)

    def apply(self, vec) -> tuple:
        return tuple(sum(map(mul, vec, col)) for col in zip(*self.matrix))

    def inverse(self, name: str = "") -> "Isometry":
        """M^-1, read off the certified action (`CurveAction.inverse_rows`);
        ValueError unless M is an isometry."""
        return Isometry(self.curve_action.inverse_rows(), name or f"{self.name}^-1")

    def is_involution(self) -> bool:
        """b o b = id, read off the certified action (`CurveAction.is_involution`)."""
        return self.curve_action.is_involution()

    def same_matrix(self, other: "Isometry") -> bool:
        return self.matrix == other.matrix


@cache
def identity_isometry() -> Isometry:
    return Isometry(tuple(tuple(int(i == j) for j in range(16)) for i in range(16)), "id")


def compose(*isos: Isometry) -> Isometry:
    """Apply left to right: compose(a, b)(x) = b(a(x)).

    Each factor's certified `curve_action` is read first, so a factor that
    is not an isometry raises ValueError. Rows are the images of the basis
    vectors, so compose(a, b) has the matrix M_a M_b: one `exact.mat_mul`
    per factor, from the identity.
    """
    for iso in isos:
        iso.curve_action  # the certificate
    matrix = reduce(exact.mat_mul, [iso.matrix for iso in isos], identity_isometry().matrix)
    return Isometry(tuple(map(tuple, matrix)), "*".join(i.name for i in isos))


def isometry_from_images(images: dict[str, ClassVec], name: str) -> Isometry:
    """Linear extension of curve images, certified by its `CurveAction.of`;
    rejects ill-defined or non-isometric tables (the redundant rows beyond a
    basis are checked, never assumed: a basis curve is a unit vector, so
    its image is its own row, and the curves off the basis are applied)."""
    ctx = picard()
    for c, target in images.items():
        if any(x % 1 for x in target):
            raise ValueError(f"{name}: non-integral image of {c}")
    iso = Isometry(tuple(images[b] for b in ctx.basis_names), name)
    for c, target in images.items():
        if c not in ctx.basis_names and iso.apply(ctx.curve_coord[c]) != target:
            raise ValueError(f"{name}: images violate the curve relations at {c}")
    try:
        action = CurveAction.of(iso.matrix, name)
    except ValueError:
        raise ValueError(f"{name}: table is not an isometry") from None
    return _acting(iso, action)


def _acting(iso: Isometry, action: CurveAction) -> Isometry:
    """iso with action, a certified action of this isometry, as its `curve_action`."""
    iso.curve_action = action
    return iso


def curve_permutation(images: dict[str, str], name: str) -> Isometry:
    """The isometry sending each curve to the curve named in images, with its
    `CurveAction.permutation` as `curve_action`; ValueError unless it exists."""
    frame = curve_frame()
    pi = [frame.name_index.get(images.get(c)) for c in frame.names]
    if None in pi or len(images) != len(pi):
        raise ValueError(f"{name}: not a map of the twenty curves")
    action = CurveAction.permutation(pi, name)
    return _acting(Isometry(tuple(frame.coords[d] for d in pi[:16]), name), action)


def relabel(b: Isometry, s: Isometry, name: str) -> Isometry:
    """s o b o s^-1 for an involution b and a curve permutation s, with no
    product (`_relabelled`). Certifies that b is an involution."""
    certify(b.is_involution(), f"{b.name} must be an involution")
    return _relabelled(b, s, name)


def _relabelled(b: Isometry, s: Isometry, name: str) -> Isometry:
    """s o b o s^-1 for a certified involution b, with no product: its action
    is b's with the curves renamed by s (`CurveAction.conjugate`), and as it
    is an involution too, its matrix is that action's `inverse_rows`."""
    action = b.curve_action.conjugate(s.curve_action)
    return _acting(Isometry(action.inverse_rows(), name), action)


def curve_pairings(vec) -> tuple[int, ...]:
    """The pairings of a class with the twenty curves of `curve_frame`."""
    return tuple(exact.dot(vec, g) for g in curve_frame().pairings)


def _certified(build, *args):
    """build(*args) on the program's own tables, where a ValueError is a
    failed certificate (CertificationError), not bad input."""
    try:
        return build(*args)
    except ValueError as e:
        raise CertificationError(str(e)) from None


def table_isometry(table: dict[str, dict], name: str) -> Isometry:
    """The isometry of one of the image tables below (`isometry_from_images`),
    certified."""
    ctx = picard()
    images = {c: ctx.resolve(expr) for c, expr in table.items()}
    return _certified(isometry_from_images, images, name)


# --- fixed image tables -------------------------------------------------------

NODE_PROJECTION_TABLE = {
    "N56": {"N24": 1}, "N24": {"N56": 1},
    "N13": {"N12": 1}, "N12": {"N13": 1},
    "N35": {"N46": 1}, "N46": {"N35": 1},
    "T25": {"T26": 1}, "T26": {"T25": 1},
    "T36": {"T34": 1}, "T34": {"T36": 1},
    "T56": {"T46": 1}, "T46": {"T56": 1},
    "T23": {"R16": 1},
    "N16": {"C23": 1},
    "N26": {"N26": 1}, "N36": {"N36": 1}, "N45": {"N45": 1},
    "T15": {"T15": 1}, "T16": {"T16": 1}, "T14": {"T14": 1},
}

SKEW_LINE_TABLE = {
    "T16": {"N26": 1}, "N26": {"T16": 1},
    "T14": {"N45": 1}, "N45": {"T14": 1},
    "T36": {"N56": 1}, "N56": {"T36": 1},
    "T34": {"N24": 1}, "N24": {"T34": 1},
    "T25": {"N13": 1}, "N13": {"T25": 1},
    "T56": {"N35": 1}, "N35": {"T56": 1},
    "T26": {"N12": 1}, "N12": {"T26": 1},
    "T46": {"N46": 1}, "N46": {"T46": 1},
    "T15": {"C15": 1},
    "T23": {"C23": 1},
    "N36": {"R36": 1},
    "N16": {"R16": 1},
}

D1_EXPR = {
    "N26": 1, "N45": 1, "N56": 2, "N24": 2, "N36": -1, "N13": 1, "N46": 1,
    "T46": 2, "T25": 2, "T15": 2,
}
D3_EXPR = {
    "N26": 2, "N45": 2, "N56": 1, "N24": 1, "N16": -1, "N13": 1, "N46": 1,
    "T46": 2, "T25": 2, "T23": 2,
}
_F_LONG_COMMON = {
    "etaH": 4, "T15": -1, "T23": -1, "N16": -2, "N26": -2, "N36": -2,
    "N56": -2, "N12": -2, "N24": -2, "N35": -2, "N45": -2,
}

PENCIL_INVERSION_TABLE = {
    "N16": D1_EXPR, "N36": D3_EXPR,
    "N26": {"N56": 1}, "N56": {"N26": 1},
    "N24": {"N45": 1}, "N45": {"N24": 1},
    "N12": {"C56": 1}, "N35": {"C26": 1},
    "N46": {"N46": 1}, "N13": {"N13": 1},
    "T15": {"T23": 1}, "T23": {"T15": 1},
    "T16": {"T16": 1}, "T36": {"T36": 1}, "T46": {"T46": 1},
    "T14": {"T14": 1}, "T25": {"T25": 1}, "T34": {"T34": 1},
    "T26": {**_F_LONG_COMMON, "T26": -3, "T56": -2},
    "T56": {**_F_LONG_COMMON, "T26": -2, "T56": -3},
}

G2_EXPR = {
    "T26": 1, "T15": 1, "T23": 1, "T46": 2, "T25": 2, "N26": 2, "N24": 2,
    "N16": -1, "N36": -1, "N56": 1, "N45": 1, "N13": 1, "N46": 1,
}
G5_EXPR = {
    "T56": 1, "T15": 1, "T23": 1, "T46": 2, "T25": 2, "N56": 2, "N45": 2,
    "N16": -1, "N36": -1, "N26": 1, "N24": 1, "N13": 1, "N46": 1,
}

SYMMETRIZED_INVERSION_TABLE = {
    "N16": D3_EXPR, "N36": D1_EXPR,
    "N26": {"N45": 1}, "N45": {"N26": 1},
    "N46": {"N13": 1}, "N13": {"N46": 1},
    "N56": {"N24": 1}, "N24": {"N56": 1},
    "N12": {"N12": 1}, "N35": {"N35": 1},
    "T16": {"T34": 1}, "T34": {"T16": 1},
    "T36": {"T14": 1}, "T14": {"T36": 1},
    "T46": {"T25": 1}, "T25": {"T46": 1},
    "T15": {"T15": 1}, "T23": {"T23": 1},
    "T26": G2_EXPR, "T56": G5_EXPR,
}

# projections of the three worked wall roots, as displayed: integer
# coefficients over the displayed denominator
WALL_1A_EXPR = ({"TT": -2, "NN": 2, "T36": 10, "T46": 10, "T15": 10, "T25": 10, "T34": 10,
                 "N36": 5, "N46": 5, "N56": 5, "N13": 5, "N24": 5}, 15)
WALL_2_EXPR = ({"C16": 1, "N45": -1}, 2)
WALL_3A_EXPR = ({"N26": 3, "N45": 3, "N56": 3, "N24": 3, "N16": -2, "N36": -2,
                 "N13": 2, "N46": 2, "T46": 4, "T25": 4, "T15": 2, "T23": 2}, 6)

WALL_1A_EXAMPLE_OCTAD = frozenset({oo, 0, 1, 5, 9, 11, 13, 21})
WALL_2_EXAMPLE_OCTAD = frozenset({0, oo, 6, 7, 10, 12, 15, 18})

# the twelve octads carrying the (3,3,3,-1^5,1^16) walls
WALL_1A_OCTADS = tuple(
    frozenset(s)
    for s in (
        {oo, 0, 1, 5, 9, 11, 13, 21}, {oo, 0, 1, 7, 10, 11, 17, 22},
        {oo, 0, 1, 7, 12, 13, 14, 20}, {oo, 0, 1, 8, 9, 14, 19, 22},
        {oo, 0, 1, 8, 16, 17, 20, 21}, {oo, 0, 1, 5, 10, 12, 16, 19},
        {oo, 0, 2, 5, 7, 9, 12, 22}, {oo, 0, 2, 5, 8, 13, 19, 20},
        {oo, 0, 2, 7, 8, 10, 14, 16}, {oo, 0, 2, 9, 11, 16, 17, 19},
        {oo, 0, 2, 10, 12, 13, 17, 21}, {oo, 0, 2, 11, 14, 20, 21, 22},
    )
)
# the positions of the first-index case 3a walls; the first is g's worked wall
WALL_3A_KS_FIRST = (5, 14, 17)
WALL_3B_OCTADS_FIRST = tuple(
    frozenset(s)
    for s in (
        {0, 5, 9, 12, 13, 14, 17, 19},
        {0, 5, 10, 11, 14, 16, 17, 21},
        {0, 5, 7, 8, 14, 17, 20, 22},
    )
)

# duals of the A5 chain (x, z, y, r0, x0): projection corrections by case
CASE_CORRECTIONS = {
    "1a": ({"x": 2, "z": 4, "y": 3, "r0": 2, "x0": 1}, 3),
    "1b": ({"x": 1, "z": 2, "y": 3, "r0": 4, "x0": 2}, 3),
    "3a": ({"x": 1, "z": 2, "y": 3, "r0": 4, "x0": 5}, 6),
    "3b": ({"x": 5, "z": 4, "y": 3, "r0": 2, "x0": 1}, 6),
}

CASE_ROOT_TYPES = {
    "0": "A5+6A1",
    "1a": "D6+5A1", "1b": "D6+5A1",
    "2": "A5+A3+3A1",
    "3a": "A7+4A1", "3b": "A7+4A1",
}

PUSH_MULTIPLES = {"1a": 15, "1b": 15, "2": 4, "3a": 12, "3b": 12}


class WallRoot:
    """A wall root (None for the case 1b walls, which tau carries from 1a)
    and its projection r1 = vec / den into the Picard lattice, den the
    least positive denominator, and the `curve_pairings` of vec, built on
    first use; equal and hashed as (case, root, vec, den, key)."""

    def __init__(self, case: str, root: LorentzVector | None, vec: ClassVec, den: int, key: tuple):
        self.case, self.root, self.vec, self.den, self.key = case, root, vec, den, key

    def _values(self) -> tuple:
        return self.case, self.root, self.vec, self.den, self.key

    def __eq__(self, other):
        if other.__class__ is not WallRoot:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    @cached_property
    def r1(self) -> tuple[Fraction, ...]:
        from fractions import Fraction
        return tuple(Fraction(x, self.den) for x in self.vec)

    @cached_property
    def pairings(self) -> tuple[int, ...]:
        return curve_pairings(self.vec)


def wall_root_gram(root: LorentzVector) -> list[list[int]]:
    """Gram matrix of the ten base roots of R followed by a wall root."""
    roots = picard().roots
    col = [bilinear(roots[k], root) for k in BASE_ROOT_ORDER] + [bilinear(root, root)]
    return [list(row) + [c] for row, c in zip(base_root_gram(), col)] + [col]


@cache
def wall_lattice_type(gram: tuple[tuple[int, ...], ...]) -> str:
    """`lattices.root_type` of R + Zr by its `wall_root_gram` as tuples, R's Gram
    bordered by r's pairings: the 52 walls span 21 lattices, each typed once."""
    return lattices.root_type(gram)


def classify_wall_root(root: LorentzVector, projection: tuple[ClassVec, int] | None = None) -> WallRoot:
    """Case tag, root-lattice type and checked projection of a wall root,
    certified on R + Zr; only `verify walls` (and the tests) call it. The
    projection (vec, den), by default `Picard.project`, is checked, not made:
    vec / den is the case's closed form, and den its least denominator."""
    ctx = picard()
    gram = wall_root_gram(root)
    pat = dict(zip(BASE_ROOT_ORDER, gram[-1]))
    if any(v not in (0, 1) for v in pat.values()):
        raise ValueError(f"pairing pattern {pat} is not a wall pattern")
    ones = frozenset(k for k, v in pat.items() if v == 1)
    xs = ones & {"x1", "x2", "x3", "x4", "x5"}
    if not ones:
        case = "0"
    elif ones == {"z"}:
        case = "1a"
    elif ones == {"r0"}:
        case = "1b"
    elif len(ones) == 2 and xs == ones:
        case = "2"
    elif len(ones) == 2 and "x0" in ones and xs:
        case = "3a"
    elif len(ones) == 2 and "x" in ones and xs:
        case = "3b"
    else:
        raise ValueError(f"no case matches pairing pattern {sorted(ones)}")

    # root_type rejects a singular Gram matrix (with pairings 0 or 1, one has a
    # component that is not a Dynkin diagram), so the eleven roots have rank 11
    rtype = wall_lattice_type(tuple(map(tuple, gram)))
    certify(rtype == CASE_ROOT_TYPES[case], f"case {case} wall lattice has type {rtype}")

    if case == "0":
        certify(root in ctx.curve_roots.values(), "a case 0 wall root must be a curve root")
    vec, den = projection or ctx.project(root)
    # the closed form times denom: denom*r plus a dual-basis correction inside
    # R tensor Q (none in case 0), where each x_i met by r has coefficient 1/2
    coeffs, denom = CASE_CORRECTIONS.get(case, ({}, 2))
    coeffs = {**coeffs, **dict.fromkeys(xs, denom // 2)}
    raw = [denom * x for x in root.raw()]
    for k, c in coeffs.items():
        raw = [a + c * b for a, b in zip(raw, ctx.roots[k].raw())]
    r1_raw = exact.vec_mat(vec, [ctx.curve_roots[b].raw() for b in ctx.basis_names])
    certify(den > 0 and gcd(den, *vec) == 1 and [denom * x for x in r1_raw] == [den * x for x in raw],
            f"closed-form projection mismatch in case {case}")
    return WallRoot(case, root, vec, den, (case, tuple(sorted(root.lam)), root.lam, root.m, root.n))


@cache
def enumerate_wall_roots() -> dict[str, list[WallRoot]]:
    """Shape-constrained searches for the four boundary-wall families: each
    root with its `Picard.project` and search key, and no wall lattice."""
    system = steiner_system()
    ks = [set_mask(COMPLEMENT_OCTADS[k]) for k in ("r0", "x1", "x2", "x3", "x4", "x5")]
    bit_oo, bit_0 = 1 << point_index(oo), 1 << point_index(0)
    out: dict[str, list[WallRoot]] = {"1a": [], "2": [], "3a": [], "3b": []}

    for octad in system.masks:
        if not (octad & bit_oo and octad & bit_0):
            continue
        inter0 = octad & ks[0]
        if inter0.bit_count() == 2 and inter0 & bit_oo:
            j1 = inter0 ^ bit_oo
            if all((octad & ks[i]).bit_count() == 4 and ks[i] & j1 for i in range(1, 6)):
                threes = bit_oo | bit_0 | j1
                lam = [3 if threes >> i & 1 else -1 if octad >> i & 1 else 1 for i in range(24)]
                out["1a"].append((mask_points(octad), leech_root(tuple(lam))))

        profile = [(octad & k).bit_count() for k in ks]
        if profile[0] == 4:
            twos = [i for i in range(1, 6) if profile[i] == 2]
            if len(twos) == 2 and all(profile[i] == 4 for i in range(1, 6) if i not in twos):
                out["2"].append((tuple(twos), leech_root(two_nu(mask_points(octad)))))

    for k in range(23):
        hits = [i for i in range(1, 6) if ks[i] >> point_index(k) & 1]
        if len(hits) == 1 and not ks[0] >> point_index(k) & 1:
            lam = vsub(NU_OMEGA, vscale(4, nu([k])))
            out["3a"].append(((hits[0], k), leech_root(lam)))

    for octad in system.masks:
        if not octad & bit_0 or octad & bit_oo or octad & ks[0]:
            continue
        profile = [(octad & ks[i]).bit_count() for i in range(1, 6)]
        fours = [i + 1 for i, c in enumerate(profile) if c == 4]
        if len(fours) == 1 and sorted(profile) == [2, 2, 2, 2, 4]:
            points = mask_points(octad)
            lam = vadd(vscale(4, nu([0])), vsub(NU_OMEGA, vscale(2, nu(points))))
            out["3b"].append(((fours[0],) + points, leech_root(tuple(lam))))

    ctx = picard()
    return {case: [WallRoot(case, root, *ctx.project(root), (case,) + key)
                   for key, root in sorted(found, key=lambda t: t[0])]
            for case, found in out.items()}


# --- the generator context -----------------------------------------------------


class AutContext:
    """All named isometries, walls and descent data, built once."""

    def __init__(self):
        ctx = picard()
        self.ctx = ctx
        self.omega = ctx.omega_prime
        # where every descent starts: the pairings of omega with the twenty
        # curves, and its height, their sum (`CurveFrame.omega_pairings`)
        u = curve_frame().omega_pairings
        self.descent_start = (u, sum(u))

        # tau, the S5 elements and their products permute the curves; tau
        # swaps each node with the line whose faces it does not meet
        tau_map = {c: ctx.tau_partner(c) for c in CURVE_NAMES}
        self.tau = _certified(curve_permutation, tau_map, "tau")

        # the symmetry group of the restricted chamber, of order 240. Each element
        # is a certified curve permutation (`CurveAction.permutation`), so it fixes
        # omega, the sum of the twenty curves (certified in `CurveFrame`);
        # `reduce.height-floor` still checks all 240 densely
        self.s5: dict[tuple, Isometry] = {}
        self.symmetries: dict[tuple, str] = {}
        # the matrix of each symmetry, keyed on its `curve_action.src`
        self._symmetry_by_src: dict[tuple, tuple] = {}
        chamber: list[Isometry] = []
        by_faces = {faces_of[c]: c for faces_of in (ctx.node_faces, ctx.line_faces)
                    for c in faces_of}
        for perm in permutations(range(1, 6)):
            images = {c: by_faces[frozenset(perm[i - 1] for i in faces_of[c])]
                      for faces_of in (ctx.node_faces, ctx.line_faces) for c in faces_of}
            s = self.s5[perm] = _certified(curve_permutation, images, "s" + "".join(map(str, perm)))
            # tau*s from the composed map, first tau, then s: no product
            tau_s = _certified(curve_permutation, {a: images[b] for a, b in tau_map.items()},
                               f"tau*{s.name}")
            for m in (s, tau_s):
                self.symmetries[m.matrix] = "id" if m.same_matrix(identity_isometry()) else (
                    "tau" if m.same_matrix(self.tau) else m.name
                )
                self._symmetry_by_src[m.curve_action.src] = m.matrix
                chamber.append(m)

        self.p16 = table_isometry(NODE_PROJECTION_TABLE, "p16")
        expected_eta = ctx.resolve(
            {"etaH": 2, "T23": -2, "N26": -1, "N45": -1, "N36": -1, "N16": -1}
        )
        certify(self.p16.apply(ctx.eta_h) == expected_eta,
                "p16 must send etaH to the projected hyperplane class")
        self.f = table_isometry(PENCIL_INVERSION_TABLE, "f")
        self.g = table_isometry(SYMMETRIZED_INVERSION_TABLE, "g")
        certify(self.f.is_involution(), "f must be an involution")

        # the 64 walls; tau carries the case 1a walls to 1b
        self.walls = enumerate_wall_roots()
        walls = {**self.walls, "1b": [
            WallRoot("1b", None, self.tau.apply(w.vec), w.den, ("1b",) + w.key[1:])
            for w in self.walls["1a"]
        ]}

        # The chamber symmetries carry three worked walls to all 64, and each
        # wall's generator is s b s^-1 for b the worked generator and s any
        # symmetry carrying b's wall to it. s is found on pairings with the
        # curves, which fix a class as the curves span: s moves them by its
        # action, a reindex. vec = 3 r1 is the (-6)-root of a case 1a wall.
        # Each b is certified, on its action, an involution that pushes omega
        # by k = PUSH_MULTIPLES[case] / den > 0 times its wall's vector r. The
        # two certify b(r) = -r too: b^2 = 1 gives k (r + b(r)) = 0. s b s^-1
        # inherits all three, as s fixes omega and sends r to the wall's vector r'.
        u_omega = self.descent_start[0]
        w1a = next(w for w in walls["1a"] if frozenset(w.key[1:]) == WALL_1A_EXAMPLE_OCTAD)
        w2 = next(w for w in walls["2"] if bilinear(w.root, ctx.curve_roots["N16"]) == 1)
        self.worked_3a = w3a = next(w for w in walls["3a"] if w.key[1:] == (1, WALL_3A_KS_FIRST[0]))
        carried: dict[tuple, tuple[Isometry, Isometry, int]] = {}
        for w, b in ((w1a, self.reflection_phi(w1a.vec)), (w2, self.p16), (w3a, self.g)):
            u = w.pairings
            certify(b.is_involution(), f"{b.name} must be an involution")
            push, rest = divmod(PUSH_MULTIPLES[w.case], w.den)
            certify(rest == 0 < push and b.curve_action(u_omega) == [x + push * y for x, y in zip(u_omega, u)],
                    f"{b.name} must push omega by {PUSH_MULTIPLES[w.case]} times its wall's r1")
            carried.update((tuple(s.curve_action(u)), (b, s, push)) for s in chamber)

        # each generator under its descent name, in descent order, with its push
        prefixes = {"1a": "phi", "3a": "g", "1b": "phib", "3b": "gb"}
        self.wall_generators: dict[str, list[tuple[WallRoot, Isometry]]] = {}
        self.descent: list[tuple[str, Isometry, int]] = []
        for case in ("1a", "2", "3a", "1b", "3b"):
            self.wall_generators[case] = pairs = []
            for i, w in enumerate(walls[case], 1):
                if case == "2":
                    node = [n for n in NODE_NAMES if bilinear(w.root, ctx.curve_roots[n]) == 1]
                    line = [l for l in LINE_NAMES if bilinear(w.root, ctx.curve_roots[l]) == 1]
                    certify(len(node) == len(line) == 1 and ctx.tau_partner(node[0]) == line[0],
                            f"case 2 wall {w.key} must meet one node and its tau partner")
                    name = f"p{node[0][1:]}"
                else:
                    name = f"{prefixes[case]}{i}"
                hit = carried.get(w.pairings)
                certify(hit is not None, f"no chamber symmetry carries a worked wall to {w.key}")
                b, s, push = hit
                iso = _relabelled(b, s, name)
                pairs.append((w, iso))
                self.descent.append((name, iso, push))
        # `hessaut verify generators` re-reads these three off each action, and
        # checks each discriminant action densely
        projections = {iso.name: iso for _, iso in self.wall_generators["2"]}
        self.projections = {n: projections[f"p{n[1:]}"] for n in NODE_NAMES}

        # naming and fixed descent order: plain families first, conjugates last
        self.registry: dict[str, Isometry] = {
            "tau": self.tau,
            "id": identity_isometry(),
            "f": self.f,  # reducible input: f equals g composed with p12, p35
        }
        for s in self.s5.values():
            self.registry[s.name] = s
        for iso in self.projections.values():
            self.registry[iso.name] = iso
        for name, iso, _ in self.descent:
            self.registry[name] = iso
        self.scan = DescentScan([w.vec for pairs in self.wall_generators.values() for w, _ in pairs])

    # --- helpers ---------------------------------------------------------

    @staticmethod
    def _apply_q(iso: Isometry, vec) -> tuple:
        """Image of a rational class vector, as a tuple of Fractions."""
        from fractions import Fraction
        return tuple(map(Fraction, iso.apply(vec)))

    def reflection_phi(self, alpha) -> Isometry:
        """Reflection in a primitive (-6)-vector of ints, checked integral.

        Row i is e_i + (G alpha)_i alpha / 3; alpha is primitive, so the
        row is integral exactly when 3 divides (G alpha)_i. As alpha^2 = -6,
        it negates alpha: alpha + (alpha^2 / 3) alpha = -alpha; construction
        certifies this once, for the worked phi, by its involution and push
        certificates, which together imply it.
        """
        if gcd(*alpha) != 1:
            raise ValueError("reflection vector must be primitive")
        pairings = exact.mat_vec(self.ctx._gram_rows, alpha)
        if exact.dot(pairings, alpha) != -6:
            raise ValueError("reflection vector must have square -6")
        if any(p % 3 for p in pairings):
            raise ValueError("reflection does not preserve the lattice")
        rows = []
        for i, p in enumerate(pairings):
            img = [p // 3 * x for x in alpha]
            img[i] += 1
            rows.append(tuple(img))
        rows = tuple(rows)
        try:
            action = CurveAction.of(rows, "phi")
        except ValueError:
            action = None
        certify(action is not None, "a reflection must preserve the intersection form")
        return _acting(Isometry(rows, "phi"), action)

    @cached_property
    def _discriminant_generators(self) -> tuple[list[list[int]], int]:
        """Generators of the discriminant group as integer rows over a common
        denominator, built on first use: only `discriminant_action` reads them."""
        return lattices.discriminant_form_from_gram(self.ctx.gram)[1]

    def discriminant_action(self, iso: Isometry) -> str:
        gens, den = self._discriminant_generators
        plus = minus = True
        for gvec in gens:
            image = iso.apply(gvec)
            if any((a - b) % den for a, b in zip(image, gvec)):
                plus = False
            if any((a + b) % den for a, b in zip(image, gvec)):
                minus = False
        if plus:
            return "+1"
        if minus:
            return "-1"
        return "other"

    def height(self, vec) -> int:
        """<vec, omega>: `exact.dot` stops at the 16 basis pairings of
        omega, which are G omega."""
        return exact.dot(vec, curve_frame().omega_pairings)

    def descend(self, gamma):
        """Greedy descent to the chamber of the Weyl projection.

        gamma is an iterable of isometries whose product, left to right as
        in `compose`, is reduced without forming its matrix; an isometry
        is descended as the one-letter word [gamma], so it must be one
        (ValueError otherwise). Returns (word, residual, heights): applying
        the word after gamma fixes the Weyl projection, the residual must
        land in the 240-element symmetry group, and heights[k] is the
        height after k letters. A word past 10000 letters raises RuntimeError.

        The product runs in curve-pairing coordinates: the packed pairings
        of the identity, moved by the `curve_action` of every letter. u
        holds the pairings of v, the image of the Weyl projection, with the
        curves, and moves with the same actions; it starts, with the height
        of the identity, at `descent_start`. The descent crosses walls:
        each wall generator b, an involution with wall vector r and push
        k > 0, has b(omega) = omega + k r (certified on the worked
        generators, inherited by their conjugates), so the height of b(v)
        is <v, b^-1(omega)> = h + k <v, r>, and b lowers it exactly when v
        lies on the wrong side of its wall, <v, r> < 0. `scan`
        (`DescentScan`) finds the first such letter and <v, r>, the basis
        pairings u[:16] against r, sixteen walls to a big-int sum. Every
        letter is a certified isometry, so the product's entries are capped
        by its height (`CurveFrame.entry_cap`), and that cap alone sizes its
        slots. omega is the sum of the twenty curves (certified in
        `CurveFrame`), so the height of v is sum(u), read after each letter
        whose action has combinations. A letter with none permutes the
        curves, so b^-1 fixes omega: <b(v), omega> = <v, b^-1(omega)> = h,
        and the height and its cap carry over.

        The residual is a symmetry read off K and the final height
        (`residual`), or else the word replayed through `compose`. gamma
        is read once, so the replay sees the letters the descent moved.
        """
        frame = curve_frame()
        entry_cap = frame.entry_cap
        letters = (gamma,) if isinstance(gamma, Isometry) else tuple(gamma)
        product = frame.identity_pairings.copy()
        u, h = self.descent_start
        cap = entry_cap(h)
        for b in letters:
            action = b.curve_action
            u = action(u)
            if action.combos:
                h = sum(u)
                cap = entry_cap(h)
            product.act(action, cap)
        heights = [h]
        word: list[str] = []
        while (hit := self.scan.first_hit(u)) is not None:
            k, e = hit
            name, iso, push = self.descent[k]
            h += push * e
            action = iso.curve_action
            product.act(action, entry_cap(h))
            u = action(u)
            word.append(name)
            heights.append(h)
            if len(word) > 10000:
                raise RuntimeError("height descent failed to terminate")
        residual = self.residual(product, h)
        if residual is None:
            residual = Isometry(compose(*letters, *map(self.registry.get, word)).matrix, "residual")
        return word, residual, heights

    def residual(self, product: PackedProduct, height: int) -> Isometry | None:
        """The chamber symmetry whose curve pairings K are packed, or None.

        A symmetry fixes omega, so its height is that of `descent_start`.
        At that height K is re-packed off the key width at the cap of its
        height, where packing is injective: if column c of K is the key of
        curve src[c] for the `curve_action.src` of a certified symmetry s,
        then K = K(s) and M = s.matrix, one lookup. product is left as it is.
        """
        if height != self.descent_start[1]:
            return None
        frame = curve_frame()
        if product.width != frame.key_width:
            product = PackedProduct(product.columns(), frame.entry_cap(height))
        matrix = self._symmetry_by_src.get(tuple(map(frame.curve_keys.get, product.cols)))
        return None if matrix is None else Isometry(matrix, "residual")

    def reduce_height(self, gamma: Isometry):
        """(word, residual) of `descend`."""
        return self.descend(gamma)[:2]

    def classify_symmetry(self, iso: Isometry) -> str | None:
        return self.symmetries.get(iso.matrix)


@cache
def autctx() -> AutContext:
    return AutContext()


# --- module-level conveniences -------------------------------------------------


def reduce_height(gamma: Isometry):
    return autctx().reduce_height(gamma)
