"""Two-torsion geometry of a genus-2 Jacobian over F_2.

The sixteen 2-torsion points are labelled by the empty set and the 2-subsets
of {1..6} (a subset is identified with its complement, addition is symmetric
difference). The symplectic form counts common indices mod 2. Theta divisors
carry the same sixteen labels; tetrads, Weber hexads, and the pentahedral
dictionary that renames the ten nodes and ten lines of the Hessian quartic
all live here.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from itertools import combinations, product
from operator import itemgetter
from typing import FrozenSet, Iterable, Sequence

from .checks import certify

Label = FrozenSet[int]

EMPTY: Label = frozenset()


def reduce_label(s: Iterable[int]) -> Label:
    """Canonical representative of size <= 2 under complementation."""
    s = frozenset(s)
    if len(s) > 3:
        s = frozenset(range(1, 7)) - s
    if len(s) not in (0, 2):
        raise ValueError(f"not a 2-torsion label: {sorted(s)}")
    return s


def add(a: Iterable[int], b: Iterable[int]) -> Label:
    return reduce_label(frozenset(a) ^ frozenset(b))


def label_name(a: Label) -> str:
    return "0" if not a else "".join(str(i) for i in sorted(a))


ALL_POINTS: tuple[Label, ...] = (EMPTY,) + tuple(
    frozenset(p) for p in combinations(range(1, 7), 2)
)


# --- the model symplectic space: 2x2 bit matrices -----------------------------
#
# eps is the first row, eta the second (the reading under which the four
# base assignments below preserve the pairing); encoded as 4-bit ints with
# bits (eps1, eps2, eta1, eta2) in row-major order

PSI_BASE = {
    frozenset({1, 2}): 1,  # [[1,0],[0,0]]
    frozenset({3, 4}): 2,  # [[0,1],[0,0]]
    frozenset({1, 6}): 4,  # [[0,0],[1,0]]
    frozenset({4, 5}): 8,  # [[0,0],[0,1]]
}


def pair_bits(v: int, w: int) -> int:
    """eps_v . eta_w + eta_v . eps_w over F_2."""
    return (
        (v & 1 and w >> 2 & 1)
        ^ (v >> 1 & 1 and w >> 3 & 1)
        ^ (v >> 2 & 1 and w & 1)
        ^ (v >> 3 & 1 and w >> 1 & 1)
    )


@cache
def psi_table() -> dict[Label, int]:
    """Linear extension of the four base assignments; a bijection."""
    base = list(PSI_BASE.items())
    table: dict[Label, int] = {}
    for coeffs in product((0, 1), repeat=4):
        point = EMPTY
        image = 0
        for c, (lab, bits) in zip(coeffs, base):
            if c:
                point = add(point, lab)
                image ^= bits
        table[point] = image
    certify(len(set(table.values())) == 16, "psi must be a bijection")
    return table


def psi(a: Label) -> tuple[tuple[int, int], tuple[int, int]]:
    """The 2x2 bit matrix of a 2-torsion point."""
    return bits_matrix(psi_table()[a])


def bits_matrix(v: int) -> tuple[tuple[int, int], tuple[int, int]]:
    return ((v & 1, v >> 1 & 1), (v >> 2 & 1, v >> 3 & 1))


def matrix_bits(m: Sequence[Sequence[int]]) -> int:
    return m[0][0] | m[0][1] << 1 | m[1][0] << 2 | m[1][1] << 3


# --- theta divisors ----------------------------------------------------------

THETA_STEP = tuple(frozenset(s) for s in ((), (1, 6), (2, 6), (3, 6), (4, 6), (5, 6)))


@cache
def theta_contains(beta: Label, alpha: Label) -> bool:
    return add(alpha, beta) in THETA_STEP


def theta_characteristic(s: Iterable[int]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Characteristic of the divisor indexed by an odd partition class."""
    s = frozenset(s)
    if len(s) % 2 == 0:
        raise ValueError("theta characteristics are indexed by odd-size subsets")
    return psi(reduce_label(s ^ frozenset({1, 3, 5})))


def theta_characteristic_of_label(beta: Label) -> tuple[tuple[int, int], tuple[int, int]]:
    return theta_characteristic(frozenset(beta) ^ frozenset({6}))


# the two classical 4x4 tables: entry (a, b) = U1[a] + U2[b]
MU_TABLE: tuple[tuple[Label, ...], ...] = tuple(
    tuple(
        add(u1, u2)
        for u2 in (EMPTY, frozenset({4, 5}), frozenset({3, 4}), frozenset({3, 5}))
    )
    for u1 in (EMPTY, frozenset({1, 6}), frozenset({1, 2}), frozenset({2, 6}))
)

THETA_TABLE: tuple[tuple[Label, ...], ...] = (
    (frozenset({1, 2}), frozenset({3, 6}), frozenset({5, 6}), frozenset({4, 6})),
    (frozenset({2, 6}), frozenset({1, 3}), frozenset({1, 5}), frozenset({1, 4})),
    (EMPTY, frozenset({4, 5}), frozenset({3, 4}), frozenset({3, 5})),
    (frozenset({1, 6}), frozenset({2, 3}), frozenset({2, 5}), frozenset({2, 4})),
)


# --- tetrads and Weber hexads ------------------------------------------------


@cache
def tetrads() -> tuple[tuple[frozenset[Label], ...], tuple[frozenset[Label], ...]]:
    """(odd, even) tetrads: 4-point affine planes, split by isotropy."""
    psi_t = psi_table()
    ints = sorted(psi_t.values())
    by_int = {v: k for k, v in psi_t.items()}
    odd, even = [], []
    for four in combinations(ints, 4):
        a, b, c, d = four
        if a ^ b ^ c ^ d:
            continue
        u, v = a ^ b, a ^ c
        isotropic = not (pair_bits(u, v) or pair_bits(u, a ^ d) or pair_bits(v, a ^ d))
        labels = frozenset(by_int[x] for x in four)
        (odd if isotropic else even).append(labels)
    return tuple(odd), tuple(even)


@cache
def weber_hexads() -> tuple[frozenset[Label], ...]:
    """Symmetric differences of odd/even tetrads sharing one point."""
    odd, even = tetrads()
    out = set()
    for o in odd:
        for e in even:
            if len(o & e) == 1:
                out.add(frozenset(o ^ e))
    return tuple(sorted(out, key=lambda h: sorted(map(label_name, h))))


PINNED_HEXAD: frozenset[Label] = frozenset(
    {
        EMPTY,
        frozenset({2, 3}),
        frozenset({3, 4}),
        frozenset({2, 5}),
        frozenset({1, 5}),
        frozenset({1, 4}),
    }
)

# the five 4-packets of 3-point divisors for the pinned hexad, in the
# order that fixes the face numbering of the pentahedron
PINNED_PACKETS: tuple[tuple[Label, ...], ...] = tuple(
    tuple(frozenset(x) for x in packet)
    for packet in (
        ({5, 6}, {4, 6}, {1, 5}, {1, 4}),
        ({1, 4}, {3, 6}, {1, 6}, {3, 4}),
        ({2, 3}, {2, 5}, {5, 6}, {3, 6}),
        ({2, 3}, {2, 6}, {3, 4}, {4, 6}),
        ({2, 6}, {1, 6}, {2, 5}, {1, 5}),
    )
)


def hexad_profile(h: frozenset[Label]) -> tuple[tuple[Label, ...], tuple[tuple[Label, ...], ...]]:
    """(ten divisors meeting h in 3 points, five 4-packets covering h twice).

    Every other divisor meets the hexad in exactly one point. For the
    pinned hexad the packets come back in the fixed face order; otherwise
    they are sorted canonically.
    """
    if len(h) != 6:
        raise ValueError("hexads have six points")
    three, rest = [], []
    for beta in ALL_POINTS:
        k = sum(1 for a in h if theta_contains(beta, a))
        (three if k == 3 else rest).append((beta, k))
    if len(three) != 10 or any(k != 1 for _, k in rest):
        raise ValueError("not a Weber hexad: bad divisor profile")
    ten = [beta for beta, _ in three]
    packets = []
    for four in combinations(ten, 4):
        cover = {a: 0 for a in h}
        for beta in four:
            for a in h:
                if theta_contains(beta, a):
                    cover[a] += 1
        if all(v == 2 for v in cover.values()):
            packets.append(frozenset(four))
    if len(packets) != 5:
        raise ValueError("expected exactly five double-cover packets")
    if h == PINNED_HEXAD:
        certify({frozenset(p) for p in PINNED_PACKETS} == set(packets),
                "the pinned packets must be the double-cover packets of the pinned hexad")
        ordered = PINNED_PACKETS
    else:
        ordered = tuple(
            tuple(sorted(p, key=label_name)) for p in sorted(packets, key=lambda p: sorted(map(label_name, p)))
        )
    ten_ordered: list[Label] = []
    for packet in ordered:
        for beta in packet:
            if beta not in ten_ordered:
                ten_ordered.append(beta)
    return tuple(ten_ordered), ordered


def pentahedral_dictionary(
    h: frozenset[Label] = PINNED_HEXAD,
) -> tuple[dict[Label, frozenset[int]], dict[Label, frozenset[int]]]:
    """Faces of the pentahedron carried by each line and node label.

    Lines are the ten 3-point divisors: a line belongs to the two packets
    (faces) containing it. Nodes are the ten non-hexad points: a node
    accumulates the faces of its three incident lines, which must agree in
    a 3-set. Each face ends up with 4 lines and 4 complementary nodes.
    """
    ten, packets = hexad_profile(h)
    line_faces: dict[Label, frozenset[int]] = {}
    for beta in ten:
        faces = frozenset(i + 1 for i, packet in enumerate(packets) if beta in packet)
        if len(faces) != 2:
            raise ValueError(f"divisor {label_name(beta)} lies in {len(faces)} packets")
        line_faces[beta] = faces
    node_faces: dict[Label, frozenset[int]] = {}
    for alpha in ALL_POINTS:
        if alpha in h:
            continue
        incident = [beta for beta in ten if theta_contains(beta, alpha)]
        if len(incident) != 3:
            raise ValueError(f"node {label_name(alpha)} lies on {len(incident)} lines")
        counts: dict[int, int] = {}
        for beta in incident:
            for f in line_faces[beta]:
                counts[f] = counts.get(f, 0) + 1
        if sorted(counts.values()) != [2, 2, 2]:
            raise ValueError(f"inconsistent face triple at node {label_name(alpha)}")
        node_faces[alpha] = frozenset(counts)
    for face in range(1, 6):
        certify(sum(1 for fs in line_faces.values() if face in fs) == 4,
                f"face {face} must carry four lines")
        certify(sum(1 for fs in node_faces.values() if face not in fs) == 4,
                f"face {face} must miss four nodes")
    return line_faces, node_faces


# --- the affine symplectic group ---------------------------------------------


@cache
def symplectic_linear_parts() -> tuple[tuple[int, ...], ...]:
    """The 720 elements of Sp(4,2), each as its images of the four unit vectors.

    The images are chosen one at a time, each among the columns with the
    right pairings against those already chosen; the pairing matrix is
    nondegenerate, so every such choice is invertible. Each partial choice is
    extended in increasing order, so the tuples come in lexicographic order.
    """
    units = (1, 2, 4, 8)
    pairs = [[pair_bits(v, w) for w in range(16)] for v in range(16)]
    linear = [()]
    for i, unit in enumerate(units):
        want = [pairs[u][unit] for u in units[:i]]
        linear = [cols + (c,) for cols in linear for c in range(16)
                  if [pairs[d][c] for d in cols] == want]
    certify(len(linear) == 720, "Sp(4,2) has order 720")
    return tuple(linear)


def affine_group_order() -> int:
    """The order of the affine symplectic group, 16 * |Sp(4,2)|: (L, t) ->
    (p -> Lp + t) is a bijection onto the group, as t is the image of 0 and
    L's columns are the images of the unit vectors plus t."""
    return 16 * len(symplectic_linear_parts())


@cache
def affine_symplectic_group() -> tuple[tuple[int, ...], ...]:
    """All 11520 affine symplectic permutations of the 16 points (as ints),
    the 16 translates of each linear part in turn."""
    # translate t sends point p to p ^ t; a linear part's 16 translates are
    # its images looked up in each translation
    translations = [tuple(p ^ t for p in range(16)) for t in range(16)]
    perms = []
    for cols in symplectic_linear_parts():
        images = [0] * 16
        for p in range(1, 16):
            low = p & -p  # p is p ^ low plus the unit vector low
            images[p] = images[p ^ low] ^ cols[low.bit_length() - 1]
        perms += map(itemgetter(*images), translations)
    certify(len(set(perms)) == affine_group_order(),
            "the affine symplectic group has order 11520")
    return tuple(perms)


def hexad_orbit_and_stabilizer(h: frozenset[Label]) -> tuple[int, int]:
    """Orbit size and stabilizer order of a set of points under the affine
    symplectic group, with no table of the group.

    (L, t) fixes h exactly when L(h) is the translate h + t, so the
    stabilizer order is the sum over the 720 linear parts L of the number
    of translations t with h + t = L(h); the orbit is the group order over
    it (orbit-stabilizer).
    """
    psi_t = psi_table()
    points = [psi_t[a] for a in h]
    # the 16-bit mask of each translate h + t, with the number of t giving it
    translates = Counter(sum(1 << (p ^ t) for p in points) for t in range(16))
    # L(p) is the sum of the columns of L at the set bits of p
    bits = [[i for i in range(4) if p >> i & 1] for p in points]
    stab = 0
    for cols in symplectic_linear_parts():
        image = 0
        for b in bits:
            x = 0
            for i in b:
                x ^= cols[i]
            image |= 1 << x
        stab += translates[image]
    order = affine_group_order()
    certify(stab and order % stab == 0, "a stabilizer order must divide the group order")
    return order // stab, stab
