"""Batch verification driver.

The constructors certify the facts they rely on; each suite certifies
the rest, reporting one line per check, and `verify all` reports the
suites in a fixed order. Exit status is 0 when everything passes, 1 on a
failed check or a failed constructor certification (reported on stderr
as `certification failed: <message>`), 2 on usage errors. With --json a
single machine-readable document is printed; equal seeds give
byte-identical documents.

`verify all` builds the construction once, then forks one child for the
group suites (generators, reduce) while it runs the lattice suites
itself; the child hands its checks back over a pipe, so the report and
the exit status are those of the ten suites run one after another. A
single suite, or a process with live threads, runs in-process.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import threading
import time
from collections import Counter
from functools import cache
from itertools import combinations
from math import comb, gcd

from . import lattices, leech, weber
from .checks import CertificationError, certify
from .golay import golay_code, mask_points, steiner_system
from .hessian import (
    COMPLEMENT_OCTADS,
    CURVE_NAMES,
    CURVE_OCTADS,
    LINE_NAMES,
    NODE_NAMES,
    expected_base_gram,
    base_root_gram,
    BASE_ROOT_ORDER,
    incidence,
    pencil_catalog,
    petersen_graph_data,
    picard,
    relation_checks,
)
from .lorentz import bilinear, weyl_vector
from .autgroup import (
    D1_EXPR,
    D3_EXPR,
    PUSH_MULTIPLES,
    WALL_1A_EXAMPLE_OCTAD,
    WALL_1A_EXPR,
    WALL_1A_OCTADS,
    WALL_2_EXAMPLE_OCTAD,
    WALL_2_EXPR,
    WALL_3A_EXPR,
    WALL_3A_KS_FIRST,
    WALL_3B_OCTADS_FIRST,
    SKEW_LINE_TABLE,
    Isometry,
    autctx,
    classify_wall_root,
    compose,
    relabel,
    table_isometry,
)

def _check(checks: list, cid: str, expected, actual, ref: str):
    """Append one reported fact, as the report's own dict: its id, pass or
    fail, the expected and actual values as strings, and what it refers to."""
    checks.append({"id": cid, "status": "pass" if expected == actual else "fail",
                   "expected": str(expected), "actual": str(actual), "ref": ref})


# --- suites -------------------------------------------------------------------


@cache
def _disc_form_T() -> lattices.FiniteQuadraticForm:
    return lattices.discriminant_form(picard().lattice_T)


@cache
def _model_form() -> lattices.FiniteQuadraticForm:
    """The A2(-2)+U(2) form that q(T) is checked against."""
    return lattices.direct_sum(
        lattices.discriminant_form_from_gram(lattices.standard_gram("A2(-2)"))[0],
        lattices.discriminant_form_from_gram(lattices.standard_gram("U(2)"))[0],
    )


def golay_suite(seed: int) -> list:
    checks: list = []
    system = steiner_system()
    _check(checks, "golay.octad-count", 759, len(system), "S(5,8,24) octad count")
    sizes = system.pair_intersection_sizes()
    # 759 octads of 8 points hold 759 * C(8, 5) = C(24, 5) five-sets, all distinct
    _check(checks, "golay.five-subset-cover", (comb(24, 5), {1}),
           system.five_subset_cover(sizes), "every 5-set in exactly one octad")
    named = list(COMPLEMENT_OCTADS.values()) + list(CURVE_OCTADS.values())
    named += list(WALL_1A_OCTADS) + [WALL_2_EXAMPLE_OCTAD] + list(WALL_3B_OCTADS_FIRST)
    _check(checks, "golay.named-octads", len(named),
           sum(1 for k in named if system.is_octad(k)), "all pinned 8-sets are octads")
    _check(checks, "golay.pair-intersections", {0, 2, 4}, sizes,
           "octad pairs meet in 0, 2 or 4 points")
    code = golay_code()
    _check(checks, "golay.code-size", 4096, len(code), "F2-span of the octads")
    counts = Counter(w.bit_count() for w in code)
    weights = sorted((counts[k], k) for k in (0, 8, 12, 16, 24))
    _check(checks, "golay.weight-distribution",
           [(1, 0), (1, 24), (759, 8), (759, 16), (2576, 12)], sorted(weights),
           "weight enumerator of the code")
    return checks


def leech_suite(seed: int) -> list:
    checks: list = []
    rng = random.Random(seed)
    masks = steiner_system().masks
    gens = [leech.generator_minus_three()] + [leech.two_nu(mask_points(m)) for m in masks[:4]]
    _check(checks, "leech.generators-contained", True,
           all(leech.contains(g) for g in gens), "stated generators pass membership")
    named_ok = all(leech.contains(leech.two_nu(k)) for k in CURVE_OCTADS.values())
    _check(checks, "leech.curve-vectors-contained", True, named_ok,
           "twenty curve vectors are lattice members")
    members = []
    for _ in range(200):
        v = leech.ZERO
        for _ in range(3):
            c = rng.randint(-2, 2)  # drawn before the octad: the seeded order
            octad = mask_points(masks[rng.randrange(759)])
            v = leech.vadd(v, leech.vscale(c, leech.two_nu(octad)))
        members.append(v)
    closure = all(leech.contains(v) for v in members) and all(
        leech.contains(leech.vadd(members[i], members[-i - 1])) for i in range(100)
    )
    _check(checks, "leech.closure", True, closure, "membership closed under sums")
    base = leech.two_nu(CURVE_OCTADS["N16"])
    _check(checks, "leech.minimal-norm", -4, leech.inner(base, base),
           "doubled octads have inner product -4")
    spiky = leech.vadd(leech.vscale(4, leech.nu([-1])), leech.NU_OMEGA)
    _check(checks, "leech.norm-six-vector", -6, leech.inner(spiky, spiky),
           "the chain-end vectors have inner product -6")
    rule_ok = True
    for a, b in combinations(CURVE_NAMES, 2):
        d = leech.vsub(leech.two_nu(CURVE_OCTADS[a]), leech.two_nu(CURVE_OCTADS[b]))
        cls = leech.shape_class(d)
        want = "norm6" if incidence(a, b) == 1 else "norm4"
        rule_ok = rule_ok and cls == want
    _check(checks, "leech.pair-rule-vs-incidence", True, rule_ok,
           "norm 4/6 differences track curve incidence")
    return checks


def embedding_suite(seed: int) -> list:
    checks: list = []
    gram = [list(row) for row in base_root_gram()]
    _check(checks, "embedding.base-diagram", expected_base_gram(), gram,
           "chain x-z-y-r0-x0 plus five isolated roots")
    ctx = picard()
    _check(checks, "embedding.R-rank", 10, ctx.lattice_R.rank, "root lattice rank")
    # R and R0 are spanned by the base roots, with and without r0
    _check(checks, "embedding.R-type", "A5+5A1", lattices.root_type(gram),
           "root count 30+10 decomposition")
    keep = [i for i, k in enumerate(BASE_ROOT_ORDER) if k != "r0"]
    _check(checks, "embedding.R0-type", "A3+6A1",
           lattices.root_type([[gram[i][j] for j in keep] for i in keep]),
           "pre-glue root lattice type")
    _check(checks, "embedding.T-index-two", 4,
           ctx.lattice_R.disc_order() // ctx.lattice_T.disc_order(),
           "glue vector halves the discriminant twice")
    _check(checks, "embedding.T-primitive", True, lattices.is_primitive(ctx.lattice_T),
           "T is primitively embedded")
    _check(checks, "embedding.T-disc-form", True,
           lattices.fqf_isomorphic(_disc_form_T(), _model_form()),
           "disc form of T matches A2(-2)+U(2)")
    return checks


def curves_suite(seed: int) -> list:
    checks: list = []
    ctx = picard()
    tvecs = list(ctx.roots.values()) + [ctx.theta]
    orth = all(
        bilinear(r, t) == 0 for r in ctx.curve_roots.values() for t in tvecs
    )
    _check(checks, "curves.orthogonal-to-T", True, orth,
           "twenty curve roots annihilate T")
    span = lattices.span(ctx.curve_roots.values())
    _check(checks, "curves.span-index-one", True, span.rows == ctx.lattice_SH.rows,
           "curves generate the full Picard lattice")
    gram_ok = all(
        bilinear(ctx.curve_roots[a], ctx.curve_roots[b]) == incidence(a, b)
        for a in CURVE_NAMES for b in CURVE_NAMES
    )
    _check(checks, "curves.gram-equals-incidence", True, gram_ok,
           "Leech pairings equal the symmetric-difference rule")
    _check(checks, "curves.petersen", (3, 15, 5), petersen_graph_data(),
           "quotient meet graph is the Petersen graph")
    _check(checks, "curves.weyl-projection", True,
           ctx.project(weyl_vector()) == (ctx.omega_prime, 1),
           "Weyl vector projects to the sum of all curves")
    _check(checks, "curves.weyl-square", 20, ctx.inner(ctx.omega_prime, ctx.omega_prime),
           "square of the projected Weyl vector")
    return checks


def picard_suite(seed: int) -> list:
    checks: list = []
    ctx = picard()
    _check(checks, "picard.rank", 16, ctx.lattice_SH.rank, "Picard rank")
    _check(checks, "picard.disc-order", 48, ctx.lattice_SH.disc_order(),
           "discriminant group order 2^4*3")
    _check(checks, "picard.primitive", True, lattices.is_primitive(ctx.lattice_SH),
           "orthogonal complements are primitive")
    q_sh = lattices.discriminant_form(ctx.lattice_SH)
    _check(checks, "picard.duality", True,
           lattices.fqf_isomorphic(q_sh, lattices.negated(_disc_form_T())),
           "q(SH) is the negative of q(T)")
    _check(checks, "picard.disc-form-model", True,
           lattices.fqf_isomorphic(q_sh, lattices.negated(_model_form())),
           "q(SH) matches the negated A2(-2)+U(2) form")
    _check(checks, "picard.eta-squares", (4, 4, 6),
           (ctx.inner(ctx.eta_h, ctx.eta_h), ctx.inner(ctx.eta_s, ctx.eta_s),
            ctx.inner(ctx.eta_h, ctx.eta_s)),
           "hyperplane class intersections")
    return checks


def pencils_suite(seed: int) -> list:
    checks: list = []
    rels = relation_checks()
    named = {name: ok for name, ok in rels}
    groups = {
        "pencils.hyperplane-relations": [k for k in named if k.startswith("hyperplane") or k == "pullback-diagonal"],
        "pencils.face-differences": [k for k in named if k.startswith("face-difference")],
        "pencils.conic-identities": [k for k in named if k.startswith("conic")],
        "pencils.cubic-identities": [k for k in named if k.startswith("cubic")],
        "pencils.half-pencils": [k for k in named if k.startswith("half-pencil")],
        "pencils.torsion-type2": ["torsion-type2", "group-law-type2"],
        "pencils.torsion-type3": ["torsion-type3"],
        "pencils.vertical-sections": [k for k in named if k.endswith("vertical")],
    }
    for cid, keys in groups.items():
        _check(checks, cid, len(keys), sum(1 for k in keys if named[k]),
               "displayed identities hold exactly")
    pencils = pencil_catalog()
    kinds = {
        "type1": len([p for p in pencils if p.name.startswith("type1")]),
        "type2": len([p for p in pencils if p.name.startswith("type2")]),
        "type3": len([p for p in pencils if p.name.startswith("type3")]),
    }
    _check(checks, "pencils.catalog", {"type1": 10, "type2": 2, "type3": 31}, kinds,
           "all cataloged pencils verified")
    return checks


def weber_suite(seed: int) -> list:
    checks: list = []
    odd, even = weber.tetrads()
    _check(checks, "weber.tetrad-counts", (60, 80), (len(odd), len(even)),
           "odd and even tetrads")
    hexads = weber.weber_hexads()
    _check(checks, "weber.hexad-count", 192, len(hexads), "Weber hexads")
    # each divisor and each hexad as a 16-bit mask of the points
    bit = {a: 1 << i for i, a in enumerate(weber.ALL_POINTS)}
    divisors = [sum(bit[a] for a in weber.ALL_POINTS if weber.theta_contains(beta, a))
                for beta in weber.ALL_POINTS]
    profile_ok = all(
        sorted((d & sum(map(bit.get, h))).bit_count() for d in divisors) == [1] * 6 + [3] * 10
        for h in hexads
    )
    _check(checks, "weber.ten-triple-divisors", True, profile_ok,
           "each divisor meets a hexad in 3 or 1 points")
    _check(checks, "weber.group-order", 11520, weber.affine_group_order(),
           "affine symplectic group order")
    orbit, stab = weber.hexad_orbit_and_stabilizer(weber.PINNED_HEXAD)
    _check(checks, "weber.orbit-stabilizer", (192, 60), (orbit, stab),
           "transitive action with stabilizer of order 60")
    ten, packets = weber.hexad_profile(weber.PINNED_HEXAD)
    _check(checks, "weber.pinned-packets", True, packets == weber.PINNED_PACKETS,
           "five 4-packets of the pinned hexad")
    expected_ten = tuple(
        frozenset(s) for s in ({5, 6}, {4, 6}, {1, 5}, {1, 4}, {3, 6}, {1, 6}, {3, 4}, {2, 3}, {2, 5}, {2, 6})
    )
    _check(checks, "weber.pinned-ten", True, ten == expected_ten,
           "first-appearance order of the ten divisors")
    tables_ok = True
    for a in range(4):
        for b in range(4):
            beta = weber.THETA_TABLE[a][b]
            for c in range(4):
                for d in range(4):
                    alpha = weber.MU_TABLE[c][d]
                    want = (a == c or b == d) and (a, b) != (c, d)
                    tables_ok = tables_ok and weber.theta_contains(beta, alpha) == want
    _check(checks, "weber.tables-consistent", True, tables_ok,
           "cross-incidence of the two 4x4 tables")
    ctx = picard()
    transported_ok = all(
        int(ctx.line_faces[l] <= ctx.node_faces[n]) == incidence(n, l)
        for n in NODE_NAMES for l in LINE_NAMES
    )
    _check(checks, "weber.dictionary-incidence", True, transported_ok,
           "pentahedral dictionary reproduces curve incidence")
    packets_zero = True
    for packet in weber.PINNED_PACKETS:
        total = 0
        for beta in packet:
            total ^= weber.matrix_bits(weber.theta_characteristic_of_label(beta))
        packets_zero = packets_zero and total == 0
    _check(checks, "weber.packet-characteristics", True, packets_zero,
           "characteristics of each packet sum to zero")
    return checks


def walls_suite(seed: int) -> list:
    from fractions import Fraction  # the report prints the projection norms as rationals
    checks: list = []
    a = autctx()
    walls = a.walls
    # each search's case and projection, and the root type of R + Zr
    for w in [w for ws in walls.values() for w in ws]:
        c = classify_wall_root(w.root, (w.vec, w.den))
        certify(c.case == w.case, f"the wall {w.key} classifies as case {c.case}")
    _check(checks, "walls.counts", [12, 10, 15, 15],
           [len(walls[c]) for c in ("1a", "2", "3a", "3b")],
           "boundary wall counts by case")

    def lam_octad(w, values=(-1, 3)):
        return frozenset(i - 1 for i, x in enumerate(w.root.lam) if x in values)

    _check(checks, "walls.case1a-octads", True,
           {lam_octad(w) for w in walls["1a"]} == set(WALL_1A_OCTADS),
           "the twelve listed octads")
    _check(checks, "walls.case2-pairs", True,
           sorted(w.key[1:] for w in walls["2"]) == [
               (i, j) for i in range(1, 6) for j in range(i + 1, 6)
           ],
           "exactly one wall per index pair")
    _check(checks, "walls.case3a-ks", list(WALL_3A_KS_FIRST),
           sorted(w.key[2] for w in walls["3a"] if w.key[1] == 1),
           "first-index wall positions")
    got_3b = {lam_octad(w, values=(-1,)) | {0} for w in walls["3b"] if w.key[1] == 1}
    _check(checks, "walls.case3b-octads", True, got_3b == set(WALL_3B_OCTADS_FIRST),
           "the three listed first-index octads")
    ctx = picard()
    norms = {
        c: {Fraction(ctx.inner(w.vec, w.vec), w.den ** 2) for w in ws} for c, ws in walls.items()
    }
    _check(checks, "walls.projection-norms",
           {"1a": {Fraction(-2, 3)}, "2": {Fraction(-1)}, "3a": {Fraction(-2, 3)},
            "3b": {Fraction(-2, 3)}},
           norms, "squares of the wall projections")
    # (den, square of vec) by case; den least does not make vec primitive
    scaled = {"1a": (3, -6), "2": (2, -4), "3a": (6, -24)}
    scaled_ok = all(
        (w.den, ctx.inner(w.vec, w.vec)) == scaled[c] and (c == "2" or gcd(*w.vec) == 1)
        for c in scaled for w in walls[c]
    )
    _check(checks, "walls.scaled-vectors", True, scaled_ok,
           "(-6)-roots, (-4)-roots, primitive (-24)-vectors")
    w1a = next(w for w in walls["1a"] if lam_octad(w) == WALL_1A_EXAMPLE_OCTAD)
    w2 = next(w for w in walls["2"] if lam_octad(w, (2,)) == WALL_2_EXAMPLE_OCTAD)
    w3a = next(w for w in walls["3a"] if w.key[1:] == (1, WALL_3A_KS_FIRST[0]))
    # vec / den equals the expansion coeffs / den_e, entry by entry
    worked = ((w1a, WALL_1A_EXPR), (w2, WALL_2_EXPR), (w3a, WALL_3A_EXPR))
    _check(checks, "walls.worked-expansions", (True, True, True),
           tuple(all(den_e * x == w.den * y for x, y in zip(w.vec, ctx.resolve(coeffs)))
                 for w, (coeffs, den_e) in worked),
           "curve-basis expansions of the worked walls")
    return checks


def generators_suite(seed: int) -> list:
    checks: list = []
    a = autctx()
    per_case = {}
    # on the certified actions: the curves span, so pairings fix a class
    u_omega = a.descent_start[0]
    for case, pairs in a.wall_generators.items():
        ok = True
        for w, iso in pairs:
            u = w.pairings
            ok = ok and iso.is_involution()
            ok = ok and iso.curve_action(u) == [-x for x in u]
            # the push b(omega) = omega + m r1, times den
            ok = ok and all(w.den * (y - o) == PUSH_MULTIPLES[case] * x
                            for y, o, x in zip(iso.curve_action(u_omega), u_omega, u))
            ok = ok and a.discriminant_action(iso) in ("+1", "-1")
        per_case[case] = ok
    _check(checks, "generators.wall-involutions",
           {c: True for c in per_case}, per_case,
           "involution, wall reflection, push identity, disc action")
    _check(checks, "generators.count", 64, len(a.descent), "10+12+15 plus conjugates")
    _check(checks, "generators.tau-disc", "-1", a.discriminant_action(a.tau),
           "the swap involution negates the discriminant")
    p12, p35, p16, p36 = (a.projections[n] for n in ("N12", "N35", "N16", "N36"))
    skew = table_isometry(SKEW_LINE_TABLE, "skew")
    _check(checks, "generators.skew-composite", True,
           compose(p36, p16, a.tau).same_matrix(skew),
           "skew-line involution equals tau*p16*p36")
    ctx = picard()
    f15 = ctx.type1_pencil("T15").fiber
    f25 = ctx.type1_pencil("T25").fiber
    preserving = [
        n for n in NODE_NAMES
        if a.projections[n].apply(f15) == f15 and a.projections[n].apply(f25) == f25
    ]
    _check(checks, "generators.two-pencil-projection", ["N56"], preserving,
           "only the shared-node projection preserves both pencils")
    _check(checks, "generators.g-factorization", True,
           compose(p12, p35, a.f).same_matrix(a.g),
           "symmetrized inversion factors through the plain one")
    p12_p35 = compose(p12, p35)
    _check(checks, "generators.translation-identity", True,
           compose(a.f, a.g).same_matrix(p12_p35),
           "two-torsion translation equals the projection product")
    skew_t26 = None
    for perm in sorted(a.s5):
        imgs = {frozenset(perm[i - 1] for i in (1, 5)), frozenset(perm[i - 1] for i in (3, 4))}
        if imgs == {frozenset({4, 5}), frozenset({1, 3})}:
            skew_t26 = relabel(skew, a.s5[perm], f"{a.s5[perm].name}.skew")
            break
    _check(checks, "generators.skew-translation", True,
           compose(skew_t26, a.tau).same_matrix(p12_p35),
           "projection product equals tau after the skew involution")
    # p tau = tau p exactly when tau p tau^-1 = p
    commute = all(
        relabel(p, a.tau, p.name).same_matrix(p) for p in a.projections.values()
    )
    _check(checks, "generators.tau-commutes", True, commute,
           "projections commute with the swap involution")
    _check(checks, "generators.symmetry-group", 240, len(a.symmetries),
           "chamber symmetries form Z/2 x S5")
    # a descent generator's matrix is its action's `inverse_rows`, so this binds
    # the two but checks no M G M^T = G alone; the dense check is
    # tests/test_autgroup.py::test_every_descent_generator_preserves_the_form_densely
    gram_ok = all(iso.curve_action.inverse_rows() == iso.matrix for _, iso, _ in a.descent)
    _check(checks, "generators.gram-preserved", True, gram_ok,
           "every descent generator preserves the intersection form")
    w3a = next(w for w in a.walls["3a"] if w.key[1:] == (1, 5))
    six_vec = [6 * x for x in w3a.vec]  # image = base + 6 r1, as den (image - base) = 6 vec
    t_sum = tuple(x + y for x, y in zip(ctx.curve("T26"), ctx.curve("T56")))
    _check(checks, "generators.inversion-asymmetry", (True, False),
           tuple([w3a.den * (y - x) for y, x in zip(b.apply(t_sum), t_sum)] == six_vec for b in (a.g, a.f)),
           "only the symmetrized inversion pushes the line pair")
    n_sum = tuple(x + y for x, y in zip(ctx.curve("N16"), ctx.curve("N36")))
    d1d3 = tuple(x + y for x, y in zip(ctx.resolve(D1_EXPR), ctx.resolve(D3_EXPR)))
    _check(checks, "generators.section-sum", True,
           [w3a.den * (y - x) for y, x in zip(d1d3, n_sum)] == six_vec,
           "the two moved sections sum to the pushed node pair")
    return checks


def suite_words(seed: int) -> list[list[str]]:
    """The 200 seeded words of `reduce.random-words`, as generator names."""
    a = autctx()
    rng = random.Random(seed)
    names = [n for n, _, _ in a.descent] + ["tau"] + [
        s.name for s in list(a.s5.values())[::7]
    ]
    return [[rng.choice(names) for _ in range(rng.randint(1, 12))] for _ in range(200)]


def reduce_suite(seed: int) -> list:
    checks: list = []
    a = autctx()
    word, residual = a.reduce_height(a.registry["p16"])
    _check(checks, "reduce.single-projection", (["p16"], "id"),
           (word, a.classify_symmetry(residual)), "one wall crossing undoes p16")
    word, residual = a.reduce_height(a.tau)
    _check(checks, "reduce.symmetry-fixed", ([], "tau"),
           (word, a.classify_symmetry(residual)), "symmetries are already reduced")
    all_ok = True
    floor_iff_ok = True
    for word in suite_words(seed):
        applied, residual, heights = a.descend([a.registry[n] for n in word])
        label = a.classify_symmetry(residual)
        # a label is one of the 240 symmetries; `reduce.height-floor` checks them
        all_ok = all_ok and label is not None
        if heights[0] == 20:
            # at the floor nothing is applied: the residual is the word's product
            floor_iff_ok = floor_iff_ok and not applied and label is not None
    _check(checks, "reduce.random-words", True, all_ok,
           "200 seeded words reduce into the 240-element group")
    _check(checks, "reduce.floor-only-on-symmetries", True, floor_iff_ok,
           "height 20 on a word forces membership in the group")
    heights_ok = all(
        a.height(iso.apply(a.omega)) > 20 for _, iso, _ in a.descent
    ) and all(
        a.height(Isometry(m).apply(a.omega)) == 20
        for m in a.symmetries
    )
    _check(checks, "reduce.height-floor", True, heights_ok,
           "height 20 exactly on the symmetry group")
    return checks


SUITES = {
    "golay": golay_suite,
    "leech": leech_suite,
    "embedding": embedding_suite,
    "curves": curves_suite,
    "picard": picard_suite,
    "pencils": pencils_suite,
    "weber": weber_suite,
    "walls": walls_suite,
    "generators": generators_suite,
    "reduce": reduce_suite,
}
SUITE_NAMES = tuple(SUITES)


# the group half: these read the built `autctx()` and nothing another suite
# computes, and they close SUITE_NAMES, so their checks come last
GROUP_SUITES = ("generators", "reduce")


def _group_child(r: int, w: int, seed: int) -> None:
    """The forked child of `verify all`: writes the GROUP_SUITES checks, or
    the message of a CertificationError, to the pipe `w` as JSON, then
    exits without flushing the stdio it inherited."""
    status = 1
    try:
        os.close(r)
        try:
            doc = {"checks": [c for name in GROUP_SUITES for c in SUITES[name](seed)]}
        except CertificationError as e:
            doc = {"error": str(e)}
        with open(w, "wb") as pipe:
            pipe.write(json.dumps(doc).encode())
        status = 0
    finally:
        os._exit(status)


def _run_all(seed: int) -> list:
    """The checks of all ten suites, in SUITE_NAMES order.

    Once `autctx()` is built the group suites read nothing the others
    compute, so one forked child runs them while this process runs the
    rest. Fork with live threads is unsafe: then all ten run here.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return [c for name in SUITE_NAMES for c in SUITES[name](seed)]
    autctx()  # the construction both halves read, built once
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        _group_child(r, w, seed)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            checks = [c for name in SUITE_NAMES if name not in GROUP_SUITES
                      for c in SUITES[name](seed)]
            data = pipe.read()
    finally:  # the pipe is closed first, so a child still writing cannot block
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status or not data:
        raise RuntimeError(f"the suites {', '.join(GROUP_SUITES)} crashed in their "
                           f"forked child (exit status {status}, {len(data)} bytes)")
    doc = json.loads(data)
    if "error" in doc:
        raise CertificationError(doc["error"])
    return checks + doc["checks"]


def run(suite: str, seed: int = 0) -> dict:
    """Execute one suite (or all of them): the report document
    {"suite", "checks", "duration_ms"}, its checks the suites' dicts."""
    if suite != "all" and suite not in SUITES:
        raise KeyError(suite)
    t0 = time.monotonic()
    checks = _run_all(seed) if suite == "all" else SUITES[suite](seed)
    duration = int((time.monotonic() - t0) * 1000)
    return {"suite": suite, "checks": checks, "duration_ms": duration}


def _print_report(report: dict, as_json: bool) -> None:
    if as_json:
        # kept deterministic; wall time goes to text mode
        print(json.dumps({**report, "duration_ms": 0}, separators=(",", ":")))
        return
    checks = report["checks"]
    for c in checks:
        print(f"[{'PASS' if c['status'] == 'pass' else 'FAIL'}] {c['id']} "
              f"expected={c['expected']} actual={c['actual']} ({c['ref']})")
    n_pass = sum(1 for c in checks if c["status"] == "pass")
    print(f"suite {report['suite']}: {n_pass}/{len(checks)} checks passed "
          f"in {report['duration_ms']} ms")


def _cmd_verify(args) -> int:
    if args.suite and args.suite_opt and args.suite != args.suite_opt:
        print(f"two suites given: {args.suite!r} and --suite {args.suite_opt!r}", file=sys.stderr)
        return 2
    suite = args.suite_opt or args.suite or "all"
    if suite != "all" and suite not in SUITES:
        print(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)} or all",
              file=sys.stderr)
        return 2
    report = run(suite, args.seed)
    _print_report(report, args.json)
    return 0 if all(c["status"] == "pass" for c in report["checks"]) else 1


def _cmd_reduce(args) -> int:
    a = autctx()
    names = [w.strip().replace("τ", "tau") for w in args.word.split(",") if w.strip()]
    if not names:
        print("empty word", file=sys.stderr)
        return 2
    try:
        gens = [a.registry[n] for n in names]
    except KeyError as e:
        print(f"unknown generator {e.args[0]!r}", file=sys.stderr)
        return 2
    try:
        word, residual, trace = a.descend(gens)
    except RuntimeError as e:  # the descent hit its step cap
        print(f"reduce failed: {e}", file=sys.stderr)
        return 1
    label = a.classify_symmetry(residual)
    if args.json:
        print(json.dumps({
            "word": names,
            "initial_height": trace[0],
            "applied": word,
            "heights": trace,
            "residual": label,
        }, separators=(",", ":")))
    else:
        print(f"word: {','.join(names)}")
        print(f"height trace: {' -> '.join(map(str, trace))}")
        print(f"applied: {','.join(word) if word else '(nothing)'}")
        print(f"residual: {label if label else 'NOT in the symmetry group'}")
    return 0 if label is not None else 1


@cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hessaut",
        description="exact verification suites for the Hessian-quartic lattice toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", nargs="?", help=f"one of {', '.join(SUITE_NAMES)}, or all")
    v.add_argument("--suite", dest="suite_opt", help="suite name (alternative spelling)")
    v.add_argument("--json", action="store_true", help="machine-readable report")
    v.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    r = sub.add_parser("reduce", help="height-reduce a word of generators")
    r.add_argument("--word", required=True,
                   help="comma-separated generators, e.g. tau,p16,g1,phi2,s21345")
    r.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return (_cmd_verify if args.command == "verify" else _cmd_reduce)(args)
    except CertificationError as e:
        print(f"certification failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
