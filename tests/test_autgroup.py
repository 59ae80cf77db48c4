import random
from fractions import Fraction
from itertools import permutations

import pytest

from hessaut import autgroup, cli, lattices
from hessaut.autgroup import (
    CASE_CORRECTIONS,
    SKEW_LINE_TABLE,
    WALL_1A_EXAMPLE_OCTAD,
    WALL_1A_EXPR,
    WALL_1A_OCTADS,
    WALL_2_EXAMPLE_OCTAD,
    WALL_2_EXPR,
    WALL_3A_EXPR,
    WALL_3A_KS_FIRST,
    WALL_3B_OCTADS_FIRST,
    AutContext,
    Isometry,
    autctx,
    classify_wall_root,
    compose,
    enumerate_wall_roots,
    identity_isometry,
    isometry_from_images,
    table_isometry,
)
from hessaut.checks import CertificationError
from hessaut.hessian import CURVE_NAMES, NODE_NAMES, picard
from hessaut.lorentz import bilinear
from product_reference import conjugate, involution_by_rows, preserves_form
from forked_runs import python_O

# the (-6)-root of the worked reflection, as displayed
REFLECTION_ROOT_EXPR = {
    "etaH": 2, "etaS": -2,
    "T46": 2, "T25": 2, "T34": 2, "T36": 2, "T15": 2,
    "N36": 1, "N46": 1, "N56": 1, "N13": 1, "N24": 1,
}


def lam_octad(w, values=(-1, 3)):
    return frozenset(i - 1 for i, x in enumerate(w.root.lam) if x in values)


def test_wall_counts_and_fixture_lists():
    walls = enumerate_wall_roots()
    assert [len(walls[c]) for c in ("1a", "2", "3a", "3b")] == [12, 10, 15, 15]
    assert {lam_octad(w) for w in walls["1a"]} == set(WALL_1A_OCTADS)
    assert sorted(w.key[1:] for w in walls["2"]) == [
        (i, j) for i in range(1, 6) for j in range(i + 1, 6)
    ]
    assert sorted(w.key[2] for w in walls["3a"] if w.key[1] == 1) == sorted(WALL_3A_KS_FIRST)
    got_3b = {lam_octad(w, values=(-1,)) | {0} for w in walls["3b"] if w.key[1] == 1}
    assert got_3b == set(WALL_3B_OCTADS_FIRST)


def test_wall_norms_and_scaled_vectors():
    ctx = picard()
    walls = enumerate_wall_roots()
    for case, norm, k in (("1a", Fraction(-2, 3), 3), ("2", Fraction(-1), 2), ("3a", Fraction(-2, 3), 6)):
        for w in walls[case]:
            assert ctx.inner(w.r1, w.r1) == norm
            scaled = tuple(k * x for x in w.r1)
            assert all(Fraction(x).denominator == 1 for x in scaled)
            assert ctx.inner(scaled, scaled) == norm * k * k
    # case 1a: 3r1 is a (-6)-root; case 2: 2r1 a (-4)-root; case 3a: 6r1
    # primitive of square -24 and not a root multiple
    for w in walls["3a"]:
        six = [int(Fraction(6 * x)) for x in w.r1]
        from math import gcd
        assert gcd(*[abs(v) for v in six if v]) == 1
        assert ctx.inner(six, six) == -24
        half = [Fraction(x, 2) for x in six]
        assert any(x.denominator != 1 for x in half) or ctx.inner(half, half) != -2


def test_classification_of_curve_root_is_case_zero():
    ctx = picard()
    w = classify_wall_root(ctx.curve_roots["N16"])
    assert w.case == "0"
    assert w.r1 == ctx.curve("N16")


def displayed(ctx, expr):
    """A displayed expansion, integer coefficients over a denominator, as Fractions."""
    coeffs, den = expr
    return tuple(Fraction(x, den) for x in ctx.resolve(coeffs))


def test_worked_wall_expansions():
    ctx = picard()
    a = autctx()
    w1a = next(w for w in a.walls["1a"] if lam_octad(w) == WALL_1A_EXAMPLE_OCTAD)
    assert w1a.r1 == displayed(ctx, WALL_1A_EXPR)
    assert ctx.resolve(REFLECTION_ROOT_EXPR) == tuple(3 * x for x in w1a.r1)
    w2 = next(
        w for w in a.walls["2"]
        if frozenset(i - 1 for i, x in enumerate(w.root.lam) if x == 2) == WALL_2_EXAMPLE_OCTAD
    )
    assert w2.r1 == displayed(ctx, WALL_2_EXPR)
    assert w2.key[1:] == (1, 2)
    assert [iso.name for pairs in a.wall_generators.values()
            for ww, iso in pairs if ww.r1 == w2.r1] == ["p45"]
    w3a = a.worked_3a
    assert w3a.key == ("3a", 1, 5)
    assert w3a.r1 == displayed(ctx, WALL_3A_EXPR)


def test_curve_pairing_patterns_of_worked_walls():
    ctx = picard()
    a = autctx()
    w1a = next(w for w in a.walls["1a"] if lam_octad(w) == WALL_1A_EXAMPLE_OCTAD)
    ones = {c for c in CURVE_NAMES if bilinear(w1a.root, ctx.curve_roots[c]) == 1}
    assert ones == {"T16", "T26", "T56", "T14", "T23"}
    w3a = a.worked_3a
    ones = {c for c in CURVE_NAMES if bilinear(w3a.root, ctx.curve_roots[c]) == 1}
    assert ones == {"N16", "N36", "T26", "T56"}


def test_tau_and_projections_are_involutions_and_commute():
    a = autctx()
    ident = identity_isometry()
    assert compose(a.tau, a.tau).same_matrix(ident)
    assert len(a.projections) == 10
    for n, p in a.projections.items():
        assert compose(p, p).same_matrix(ident)
        assert compose(p, a.tau).same_matrix(compose(a.tau, p))


def test_tau_swaps_hyperplane_classes():
    ctx = picard()
    a = autctx()
    assert a._apply_q(a.tau, ctx.eta_h) == ctx.eta_s
    assert a._apply_q(a.tau, ctx.eta_s) == ctx.eta_h


def test_projection_eta_image():
    ctx = picard()
    a = autctx()
    expected = ctx.resolve(
        {"etaH": 2, "T23": -2, "N26": -1, "N45": -1, "N36": -1, "N16": -1}
    )
    assert a._apply_q(a.projections["N16"], ctx.eta_h) == expected


def test_symmetry_group_has_order_240_and_fixes_weyl_projection():
    a = autctx()
    assert len(a.symmetries) == 240
    for m in list(a.symmetries)[::17]:
        from hessaut.autgroup import Isometry

        assert Isometry(m).apply(a.omega) == a.omega


def test_isometry_from_images_rejects_bad_tables():
    ctx = picard()
    images = {c: ctx.curve(c) for c in CURVE_NAMES}
    images["N16"] = ctx.curve("N26")  # breaks the Gram
    with pytest.raises(ValueError):
        isometry_from_images(images, "broken")


def test_composites():
    a = autctx()
    p12, p35, p16, p36 = (a.projections[n] for n in ("N12", "N35", "N16", "N36"))
    skew = table_isometry(SKEW_LINE_TABLE, "skew")
    assert compose(skew, skew).same_matrix(identity_isometry())
    assert compose(p36, p16, a.tau).same_matrix(skew)
    assert compose(p12, p35, a.f).same_matrix(a.g)
    assert compose(p12, p35).same_matrix(compose(p35, p12))
    assert compose(a.f, a.g).same_matrix(compose(p12, p35))


def test_skew_involution_eta_image():
    ctx = picard()
    skew = table_isometry(SKEW_LINE_TABLE, "skew")
    a = autctx()
    assert a._apply_q(skew, ctx.eta_h) == ctx.resolve(
        {"T15": 1, "C15": 2, "T36": 1, "T34": 1, "R16": 1}
    )


def test_translation_identity_via_conjugated_skew_involution():
    a = autctx()
    skew = table_isometry(SKEW_LINE_TABLE, "skew")
    mats = set()
    for perm in permutations(range(1, 6)):
        s = dict(zip(range(1, 6), perm))
        images = {frozenset(s[i] for i in (1, 5)), frozenset(s[i] for i in (3, 4))}
        if images == {frozenset({4, 5}), frozenset({1, 3})}:
            mats.add(conjugate(skew, a.s5[perm]).matrix)
    assert len(mats) == 1  # the skew involution of a line pair is canonical
    from hessaut.autgroup import Isometry

    skew2656 = Isometry(next(iter(mats)))
    assert compose(skew2656, a.tau).same_matrix(
        compose(a.projections["N12"], a.projections["N35"])
    )


def test_two_pencil_involution_is_the_shared_node_projection():
    ctx = picard()
    a = autctx()
    f15 = ctx.type1_pencil("T15").fiber
    f25 = ctx.type1_pencil("T25").fiber
    assert ctx.inner(f15, f25) == 2
    preserving = [
        n for n in NODE_NAMES
        if a._apply_q(a.projections[n], f15) == f15
        and a._apply_q(a.projections[n], f25) == f25
    ]
    assert preserving == ["N56"]


def test_inversion_asymmetry_and_section_sum():
    ctx = picard()
    a = autctx()
    w3a = a.worked_3a
    t_sum = tuple(x + y for x, y in zip(ctx.curve("T26"), ctx.curve("T56")))
    pushed = tuple(Fraction(x) + 6 * r for x, r in zip(t_sum, w3a.r1))
    assert a._apply_q(a.g, t_sum) == pushed
    assert a._apply_q(a.f, t_sum) != pushed
    n_sum = tuple(x + y for x, y in zip(ctx.curve("N16"), ctx.curve("N36")))
    from hessaut.autgroup import D1_EXPR, D3_EXPR

    d1d3 = tuple(
        x + y for x, y in zip(ctx.resolve(D1_EXPR), ctx.resolve(D3_EXPR))
    )
    assert d1d3 == tuple(Fraction(x) + 6 * r for x, r in zip(n_sum, w3a.r1))
    assert ctx.inner(ctx.resolve(D1_EXPR), ctx.resolve(D1_EXPR)) == -2
    assert ctx.inner(ctx.resolve(D3_EXPR), ctx.resolve(D3_EXPR)) == -2


def test_alternate_zero_section_matches_a_3b_wall():
    ctx = picard()
    a = autctx()
    patterns = []
    for w in a.walls["3b"]:
        ones = {c for c in CURVE_NAMES if bilinear(w.root, ctx.curve_roots[c]) == 1}
        patterns.append(ones)
    assert {"N46", "N13", "T26", "T56"} in patterns


def test_push_identities_and_involutions_for_all_generators():
    a = autctx()
    ident = identity_isometry()
    from hessaut.autgroup import PUSH_MULTIPLES

    total = 0
    for case, pairs in a.wall_generators.items():
        for w, iso in pairs:
            total += 1
            assert compose(iso, iso).same_matrix(ident)
            assert a._apply_q(iso, w.r1) == tuple(-x for x in w.r1)
            pushed = a._apply_q(iso, a.omega)
            assert pushed == tuple(
                o + PUSH_MULTIPLES[case] * x for o, x in zip(a.omega, w.r1)
            )
            assert a.discriminant_action(iso) in ("+1", "-1")
    assert total == 64


def test_every_descent_generator_preserves_the_form_densely():
    """The dense M G M^T = G that `generators.gram-preserved` ran before it
    read the curve-action certificates, and what it reads now."""
    a = autctx()
    ctx = picard()
    assert len(a.descent) == 64
    for name, iso, _ in a.descent:
        assert preserves_form(iso.matrix), name
        assert iso.curve_action.inverse_rows() == iso.matrix, name


def test_gram_preserved_fails_on_a_matrix_its_action_does_not_certify(monkeypatch):
    a = autctx()
    name, iso, push = a.descent[0]
    rows = [list(r) for r in iso.matrix]
    rows[0] = [2 * x for x in rows[0]]
    bad = Isometry(tuple(map(tuple, rows)), name)
    object.__setattr__(bad, "curve_action", iso.curve_action)
    assert not preserves_form(bad.matrix)
    monkeypatch.setattr(a, "descent", [(name, bad, push)] + a.descent[1:])
    status = {c["id"]: c["status"] for c in cli.generators_suite(0)}
    assert status["generators.gram-preserved"] == "fail"
    assert status["generators.wall-involutions"] == "pass"


def test_wall_involutions_reads_b_twice_off_the_action(monkeypatch):
    """`generators.wall-involutions` reads b o b = id off each action,
    applying it twice only to the curves it sends off the curves, and then
    applies it once to the wall's pairings and once to omega's. No
    involution test reads `inverse_rows`: `gram-preserved` reads it for the
    64 descent generators, and `relabel` for the 11 matrices it builds."""
    a = autctx()  # built before the spy: construction reads `inverse_rows` too
    calls, applied = [], []
    real, real_call = autgroup.CurveAction.inverse_rows, autgroup.CurveAction.__call__
    monkeypatch.setattr(autgroup.CurveAction, "inverse_rows",
                        lambda self: calls.append(1) or real(self))
    monkeypatch.setattr(autgroup.CurveAction, "__call__",
                        lambda self, vals: applied.append(1) or real_call(self, vals))
    status = {c["id"]: c["status"] for c in cli.generators_suite(0)}
    assert status["generators.wall-involutions"] == "pass"
    assert len(calls) == 64 + 11
    combos = sum(len(iso.curve_action.combos) for pairs in a.wall_generators.values()
                 for _, iso in pairs)
    # `relabel` reads the same test off skew and the ten projections
    relabelled = [table_isometry(SKEW_LINE_TABLE, "skew"), *a.projections.values()]
    relabelled = sum(len(b.curve_action.combos) for b in relabelled)
    assert len(applied) == 2 * (combos + relabelled) + 2 * 64 == 2 * (260 + 24) + 2 * 64


def test_involution_read_off_the_action_matches_the_rows_applied_twice():
    a = autctx()
    generators = [iso for pairs in a.wall_generators.values() for _, iso in pairs]
    assert len(generators) == 64
    for iso in generators:
        assert iso.curve_action.is_involution() is involution_by_rows(iso.curve_action) is True
    gens = [iso for _, iso, _ in a.descent]
    others = [a.tau, *a.s5.values(), *gens, *map(compose, gens[:8], gens[1:9])]
    verdicts = [(x.is_involution(), involution_by_rows(x.curve_action),
                 bool(x.curve_action.combos)) for x in others]
    assert all(new == old for new, old, _ in verdicts)
    # involutions or not, with and without combinations
    assert {(new, combos) for new, _, combos in verdicts} == {
        (True, False), (False, False), (True, True), (False, True)}


def test_wall_involutions_fails_on_an_action_that_is_no_involution(monkeypatch):
    a = autctx()
    w, iso = a.wall_generators["2"][0]
    bad = Isometry(iso.matrix, iso.name)
    # the action of a 3-cycle of the faces: of order 3, not 2
    object.__setattr__(bad, "curve_action", a.s5[(2, 3, 1, 4, 5)].curve_action)
    monkeypatch.setitem(a.wall_generators, "2", [(w, bad)] + a.wall_generators["2"][1:])
    checks = {c["id"]: c["status"] for c in cli.generators_suite(0)}
    assert checks["generators.wall-involutions"] == "fail"
    assert checks["generators.gram-preserved"] == "pass"


def test_wall_involutions_fails_on_swapped_case_2_generators(monkeypatch):
    """Each generator of two case 2 walls is an involution that negates the
    other wall's vector, not its own: the check is per generator."""
    a = autctx()
    (w1, b1), (w2, b2) = a.wall_generators["2"][:2]
    for b in (b1, b2):
        assert b.is_involution()
    assert b2.apply(w2.vec) == tuple(-x for x in w2.vec) != b1.apply(w2.vec)
    monkeypatch.setitem(a.wall_generators, "2",
                        [(w1, b2), (w2, b1)] + a.wall_generators["2"][2:])
    checks = {c["id"]: c["status"] for c in cli.generators_suite(0)}
    assert checks["generators.wall-involutions"] == "fail"


def test_wall_involutions_fails_on_an_action_that_is_no_involution_under_python_O():
    """Both mutants of `generators.wall-involutions` above, in one `python -O`
    child: an action that is no involution, and two swapped case 2
    generators."""
    code = (
        "from hessaut import cli\n"
        "from hessaut.autgroup import Isometry, autctx\n"
        "a = autctx()\n"
        "pairs = list(a.wall_generators['2'])\n"
        "w, iso = pairs[0]\n"
        "bad = Isometry(iso.matrix, iso.name)\n"
        "object.__setattr__(bad, 'curve_action', a.s5[(2, 3, 1, 4, 5)].curve_action)\n"
        "a.wall_generators['2'] = [(w, bad)] + pairs[1:]\n"
        "checks = {c['id']: c['status'] for c in cli.generators_suite(0)}\n"
        "print(checks['generators.wall-involutions'], checks['generators.gram-preserved'])\n"
        "(w1, b1), (w2, b2) = pairs[:2]\n"
        "a.wall_generators['2'] = [(w1, b2), (w2, b1)] + pairs[2:]\n"
        "checks = {c['id']: c['status'] for c in cli.generators_suite(0)}\n"
        "print(checks['generators.wall-involutions'])\n"
    )
    proc = python_O(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["fail", "pass", "fail"]


def test_a_reflection_is_certified_through_its_curve_action(monkeypatch):
    a = autctx()
    w = a.walls["1a"][0]
    assert a.reflection_phi(w.vec).curve_action.combos

    def refuse(cls, matrix, name=""):
        raise ValueError(f"{name}: not an isometry of the Picard lattice")

    monkeypatch.setattr(autgroup.CurveAction, "of", classmethod(refuse))
    with pytest.raises(CertificationError, match="must preserve the intersection form"):
        a.reflection_phi(w.vec)


def test_discriminant_generators_are_built_on_first_use(monkeypatch):
    autctx()  # the Picard context, walls and frame are cached
    calls = []
    real = lattices.discriminant_form_from_gram
    monkeypatch.setattr(lattices, "discriminant_form_from_gram",
                        lambda gram: calls.append(1) or real(gram))
    a = AutContext()
    assert calls == []
    assert a.discriminant_action(a.tau) == "-1"
    assert a.discriminant_action(a.g) == "-1"
    assert len(calls) == 1


def test_discriminant_actions():
    a = autctx()
    assert a.discriminant_action(identity_isometry()) == "+1"
    assert a.discriminant_action(a.tau) == "-1"
    assert a.discriminant_action(a.g) == "-1"
    assert a.discriminant_action(a.s5[(2, 1, 3, 4, 5)]) == "other"


def test_heights_of_single_generators():
    a = autctx()
    assert a.height(a.omega) == 20
    assert a.height(a.registry["p16"].apply(a.omega)) == 28
    assert a.height(a.registry["phi1"].apply(a.omega)) == 95
    assert a.height(a.registry["g1"].apply(a.omega)) == 68


def test_reduce_single_projection():
    a = autctx()
    v = a.registry["p16"].apply(a.omega)
    deltas = {
        name: a.height(iso.apply(v)) - a.height(v) for name, iso, _ in a.descent
    }
    assert deltas["p16"] < 0
    assert all(d >= 0 for name, d in deltas.items() if name != "p16")
    word, residual = a.reduce_height(a.registry["p16"])
    assert word == ["p16"]
    assert a.classify_symmetry(residual) == "id"


def test_reduce_symmetries_terminate_immediately():
    a = autctx()
    word, residual = a.reduce_height(a.tau)
    assert word == []
    assert a.classify_symmetry(residual) == "tau"


def test_reduce_random_words():
    a = autctx()
    rng = random.Random(1234)
    names = [n for n, _, _ in a.descent] + ["tau", "s21345", "s23451"]
    for _ in range(40):
        word = [rng.choice(names) for _ in range(rng.randint(1, 12))]
        gamma = compose(*[a.registry[n] for n in word])
        _, residual = a.reduce_height(gamma)
        label = a.classify_symmetry(residual)
        assert label is not None
        assert a.height(residual.apply(a.omega)) == 20


def test_height_twenty_exactly_on_symmetry_group():
    a = autctx()
    from hessaut.autgroup import Isometry

    for m in list(a.symmetries)[::13]:
        assert a.height(Isometry(m).apply(a.omega)) == 20
    for name, iso, _ in a.descent[::7]:
        assert a.height(iso.apply(a.omega)) > 20


def test_plain_inversion_table_spot_values():
    ctx = picard()
    a = autctx()
    assert a._apply_q(a.f, ctx.curve("N26")) == ctx.curve("N56")
    from hessaut.autgroup import G2_EXPR

    assert a._apply_q(a.g, ctx.curve("T26")) == ctx.resolve(G2_EXPR)


def test_conjugated_plain_inversions_are_involutions():
    from product_reference import inversion_f

    for i in (1, 7, 15):
        iso = inversion_f(i)
        assert compose(iso, iso).same_matrix(identity_isometry())


@pytest.mark.parametrize("case", ["1a", "3a", "3b"])
def test_wrong_correction_coefficient_fails_certification(monkeypatch, case):
    root = enumerate_wall_roots()[case][0].root
    coeffs, denom = CASE_CORRECTIONS[case]
    monkeypatch.setitem(CASE_CORRECTIONS, case, ({**coeffs, "y": coeffs["y"] + 1}, denom))
    with pytest.raises(CertificationError, match=f"closed-form projection mismatch in case {case}"):
        classify_wall_root(root)
    monkeypatch.undo()
    assert classify_wall_root(root).case == case


def test_classify_rejects_non_wall_roots():
    from hessaut.leech import two_nu
    from hessaut.lorentz import leech_root
    from hessaut.hessian import COMPLEMENT_OCTADS

    with pytest.raises(ValueError):
        # a root pairing 2 with a base root cannot bound the chamber
        classify_wall_root(leech_root(two_nu(COMPLEMENT_OCTADS["r0"])))


def test_moved_sections_displayed_relations():
    ctx = picard()
    from hessaut.autgroup import D1_EXPR, D3_EXPR

    rhs_common = {"T23": 1, "N26": 2, "T25": 3, "N56": 2, "T15": 1, "N24": 1, "T46": 1, "N45": 1}
    lhs1 = dict(D1_EXPR)
    lhs1["N16"] = lhs1.get("N16", 0) + 1
    lhs1["N13"] = lhs1.get("N13", 0) - 2
    assert ctx.verify_relation(lhs1, {**rhs_common, "T36": 1, "T14": -1})
    lhs3 = dict(D3_EXPR)
    lhs3["N36"] = lhs3.get("N36", 0) + 1
    lhs3["N13"] = lhs3.get("N13", 0) - 2
    assert ctx.verify_relation(lhs3, {**rhs_common, "T16": 1, "T34": -1})
    fiber = ctx.type2_class("N12", "T26")
    for expr in (D1_EXPR, D3_EXPR):
        v = ctx.resolve(expr)
        assert ctx.inner(v, fiber) == 1  # both moved classes are sections
        assert ctx.inner(v, v) == -2


def test_octad_shaped_case_1b_roots_match_transported_walls():
    # roots meeting the glue chain only at r0: octads through oo,0 meeting
    # K0 twice and every K_i four times; their projections must be exactly
    # the swap images of the twelve case-1a walls
    from hessaut.golay import INFINITY, steiner_system
    from hessaut.hessian import COMPLEMENT_OCTADS
    from hessaut.leech import two_nu
    from hessaut.lorentz import leech_root

    oo = INFINITY
    ks = [COMPLEMENT_OCTADS["r0"]] + [COMPLEMENT_OCTADS[f"x{i}"] for i in range(1, 6)]
    found = [
        octad for octad in steiner_system().octads
        if oo in octad and 0 in octad
        and len(octad & ks[0]) == 2
        and all(len(octad & k) == 4 for k in ks[1:])
    ]
    assert len(found) == 12
    a = autctx()
    transported = {w.r1 for w, _ in a.wall_generators["1b"]}
    projections = set()
    for octad in found:
        w = classify_wall_root(leech_root(two_nu(octad)))
        assert w.case == "1b"
        projections.add(w.r1)
    assert projections == transported


def test_reduce_words_containing_the_plain_inversion():
    a = autctx()
    word, residual = a.reduce_height(a.registry["f"])
    assert a.classify_symmetry(residual) is not None
    gamma = compose(a.registry["f"], a.tau, a.registry["p16"])
    word, residual = a.reduce_height(gamma)
    assert a.classify_symmetry(residual) is not None


def test_symmetries_permute_the_wall_system():
    # the swap involution and the odd face permutations flip the two ends
    # of the glue chain, exchanging the conjugate case families; even
    # permutations preserve every family
    a = autctx()
    by_case = {
        case: {w.r1 for w, _ in pairs} for case, pairs in a.wall_generators.items()
    }
    swap_map = {"1a": "1b", "1b": "1a", "2": "2", "3a": "3b", "3b": "3a"}
    for case, vecs in by_case.items():
        assert {a._apply_q(a.tau, v) for v in vecs} == by_case[swap_map[case]]
    even, odd = (2, 3, 4, 5, 1), (2, 1, 3, 4, 5)
    for case, vecs in by_case.items():
        assert {a._apply_q(a.s5[even], v) for v in vecs} == vecs
        assert {a._apply_q(a.s5[odd], v) for v in vecs} == by_case[swap_map[case]]


def test_all_curve_roots_classify_as_case_zero():
    ctx = picard()
    for name, root in ctx.curve_roots.items():
        w = classify_wall_root(root)
        assert w.case == "0"
        assert w.r1 == ctx.curve(name)


def test_base_roots_project_to_zero():
    ctx = picard()
    zero = tuple(Fraction(0) for _ in range(16))
    for root in ctx.roots.values():
        assert ctx.project_to_sh(root) == zero
    assert ctx.project_to_sh(ctx.theta) == zero


def test_long_word_reduction_terminates():
    a = autctx()
    rng = random.Random(99)
    names = [n for n, _, _ in a.descent] + ["tau", "s21345"]
    for _ in range(3):
        word = [rng.choice(names) for _ in range(25)]
        gamma = compose(*[a.registry[n] for n in word])
        applied, residual = a.reduce_height(gamma)
        assert a.classify_symmetry(residual) is not None
