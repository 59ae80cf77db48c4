from fractions import Fraction
from itertools import combinations

from hessaut import lattices
from hessaut.golay import is_octad
from hessaut.hessian import (
    BASE_ROOT_ORDER,
    COMPLEMENT_OCTADS,
    CURVE_NAMES,
    CURVE_OCTADS,
    LINE_NAMES,
    NODE_NAMES,
    base_roots,
    expected_base_gram,
    incidence,
    pencil_catalog,
    petersen_graph_data,
    picard,
    relation_checks,
)
from hessaut.lorentz import bilinear


def test_embedding_octads_are_octads():
    for octad in COMPLEMENT_OCTADS.values():
        assert is_octad(octad)
    for octad in CURVE_OCTADS.values():
        assert is_octad(octad)


def test_base_root_diagram():
    roots = base_roots()
    gram = [[bilinear(roots[a], roots[b]) for b in BASE_ROOT_ORDER] for a in BASE_ROOT_ORDER]
    assert gram == expected_base_gram()


def _lattice_r0():
    """R0, the span of the nine base roots other than r0."""
    roots = picard().roots
    return lattices.span([roots[k] for k in BASE_ROOT_ORDER if k != "r0"])


def test_complement_lattice_shapes():
    ctx = picard()
    r0 = _lattice_r0()
    assert lattices.root_type(r0.gram) == "A3+6A1"
    assert r0.rank == 9
    assert lattices.root_type(ctx.lattice_R.gram) == "A5+5A1"
    assert ctx.lattice_R.rank == 10
    assert lattices.root_count(ctx.lattice_R.gram) == 40


def test_glue_overlattice_is_primitive_of_index_two():
    ctx = picard()
    assert ctx.lattice_T.rank == 10
    assert ctx.lattice_R.disc_order() == 192
    assert ctx.lattice_T.disc_order() == 48
    assert lattices.is_primitive(ctx.lattice_T)


def test_picard_is_primitive_rank_16_disc_48():
    ctx = picard()
    assert ctx.lattice_SH.rank == 16
    assert ctx.lattice_SH.disc_order() == 48
    assert lattices.is_primitive(ctx.lattice_SH)


def test_discriminant_form_matches_transcendental_model():
    ctx = picard()
    q_sh = lattices.discriminant_form(ctx.lattice_SH)
    q_t = lattices.discriminant_form(ctx.lattice_T)
    assert q_sh.group_order == 48 == 2 ** 4 * 3
    assert lattices.fqf_isomorphic(q_sh, lattices.negated(q_t))
    # T is negative definite, so its form is the one of A2(-2) + U(2)
    model = lattices.direct_sum(
        lattices.discriminant_form_from_gram(lattices.standard_gram("A2(-2)"))[0],
        lattices.discriminant_form_from_gram(lattices.standard_gram("U(2)"))[0],
    )
    assert lattices.fqf_isomorphic(q_t, model)
    assert lattices.fqf_isomorphic(q_sh, lattices.negated(model))
    # equivalently the Picard form matches the sign-flipped transcendental
    # model U + U(2) + A2(-2)
    model_pos = lattices.direct_sum(
        lattices.discriminant_form_from_gram(lattices.standard_gram("A2(2)"))[0],
        lattices.discriminant_form_from_gram(lattices.standard_gram("U(2)"))[0],
    )
    assert lattices.fqf_isomorphic(q_sh, model_pos)


def test_complement_duality_and_kummer_overlattice():
    ctx = picard()
    r0 = _lattice_r0()
    # the glue vector theta lies in R0 tensor Q, so R0 itself is imprimitive
    assert not lattices.is_primitive(r0)
    sat = lattices.saturation(r0)
    assert r0.disc_order() == 4 * sat.disc_order()
    perp = lattices.orthogonal_complement(r0)
    assert perp.rank == 17  # the Picard rank of a Jacobian Kummer surface
    assert lattices.fqf_isomorphic(
        lattices.discriminant_form(perp),
        lattices.negated(lattices.discriminant_form(sat)),
    )
    for m in (ctx.lattice_T, ctx.lattice_SH):
        assert lattices.fqf_isomorphic(
            lattices.discriminant_form(lattices.orthogonal_complement(m)),
            lattices.negated(lattices.discriminant_form(m)),
        )


def test_twenty_curves_span_with_index_one():
    ctx = picard()
    curve_span = lattices.span(ctx.curve_roots.values())
    assert curve_span.rows == ctx.lattice_SH.rows


def test_gram_matches_incidence_rule():
    ctx = picard()
    for a, b in combinations(CURVE_NAMES, 2):
        assert bilinear(ctx.curve_roots[a], ctx.curve_roots[b]) == incidence(a, b)
    for a in CURVE_NAMES:
        assert bilinear(ctx.curve_roots[a], ctx.curve_roots[a]) == -2


def test_incidence_examples():
    assert {l for l in LINE_NAMES if incidence("N16", l) == 1} == {"T16", "T14", "T15"}
    assert incidence("N45", "T16") == 0
    assert incidence("N12", "N13") == 0
    assert incidence("T16", "T25") == 0
    for l in LINE_NAMES:
        assert len([n for n in NODE_NAMES if incidence(n, l) == 1]) == 3
    for n in NODE_NAMES:
        assert len([l for l in LINE_NAMES if incidence(n, l) == 1]) == 3


# the node/line pairs of tau, as displayed; `Picard.tau_partner` derives them
TAU_PAIRS = (
    ("N16", "T23"), ("N24", "T36"), ("N56", "T34"), ("N12", "T56"), ("N13", "T46"),
    ("N26", "T14"), ("N35", "T26"), ("N46", "T25"), ("N36", "T15"), ("N45", "T16"),
)


def test_tau_pairing_matches_fixed_table():
    ctx = picard()
    for n, t in TAU_PAIRS:
        assert ctx.tau_partner(n) == t
        assert ctx.tau_partner(t) == n


def test_hyperplane_classes():
    ctx = picard()
    assert ctx.inner(ctx.eta_h, ctx.eta_h) == 4
    assert ctx.verify_relation({"etaH": 1, "etaS": 1}, {"NN": 1, "TT": 1})
    for l in LINE_NAMES:
        assert ctx.inner(ctx.eta_h, ctx.curve(l)) == 1
    for n in NODE_NAMES:
        assert ctx.inner(ctx.eta_h, ctx.curve(n)) == 0


def test_named_class_examples():
    ctx = picard()
    c16 = ctx.conic("T16")
    expected = ctx.resolve({"etaH": 1, "T16": -2, "N16": -1, "N12": -1, "N13": -1})
    assert c16 == expected
    assert ctx.inner(c16, c16) == -2
    assert ctx.inner(c16, ctx.curve("T16")) == 2
    r16 = ctx.cubic("N16")
    expected_r = ctx.resolve(
        {"etaH": 1, "T23": -1, "N16": -1, "N26": -1, "N45": -1, "N36": -1}
    )
    assert r16 == expected_r
    assert ctx.inner(r16, r16) == -2


def test_weyl_projection_is_curve_sum():
    ctx = picard()
    from hessaut.lorentz import weyl_vector

    proj = ctx.project_to_sh(weyl_vector())
    assert proj == tuple(Fraction(x) for x in ctx.omega_prime)
    assert ctx.inner(proj, proj) == 20


def test_all_relations_hold():
    failed = [name for name, ok in relation_checks() if not ok]
    assert failed == []


def test_pencil_catalog_verifies():
    pencils = pencil_catalog()
    names = [p.name for p in pencils]
    assert len([n for n in names if n.startswith("type1")]) == 10
    assert len([n for n in names if n.startswith("type2")]) == 2
    assert len([n for n in names if n.startswith("type3")]) == 31


def test_type1_hexagons_match_worked_example():
    ctx = picard()
    f15 = ctx.type1_pencil("T15")
    hexagons = [set(comps) for tag, comps in f15.reducible if tag == "I6"]
    assert {"T14", "T46", "N46", "N45", "T56", "N35"} in hexagons
    assert {"N12", "T16", "N13", "T25", "N26", "T26"} in hexagons


def test_petersen_graph():
    assert petersen_graph_data() == (3, 15, 5)


def test_curve_relation_space_has_dimension_four():
    from hessaut import exact

    ctx = picard()
    m = [list(ctx.curve_coord[name]) for name in CURVE_NAMES]
    kernel = exact.kernel_basis(m)
    assert len(kernel) == 4
    for row in kernel:
        assert all(x == 0 for x in exact.vec_mat(row, m))


def test_projection_conic_pair_identity():
    # the node plus its residual cubic moves together with the tangent pair
    ctx = picard()
    assert ctx.verify_relation(
        {"N16": 1, "R16": 1}, {"C23": 1, "T23": 1}
    )


def test_pencil_degrees():
    ctx = picard()
    for line in LINE_NAMES:
        f = ctx.type1_pencil(line).fiber
        assert ctx.inner(f, ctx.eta_h) == 3  # members are cubic curves
    f2 = ctx.type2_class("N16", "T15")
    assert ctx.inner(f2, ctx.eta_h) == 4
    f3 = ctx.type3_pencil("T16", "T14").fiber
    assert ctx.inner(f3, ctx.eta_h) == 4
