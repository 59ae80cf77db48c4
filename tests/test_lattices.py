import inspect
import random
from collections import Counter
from fractions import Fraction
from itertools import islice, product

import pytest

from hessaut import cli, exact, lattices, leech
from hessaut.checks import CertificationError
from hessaut.exact import dot, vec_mat
from hessaut.hessian import Picard, picard
from hessaut.lorentz import LorentzVector, leech_root
from hessaut.lattices import (
    FiniteQuadraticForm,
    ambient,
    discriminant_form_from_gram,
    direct_sum,
    fqf_isomorphic,
    is_primitive,
    negated,
    orthogonal_complement,
    root_components,
    root_count,
    root_type,
    saturation,
    short_vectors,
    span,
    standard_gram,
)

import root_reference as ref
from test_certification import _python_O
from test_hessian import _lattice_r0


def _z():
    return leech_root(leech.ZERO)


def _block_diag(*grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    off = 0
    for g in grams:
        for i, row in enumerate(g):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(g)
    return out


def test_ambient_frame_is_even_unimodular():
    amb = ambient()
    g = amb.gram
    assert all(g[i][i] % 2 == 0 for i in range(26))
    assert all(g[i][j] == g[j][i] for i in range(26) for j in range(26))


def _leech_span_of_every_generator():
    """The span `Ambient` took before it stopped at the full index: all 760
    generators fed through `RowSpan`."""
    span = exact.RowSpan(24)
    for gen in lattices._leech_generators():
        span.add(gen)
    return span


def test_the_leech_frame_equals_the_span_of_every_generator():
    gens = list(lattices._leech_generators())
    assert len(gens) == 760 and len(set(gens)) == 760
    full = _leech_span_of_every_generator()
    assert full.rank == 24 and full.pivot_product == 8 ** 12
    assert [list(r[:24]) for r in ambient().rows[:24]] == full.basis()


def _leech_generators_one_short(generators=lattices._leech_generators):
    """The generators `Ambient` feeds, minus the last one it needs."""
    fed, span = 0, exact.RowSpan(24)
    for gen in generators():
        fed += 1
        span.add(gen)
        if span.rank == 24 and span.pivot_product == 8 ** 12:
            break
    return islice(generators(), fed - 1)


def test_a_leech_frame_one_generator_short_is_refused(monkeypatch):
    fed = []
    real = lattices._leech_generators
    monkeypatch.setattr(lattices, "_leech_generators", lambda: (fed.append(g) or g for g in real()))
    lattices.Ambient()
    assert len(fed) == 25  # of 760
    monkeypatch.setattr(lattices, "_leech_generators", _leech_generators_one_short)
    with pytest.raises(CertificationError, match="unimodular"):
        lattices.Ambient()


def test_a_leech_frame_one_generator_short_is_refused_under_python_O():
    code = (
        "from itertools import islice\n"
        "from hessaut import exact, lattices\n"
        "from hessaut.checks import CertificationError\n"
        + inspect.getsource(_leech_generators_one_short)
        + "gens = list(_leech_generators_one_short())\n"
        "lattices._leech_generators = lambda: iter(gens)\n"
        "try:\n"
        "    lattices.Ambient()\n"
        "except CertificationError as e:\n"
        "    print('rejected:', e)\n"
    )
    proc = _python_O(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected: L must be unimodular with det -1\n"


def test_coords_round_trip():
    amb = ambient()
    v = _z()
    c = amb.coords(v)
    assert amb.vector(c) == v
    assert dot(vec_mat(c, amb.gram), c) == -2


def test_coords_membership_matches_congruence_test():
    amb = ambient()
    # a vector whose Leech part fails the congruence characterization
    bad = LorentzVector(tuple([1] + [0] * 23), 0, 0)
    with pytest.raises(ValueError):
        amb.coords(bad)
    assert not leech.contains(bad.lam)
    good = LorentzVector(leech.generator_minus_three(), 2, -3)
    assert amb.vector(amb.coords(good)) == good
    assert leech.contains(good.lam)


def test_span_of_single_root():
    m = span([_z()])
    assert m.rank == 1
    assert m.gram == ((-2,),)


def test_complement_of_root_has_corank_one():
    m = orthogonal_complement(span([_z()]))
    assert m.rank == 25


def test_saturation_and_primitivity():
    z = _z()
    doubled = span([LorentzVector(tuple(2 * x for x in z.lam), 2 * z.m, 2 * z.n)])
    sat = saturation(doubled)
    assert sat.rank == 1 and sat.gram == ((-2,),)
    assert not is_primitive(doubled)
    assert is_primitive(sat)
    assert orthogonal_complement(orthogonal_complement(doubled)).rows == sat.rows


def test_standard_grams():
    assert standard_gram("U") == [[0, 1], [1, 0]]
    assert standard_gram("A2(-2)") == [[-4, 2], [2, -4]]
    e8 = standard_gram("E8(-2)")
    assert abs(lattices.exact.det(e8)) == 2 ** 8
    assert abs(lattices.exact.det(standard_gram("A2(-2)"))) == 12


def test_discriminant_forms_of_small_root_lattices():
    f, _ = discriminant_form_from_gram(standard_gram("A5(-1)"))
    assert f.orders == (6,)
    assert (f.den, f.qvals, f.pairings) == (6, (7,), ((1,),))  # -5/6 mod 2, mod 1
    f1, _ = discriminant_form_from_gram(standard_gram("A1(-1)"))
    assert f1.orders == (2,)
    assert (f1.den, f1.qvals, f1.pairings) == (2, (3,), ((1,),))  # -1/2 mod 2, mod 1


def test_forms_built_at_different_denominators_compare_equal():
    # q = 1/2 and the pairing 1/2, over 2 and over 12, with unreduced numerators
    half = FiniteQuadraticForm((2,), 2, (1,), ((1,),))
    for other in (FiniteQuadraticForm((2,), 12, (6,), ((6,),)),
                  FiniteQuadraticForm((2,), 12, (30,), ((-6,),))):
        assert other == half and hash(other) == hash(half)
        assert (other.den, other.qvals, other.pairings) == (2, (1,), ((1,),))
    # the zero form reduces to denominator 1
    assert FiniteQuadraticForm((2,), 4, (8,), ((4,),)).den == 1
    a2, _ = discriminant_form_from_gram(standard_gram("A2(-1)"))  # den 3
    u2, _ = discriminant_form_from_gram(standard_gram("U(2)"))  # den 2
    both = direct_sum(a2, u2)
    assert both.den == 6 and direct_sum(both, negated(both)).den == 6
    assert negated(negated(both)) == both


def test_form_values_are_the_norms_of_the_generators():
    """q and the pairings, read over den, are those of the returned
    generators rows / den, computed as Fractions."""
    for name in ("A5(-1)", "A2(-2)", "U(2)", "E8(-2)", "D5(3)"):
        g = standard_gram(name)
        f, (rows, den) = discriminant_form_from_gram(g)
        for i, a in enumerate(rows):
            for j, b in enumerate(rows):
                value = Fraction(dot(vec_mat(a, g), b), den * den)
                assert Fraction(f.pairings[i][j], f.den) == value % 1
            assert Fraction(f.qvals[i], f.den) == Fraction(dot(vec_mat(a, g), a), den * den) % 2


def test_fqf_isomorphism_basics():
    a1, _ = discriminant_form_from_gram(standard_gram("A1(-1)"))
    a2, _ = discriminant_form_from_gram(standard_gram("A2(-1)"))
    assert not fqf_isomorphic(a1, a2)
    u2, _ = discriminant_form_from_gram(standard_gram("U(2)"))
    assert fqf_isomorphic(u2, negated(u2))
    both = direct_sum(a1, u2)
    assert both.group_order == 8
    assert fqf_isomorphic(both, both)


def test_disc_group_order_equals_det():
    g = standard_gram("A2(-2)")
    f, _ = discriminant_form_from_gram(g)
    assert f.group_order == 12


def test_root_enumeration_counts():
    assert root_count(standard_gram("A1(-1)")) == 2
    assert root_count(standard_gram("A3(-1)")) == 12
    assert root_count(standard_gram("A5(-1)")) == 30
    assert root_count(standard_gram("D6(-1)")) == 60
    assert root_count(standard_gram("A7(-1)")) == 56
    assert root_count(standard_gram("E8(-1)")) == 240


def test_root_type_labels():
    g = _block_diag(standard_gram("A5(-1)"), *[standard_gram("A1(-1)")] * 5)
    assert root_type(g) == "A5+5A1"
    comps = root_components(g)
    assert sorted(c[0] for c in comps) == ["A1"] * 5 + ["A5"]
    g2 = _block_diag(standard_gram("D6(-1)"), *[standard_gram("A1(-1)")] * 5)
    assert root_type(g2) == "D6+5A1"


@pytest.mark.parametrize("search", [short_vectors, ref.short_vectors])
@pytest.mark.parametrize(
    "gram,target",
    [
        (standard_gram("U"), -2),  # indefinite
        ([[-2, 3], [3, -2]], -2),  # indefinite, -2 on the diagonal
        ([[-2, 2], [2, -2]], -2),  # semidefinite and singular
        (standard_gram("A2(1)"), -2),  # positive definite
        (standard_gram("A2(-1)"), 2),  # a positive target
    ],
)
def test_short_vectors_rejects_indefinite_forms(search, gram, target):
    with pytest.raises(ValueError):
        search(gram, target)


def test_scaled_root_lattice_has_no_short_roots():
    assert root_count(standard_gram("A2(-2)")) == 0
    assert len(short_vectors(standard_gram("A2(-2)"), -4)) == 6


def test_standard_gram_rejects_unknown_names():
    try:
        standard_gram("F4")
    except ValueError:
        pass
    else:
        raise AssertionError("expected rejection of an unknown lattice name")
    # no empty lattice and no zero scale: A0 would be [] and U(0) the zero form
    for name in ("A0", "D2", "U(0)", "A1(0)", "E8(-0)"):
        with pytest.raises(ValueError):
            standard_gram(name)


def test_hyperbolic_model_discriminant_product():
    # |disc| of U(2) + E8(-2) + A5(-2) + A1(-2) over an index-2^7 overlattice
    dets = [
        abs(lattices.exact.det(standard_gram(name)))
        for name in ("U(2)", "E8(-2)", "A5(-2)", "A1(-2)")
    ]
    assert dets == [4, 256, 192, 4]
    product = 1
    for d in dets:
        product *= int(d)
    assert product // (2 ** 7) ** 2 == 48


def test_from_rows_gram_matches_pairwise_gram_on_every_picard_lattice(monkeypatch):
    picard()  # built before the patch: `_lattice_r0` reads the cached context
    built = []
    from_rows = lattices._from_rows

    def record(rows):
        built.append(from_rows(rows))
        return built[-1]

    monkeypatch.setattr(lattices, "_from_rows", record)
    ctx = Picard()  # R, T and SH on first read
    assert built == []
    ctx.lattice_R, ctx.lattice_T, ctx.lattice_SH
    assert len(built) == 3
    _lattice_r0()
    assert len(built) == 4
    assert is_primitive(ctx.lattice_T) and is_primitive(ctx.lattice_SH)  # and their saturations
    g = ambient().gram
    for m in built:  # each entry as the removed `Ambient.pair(a, b)` computed it
        assert m.gram == tuple(tuple(dot(vec_mat(a, g), b) for b in m.rows) for a in m.rows)


def test_every_built_lattice_is_in_hermite_form():
    """`_from_rows` keeps the rows it is given: span, orthogonal_complement
    and saturation each pass rows already in Hermite normal form."""
    ctx = picard()
    built = [ctx.lattice_R, ctx.lattice_T, ctx.lattice_SH, span(ctx.curve_roots.values())]
    built += [f(m) for m in built for f in (orthogonal_complement, saturation)]
    for m in built:
        rows = [list(r) for r in m.rows]
        assert rows == exact.hnf_rows(rows)


# --- the isomorphism search as it was before (order, q) were computed once ----


def _reference_q(f, a):
    s = Fraction(0)
    k = len(f.orders)
    for i in range(k):
        s += a[i] * a[i] * Fraction(f.qvals[i], f.den)
        for j in range(i + 1, k):
            s += 2 * a[i] * a[j] * Fraction(f.pairings[i][j], f.den)
    return s % 2


def _reference_pair(f, a, b):
    k = len(f.orders)
    s = sum((a[i] * b[j] * Fraction(f.pairings[i][j], f.den)
             for i in range(k) for j in range(k)), Fraction(0))
    return s % 1


def _reference_isomorphic(f1, f2):
    if f1.group_order != f2.group_order:
        return False
    els1 = list(product(*[range(d) for d in f1.orders]))
    els2 = list(product(*[range(d) for d in f2.orders]))
    order = lattices._element_order
    inv1 = Counter((order(f1.orders, a), _reference_q(f1, a)) for a in els1)
    inv2 = Counter((order(f2.orders, a), _reference_q(f2, a)) for a in els2)
    if inv1 != inv2:
        return False
    k = len(f1.orders)

    def generated(images):
        seen = {tuple([0] * len(f2.orders))}
        frontier = list(seen)
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
            return generated(chosen) == f2.group_order
        for t in els2:
            if (order(f2.orders, t) != f1.orders[i]
                    or _reference_q(f2, t) != Fraction(f1.qvals[i], f1.den)):
                continue
            if any(_reference_pair(f2, t, chosen[j]) != Fraction(f1.pairings[i][j], f1.den)
                   for j in range(i)):
                continue
            if dfs(i + 1, chosen + [t]):
                return True
        return False

    return dfs(0, [])


def test_fqf_isomorphic_matches_the_reference_search_on_the_verify_calls():
    q_sh = lattices.discriminant_form(picard().lattice_SH)
    calls = [
        (cli._disc_form_T(), cli._model_form()),
        (q_sh, negated(cli._disc_form_T())),
        (q_sh, negated(cli._model_form())),
    ]
    for f1, f2 in calls:
        assert fqf_isomorphic(f1, f2) is _reference_isomorphic(f1, f2) is True
    # and a non-isomorphic pair of the same group
    model = cli._model_form()
    assert fqf_isomorphic(q_sh, model) is _reference_isomorphic(q_sh, model) is False


def _random_gram(rng, n):
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-3, 3)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-2, 2)
        d = abs(exact.det(g))
        if 1 < d <= 40:
            return g


def test_fqf_isomorphic_matches_the_reference_search_on_random_forms():
    rng = random.Random(11)
    agree = Counter()
    for _ in range(60):
        n = rng.randint(1, 3)
        g = _random_gram(rng, n)
        f, _ = discriminant_form_from_gram(g)
        # an isomorphic form from a change of basis, and an unrelated one
        u = [[int(i == j) + (j == i + 1) * rng.randint(-2, 2) for j in range(n)] for i in range(n)]
        moved, _ = discriminant_form_from_gram(
            exact.mat_mul(exact.mat_mul(u, g), exact.transpose(u)))
        other, _ = discriminant_form_from_gram(_random_gram(rng, rng.randint(1, 3)))
        for f2 in (moved, negated(f), other):
            got = fqf_isomorphic(f, f2)
            assert got == _reference_isomorphic(f, f2)
            agree[got] += 1
        assert fqf_isomorphic(f, moved)
    assert agree[True] >= 60 and agree[False] >= 20
