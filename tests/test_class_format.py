"""Divisor classes are integers.

An integral class is a tuple of ints; a wall projection r1 is an integer
vector `vec` over its least denominator `den`, with `r1` its Fraction view.
`Picard.resolve` is compared with the Fraction summation it replaced
(`fraction_reference.resolve`), `Picard.project` with a Fraction solve of
the projection, every `WallRoot` with the projection of its root or with
the tau image of its partner, and the cached incidence rules with the rules
recomputed here.
"""

import ast
from collections import Counter
from fractions import Fraction
from functools import cache
from math import gcd
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
import picard_reference
from hessaut import exact, lattices, weber
from hessaut.autgroup import (
    WALL_1A_EXPR,
    WALL_2_EXPR,
    WALL_3A_EXPR,
    autctx,
    compose,
    enumerate_wall_roots,
)
from hessaut.hessian import (
    CURVE_NAMES,
    LINE_NAMES,
    NODE_NAMES,
    Picard,
    incidence,
    pencil_catalog,
    picard,
)
from hessaut.lorentz import weyl_vector

SRC = Path(__file__).resolve().parents[1] / "src" / "hessaut"

DENOMINATORS = (1, 2, 3, 5, 6, 15)
KEYS = (
    CURVE_NAMES
    + ("etaH", "etaS", "NN", "TT", "omega")
    + tuple("C" + l[1:] for l in LINE_NAMES)
    + tuple("R" + n[1:] for n in NODE_NAMES)
)
WALL_DENOMINATORS = {"1a": 3, "1b": 3, "2": 2, "3a": 6, "3b": 6}

int_exprs = st.dictionaries(st.sampled_from(KEYS), st.integers(-5, 5), min_size=1, max_size=8)
fraction_exprs = st.dictionaries(
    st.sampled_from(KEYS),
    st.builds(Fraction, st.integers(-20, 20), st.sampled_from(DENOMINATORS)),
    min_size=1,
    max_size=8,
)


def _all_of(vec, kind) -> bool:
    return type(vec) is tuple and len(vec) == 16 and all(type(x) is kind for x in vec)


# --- Picard.resolve ------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(int_exprs)
def test_resolve_of_int_coefficients_is_an_int_tuple(expr):
    ctx = picard()
    got = ctx.resolve(expr)
    assert got == ref.resolve(ctx, expr)
    assert _all_of(got, int)


@settings(max_examples=80, deadline=None)
@given(int_exprs, fraction_exprs)
def test_resolve_of_fraction_coefficients_is_a_fraction_tuple(ints, fractions):
    ctx = picard()
    for expr in (fractions, {**ints, **fractions}):
        got = ctx.resolve(expr)
        assert got == ref.resolve(ctx, expr)
        assert _all_of(got, Fraction)


def test_named_classes_match_the_reference_sums():
    ctx = picard()
    assert ctx.NN == ref.resolve(ctx, dict.fromkeys(NODE_NAMES, 1))
    assert ctx.TT == ref.resolve(ctx, dict.fromkeys(LINE_NAMES, 1))
    assert ctx.eta_h == ref.resolve(ctx, {"NN": Fraction(3, 5), "TT": Fraction(2, 5)})
    assert ctx.eta_s == ref.resolve(ctx, {"NN": Fraction(2, 5), "TT": Fraction(3, 5)})
    assert ctx.omega_prime == ref.resolve(ctx, {"NN": 1, "TT": 1})
    for line in LINE_NAMES:
        expr = {"etaH": 1, line: -2, **dict.fromkeys(ctx.nodes_on(line), -1)}
        assert ctx.conic(line) == ref.resolve(ctx, expr), line
    for node in NODE_NAMES:
        line = ctx.tau_partner(node)
        expr = {"etaH": 1, line: -1, node: -1, **dict.fromkeys(ctx.nodes_on(line), -1)}
        assert ctx.cubic(node) == ref.resolve(ctx, expr), node


def test_conics_and_cubics_resolve_once_per_name(monkeypatch):
    ctx = picard()
    rules = {}
    for line in LINE_NAMES:
        rules["C" + line[1:]] = {"etaH": 1, line: -2, **dict.fromkeys(ctx.nodes_on(line), -1)}
    for node in NODE_NAMES:
        line = ctx.tau_partner(node)
        rules["R" + node[1:]] = {"etaH": 1, line: -1, node: -1,
                                 **dict.fromkeys(ctx.nodes_on(line), -1)}
    fresh = Picard()
    calls = Counter()
    nodes_on = fresh.nodes_on
    monkeypatch.setattr(fresh, "nodes_on", lambda line: calls.update([line]) or nodes_on(line))
    for _ in range(2):
        for key, rule in rules.items():
            assert fresh.resolve({key: 1}) == ref.resolve(ctx, rule), key
        assert [fresh.conic(l) for l in LINE_NAMES] == [ctx.conic(l) for l in LINE_NAMES]
        assert [fresh.cubic(n) for n in NODE_NAMES] == [ctx.cubic(n) for n in NODE_NAMES]
    # each rule reads the nodes of its line once: the conic's line, the cubic's partner
    assert calls == Counter(LINE_NAMES * 2)


def test_classes_hold_ints_and_fractions_only_where_documented():
    ctx = picard()
    classes = [ctx.curve(c) for c in CURVE_NAMES]
    classes += [ctx.eta_h, ctx.eta_s, ctx.NN, ctx.TT, ctx.omega_prime, autctx().omega]
    classes += [ctx.conic(l) for l in LINE_NAMES] + [ctx.cubic(n) for n in NODE_NAMES]
    classes += [ctx.type2_class(n, l) for n in NODE_NAMES for l in ctx.lines_through(n)]
    classes += [p.fiber for p in pencil_catalog()]
    assert all(_all_of(v, int) for v in classes)
    for coeffs, den in (WALL_1A_EXPR, WALL_2_EXPR, WALL_3A_EXPR):
        assert type(den) is int and _all_of(ctx.resolve(coeffs), int)
    rows, den = lattices.discriminant_form_from_gram(ctx.gram)[1]
    assert type(den) is int and all(type(x) is int for row in rows for x in row)
    assert _all_of(ctx.project_to_sh(weyl_vector()), Fraction)


def test_no_float_constant_in_the_source():
    """A float can only enter through a constant or a true division; the
    type checks above catch the divisions on the classes."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        floats = [
            n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and type(n.value) in (float, complex)
        ]
        assert not floats, (path.name, floats)


# --- Picard.project --------------------------------------------------------------------


@cache
def _inverse_gram():
    return ref.invert(picard().gram)


def _reference_projection(v):
    """G^-1 times the L pairings of v with the basis classes, read in the
    Leech frame (`picard_reference.frame_coords`), on Fractions."""
    amb = lattices.ambient()
    target = amb.coords(v)
    _, basis_coords, _ = picard_reference.frame_coords()
    pairings = [exact.dot(exact.vec_mat(b, amb.gram), target) for b in basis_coords]
    return tuple(sum(map(Fraction.__mul__, row, pairings)) for row in _inverse_gram())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(-6, 6), min_size=26, max_size=26),
    st.sampled_from((1, 5, 7, 48)),
)
def test_project_is_the_projection_over_its_least_denominator(coords, scale):
    ctx = picard()
    v = lattices.ambient().vector([scale * c for c in coords])
    nums, den = ctx.project(v)
    assert _all_of(nums, int) and type(den) is int
    assert den > 0 and gcd(den, *nums) == 1
    want = _reference_projection(v)
    assert tuple(Fraction(x, den) for x in nums) == want
    assert ctx.project_to_sh(v) == want and _all_of(ctx.project_to_sh(v), Fraction)


def test_project_of_the_weyl_vector_and_a_curve_root():
    ctx = picard()
    assert ctx.project(weyl_vector()) == (ctx.omega_prime, 1)
    assert ctx.project(ctx.curve_roots["N16"]) == (ctx.curve("N16"), 1)


# --- WallRoot -----------------------------------------------------------------------


def _walls():
    """The 52 enumerated walls and the 12 case 1b walls built by tau."""
    walls = [w for ws in enumerate_wall_roots().values() for w in ws]
    return walls + [w for w, _ in autctx().wall_generators["1b"]]


def test_every_wall_projection_is_its_vector_over_its_least_denominator():
    ctx = picard()
    walls = _walls()
    assert len(walls) == 64
    for w in walls:
        assert _all_of(w.vec, int) and type(w.den) is int
        assert w.den == WALL_DENOMINATORS[w.case] and gcd(w.den, *w.vec) == 1
        assert _all_of(w.r1, Fraction)
        assert w.r1 == tuple(Fraction(x, w.den) for x in w.vec)
        if w.root is not None:
            assert w.r1 == ctx.project_to_sh(w.root) == _reference_projection(w.root)


def test_tau_carries_the_1a_and_3a_walls_to_the_1b_and_3b_walls():
    a = autctx()
    plain = {w.key[1:]: w for w in a.walls["1a"]}
    for wb, _ in a.wall_generators["1b"]:
        w = plain[wb.key[1:]]
        assert (wb.vec, wb.den) == (a.tau.apply(w.vec), w.den)
    partners = {w.vec: (w, g) for w, g in a.wall_generators["3a"]}
    seen = set()
    for w, iso in a.wall_generators["3b"]:
        partner, g = partners[a.tau.apply(w.vec)]
        assert w.vec == a.tau.apply(partner.vec) and w.den == partner.den
        assert iso.same_matrix(compose(a.tau, g, a.tau))
        seen.add(partner.key)
    assert len(seen) == 15


# --- the cached incidence rules ---------------------------------------------------------


def _label(name):
    return frozenset(int(c) for c in name[1:])


def test_incidence_equals_the_label_rule_on_all_ordered_pairs():
    for a in CURVE_NAMES:
        for b in CURVE_NAMES:
            if a == b:
                want = -2
            elif a[0] == b[0]:
                want = 0
            else:
                want = int(weber.add(_label(a), _label(b)) in weber.THETA_STEP)
            assert incidence(a, b) == want, (a, b)


def test_theta_contains_equals_its_rule_on_all_label_pairs():
    for beta in weber.ALL_POINTS:
        for alpha in weber.ALL_POINTS:
            want = weber.add(alpha, beta) in weber.THETA_STEP
            assert weber.theta_contains(beta, alpha) is want, (beta, alpha)
