"""Tau, the 120 pentahedral permutations and the 240 chamber symmetries as
certified curve permutations, against the dense paths they replace.

`autgroup.curve_permutation` builds an isometry from its map of the twenty
curves and certifies it on the curve intersection table
(`CurveAction.permutation`). These tests check its matrices against
`isometry_from_images` and `compose`, the S5 inverses used for
conjugation, `CurveAction.of` on curve permutations against the pairing
check and the dense actions, the 64 wall generators that `relabel` reads
off renamed curve actions against a reference built by reflections and
products, the same generator from every symmetry carrying a worked wall,
the letters-phase heights that permutation letters leave alone, the
rejections (plain and `python -O`), and the construction budget of
`AutContext`.
"""

import random
import sys
from functools import cache
from itertools import permutations
from pathlib import Path

import pytest

from forked_runs import forked_runs, main_after
from hessaut import autgroup, cli, exact, products
from hessaut.autgroup import (
    WALL_1A_EXAMPLE_OCTAD,
    AutContext,
    Isometry,
    autctx,
    compose,
    curve_permutation,
    identity_isometry,
    isometry_from_images,
    relabel,
)
from hessaut.hessian import NODE_NAMES, picard
from hessaut.products import CurveAction, curve_frame

from product_reference import conjugate, matrix_from_pairings, s5_conjugate
from test_curve_pairings import _check_action, _non_registry_isometries, _pairings
from test_hessian import TAU_PAIRS

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import words  # noqa: E402  (perfbench/words.py)

TAU_MAP = {a: b for pair in TAU_PAIRS for a, b in (pair, pair[::-1])}


@cache
def _s5_map(perm):
    """The curve map of the pentahedral permutation i -> perm[i - 1]."""
    ctx = picard()
    sigma = dict(zip(range(1, 6), perm))
    out = {}
    for faces_of in (ctx.node_faces, ctx.line_faces):
        for c in faces_of:
            faces = frozenset(sigma[i] for i in faces_of[c])
            out[c] = next(m for m in faces_of if faces_of[m] == faces)
    return out


def _dense(images, name):
    coord = picard().curve_coord
    return isometry_from_images({c: coord[d] for c, d in images.items()}, name)


def _inverse_perm(perm):
    return tuple(perm.index(i) + 1 for i in range(1, 6))


# --- the builder against the dense paths ---------------------------------------


def test_tau_and_the_s5_tables_match_isometry_from_images():
    a = autctx()
    assert curve_permutation(TAU_MAP, "tau").matrix == _dense(TAU_MAP, "tau").matrix
    assert a.tau.matrix == _dense(TAU_MAP, "tau").matrix
    perms = list(permutations(range(1, 6)))
    assert sorted(a.s5) == sorted(perms)
    for perm in perms:
        s = a.s5[perm]
        assert s.name == "s" + "".join(map(str, perm))
        assert s.matrix == _dense(_s5_map(perm), s.name).matrix, s.name


def test_tau_times_s_matches_the_product():
    a = autctx()
    labels = {v: k for k, v in a.symmetries.items()}
    for perm, s in a.s5.items():
        composed = {c: _s5_map(perm)[d] for c, d in TAU_MAP.items()}
        built = curve_permutation(composed, f"tau*{s.name}")
        assert built.matrix == compose(a.tau, s).matrix, s.name
        label = "tau" if s.name == "s12345" else f"tau*{s.name}"
        assert labels[label] == built.matrix


def test_the_s5_element_of_the_inverse_permutation_is_the_inverse():
    a = autctx()
    ident = identity_isometry().matrix
    for perm, s in a.s5.items():
        inv = a.s5[_inverse_perm(perm)]
        assert compose(inv, s).matrix == ident, s.name
        assert compose(s, inv).matrix == ident, s.name


def test_s5_conjugates_match_conjugation_by_the_inverse_matrix():
    a = autctx()
    for perm in sorted(a.s5)[::11]:
        s = a.s5[perm]
        want = compose(s.inverse(), a.g, s).matrix
        assert s5_conjugate(a.g, perm).matrix == want, s.name


# --- conjugates by relabelling -------------------------------------------------------


def _conjugates_by_product():
    """The 64 wall generators, each paired with its matrix as a reference
    builds it: each case 1a reflection by `reflection_phi` of its wall's
    vector; the projections and the case 3a generators as the product
    s^-1 * b * s (`compose`) for the first S5 element s, in sorted order,
    that carries N16 to the node, or the worked wall to the wall; and the
    1b and 3b generators as tau * b * tau for their 1a and 3a partners."""
    a = autctx()
    ctx = picard()
    out = []
    reflections = []
    for w, iso in a.wall_generators["1a"]:
        reflections.append(a.reflection_phi(w.vec))
        out.append((iso, reflections[-1].matrix))
    base_faces = ctx.node_faces["N16"]
    for n in NODE_NAMES:
        perm = next(p for p in sorted(a.s5)
                    if frozenset(p[i - 1] for i in base_faces) == ctx.node_faces[n])
        out.append((a.projections[n], s5_conjugate(a.p16, perm).matrix))
    worked = a.worked_3a
    first = {}
    for perm in sorted(a.s5):
        first.setdefault(a.s5[perm].apply(worked.vec), perm)
    gens_3a = {w.vec: s5_conjugate(a.g, first[w.vec]) for w, _ in a.wall_generators["3a"]}
    for w, iso in a.wall_generators["3a"]:
        out.append((iso, gens_3a[w.vec].matrix))
    for (_, iso), phi in zip(a.wall_generators["1b"], reflections, strict=True):
        out.append((iso, compose(a.tau, phi, a.tau).matrix))
    for w, iso in a.wall_generators["3b"]:
        out.append((iso, compose(a.tau, gens_3a[a.tau.apply(w.vec)], a.tau).matrix))
    return out


def test_relabelled_conjugates_equal_their_products():
    pairs = _conjugates_by_product()
    assert len(pairs) == 64
    for iso, want in pairs:
        assert iso.matrix == want, iso.name


def test_relabelled_actions_agree_with_the_actions_of_their_matrices():
    rng = random.Random(5)
    xs = [[rng.randint(-9, 9) for _ in range(16)] for _ in range(8)]
    for iso, _ in _conjugates_by_product():
        fresh = CurveAction.of(iso.matrix, iso.name)
        action = iso.curve_action
        assert (action.src, action.combos) == (fresh.src, fresh.combos)
        for x in xs:
            assert action(_pairings(x)) == fresh(_pairings(x)) == _pairings(iso.apply(x))


def _worked_pairs(a):
    """(worked wall, its generator, the cases of its orbit, carriers per wall)
    for the three families."""
    w1a = next(w for w in a.walls["1a"] if frozenset(w.key[1:]) == WALL_1A_EXAMPLE_OCTAD)
    w2 = next(w for w, iso in a.wall_generators["2"] if iso.name == "p16")
    w3a = a.worked_3a
    return ((w1a, a.reflection_phi(w1a.vec), ("1a", "1b"), 10),
            (w2, a.p16, ("2",), 24),
            (w3a, a.g, ("3a", "3b"), 8))


def test_every_carrying_symmetry_gives_the_same_generator():
    """A wall's generator is s b s^-1 for its family's worked generator b and
    any of the 240 chamber symmetries s that carry b's wall to it, with its
    vector's own sign: 10 of them for each case 1a or 1b wall, 24 for each
    case 2 wall and 8 for each case 3a or 3b wall. The orbits are the 64 walls."""
    a = autctx()
    symmetries = _built_symmetries()
    reached = 0
    for worked, b, cases, count in _worked_pairs(a):
        carriers = {}
        for s in symmetries:
            carriers.setdefault(s.apply(worked.vec), []).append(s)
        assert set(carriers) == {w.vec for case in cases for w, _ in a.wall_generators[case]}
        for case in cases:
            for w, iso in a.wall_generators[case]:
                assert len(carriers[w.vec]) == count, iso.name
                built = {relabel(b, s, iso.name).matrix for s in carriers[w.vec]}
                assert built == {iso.matrix}, iso.name
                reached += 1
    assert reached == 64


# construction mutants, as code run before `reduce`, by the failure they raise
MUTANTS = {
    # the 1a family given g, an involution that pushes omega along a case 3a
    # wall's vector, not along the 1a wall's (nor negates the 1a wall's)
    "g must push omega by 15 times its wall's r1":
        "autgroup.AutContext.reflection_phi = lambda self, alpha: self.g\n",
    # the 1a family given tau with a push of 0: tau is an involution and
    # fixes omega, so only the push certificate's k > 0 refuses it. That
    # clause, with b^2 = 1, is what certifies that b negates its wall's vector
    "tau must push omega by 0 times its wall's r1": (
        "autgroup.AutContext.reflection_phi = lambda self, alpha: self.tau\n"
        "autgroup.PUSH_MULTIPLES['1a'] = 0\n"
    ),
    # each tau*s built as s: S5 alone does not carry the worked 1a wall to
    # every case 1a wall
    "no chamber symmetry carries a worked wall to": (
        "real = autgroup.curve_permutation\n"
        "def build(images, name):\n"
        "    if name.startswith('tau*'):\n"
        "        tau = autgroup.picard().tau_partner\n"
        "        images = {c: images[tau(c)] for c in images}\n"
        "    return real(images, name)\n"
        "autgroup.curve_permutation = build\n"
    ),
}


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("message", sorted(MUTANTS))
def test_construction_certifies_that_worked_generators_reach_every_wall(runs, message, flags):
    status, _, err = runs(*flags)[message]
    assert status == 1, err
    assert err.startswith(f"certification failed: {message}"), err


def test_conjugating_any_isometry_renames_its_curves():
    """`CurveAction.conjugate` on isometries that are not involutions: the
    action of s b s^-1 from the product, and `inverse_rows` its inverse."""
    a = autctx()
    for key, b in sorted(_non_registry_isometries().items()):
        for s in (a.tau, a.registry["s23451"], a.registry["s31452"]):
            h = conjugate(b, s)
            fresh = CurveAction.of(h.matrix, key)
            action = b.curve_action.conjugate(s.curve_action)
            assert (action.src, action.combos) == (fresh.src, fresh.combos), (key, s.name)
            assert action.inverse_rows() == h.inverse().matrix, (key, s.name)
    # for an involution the inverse rows are the matrix itself
    assert relabel(a.g, a.tau, "g^tau").matrix == compose(a.tau, a.g, a.tau).matrix


def test_conjugation_needs_a_curve_permutation():
    a = autctx()
    with pytest.raises(ValueError, match="permutation of the curves"):
        a.g.curve_action.conjugate(a.registry["p16"].curve_action)


# --- CurveAction.of on curve permutations ---------------------------------------


def _pairings_accept(matrix, src):
    """The pairing check that `CurveAction.of` once ran on packed columns:
    K of M, from dense products, read off against the pairings of the
    curves the rows map to."""
    frame = curve_frame()
    k = [tuple(exact.mat_vec(matrix, g)) for g in frame.pairings]
    return all(k[d] == frame.pairings[c] for d, c in enumerate(src) if c is not None)


def _built_symmetries():
    """The 240 symmetries as the builder makes them: s and tau*s."""
    a = autctx()
    out = []
    for perm, s in a.s5.items():
        composed = {c: _s5_map(perm)[d] for c, d in TAU_MAP.items()}
        out += [s, curve_permutation(composed, f"tau*{s.name}")]
    return out


def test_curve_action_of_gives_each_symmetry_its_builders_permutation():
    isos = _built_symmetries()
    assert len({iso.matrix for iso in isos}) == 240
    for iso in isos:
        fresh = CurveAction.of(iso.matrix, iso.name)
        assert not fresh.combos
        assert fresh.src == iso.curve_action.src, iso.name
        assert _pairings_accept(iso.matrix, fresh.src), iso.name
        _check_action(Isometry(iso.matrix, iso.name))


def test_the_builder_carries_the_action_of_its_map():
    frame = curve_frame()
    for images, name in ((TAU_MAP, "tau"), (_s5_map((2, 3, 4, 5, 1)), "s23451")):
        iso = curve_permutation(images, name)
        src = iso.curve_action.src
        for c, d in images.items():
            assert src[frame.name_index[d]] == frame.name_index[c]


def test_the_packed_and_preimage_checks_reject_a_node_line_swap():
    # rows are curves, but a node and a line change places, which breaks the
    # intersection numbers; T25 and T34 then go to non-curves, whose computed
    # preimages fail
    frame = curve_frame()
    rows = list(frame.coords[:16])
    rows[0], rows[10] = rows[10], rows[0]
    cols = tuple(zip(*rows))
    images = [tuple(sum(a * b for a, b in zip(frame.coords[c], col)) for col in cols)
              for c in (18, 19)]
    assert [frame.names[c] for c in (18, 19)] == ["T25", "T34"]
    assert not any(q in frame.index for q in images)
    src = list(range(20))
    src[0], src[10] = 10, 0
    assert not _pairings_accept(rows, src)
    with pytest.raises(ValueError, match="isometry"):
        CurveAction.of(tuple(rows), "swap")


def test_every_linear_permutation_of_the_curves_is_a_symmetry():
    """An integer matrix that permutes the twenty curves is one of the 240
    symmetries, so on such a matrix, where `CurveAction.of` has only its
    read-off check, that check cannot fail.

    A permutation pi of the curves is the action of a linear map exactly when
    it keeps the column space of Q, the 20x16 curve coordinates, that is when
    P[pi i][pi j] = P[i][j] for the projection P = Q (Q^T Q)^-1 Q^T; the
    curves span, so the map is then unique.
    """
    frame = curve_frame()
    q = [list(c) for c in frame.coords]
    qt = exact.transpose(q)
    p = exact.mat_mul(exact.mat_mul(q, exact.invert_rational(exact.mat_mul(qt, q))), qt)
    found = []

    def extend(pi):
        i = len(pi)
        if i == len(q):
            found.append(tuple(pi))
            return
        for t in range(len(q)):
            if t not in pi and all(p[i][j] == p[t][d] for j, d in enumerate(pi + [t])):
                extend(pi + [t])

    extend([])
    symmetries = {Isometry(m, "").curve_action.src for m in autctx().symmetries}
    assert len(symmetries) == 240
    assert set(found) == symmetries


def test_the_table_read_off_agrees_with_the_packed_check():
    """The 64 descent generators and tau: the curves read off by
    `CurveAction.of` pass the packed product check it made before."""
    a = autctx()
    letters = [iso for _, iso, _ in a.descent] + [a.tau]
    assert len(letters) == 65
    for iso in letters:
        fresh = CurveAction.of(iso.matrix, iso.name)
        assert fresh.src == iso.curve_action.src, iso.name
        assert _pairings_accept(iso.matrix, fresh.src), iso.name
    assert sum(None in iso.curve_action.src for iso in letters) == 64


# --- letters-phase heights -------------------------------------------------------


def _descend_dot_per_letter(a, letters):
    """`AutContext.descend` on letters as it ran before: one dot product and
    one entry cap after every letter, and after every descent step, where
    the height is taken by a dot product, not by the letter's push."""
    frame = curve_frame()
    product = frame.identity_pairings.copy()
    u = _pairings(a.omega)
    h = exact.dot(u, a.omega)
    for b in letters:
        before = h
        u = b.curve_action(u)
        h = exact.dot(u, a.omega)
        if not b.curve_action.combos:
            assert h == before, b.name
        product.act(b.curve_action, frame.entry_cap(h))
    word, heights = [], [h]
    while (hit := a.scan.first_hit(u)) is not None:
        name, iso, _ = a.descent[hit[0]]
        u = iso.curve_action(u)
        h = exact.dot(u, a.omega)
        product.act(iso.curve_action, frame.entry_cap(h))
        word.append(name)
        heights.append(h)
    return word, matrix_from_pairings(product), heights


@pytest.mark.parametrize("block", [0, 1])
def test_letters_phase_skip_matches_a_dot_per_letter(block, monkeypatch):
    a = autctx()
    real_dot = exact.dot
    for w in words.pool()[block]:
        letters = [a.registry[n] for n in w.split(",")]
        want = _descend_dot_per_letter(a, letters)
        calls = []
        monkeypatch.setattr(exact, "dot", lambda x, y: calls.append(1) or real_dot(x, y))
        word, residual, heights = a.descend(letters)
        monkeypatch.setattr(exact, "dot", real_dot)
        assert (word, residual.matrix, heights) == want, w
        # the start's height is `AutContext.descent_start`, a letter's the sum of its
        # curve pairings: no dot product
        assert len(calls) == 0, w


# --- rejections --------------------------------------------------------------------


def _identity_map():
    return {c: c for c in curve_frame().names}


def _bad_maps():
    not_bijective = {**_identity_map(), "N16": "N26"}
    relation = {**_identity_map(), "T15": "T23", "T23": "T15"}
    basis_swap = {**_identity_map(), "N16": "N26", "N26": "N16"}
    missing = _identity_map()
    del missing["T34"]
    return {
        "bijection": not_bijective,
        "relations at T15": relation,
        "not an isometry": basis_swap,
        "twenty curves": missing,
    }


@pytest.mark.parametrize("message", sorted(_bad_maps()))
def test_curve_permutation_rejects(message):
    with pytest.raises(ValueError, match=message):
        curve_permutation(_bad_maps()[message], "bad")


def test_curve_permutation_accepts_the_identity():
    assert curve_permutation(_identity_map(), "id").matrix == identity_isometry().matrix


OFF_BASIS = ("T15", "T23", "T25", "T34")


@pytest.mark.parametrize("curve", OFF_BASIS)
def test_images_are_checked_at_each_curve_off_the_basis(curve):
    """A basis curve's image is its own row of the matrix, so only the four
    curves off the basis are applied; a wrong image of any one is refused."""
    ctx = picard()
    assert sorted(set(curve_frame().names) - set(ctx.basis_names)) == list(OFF_BASIS)
    images = {c: ctx.curve_coord[c] for c in curve_frame().names}
    assert isometry_from_images(images, "id").matrix == identity_isometry().matrix
    other = next(c for c in OFF_BASIS if c != curve)
    with pytest.raises(ValueError, match=f"violate the curve relations at {curve}$"):
        isometry_from_images({**images, curve: ctx.curve_coord[other]}, "bad")


runs = forked_runs({
    **{m: main_after(patch, ["reduce", "--word", "p16"]) for m, patch in MUTANTS.items()},
    "rejects": (
        "from hessaut.autgroup import curve_permutation\n"
        "from hessaut.products import curve_frame\n"
        "ident = {c: c for c in curve_frame().names}\n"
        "for bad in ({**ident, 'N16': 'N26'}, {**ident, 'T15': 'T23', 'T23': 'T15'},\n"
        "            {**ident, 'N16': 'N26', 'N26': 'N16'}):\n"
        "    try:\n"
        "        curve_permutation(bad, 'bad')\n"
        "    except ValueError as e:\n"
        "        print('rejected:', e)\n"
    ),
})


def test_curve_permutation_rejects_under_python_O(runs):
    status, out, err = runs("-O")["rejects"]
    assert status == 0, err
    assert out.splitlines() == [
        "rejected: bad: not a bijection of the twenty curves",
        "rejected: bad: images violate the curve relations at T15",
        "rejected: bad: not an isometry of the Picard lattice",
    ]


# --- construction budget -----------------------------------------------------------


def test_construction_takes_no_inverse_and_few_products(monkeypatch):
    # these stay callables at their paths for the benchmark tracer
    for path in ("Isometry.inverse", "compose", "AutContext._apply_q"):
        target = autgroup
        for part in path.split("."):
            target = getattr(target, part)
        assert callable(target), path
    autctx()  # picard, the walls and the curve frame are cached
    calls = {"inverse": 0, "compose": 0, "of": 0, "apply": 0, "involution": 0, "preimage": 0}
    real_inverse, real_compose = Isometry.inverse, autgroup.compose
    real_of, real_apply = CurveAction.of.__func__, Isometry.apply
    real_involution, real_preimage = CurveAction.is_involution, products.preimage

    def inverse(self, name=""):
        calls["inverse"] += 1
        return real_inverse(self, name)

    def counted(*isos):
        calls["compose"] += 1
        return real_compose(*isos)

    def of(cls, matrix, name=""):
        calls["of"] += 1
        return real_of(cls, matrix, name)

    def apply(self, vec):
        calls["apply"] += 1
        return real_apply(self, vec)

    def is_involution(self):
        calls["involution"] += 1
        return real_involution(self)

    def preimage(*args):
        calls["preimage"] += 1
        return real_preimage(*args)

    monkeypatch.setattr(Isometry, "inverse", inverse)
    monkeypatch.setattr(autgroup, "compose", counted)
    monkeypatch.setattr(CurveAction, "is_involution", is_involution)
    monkeypatch.setattr(products, "preimage", preimage)
    monkeypatch.setattr(CurveAction, "of", classmethod(of))
    monkeypatch.setattr(Isometry, "apply", apply)
    a = AutContext()
    assert calls["inverse"] == 0
    # the conjugates are relabelled and involutions read off their actions
    assert calls["compose"] == 0
    # the tables p16, f and g, and the worked reflection phi; every descent
    # letter has its action
    assert calls["of"] == 4
    # the 4 images of the curves off the basis for each table, p16's eta image
    # and the twelve case 1b wall vectors: each wall's carrier is found on
    # pairings, and phi's negated root is certified on its action
    assert calls["apply"] == 3 * 4 + 1 + 12
    # f and the three worked generators, each once; their 64 conjugates
    # inherit the certificate
    assert calls["involution"] == 4
    # only the combinations of those four actions: no letter's b^-1(omega)
    assert calls["preimage"] == 17
    assert all("curve_action" in vars(iso) for _, iso, _ in a.descent)


def test_dense_apply_budgets_of_construction_and_the_suites(monkeypatch):
    """Each fact is certified once: the negation and push of every wall
    generator on its curve action, phi's negation on its action, and a
    reduced word's residual by its symmetry label. A second dense path
    shows here as more `Isometry.apply` calls."""
    autctx()  # picard, the walls and the curve frame are cached
    applied = []
    real_apply = Isometry.apply
    monkeypatch.setattr(Isometry, "apply",
                        lambda self, vec: applied.append(1) or real_apply(self, vec))
    runs = {"construction": AutContext, "generators": lambda: cli.generators_suite(0),
            "reduce": lambda: cli.reduce_suite(0)}
    budgets = {}
    for name, run in runs.items():
        applied.clear()
        run()
        budgets[name] = len(applied)
    # construction: the 4 images of the curves off the basis for each of three
    # tables, p16's eta image and the twelve case 1b wall vectors; generators:
    # the discriminant actions, the skew table's 4 such images and the dense
    # relations; reduce: the 240 symmetries and 64 generators at the height floor
    assert budgets == {"construction": 3 * 4 + 1 + 12, "generators": 280, "reduce": 240 + 64}
