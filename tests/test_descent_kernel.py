"""The descent step kernel: the packed wall scan and the height cap.

`DescentScan` finds the first wall that the image v of the Weyl
projection lies on the wrong side of, e = <v, r_k> < 0, from packed sign
bits; it must agree with one dot product per letter at threshold 0, at
group edges (k = 0, 15, 16, 63), with ties at 0 (the test is a strict <),
values just below 0 and no hit. The height scan it replaced
(`product_reference.HeightScan`, on y_k = omega + push_k r_k against the
height) must pick the same letter and height. A worked generator certified
with a wrong push fails construction, plain and under `python -O`.
`CurveFrame.entry_cap` bounds the curve pairings K of an isometry by its
height, and alone sizes the packed slots; the bound is checked against
dense products on real words, and re-packs at the cap's width are forced
in the letters phase, none in the descent. An `Isometry` start is
descended as its one-letter word, so a non-isometry is rejected. The
bound rests on `CurveAction.of` accepting isometries only, and the 240
symmetries must act on the curves as a group of permutations.
"""

import inspect
import random
import sys
from fractions import Fraction
from itertools import product as cartesian
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from forked_runs import forked_runs, main_after
from hessaut import exact
from hessaut.autgroup import AutContext, Isometry, autctx, compose, identity_isometry
from hessaut.hessian import picard
from hessaut.products import (
    SCAN_CACHE_WIDTH,
    SCAN_GROUP,
    SLOT_MARGIN,
    CurveAction,
    DescentScan,
    PackedProduct,
    curve_frame,
    preimage,
)
from product_reference import HeightScan, conjugate, descent_vectors, inversion_f

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import words  # noqa: E402  (perfbench/words.py)

BIG = 2**600


def _dot_scan(rs, u):
    """The wall scan as one dot product per letter: the first (k, u . r_k)
    with u . r_k < 0."""
    for k, r in enumerate(rs):
        e = exact.dot(u, r)
        if e < 0:
            return k, e
    return None


def _unit_dual(r):
    """An integer vector x with x . r = 1, for r with coprime entries
    (extended Euclid over the entries)."""
    x, g = [0] * len(r), 0
    for i, a in enumerate(r):
        s0, s1, t0, t1, p, q = 1, 0, 0, 1, g, a  # s p0 + t q0 = p throughout
        while q:
            m = p // q
            p, q, s0, s1, t0, t1 = q, p - m * q, s1, s0 - m * s1, t1, t0 - m * t1
        if p < 0:
            p, s0, t0 = -p, -s0, -t0
        x = [s0 * v for v in x]
        x[i] += t0
        g = p
    assert g == 1 and exact.dot(x, r) == 1
    return x


def _tied(u, r, shift):
    """u moved so that its 16 basis entries pair with r to exactly shift:
    projected orthogonally to r over the integers, plus shift times a dual."""
    n, d = exact.dot(r, r), exact.dot(u, r)
    head = [n * x - d * y + shift * z for x, y, z in zip(u, r, _unit_dual(r))]
    assert exact.dot(head, r) == shift
    return head + list(u[16:])


# --- the packed wall scan -----------------------------------------------------

big_entries = st.one_of(st.integers(-9, 9), st.integers(-BIG, BIG))


@st.composite
def scan_case(draw):
    """64 wall vectors ordered so that the first hit is at a chosen k.

    The letters before k are turned, by a sign, to pair >= 0 with u. Letter
    k pairs < 0 with u (mode "at"), or exactly 0 (mode "equal": r_k is
    orthogonal to u, a tie, no hit, as the test is strict), and then
    letter k + 1 pairs < 0. k = 63 with mode "equal" leaves no hit at all.
    """
    u = [draw(big_entries) for _ in range(16)] + [draw(big_entries) for _ in range(4)]
    assume(any(u[:16]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    rs = [[rng.randint(-30, 30) for _ in range(16)] for _ in range(64)]
    k = draw(st.sampled_from((0, 15, 16, 63)))
    mode = draw(st.sampled_from(("at", "equal")))
    i = next(i for i, x in enumerate(u[:16]) if x)
    j = (i + 1) % 16
    for m in range(k):
        if exact.dot(u, rs[m]) < 0:
            rs[m] = [-x for x in rs[m]]
    below = k if mode == "at" else k + 1
    if mode == "equal":
        rs[k] = [u[j] if m == i else -u[i] if m == j else 0 for m in range(16)]
    if below < 64:
        e = exact.dot(u, rs[below])
        if e == 0:
            rs[below] = [-1 if m == i else 0 for m in range(16)]
            e = -abs(u[i])
        if e > 0:
            rs[below] = [-x for x in rs[below]]
    return rs, u, k, mode


@settings(max_examples=200, deadline=None)
@given(scan_case())
def test_packed_scan_finds_the_first_hit_of_the_dot_scan(case):
    rs, u, k, mode = case
    want = _dot_scan(rs, u)
    assert DescentScan(rs).first_hit(u) == want
    if mode == "at":
        assert want[0] == k and want[1] < 0
    elif k == 63:
        assert want is None
    else:
        assert want[0] == k + 1 and want[1] < 0


@pytest.mark.parametrize("k", [None, 0, 15, 16, 63])
@pytest.mark.parametrize("scale", [1, -1, 2**600, -(2**600) + 7])
def test_packed_scan_at_group_edges(k, scale):
    """u = (scale, 1, 0, ...): every letter but k pairs to a tie at 0, and
    k to -1, just below 0, when scale > 0, or to +1 when scale < 0."""
    rs = [[1, -scale] + [0] * 14 for _ in range(64)]
    if k is not None:
        rs[k][1] = -scale - (1 if scale > 0 else -1)
    u = [scale, 1] + [0] * 14
    want = None if k is None or scale < 0 else (k, -1)
    assert _dot_scan(rs, u) == want
    assert DescentScan(rs).first_hit(u) == want


@settings(max_examples=150, deadline=None)
@given(
    st.lists(big_entries, min_size=20, max_size=20),
    st.integers(0, 63),
    st.sampled_from((-1, 0, 1)),
)
def test_packed_scan_on_the_wall_vectors(u, j, shift):
    """The real scan order, with u pairing with wall j just below, at and
    just above 0."""
    a = autctx()
    rs = a.scan.rs
    u = _tied(u, rs[j], shift)
    assert a.scan.first_hit(u) == _dot_scan(rs, u)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(big_entries, min_size=20, max_size=20),
    st.integers(0, 63),
    st.sampled_from((-1, 0, 1, None)),
)
def test_the_wall_scan_picks_the_letter_and_height_of_the_height_scan(u, j, shift):
    """With h = <v, omega> read off u, letter k lowers the height below h
    exactly when <v, r_k> < 0, to h + push_k <v, r_k>."""
    a = autctx()
    if shift is not None:
        u = _tied(u, a.scan.rs[j], shift)
    h = exact.dot(u, a.omega)
    hit = a.scan.first_hit(u)
    want = None if hit is None else (hit[0], h + a.descent[hit[0]][2] * hit[1])
    assert HeightScan(descent_vectors(a)).first_hit(u, h) == want


@pytest.mark.parametrize("block", [0, 1])
def test_a_descent_by_the_height_scan_matches_the_wall_scan(block):
    """Pool words descended with the height scan choosing every letter, and
    the wall scan checked to choose it too, give `descend`'s word and heights."""
    a = autctx()
    heights_scan = HeightScan(descent_vectors(a))
    for w in words.pool()[block]:
        letters = [a.registry[n] for n in w.split(",")]
        u = a.descent_start[0]
        for b in letters:
            u = b.curve_action(u)
        h = exact.dot(u, a.omega)
        word, heights = [], [h]
        while (hit := heights_scan.first_hit(u, h)) is not None:
            k, h = hit
            e = a.scan.first_hit(u)
            assert e is not None and e[0] == k and heights[-1] + a.descent[k][2] * e[1] == h, w
            name, iso, _ = a.descent[k]
            u = iso.curve_action(u)
            word.append(name)
            heights.append(h)
        assert a.scan.first_hit(u) is None
        got = a.descend(letters)
        assert (got[0], got[2]) == (word, heights), w


def test_scan_tables_are_kept_per_width_up_to_the_cache_width():
    rs = autctx().scan.rs
    scan = DescentScan(rs)
    assert len(scan._groups(32)) == -(-len(rs) // SCAN_GROUP)
    for bits in (10, 100, 400, 700, 90):
        u = [(-1) ** i * 2**bits + i for i in range(16)]
        assert scan.first_hit(u) == _dot_scan(rs, u)
    widths = sorted(scan._tables)
    assert all(w % 32 == 0 for w in widths)
    # at most one table wider than SCAN_CACHE_WIDTH: the last one used
    assert len([w for w in widths if w > SCAN_CACHE_WIDTH]) == 1


# a wrong push multiple for a worked generator's family, by the failure it raises
PUSH_MUTANTS = {
    # p16 pushes omega by 4 r1 of its wall, not 6 r1
    "p16 must push omega by 6 times": 'autgroup.PUSH_MULTIPLES["2"] = 6\n',
    # 14 r1 is no integer multiple of the case 1a wall's vector 3 r1
    "phi must push omega by 14 times": 'autgroup.PUSH_MULTIPLES["1a"] = 14\n',
}


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("message", sorted(PUSH_MUTANTS))
def test_construction_certifies_the_push_of_each_worked_generator(runs, message, flags):
    status, _, err = runs(*flags)[message]
    assert status == 1, err
    assert err.startswith(f"certification failed: {message}"), err


def test_no_dot_product_in_the_descent_steps(monkeypatch):
    a = autctx()
    gamma = compose(*(a.registry[n] for n in ("g3", "phi2", "gb5", "p16", "g1")))
    want = a.descend(gamma)
    assert len(want[0]) >= 5
    calls = []
    real = exact.dot
    monkeypatch.setattr(exact, "dot", lambda u, v: calls.append(1) or real(u, v))
    assert a.descend(gamma) == want
    assert gamma.curve_action.combos
    # the height of gamma is the sum of its curve pairings; the identity's is `descent_start`
    assert len(calls) == 0


def test_height_pairs_with_omega_through_its_curve_pairings():
    """`height` dots with `CurveFrame.omega_pairings`, whose first sixteen
    are G omega, so it is <v, omega> for every class v."""
    a, ctx = autctx(), picard()
    omega = [int(x) for x in ctx.omega_prime]
    g_omega = exact.mat_vec(ctx.gram, omega)
    assert list(curve_frame().omega_pairings[:16]) == g_omega
    rng = random.Random(35)
    for _ in range(200):
        v = [rng.randint(-BIG, BIG) for _ in range(16)]
        assert a.height(v) == exact.dot(v, g_omega)
    assert a.height(omega) == a.descent_start[1] == 20


def test_a_letters_height_is_the_sum_of_its_curve_pairings():
    """omega is the sum of the twenty curves, so the height of a letter b,
    <b omega, omega>, is the sum of its action on omega's curve pairings,
    and that is the first height of b's descent."""
    a = autctx()
    u_omega, n = a.descent_start
    assert u_omega == curve_frame().omega_pairings and n == sum(u_omega)
    for name, b, _ in a.descent:
        want = a.height(b.apply(a.omega))
        assert sum(b.curve_action(u_omega)) == want, name
        assert a.descend(b)[2][0] == want, name


# --- the height cap -----------------------------------------------------------


def _majorant(x, gram, omega, n):
    gx = exact.mat_vec(gram, list(x))
    return Fraction(2 * exact.dot(gx, omega) ** 2, n) - exact.dot(gx, x)


def _majorant_norms():
    """(n, the majorant norms of the 16 unit vectors, those of the twenty
    curves), from the Gram matrix and omega alone."""
    ctx, frame = picard(), curve_frame()
    omega = [int(x) for x in ctx.omega_prime]
    n = exact.dot(exact.mat_vec(ctx.gram, omega), omega)
    units = [[int(i == j) for j in range(16)] for i in range(16)]
    return (n, [_majorant(e, ctx.gram, omega, n) for e in units],
            [_majorant(q, ctx.gram, omega, n) for q in frame.coords])


def _tight_height_constant():
    """The least c with (2 |H| / n) max ||e_i|| max ||q_c|| = c |H|: the
    bound on the curve pairings before it was rounded up to |H|."""
    n, basis, curves = _majorant_norms()
    square = 4 * max(basis) * max(curves) / (n * n)
    num, den = isqrt(square.numerator), isqrt(square.denominator)
    assert Fraction(num, den) ** 2 == square
    return Fraction(num, den)


def test_the_curve_majorant_norms_certify_the_height_cap():
    """`CurveFrame`'s certificate, 4 <q, omega>^2 - 2 n <q, q> <= n^2 for
    every curve q, says ||q||^2 <= n / 2; the unit vectors are the basis
    curves, so every |K_ic| <= (2 |H| / n) (n / 2) = |H|."""
    ctx, frame = picard(), curve_frame()
    n, basis, curves = _majorant_norms()
    assert n == 20 and sum(frame.omega_pairings) == n
    assert frame.coords[:16] == tuple(tuple(e) for e in exact.identity_matrix(16))
    assert basis == curves[:16]
    omega = [int(x) for x in ctx.omega_prime]
    for q, norm, u in zip(frame.coords, curves, frame.omega_pairings):
        gq = exact.mat_vec(ctx.gram, list(q))
        assert u == exact.dot(gq, omega) == 1
        assert exact.dot(gq, q) == -2
        assert norm == Fraction(21, 10)
        # the certificate's left side is 2 n ||q||^2, so it holds exactly when ||q||^2 <= n / 2
        assert 4 * u * u - 2 * n * exact.dot(gq, q) == 2 * n * norm <= n * n
    assert _tight_height_constant() == Fraction(21, 100)


@pytest.mark.parametrize("height", [0, 1, -1, 4, 20, 99, 100, -101, 10**50 + 3])
def test_entry_cap_is_the_ceiling(height):
    assert curve_frame().entry_cap(height) == abs(height)


def _replay_bounds(a, names):
    """Replay a word and its descent on dense matrix products, taking K =
    M G Q^T after every letter and step; return the (largest |K_ic|,
    height) pairs."""
    frame = curve_frame()
    pairings = exact.transpose(frame.pairings)
    m, v, seen = identity_isometry().matrix, a.omega, []
    isos = [a.registry[n] for n in names]
    word, _, heights = a.descend(isos)
    for iso in isos + [a.registry[n] for n in word]:
        m = exact.mat_mul(m, iso.matrix)
        v = iso.apply(v)
        seen.append((max(abs(x) for row in exact.mat_mul(m, pairings) for x in row), a.height(v)))
    assert [h for _, h in seen[len(isos) - 1:]] == heights
    return seen


@pytest.mark.parametrize("block", [0, 1])
def test_curve_pairings_stay_under_the_height_cap(block):
    """The tight bound c |H|, c = 21/100 from the majorants, not `entry_cap`'s |H|."""
    a, c = autctx(), _tight_height_constant()
    for w in words.pool()[block]:
        for largest, height in _replay_bounds(a, w.split(",")):
            assert largest <= c * abs(height), (w, height)


def test_letters_phase_repacks_under_the_cap(monkeypatch):
    a = autctx()
    rng = random.Random("repack-under-cap")
    walls = [name for name, _, _ in a.descent]
    names = [rng.choice(walls) for _ in range(200)]
    isos = [a.registry[n] for n in names]
    # the phase a re-pack happens in: the letters until the first scan, the
    # descent until the residual
    phase, events = ["letters"], []
    real_pack, real_scan, real_residual = (
        PackedProduct._pack, DescentScan.first_hit, AutContext.residual)

    def pack(self, cols, cap):
        real_pack(self, cols, cap)
        events.append((phase[0], cap, self.width))

    def scan(self, u):
        phase[0] = "descent"
        return real_scan(self, u)

    def residual(self, product, height):
        phase[0] = "residual"
        return real_residual(self, product, height)

    monkeypatch.setattr(PackedProduct, "_pack", pack)
    monkeypatch.setattr(DescentScan, "first_hit", scan)
    monkeypatch.setattr(AutContext, "residual", residual)
    got = a.descend(isos)
    monkeypatch.undo()
    assert len([e for e in events if e[0] == "letters"]) >= 3
    assert [e for e in events if e[0] == "descent"] == []
    # the residual, a symmetry, is re-packed once, at the key width
    assert [e[1:] for e in events if e[0] == "residual"] == [
        (curve_frame().entry_cap(20), curve_frame().key_width)]
    for _, cap, w in events:
        assert w == cap.bit_length() + SLOT_MARGIN
    assert a.classify_symmetry(got[1]) is not None
    assert got == a.descend(compose(*isos))


def _non_isometric_starts(a):
    """gamma = G0 (I + N) with v N = 0 for v = omega G0, which moves the
    Weyl projection as G0 does but is no isometry, and 2 tau."""
    rng = random.Random("uncapped-start")
    walls = [name for name, _, _ in a.descent]
    g0 = compose(*(a.registry[rng.choice(walls)] for _ in range(40)))
    v = g0.apply(a.omega)
    col = [v[1], -v[0]] + [0] * 14
    assert exact.dot(v, col) == 0 and any(col)
    row = [rng.randint(-9, 9) for _ in range(16)]
    shear = [[int(i == j) + col[i] * row[j] for j in range(16)] for i in range(16)]
    sheared = Isometry(tuple(map(tuple, exact.mat_mul(g0.matrix, shear))), "sheared")
    assert sheared.apply(a.omega) == v
    return sheared, Isometry(tuple(tuple(2 * x for x in r) for r in a.tau.matrix), "2tau")


def test_a_non_isometric_start_is_rejected():
    a = autctx()
    for gamma in _non_isometric_starts(a):
        for run in (a.descend, lambda g: a.descend([g]), a.reduce_height):
            with pytest.raises(ValueError, match="not an isometry of the Picard lattice"):
                run(gamma)


def test_a_non_isometric_start_is_rejected_under_python_O(runs):
    status, out, err = runs("-O")["non-isometric starts"]
    assert status == 0, err
    assert out.split("\n") == ["rejected sheared True"] * 3 + ["rejected 2tau True"] * 3 + [""]


def _start_isometries(a):
    r, names = a.registry, sorted(a.registry)
    isos = {"p16": r["p16"], "tau": a.tau, "f": a.f,
            "f1": inversion_f(1), "f7": inversion_f(7),
            "g^s23451": conjugate(a.g, r["s23451"])}
    for n in (2, 5, 12, 40):
        rng = random.Random(f"start-{n}")
        isos[f"word{n}"] = compose(*(r[rng.choice(names)] for _ in range(n)))
    return isos


START_KEYS = ("p16", "tau", "f", "f1", "f7", "g^s23451", "word2", "word5", "word12", "word40")


@pytest.mark.parametrize("key", START_KEYS)
def test_an_isometry_start_is_its_one_letter_word(key):
    a = autctx()
    g = _start_isometries(a)[key]
    word, residual, heights = got = a.descend(g)
    assert got == a.descend([g])
    m, v = [list(r) for r in g.matrix], g.apply(a.omega)
    replay = [a.height(v)]
    for name in word:
        m = exact.mat_mul(m, a.registry[name].matrix)
        v = a.registry[name].apply(v)
        replay.append(a.height(v))
    assert residual.matrix == tuple(map(tuple, m)) and heights == replay
    inv = g.inverse()
    assert inv.matrix == tuple(preimage(g.matrix, col) for col in picard().gram)
    want = ref.invert([list(r) for r in g.matrix])
    assert inv.matrix == tuple(tuple(int(x) for x in row) for row in want)


# --- isometries only, and the symmetry group ----------------------------------


def _scaled(matrix, k):
    return tuple(tuple(k * x for x in row) for row in matrix)


def test_curve_action_rejects_multiples_of_isometries():
    a = autctx()
    for name in ("tau", "p16"):
        with pytest.raises(ValueError):
            CurveAction.of(_scaled(a.registry[name].matrix, 2), f"2{name}")
        with pytest.raises(ValueError):
            a.descend([Isometry(_scaled(a.registry[name].matrix, 2), f"2{name}")])
    minus = CurveAction.of(_scaled(a.tau.matrix, -1), "-tau")
    assert len(minus.combos) == 20


def test_curve_action_rejects_multiples_under_python_O(runs):
    status, out, err = runs("-O")["multiples"]
    assert status == 0, err
    assert out.split("\n") == ["rejected tau", "rejected p16", "accepted -tau", ""]


runs = forked_runs({
    **{m: main_after(patch, ["reduce", "--word", "p16"]) for m, patch in PUSH_MUTANTS.items()},
    "non-isometric starts": (
        "import random\n"
        "from hessaut import exact\n"
        "from hessaut.autgroup import Isometry, autctx, compose\n"
        + inspect.getsource(_non_isometric_starts)
        + "a = autctx()\n"
        "for gamma in _non_isometric_starts(a):\n"
        "    for run in (a.descend, lambda g: a.descend([g]), a.reduce_height):\n"
        "        try:\n"
        "            run(gamma)\n"
        "        except ValueError as e:\n"
        "            print('rejected', gamma.name, 'not an isometry' in str(e))\n"
    ),
    "multiples": (
        "from hessaut.autgroup import autctx\n"
        "from hessaut.products import CurveAction\n"
        "a = autctx()\n"
        "for name in ('tau', 'p16'):\n"
        "    m = tuple(tuple(2 * x for x in row) for row in a.registry[name].matrix)\n"
        "    try:\n"
        "        CurveAction.of(m, name)\n"
        "    except ValueError:\n"
        "        print('rejected', name)\n"
        "CurveAction.of(tuple(tuple(-x for x in row) for row in a.tau.matrix), '-tau')\n"
        "print('accepted -tau')\n"
    ),
})


def test_the_240_symmetries_permute_the_curves_as_a_group():
    a = autctx()
    perms = set()
    for matrix in a.symmetries:
        src = CurveAction.of(matrix).src
        assert sorted(src) == list(range(20))
        perms.add(src)
    assert len(perms) == 240
    for p, q in cartesian(perms, repeat=2):
        assert tuple([p[c] for c in q]) in perms
    for p in perms:
        inverse = [0] * 20
        for c, d in enumerate(p):
            inverse[d] = c
        assert tuple(inverse) in perms
