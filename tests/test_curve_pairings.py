"""Curve-pairing coordinates for reduce words, against dense references.

`AutContext.descend` keeps K = M G Q^T, the pairings of the images of the
basis vectors with the twenty curves, and moves it by each letter's cached
`curve_action`. These tests check the actions against the dense matrices
(b(preimage) = curve, pairings of b(x) for every basis vector x), the
push b^-1(omega) = omega + push r of each letter against `Isometry.inverse`
and the wall vectors r that `scan` holds, the reference
recovery of M from K with its relation and divisibility checks
(`product_reference.matrix_from_pairings`), and that the `reduce` path
cannot be stripped by `python -O`.
"""

from pathlib import Path

import pytest

from forked_runs import forked_runs, main_after, python
from hessaut import exact
from hessaut.autgroup import (
    PUSH_MULTIPLES,
    Isometry,
    autctx,
    compose,
    identity_isometry,
)
from hessaut.hessian import picard
from hessaut.products import PackedProduct, curve_frame
from product_reference import conjugate, inversion_f, matrix_from_pairings


def _pairings(x):
    """Dense pairings of a class vector with the curves, in frame order."""
    gx = exact.mat_vec(picard().gram, list(x))
    return [exact.dot(gx, q) for q in curve_frame().coords]


def _preimages(action):
    """The vector b^-1(c) that the action reads for each curve c."""
    coords = curve_frame().coords
    out = [None if d is None else coords[d] for d in action.src]
    for c, curves, coeffs in action.combos:
        assert out[c] is None, c
        vec = [0] * 16
        for i, k in zip(curves, coeffs):
            vec = [a + k * b for a, b in zip(vec, coords[i])]
        out[c] = tuple(vec)
    return out


def _non_registry_isometries():
    a = autctx()
    return {
        "f1": inversion_f(1),
        "f7": inversion_f(7),
        "f15": inversion_f(15),
        "g^s": conjugate(a.g, a.registry["s23451"]),
        "p16*g1": compose(a.registry["p16"], a.registry["g1"]),
        "phi3*s31452*gb4": compose(*(a.registry[n] for n in ("phi3", "s31452", "gb4"))),
        "tau*s23451": compose(a.tau, a.registry["s23451"]),
    }


def _start(iso):
    """K = M G Q^T of an isometry, from dense products, packed at the cap of
    its height."""
    a, frame = autctx(), curve_frame()
    cols = [exact.mat_vec(iso.matrix, g) for g in frame.pairings]
    return PackedProduct(cols, frame.entry_cap(a.height(iso.apply(a.omega))))


def _check_action(iso):
    action = iso.curve_action
    coords = curve_frame().coords
    for c, pre in enumerate(_preimages(action)):
        assert pre is not None, (iso.name, c)
        assert iso.apply(pre) == coords[c], (iso.name, c)
    for i in range(16):
        e = [int(i == j) for j in range(16)]
        assert action(_pairings(e)) == _pairings(iso.apply(e)), (iso.name, i)


def test_curve_action_of_every_registry_letter_matches_dense():
    for iso in autctx().registry.values():
        _check_action(iso)


@pytest.mark.parametrize("key", sorted(_non_registry_isometries()))
def test_curve_action_of_non_registry_isometries_matches_dense(key):
    _check_action(_non_registry_isometries()[key])


def test_tau_and_s5_permute_the_curves_and_no_action_inverts(monkeypatch):
    a = autctx()
    perms = {n for n, iso in a.registry.items() if not iso.curve_action.combos}
    assert perms == {"id", "tau"} | {s.name for s in a.s5.values()}
    for _, iso, _ in a.descent:
        assert 15 <= sum(d is not None for d in iso.curve_action.src) <= 18, iso.name

    def no_inverse(self, name=""):
        raise AssertionError("a curve action called Isometry.inverse")

    monkeypatch.setattr(Isometry, "inverse", no_inverse)
    for name in ("tau", "s23451", "id", "p16", "phi2", "gb7", "f"):
        Isometry(a.registry[name].matrix, name).curve_action


def test_curve_action_rejects_non_isometries():
    frame = curve_frame()
    # rows are curves, but the permutation swaps a node with a line
    rows = list(frame.coords[:16])
    rows[0], rows[10] = rows[10], rows[0]
    with pytest.raises(ValueError):
        Isometry(tuple(rows), "swap").curve_action
    shear = tuple(tuple(int(i == j) + int((i, j) == (0, 1)) for j in range(16)) for i in range(16))
    with pytest.raises(ValueError):
        Isometry(shear, "shear").curve_action


# The node/line swap of the test above, with `products.preimage` replaced by
# the exact inverse: its preimages of T25 and T34, the two curves the swap
# sends to non-curves, are integral and map back, as they do for any
# unimodular matrix, so the read-off check of the other eighteen is what
# rejects the swap.
READ_OFF_ALONE = (
    "from hessaut import exact, products\n"
    "from hessaut.hessian import picard\n"
    "calls = []\n"
    "def exact_preimage(matrix, pairing, name=''):\n"
    "    q = exact.solve_rational(picard().gram, list(pairing))\n"
    "    x = exact.solve_rational(exact.transpose(matrix), q)\n"
    "    calls.append(all(v.denominator == 1 for v in x))\n"
    "    return tuple(int(v) for v in x)\n"
    "products.preimage = exact_preimage\n"
    "rows = list(products.curve_frame().coords[:16])\n"
    "rows[0], rows[10] = rows[10], rows[0]\n"
    "try:\n"
    "    products.CurveAction.of(tuple(rows), 'swap')\n"
    "except ValueError as e:\n"
    "    print('raised:', e)\n"
    "print('integral preimages:', calls)\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_the_read_off_check_alone_rejects_a_node_line_swap(runs, flags):
    _, out, err = runs(*flags)["read-off alone"]
    assert out == (
        "raised: swap: not an isometry of the Picard lattice\n"
        "integral preimages: [True, True]\n"
    ), err


def test_each_letter_pushes_omega_by_its_wall_vector():
    """b^-1(omega) = omega + push r densely, by `Isometry.inverse`, for each
    of the 64 letters, r its wall's vector and push PUSH_MULTIPLES / den;
    `scan` holds those r in descent order."""
    a = autctx()
    walls = [(w, iso) for pairs in a.wall_generators.values() for w, iso in pairs]
    assert len(walls) == len(a.descent) == 64
    assert a.scan.rs == tuple(w.vec for w, _ in walls)
    for (name, iso, push), (w, built) in zip(a.descent, walls):
        assert (name, iso) == (built.name, built)
        assert push > 0 and push * w.den == PUSH_MULTIPLES[w.case], name
        want = tuple(o + push * x for o, x in zip(a.omega, w.vec))
        assert iso.inverse().apply(a.omega) == want, name
    # on a product of two involutions b(omega) and b^-1(omega) differ
    b = compose(a.registry["p16"], a.registry["g1"])
    assert b.apply(a.omega) != b.inverse().apply(a.omega)


def test_matrix_from_pairings_recovers_the_matrix():
    a = autctx()
    isos = [identity_isometry(), a.tau, a.registry["p16"], a.registry["g1"]]
    isos += list(_non_registry_isometries().values())
    for iso in isos:
        assert matrix_from_pairings(_start(iso)) == iso.matrix, iso.name


def _shifted(product, shift):
    """The packed columns with shift[c] added to the first slot of column c."""
    out = product.copy()
    out.cols = [col + s for col, s in zip(product.cols, shift)]
    return out


def test_matrix_from_pairings_rejects_a_broken_curve_relation():
    start = _start(autctx().registry["p16"])
    for c in (0, 15, 16, 19):
        shift = [int(d == c) for d in range(20)]
        with pytest.raises(ValueError, match="relation"):
            matrix_from_pairings(_shifted(start, shift))


def test_matrix_from_pairings_rejects_pairings_of_no_integer_matrix():
    # x = (row 0 of adj) / den pairs integrally with every curve (x G = e_0),
    # so adding its pairings keeps the curve relations, but x is not integral
    start = _start(autctx().registry["p16"])
    assert any(x % curve_frame().den for x in picard()._gram_adj[0])
    shift = [q[0] for q in curve_frame().coords]
    with pytest.raises(ValueError, match="no integer matrix"):
        matrix_from_pairings(_shifted(start, shift))


def test_symmetry_keys_are_the_240_products():
    a = autctx()
    want = {}
    for s in a.s5.values():
        for pre, label in ((identity_isometry(), s.name), (a.tau, f"tau*{s.name}")):
            m = tuple(map(tuple, exact.mat_mul(pre.matrix, s.matrix)))
            want[m] = "id" if m == identity_isometry().matrix else (
                "tau" if m == a.tau.matrix else label
            )
    assert len(want) == 240
    assert a.symmetries == want


WORD = "tau,p16,g1,phi2,s21345"
WORD_JSON = (
    '{"word":["tau","p16","g1","phi2","s21345"],"initial_height":271,'
    '"applied":["phib10","p16","g15"],"heights":[271,76,68,20],"residual":"tau*s21345"}\n'
)


def test_reduce_is_byte_identical_under_python_O():
    plain = python("-m", "hessaut.cli", "reduce", "--word", WORD, "--json")
    optimized = python("-O", "-m", "hessaut.cli", "reduce", "--word", WORD, "--json")
    assert plain.returncode == optimized.returncode == 0, plain.stderr + optimized.stderr
    assert plain.stdout == optimized.stdout == WORD_JSON


runs = forked_runs({
    "read-off alone": READ_OFF_ALONE,
    # corrupted start pairings match no symmetry at the end of the descent,
    # so the word is replayed and reduce still prints the uncorrupted report;
    # the reference conversion of the corrupted K raises
    "corrupted": (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "from hessaut import autgroup, cli\n"
        "from product_reference import matrix_from_pairings\n"
        "frame = autgroup.curve_frame()\n"
        "start = frame.identity_pairings\n"
        "start.cols = [col + q[0] for col, q in zip(start.cols, frame.coords)]\n"
        "cli.main(['reduce', '--word', 'p16,tau', '--json'])\n"
        "product = start.copy()\n"
        "for name in ('p16', 'tau', 'p16'):\n"
        "    product.act(autgroup.autctx().registry[name].curve_action, frame.entry_cap(28))\n"
        "try:\n"
        "    matrix_from_pairings(product)\n"
        "except ValueError as e:\n"
        "    print('raised:', e)\n"
        "    sys.exit(3)\n"
    ),
    "reduce": main_after("", ["reduce", "--word", "p16,tau", "--json"]),
})


def test_corrupted_conversion_raises_under_python_O(runs):
    status, out, err = runs("-O")["corrupted"]
    _, plain, _ = runs("-O")["reduce"]
    assert status == 3, out + err
    report, raised = out.splitlines()
    assert report + "\n" == plain
    assert raised.startswith("raised: ")
