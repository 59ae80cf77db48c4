"""The residual of a descent: a symmetry looked up, or the word replayed.

A descent that succeeds ends in one of the 240 chamber symmetries.
`AutContext.residual` returns None at once off the symmetries' height 20,
re-packs a product that is off `CurveFrame.key_width` at the cap of its
height, and returns the stored matrix of the symmetry whose packed curve
pairings K equal the product's, or None. On None, `descend` replays the
word through `compose`. These tests check the lookup on every symmetry
and, against `_descend_dot_per_letter` (which always recovers M from K by
the reference `product_reference.matrix_from_pairings`), on pool and
suite words; a spy on `compose` counts the replays, and only
non-symmetries are replayed. A descent stalled on a few letters ends off
the symmetries and is replayed, plain and under `python -O`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import test_curve_permutations
from hessaut import autgroup, cli
from hessaut.autgroup import Isometry, autctx
from hessaut.products import DescentScan, curve_frame
from product_reference import matrix_from_pairings
from test_curve_permutations import _descend_dot_per_letter, words

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
# the descent letters a stalled descent may take: phi1-phi12 and the ten p
STALLED_LETTERS = 22


def _recoveries(monkeypatch, module):
    """The widths of the products that module recovers by `matrix_from_pairings`."""
    widths = []

    def spy(product):
        widths.append(product.width)
        return matrix_from_pairings(product)

    monkeypatch.setattr(module, "matrix_from_pairings", spy)
    return widths


def _replays(monkeypatch):
    """The factor names of every `compose` that `autgroup` runs."""
    calls = []
    real = autgroup.compose

    def spy(*isos):
        calls.append([i.name for i in isos])
        return real(*isos)

    monkeypatch.setattr(autgroup, "compose", spy)
    return calls


def _symmetries():
    """The 240 symmetries, rebuilt from their matrices under their labels."""
    return [Isometry(m, label) for m, label in autctx().symmetries.items()]


def _start(iso):
    """K of an isometry: the identity's packed pairings moved by its action."""
    a, frame = autctx(), curve_frame()
    cap = frame.entry_cap(a.height(iso.apply(a.omega)))
    return frame.identity_pairings.copy().act(iso.curve_action, cap)


def test_every_symmetry_is_looked_up_not_recovered(monkeypatch):
    a = autctx()
    replayed = _replays(monkeypatch)
    symmetries = _symmetries()
    assert len(symmetries) == 240
    for s in symmetries:
        word, residual, heights = a.descend([s])
        assert (word, residual.matrix, heights) == ([], s.matrix, [20]), s.name
        assert a.classify_symmetry(residual) == a.classify_symmetry(s) == s.name
    assert replayed == []


WORDS = {
    "pool blocks 0-1": lambda: [w.split(",") for b in words.pool()[:2] for w in b],
    "suite seeds 0-9": lambda: [w for seed in range(10) for w in cli.suite_words(seed)],
}
# how many of those words end with a product re-packed off the key width
OFF_KEY = {"pool blocks 0-1": 4, "suite seeds 0-9": 0}


@pytest.mark.parametrize("source", sorted(WORDS))
def test_words_match_a_recovered_residual(source, monkeypatch):
    a = autctx()
    final_widths = _recoveries(monkeypatch, test_curve_permutations)
    replayed = _replays(monkeypatch)
    for w in WORDS[source]():
        letters = [a.registry[n] for n in w]
        want = _descend_dot_per_letter(a, letters)
        word, residual, heights = a.descend(letters)
        assert (word, residual.matrix, heights) == want, w
        assert a.classify_symmetry(residual) is not None, w
    # every residual is a symmetry, so none is replayed, also of the
    # products that re-packed away from the key width
    assert replayed == []
    assert len([w for w in final_widths if w != curve_frame().key_width]) == OFF_KEY[source]


def test_a_non_symmetry_at_the_key_width_is_recovered(monkeypatch):
    # K of p16 at the key width is no symmetry's: the lookup gives None at
    # its own height, and the reference recovers p16 from it
    a = autctx()
    p16 = a.registry["p16"]
    product = _start(p16)
    assert product.width == curve_frame().key_width
    replayed = _replays(monkeypatch)
    height = a.height(p16.apply(a.omega))
    assert height != 20
    assert a.residual(product, height) is None
    assert matrix_from_pairings(product) == p16.matrix
    assert a.classify_symmetry(p16) is None
    assert replayed == []


def test_a_symmetry_repacked_wider_is_looked_up_under_its_label(monkeypatch):
    a = autctx()
    replayed = _replays(monkeypatch)
    for s in _symmetries():
        product = _start(s)
        product._pack(product.columns(), 1 << 200)
        cols = product.cols
        assert product.width > curve_frame().key_width
        residual = a.residual(product, 20)
        assert residual.matrix == s.matrix
        assert a.classify_symmetry(residual) == s.name
        # the product is left as it is
        assert product.cols is cols and product.width > curve_frame().key_width
    assert replayed == []


def test_columns_read_at_another_width_are_not_taken_for_a_symmetry():
    # the packed columns of tau, declared one bit wider, decode to the
    # pairings of no isometry: re-packed at the key width they match no
    # symmetry, and the reference finds a broken curve relation
    a = autctx()
    product = _start(a.tau)
    product.width += 1
    assert a.residual(product, 20) is None
    with pytest.raises(ValueError, match="relation"):
        matrix_from_pairings(product)


def test_a_forged_product_at_the_symmetry_height_is_no_symmetry():
    # tau's K with two curve columns swapped pairs like a height-20
    # isometry column by column, but no symmetry swaps just two curves
    a = autctx()
    product = _start(a.tau)
    cols = list(product.cols)
    cols[0], cols[16] = cols[16], cols[0]
    forged = product.copy()
    forged.cols = cols
    assert a.residual(product, 20).matrix == a.tau.matrix
    assert a.residual(forged, 20) is None


def _stalled_words():
    a = autctx()
    return [[a.registry[n] for n in w.split(",")] for b in words.pool()[:2] for w in b]


def _stall(a, monkeypatch):
    """Let the descent take only the first STALLED_LETTERS letters."""
    monkeypatch.setattr(a, "scan", DescentScan(a.scan.rs[:STALLED_LETTERS]))


def test_a_stalled_descent_replays_the_word(monkeypatch):
    a = autctx()
    _stall(a, monkeypatch)
    replayed = _replays(monkeypatch)
    stalled = 0
    for letters in _stalled_words():
        want = _descend_dot_per_letter(a, letters)
        word, residual, heights = a.descend(letters)
        assert (word, residual.matrix, heights) == want, [b.name for b in letters]
        assert residual.name == "residual"
        if a.classify_symmetry(residual) is None:
            stalled += 1
            assert replayed.pop(0) == [b.name for b in letters] + word
    assert replayed == []
    assert stalled == 33


def test_a_stalled_descent_replays_the_word_under_python_O(monkeypatch):
    a = autctx()
    _stall(a, monkeypatch)
    want = [[w, [list(r) for r in m], h]
            for w, m, h in (_descend_dot_per_letter(a, ls) for ls in _stalled_words())]
    script = f"""
import json, sys
sys.path.insert(0, {str(TESTS)!r})
import test_residual_lookup as t
from hessaut.autgroup import autctx
from hessaut.products import DescentScan
a = autctx()
a.scan = DescentScan(a.scan.rs[:t.STALLED_LETTERS])
print(json.dumps([[w, r.matrix, h] for w, r, h in map(a.descend, t._stalled_words())]))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    assert json.loads(proc.stdout) == want


def test_a_one_shot_iterator_is_replayed_with_its_letters(monkeypatch):
    a = autctx()
    _stall(a, monkeypatch)
    letters = next(ls for ls in _stalled_words()
                   if a.classify_symmetry(a.descend(ls)[1]) is None)
    want = a.descend(letters)
    word, residual, heights = a.descend(b for b in letters)
    assert (word, residual.matrix, heights) == (want[0], want[1].matrix, want[2])
    assert heights[-1] != 20
