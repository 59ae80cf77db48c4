"""The residual of a descent, read off its packed curve pairings.

A descent that succeeds ends in one of the 240 chamber symmetries.
`AutContext.residual` re-packs a product that is off `CurveFrame.key_width`
at the cap of its height, so a symmetry (height 20) always sits at the key
width, and returns the stored matrix of the symmetry whose packed curve
pairings K equal the product's; any other K is recovered by
`matrix_from_pairings`. These tests check the lookup on every symmetry
and, against `_descend_dot_per_letter` (which always recovers), on pool
and suite words; a spy on `matrix_from_pairings` counts the recoveries,
and only non-symmetries are recovered.
"""

import pytest

import test_curve_permutations
from hessaut import autgroup, cli
from hessaut.autgroup import Isometry, autctx
from hessaut.products import curve_frame, matrix_from_pairings
from test_curve_permutations import _descend_dot_per_letter, words


def _recoveries(monkeypatch, module):
    """The widths of the products that module recovers by `matrix_from_pairings`."""
    widths = []

    def spy(product):
        widths.append(product.width)
        return matrix_from_pairings(product)

    monkeypatch.setattr(module, "matrix_from_pairings", spy)
    return widths


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
    recovered = _recoveries(monkeypatch, autgroup)
    symmetries = _symmetries()
    assert len(symmetries) == 240
    for s in symmetries:
        word, residual, heights = a.descend([s])
        assert (word, residual.matrix, heights) == ([], s.matrix, [20]), s.name
        assert a.classify_symmetry(residual) == a.classify_symmetry(s) == s.name
    assert recovered == []


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
    recovered = _recoveries(monkeypatch, autgroup)
    for w in WORDS[source]():
        letters = [a.registry[n] for n in w]
        want = _descend_dot_per_letter(a, letters)
        word, residual, heights = a.descend(letters)
        assert (word, residual.matrix, heights) == want, w
        assert a.classify_symmetry(residual) is not None, w
    # every residual is a symmetry, so none is recovered, also of the
    # products that re-packed away from the key width
    assert recovered == []
    assert len([w for w in final_widths if w != curve_frame().key_width]) == OFF_KEY[source]


def test_a_non_symmetry_at_the_key_width_is_recovered(monkeypatch):
    a = autctx()
    p16 = a.registry["p16"]
    product = _start(p16)
    assert product.width == curve_frame().key_width
    recovered = _recoveries(monkeypatch, autgroup)
    residual = a.residual(product, a.height(p16.apply(a.omega)))
    assert residual.matrix == p16.matrix
    assert a.classify_symmetry(residual) is None
    assert recovered == [curve_frame().key_width]


def test_a_symmetry_repacked_wider_is_looked_up_under_its_label(monkeypatch):
    a = autctx()
    recovered = _recoveries(monkeypatch, autgroup)
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
    assert recovered == []


def test_columns_read_at_another_width_are_not_taken_for_a_symmetry():
    # the packed columns of tau, declared one bit wider, decode to the
    # pairings of no isometry: re-packed at the key width they match no
    # symmetry, and break a curve relation
    a = autctx()
    product = _start(a.tau)
    product.width += 1
    with pytest.raises(ValueError, match="relation"):
        a.residual(product, 20)
