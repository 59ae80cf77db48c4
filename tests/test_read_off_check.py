"""`CurveAction.of`'s curve-table check against the read-off check it replaced.

`product_reference.read_off_action` is `CurveAction.of` as it was: a curve
c read off as the preimage of d is checked by M G q_d = G q_c, the
pairings of the rows of M with d. `CurveAction.of` compares two entries of
the curve table for every two read-off curves instead, and its docstring
proves the two equivalent once every computed preimage x_d = adj (M G
q_d) / den is checked. Both must accept the same matrices with the same
action, and reject the same ones with the same message: the registry
isometries, and integer changes of them.
"""

from functools import cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hessaut.autgroup import SKEW_LINE_TABLE, autctx, table_isometry
from hessaut.products import CurveAction, curve_frame
from product_reference import read_off_action


def _verdict(check, matrix):
    """The action's (src, combos), or the message of its ValueError."""
    try:
        action = check(matrix, "m")
    except ValueError as e:
        return str(e)
    return action.src, action.combos


def _agree(matrix):
    got = _verdict(CurveAction.of, matrix)
    assert got == _verdict(read_off_action, matrix)
    return got


@cache
def _generators():
    return [iso.matrix for _, iso, _ in autctx().descent]


@cache
def _tables():
    a = autctx()
    return [a.p16.matrix, a.f.matrix, a.g.matrix, table_isometry(SKEW_LINE_TABLE, "skew").matrix]


@cache
def _symmetries():
    return list(autctx().symmetries)


def test_both_accept_the_generators_tables_and_symmetries():
    matrices = _generators() + _tables() + _symmetries()
    assert len(matrices) == 64 + 4 + 240
    for m in matrices:
        assert not isinstance(_agree(m), str)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 63), st.integers(0, 15), st.integers(0, 15),
       st.integers(-3, 3).filter(bool))
def test_both_agree_on_a_changed_generator_entry(k, i, j, delta):
    rows = [list(r) for r in _generators()[k]]
    rows[i][j] += delta
    _agree(tuple(map(tuple, rows)))


# phi1 with rows 0 and 1 swapped: the two checks agree only because
# `preimage` gives G x_d = M G q_d; with an exact inverse in its place the
# table check accepts this matrix and the read-off check rejects it
@settings(max_examples=300, deadline=None)
@given(st.integers(0, 64 + 240 - 1), st.integers(0, 15), st.integers(0, 15))
@example(0, 0, 1)
def test_both_agree_on_two_swapped_rows(k, i, j):
    rows = list((_generators() + _symmetries())[k])
    rows[i], rows[j] = rows[j], rows[i]
    _agree(tuple(rows))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 64 + 240 - 1), st.integers(0, 15), st.integers(0, 19))
def test_both_agree_on_a_row_replaced_by_a_curve(k, i, c):
    rows = list((_generators() + _symmetries())[k])
    rows[i] = curve_frame().coords[c]
    _agree(tuple(rows))
