"""The Golay layer on 24-bit masks, against the point-set reference
(`golay_reference`), and what a cold `verify all` keeps of it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import golay_reference as ref
from hessaut import golay, leech
from hessaut.golay import golay_basis, golay_code, is_codeword, mask_points, set_mask, steiner_system

SRC = Path(__file__).resolve().parent.parent / "src"
CODE = sorted(ref.code())


def test_octad_masks_match_the_point_set_orbit_in_order():
    system = steiner_system()
    assert system.masks == tuple(map(set_mask, ref.octads()))
    assert system.octads == ref.octads()
    assert [mask_points(m) for m in system.masks] == [tuple(sorted(k)) for k in ref.octads()]


def test_the_basis_is_echelon_and_spans_the_stored_code():
    leads = [b.bit_length() - 1 for b in golay_basis()]
    assert len(leads) == 12 and leads == sorted(set(leads), reverse=True)
    assert golay_code() == ref.code()
    assert all(is_codeword(w) for w in CODE)
    # the code has minimum weight 8, so a codeword with one bit flipped is none
    assert not any(is_codeword(w ^ 1 << i) for w in CODE for i in range(0, 24, 5))


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.integers(0, (1 << 24) - 1),
    st.builds(lambda w, flips: w ^ sum({1 << i for i in flips}),
              st.sampled_from(CODE), st.lists(st.integers(0, 23), max_size=3)),
))
@example(0)
@example((1 << 24) - 1)
@example(1 << 24)
def test_basis_membership_matches_the_stored_code(word):
    assert is_codeword(word) == (word in ref.code())


@st.composite
def near_leech_vectors(draw):
    """An integer combination of the Leech generators, then often a small
    change that breaks the parity, the Golay support or the sum test."""
    masks = steiner_system().masks
    v = leech.ZERO
    for c, k in draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-1, 758)), max_size=4)):
        g = leech.generator_minus_three() if k < 0 else leech.two_nu(mask_points(masks[k]))
        v = leech.vadd(v, leech.vscale(c, g))
    delta = draw(st.one_of(
        st.just(leech.ZERO),
        st.lists(st.sampled_from((0, 0, 0, 1, 2, 4, -4)), min_size=24, max_size=24),
    ))
    return leech.vadd(v, delta)


@settings(max_examples=400, deadline=None)
@given(near_leech_vectors())
@example(leech.generator_minus_three())
@example(leech.vadd(leech.NU_OMEGA, leech.vscale(4, leech.nu([golay.INFINITY]))))
def test_leech_membership_matches_the_stored_code_test(v):
    assert leech.contains(v) == ref.contains(v)


PIN = """
import gc, json
from hessaut import autgroup, cli, golay, hessian
cli.run("all", 1)
named = [*hessian.COMPLEMENT_OCTADS.values(), *hessian.CURVE_OCTADS.values(),
         *autgroup.WALL_1A_OCTADS, *autgroup.WALL_3B_OCTADS_FIRST,
         autgroup.WALL_1A_EXAMPLE_OCTAD, autgroup.WALL_2_EXAMPLE_OCTAD, golay.BASE_OCTAD]
ids = set(map(id, named))
stray = [s for s in gc.get_objects() if isinstance(s, frozenset) and len(s) == 8
         and all(type(p) is int for p in s) and id(s) not in ids]
system = golay.steiner_system()
print(json.dumps({
    "optimize": __import__("sys").flags.optimize,
    "code_cached": hasattr(golay.golay_code, "cache_info"),
    "fields": sorted(vars(system)),
    "types": sorted({type(m).__name__ for m in (*system.masks, *system._members)}),
    "stray_octads": len(stray),
}))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_cold_verify_all_keeps_the_octads_as_ints_and_no_code(flags):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, *flags, "-c", PIN], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "optimize": len(flags),
        "code_cached": False,
        "fields": ["_members", "masks"],
        "types": ["int"],
        "stray_octads": 0,
    }
