import inspect
from collections import Counter
from itertools import combinations

import pytest

from forked_runs import forked_runs
from hessaut import cli
from hessaut.checks import CertificationError
from hessaut.golay import (
    BASE_OCTAD,
    INFINITY,
    OMEGA,
    SteinerSystem,
    golay_code,
    is_octad,
    point_index,
    set_mask,
    steiner_system,
)

oo = INFINITY

K1 = {oo, 0, 1, 2, 3, 5, 14, 17}
K4 = {oo, 0, 1, 2, 8, 11, 12, 18}


def test_octad_count():
    assert len(steiner_system()) == 759


def test_base_octad_and_named_octads_present():
    assert is_octad(BASE_OCTAD)
    assert is_octad(K1)
    assert is_octad(K4)


def test_eight_set_that_is_not_an_octad():
    assert not is_octad({oo, 0, 1, 2, 3, 4, 5, 6})


def test_wrong_cardinality_is_not_an_octad():
    assert not is_octad({oo, 0, 1, 2, 3, 4, 5})


def _octads_through(s):
    return [k for k in steiner_system().octads if s <= k]


def test_unique_octad_through_five_points():
    through = _octads_through({oo, 0, 1, 2, 3})
    assert through == [frozenset(K1)]


def test_octads_through_empty_and_pair():
    assert len(_octads_through(set())) == 759
    assert len(_octads_through({oo, 0})) == 77


def test_six_points_lie_in_at_most_one_octad():
    # two octads meet in 0, 2 or 4 points, so six points fix the octad if any
    assert _octads_through({oo, 0, 1, 2, 3, 5}) == [frozenset(K1)]
    assert _octads_through({oo, 0, 1, 2, 3, 4}) == []


def test_every_five_subset_covered_exactly_once():
    counts = steiner_system().covering_counts()
    assert len(counts) == 42504
    assert sum(1 for _ in combinations(OMEGA, 5)) == 42504
    assert set(counts.values()) == {1}
    # the tuple-keyed count over all 42,504 five-sets, keyed by mask
    reference = Counter()
    for k in steiner_system().octads:
        for five in combinations(sorted(k), 5):
            reference[five] += 1
    assert {set_mask(five): n for five, n in reference.items()} == counts


def test_pairwise_intersection_sizes():
    octads = steiner_system().octads
    sizes = Counter()
    for i, a in enumerate(octads):  # every pair
        for b in octads[i + 1:]:
            sizes[len(a & b)] += 1
    assert set(sizes) == {0, 2, 4}
    assert sum(sizes.values()) == 759 * 758 // 2
    assert steiner_system().pair_intersection_sizes() == set(sizes)


def test_golay_code_weight_distribution():
    code = golay_code()
    assert len(code) == 4096
    weights = Counter(bin(w).count("1") for w in code)
    assert weights == Counter({0: 1, 8: 759, 12: 2576, 16: 759, 24: 1})


def test_mask_round_trip():
    mask = set_mask(K1)
    assert frozenset(p for p in OMEGA if mask >> point_index(p) & 1) == frozenset(K1)
    assert mask.bit_count() == len(K1)


NOT_AN_OCTAD = frozenset({oo, 0, 1, 2, 3, 4, 5, 6})


def _broken_octads(change):
    """The octads with one swapped for a non-octad 8-set, or one dropped."""
    octads = list(steiner_system().octads)
    if change == "swap":
        octads[100] = NOT_AN_OCTAD
    elif change == "drop":
        del octads[100]
    else:
        octads.remove(BASE_OCTAD)
    return SteinerSystem(tuple(map(set_mask, octads)))


@pytest.mark.parametrize("change", ["swap", "drop", "drop-base"])
def test_pair_intersections_certify_closure(change):
    with pytest.raises(CertificationError, match="closed under"):
        _broken_octads(change).pair_intersection_sizes()


def test_pair_intersections_certify_closure_under_python_O(runs):
    status, out, err = runs("-O")["closure"]
    assert status == 0, err
    assert out.split() == ["raised"] * 3


def test_five_subset_cover_by_counting_matches_the_cover_table():
    system = steiner_system()
    counts = system.covering_counts()
    cover = system.five_subset_cover(system.pair_intersection_sizes())
    assert cover == (len(counts), set(counts.values())) == (42504, {1})


def _all_pair_sizes(system):
    """|A & B| over every pair of entries of the octad list, with no use of
    the orbit structure."""
    masks = system.masks
    return {(a & b).bit_count() for i, a in enumerate(masks) for b in masks[i + 1:]}


@pytest.mark.parametrize("change", ["swap", "duplicate"])
def test_five_subset_cover_refuses_octads_sharing_five_points(change):
    octads = list(steiner_system().octads)
    # NOT_AN_OCTAD shares {oo, 0, 1, 2, 3, 5} with the octad K1
    octads[100] = NOT_AN_OCTAD if change == "swap" else octads[101]
    system = SteinerSystem(tuple(map(set_mask, octads)))
    counts = system.covering_counts()
    assert max(counts.values()) > 1  # the cover table agrees: some 5-set twice
    assert max(_all_pair_sizes(system)) >= 5
    assert system.five_subset_cover(_all_pair_sizes(system)) is None


def _golay_suite_on_an_octad_meeting_another_in_five_points():
    """The golay suite's five-subset-cover check on the octads with one
    swapped for an 8-set that meets the octad K1 in six points; the sizes
    are read off every pair, as the closure certificate refuses this set."""
    from hessaut import cli
    from hessaut.golay import INFINITY as oo, SteinerSystem, set_mask, steiner_system

    octads = list(steiner_system().octads)
    octads[100] = frozenset({oo, 0, 1, 2, 3, 4, 5, 6})
    broken = SteinerSystem(tuple(map(set_mask, octads)))
    masks = broken.masks
    sizes = {(a & b).bit_count() for i, a in enumerate(masks) for b in masks[i + 1:]}
    cli.steiner_system = lambda: broken
    SteinerSystem.pair_intersection_sizes = lambda self: sizes
    check = next(c for c in cli.golay_suite(0) if c["id"] == "golay.five-subset-cover")
    return check["status"], check["actual"]


def test_golay_suite_fails_the_cover_on_octads_sharing_five_points(monkeypatch):
    # set to themselves, so that monkeypatch undoes the helper's patches
    monkeypatch.setattr(cli, "steiner_system", cli.steiner_system)
    monkeypatch.setattr(SteinerSystem, "pair_intersection_sizes",
                        SteinerSystem.pair_intersection_sizes)
    assert _golay_suite_on_an_octad_meeting_another_in_five_points() == ("fail", "None")


def test_golay_suite_fails_the_cover_on_octads_sharing_five_points_under_python_O(runs):
    status, out, err = runs("-O")["cover"]
    assert status == 0, err
    assert out.split() == ["fail", "None"]


runs = forked_runs({
    "closure": (
        "from hessaut.checks import CertificationError\n"
        "from hessaut.golay import BASE_OCTAD, SteinerSystem, set_mask, steiner_system\n"
        f"NOT_AN_OCTAD = {set(NOT_AN_OCTAD)!r}\n" + inspect.getsource(_broken_octads)
        + "for change in ('swap', 'drop', 'drop-base'):\n"
        "    try:\n"
        "        _broken_octads(change).pair_intersection_sizes()\n"
        "    except CertificationError:\n"
        "        print('raised')\n"
    ),
    "cover": (inspect.getsource(_golay_suite_on_an_octad_meeting_another_in_five_points)
              + "print(*_golay_suite_on_an_octad_meeting_another_in_five_points())\n"),
})


def test_eight_sets_off_the_projective_line_are_not_octads():
    assert not is_octad({-2, 0, 1, 3, 12, 15, 21, 22})
    assert not is_octad({23, 0, 1, 3, 12, 15, 21, 22})
    assert not is_octad({"oo", 0, 1, 3, 12, 15, 21, 22})
