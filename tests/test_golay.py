from collections import Counter
from itertools import combinations

from hessaut.golay import (
    BASE_OCTAD,
    INFINITY,
    OMEGA,
    golay_code,
    is_octad,
    octads_through,
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


def test_unique_octad_through_five_points():
    through = octads_through({oo, 0, 1, 2, 3})
    assert through == [frozenset(K1)]


def test_octads_through_empty_and_pair():
    assert len(octads_through(set())) == 759
    assert len(octads_through({oo, 0})) == 77


def test_octads_through_rejects_large_sets():
    try:
        octads_through({oo, 0, 1, 2, 3, 5})
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError for a 6-point query")


def test_every_five_subset_covered_exactly_once():
    counts = counts = steiner_system().covering_counts()
    assert len(counts) == 42504
    assert sum(1 for _ in combinations(OMEGA, 5)) == 42504
    assert set(counts.values()) == {1}


def test_pairwise_intersection_sizes():
    octads = steiner_system().octads
    sizes = Counter()
    for i in range(0, 759, 37):  # deterministic sample of rows
        a = octads[i]
        for b in octads:
            if a is not b:
                sizes[len(a & b)] += 1
    assert set(sizes) == {0, 2, 4}


def test_golay_code_weight_distribution():
    code = golay_code()
    assert len(code) == 4096
    weights = Counter(bin(w).count("1") for w in code)
    assert weights == Counter({0: 1, 8: 759, 12: 2576, 16: 759, 24: 1})


def test_mask_round_trip():
    mask = set_mask(K1)
    assert frozenset(p for p in OMEGA if mask >> point_index(p) & 1) == frozenset(K1)
    assert mask.bit_count() == len(K1)
