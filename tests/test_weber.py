from collections import Counter
from itertools import combinations, product
from operator import itemgetter

from hypothesis import given, settings
from hypothesis import strategies as st

from hessaut import weber
from hessaut.weber import (
    ALL_POINTS,
    EMPTY,
    MU_TABLE,
    PINNED_HEXAD,
    PINNED_PACKETS,
    THETA_TABLE,
    add,
    affine_group_order,
    affine_symplectic_group,
    hexad_orbit_and_stabilizer,
    hexad_profile,
    label_name,
    pair_bits,
    pentahedral_dictionary,
    psi,
    psi_table,
    reduce_label,
    symplectic_linear_parts,
    tetrads,
    theta_characteristic,
    theta_characteristic_of_label,
    theta_contains,
    weber_hexads,
)


def L(s):
    return frozenset(s)


def symplectic(a, b) -> int:
    """The symplectic form on labels: |a & b| mod 2 on the size <= 2
    representatives, the label-level reference for `pair_bits`."""
    return len(frozenset(a) & frozenset(b)) % 2


def test_sixteen_points_and_reduction():
    assert len(ALL_POINTS) == 16
    assert reduce_label({1, 2, 3, 4}) == L({5, 6})
    assert reduce_label(range(1, 7)) == EMPTY
    assert add({1, 2}, {2, 3}) == L({1, 3})
    assert add({1, 2}, {3, 4}) == L({5, 6})


def test_symplectic_form_values_and_nondegeneracy():
    assert symplectic(L({1, 2}), L({2, 3})) == 1
    assert symplectic(L({1, 2}), L({3, 4})) == 0
    for a in ALL_POINTS:
        if a == EMPTY:
            continue
        assert any(symplectic(a, b) for b in ALL_POINTS), "radical must be trivial"


def test_symplectic_well_defined_under_complement():
    a, b = {1, 6}, {2, 6}
    assert symplectic(reduce_label(a), reduce_label(b)) == len(
        (frozenset(range(1, 7)) - frozenset(a)) & frozenset(b)
    ) % 2


def test_psi_base_assignments():
    assert psi(L({1, 2})) == ((1, 0), (0, 0))
    assert psi(L({3, 4})) == ((0, 1), (0, 0))
    assert psi(L({1, 6})) == ((0, 0), (1, 0))
    assert psi(L({4, 5})) == ((0, 0), (0, 1))


def test_psi_linearity_example():
    m12, m16, m26 = psi(L({1, 2})), psi(L({1, 6})), psi(L({2, 6}))
    summed = tuple(tuple(x ^ y for x, y in zip(r1, r2)) for r1, r2 in zip(m12, m16))
    assert summed == m26
    assert add({1, 2}, {1, 6}) == L({2, 6})


def test_psi_preserves_pairing_on_all_pairs():
    table = psi_table()
    for a, b in combinations(ALL_POINTS, 2):
        assert symplectic(a, b) == pair_bits(table[a], table[b])


def q0_bits(v: int) -> int:
    """The quadratic form eps . eta."""
    return (v & 1 and v >> 2 & 1) ^ (v >> 1 & 1 and v >> 3 & 1)


def test_q0_polarization_is_the_pairing():
    for v in range(16):
        for w in range(16):
            assert (q0_bits(v ^ w) ^ q0_bits(v) ^ q0_bits(w)) == pair_bits(v, w)


def test_theta_membership():
    assert theta_contains(L({1, 2}), L({1, 2}))
    for beta in ALL_POINTS:
        assert sum(1 for a in ALL_POINTS if theta_contains(beta, a)) == 6
    for alpha in ALL_POINTS:
        assert sum(1 for beta in ALL_POINTS if theta_contains(beta, alpha)) == 6


def test_the_two_tables_are_mutually_consistent():
    for a in range(4):
        for b in range(4):
            beta = THETA_TABLE[a][b]
            for c in range(4):
                for d in range(4):
                    alpha = MU_TABLE[c][d]
                    expected = (a == c or b == d) and (a, b) != (c, d)
                    assert theta_contains(beta, alpha) == expected


HUTCHINSON_COLUMNS = ((1, 1), (1, 0), (0, 1), (0, 0))


def test_hutchinson_columns_reproduce_both_tables():
    cols = HUTCHINSON_COLUMNS
    rev = cols[::-1]
    for a in range(4):
        for b in range(4):
            want_theta = (
                (cols[a][0], cols[b][0]),
                (cols[a][1], cols[b][1]),
            )
            assert theta_characteristic_of_label(THETA_TABLE[a][b]) == want_theta
            want_mu = (
                (rev[a][0], rev[b][0]),
                (rev[a][1], rev[b][1]),
            )
            assert psi(MU_TABLE[a][b]) == want_mu


def test_named_theta_characteristics():
    assert theta_characteristic({1, 2, 6}) == ((1, 1), (1, 1))
    assert theta_characteristic({3, 4, 5}) == ((1, 1), (1, 1))
    assert theta_characteristic({1}) == psi(L({3, 5}))
    try:
        theta_characteristic({1, 2})
    except ValueError:
        pass
    else:
        raise AssertionError("even-size index must be rejected")


def test_tetrad_counts_and_table_examples():
    odd, even = tetrads()
    assert len(odd) == 60
    assert len(even) == 80
    diag = frozenset(MU_TABLE[i][i] for i in range(4))
    assert diag in set(odd)
    for row in MU_TABLE:
        assert frozenset(row) in set(even)
    cols = [frozenset(MU_TABLE[i][j] for i in range(4)) for j in range(4)]
    for col in cols:
        assert col in set(even)


def test_weber_hexad_count_and_pinned_member():
    hexads = weber_hexads()
    assert len(hexads) == 192
    assert PINNED_HEXAD in set(hexads)


def test_hexad_profile_of_pinned_hexad():
    ten, packets = hexad_profile(PINNED_HEXAD)
    assert packets == PINNED_PACKETS
    expected_ten = tuple(
        L(s) for s in ({5, 6}, {4, 6}, {1, 5}, {1, 4}, {3, 6}, {1, 6}, {3, 4}, {2, 3}, {2, 5}, {2, 6})
    )
    assert ten == expected_ten


def test_every_hexad_has_ten_triple_divisors():
    for h in weber_hexads():
        counts = [sum(1 for a in h if theta_contains(beta, a)) for beta in ALL_POINTS]
        assert sorted(counts) == [1] * 6 + [3] * 10


def _affine_symplectic_group_by_scan():
    """The former construction: test all 65,536 column 4-tuples, and build
    each image bit by bit."""
    units = (1, 2, 4, 8)
    want = [[pair_bits(a, b) for b in units] for a in units]
    linear = [
        cols for cols in product(range(16), repeat=4)
        if all(pair_bits(cols[i], cols[j]) == want[i][j]
               for i in range(4) for j in range(i + 1, 4))
    ]
    perms = []
    for cols in linear:
        images = []
        for p in range(16):
            img = 0
            for i in range(4):
                if p >> i & 1:
                    img ^= cols[i]
            images.append(img)
        for t in range(16):
            perms.append(tuple(img ^ t for img in images))
    return tuple(perms)


def test_affine_symplectic_group_matches_the_full_scan():
    assert affine_symplectic_group() == _affine_symplectic_group_by_scan()


def test_group_order_orbit_and_stabilizer():
    assert len(affine_symplectic_group()) == 11520
    orbit, stab = hexad_orbit_and_stabilizer(PINNED_HEXAD)
    assert orbit == 192
    assert stab == 60


def _orbit_and_stabilizer_on_frozensets(h):
    """`hexad_orbit_and_stabilizer` as it was before images became masks."""
    psi_t = psi_table()
    target = frozenset(psi_t[a] for a in h)
    orbit, stab = set(), 0
    for perm in affine_symplectic_group():
        image = frozenset(perm[p] for p in target)
        orbit.add(image)
        stab += image == target
    return len(orbit), stab


def test_orbit_and_stabilizer_match_the_frozenset_scan():
    sets = [PINNED_HEXAD] + list(weber_hexads()[::48]) + [frozenset(ALL_POINTS[:6])]
    results = [hexad_orbit_and_stabilizer(h) for h in sets]
    assert results == [_orbit_and_stabilizer_on_frozensets(h) for h in sets]
    assert results[0] == (192, 60) and results[-1] != (192, 60)


def _orbit_and_stabilizer_on_masks(h):
    """`hexad_orbit_and_stabilizer` as it was before it counted: every
    image of h as a 16-bit mask, summed point by point over the whole
    materialized group."""
    psi_t = psi_table()
    points = [psi_t[a] for a in h]
    group, bits = affine_symplectic_group(), [1 << p for p in range(16)].__getitem__
    images = Counter(map(sum, zip(*[map(bits, map(itemgetter(p), group)) for p in points])))
    return len(images), images[sum(map(bits, points))]


def test_linear_parts_give_the_group_order():
    assert len(set(symplectic_linear_parts())) == 720
    assert affine_group_order() == 16 * len(symplectic_linear_parts())
    assert affine_group_order() == len(set(affine_symplectic_group())) == 11520


def test_counted_orbit_and_stabilizer_match_the_group_on_every_hexad():
    for h in weber_hexads():
        assert hexad_orbit_and_stabilizer(h) == _orbit_and_stabilizer_on_masks(h) == (192, 60)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.sampled_from(ALL_POINTS), min_size=6, max_size=6))
def test_counted_orbit_and_stabilizer_match_the_group_on_six_sets(h):
    assert hexad_orbit_and_stabilizer(frozenset(h)) == _orbit_and_stabilizer_on_masks(h)


def test_packet_characteristics_sum_to_zero():
    for packet in PINNED_PACKETS:
        total = 0
        for beta in packet:
            m = theta_characteristic_of_label(beta)
            total ^= weber.matrix_bits(m)
        assert total == 0


def test_pentahedral_dictionary_pinned():
    line_faces, node_faces = pentahedral_dictionary()
    assert line_faces[L({1, 6})] == frozenset({2, 5})
    assert node_faces[L({1, 6})] == frozenset({1, 2, 5})
    assert set(map(label_name, node_faces)) == {
        "16", "26", "36", "46", "56", "12", "13", "24", "35", "45",
    }
    assert set(map(label_name, line_faces)) == {
        "16", "26", "36", "46", "56", "14", "15", "23", "25", "34",
    }
    # complementary tau pairing: node triple + line pair partition the faces
    pairs = {
        "16": "23", "24": "36", "56": "34", "12": "56", "13": "46",
        "26": "14", "35": "26", "46": "25", "36": "15", "45": "16",
    }
    by_name_line = {label_name(k): v for k, v in line_faces.items()}
    by_name_node = {label_name(k): v for k, v in node_faces.items()}
    for node, line in pairs.items():
        assert by_name_node[node] | by_name_line[line] == frozenset(range(1, 6))
        assert not by_name_node[node] & by_name_line[line]


def test_dictionary_transitivity_spot_checks():
    hexads = weber_hexads()
    for h in hexads[::48]:
        line_faces, node_faces = pentahedral_dictionary(h)
        assert len(line_faces) == 10 and len(node_faces) == 10


def test_hexad_profile_rejects_non_hexads():
    bad = frozenset(list(ALL_POINTS)[:6])
    try:
        hexad_profile(bad)
    except ValueError:
        pass
    else:
        raise AssertionError("expected rejection of a non-hexad 6-set")
