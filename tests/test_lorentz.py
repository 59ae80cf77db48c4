import random

from hessaut import leech
from hessaut.golay import INFINITY, steiner_system
from hessaut.leech import NU_OMEGA, nu, two_nu, vadd, vscale
from hessaut.lorentz import (
    LorentzVector,
    bilinear,
    leech_root,
    weyl_vector,
)

oo = INFINITY

# octads pinned by the embedding construction
K = {
    1: {oo, 0, 1, 2, 3, 5, 14, 17},
    2: {oo, 0, 1, 2, 4, 13, 16, 22},
    3: {oo, 0, 1, 2, 6, 7, 19, 21},
    4: {oo, 0, 1, 2, 8, 11, 12, 18},
    5: {oo, 0, 1, 2, 9, 10, 15, 20},
}


def test_root_z_and_weyl():
    z = LorentzVector(leech.ZERO, 1, -1)
    w = weyl_vector()
    assert bilinear(z, z) == -2
    assert bilinear(w, w) == 0
    assert bilinear(w, z) == 1


def test_orthogonal_pair_of_ends():
    x = LorentzVector(vadd(vscale(4, nu([oo])), NU_OMEGA), 1, 2)
    y = LorentzVector(vadd(vscale(4, nu([0])), NU_OMEGA), 1, 2)
    assert bilinear(x, x) == -2 and bilinear(y, y) == -2
    assert bilinear(x, y) == 0


def test_leech_root_construction():
    assert leech_root(leech.ZERO) == LorentzVector(leech.ZERO, 1, -1)
    for i in (1, 4):
        r = leech_root(two_nu(K[i]))
        assert (r.m, r.n) == (1, 1)
    r = leech_root(vadd(vscale(4, nu([oo])), NU_OMEGA))
    assert (r.m, r.n) == (1, 2)


def test_leech_root_rejects_non_members():
    try:
        leech_root(two_nu({oo, 0, 1, 2, 3, 4, 5, 6}))
    except ValueError:
        pass
    else:
        raise AssertionError("expected rejection")


def test_weyl_pairs_one_with_random_roots():
    rng = random.Random(11)
    octads = steiner_system().octads
    w = weyl_vector()
    for _ in range(500):
        lam = leech.ZERO
        for _ in range(3):
            lam = vadd(lam, vscale(rng.randint(-1, 1), two_nu(octads[rng.randrange(759)])))
        r = leech_root(lam)
        assert bilinear(r, r) == -2
        assert bilinear(w, r) == 1
        assert r.m == 1 and leech.contains(r.lam)


def test_root_pairing_follows_norm_rule():
    octads = steiner_system().octads
    base = octads[0]
    r = leech_root(two_nu(base))
    assert bilinear(r, r) == -2
    hits = set()
    for other in octads[1:200]:
        k = len(base & other)
        rp = leech_root(two_nu(other))
        value = bilinear(r, rp)
        assert value == {4: 0, 2: 1, 0: 2}[k]
        # the rule: 0 when the Leech parts differ by a norm 4 vector, 1 by norm 6
        rule = {"norm4": 0, "norm6": 1}.get(leech.shape_class(leech.vsub(r.lam, rp.lam)))
        assert rule == (value if k else None)
        hits.add(k)
    assert {2, 4} <= hits
