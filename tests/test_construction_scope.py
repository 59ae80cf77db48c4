"""A reduce process builds no part of R: construction takes the walls off
the four shape searches and their projections, and the base roots, the
glue vector theta and the 52 wall lattices are built and certified only
when `verify` reads them. `verify walls` certifies every wall's case, root
type and closed-form projection by `classify_wall_root`; a reduce does
not."""

import pytest

from forked_runs import forked_runs, main_after
from hessaut import autgroup, cli, exact, hessian, lattices
from hessaut.autgroup import AutContext, autctx, classify_wall_root, enumerate_wall_roots
from hessaut.checks import CertificationError
from hessaut.hessian import Picard, picard

WORD = "tau,p16,g1,phi2,s21345"


def _refuse(*args, **kwargs):
    raise AssertionError("construction built part of R")


def _classified_walls():
    """The walls as construction built them while it classified each root."""
    walls = {}
    for case, ws in enumerate_wall_roots().items():
        walls[case] = []
        for w in ws:
            c = classify_wall_root(w.root)
            assert c.case == case
            walls[case].append(autgroup.WallRoot(case, w.root, c.vec, c.den, w.key))
    return walls


def test_construction_and_reduce_build_no_part_of_R(monkeypatch):
    want_walls = _classified_walls()
    a = autctx()
    want_descent = a.descend([a.registry[n] for n in WORD.split(",")])
    for module, name in ((hessian, "base_roots"), (lattices, "root_type"),
                         (autgroup, "classify_wall_root"), (autgroup, "wall_root_gram")):
        monkeypatch.setattr(module, name, _refuse)
    fresh = Picard()
    monkeypatch.setattr(autgroup, "picard", lambda: fresh)
    walls = enumerate_wall_roots.__wrapped__()
    assert walls == want_walls
    assert sum(map(len, walls.values())) == 52
    monkeypatch.setattr(autgroup, "enumerate_wall_roots", enumerate_wall_roots.__wrapped__)
    b = AutContext()
    assert b.walls == want_walls
    assert b.descend([b.registry[n] for n in WORD.split(",")]) == want_descent
    assert "roots" not in vars(fresh) and "theta" not in vars(fresh)


def test_a_fresh_picard_eliminates_its_gram_matrix_once(monkeypatch):
    calls = []
    eliminate = exact.eliminate
    monkeypatch.setattr(exact, "eliminate", lambda m: calls.append(m) or eliminate(m))
    fresh = Picard()
    assert len(calls) == 1
    (m,) = calls
    assert [row[:16] for row in m] == [list(row) for row in fresh.gram]
    assert len(m) == 16


def test_verify_walls_classifies_every_wall(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "classify_wall_root",
                        lambda *args: seen.append(args) or classify_wall_root(*args))
    assert all(c["status"] == "pass" for c in cli.run("walls")["checks"])
    # on the projection its search made, not projected a second time
    assert seen == [(w.root, (w.vec, w.den)) for ws in autctx().walls.values() for w in ws]
    assert len({root for root, _ in seen}) == 52


def test_the_glue_vector_is_certified_when_read(monkeypatch):
    # base root x1 replaced by the curve root N16: theta is then not in L
    roots = hessian.base_roots()
    roots["x1"] = picard().curve_roots["N16"]
    monkeypatch.setattr(hessian, "base_roots", lambda: dict(roots))
    fresh = Picard()
    assert fresh.curve_coord == picard().curve_coord
    with pytest.raises(CertificationError, match="^the glue vector must lie in L$"):
        fresh.theta


def _rescale_a_wall(monkeypatch):
    w = autctx().walls["3a"][0]
    monkeypatch.setattr(w, "vec", tuple(2 * x for x in w.vec))
    monkeypatch.setattr(w, "den", 2 * w.den)


WALL_MUTANTS = {
    "root type": (lambda monkeypatch: monkeypatch.setitem(autgroup.CASE_ROOT_TYPES, "2", "A1"),
                  "case 2 wall lattice has type A5+A3+3A1"),
    # the same class, but den is not its least denominator
    "rescaled wall": (_rescale_a_wall, "closed-form projection mismatch in case 3a"),
}


@pytest.mark.parametrize("mutant", sorted(WALL_MUTANTS))
def test_verify_walls_certifies_each_wall_again_after_a_passing_run(monkeypatch, capsys, mutant):
    """The wall lattices' types are cached, never the verdicts on them."""
    patch, message = WALL_MUTANTS[mutant]
    assert cli.main(["verify", "walls"]) == 0
    patch(monkeypatch)
    capsys.readouterr()
    assert cli.main(["verify", "walls"]) == 1
    assert capsys.readouterr().err == f"certification failed: {message}\n"


# (patch, suite, message): the suite that reads the broken fact fails its
# certification, and a reduce, which reads neither fact, still succeeds
MUTATIONS = {
    "root type": ("autgroup.CASE_ROOT_TYPES['2'] = 'A1'\n", "walls",
                  "case 2 wall lattice has type A5+A3+3A1"),
    "rescaled wall": ("_w = autgroup.autctx().walls['3a'][0]\n"
                      "_w.vec, _w.den = tuple(2 * x for x in _w.vec), 2 * _w.den\n",
                      "walls", "closed-form projection mismatch in case 3a"),
    "glue vector": ("_roots = hessian.base_roots()\n"
                    "_roots['x1'] = hessian.picard().curve_roots['N16']\n"
                    "hessian.base_roots = lambda: dict(_roots)\n",
                    "curves", "the glue vector must lie in L"),
}


runs = forked_runs({
    f"{mutation}: {command}": main_after(patch, argv)
    for mutation, (patch, suite, _) in MUTATIONS.items()
    for command, argv in (("verify", ["verify", suite]), ("reduce", ["reduce", "--word", "p16"]))
})


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_verify_certifies_what_a_reduce_does_not_under_python_O(runs, mutation):
    status, _, err = runs("-O")[f"{mutation}: verify"]
    assert status == 1, err
    assert err.splitlines() == [f"certification failed: {MUTATIONS[mutation][2]}"]
    assert "Traceback" not in err
    status, _, err = runs("-O")[f"{mutation}: reduce"]
    assert status == 0, err
    assert err == ""
