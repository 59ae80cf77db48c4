"""`Picard` computes in the lattice that the twenty curves span; the
Leech-frame path it replaced (`picard_reference`) gives the same basis,
curve coordinates and projections. Construction and wall classification
build no Leech frame, and the embedding suites build each frame lattice
once."""

from collections import Counter
from functools import cache

import picard_reference as ref
from hessaut import autgroup, cli, exact, hessian, lattices
from hessaut.autgroup import classify_wall_root, enumerate_wall_roots
from hessaut.hessian import CURVE_NAMES, Picard, picard
from hessaut.lorentz import weyl_vector

ZERO = ((0,) * 16, 1)


def test_the_basis_and_curve_coordinates_match_the_frame_solve():
    ctx = picard()
    names, _, curve_coord = ref.frame_coords()
    assert len(names) == 16 and ctx.basis_names == names
    assert ctx.curve_coord == curve_coord


def test_the_frame_solve_matches_one_solve_per_curve():
    """`solve_integer` solves for the twenty curves over the S_H rows in one
    elimination; each equals its own `solve_rational`, and the curve basis
    expresses it as `curve_coord`."""
    ctx = picard()
    sh_cols = exact.transpose([list(r) for r in ctx.lattice_SH.rows])
    amb = lattices.ambient()
    raw = ref.sh_coords()
    names, _, _ = ref.frame_coords()
    basis = [raw[b] for b in names]
    for name in CURVE_NAMES:
        assert exact.solve_rational(sh_cols, list(amb.coords(ctx.curve_roots[name]))) == raw[name]
        assert exact.vec_mat(ctx.curve_coord[name], basis) == raw[name], name


def test_project_matches_the_frame_projection():
    ctx = picard()
    walls = enumerate_wall_roots()
    roots = [w.root for found in walls.values() for w in found]
    assert len(roots) == 52
    for v in roots + [weyl_vector()] + list(ctx.curve_roots.values()):
        assert ctx.project(v) == ref.frame_project(v)
    assert ref.frame_project(weyl_vector()) == (ctx.omega_prime, 1)
    for name, root in ctx.curve_roots.items():
        assert ref.frame_project(root) == (ctx.curve_coord[name], 1), name


def test_the_base_roots_and_the_glue_vector_project_to_zero():
    ctx = picard()
    assert len(ctx.roots) == 10
    for v in list(ctx.roots.values()) + [ctx.theta]:
        assert ctx.project(v) == ZERO == ref.frame_project(v)


def _refuse(*args, **kwargs):
    raise AssertionError("the Leech frame was built")


def test_construction_and_wall_classification_build_no_leech_frame(monkeypatch):
    walls = enumerate_wall_roots()
    roots = [walls[case][0].root for case in ("1a", "2", "3a", "3b")]
    roots.append(picard().curve_roots["N16"])  # case 0
    want = [classify_wall_root(r) for r in roots]
    for module, name in ((lattices, "ambient"), (lattices, "span"),
                         (lattices, "orthogonal_complement"), (exact, "hermite_normal_form")):
        monkeypatch.setattr(module, name, _refuse)
    fresh = Picard()
    monkeypatch.setattr(autgroup, "picard", lambda: fresh)
    got = [classify_wall_root(r) for r in roots]
    assert [w.case for w in got] == ["1a", "2", "3a", "3b", "0"]
    assert got == want
    assert fresh.curve_coord == picard().curve_coord
    assert "lattice_T" not in vars(fresh)


def test_the_embedding_suites_build_each_frame_lattice_once(monkeypatch):
    fresh = Picard()
    for module in (cli, hessian):  # hessian: `petersen_graph_data`
        monkeypatch.setattr(module, "picard", lambda: fresh)
    monkeypatch.setattr(cli, "_disc_form_T", cache(cli._disc_form_T.__wrapped__))
    calls = Counter()
    for name in ("span", "orthogonal_complement"):
        build = getattr(lattices, name)
        monkeypatch.setattr(lattices, name,
                            lambda *a, name=name, build=build: calls.update([name]) or build(*a))
    frame = {"lattice_R", "lattice_T", "lattice_SH"}
    for suite, read in (("embedding", {"lattice_R", "lattice_T"}),
                        ("curves", frame), ("picard", frame)):
        assert cli.main(["verify", suite]) == 0
        assert vars(fresh).keys() & frame == read
    # R and T, the curves' own span in `curves.span-index-one`, and S_H
    assert calls == {"span": 3, "orthogonal_complement": 1}
