"""Certification is one mechanism, `checks.certify`, that `python -O`
cannot strip, and a failed certification is a reported failure (exit 1)
rather than a traceback. The fresh-interpreter probes run as forks of one
child per flag set (`forked_runs`), which the last test checks."""

import ast
import inspect

import pytest

from forked_runs import SRC, forked_runs, main_after
from hessaut import cli, hessian, weber
from hessaut.checks import CertificationError
from hessaut.hessian import Picard


def test_src_has_no_assert_statements_or_assertion_errors():
    found = []
    for path in sorted((SRC / "hessaut").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert found == []


def test_only_the_boundary_views_import_fractions():
    """Integers inside: `Fraction` is imported only inside the six API and
    report views that return one (exact inverses and solutions, the
    projection as Fractions, the wall projections r1, the image of a
    rational class, the walls suite's printed norms), and no module
    imports it when it loads, so `lattices` and `products` compute on
    integers only. An import says nothing about what runs:
    `EmbeddedLattice.disc_order` once read its determinant as a `Fraction`
    through `exact`, which this check allowed. `tests/test_trust_base.py`
    pins the run-time side: which commands load `fractions` and enter it.
    No module imports `typing` at all: annotations stay unevaluated, and
    the abstract types come from `collections.abc`."""
    found = {"fractions": set(), "typing": set()}
    for path in sorted((SRC / "hessaut").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        owner = {}  # node -> its innermost function; ast.walk goes outside in
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(ast.walk(fn), fn.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            for root in {name.split(".")[0] for name in names} & found.keys():
                found[root].add(f"{path.stem}.{owner.get(node, '<module>')}")
    assert found["typing"] == set()
    assert found["fractions"] == {"exact.solve_rational", "exact.invert_rational", "hessian.project_to_sh",
                     "autgroup.r1", "autgroup._apply_q", "cli.walls_suite"}


def test_constructor_certification_runs_under_python_O(runs):
    # p16's push on omega is certified by `AutContext`, which a reduce builds
    status, out, err = runs("-O")["constructor"]
    assert status == 1, err
    assert err.splitlines() == ["certification failed: p16 must push omega by 5 times its wall's r1"]
    assert "Traceback" not in err
    assert out == ""


def test_pinned_packets_are_certified(monkeypatch, capsys):
    packets = [list(p) for p in weber.PINNED_PACKETS]
    packets[0][0], packets[1][1] = packets[1][1], packets[0][0]
    monkeypatch.setattr(weber, "PINNED_PACKETS", tuple(map(tuple, packets)))
    assert cli.main(["verify", "weber"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("certification failed:")
    assert err.count("\n") == 1


# one incidence of the non-basis curve T15 changed: with N16 the coordinates
# of T15 over the basis are no longer integral; with T36, whose column of
# G^-1 is integral, they are integral but are not T15 in L
FORGED_INCIDENCES = {
    "N16": ("T15 must have integral coordinates over the basis curves", 0),
    "T36": ("T15 must be the sum of its coordinates times the basis curves in L", 1),
}


def _forged_incidence(incidence, other, value):
    """`hessian.incidence` with the incidence of T15 and other set to value."""
    return lambda a, b: value if {a, b} == {"T15", other} else incidence(a, b)


@pytest.mark.parametrize("other", sorted(FORGED_INCIDENCES))
def test_a_forged_curve_incidence_is_a_failed_certification(monkeypatch, other):
    message, value = FORGED_INCIDENCES[other]
    assert "T15" not in hessian.picard().basis_names
    assert hessian.incidence("T15", other) != value
    monkeypatch.setattr(hessian, "incidence",
                        _forged_incidence(hessian.incidence, other, value))
    with pytest.raises(CertificationError) as raised:
        Picard()
    assert str(raised.value) == message


@pytest.mark.parametrize("other", sorted(FORGED_INCIDENCES))
def test_a_forged_curve_incidence_is_a_failed_certification_under_python_O(runs, other):
    message, _ = FORGED_INCIDENCES[other]
    status, out, err = runs("-O")[f"forged {other}"]
    assert status == 1, err
    assert err.splitlines() == [f"certification failed: {message}"]
    assert out == ""


BROKEN_TABLE_COMMANDS = [["reduce", "--word", "tau"], ["verify", "walls"]]


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("command", BROKEN_TABLE_COMMANDS)
def test_a_broken_built_in_table_is_a_failed_certification(runs, flags, command):
    status, _, err = runs(*flags)[f"broken table: {' '.join(command)}"]
    assert status == 1, err
    assert err.splitlines() == ["certification failed: p16: images violate the curve relations at T34"]


# each test's fresh-interpreter probe, run plain or under -O
runs = forked_runs({
    # the harness itself
    "print": "print('x')\n",
    "flags": "import sys\nprint(sys.flags.optimize)\n",
    "exit": "import sys\nsys.exit(3)\n",
    "raise": "raise KeyError('probe')\n",
    "patch": "from hessaut import autgroup\nautgroup.PUSH_MULTIPLES['2'] = 5\n",
    "after patch": main_after("", ["reduce", "--word", "p16"]),
    "constructor": main_after("autgroup.PUSH_MULTIPLES['2'] = 5\n", ["reduce", "--word", "p16"]),
    **{f"forged {other}": main_after(
        inspect.getsource(_forged_incidence)
        + f"hessian.incidence = _forged_incidence(hessian.incidence, {other!r}, {value})\n",
        ["reduce", "--word", "tau"],
    ) for other, (_, value) in FORGED_INCIDENCES.items()},
    # N56 and N24 fixed instead of swapped: p16 violates the curve relations
    **{f"broken table: {' '.join(command)}": main_after(
        "autgroup.NODE_PROJECTION_TABLE.update({'N56': {'N56': 1}, 'N24': {'N24': 1}})\n", command,
    ) for command in BROKEN_TABLE_COMMANDS},
})


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_a_forked_probe_runs_as_python_c_does_and_changes_nothing_for_the_next(runs, flags):
    got = runs(*flags)
    assert [got[k] for k in ("print", "flags", "exit", "patch")] == [
        [0, "x\n", ""], [0, f"{len(flags)}\n", ""], [3, "", ""], [0, "", ""]]
    status, out, err = got["raise"]
    assert (status, out) == (1, "") and err.startswith("Traceback")
    assert err.endswith("KeyError: 'probe'\n")
    status, out, err = got["after patch"]
    assert status == 0 and out.startswith("word: p16\n"), err
