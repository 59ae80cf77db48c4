"""The certified curve action as the one isometry certificate, plain and
under `python -O`.

`isometry_from_images` attaches the `CurveAction.of` it certifies with,
`relabel` refuses a conjugand that its action does not certify as an
involution, and `compose` reads each factor's action before it
multiplies the matrices, so it refuses a non-isometry. Each probe below returns
plain data and uses no `assert`, so the same probe runs in process and in
a fresh `python -O`, and both must give the expected value.
"""

import json
from pathlib import Path

import pytest

from forked_runs import python_O
from hessaut.autgroup import SKEW_LINE_TABLE, Isometry, autctx, compose, relabel, table_isometry
from hessaut.checks import CertificationError
from hessaut.products import CurveAction
from product_reference import s5_conjugate

TESTS = Path(__file__).resolve().parent


def relabel_of_a_three_cycle():
    """The message with which `relabel` refuses a 3-cycle of the faces."""
    a = autctx()
    s = a.s5[(2, 3, 1, 4, 5)]
    try:
        relabel(s, a.tau, "conjugate")
    except CertificationError as e:
        return str(e)
    return "accepted"


def compose_of_non_isometries():
    """The error of `compose` on a shear and on twice the identity, alone
    and after a registry letter."""
    a = autctx()
    shear = tuple(tuple(int(i == j) + int((i, j) == (0, 1)) for j in range(16)) for i in range(16))
    doubled = tuple(tuple(2 * int(i == j) for j in range(16)) for i in range(16))
    out = []
    for rows in (shear, doubled):
        for factors in ([Isometry(rows, "bad")], [a.registry["g1"], Isometry(rows, "bad")]):
            try:
                compose(*factors)
            except ValueError as e:
                out.append(str(e))
            else:
                out.append("accepted")
    return out


def table_actions():
    """The tables whose attached action differs from a fresh
    `CurveAction.of` of their matrix, in src or combos."""
    a = autctx()
    tables = {"p16": a.p16, "f": a.f, "g": a.g, "skew": table_isometry(SKEW_LINE_TABLE, "skew")}
    differ = []
    for name, iso in tables.items():
        action = vars(iso).get("curve_action")
        fresh = CurveAction.of(iso.matrix, name)
        if action is None or (action.src, action.combos) != (fresh.src, fresh.combos):
            differ.append(name)
    return differ


def relabelled_skew():
    """How many of the 120 S5 elements s give relabel(skew, s) equal to the
    column product s o skew o s^-1."""
    a = autctx()
    skew = table_isometry(SKEW_LINE_TABLE, "skew")
    return sum(
        relabel(skew, s, "skew^s").matrix == s5_conjugate(skew, perm).matrix
        for perm, s in a.s5.items()
    )


PROBES = {
    relabel_of_a_three_cycle: "s23145 must be an involution",
    compose_of_non_isometries: ["bad: not an isometry of the Picard lattice"] * 4,
    table_actions: [],
    relabelled_skew: 120,
}


@pytest.fixture(scope="module")
def under_python_O():
    """Each probe's value, all four run by one fresh `python -O`."""
    proc = python_O(
        "import json, sys\n"
        f"sys.path.insert(0, {str(TESTS)!r})\n"
        "import test_isometry_certificate as t\n"
        "print(json.dumps({p.__name__: p() for p in t.PROBES}))\n"
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.mark.parametrize("optimize", [False, True], ids=["plain", "O"])
@pytest.mark.parametrize("probe", list(PROBES), ids=lambda p: p.__name__)
def test_isometry_certificate(under_python_O, probe, optimize):
    got = under_python_O[probe.__name__] if optimize else probe()
    assert got == PROBES[probe]
