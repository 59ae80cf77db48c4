"""What each command certifies, pinned: its trust base.

A command's table maps each certifying function to the certificates it
ran: its `checks.certify` calls, and the builds `autgroup._certified` ran
for it (a `ValueError` inside such a build is a failed certificate too).
Keys are qualified function names, not lines, so an unrelated edit does
not churn the pins. Each command runs alone, in a fork of one fresh
interpreter taken after `import hessaut.cli`, as a process of its own
would run it; `python -O` must certify exactly what a plain run does.
The fork also reports whether the command loaded `fractions`, which no
module imports when it loads, and which of its functions it entered.

The same interpreter then runs every `verify <suite>` one after another,
in process, and counts the calls and distinct inputs of the functions
behind the walls' and the pencils' certificates: each runs once per
distinct input.

A change to a command's table is a change to what it certifies: update
the pin and say why in CHANGES.md.
"""

import json
from collections import Counter

import pytest

from hessaut import cli
from forked_runs import python

WORD = "tau,p16,g1,phi2,s21345"

# every command a user runs alone: the ten suites and the pinned word
COMMANDS = {f"verify {suite}": ["verify", suite, "--json"] for suite in cli.SUITE_NAMES}
COMMANDS["reduce"] = ["reduce", "--word", WORD, "--json"]


def _table(*parts: dict) -> dict:
    """The sum of the parts' counts, sorted by function."""
    return dict(sorted(sum(map(Counter, parts), Counter()).items()))


# `picard()`: its 20 curve roots, the pentahedral dictionary and the pinned hexad
PICARD = {"Picard.__init__": 64, "leech_root": 20, "pentahedral_dictionary": 10,
          "hexad_profile": 1}
# what `Picard` builds only when verify reads it: the six base roots of R on
# the complement octads, the Leech frame (`Ambient`) and the glue vector theta
LATTICE_R = {"leech_root": 6, "Ambient.__init__": 3, "Picard.theta": 1}
# the rest of `autctx()`, which a reduce builds: the 52 wall roots, tau and
# the 240 chamber symmetries as curve permutations, the three image tables
AUTCTX = {"AutContext.__init__": 82, "leech_root": 52, "AutContext.reflection_phi": 1,
          "CurveFrame.__init__": 3, "curve_permutation": 241, "isometry_from_images": 3}

TRUST_BASE = {
    "verify golay": _table({"SteinerSystem.pair_intersection_sizes": 1}),
    "verify leech": {},
    "verify embedding": _table(PICARD, LATTICE_R),
    "verify curves": _table(PICARD, LATTICE_R, {"petersen_graph_data": 45}),
    "verify picard": _table(PICARD, LATTICE_R),
    "verify pencils": _table(PICARD, {"pencil_catalog": 54, "Pencil.__init__": 139}),
    "verify weber": _table(PICARD, {"hexad_profile": 1, "hexad_orbit_and_stabilizer": 1,
                                    "psi_table": 1, "symplectic_linear_parts": 1}),
    # R's six octad base roots, read for the wall lattices R + Zr
    "verify walls": _table(PICARD, AUTCTX, {"leech_root": 6, "classify_wall_root": 104,
                                            "walls_suite": 52}),
    "verify generators": _table(PICARD, AUTCTX, {"isometry_from_images": 1, "relabel": 11,
                                                 "Pencil.__init__": 10}),
    "verify reduce": _table(PICARD, AUTCTX),
    "reduce": _table(PICARD, AUTCTX),
}

# (calls, distinct inputs) over every `verify <suite>` in one interpreter:
# the 52 wall roots and the Weyl vector projected, the 21 wall lattices and
# R and R0 typed, the thirty type 2 flags
COMPUTED_ONCE = {
    "Picard.project": [53, 53],
    "lattices.root_type": [23, 23],
    "Picard.type2_class": [30, 30],
}

# argv[1]: the commands as {name: argv}. Prints {"tables": {name: [status,
# table, fractions loaded, fractions.py functions entered]}, "computed":
# {function: [calls, distinct inputs]}}. Nothing before the forks loads `fractions`.
CHILD = """\
import contextlib, importlib.util, inspect, io, json, os, sys, traceback
import hessaut.cli
from collections import Counter
from hessaut import autgroup, checks, cli, hessian, lattices

# each hessaut function's code object -> its qualified name, read off the
# functions, as code objects carry none before Python 3.11
MODULES = [m for name, m in sys.modules.items() if name.split(".")[0] == "hessaut"]
QUALNAMES = {}
for module in MODULES:
    for obj in vars(module).values():
        owned = isinstance(obj, type) and obj.__module__ == module.__name__
        for f in vars(obj).values() if owned else [obj]:
            for attr in ("fget", "func", "__func__"):
                f = getattr(f, attr, f)
            f = inspect.unwrap(f) if callable(f) else f
            if getattr(f, "__module__", None) == module.__name__ and hasattr(f, "__code__"):
                QUALNAMES[f.__code__] = f.__qualname__

table = Counter()

def certifier():
    # the innermost hessaut function around the call, past comprehensions
    frame = sys._getframe(2)
    while frame.f_code not in QUALNAMES:
        frame = frame.f_back
    return QUALNAMES[frame.f_code]

certify = checks.certify

def spy_certify(ok, message):
    table[certifier()] += 1
    return certify(ok, message)

for module in MODULES:
    if getattr(module, "certify", None) is certify:
        module.certify = spy_certify

certified = autgroup._certified

def spy_certified(build, *args):
    table[build.__qualname__] += 1
    return certified(build, *args)

autgroup._certified = spy_certified

def frozen(x):
    return tuple(map(frozen, x)) if isinstance(x, (list, tuple)) else x

computed = {}

def counted(owner, name, key):
    inputs = computed[key] = []
    f = getattr(owner, name)
    def wrapper(*args):
        inputs.append(frozen(args[1:] if isinstance(owner, type) else args))
        return f(*args)
    setattr(owner, name, wrapper)

counted(hessian.Picard, "project", "Picard.project")
counted(lattices, "root_type", "lattices.root_type")
counted(hessian.Picard, "type2_class", "Picard.type2_class")

# frames, not `Fraction.__new__` calls, which 3.12's `_from_coprime_ints`
# bypasses; traced from the import of `fractions` on, as none run before it
FRACTIONS, entered = importlib.util.find_spec("fractions").origin, set()

def hook(frame, event, arg):  # called on each new frame, as it traces none
    if frame.f_code.co_filename == FRACTIONS:
        entered.add(frame.f_code.co_name)
def run(argv):
    table.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(argv)
    return [status, dict(sorted(table.items())), "fractions" in sys.modules]

tables = {}
for name, argv in json.loads(sys.argv[1]).items():
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the command alone, its table handed back over the pipe
        try:
            os.close(r)
            sys.addaudithook(lambda event, args: event == "import" and args[0] == "fractions"
                             and sys.settrace(hook))
            with open(w, "w") as pipe:
                json.dump(run(argv) + [sorted(entered)], pipe)
        except BaseException:
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    os.close(w)
    with open(r) as pipe:
        tables[name] = json.load(pipe)
    os.waitpid(pid, 0)

for suite in cli.SUITE_NAMES:
    run(["verify", suite, "--json"])
print(json.dumps({
    "tables": tables,
    "computed": {k: [len(v), len(set(v))] for k, v in computed.items()},
}))
"""


@pytest.fixture(scope="module", params=[[], ["-O"]], ids=["plain", "O"])
def census(request):
    proc = python(*request.param, "-c", CHILD, json.dumps(COMMANDS))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_command_passes(census):
    statuses = {name: status for name, (status, *_) in census["tables"].items()}
    assert statuses == dict.fromkeys(COMMANDS, 0)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_command_certifies_its_pinned_trust_base(census, command):
    assert census["tables"][command][1] == TRUST_BASE[command]


def test_only_verify_walls_loads_fractions(census):
    """`Fraction` is imported only where one is made, and of every command
    only `verify walls` makes one, for the projection norms it prints."""
    loaded = {name: frac for name, (_, _, frac, _) in census["tables"].items()}
    assert loaded == {name: name == "verify walls" for name in COMMANDS}


def test_only_verify_walls_computes_with_fractions(census):
    """Integers inside, at run time; that `verify walls` enters
    `fractions.py`, for the norms it prints, shows the hook is live."""
    entered = {name: fns for name, (_, _, _, fns) in census["tables"].items()}
    assert entered.pop("verify walls") != []
    assert entered == dict.fromkeys(entered, [])


def test_verify_computes_each_certified_fact_once(census):
    assert census["computed"] == COMPUTED_ONCE
