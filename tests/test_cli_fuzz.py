"""Property test of the CLI's input layer, through ``cli.main`` in-process.

Grid strings (huge, tiny, reversed, zero, nan and inf endpoints or steps),
``--window`` and ``--box`` pairs and the ``--R/--a/--L`` scalars of a
two-digit system go through ``fourier``, ``completeness``, ``tiling``,
``ruelle-bound`` and ``classify``.  Whatever the input, a run ends as exit
0, 1 or 2 with no traceback and no warning; a failure to compute is exactly
one ``error:`` line, and ``fourier`` at exit 0 has one row per grid point.

Each grid axis is drawn as a, a + k step, step with a small k, so the rule
of ``cli._parse_grid`` names at most a few dozen points per axis, far below
``cli.GRID_BUDGET``.

System files are drawn from a few valid templates in d = 1 and 2 with
N <= 4, a few entries replaced by drawn numbers and ``"p/q"`` strings and
one twist (a d that does not match, a near-singular R, entries near 2^53,
non-Hadamard digits), and go through ``validate``, ``spectrum``,
``orthogonality``, ``fourier`` and ``completeness`` on 3-point grids and
``certify``.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from fractalspec import cli
from fractalspec.errors import ValidationError
from fractalspec.systems import parse_number

SYSTEMS = Path(__file__).resolve().parents[1] / "bench" / "systems"
CANTOR4, QUAD2D = str(SYSTEMS / "cantor4.json"), str(SYSTEMS / "quad2d.json")

EXTREMES = [
    "0", "-0.0", "5e-324", "1e-320", "1e-300", "1e-16", "1/3", "1", "3", "1e15", "1e16",
    "1e200", "1e300", "1.7976931348623157e308", "nan", "-nan", "inf", "-inf", "1/0", "",
]
number = st.one_of(
    st.sampled_from(EXTREMES),
    st.sampled_from(EXTREMES).filter(lambda s: s and s[0] not in "-n").map(lambda s: "-" + s),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-10**30, 10**30), st.integers(-4, 10**30)),
)


def _finite(text):
    try:
        return parse_number(text)
    except ValidationError:
        return None


@st.composite
def axis(draw):
    """"a:b:step" with b = a + k step (k from -2: reversed axes too), or with
    a drawn b when a or step is not a finite number."""
    a, step = draw(number), draw(number)
    k = draw(st.integers(-2, 8))
    if _finite(a) is None or _finite(step) is None:
        return f"{a}:{draw(number)}:{step}"
    return f"{a}:{parse_number(a) + k * parse_number(step)!r}:{step}"


def _requested(grid):
    """Points the documented rule names, in exact arithmetic: per axis,
    ceil((b - a) / step + 1/2) for b >= a, else none."""
    total = 1
    for part in grid.split(","):
        a, b, step = (Fraction(parse_number(f)) for f in part.split(":"))
        total *= math.ceil((b - a) / step + Fraction(1, 2)) if b >= a else 0
    return total


def run(argv):
    """(exit code, stdout, stderr) of one in-process run; a Python warning
    is raised as an error, so it fails the test with its traceback."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err and "Warning" not in err, (argv, err)
    # the CLI's own note on a decimal --a or --L is allowed
    lines = [ln for ln in err.splitlines() if not ln.startswith("warning: decimal literal")]
    errors = [ln for ln in lines if ln.startswith("error: ")]
    assert len(errors) == (code == 1) and lines[-1:] == errors[-1:], (argv, code, err)
    return code, out


FUZZ = settings(max_examples=25, deadline=5000)
systems = st.sampled_from([(CANTOR4, 1), (QUAD2D, 2)])


@FUZZ
@given(systems, st.lists(axis(), min_size=1, max_size=2))
def test_fourier(system, axes):
    path, d = system
    grid = ",".join(axes)
    code, out = check(["fourier", "--system", path, "--grid", grid])
    if code == 0:
        assert len(json.loads(out)["rows"]) == _requested(grid), grid


@FUZZ
@given(systems, st.lists(axis(), min_size=1, max_size=2))
def test_completeness(system, axes):
    path, _ = system
    check(["completeness", "--system", path, "--grid", ",".join(axes), "--max-depth", "2"])


@FUZZ
@given(number, number)
def test_tiling(lo, hi):
    check(["tiling", f"--window={lo}:{hi}", "--samples", "50"])


@FUZZ
@given(systems, st.lists(st.tuples(number, number), min_size=1, max_size=2))
def test_ruelle_bound(system, pairs):
    path, _ = system
    box = ",".join(f"{lo}:{hi}" for lo, hi in pairs)
    check(["ruelle-bound", "--system", path, f"--box={box}", "--trials", "2"])


@FUZZ
@given(
    st.one_of(st.integers(-6, 6), st.integers(), st.sampled_from([2**53, 2**53 + 2, 10**400, -10**400])),
    number,
    st.none() | st.tuples(number, number).map(",".join),
)
def test_classify(R, a, L):
    argv = ["classify", "--R", str(R), f"--a={a}", "--window", "6"]
    check(argv + ([f"--L={L}"] if L is not None else []))


TEMPLATES = [
    {"d": 1, "R": [[4]], "B": ["0", "1/2"], "L": [0, 1]},
    {"d": 1, "R": [[100]], "B": ["0", "1/2"], "L": [0, 1]},
    {"d": 1, "R": [[6]], "B": ["0", "1/3", "2/3"], "L": [0, 1, 2]},
    {"d": 1, "R": [[12]], "B": ["0", "1/4", "1/2", "3/4"], "L": [0, 1, 2, 7]},
    {"d": 2, "R": [[4, 0], [0, 4]], "B": [[0, 0], ["1/2", 0], [0, "1/2"], ["1/2", "1/2"]],
     "L": [[0, 0], [1, 0], [0, 1], [1, 1]]},
    {"d": 2, "R": [[4, 1], [0, 4]], "B": [[0, 0], ["1/2", 0]], "L": [[0, 0], [1, 0]]},
]
NEAR_2_53 = [2**53, 2**53 - 1, 2**53 + 2, -(2**53), 2**52 + 1, "9007199254740991/2"]
entry = st.one_of(
    number,
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-12, 12), st.integers(-1, 12)),
    st.sampled_from(NEAR_2_53),
    st.integers(-8, 8),
)


def _twist(draw, doc):
    """One of: nothing, a d that does not match, a near-singular R, R scaled
    toward 2^53, digits B that break the Hadamard condition."""
    d = doc["d"]
    kind = draw(st.sampled_from(["none", "d", "singular", "huge", "digits"]))
    if kind == "d":
        doc["d"] = 3 - d
    elif kind == "singular":
        eps = draw(st.sampled_from([1e-12, 2.0**-40, 5e-324, 0.0]))
        doc["R"] = [[eps]] if d == 1 else [[4, 4], [4, 4 + eps]]
    elif kind == "huge":
        scale = draw(st.sampled_from(NEAR_2_53))
        doc["R"] = [[scale if i == j else 0 for j in range(d)] for i in range(d)]
    elif kind == "digits":
        doc["B"] = [x if d == 1 else [x] * d for x in ("0", draw(entry))][: len(doc["L"])]


@st.composite
def system_doc(draw):
    """A system document: a template with up to three entries redrawn and
    one twist."""
    doc = copy.deepcopy(draw(st.sampled_from(TEMPLATES)))
    for _ in range(draw(st.integers(0, 3))):
        rows = doc[draw(st.sampled_from("RBL"))]
        i = draw(st.integers(0, len(rows) - 1))
        if isinstance(rows[i], list):
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(entry)
        else:
            rows[i] = draw(entry)
    _twist(draw, doc)
    return doc


def check_system(doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.json"
        path.write_text(json.dumps(doc))
        return check([argv[0], "--system", str(path), *argv[1:]])


def grid3(d, axis):
    """A 3-point grid of the document's d: ``axis`` then single points."""
    return ",".join([axis] + ["0:0:1"] * (d - 1))


axes3 = st.sampled_from(["0:1:0.5", "-3:-2:0.5", "1e6:1000001:0.5"])


@FUZZ
@given(system_doc())
def test_system_validate(doc):
    check_system(doc, ["validate"])


@FUZZ
@given(system_doc(), st.integers(0, 8))
def test_system_spectrum(doc, depth):
    check_system(doc, ["spectrum", "--depth", str(depth)])


@FUZZ
@given(system_doc(), st.integers(0, 3))
def test_system_orthogonality(doc, depth):
    check_system(doc, ["orthogonality", "--depth", str(depth)])


@FUZZ
@given(system_doc(), axes3)
def test_system_fourier(doc, axis):
    check_system(doc, ["fourier", "--grid", grid3(doc["d"], axis)])


@FUZZ
@given(system_doc(), axes3)
def test_system_completeness(doc, axis):
    check_system(doc, ["completeness", "--grid", grid3(doc["d"], axis), "--max-depth", "3"])


@FUZZ
@given(system_doc())
def test_system_certify(doc):
    check_system(doc, ["certify"])
