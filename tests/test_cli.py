import argparse
import gc
import json
import resource
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from fractalspec import cli, ruelle, spectrum, systems, verify
from fractalspec.cli import main
from fractalspec.reports import render_json


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_example_system(cantor4_file, capsys):
    code, out, _ = run_cli(["validate", "--system", cantor4_file], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["validation"]["hadamard_deviation"] == 0
    assert payload["validation"]["valid"] is True
    assert payload["config"]["schema_version"] == "1"


def test_validate_incompatible_system(write_system, capsys):
    path = write_system({"d": 1, "R": [[3]], "B": [0, 0.5], "L": [0, 1]})
    code, out, _ = run_cli(["validate", "--system", path], capsys)
    assert code == 2
    assert json.loads(out)["validation"]["compatible"] is False


@pytest.mark.parametrize(
    "argv",
    [["certify"], ["completeness", "--depth", "2", "--grid", "0:1:0.05"]],
    ids=lambda argv: argv[0],
)
def test_odd_scale_claims_no_basis(write_system, capsys, argv):
    # R = 3, B = {0, 1/2}: no exponential basis exists, and Q exceeds the
    # Bessel bound of 1 on the non-orthogonal enumerated set
    path = write_system({"d": 1, "R": [[3]], "B": ["0", "1/2"], "L": [0, 1]})
    code, out, _ = run_cli([argv[0], "--system", path, *argv[1:]], capsys)
    payload = json.loads(out)
    assert code == 2
    if argv[0] == "certify":
        assert payload["certificate"]["basis_certified"] is False
        assert "not compatible" in payload["certificate"]["failures"]
    else:
        assert payload["report"]["status"] == "inconclusive"
        assert payload["report"]["min_Q"] > 1.0


def test_system_file_scale_multiplies_R(write_system, capsys):
    path = write_system({"d": 1, "R": [[3]], "B": ["0", "1/2"], "L": [0, 1], "r": 2})
    code, out, _ = run_cli(["validate", "--system", path], capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["system"]["r"] == 2
    assert payload["validation"]["min_eigenvalue_modulus"] == 6.0
    assert payload["validation"]["compatible"] is True


def test_validate_honors_n_max(write_system, capsys):
    path = write_system({"d": 1, "R": [[3]], "B": [0, 0.5], "L": [0, 1]}, "n.json")
    code, out, _ = run_cli(["validate", "--system", path, "--n-max", "3"], capsys)
    assert code == 2
    assert json.loads(out)["validation"]["compatible_up_to"] == 3


def test_validate_loose_tolerance_flips_verdict(write_system, capsys):
    path = write_system({"d": 1, "R": [[3]], "B": [0, 0.5], "L": [0, 1]}, "t.json")
    code, out, _ = run_cli(["validate", "--system", path, "--tol", "0.6"], capsys)
    # defect 1/2 is inside a 0.6 tolerance: compatible, still a contrived case
    assert code == 0
    assert json.loads(out)["validation"]["compatible"] is True


CANTOR4_TEXT = '{"d": 1, "R": [[4]], "B": [0, "1/2"], "L": [0, 1]'
BAD_SYSTEM_FILES = {
    "syntax": ("{oops", "line 1"),
    "list": ("[1, 2]", "must hold a JSON object"),
    "string": ('"cantor4"', "must hold a JSON object"),
    "r-null": (CANTOR4_TEXT + ', "r": null}', "scale r must be a positive integer"),
    "r-float": (CANTOR4_TEXT + ', "r": 1.5}', "scale r must be a positive integer"),
    "d-float": ('{"d": 1.7, "R": [[4]], "B": [0, 0.5], "L": [0, 1]}', "d must be a positive"),
    "d-zero": ('{"d": 0, "R": [[4]], "B": [0, 0.5], "L": [0, 1]}', "d must be a positive"),
    "d-negative": ('{"d": -1, "R": [[4]], "B": [0, 0.5], "L": [0, 1]}', "d must be a positive"),
    "zero-denominator": ('{"d": 1, "R": [[4]], "B": [0, "1/0"], "L": [0, 1]}', "'1/0'"),
    "overflow": ('{"d": 1, "R": [[%d]], "B": [0, 0.5], "L": [0, 1]}' % 10**400, "not a finite"),
    "nan": ('{"d": 1, "R": [[4]], "B": [0, "nan"], "L": [0, 1]}', "'nan'"),
    "missing-d": ('{"R": [[4]], "B": [0, 0.5], "L": [0, 1]}', "missing key 'd'"),
    "missing-L": ('{"d": 1, "R": [[4]], "B": [0, 0.5]}', "missing key 'L'"),
    "R-string": ('{"d": 1, "R": "x", "B": [0, 0.5], "L": [0, 1]}', "not a finite number: 'x'"),
    "list-entry": ('{"d": 1, "R": [[4]], "B": [0, [0.5, 1]], "L": [0, 1]}', "[0.5, 1]"),
    "null-entry": ('{"d": 1, "R": [[4]], "B": [0, null], "L": [0, 1]}', "not a finite number: None"),
    "B-object": ('{"d": 1, "R": [[4]], "B": {"a": 1}, "L": [0, 1]}', "{'a': 1}"),
    "overflow-string": ('{"d": 1, "R": [[4]], "B": [0, "1e999"], "L": [0, 1]}', "'1e999'"),
    "overflow-literal": ('{"d": 1, "R": [[4]], "B": [0, 1e400], "L": [0, 1]}', "not a finite number: inf"),
    "d-string": ('{"d": "1", "R": [[4]], "B": [0, 0.5], "L": [0, 1]}', "d must be a positive"),
    "d-two-one-entry": ('{"d": 2, "R": [[4]], "B": [[0, 0]], "L": [[0, 0]]}', "d = 2 needs 4"),
    "empty-digits": ('{"d": 1, "R": [[4]], "B": [], "L": []}', "must be nonempty"),
    # JSON false/true once read as 0/1: B = {0, 1/2}, L = {0, 1}, a certified basis
    "booleans": ('{"d": 1, "R": [["4"]], "B": [false, "1/2"], "L": [false, true]}', "number: False"),
}


@pytest.mark.parametrize("text, fragment", BAD_SYSTEM_FILES.values(), ids=BAD_SYSTEM_FILES.keys())
def test_parse_error_exits_one(tmp_path, capsys, text, fragment):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for command in ("validate", "certify"):
        code, out, err = run_cli([command, "--system", str(bad)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["classify", "--R", "4", "--a", "1/0"], "1/0"),
        (["clique", "--R", "3", "--a", "1/0"], "1/0"),
        (["fourier", "--system", "{cantor4}", "--grid", "0:1:1/0"], "1/0"),
        (["fourier", "--system", "{cantor4}", "--grid", "0:nan:0.5"], "nan"),
        (["tiling", "--window", "0:1/0"], "1/0"),
    ],
    ids=["classify", "clique", "fourier", "fourier-nan", "tiling"],
)
def test_bad_number_flag_exits_one(cantor4_file, capsys, argv, bad):
    argv = [arg.format(cantor4=cantor4_file) for arg in argv]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (1, "", f"error: not a finite number: '{bad}'\n")


@pytest.mark.parametrize(
    "argv, flag, bad",
    [
        (["completeness", "--system", "{cantor4}", "--target", "nan"], "--target", "nan"),
        (["classify", "--R", "4", "--a", "1/2", "--target", "inf"], "--target", "inf"),
        (["validate", "--system", "{cantor4}", "--tol", "nan"], "--tol", "nan"),
        (["orthogonality", "--system", "{cantor4}", "--tol=-inf"], "--tol", "-inf"),
        (["completeness", "--system", "{cantor4}", "--increment-tol", "inf"], "--increment-tol", "inf"),
        (["tiling", "--window=0:1", "--translate-factor", "inf"], "--translate-factor", "inf"),
        (["hardy", "--system", "{cantor4}", "--coeffs", "0=1", "--max-error", "nan"], "--max-error", "nan"),
    ],
    ids=["target", "classify-target", "tol", "orthogonality-tol", "increment-tol", "translate-factor",
         "max-error"],
)
def test_non_finite_flag_exits_one_before_computing(cantor4_file, capsys, monkeypatch, argv, flag, bad):
    def unreachable(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "_load_system", unreachable)
    argv = [arg.format(cantor4=cantor4_file) for arg in argv]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (1, "", f"error: {flag}: not a finite number: '{bad}'\n")


@pytest.mark.parametrize("coeffs, bad", [("0=nan,1=1", "nan"), ("0=1,1=1+infj", "1+infj")])
def test_non_finite_hardy_coefficient_exits_one(cantor4_file, capsys, monkeypatch, coeffs, bad):
    monkeypatch.setattr(verify, "hardy_roundtrip", lambda *a, **k: pytest.fail("round-trip ran"))
    argv = ["hardy", "--system", cantor4_file, "--coeffs", coeffs]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (1, "", f"error: coefficient '{bad}' is not a finite number\n")


def test_grid_point_far_from_zero_is_evaluated(cantor4_file, capsys):
    # a + step / 2 rounds back to a here; the count n = 1 keeps the point
    argv = ["--system", cantor4_file, "--grid", "1e16:1e16:1"]
    code, out, err = run_cli(["fourier", *argv], capsys)
    assert (code, err) == (0, "") and [row[0] for row in json.loads(out)["rows"]] == [1e16]
    code, out, err = run_cli(["completeness", *argv], capsys)
    assert (code, err) == (2, "") and json.loads(out)["report"]["status"] == "inconclusive"


@pytest.mark.parametrize("grid", ["1e16:1.0000000000000004e16:1", "1.7e308:1.79e308:1e307"])
def test_grid_points_that_coincide_or_overflow_exit_one(cantor4_file, capsys, grid):
    code, out, err = run_cli(["fourier", "--system", cantor4_file, "--grid", grid], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: points of grid axis '{grid}' coincide or overflow in float\n"


def test_huge_frequency_error_names_its_norm(cantor4_file, capsys):
    argv = ["fourier", "--system", cantor4_file, "--grid", "1e200:1e200:1e200"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: product tail ") and err.endswith(" (|t| = 1e+200)\n")
    assert err.count("\n") == 1


def test_completeness_error_names_the_grid_point(cantor4_file, capsys):
    # the tree's depth-2 leaves sit at the grid point over 4^3; the error
    # must say which input failed, not only the leaf's |t|
    grid = "0:1.7976931348623157e308:1.7976931348623157e308"
    argv = ["completeness", "--system", cantor4_file, "--grid", grid, "--max-depth", "2"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: product tail ") and "(|t| = 2.8089e+306)" in err
    assert err.endswith(" for grid point t = [1.7976931348623157e+308]\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify", "--R", "4", "--a", "1e300"], "the system has an entry beyond 2^53 in magnitude"),
        (["classify", "--R", str(2**60), "--a", "1/2"], "the system has an entry beyond 2^53 in magnitude"),
        (["classify", "--R", str(10**400), "--a", "1/2"], f"not a finite number: {'1' + '0' * 29}... (401 characters)"),
        # l = 1/(2a) = 10^323, the exact value of the written a, is past the float range
        (["classify", "--R", "4", "--a", "5e-324"], f"not a finite number: Fraction({'1' + '0' * 20}... (337 characters)"),
        (["tiling", "--window=1e300:-1e308"], "window [1e+300, -1e+308) is empty"),
    ],
    ids=["a", "R", "R-overflow", "a-underflow", "window"],
)
def test_input_beyond_the_float_range_exits_one(cantor4_file, capsys, argv, message):
    code, out, err = run_cli([arg.format(cantor4=cantor4_file) for arg in argv], capsys)
    assert (code, out, err.splitlines()[-1]) == (1, "", f"error: {message}")
    assert len(err.splitlines()[-1]) <= 100


def run_capped(argv, limit=2 * 2**30, timeout=None):
    """(exit code, stdout, stderr) of a CLI process whose address space is
    capped at ``limit`` bytes, set in the child only: a case that would
    allocate gigabytes fails fast there instead of paging.  A child still
    running after ``timeout`` seconds is killed and fails the test."""

    def cap():
        hard = resource.getrlimit(resource.RLIMIT_AS)[1]
        soft = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))

    proc = subprocess.run(
        [sys.executable, "-m", "fractalspec.cli", *argv],
        capture_output=True,
        text=True,
        preexec_fn=cap,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


R100 = {"d": 1, "R": [[100]], "B": ["0", "1/2"], "L": [0, 1]}
R2_53 = {"d": 1, "R": [[2**53]], "B": ["0", "1/2"], "L": [0, 1]}


@pytest.mark.parametrize("command, depth", [("spectrum", 8), ("orthogonality", 9)])
def test_word_sums_from_2_53_exit_one(write_system, capsys, command, depth):
    # distinct words of R = 100 are orthogonal (at the lowest digit where two
    # differ, (lam - lam') / 100^k is odd); past 2^53 their sums would merge
    path = write_system(R100)
    code, out, err = run_cli([command, "--system", path, "--depth", str(depth)], capsys)
    assert (code, out) == (1, "")
    assert err == (
        f"error: word sums at depth {depth} may reach 1.01e+16 >= 2^53, "
        "where distinct sums can round together\n"
    )
    code, out, _ = run_cli(["spectrum", "--system", path, "--depth", "7"], capsys)
    assert code == 0 and json.loads(out)["size"] == 2**8


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        (None, ["orthogonality", "--depth", "12"], "8192^2 pairs exceed the pair budget 16777216"),
        (None, ["orthogonality", "--depth", "20"], "2097152^2 pairs exceed the pair budget 16777216"),
        (R2_53, ["spectrum", "--depth", "22"], "word sums at depth 22 may reach 9.01e+15 >= 2^53, "
         "where distinct sums can round together"),
    ],
    ids=["orthogonality-d12", "orthogonality-d20", "spectrum-R2^53"],
)
def test_refused_before_allocating(cantor4_file, write_system, doc, argv, message):
    path = cantor4_file if doc is None else write_system(doc)
    code, out, err = run_capped([argv[0], "--system", path, *argv[1:]])
    assert (code, out, err) == (1, "", f"error: {message}\n")


HUGE = str(10**400)
R5_2 = {"d": 1, "R": [["5/2"]], "B": ["0", "1/2"], "L": [0, 1]}  # not integral: no exact shortcut


@pytest.mark.parametrize(
    "argv",
    [
        ["atoms", "--system", "{cantor4}", "--depth", HUGE],
        ["atoms", "--system", "{cantor4}", "--depth", "1000000000"],
        ["spectrum", "--system", "{cantor4}", "--depth", HUGE],
        ["orthogonality", "--system", "{cantor4}", "--depth", HUGE],
        ["completeness", "--system", "{cantor4}", "--depth", HUGE],
        ["tiling", "--window=0:1", "--depth", HUGE],
        ["hardy", "--system", "{cantor4}", "--coeffs", "0=1", "--depth", HUGE],
        ["sweep", "--system", "{cantor4}", "--r-max", "100000000000"],
        ["validate", "--system", "{r5_2}", "--n-max", "100000000000"],
    ],
    ids=["atoms", "atoms-1e9", "spectrum", "orthogonality", "completeness", "tiling", "hardy", "sweep",
         "validate"],
)
def test_runaway_integer_is_refused_at_once(cantor4_file, write_system, argv):
    # each of these once formed N**depth or built every scale before its budget
    # check, growing for minutes to gigabytes
    paths = {"cantor4": cantor4_file, "r5_2": write_system(R5_2, "r5_2.json")}
    code, out, err = run_capped([arg.format(**paths) for arg in argv], limit=2**30, timeout=20)
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert (code, out, len(errors)) == (1, "", 1), err
    assert len(errors[0]) <= 120 and "Traceback" not in err


def test_overflowed_integrality_products_count_as_defects(write_system, capsys):
    # R^n b overflows past n = 775: those products are as far from the integers as can be
    code, out, err = run_cli(["validate", "--system", write_system(R5_2), "--n-max", "1000"], capsys)
    validation = json.loads(out)["validation"]
    assert (code, err) == (2, "")
    assert (validation["max_integrality_defect"], validation["compatible"]) == (0.5, False)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "--system", "{cantor4}", f"--trials=-{HUGE}"], "trials must be >= 0, got {}"),
        (["sweep", "--system", "{cantor4}", f"--r-max=-{HUGE}"], "r_max must be >= 1, got {}"),
        (["validate", "--system", "{cantor4}", f"--n-max=-{HUGE}"], "n_max must be >= 1, got {}"),
        (["tiling", "--window=0:1", "--samples", HUGE], "{} samples exceed the tiling budget of 16777216"),
        (["clique", "--R", "3", "--a", "1/2", "--window", HUGE], "window {} exceeds the exact-search budget of 200"),
        (["hardy", "--system", "{cantor4}", "--coeffs", "0=1", "--quadrature-depth", HUGE],
         "round-trip basis 2**{} x 1 exceeds the budget of 16777216"),
    ],
    ids=["certify", "sweep", "validate", "tiling", "clique", "hardy"],
)
def test_huge_integer_flags_are_echoed_cut(cantor4_file, capsys, argv, message):
    code, out, err = run_cli([arg.format(cantor4=cantor4_file) for arg in argv], capsys)
    value = next(arg.split("=")[-1] for arg in argv if HUGE in arg)
    cut = f"{value[:30]}... ({len(value)} characters)"  # the rule of exact.parse
    assert (code, out, err) == (1, "", f"error: {message.format(cut)}\n")
    assert len(err) <= 121


@pytest.mark.parametrize("command", ["ruelle-bound", "certify"])
def test_negative_seed_is_named(cantor4_file, capsys, command):
    code, out, err = run_cli([command, "--system", cantor4_file, "--trials", "1", "--seed=-1"], capsys)
    assert (code, out, err) == (1, "", "error: seed must be >= 0, got -1\n")


@pytest.mark.parametrize("grid, points", [("0:1e9:1e-9", "1e+18"), ("0:1:1,0:1e9:1e-9", "2e+18")])
def test_grid_over_budget_exits_one(cantor4_file, write_system, capsys, grid, points):
    system = write_system(QUAD2D, "quad2d.json") if "," in grid else cantor4_file
    code, out, err = run_cli(["completeness", "--system", system, "--grid", grid], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: grid '{grid}' has {points} points, over the budget of 16777216\n"


def test_unitarity_tolerance_gates_certify(write_system, capsys):
    # deviation 3.1e-11: validate and certify now agree that it is not unitary
    path = write_system({"d": 1, "R": [[4]], "B": [0, 0.5 + 1e-11], "L": [0, 1]})
    code, out, _ = run_cli(["validate", "--system", path], capsys)
    assert code == 2 and json.loads(out)["validation"]["hadamard_ok"] is False
    code, out, err = run_cli(["certify", "--system", path], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: digit matrix is not unitary (deviation 3.")


def test_validate_large_exact_frequencies(write_system, capsys):
    doc = {"d": 1, "R": [[10]], "B": ["0", "1/5", "2/5", "3/5", "4/5"], "L": [0, 1, 5002, 3, 4]}
    code, out, _ = run_cli(["validate", "--system", write_system(doc)], capsys)
    validation = json.loads(out)["validation"]
    assert code == 0
    assert validation["hadamard_deviation"] > 1e-12 and validation["hadamard_ok"] is True


@pytest.mark.parametrize(
    "argv", [["fourier", "--grid", "0:1:0.5"], ["sweep"], ["certify"], ["ruelle-bound"]], ids=lambda a: a[0]
)
def test_r_near_one_tails_cannot_be_certified(write_system, capsys, argv):
    path = write_system({"d": 1, "R": [["1001/1000"]], "B": ["0", "1/2"], "L": ["0", "1"]})
    code, out, err = run_cli(argv + ["--system", path], capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: ||(R^T)^-k|| stays above 1/2 for k < 256 "
        "(min eigenvalue modulus 1.001); tails cannot be certified\n"
    )


def test_certify_span_failure(write_system, capsys):
    path = write_system({"d": 1, "R": [[4]], "B": [0], "L": [0]})
    code, out, _ = run_cli(["certify", "--system", path], capsys)
    assert code == 2
    assert json.loads(out)["reason"] == "L does not span"


def test_certify_example_system(cantor4_file, capsys):
    code, out, _ = run_cli(["certify", "--system", cantor4_file], capsys)
    assert code == 0
    assert json.loads(out)["certificate"]["basis_certified"] is True


def test_clique_command(capsys):
    code, out, _ = run_cli(
        ["clique", "--R", "3", "--a", "1/2", "--window", "40"], capsys
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["size"] == 2
    assert payload["witness"] == [0, 1]


@pytest.mark.parametrize(
    "R, a, window, size, witness",
    [
        ("3", "1/3", "30", 2, [0, 1.5]),  # as classify reads it; no integer is a zero of mu-hat
        ("2", "1/4", "60", 121, list(range(-120, 121, 2))),  # R = 2: every lattice gap is an edge
    ],
)
def test_clique_searches_the_lattice_of_one_over_2a(capsys, R, a, window, size, witness):
    code, out, _ = run_cli(["clique", "--R", R, "--a", a, "--window", window], capsys)
    payload = json.loads(out)
    assert (code, payload["size"], payload["witness"]) == (0, size, witness)


@pytest.mark.parametrize("L, predicted", [("0,13", "outside-theorem"), ("0,21", "outside-theorem"),
                                          ("1,0", "basis"), ("0,1.0", "basis")])
def test_classify_claims_a_basis_only_on_the_theorem_L(capsys, L, predicted):
    # the even-R basis claim is about L = {0, 1/(2a)}; another L is evidence only
    code, out, _ = run_cli(["classify", "--R", "4", "--a", "1/2", "--L", L], capsys)
    verdict = json.loads(out)["verdict"]
    assert (code, verdict["predicted"], verdict["consistent"]) == (0, predicted, True)


@pytest.mark.parametrize(
    "R, a, witness", [("3", "1/3", [0, 1.5]), ("-3", "2/7", [0, 1.75]), ("5", "1/4", [0, 2])]
)
def test_classify_odd_scale_reads_the_parity_theorem(capsys, R, a, witness):
    # an integer window finds no orthogonal pair for a = 1/3 or 2/7
    code, out, _ = run_cli(["classify", "--R", R, "--a", a], capsys)
    verdict = json.loads(out)["verdict"]
    assert code == 0 and verdict["predicted"] == "no-basis" and verdict["consistent"] is True
    assert (verdict["max_clique_size"], verdict["clique_witness"]) == (2, witness)


def test_classify_odd_scale_rejects_a_non_unitary_L(capsys):
    code, out, err = run_cli(["classify", "--R", "3", "--a", "1/2", "--L", "0,1/3"], capsys)
    assert (code, out, err) == (1, "", "error: digit matrix is not unitary (deviation 8.660e-01)\n")


def test_classify_outside_theorem(capsys):
    code, out, _ = run_cli(["classify", "--R", "2", "--a", "1/2"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"]["predicted"] == "outside-theorem"


@pytest.mark.parametrize("flags", [["--a", "0.5"], ["--a", "0.25"], ["--a", "2", "--L", "0,2.5e-1"]])
def test_exact_decimal_is_not_warned(capsys, flags):
    code, _, err = run_cli(["classify", "--R", "4", *flags], capsys)
    assert (code, err) == (0, "")


def test_non_dyadic_cycle_point_is_a_witness(write_system, capsys):
    # the digits 1/3 and 2/3 are exact, so the scan passes the exact gate and
    # the fixed point -1 of l = 2 is a witness
    path = write_system({"d": 1, "R": [[3]], "B": ["0", "1/3", "2/3"], "L": [0, 1, 2]})
    code, out, _ = run_cli(["completeness", "--system", path, "--grid=-1:0:0.125"], capsys)
    report = json.loads(out)["report"]
    assert code == 2 and report["status"] == "incomplete-evidence"
    assert report["min_Q"] == 0.0 and report["argmin"] == [-1.0]


def test_decimal_with_a_huge_exponent_is_warned_at_once(capsys):
    # the exact parse forms no 10**400000000
    code, _, err = run_cli(["classify", "--R", "4", "--a=1e-400000000"], capsys)
    assert code == 1 and err.splitlines() == ["error: a must be nonzero"]


def test_fourier_csv_columns(cantor4_file, tmp_path, capsys):
    out_path = tmp_path / "fourier.csv"
    code, _, _ = run_cli(
        [
            "fourier",
            "--system",
            cantor4_file,
            "--grid",
            "0:1:0.25",
            "--format",
            "csv",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    comments = [ln for ln in lines if ln.startswith("#")]
    data = [ln for ln in lines if not ln.startswith("#")]
    assert any("config:" in c for c in comments)
    assert any("validation:" in c for c in comments)
    assert data[0] == "t,re,im,abs,tail_bound"
    assert len(data) == 1 + 5  # header + 5 grid points


def test_empty_grid_produces_valid_empty_file(cantor4_file, tmp_path, capsys):
    out_path = tmp_path / "empty.csv"
    code, _, _ = run_cli(
        [
            "completeness",
            "--system",
            cantor4_file,
            "--grid",
            "1:0:0.01",
            "--format",
            "csv",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == 0
    data = [ln for ln in out_path.read_text().splitlines() if not ln.startswith("#")]
    assert data == ["t,Q"]


def test_completeness_positive(cantor4_file, capsys):
    code, out, _ = run_cli(
        ["completeness", "--system", cantor4_file, "--depth", "2"], capsys
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["report"]["status"] == "complete-evidence"
    assert payload["report"]["min_Q"] >= 0.99


QUAD2D = {
    "d": 2,
    "R": [["4", "0"], ["0", "4"]],
    "B": [["0", "0"], ["1/2", "0"], ["0", "1/2"], ["1/2", "1/2"]],
    "L": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]],
}


def test_completeness_max_depth_caps_escalation(write_system, capsys):
    argv = ["completeness", "--system", write_system(QUAD2D), "--depth", "1"]
    argv += ["--grid", "0:1:0.1,0:1:0.1", "--max-depth", "3", "--target", "1"]
    code, out, _ = run_cli(argv, capsys)
    payload = json.loads(out)
    assert code == 2
    assert payload["config"]["max_depth"] == 3
    assert payload["report"]["depths"] == [1, 2, 3]
    assert payload["report"]["status"] == "inconclusive"


def test_completeness_stall_without_witness_is_inconclusive(write_system, capsys):
    # R = 4, L = {0, 13} is a spectrum: min Q stalls at 0 at t = 1, which
    # is no m_B-cycle point, so the stop below target claims nothing
    path = write_system({"d": 1, "R": [[4]], "B": [0, "1/2"], "L": [0, 13]})
    argv = ["completeness", "--system", path, "--depth", "1", "--grid", "0:1:0.01"]
    code, out, _ = run_cli(argv + ["--target", "0.99"], capsys)
    report = json.loads(out)["report"]
    assert code == 2
    assert report["converged"] is True and report["min_trace"] == [0, 0]
    assert report["argmin"] == [1]
    assert report["status"] == "inconclusive"


def test_completeness_max_depth_below_start(cantor4_file, capsys):
    argv = ["completeness", "--system", cantor4_file, "--depth", "3", "--max-depth", "2"]
    code, out, err = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 2 and err == ""
    assert [line for line in out.splitlines() if not line.startswith("#")] == ["t,Q"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_completeness_no_depth_evaluated(cantor4_file, capsys, fmt):
    # --max-depth 1 is below the starting depth 2: nothing is evaluated
    argv = ["completeness", "--system", cantor4_file, "--max-depth", "1", "--format", fmt]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and err == ""
    if fmt == "csv":
        assert [line for line in out.splitlines() if not line.startswith("#")] == ["t,Q"]
    else:
        report = json.loads(out)["report"]
        assert report["status"] == "inconclusive" and report["depths"] == []
        assert report["min_Q"] is None and report["max_Q"] is None and report["argmin"] is None


def test_completeness_rows_are_the_scanned_q(cantor4_file, capsys):
    argv = ["completeness", "--system", cantor4_file, "--depth", "2", "--grid", "0:1:0.05"]
    _, out, _ = run_cli(argv, capsys)
    report = json.loads(out)["report"]
    _, csv_out, _ = run_cli(argv + ["--format", "csv"], capsys)
    rows = [line.split(",") for line in csv_out.splitlines() if not line.startswith("#")][1:]
    q = [float(row[1]) for row in rows]
    assert len(q) == 21
    assert min(q) == report["min_Q"] and max(q) == report["max_Q"]


def test_orthogonality_exit_codes(cantor4_file, write_system, capsys):
    code, out, _ = run_cli(
        ["orthogonality", "--system", cantor4_file, "--depth", "2"], capsys
    )
    assert code == 0
    assert json.loads(out)["max_offdiag"] == 0

    r3 = write_system({"d": 1, "R": [[3]], "B": [0, 0.5], "L": [0, 1]}, "r3.json")
    code, out, _ = run_cli(["orthogonality", "--system", r3, "--depth", "1"], capsys)
    assert code == 2


def test_atoms_csv(cantor4_file, capsys):
    code, out, _ = run_cli(
        ["atoms", "--system", cantor4_file, "--depth", "2", "--format", "csv"],
        capsys,
    )
    data = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert code == 0
    assert data[0] == "index,x,weight"
    assert [ln.split(",")[1] for ln in data[1:]] == ["0", "0.125", "0.5", "0.625"]


def test_spectrum_csv(cantor4_file, capsys):
    code, out, _ = run_cli(
        ["spectrum", "--system", cantor4_file, "--depth", "1", "--format", "csv"],
        capsys,
    )
    data = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert code == 0
    assert data[0] == "index,lambda0"
    assert [ln.split(",")[1] for ln in data[1:]] == ["0", "1", "4", "5"]


def test_tiling_exit_codes(capsys):
    code, out, _ = run_cli(
        ["tiling", "--depth", "1", "--window=-10:6", "--samples", "500"], capsys
    )
    assert code == 0
    assert json.loads(out)["tiling"]["uniform"] is True

    code, out, _ = run_cli(
        [
            "tiling",
            "--depth",
            "1",
            "--window=-10:6",
            "--samples",
            "500",
            "--translate-factor",
            "-1",
        ],
        capsys,
    )
    assert code == 2
    assert json.loads(out)["tiling"]["max_mult"] == 2


def test_truncated_tiling_window_exits_two(write_system, capsys):
    # L = {0, 3}: the depth-5 covered set is 4096 separate unit runs, so the
    # largest run meeting the window is one tile; every sample on it has
    # multiplicity 1, but it stands for 1 of 13000 units of the window
    path = write_system({"d": 1, "R": [[4]], "B": ["0", "1/2"], "L": [0, 3]})
    argv = ["tiling", "--system", path, "--depth", "5", "--samples", "1000", "--window=-10000:3000"]
    code, out, _ = run_cli(argv, capsys)
    tiling = json.loads(out)["tiling"]
    assert tiling["uniform"] is True and tiling["truncated"] is True
    assert tiling["safe_window"][1] - tiling["safe_window"][0] == 1
    assert code == 2


def test_sweep_command(cantor4_file, capsys):
    code, out, _ = run_cli(
        ["sweep", "--system", cantor4_file, "--r-max", "2"], capsys
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["sweep"]["first_certified"] == 1


def test_hardy_command(cantor4_file, capsys):
    code, out, _ = run_cli(
        [
            "hardy",
            "--system",
            cantor4_file,
            "--coeffs",
            "0=1,1=0.5,4=0.25+0.25j,5=-0.125",
        ],
        capsys,
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["roundtrip"]["recon_error"] <= 1e-6


def test_hardy_two_dimensional_keys(write_system, capsys):
    code, out, _ = run_cli(
        ["hardy", "--system", write_system(QUAD2D), "--coeffs", "0:0=1,1:0=0.5,1:1=0.25j"],
        capsys,
    )
    trip = json.loads(out)["roundtrip"]
    assert code == 0
    assert trip["recon_error"] <= 1e-6
    assert len(trip["recovered"]) == 3


def test_hardy_basis_over_budget_exits_one(cantor4_file, capsys, monkeypatch):
    monkeypatch.setattr(verify, "word_sums", lambda *a: pytest.fail("allocated"))
    argv = ["hardy", "--system", cantor4_file, "--coeffs", "0=1,1=0.5", "--quadrature-depth", "24"]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert "exceeds the budget" in err and "Traceback" not in err


def test_hardy_key_with_wrong_dimension(cantor4_file, write_system, capsys):
    quad2d_file = write_system(QUAD2D, "quad2d.json")
    for system, coeffs in ((quad2d_file, "0=1,1=0.5"), (cantor4_file, "0:1=1")):
        code, out, err = run_cli(["hardy", "--system", system, "--coeffs", coeffs], capsys)
        assert code == 1
        assert out == ""
        assert "d = " in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fourier", "--system", "{cantor4}", "--grid", "0:1"], "bad grid axis '0:1', want a:b:step"),
        (["tiling", "--window", "0:1:2"], "bad window '0:1:2', want lo:hi"),
        (["hardy", "--system", "{cantor4}", "--coeffs", "0=1,1"], "bad coefficient '1', want lambda=value"),
        (["hardy", "--system", "{cantor4}", "--coeffs", ", ,"], "empty coefficient list"),
    ],
    ids=["grid-axis", "window", "coefficient-without-value", "no-coefficients"],
)
def test_malformed_flag_exits_one(cantor4_file, capsys, argv, message):
    argv = [arg.format(cantor4=cantor4_file) for arg in argv]
    assert run_cli(argv, capsys) == (1, "", f"error: {message}\n")


def test_empty_coefficient_items_are_skipped(cantor4_file, capsys):
    trips = []
    for coeffs in ("0=1,1=0.5", ",0=1,, ,1=0.5,"):
        code, out, _ = run_cli(["hardy", "--system", cantor4_file, "--coeffs", coeffs], capsys)
        assert code == 0
        trips.append(json.loads(out)["roundtrip"])
    assert trips[0] == trips[1]


def test_ruelle_bound_command(cantor4_file, capsys):
    code, out, _ = run_cli(
        ["ruelle-bound", "--system", cantor4_file, "--trials", "3", "--seed", "1"],
        capsys,
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["ratio_within_bound"] is True
    assert payload["gamma_bound"] < 1.0


@pytest.mark.parametrize("command", ["certify", "ruelle-bound"])
def test_negative_trials_exit_one(cantor4_file, capsys, command):
    argv = [command, "--system", cantor4_file, "--trials", "-3"]
    code, out, err = run_cli(argv, capsys)
    expected = "0" if command == "certify" else "1"
    assert (code, out, err) == (1, "", f"error: trials must be >= {expected}, got -3\n")


@pytest.mark.parametrize("command", ["certify", "ruelle-bound"])
def test_trials_past_the_budget_exit_one_before_a_probe_is_drawn(cantor4_file, capsys, monkeypatch, command):
    monkeypatch.setattr(ruelle.TrigPolynomial, "random", lambda *args: pytest.fail("a probe was drawn"))
    argv = [command, "--system", cantor4_file, "--trials", "1000000000"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err == f"error: too many probe trials for the budget of {ruelle.PROBE_BUDGET} coefficients\n"


def test_repeat_runs_byte_identical(cantor4_file, tmp_path, capsys):
    out_path = tmp_path / "artifact.json"
    blobs = []
    for _ in range(2):
        code, _, _ = run_cli(
            [
                "certify",
                "--system",
                cantor4_file,
                "--trials",
                "2",
                "--seed",
                "9",
                "--out",
                str(out_path),
            ],
            capsys,
        )
        assert code == 0
        blobs.append(out_path.read_bytes())
    assert blobs[0] == blobs[1]


def test_entry_point_subprocess(cantor4_file):
    proc = subprocess.run(
        [sys.executable, "-m", "fractalspec.cli", "validate", "--system", cantor4_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["validation"]["valid"] is True


SCIPY_BLOCKED = """
import json, sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
sys.path.insert(0, {src!r})
from fractalspec import cli, verify
from fractalspec.cli import main
code = main(["certify", "--system", {system!r}, "--trials", "3", "--seed", "1"])
loaded = [name for name, mod in sys.modules.items()
          if name.split(".")[0] == "scipy" and mod is not None]
print(json.dumps({{"code": code, "scipy_modules": loaded}}), file=sys.stderr)
raise SystemExit(code)
"""


def test_certify_runs_without_scipy():
    root = Path(__file__).resolve().parents[1]
    script = SCIPY_BLOCKED.format(
        src=str(root / "src"), system=str(root / "bench" / "systems" / "cantor4.json")
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=root
    )
    assert proc.returncode == 0, proc.stderr
    status = json.loads(proc.stderr.strip().splitlines()[-1])
    assert status == {"code": 0, "scipy_modules": []}
    report = json.loads(proc.stdout)
    assert report["certificate"]["basis_certified"] is True
    assert report["certificate"]["trials"] == 3


@pytest.mark.parametrize(
    "R, B, L, modulus, trials",
    [
        ([["1/100"]], ["0", "1/2"], ["0", "1"], "0.01", None),
        ([["1/2"]], ["0", "1/2"], ["0", "1"], "0.5", None),
        ([["1/100", "0"], ["0", "1/100"]], [[0, 0], ["1/2", 0]], [[0, 0], [1, 0]], "0.01", None),
        ([["1/100"]], ["0", "1/2"], ["0", "1"], "0.01", "1000000000"),
    ],
)
def test_ruelle_bound_rejects_non_expansive(write_system, capsys, R, B, L, modulus, trials):
    path = write_system({"d": len(R), "R": R, "B": B, "L": L})
    argv = ["ruelle-bound", "--system", path] + (["--trials", trials] if trials else [])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: R is not expansive (min eigenvalue modulus {modulus})\n"
    assert caught == []


@pytest.mark.parametrize(
    "argv", [["certify"], ["completeness", "--grid", "0:1:0.1", "--max-depth", "3"]], ids=lambda a: a[0]
)
def test_one_validation_per_system(write_system, capsys, monkeypatch, argv):
    # a non-integral system pays validate_compatibility's power loop: once,
    # in the report the command emits and its analysis reads; JSON numbers
    # are floats, so 1/3 here is the binary float (the string "1/3" is exact)
    path = write_system({"d": 1, "R": [[6]], "B": [0, 1 / 3, 2 / 3], "L": [0, 1, 2]})
    original, calls = systems.validate_compatibility, []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (systems, cli, ruelle, spectrum):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, counting)
    code, out, _ = run_cli([argv[0], "--system", path, *argv[1:]], capsys)
    assert code in (0, 2) and json.loads(out)["validation"]["exact_shortcut_used"] is False
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# usage errors, CSV forms and the process entry point


def _table(out):
    """The CSV lines after the '#' comments: the header, then the rows."""
    return [line for line in out.splitlines() if not line.startswith("#")]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "--system", "{cantor4}", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["certify", "--system", "{cantor4}", "--trials", "abc"], "argument --trials: invalid int value: 'abc'"),
        (["nosuch"], "argument command: invalid choice: 'nosuch'"),
        ([], "the following arguments are required: command"),
        (["classify", "--R", "3", "--a", "1/2", "--window", "30"], "unrecognized arguments: --window 30"),
        (["ruelle-bound", "--system", "{cantor4}", "--box=0:1"], "unrecognized arguments: --box=0:1"),
    ],
    ids=["format", "trials", "command", "no-command", "classify-window", "ruelle-bound-box"],
)
def test_usage_error_exits_one(cantor4_file, capsys, argv, message):
    # exit 2 would read as a computed negative verdict
    with pytest.raises(SystemExit) as exit_:
        main([arg.format(cantor4=cantor4_file) for arg in argv])
    out, err = capsys.readouterr()
    assert exit_.value.code == 1 and out == ""
    assert err.startswith("usage: fractalspec")
    assert err.splitlines()[-1].startswith(f"error: {message}")


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["certify", "--help"]])
def test_help_and_version_exit_zero(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out


def test_readme_cli_examples_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(lines) >= 14
    for words in lines:
        assert words[0] == "fractalspec"
        args = cli.build_parser().parse_args(words[1:])
        assert args.command == words[1]


def test_usage_error_subprocess_exits_one():
    proc = subprocess.run(
        [sys.executable, "-m", "fractalspec.cli", "nosuch"], capture_output=True, text=True
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith("error: argument command: invalid choice: 'nosuch'")


# (argv, home module, analysis): a command imports its analysis from the
# home module when it runs, so the patch goes there
JSON_ONLY = {
    "validate": (["validate", "--system", "{cantor4}"], cli, "validate_system"),
    "ruelle-bound": (["ruelle-bound", "--system", "{cantor4}"], ruelle, "estimate_gamma"),
    "certify": (["certify", "--system", "{cantor4}"], ruelle, "basis_certificate"),
    "classify": (["classify", "--R", "2", "--a", "1/4"], verify, "dim_one_classify"),
    "clique": (["clique", "--R", "3", "--a", "1/2"], verify, "max_orthogonal_clique"),
    "hardy": (["hardy", "--system", "{cantor4}", "--coeffs", "0=1"], verify, "hardy_roundtrip"),
}


@pytest.mark.parametrize("argv, module, analysis", JSON_ONLY.values(), ids=JSON_ONLY.keys())
def test_csv_refused_before_computing(cantor4_file, capsys, monkeypatch, argv, module, analysis):
    monkeypatch.setattr(module, analysis, lambda *a, **k: pytest.fail("the analysis ran"))
    argv = [arg.format(cantor4=cantor4_file) for arg in argv]
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--format", "csv"])
    out, err = capsys.readouterr()
    assert exit_.value.code == 1 and out == ""
    assert err.splitlines()[-1].startswith("error: argument --format: invalid choice: 'csv'")


def test_json_only_command_echoes_json_format(cantor4_file, capsys):
    code, out, _ = run_cli(["certify", "--system", cantor4_file, "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["config"]["format"] == "json"


def test_fourier_abs_column_is_scalar_abs(cantor4_file, capsys):
    # np.abs on the complex array differs from abs(complex) in the last bit
    # on thousands of these rows; the column must keep the scalar value
    argv = ["fourier", "--system", cantor4_file, "--grid", "0:64:0.005", "--format", "csv"]
    code, out, _ = run_cli(argv, capsys)
    rows = [line.split(",") for line in _table(out)[1:]]
    assert code == 0 and len(rows) == 12_801
    for _, re, im, mag, _ in rows:
        assert float(mag) == abs(complex(float(re), float(im)))


@pytest.mark.parametrize("system, depth", [("cantor4", 4), ("quad2d", 2)])
def test_orthogonality_pairs_in_nested_loop_order(cantor4_file, write_system, capsys, system, depth):
    from fractalspec import FractalMeasure, enumerate_spectrum, load_system, orthogonality_matrix
    from fractalspec.reports import fmt_float

    path = cantor4_file if system == "cantor4" else write_system(QUAD2D)
    argv = ["orthogonality", "--system", path, "--depth", str(depth), "--format", "csv"]
    code, out, _ = run_cli(argv, capsys)
    sys_ = load_system(path)
    spec = enumerate_spectrum(sys_, depth)
    _, table = orthogonality_matrix(FractalMeasure(sys_), spec)
    el = spec.elements
    expected = [
        ",".join([str(i), str(j), *map(fmt_float, el[i]), *map(fmt_float, el[j]), fmt_float(table[i, j])])
        for i in range(spec.size)
        for j in range(i + 1, spec.size)
    ]
    assert code == 0
    assert _table(out)[1:] == expected


@pytest.mark.parametrize(
    "argv, lines",
    [
        (["fourier", "--grid", "1:0:0.1"], ["t,re,im,abs,tail_bound"]),
        (["orthogonality", "--depth", "0"], ["i,j,lambda_i,lambda_j,abs_inner_product", "0,1,0,1,0"]),
        (["spectrum", "--depth", "0"], ["index,lambda0", "0,0", "1,1"]),
        (["atoms", "--depth", "0"], ["index,x,weight", "0,0,1"]),
    ],
    ids=["fourier-empty", "orthogonality-d0", "spectrum-d0", "atoms-d0"],
)
def test_degenerate_tables(cantor4_file, capsys, argv, lines):
    argv = argv[:1] + ["--system", cantor4_file] + argv[1:]
    code, out, _ = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 0 and _table(out) == lines
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    if argv[0] == "fourier":
        assert json.loads(out)["rows"] == []


@pytest.mark.parametrize("argv", [["validate"], ["spectrum", "--depth", "3", "--format", "csv"]])
def test_process_entry_matches_main(cantor4_file, capsys, argv):
    argv = argv[:1] + ["--system", cantor4_file] + argv[1:]
    code, out, err = run_cli(argv, capsys)
    proc = subprocess.run(
        [sys.executable, "-m", "fractalspec.cli", *argv], capture_output=True, text=True
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_only_the_process_entry_freezes_the_heap(cantor4_file, capsys, monkeypatch):
    probe = "import gc, fractalspec.cli; print(gc.get_freeze_count(), gc.isenabled())"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.stdout == "0 True\n"
    before = gc.get_freeze_count()
    run_cli(["validate", "--system", cantor4_file], capsys)
    assert gc.get_freeze_count() == before
    monkeypatch.setattr(cli, "main", lambda: 2)
    try:
        with pytest.raises(SystemExit) as exit_:
            cli.run()
        assert exit_.value.code == 2
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()


# ---------------------------------------------------------------------------
# the command contract: main() builds the config and maps the verdict


def _subcommands():
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


# one small run of every command
SMALL = {
    "validate": ["validate", "--system", "{cantor4}"],
    "fourier": ["fourier", "--system", "{cantor4}", "--grid", "0:1:0.5"],
    "atoms": ["atoms", "--system", "{cantor4}", "--depth", "2"],
    "spectrum": ["spectrum", "--system", "{cantor4}", "--depth", "1"],
    "orthogonality": ["orthogonality", "--system", "{cantor4}", "--depth", "1"],
    "completeness": ["completeness", "--system", "{cantor4}", "--grid", "0:1:0.5"],
    "ruelle-bound": ["ruelle-bound", "--system", "{cantor4}", "--trials", "2"],
    "certify": ["certify", "--system", "{cantor4}"],
    "classify": ["classify", "--R", "3", "--a", "1/2"],
    "clique": ["clique", "--R", "3", "--a", "1/2", "--window", "5"],
    "sweep": ["sweep", "--system", "{cantor4}", "--r-max", "2"],
    "tiling": ["tiling", "--window=-10:6", "--samples", "20"],
    "hardy": ["hardy", "--system", "{cantor4}", "--coeffs", "0=1"],
}


def test_every_command_has_a_small_run():
    assert set(SMALL) == set(_subcommands())


@pytest.mark.parametrize("command", SMALL)
def test_config_is_every_parsed_argument(cantor4_file, capsys, command):
    argv = [arg.format(cantor4=cantor4_file) for arg in SMALL[command]]
    code, out, _ = run_cli(argv, capsys)
    parsed = vars(cli.build_parser().parse_args(argv))
    del parsed["fn"]
    assert code in (0, 2)
    assert json.loads(out)["config"] == {
        **parsed,
        "schema_version": "1",
        "package_version": cli.__version__,
    }


@pytest.mark.parametrize("command", SMALL)
def test_csv_offered_exactly_when_a_table_is_returned(cantor4_file, command):
    argv = [arg.format(cantor4=cantor4_file) for arg in SMALL[command]]
    args = cli.build_parser().parse_args(argv)
    _, table, _ = args.fn(args, cli._load_system(args))
    fmt = next(a for a in _subcommands()[command]._actions if a.dest == "format")
    assert ("csv" in fmt.choices) == (table is not None)


@pytest.mark.parametrize("command", [*SMALL, "validate-n-max"])
def test_main_loads_and_validates_the_system_once(cantor4_file, capsys, monkeypatch, command):
    loaded = []
    for name in ("load_system", "two_digit_system", "cantor_four"):
        def counted(*args, load=getattr(cli, name), **kwargs):
            loaded.append(load(*args, **kwargs))
            return loaded[-1]

        monkeypatch.setattr(cli, name, counted)
    argv = SMALL["validate"] + ["--n-max", "3"] if command == "validate-n-max" else SMALL[command]
    code, out, _ = run_cli([arg.format(cantor4=cantor4_file) for arg in argv], capsys)
    assert code in (0, 2) and len(loaded) == 1
    validation = json.loads(out)["validation"]
    # only validate writes its own report, which differs at a non-default --n-max
    assert (validation == json.loads(render_json(loaded[0].validation))) == (command != "validate-n-max")


@pytest.mark.parametrize("command", SMALL)
def test_commands_run_on_the_system_they_are_given(cantor4_file, monkeypatch, command):
    args = cli.build_parser().parse_args([arg.format(cantor4=cantor4_file) for arg in SMALL[command]])
    sys_ = cli._load_system(args)
    for name in ("_load_system", "load_system", "two_digit_system", "cantor_four"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("the command loaded a system"))
    body, _, _ = args.fn(args, sys_)
    assert ("validation" in body) == (command == "validate")


@pytest.mark.parametrize("flag", [["--zero-tol", "1e-9"], ["--L", "0,1"]], ids=["zero-tol", "L"])
def test_clique_takes_no_tolerance_and_no_frequency_digits(capsys, flag):
    # the lattice and its edges come from R and a alone
    with pytest.raises(SystemExit) as exit_:
        main(["clique", "--R", "3", "--a", "1/2", *flag])
    assert exit_.value.code == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: unrecognized arguments: {' '.join(flag)}"


def test_hardy_records_its_error_bound(cantor4_file, capsys):
    argv = ["hardy", "--system", cantor4_file, "--coeffs", "0=1", "--max-error", "1/1000"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0 and json.loads(out)["config"]["max_error"] == 0.001


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_empty_grid_completeness_records_the_scan_settings(cantor4_file, capsys, fmt):
    argv = ["completeness", "--system", cantor4_file, "--grid", "1:0:0.01", "--format", fmt]
    code, out, _ = run_cli(argv + ["--max-depth", "5"], capsys)
    if fmt == "json":
        config = json.loads(out)["config"]
    else:
        config = json.loads(next(ln for ln in out.splitlines() if ln.startswith("# config: "))[10:])
    assert code == 0
    assert (config["increment_tol"], config["max_depth"]) == (1e-4, 5)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--samples", "100000000000"], "100000000000 samples exceed the tiling budget of 16777216"),
        (["--depth", "12"], "depth 12 gives 8192^2 translated tiles, over the tiling budget of 16777216"),
    ],
    ids=["samples", "tiles"],
)
def test_tiling_over_budget_exits_one(capsys, argv, message):
    code, out, err = run_cli(["tiling", "--window=0:1", *argv], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")
