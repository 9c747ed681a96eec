import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from fractalspec.cli import main


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


def test_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    code, _, err = run_cli(["validate", "--system", str(bad)], capsys)
    assert code == 1
    assert "line 1" in err


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


def test_classify_outside_theorem(capsys):
    code, out, _ = run_cli(["classify", "--R", "2", "--a", "1/2"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"]["predicted"] == "outside-theorem"


def test_decimal_warning(capsys):
    code, _, err = run_cli(["clique", "--R", "3", "--a", "0.3", "--window", "5"], capsys)
    assert code == 0
    assert "warning" in err


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


def test_completeness_max_depth_below_start(cantor4_file, capsys):
    argv = ["completeness", "--system", cantor4_file, "--depth", "3", "--max-depth", "2"]
    code, out, err = run_cli(argv + ["--format", "csv"], capsys)
    assert code == 2 and err == ""
    assert [line for line in out.splitlines() if not line.startswith("#")] == ["t,Q"]


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


def test_hardy_key_with_wrong_dimension(cantor4_file, write_system, capsys):
    quad2d_file = write_system(QUAD2D, "quad2d.json")
    for system, coeffs in ((quad2d_file, "0=1,1=0.5"), (cantor4_file, "0:1=1")):
        code, out, err = run_cli(["hardy", "--system", system, "--coeffs", coeffs], capsys)
        assert code == 1
        assert out == ""
        assert "d = " in err and "Traceback" not in err


def test_ruelle_bound_command(cantor4_file, capsys):
    code, out, _ = run_cli(
        ["ruelle-bound", "--system", cantor4_file, "--trials", "3", "--seed", "1"],
        capsys,
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["ratio_within_bound"] is True
    assert payload["gamma_bound"] < 1.0


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
    "R, B, L, modulus",
    [
        ([["1/100"]], ["0", "1/2"], ["0", "1"], "0.01"),
        ([["1/2"]], ["0", "1/2"], ["0", "1"], "0.5"),
        ([["1/100", "0"], ["0", "1/100"]], [[0, 0], ["1/2", 0]], [[0, 0], [1, 0]], "0.01"),
    ],
)
def test_ruelle_bound_rejects_non_expansive(write_system, capsys, R, B, L, modulus):
    path = write_system({"d": len(R), "R": R, "B": B, "L": L})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(["ruelle-bound", "--system", path], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: R is not expansive (min eigenvalue modulus {modulus})\n"
    assert caught == []
