"""Byte-determinism of CLI artifacts against committed digests.

Each command runs in-process through ``cli.main`` on the committed system
files and its artifact (stdout) is hashed; the digests in
``cli_digests.json`` were recorded from an earlier build, so any change to
the numbers the Fourier, spectrum, ruelle or verify layers emit shows up
here as a changed digest.  Re-record the file only when such a change is
intended, with ``PYTHONPATH=src python tests/test_cli_digests.py`` from the
root of the checkout.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from fractalspec.cli import main

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("cli_digests.json")
C4 = "bench/systems/cantor4.json"
Q2 = "bench/systems/quad2d.json"

# name -> (argv, exit code); system paths are relative to ROOT because the
# configuration echoed into every artifact carries them
COMMANDS = {
    "fourier.cantor4": (["fourier", "--system", C4, "--grid", "0:64:0.005", "--format", "csv"], 0),
    "fourier.quad2d": (["fourier", "--system", Q2, "--grid=-3:3:0.25,-3:3:0.25"], 0),
    "orthogonality.cantor4": (["orthogonality", "--system", C4, "--depth", "6"], 0),
    "orthogonality.quad2d": (["orthogonality", "--system", Q2, "--depth", "2"], 0),
    "completeness.cantor4": (["completeness", "--system", C4], 0),
    "completeness.quad2d": (
        ["completeness", "--system", Q2, "--grid", "0:1:0.25,0:1:0.25", "--max-depth", "3"],
        0,
    ),
    "certify.cantor4": (["certify", "--system", C4], 0),
    "certify.quad2d": (["certify", "--system", Q2], 2),
    "certify.cantor4.probes": (["certify", "--system", C4, "--trials", "20", "--seed", "7"], 0),
    "ruelle-bound.cantor4": (["ruelle-bound", "--system", C4, "--trials", "20", "--seed", "3"], 0),
    "classify.R4": (["classify", "--R", "4", "--a", "1/2"], 0),
    "sweep.quad2d": (["sweep", "--system", Q2, "--r-max", "8"], 0),
    "hardy.cantor4": (["hardy", "--system", C4, "--coeffs", "0=1,1=0.5-0.25j,4=0.125j"], 0),
    "atoms.cantor4": (["atoms", "--system", C4, "--depth", "10"], 0),
    "validate.cantor4": (["validate", "--system", C4], 0),
    "validate.quad2d": (["validate", "--system", Q2], 0),
    "spectrum.cantor4": (["spectrum", "--system", C4, "--depth", "4"], 0),
    "spectrum.quad2d.csv": (["spectrum", "--system", Q2, "--depth", "2", "--format", "csv"], 0),
    "tiling.cantor4": (["tiling", "--depth", "3", "--samples", "1000", "--window=-40:20"], 0),
    "tiling.cantor4.csv": (
        ["tiling", "--depth", "3", "--samples", "1000", "--window=-40:20", "--format", "csv"],
        0,
    ),
    "tiling.truncated": (["tiling", "--depth", "1", "--samples", "50", "--window=-100:100"], 0),
    "clique.R3": (["clique", "--R", "3", "--a", "1/2", "--window", "40"], 0),
    "classify.R3": (["classify", "--R", "3", "--a", "1/2", "--window", "30"], 0),
    "classify.R2": (["classify", "--R", "2", "--a", "1/4"], 0),
    "sweep.cantor4.csv": (["sweep", "--system", C4, "--r-max", "4", "--format", "csv"], 0),
    "completeness.cantor4.csv": (["completeness", "--system", C4, "--format", "csv"], 0),
    "completeness.empty-grid": (["completeness", "--system", C4, "--grid", "1:0:0.1"], 0),
    "completeness.no-depth": (["completeness", "--system", C4, "--max-depth", "1"], 2),
    "hardy.quad2d": (
        ["hardy", "--system", Q2, "--coeffs", "0:0=1,1:0=0.5", "--quadrature-depth", "5"],
        0,
    ),
    "ruelle-bound.quad2d": (["ruelle-bound", "--system", Q2], 2),
}


def artifact_digest(argv: list[str]) -> tuple[int, str]:
    """Exit code of ``main(argv)`` run from ROOT, and the sha256 of its stdout."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


def test_digests_cover_every_command(recorded):
    assert set(recorded) == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_artifact_bytes_unchanged(recorded, name):
    argv, expected_code = COMMANDS[name]
    code, digest = artifact_digest(argv)
    assert code == expected_code
    assert digest == recorded[name]


if __name__ == "__main__":
    digests = {}
    for name, (argv, expected_code) in sorted(COMMANDS.items()):
        code, digests[name] = artifact_digest(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
