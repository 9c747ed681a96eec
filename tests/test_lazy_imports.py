"""The lazy package namespace, the package's import layers and the modules
each CLI command loads.

Which modules a process loads is checked on ``sys.modules`` in a fresh
interpreter: the test process itself has imported everything long ago.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import fractalspec

PUBLIC_NAMES = [
    "__version__",
    "AffineSystem",
    "AtomicApproximation",
    "BudgetError",
    "CompletenessReport",
    "ContractionReport",
    "ConvergenceError",
    "DichotomyVerdict",
    "DomainError",
    "FractalMeasure",
    "FractalSpecError",
    "GridFunction",
    "HardyReport",
    "SpectrumEnumeration",
    "SweepReport",
    "TilingReport",
    "ValidationError",
    "ValidationReport",
    "apply_ruelle",
    "atomic_approximation",
    "attractor_hull",
    "basis_certificate",
    "cantor_four",
    "chaos_sample",
    "check_hadamard",
    "chi_mask",
    "completeness_scan",
    "contraction_probe",
    "dim_one_classify",
    "enumerate_spectrum",
    "estimate_gamma",
    "fourier_mu",
    "fourier_mu_many",
    "hadamard_matrix",
    "hardy_roundtrip",
    "lipschitz_norm",
    "load_system",
    "make_system",
    "max_orthogonal_clique",
    "moments",
    "orthogonality_matrix",
    "parse_system",
    "q_partial",
    "q_partial_many",
    "scale_system",
    "scaling_sweep",
    "separation",
    "spectral_expansiveness",
    "tiling_multiplicity",
    "two_digit_system",
    "validate_compatibility",
    "validate_system",
]
SUBMODULES = ["_numeric", "cli", "errors", "exact", "measure", "reports", "ruelle", "spectrum", "systems", "verify"]
ANALYSIS = {"measure", "ruelle", "spectrum", "verify"}
# what every command needs; the command runs as __main__, not as fractalspec.cli
COMMON = {"errors", "exact", "_numeric", "systems", "reports"}


def test_all_is_pinned():
    assert fractalspec.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", PUBLIC_NAMES[1:])
def test_name_is_the_object_of_its_home_module(name):
    value = getattr(fractalspec, name)
    assert getattr(sys.modules[value.__module__], name) is value
    assert sys.modules[value.__module__] is getattr(fractalspec, value.__module__.split(".")[1])


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_resolves(name):
    assert getattr(fractalspec, name) is sys.modules[f"fractalspec.{name}"]


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(fractalspec))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from fractalspec import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(fractalspec, name)


def test_unknown_name():
    assert not hasattr(fractalspec, "nope")
    with pytest.raises(ImportError):
        from fractalspec import nope  # noqa: F401


PROBE = """
import atexit, sys
atexit.register(lambda: print(*sorted(
    name.split(".", 1)[1] for name in sys.modules if name.startswith("fractalspec.")
), file=sys.stderr))
"""
RUN_CLI = 'import runpy; runpy.run_module("fractalspec.cli", run_name="__main__", alter_sys=True)'


def loaded_submodules(code: str, *argv: str) -> set[str]:
    """fractalspec's submodules in sys.modules when a fresh interpreter
    running ``code`` (with ``argv``) exits."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE + code, *argv], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def test_package_import_loads_only_the_errors():
    assert loaded_submodules("import fractalspec") == {"errors"}


def test_exact_imports_no_numpy():
    code = "import sys, fractalspec.exact; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_cli_import_loads_only_what_every_command_needs():
    assert loaded_submodules("import fractalspec.cli") == COMMON | {"cli"}


@pytest.mark.parametrize(
    "argv, analysis",
    [
        (["validate"], set()),
        (["fourier", "--grid", "0:1:0.5"], {"measure"}),
        (["certify"], {"measure", "ruelle"}),
        (["spectrum", "--depth", "1"], {"measure", "spectrum"}),
        (["orthogonality", "--depth", "1"], {"measure", "spectrum"}),
        (["completeness", "--depth", "1", "--grid", "0:1:0.5"], {"measure", "spectrum"}),
        (["hardy", "--coeffs", "0=1", "--quadrature-depth", "4"], ANALYSIS),
    ],
    ids=["validate", "fourier", "certify", "spectrum", "orthogonality", "completeness", "hardy"],
)
def test_command_loads_only_its_modules(cantor4_file, argv, analysis):
    argv = [argv[0], "--system", cantor4_file, *argv[1:]]
    assert loaded_submodules(RUN_CLI, *argv) == COMMON | analysis


# the intra-package imports each module may make, function-level ones
# included: systems <- measure <- {ruelle, spectrum} <- verify <- cli, with
# errors, _numeric, exact and reports below them all; __init__ imports lazily
BASE = {"errors", "_numeric", "exact"}
ALLOWED_IMPORTS = {
    "__init__": set(),
    "errors": set(),
    "_numeric": set(),
    "exact": {"errors"},
    "reports": set(),
    "systems": BASE,
    "measure": BASE | {"systems"},
    "ruelle": BASE | {"systems", "measure"},
    "spectrum": BASE | {"systems", "measure"},
    "verify": BASE | {"systems", "measure", "ruelle", "spectrum"},
    "cli": BASE | {"__init__", "reports", "systems", "measure", "ruelle", "spectrum", "verify"},
}
PACKAGE_DIR = Path(fractalspec.__file__).parent


def package_imports(module: str) -> set[str]:
    """The fractalspec modules that ``module``'s source imports anywhere;
    a name of the package itself counts as ``__init__``."""
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            head = ("fractalspec." if node.level else "") + (node.module or "")
            names = [f"{head}.{alias.name}".replace("..", ".") for alias in node.names]
        else:
            continue
        for parts in (name.split(".") for name in names):
            if parts[0] == "fractalspec":
                sub = parts[1] if len(parts) > 1 else ""
                found.add(sub if (PACKAGE_DIR / f"{sub}.py").is_file() else "__init__")
    return found


def test_every_module_has_a_layer():
    assert {path.stem for path in PACKAGE_DIR.glob("*.py")} == set(ALLOWED_IMPORTS)


@pytest.mark.parametrize("module", sorted(ALLOWED_IMPORTS))
def test_imports_stay_in_their_layer(module):
    assert package_imports(module) <= ALLOWED_IMPORTS[module]


def test_spectrum_does_not_import_ruelle():
    assert "ruelle" not in package_imports("spectrum")


def test_transfer_operator_homes():
    from fractalspec import measure, ruelle, systems

    homes = {
        measure: ("GridFunction", "apply_ruelle"),
        systems: ("as_box", "attractor_hull", "check_box_invariance"),
    }
    for module, names in homes.items():
        for name in names:
            assert getattr(module, name).__module__ == module.__name__
            if name != "check_box_invariance":  # traced by the benchmark layers as ruelle.<name>
                assert getattr(ruelle, name) is getattr(module, name)


@pytest.mark.parametrize("module", sorted(ALLOWED_IMPORTS))
def test_no_private_name_crosses_modules(module):
    tree = ast.parse((PACKAGE_DIR / f"{module}.py").read_text())
    crossing = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert crossing == []
