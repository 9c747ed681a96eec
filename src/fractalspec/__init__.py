"""fractalspec: harmonic analysis of self-similar measures from affine systems.

Build a system with :func:`make_system` (or load a JSON file), wrap it in a
:class:`FractalMeasure`, and interrogate it: enumerate the candidate
frequency set, test orthogonality and completeness of the exponentials,
bound the transfer operator's contraction ratio, and certify (or refute at
desk scale) the orthonormal-basis property.

The namespace is lazy (PEP 562): ``import fractalspec`` binds only
``__version__`` and the exception types.  Every other public name imports
its home module on first use and is then cached here, and a submodule name
(``fractalspec.measure``, ``fractalspec._numeric``, ...) imports that
submodule.  So a command-line process loads only the modules its command
runs (see the README's module map).
"""

from importlib import import_module

__version__ = "0.1.0"

# home module of every public name: the lazy lookup and __all__ read it
_EXPORTS = {
    "errors": ("BudgetError", "ConvergenceError", "DomainError", "FractalSpecError", "ValidationError"),
    "measure": (
        "AtomicApproximation",
        "FractalMeasure",
        "GridFunction",
        "apply_ruelle",
        "atomic_approximation",
        "chaos_sample",
        "chi_mask",
        "fourier_mu",
        "fourier_mu_many",
        "moments",
    ),
    "ruelle": (
        "ContractionReport",
        "basis_certificate",
        "contraction_probe",
        "estimate_gamma",
        "lipschitz_norm",
    ),
    "spectrum": (
        "CompletenessReport",
        "SpectrumEnumeration",
        "completeness_scan",
        "enumerate_spectrum",
        "orthogonality_matrix",
        "q_partial",
        "q_partial_many",
        "separation",
    ),
    "systems": (
        "AffineSystem",
        "ValidationReport",
        "attractor_hull",
        "cantor_four",
        "check_hadamard",
        "hadamard_matrix",
        "load_system",
        "make_system",
        "parse_system",
        "scale_system",
        "spectral_expansiveness",
        "two_digit_system",
        "validate_compatibility",
        "validate_system",
    ),
    "verify": (
        "DichotomyVerdict",
        "HardyReport",
        "SweepReport",
        "TilingReport",
        "dim_one_classify",
        "hardy_roundtrip",
        "max_orthogonal_clique",
        "scaling_sweep",
        "tiling_multiplicity",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset([*_EXPORTS, "_numeric", "cli", "exact", "reports"])

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


for _name in _EXPORTS["errors"]:  # the exception types are bound eagerly
    __getattr__(_name)
del _name
