"""fractalspec: harmonic analysis of self-similar measures from affine systems.

Build a system with :func:`make_system` (or load a JSON file), wrap it in a
:class:`FractalMeasure`, and interrogate it: enumerate the candidate
frequency set, test orthogonality and completeness of the exponentials,
bound the transfer operator's contraction ratio, and certify (or refute at
desk scale) the orthonormal-basis property.
"""

from .errors import (
    BudgetError,
    ConvergenceError,
    DomainError,
    FractalSpecError,
    ValidationError,
)
from .measure import (
    AtomicApproximation,
    FractalMeasure,
    atomic_approximation,
    chaos_sample,
    chi_mask,
    fourier_mu,
    fourier_mu_many,
    moments,
)
from .ruelle import (
    ContractionReport,
    GridFunction,
    apply_ruelle,
    attractor_hull,
    basis_certificate,
    contraction_probe,
    estimate_gamma,
    lipschitz_norm,
)
from .spectrum import (
    CompletenessReport,
    SpectrumEnumeration,
    completeness_scan,
    enumerate_spectrum,
    orthogonality_matrix,
    q_partial,
    q_partial_many,
    separation,
)
from .systems import (
    AffineSystem,
    ValidationReport,
    cantor_four,
    check_hadamard,
    hadamard_matrix,
    load_system,
    make_system,
    parse_system,
    scale_system,
    spectral_expansiveness,
    two_digit_system,
    validate_compatibility,
    validate_system,
)
from .verify import (
    DichotomyVerdict,
    HardyReport,
    SweepReport,
    TilingReport,
    dim_one_classify,
    hardy_roundtrip,
    max_orthogonal_clique,
    scaling_sweep,
    tiling_multiplicity,
)

__version__ = "0.1.0"

__all__ = [
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
