"""Quasi-exactly-solvable spectra of a quartic-hyperbolic well and its
trigonometric partner.

Three independent algebraic routes (direct polynomial expansion, confluent
Heun termination, sl(2, R) gauge algebra) compute the solvable part of the
spectrum; a spectral eigensolver (sinc DVR on the line, Gegenbauer Galerkin
on the cell) provides an independent numeric cross-check over the full
low-lying spectrum.
"""

from .core import (
    MAX_ORDER,
    Family,
    Geometry,
    ModelParams,
    Normalization,
    Parity,
    PotentialCoefficients,
    WavefunctionSamples,
    anti_isospectral_map,
    coupling_m,
    coupling_v1,
    eval_potential,
    family_parity,
    potential_coefficients,
)
from .errors import (
    ConvergenceError,
    DegenerateParameterError,
    DomainError,
    QesError,
    UnsupportedFamilyError,
)
from .bethe import (
    QesLevel,
    QesSpectrum,
    assemble_wavefunction,
    closed_form_levels,
    solve_polynomial_system,
)
from .heun import (
    AffineMap,
    CheParams,
    SeriesCoefficients,
    delta_determinant,
    match_che,
    qes_energies_via_determinant,
    series_coefficients,
    termination_identity_check,
)
from .liealg import (
    LieSector,
    critical_polynomial,
    critical_values,
    gauge_factor,
    gauge_hamiltonian_matrix,
    lie_wavefunction,
    match_reference_form,
    qes_energies_via_recurrence,
    recurrence_coeffs,
)
from .numeric import (
    GridConfig,
    NumericSpectrum,
    eigen_lowest,
    fd_hamiltonian,
    numeric_spectrum,
)
from .report import (
    Tolerances,
    ValidationReport,
    cross_validate,
    emit_wavefunctions,
    reproduce_table,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_ORDER",
    "Family",
    "Geometry",
    "ModelParams",
    "Normalization",
    "Parity",
    "PotentialCoefficients",
    "WavefunctionSamples",
    "anti_isospectral_map",
    "coupling_m",
    "coupling_v1",
    "eval_potential",
    "family_parity",
    "potential_coefficients",
    "QesError",
    "DomainError",
    "UnsupportedFamilyError",
    "DegenerateParameterError",
    "ConvergenceError",
    "QesLevel",
    "QesSpectrum",
    "assemble_wavefunction",
    "closed_form_levels",
    "solve_polynomial_system",
    "AffineMap",
    "CheParams",
    "SeriesCoefficients",
    "delta_determinant",
    "match_che",
    "qes_energies_via_determinant",
    "series_coefficients",
    "termination_identity_check",
    "LieSector",
    "critical_polynomial",
    "critical_values",
    "gauge_factor",
    "gauge_hamiltonian_matrix",
    "lie_wavefunction",
    "match_reference_form",
    "qes_energies_via_recurrence",
    "recurrence_coeffs",
    "GridConfig",
    "NumericSpectrum",
    "eigen_lowest",
    "fd_hamiltonian",
    "numeric_spectrum",
    "Tolerances",
    "ValidationReport",
    "cross_validate",
    "emit_wavefunctions",
    "reproduce_table",
]
