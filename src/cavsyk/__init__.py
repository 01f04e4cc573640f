"""Cavity-mediated random two-body fermion models and chaos diagnostics.

The package simulates the full chain from optical ingredients to many-body
spectra: speckle-disordered detunings, trap/cavity mode overlaps, the
antisymmetrized coupling tensor, dense Fock-space Hamiltonians, and the
scrambling and spectral-statistics diagnostics used to benchmark against
all-to-all random (Gaussian and truncated-Cauchy) reference models.
"""

__version__ = "0.1.0"

from .couplings import (
    CouplingTensor,
    DriveProfile,
    IntegralTable,
    UNIFORM_DRIVE,
    compute_coupling_tensor,
    compute_integrals,
    fit_pseudo_voigt,
    independent_entries,
    normalize_couplings,
    plane_wave_drive,
)
from .diagnostics import (
    OtocSeries,
    SffSeries,
    TimeGrid,
    compute_otoc,
    compute_sff,
    extract_decay_time,
    extract_ramp_and_heisenberg,
    fit_power_law,
    log_time_grid,
    unfold_spectrum,
    unfold_spectrum_linear,
)
from .disorder import (
    DetuningRatioField,
    SpeckleField,
    detuning_ratio,
    generate_speckle,
)
from .ensemble import (
    RunConfig,
    RunManifest,
    compare_runs,
    load_manifest,
    run_ensemble,
    split_seed,
)
from .errors import (
    CapacityError,
    DegenerateInputError,
    EigensolverError,
    ExtractionError,
    FitError,
    ResolutionError,
)
from .fock import (
    FockSector,
    ManyBodyMatrix,
    Spectrum,
    build_effective_hamiltonian,
    diagonalize,
    enumerate_sector,
    sample_syk_cauchy,
    sample_syk_gaussian,
)
from .grids import (
    CavityModeSet,
    GridSpec,
    TrapModeSet,
    cantor_unpair,
    cavity_mode_set,
    hermite_functions,
    make_grid,
    same_grid,
    solve_trap_modes,
)

__all__ = [
    "CapacityError",
    "CavityModeSet",
    "CouplingTensor",
    "DegenerateInputError",
    "DetuningRatioField",
    "DriveProfile",
    "EigensolverError",
    "ExtractionError",
    "FitError",
    "FockSector",
    "GridSpec",
    "IntegralTable",
    "ManyBodyMatrix",
    "OtocSeries",
    "ResolutionError",
    "RunConfig",
    "RunManifest",
    "SffSeries",
    "Spectrum",
    "SpeckleField",
    "TimeGrid",
    "TrapModeSet",
    "UNIFORM_DRIVE",
    "build_effective_hamiltonian",
    "cantor_unpair",
    "cavity_mode_set",
    "compare_runs",
    "compute_coupling_tensor",
    "compute_integrals",
    "compute_otoc",
    "compute_sff",
    "detuning_ratio",
    "diagonalize",
    "enumerate_sector",
    "extract_decay_time",
    "extract_ramp_and_heisenberg",
    "fit_power_law",
    "fit_pseudo_voigt",
    "generate_speckle",
    "hermite_functions",
    "independent_entries",
    "load_manifest",
    "log_time_grid",
    "make_grid",
    "normalize_couplings",
    "plane_wave_drive",
    "run_ensemble",
    "same_grid",
    "sample_syk_cauchy",
    "sample_syk_gaussian",
    "solve_trap_modes",
    "split_seed",
    "unfold_spectrum",
    "unfold_spectrum_linear",
]
